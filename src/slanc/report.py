"""Audit and comparison reports over engine runs.

The audit report condenses a forward pass into per-norm overflow and
underflow counts plus a log2 histogram of the raw sums of squares,
with the binary16 landmarks (max finite 65504, min normal 2^-14)
alongside for plotting cut-off lines.  The comparison report runs the
same inputs through the reference mode, plain FP16, and FP16 with a
scale table, and summarizes how far each final hidden state drifts
from the reference.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from . import fp16, serialization
from .engine import (
    BUCKET_MIN_EXP,
    FP16_POLICY,
    N_BUCKETS,
    REFERENCE_POLICY,
    ForwardResult,
    Histogram,
    NonPositiveVarianceError,
    forward,
)
from .model import ModelGraph
from .scales import ScaleTable


@dataclass(frozen=True)
class NormAuditSummary:
    norm_id: str
    layer: int
    scale_applied: float
    token_count: int
    overflow_count: int
    underflow_count: int
    histogram: Histogram


@dataclass(frozen=True)
class AuditReport:
    policy: str  # "fp16" or "fp64"
    tokens: int
    seed: int | None
    norms: tuple
    fp16_max_finite: float = fp16.MAX_FINITE
    fp16_min_normal: float = fp16.MIN_NORMAL

    @property
    def total_overflows(self) -> int:
        return sum(n.overflow_count for n in self.norms)

    @property
    def total_underflows(self) -> int:
        return sum(n.underflow_count for n in self.norms)

    def to_json_text(self) -> str:
        doc = {
            "policy": self.policy,
            "tokens": self.tokens,
            "seed": self.seed,
            "fp16_max_finite": self.fp16_max_finite,
            "fp16_min_normal": self.fp16_min_normal,
            "norms": [
                {
                    "norm_id": n.norm_id,
                    "layer": n.layer,
                    "scale_applied": n.scale_applied,
                    "token_count": n.token_count,
                    "overflow_count": n.overflow_count,
                    "underflow_count": n.underflow_count,
                    "histogram": {
                        "below": n.histogram.below,
                        "counts": list(n.histogram.counts),
                        "above": n.histogram.above,
                    },
                }
                for n in self.norms
            ],
        }
        return serialization.dumps(doc)

    @classmethod
    def from_json_text(cls, text: str) -> "AuditReport":
        doc = json.loads(text)
        norms = tuple(
            NormAuditSummary(
                norm_id=str(n["norm_id"]),
                layer=int(n["layer"]),
                scale_applied=float(n["scale_applied"]),
                token_count=int(n["token_count"]),
                overflow_count=int(n["overflow_count"]),
                underflow_count=int(n["underflow_count"]),
                histogram=Histogram(
                    below=int(n["histogram"]["below"]),
                    counts=tuple(int(c) for c in n["histogram"]["counts"]),
                    above=int(n["histogram"]["above"]),
                ),
            )
            for n in doc["norms"]
        )
        return cls(
            policy=str(doc["policy"]),
            tokens=int(doc["tokens"]),
            seed=None if doc["seed"] is None else int(doc["seed"]),
            norms=norms,
            fp16_max_finite=float(doc["fp16_max_finite"]),
            fp16_min_normal=float(doc["fp16_min_normal"]),
        )

    def to_csv_text(self) -> str:
        """One column per norm, one row per bucket; columns sum to tokens."""
        lines = ["bucket," + ",".join(n.norm_id for n in self.norms)]
        rows: list[tuple[str, list[int]]] = [("below", [n.histogram.below for n in self.norms])]
        for k in range(N_BUCKETS):
            label = f"2^{BUCKET_MIN_EXP + k}"
            rows.append((label, [n.histogram.counts[k] for n in self.norms]))
        rows.append(("above", [n.histogram.above for n in self.norms]))
        for label, counts in rows:
            lines.append(label + "," + ",".join(str(c) for c in counts))
        return "\n".join(lines) + "\n"


def build_audit_report(
    result: ForwardResult,
    model: ModelGraph,
    policy_name: str,
    seed: int | None,
) -> AuditReport:
    norms = []
    for site in model.norm_sites:
        audit = result.audit[site.norm_id]
        norms.append(
            NormAuditSummary(
                norm_id=site.norm_id,
                layer=site.layer,
                scale_applied=audit.scale_applied,
                token_count=audit.raw_sums.size,
                overflow_count=int(audit.overflowed.sum()),
                underflow_count=int(audit.underflowed.sum()),
                histogram=audit.histogram,
            )
        )
    return AuditReport(
        policy=policy_name,
        tokens=result.output.shape[0],
        seed=seed,
        norms=tuple(norms),
    )


# ── comparison across precision modes ────────────────────────────────────


@dataclass(frozen=True)
class CompareRow:
    mode: str  # "FP64", "FP16", "FP16+SLaNC"
    median_rel_err: float
    max_rel_err: float
    overflow_count: int
    underflow_count: int


@dataclass(frozen=True)
class CompareReport:
    tokens: int
    seed: int | None
    rows: tuple

    def to_json_text(self) -> str:
        doc = {
            "tokens": self.tokens,
            "seed": self.seed,
            "rows": [
                {
                    "mode": r.mode,
                    "median_rel_err": r.median_rel_err,
                    "max_rel_err": r.max_rel_err,
                    "overflow_count": r.overflow_count,
                    "underflow_count": r.underflow_count,
                }
                for r in self.rows
            ],
        }
        return serialization.dumps(doc)

    @classmethod
    def from_json_text(cls, text: str) -> "CompareReport":
        doc = json.loads(text)
        rows = tuple(
            CompareRow(
                mode=str(r["mode"]),
                median_rel_err=float(r["median_rel_err"]),
                max_rel_err=float(r["max_rel_err"]),
                overflow_count=int(r["overflow_count"]),
                underflow_count=int(r["underflow_count"]),
            )
            for r in doc["rows"]
        )
        return cls(
            tokens=int(doc["tokens"]),
            seed=None if doc["seed"] is None else int(doc["seed"]),
            rows=rows,
        )

    def to_text(self) -> str:
        header = f"{'mode':<12} {'median_rel_err':>15} {'max_rel_err':>15} {'overflows':>10} {'underflows':>11}"
        lines = [header, "-" * len(header)]
        for r in self.rows:
            lines.append(
                f"{r.mode:<12} {r.median_rel_err:>15.6g} {r.max_rel_err:>15.6g} "
                f"{r.overflow_count:>10} {r.underflow_count:>11}"
            )
        return "\n".join(lines) + "\n"


def relative_mismatch(reference: np.ndarray, candidate: np.ndarray) -> tuple[float, float]:
    """Median and max elementwise relative difference against reference.

    The denominator is floored at the reference's RMS so that entries
    that happen to sit near zero do not blow the ratio up; a NaN or inf
    anywhere in the candidate makes the result non-finite.
    """
    ref = np.asarray(reference, dtype=np.float64)
    cand = np.asarray(candidate, dtype=np.float64)
    rms = float(np.sqrt(np.mean(ref * ref)))
    if rms == 0.0:
        rms = 1.0
    rel = np.abs(cand - ref) / np.maximum(np.abs(ref), rms)
    return float(np.median(rel)), float(np.max(rel))


def _flag_counts(result: ForwardResult) -> tuple[int, int]:
    """Overflowed and underflowed sums over every norm of a pass."""
    audits = result.audit.values()
    return (sum(int(a.overflowed.sum()) for a in audits),
            sum(int(a.underflowed.sum()) for a in audits))


def run_compare(
    model: ModelGraph,
    x0: np.ndarray,
    scales: ScaleTable,
    seed: int | None = None,
) -> CompareReport:
    """Reference, plain FP16, and FP16+scales on identical inputs.

    The plain-FP16 run may die of rounding-induced non-positive
    variance; that is a result, not an error: its row reports infinite
    mismatch.  The reference and scaled runs propagate errors.
    """
    reference = forward(model, x0, REFERENCE_POLICY, scales=None)
    rows = [CompareRow("FP64", 0.0, 0.0, 0, 0)]
    try:
        plain = forward(model, x0, FP16_POLICY, scales=None)
        median, peak = relative_mismatch(reference.output, plain.output)
        rows.append(CompareRow("FP16", median, peak, *_flag_counts(plain)))
    except NonPositiveVarianceError:
        rows.append(CompareRow("FP16", math.inf, math.inf, 0, 0))
    scaled = forward(model, x0, FP16_POLICY, scales=scales)
    median, peak = relative_mismatch(reference.output, scaled.output)
    rows.append(CompareRow("FP16+SLaNC", median, peak, *_flag_counts(scaled)))
    return CompareReport(tokens=x0.shape[0], seed=seed, rows=tuple(rows))
