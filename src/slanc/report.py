"""Audit and comparison reports over engine runs.

Each report is its JSON document: a plain dict built once, in schema
order, which `serialization.dumps` writes as it stands.  The engine
returns per-token columns; this module summarizes them.  The audit
document condenses a forward pass into per-norm overflow and underflow
counts plus a log2 histogram of the raw sums of squares (`histogram`,
whose bucket layout lives here alone), with the binary16 landmarks
(max finite 65504, min normal 2^-14) alongside for plotting cut-off
lines; `audit_csv` renders its histograms as a table.
The comparison document runs the same inputs through the reference
mode, plain FP16, and FP16 with a scale table in one walk of the model,
and summarizes how far each final hidden state drifts from the
reference; `compare_text` renders it for the terminal.
"""

from __future__ import annotations

import math

import numpy as np

from . import fp16
from .engine import (
    FP16_POLICY,
    REFERENCE_POLICY,
    ForwardResult,
    NonPositiveVarianceError,
    forward_passes,
)
from .model import ModelGraph, ModelStream


BUCKET_MIN_EXP = -30
BUCKET_MAX_EXP = 30
N_BUCKETS = BUCKET_MAX_EXP - BUCKET_MIN_EXP


def histogram(values) -> dict:
    """log2-bucketed counts: bucket k covers [2^(k-30), 2^(k-29)); below
    holds zero, negatives, -inf and anything under 2^-30, above NaN and
    anything from 2^30 up."""
    v = np.asarray(values, dtype=np.float64).ravel()
    above = np.isnan(v) | (v >= 2.0**BUCKET_MAX_EXP)
    below = v < 2.0**BUCKET_MIN_EXP
    _, exponent = np.frexp(v[~(above | below)])  # v = mantissa * 2^exponent
    counts = np.bincount(exponent - 1 - BUCKET_MIN_EXP, minlength=N_BUCKETS)
    return {"below": int(below.sum()), "counts": counts.tolist(),
            "above": int(above.sum())}


def build_audit_report(result: ForwardResult, model: ModelGraph | ModelStream,
                       policy_name: str, seed: int | None) -> dict:
    """The audit document: one entry per norm, in execution order."""
    norms = []
    for site in model.norm_sites:
        audit = result.audit[site.norm_id]
        norms.append({
            "norm_id": site.norm_id,
            "layer": site.layer,
            "scale_applied": audit.scale_applied,
            "token_count": audit.raw_sums.size,
            "overflow_count": int(audit.overflowed.sum()),
            "underflow_count": int(audit.underflowed.sum()),
            "histogram": histogram(audit.raw_sums),
        })
    return {
        "policy": policy_name,  # "fp16" or "fp64"
        "tokens": result.output.shape[0],
        "seed": seed,
        "fp16_max_finite": fp16.MAX_FINITE,
        "fp16_min_normal": fp16.MIN_NORMAL,
        "norms": norms,
    }


def audit_csv(doc: dict) -> str:
    """One column per norm, one row per bucket; columns sum to tokens."""
    histograms = [n["histogram"] for n in doc["norms"]]
    rows = [("below", [h["below"] for h in histograms])]
    rows += [(f"2^{BUCKET_MIN_EXP + k}", [h["counts"][k] for h in histograms])
             for k in range(N_BUCKETS)]
    rows.append(("above", [h["above"] for h in histograms]))
    lines = ["bucket," + ",".join(n["norm_id"] for n in doc["norms"])]
    lines += [label + "," + ",".join(str(c) for c in counts) for label, counts in rows]
    return "\n".join(lines) + "\n"


# ── comparison across precision modes ────────────────────────────────────


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


def _row(mode: str, errors: tuple[float, float], audits=()) -> dict:
    """One compare row; the counts sum the flags over every norm of a pass."""
    median, peak = errors
    return {
        "mode": mode,  # "FP64", "FP16" or "FP16+SLaNC"
        "median_rel_err": median,
        "max_rel_err": peak,
        "overflow_count": sum(int(a.overflowed.sum()) for a in audits),
        "underflow_count": sum(int(a.underflowed.sum()) for a in audits),
    }


def run_compare(model: ModelGraph | ModelStream, x0: np.ndarray, scales: dict,
                seed: int | None = None) -> dict:
    """The comparison document: reference, plain FP16, and FP16+scales
    on identical inputs, three passes in one walk of model.

    The plain-FP16 run may die of rounding-induced non-positive
    variance; that is a result, not an error: its row reports infinite
    mismatch and names the norm and token that failed.  The scaled and
    then the reference run raise theirs, as forward_passes orders them.
    """
    scaled, reference, plain = forward_passes(model, x0, [
        (FP16_POLICY, scales), (REFERENCE_POLICY, None), (FP16_POLICY, None)])
    for result in (scaled, reference):
        if isinstance(result, Exception):
            raise result
    rows = [_row("FP64", (0.0, 0.0))]
    if isinstance(plain, NonPositiveVarianceError):
        rows.append(_row("FP16", (math.inf, math.inf))
                    | {"failed_norm": plain.norm_id, "failed_token": plain.token_index})
    else:
        rows.append(_row("FP16", relative_mismatch(reference.output, plain.output),
                         plain.audit.values()))
    rows.append(_row("FP16+SLaNC", relative_mismatch(reference.output, scaled.output),
                     scaled.audit.values()))
    return {"tokens": x0.shape[0], "seed": seed, "rows": rows}


def compare_text(doc: dict) -> str:
    """The table compare prints, then one line per pass that failed."""
    header = f"{'mode':<12} {'median_rel_err':>15} {'max_rel_err':>15} {'overflows':>10} {'underflows':>11}"
    lines = [header, "-" * len(header)]
    for r in doc["rows"]:
        lines.append(
            f"{r['mode']:<12} {r['median_rel_err']:>15.6g} {r['max_rel_err']:>15.6g} "
            f"{r['overflow_count']:>10} {r['underflow_count']:>11}"
        )
    lines += [f"{r['mode']} failed: non-positive variance at norm "
              f"{r['failed_norm']!r}, token {r['failed_token']}"
              for r in doc["rows"] if "failed_norm" in r]
    return "\n".join(lines) + "\n"
