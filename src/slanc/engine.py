"""Instrumented decoder forward pass in two precision modes.

The reference mode runs everything in double.  The reduced mode keeps
matmuls in double (wide MAC accumulators) but rounds every activation
to binary16 between ops and, crucially, runs each norm's sum-of-squares
accumulation in emulated FP16: that accumulation is the one step whose
dynamic range binary16 cannot cover, and every norm evaluation is
audited so overflow/underflow can be counted and histogrammed.

A norm with a scale entry multiplies its input by the precomputed
reciprocal first and swaps epsilon for epsilon/s^2; in exact arithmetic
the output is unchanged, in FP16 it moves the accumulated sum back into
range.  The norm epilogue (mean, divide, sqrt, gain) stays in double in
both modes so that any failure is attributable to the accumulation.

`forward` walks `ModelGraph.execution_order()`; post-norm and pre-norm
placement differ only in whether a norm's output replaces the residual
stream.  Each norm runs once over the whole n_tokens x d block and
returns one `NormAudit`: per-token columns (raw FP64 sum, FP16 sum bits,
overflow and underflow flags) and a histogram of the raw sums.  The FP16
accumulation loops over the d columns strictly left to right and
vectorises over the tokens (`fp16.sum_of_squares_rows`): every step
squares or adds binary16 values exactly in double and rounds once, so
each token's sum is bit-identical to the scalar per-token accumulator.
The raw FP64 sums stay one BLAS dot per row, so they, the histograms
and the FP64 outputs match a per-token pass bit for bit.
"""

from __future__ import annotations

import math
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import fp16
from .model import (
    DecoderWeights,
    MlpKind,
    ModelConfig,
    ModelGraph,
    Nonlinearity,
    NormKind,
    ResidualPlacement,
    Sublayer,
)
from .scales import Formula, NormScale, ScaleTable, make_norm_scale


@dataclass(frozen=True)
class PrecisionPolicy:
    """What runs in FP16: the norm accumulation and/or activation storage."""

    norm_accumulation: str  # "FP64" or "FP16"
    activations: str  # "FP64" or "FP16storage"

    def __post_init__(self) -> None:
        if self.norm_accumulation not in ("FP64", "FP16"):
            raise ValueError(f"bad norm_accumulation {self.norm_accumulation!r}")
        if self.activations not in ("FP64", "FP16storage"):
            raise ValueError(f"bad activations {self.activations!r}")

    @property
    def fp16_storage(self) -> bool:
        return self.activations == "FP16storage"

    @property
    def fp16_accumulation(self) -> bool:
        return self.norm_accumulation == "FP16"


REFERENCE_POLICY = PrecisionPolicy(norm_accumulation="FP64", activations="FP64")
FP16_POLICY = PrecisionPolicy(norm_accumulation="FP16", activations="FP16storage")


class NonPositiveVarianceError(Exception):
    """FP16 rounding pushed the variance at or below zero."""

    def __init__(self, norm_id: str, token_index: int, variance: float):
        self.norm_id = norm_id
        self.token_index = token_index
        self.variance = variance
        super().__init__(
            f"non-positive variance {variance:.6g} at norm "
            f"{norm_id!r}, token {token_index}"
        )


class FingerprintMismatchError(Exception):
    """Supplied scale table does not fit the model: other weights, or a norm missing."""


# ── histograms ───────────────────────────────────────────────────────────

BUCKET_MIN_EXP = -30
BUCKET_MAX_EXP = 30
N_BUCKETS = BUCKET_MAX_EXP - BUCKET_MIN_EXP


@dataclass(frozen=True)
class Histogram:
    """log2-bucketed counts: bucket k covers [2^(k-30), 2^(k-29))."""

    below: int
    counts: tuple
    above: int

    @classmethod
    def from_values(cls, values) -> "Histogram":
        v = np.asarray(values, dtype=np.float64).ravel()
        above = np.isnan(v) | (v >= 2.0**BUCKET_MAX_EXP)
        below = v < 2.0**BUCKET_MIN_EXP  # zero, negatives and -inf too
        _, exponent = np.frexp(v[~(above | below)])  # v = mantissa * 2^exponent
        counts = np.bincount(exponent - 1 - BUCKET_MIN_EXP, minlength=N_BUCKETS)
        return cls(below=int(below.sum()), counts=tuple(counts.tolist()),
                   above=int(above.sum()))

    @property
    def total(self) -> int:
        return self.below + sum(self.counts) + self.above


@dataclass(frozen=True, eq=False)
class NormAudit:
    """One norm's evaluation over a token block: what FP16 attempted for
    each token's sum of squares and how it went, one entry per token."""

    norm_id: str
    scale_applied: float
    raw_sums: np.ndarray  # float64: exact double value of each attempted sum
    fp16_sums: np.ndarray  # uint16 bits of the sum the epilogue used
    overflowed: np.ndarray  # bool
    underflowed: np.ndarray  # bool: nonzero input whose squares all rounded to 0
    histogram: Histogram  # of raw_sums


@dataclass(frozen=True)
class ForwardResult:
    output: np.ndarray  # n_tokens x d_model, double view
    audit: dict  # norm_id -> NormAudit, in execution order


# ── pieces of the forward pass ───────────────────────────────────────────


def _store(x: np.ndarray, policy: PrecisionPolicy) -> np.ndarray:
    return fp16.round_array(x) if policy.fp16_storage else x


def _nonlinearity(z: np.ndarray, kind: Nonlinearity) -> np.ndarray:
    if kind is Nonlinearity.RELU:
        return np.maximum(z, 0.0)
    if kind is Nonlinearity.GELU:
        from scipy.special import erf  # here, so only GELU models pay for scipy

        return 0.5 * z * (1.0 + erf(z / math.sqrt(2.0)))
    return z / (1.0 + np.exp(-z))  # SiLU


def norm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray | None,
    epsilon: float,
    kind: NormKind,
    policy: PrecisionPolicy,
    scale: NormScale | None = None,
    norm_id: str = "norm",
) -> tuple[np.ndarray, NormAudit]:
    """Normalize an n_tokens x d block, auditing each row's sum of squares.

    The input is multiplied by the scale reciprocal (1 when no scale),
    rounded to binary16 under FP16 storage, and each row's squares are
    summed either exactly or through the batched FP16 accumulator.  Mean,
    variance, division and the gain/shift epilogue always run in double.
    Returns the normalized rows and the norm's audit, one entry per row.
    """
    x = np.asarray(x, dtype=np.float64)
    d = gamma.size
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"expected a block of length-{d} rows, got shape {x.shape}")
    reciprocal = scale.reciprocal if scale is not None else 1.0
    eps_adjusted = scale.epsilon_adjusted if scale is not None else epsilon
    applied = scale.s if scale is not None else 1.0
    scaled = x * reciprocal
    bits = None
    if policy.fp16_storage:
        bits = fp16.encode_array(scaled)
        scaled = fp16.decode_array(bits)
    # One BLAS dot per row: a batched reduction sums in another order.
    raw = np.array([np.dot(row, row) for row in scaled])
    if policy.fp16_accumulation:
        if bits is None:
            bits = fp16.encode_array(scaled)
        sum_bits, overflowed, underflowed = fp16.sum_of_squares_rows(bits)
        sum_sq = fp16.decode_array(sum_bits)
    else:
        sum_sq = raw
        sum_bits = fp16.encode_array(raw)
        overflowed, underflowed = np.zeros((2, raw.size), dtype=bool)
    audit = NormAudit(norm_id, applied, raw, sum_bits, overflowed, underflowed,
                      Histogram.from_values(raw))
    with np.errstate(over="ignore", invalid="ignore"):
        if kind is NormKind.LAYER_NORM:
            mean = scaled.mean(axis=1)
            variance = sum_sq / d - mean * mean + eps_adjusted
            centered = scaled - mean[:, None]
        else:
            variance = sum_sq / d + eps_adjusted
            centered = scaled
        failing = np.flatnonzero(~(variance > 0.0))  # NaN fails too
        if failing.size:
            t = int(failing[0])
            raise NonPositiveVarianceError(norm_id, t, float(variance[t]))
        y = centered / np.sqrt(variance)[:, None] * gamma
    if kind is NormKind.LAYER_NORM and beta is not None:
        y = y + beta
    return _store(y, policy), audit


def attention_forward(
    x: np.ndarray,
    weights: DecoderWeights,
    config: ModelConfig,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Causal multi-head attention on a token-by-d activation matrix."""
    x = np.asarray(x, dtype=np.float64)
    d, dh = config.d_model, config.head_dim
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"expected n_tokens x {d} activations, got {x.shape}")
    n = x.shape[0]
    q = _store(x @ weights.w_q, policy)
    k = _store(x @ weights.w_k, policy)
    v = _store(x @ weights.w_v, policy)
    mask = np.triu_indices(n, k=1)
    heads = []
    for h in range(config.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = _store(q[:, cols] @ k[:, cols].T / math.sqrt(dh), policy)
        scores = scores.copy()
        scores[mask] = -math.inf
        # Max-subtraction softmax in double; rows are convex weights.
        peak = scores.max(axis=1, keepdims=True)
        weights_exp = np.exp(scores - peak)
        s = weights_exp / weights_exp.sum(axis=1, keepdims=True)
        s = _store(s, policy)
        heads.append(_store(s @ v[:, cols], policy))
    return _store(np.hstack(heads) @ weights.p, policy)


def mlp_forward(
    x: np.ndarray,
    weights: DecoderWeights,
    mlp_kind: MlpKind,
    nonlinearity: Nonlinearity,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Standard F(xE)G or gated (F(xE) .* xB)G; no residual here."""
    x = np.asarray(x, dtype=np.float64)
    e = weights.e
    if x.ndim != 2 or x.shape[1] != e.shape[0]:
        raise ValueError(f"expected n_tokens x {e.shape[0]} activations, got {x.shape}")
    gate = _store(_nonlinearity(_store(x @ e, policy), nonlinearity), policy)
    if mlp_kind is MlpKind.LLAMA_GATED:
        up = _store(x @ weights.b, policy)
        gate = _store(gate * up, policy)
    return _store(gate @ weights.g, policy)


# ── the full pass ────────────────────────────────────────────────────────


def forward(
    model: ModelGraph,
    x0: np.ndarray,
    policy: PrecisionPolicy,
    scales: ScaleTable | None = None,
) -> ForwardResult:
    """Run the decoder chain in execution_order(), auditing every norm.

    x is the residual stream and h the input of the next sublayer; each
    sublayer adds its output to x.  PostLN normalizes the stream itself
    (x = h after each norm); PreLN normalizes only the sublayer input and
    ends with the final norm.  The output is h: the last norm's rows, or
    the stored input when no norm ran.
    """
    cfg = model.config
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.d_model or x.shape[0] < 1:
        raise ValueError(
            f"input activations must be n_tokens x {cfg.d_model}, got {x.shape}"
        )
    if not np.isfinite(x).all():
        raise ValueError("input activations must be finite")
    if scales is not None:
        if scales.fingerprint != model.fingerprint():
            raise FingerprintMismatchError(
                "scale table fingerprint does not match the model weights"
            )
        for norm_id in model.norm_ids:
            if norm_id not in scales.entries:
                raise FingerprintMismatchError(
                    f"scale table has no entry for norm {norm_id!r}"
                )
    audit: dict[str, NormAudit] = {}
    x = h = _store(x, policy)
    post_ln = cfg.residual_placement is ResidualPlacement.POST_LN
    for step in model.execution_order():
        if isinstance(step, Sublayer):
            out = (mlp_forward(h, step.weights, cfg.mlp_kind, cfg.nonlinearity, policy)
                   if step.mlp else attention_forward(h, step.weights, cfg, policy))
            x = _store(x + out, policy)
        else:
            entry = scales.entries[step.norm_id] if scales is not None else None
            h, audit[step.norm_id] = norm_forward(
                x, step.gamma, step.beta, cfg.epsilon, cfg.norm_kind, policy,
                scale=entry, norm_id=step.norm_id,
            )
            if post_ln:
                x = h
    return ForwardResult(output=h, audit=audit)


# ── dynamic calibration baseline ─────────────────────────────────────────


def calibrate_dynamic(
    model: ModelGraph,
    calibration_inputs: list,
    statistic: str = "Median",
) -> ScaleTable:
    """Per-norm scales from observed input norms on calibration data.

    Runs the double-precision forward over every calibration matrix,
    collects each norm's pre-scaling input Euclidean norm per token,
    and takes the chosen statistic (Mean or Median) as that norm's s.
    """
    if statistic not in ("Mean", "Median"):
        raise ValueError(f"statistic must be 'Mean' or 'Median', got {statistic!r}")
    if not calibration_inputs:
        raise ValueError("empty calibration set")
    observed: dict[str, list[np.ndarray]] = defaultdict(list)
    for x in calibration_inputs:
        for norm_id, audit in forward(model, x, REFERENCE_POLICY).audit.items():
            observed[norm_id].append(np.sqrt(audit.raw_sums))
    entries: dict[str, NormScale] = {}
    for site in model.norm_sites:
        values = np.concatenate(observed[site.norm_id])
        s = float(np.mean(values) if statistic == "Mean" else np.median(values))
        entries[site.norm_id] = make_norm_scale(
            s, model.config.epsilon, Formula.DYNAMIC, site.layer, site.norm_id,
        )
    return ScaleTable(fingerprint=model.fingerprint(), entries=entries)
