"""Instrumented decoder forward pass in two precision modes.

The reference mode runs everything in double.  The reduced mode keeps
matmuls in double (wide MAC accumulators; linalg.matmul widens a
float32 weight one tile at a time) but rounds every activation to
binary16 between ops and, crucially, runs each norm's sum-of-squares
accumulation in emulated FP16: that accumulation is the one step whose
dynamic range binary16 cannot cover, and every norm evaluation is
audited so overflow/underflow can be counted.

Each norm multiplies its input by 1/s first and swaps epsilon for
epsilon/s^2, with s from the scale table (1 without one: the same code,
since 1/1 and epsilon/1 are exact); in exact arithmetic the output is
unchanged, in FP16 it moves the accumulated sum back into range.  The
norm epilogue (mean, divide, sqrt, gain) stays in double in both modes
so that any failure is attributable to the accumulation.

`forward_passes` checks the token block once, then advances one or
more passes step by step in one walk of the `execution_order()` of a
`ModelGraph` or of a `ModelStream`, keeping an MLP's gate projection,
a step of its own, until the rest of its MLP is read; post-norm and
pre-norm placement differ only in whether a norm's output replaces the
residual stream.
Each norm runs once over the whole n_tokens x d block and returns one
`NormAudit` of per-token columns: raw FP64 sum, FP16 sum (a binary16
value held in float64, as every binary16 in the package is), overflow
and underflow flags.  Summaries of those columns (counts, histograms)
are the report's.  The FP16 accumulation loops over the d
columns strictly left to right and vectorises over the tokens
(`fp16.sum_of_squares_rows`): every step squares or adds binary16
values exactly in double and rounds once, so each token's sum is
bit-identical to a scalar per-token binary16 accumulation (the test
suite's soft-float oracle).  The raw FP64 sums stay one BLAS dot per
row, so they and the FP64 outputs match a per-token pass bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import fp16
from .linalg import matmul
from .model import (
    DecoderWeights,
    MlpKind,
    ModelConfig,
    ModelGraph,
    ModelStream,
    Nonlinearity,
    NormKind,
    ResidualPlacement,
    Sublayer,
)
from .scales import ScaleTableError, check_fingerprint, entry_scales


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


class InputError(ValueError):
    """The token block is not n_tokens x d_model finite values."""


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


@dataclass(frozen=True, eq=False)
class NormAudit:
    """One norm's evaluation over a token block: what FP16 attempted for
    each token's sum of squares and how it went, one entry per token."""

    norm_id: str
    scale_applied: float
    raw_sums: np.ndarray  # float64: exact double value of each attempted sum
    fp16_sums: np.ndarray  # float64 binary16 values: the FP16 sum, or round_array(raw_sums)
    overflowed: np.ndarray  # bool
    underflowed: np.ndarray  # bool: nonzero input whose squares all rounded to 0


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
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0 (or -0)
        return z / (1.0 + np.exp(-z))  # SiLU


def norm_forward(
    x: np.ndarray,
    gamma: np.ndarray,
    beta: np.ndarray | None,
    epsilon: float,
    kind: NormKind,
    policy: PrecisionPolicy,
    s: float = 1.0,
    norm_id: str = "norm",
) -> tuple[np.ndarray, NormAudit]:
    """Normalize an n_tokens x d block, auditing each row's sum of squares.

    The input is multiplied by 1/s (epsilon becomes epsilon/s^2), rounded
    to binary16 under FP16 storage, and each row's squares are summed
    either exactly or through the batched FP16 accumulator, which is
    given the rounded block under FP64 storage too.  Mean, variance,
    division and the gain/shift epilogue always run in double.
    Returns the normalized rows and the norm's audit, one entry per row.
    """
    x = np.asarray(x, dtype=np.float64)
    d = gamma.size
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"expected a block of length-{d} rows, got shape {x.shape}")
    scaled = _store(x * (1.0 / s), policy)
    eps_adjusted = epsilon / (s * s)
    # One BLAS dot per row: a batched reduction sums in another order.
    raw = np.array([np.dot(row, row) for row in scaled])
    if policy.fp16_accumulation:
        sum_sq, overflowed, underflowed = fp16.sum_of_squares_rows(
            scaled if policy.fp16_storage else fp16.round_array(scaled))
        fp16_sums = sum_sq
    else:
        sum_sq, fp16_sums = raw, fp16.round_array(raw)
        overflowed, underflowed = np.zeros((2, raw.size), dtype=bool)
    audit = NormAudit(norm_id, s, raw, fp16_sums, overflowed, underflowed)
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
    q = _store(matmul(x, weights.w_q), policy)
    k = _store(matmul(x, weights.w_k), policy)
    v = _store(matmul(x, weights.w_v), policy)
    mask = np.triu_indices(n, k=1)
    heads = []
    for h in range(config.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = _store(q[:, cols] @ k[:, cols].T / math.sqrt(dh), policy)
        scores[mask] = -math.inf
        # Max-subtraction softmax in double; rows are convex weights.
        peak = scores.max(axis=1, keepdims=True)
        with np.errstate(invalid="ignore"):  # an inf score: inf - inf is NaN
            weights_exp = np.exp(scores - peak)
        s = weights_exp / weights_exp.sum(axis=1, keepdims=True)
        s = _store(s, policy)
        heads.append(_store(s @ v[:, cols], policy))
    return _store(matmul(np.hstack(heads), weights.p), policy)


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
    gate = _store(_nonlinearity(_store(matmul(x, e), policy), nonlinearity), policy)
    if mlp_kind is MlpKind.LLAMA_GATED:
        up = _store(matmul(x, weights.b), policy)
        gate = _store(gate * up, policy)
    return _store(matmul(gate, weights.g), policy)


# ── the full pass ────────────────────────────────────────────────────────


class _Pass:
    """One forward pass, advanced a step at a time by forward_passes; once
    it fails it keeps its error and computes nothing more.

    x is the residual stream and h the input of the next sublayer; each
    sublayer adds its output to x.  PostLN normalizes the stream itself
    (x = h after each norm); PreLN normalizes only the sublayer input and
    ends with the final norm.  The output is h: the last norm's rows, or
    the stored input when no norm ran."""

    def __init__(self, cfg: ModelConfig, x: np.ndarray, policy: PrecisionPolicy,
                 scales: dict | None):
        self.cfg, self.policy, self.audit, self.error = cfg, policy, {}, None
        self.x = self.h = _store(x, policy)
        try:
            self.s_by_norm = {} if scales is None else entry_scales(scales, cfg)
        except ScaleTableError as err:
            self.error = err

    def advance(self, step) -> None:
        cfg, policy = self.cfg, self.policy
        if self.error is not None:
            return
        if isinstance(step, Sublayer):
            out = (mlp_forward(self.h, step.weights, cfg.mlp_kind, cfg.nonlinearity, policy)
                   if step.mlp else attention_forward(self.h, step.weights, cfg, policy))
            self.x = _store(self.x + out, policy)
            return
        try:
            self.h, self.audit[step.norm_id] = norm_forward(
                self.x, step.gamma, step.beta, cfg.epsilon, cfg.norm_kind, policy,
                s=self.s_by_norm.get(step.norm_id, 1.0), norm_id=step.norm_id,
            )
        except NonPositiveVarianceError as err:
            self.error = err
        if cfg.residual_placement is ResidualPlacement.POST_LN:
            self.x = self.h


def forward_passes(model: ModelGraph | ModelStream, x0: np.ndarray,
                   passes: list[tuple[PrecisionPolicy, dict | None]]) -> list:
    """One forward pass per (policy, scale table or None), advanced step
    by step in one walk of model.execution_order(); per pass, its
    ForwardResult or the NonPositiveVarianceError that stopped it.

    A pass checks its table's entries once, as it starts (entry_scales);
    one they refuse, or that meets a non-positive variance, stops
    computing while the walk reads on.  So a fault of the walk (a bad
    payload) comes first; then, once the walk is done, each table's
    fingerprint and its entries' refusal; the returned errors last.  A
    bad token block raises InputError before the walk.  Finite but huge
    tokens may overflow to inf or NaN inside the products; the
    audit records that, so numpy's warnings about it are silenced.
    """
    cfg = model.config
    x = np.asarray(x0, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != cfg.d_model:
        raise InputError(f"activations must be n_tokens x {cfg.d_model}, got {x.shape}")
    if x.shape[0] == 0:
        raise InputError(f"activations must hold at least one token, got {x.shape}")
    bad = np.argwhere(~np.isfinite(x))
    if bad.size:
        token, element = (int(i) for i in bad[0])
        raise InputError(f"activations must be finite: token {token}, element "
                         f"{element} is {x[token, element]!r}")
    runs = [_Pass(cfg, x, policy, scales) for policy, scales in passes]
    gate = None  # an MLP's e, kept until the rest of its MLP is read
    with np.errstate(over="ignore", invalid="ignore"):
        for step in model.execution_order():
            if isinstance(step, Sublayer) and step.gate:
                gate = step.weights.e
            else:
                if isinstance(step, Sublayer) and step.mlp:
                    step = Sublayer(mlp=True, weights=replace(step.weights, e=gate))
                    gate = None
                for run in runs:
                    run.advance(step)
            del step  # a step's weights go before the walk reads the next group
    for run, (_, scales) in zip(runs, passes):
        if scales is not None:
            check_fingerprint(scales, model)
            if isinstance(run.error, ScaleTableError):
                raise run.error
    return [run.error or ForwardResult(output=run.h, audit=run.audit) for run in runs]


def forward(model: ModelGraph | ModelStream, x0: np.ndarray, policy: PrecisionPolicy,
            scales: dict | None = None) -> ForwardResult:
    """Run the decoder chain of a ModelGraph or a ModelStream, auditing
    every norm: the one pass of forward_passes, its error raised.  Each
    norm divides by its s from scales, a scale table document."""
    (result,) = forward_passes(model, x0, [(policy, scales)])
    if isinstance(result, Exception):
        raise result
    return result

