"""Instrumented decoder forward pass in two precision modes.

A `PrecisionPolicy` is two flags, `fp16_accumulation` and
`fp16_storage`; every combination runs.  The reference mode runs
everything in double.  The reduced mode keeps matmuls in double (wide
MAC accumulators; linalg.matmul widens a float32 weight one tile at a
time) but rounds every activation to binary16 between ops and,
crucially, runs each norm's sum-of-squares accumulation in emulated
FP16: that accumulation is the one step whose dynamic range binary16
cannot cover, and every norm evaluation is audited so
overflow/underflow can be counted.

Each norm multiplies its input by 1/s first and swaps epsilon for
epsilon/s^2, with s from the scale table (1 without one: the same code,
since 1/1 and epsilon/1 are exact); in exact arithmetic the output is
unchanged, in FP16 it moves the accumulated sum back into range.  The
norm epilogue (mean, divide, sqrt, gain) stays in double in both modes
so that any failure is attributable to the accumulation.

Under FP16 storage each store rounds the temporary it was handed, in
place (`fp16.round_array(x, out=x)`), so a store makes no new array.
The one exception is the token block a pass starts from: the passes of
`forward_passes` share the caller's block, so it is rounded into a new
array.  Once the passes hold their starts, `forward_passes` (and
`forward`) drop their references to the caller's block, which a caller
that hands it over, such as the CLI, no longer holds either.
Softmax, the nonlinearity (GELU too), the gating product, the
residual sum and the norm epilogue likewise write into a temporary of
their own (`out=`), in the order a new array per step would take, so
every bit is the same.

Each sublayer runs its n tokens in row blocks of at most 128 rows
(_row_blocks), so of the activations only the residual stream, k, v
and a sublayer's n x d output span every token; the rest (q, the
attention scores, the head outputs, the MLP's hidden rows) is one
block's, in buffers every block reuses, and memory grows with the
tokens, not with their square.  The blocks, and the MLP's column
tiles, are cut by `linalg._tiles`: each product is a tile of the
one-shot product, at edges and sizes that keep its bits (see
`linalg`), and every softmax row stays whole.  The one exception is a
token count that is not a multiple of 16 and spans more than one query
block: its scores q kᵀ then have a ragged column count, whose row tiles
OpenBLAS sums in another order, so their last bits can differ from a
one-shot product's.  A ragged count in one block keeps its bits.

`forward_passes` checks the token block once, then advances one or
more passes step by step in one walk of the `execution_order()` of a
`ModelGraph` or of a `ModelStream`.  Each sublayer function takes its
step's weights, a {role: array} dict.  The walk keeps an MLP's gate
projection, a step of its own, until the rest of its MLP is read;
post-norm and pre-norm placement differ only in whether a norm's output
replaces the residual stream.
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
row, all made in one batched `matmul` call, so they and the FP64
outputs match a per-token pass bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fp16
from .linalg import _ALIGN, _tiles, matmul
from .model import (
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

    fp16_accumulation: bool
    fp16_storage: bool


REFERENCE_POLICY = PrecisionPolicy(fp16_accumulation=False, fp16_storage=False)
FP16_POLICY = PrecisionPolicy(fp16_accumulation=True, fp16_storage=True)


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
    """x under the policy's storage: rounded to binary16 in place under
    FP16 storage, so x must be a temporary nothing else holds."""
    return fp16.round_array(x, out=x) if policy.fp16_storage else x


def _nonlinearity(z: np.ndarray, kind: Nonlinearity,
                  scratch: np.ndarray | None = None) -> np.ndarray:
    """F(z), written into z's buffer; GELU and SiLU work in scratch, an
    array of z's shape (a new one when None)."""
    if kind is Nonlinearity.RELU:
        return np.maximum(z, 0.0, out=z)
    if kind is Nonlinearity.GELU:
        from scipy.special import erf  # here, so only GELU models pay for scipy

        # 0.5 * z * (1 + erf(z / sqrt 2)), in its order
        t = np.divide(z, math.sqrt(2.0), out=scratch)
        erf(t, out=t)
        t += 1.0
        z *= 0.5
        return np.multiply(z, t, out=z)
    t = np.negative(z, out=scratch)  # SiLU, z / (1 + exp(-z)), with one buffer besides z
    with np.errstate(over="ignore"):  # exp(-z) = inf gives the limit 0 (or -0)
        np.exp(t, out=t)
    np.add(1.0, t, out=t)
    return np.divide(z, t, out=z)


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
    # One BLAS dot per row, made in one call: numpy runs each 1 x d by
    # d x 1 product as the dot a per-row loop makes, so the bits agree.
    raw = np.matmul(scaled[:, None, :], scaled[:, :, None])[:, 0, 0]
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
            centered = np.subtract(scaled, mean[:, None], out=scaled)
        else:
            variance = sum_sq / d + eps_adjusted
            centered = scaled
        failing = np.flatnonzero(~(variance > 0.0))  # NaN fails too
        if failing.size:
            t = int(failing[0])
            raise NonPositiveVarianceError(norm_id, t, float(variance[t]))
        # The epilogue writes into the scaled block, which nothing else holds.
        y = np.divide(centered, np.sqrt(variance)[:, None], out=centered)
        np.multiply(y, gamma, out=y)
    if kind is NormKind.LAYER_NORM and beta is not None:
        np.add(y, beta, out=y)
    return _store(y, policy), audit


def attention_forward(
    x: np.ndarray,
    weights: dict,
    config: ModelConfig,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Causal multi-head attention on a token-by-d activation matrix.

    k and v span every token; the queries run in row blocks
    (_attention_blocks).  A block's q rows, each head's scores and
    softmax weights, and its head outputs go into buffers sized for one
    block that every block reuses, and its rows of the output
    projection into its rows of the one n x d output."""
    x = np.asarray(x, dtype=np.float64)
    d, dh = config.d_model, config.head_dim
    if x.ndim != 2 or x.shape[1] != d:
        raise ValueError(f"expected n_tokens x {d} activations, got {x.shape}")
    n = x.shape[0]
    k = _store(matmul(x, weights["w_k"]), policy)
    v = _store(matmul(x, weights["w_v"]), policy)
    blocks = _attention_blocks(n, d, dh)
    most = max(rows.stop - rows.start for rows in blocks)
    q_rows, head_rows, score_rows = np.empty((most, d)), np.empty((most, d)), np.empty((most, n))
    out = np.empty((n, d))
    for rows in blocks:
        q, heads, scores = (buffer[:rows.stop - rows.start]
                            for buffer in (q_rows, head_rows, score_rows))
        _store(matmul(x[rows], weights["w_q"], out=q), policy)
        future = np.arange(rows.start, rows.stop)[:, None] < np.arange(n)  # key after query
        for h in range(config.n_heads):
            cols = slice(h * dh, (h + 1) * dh)
            np.matmul(q[:, cols], k[:, cols].T, out=scores)
            _store(np.divide(scores, math.sqrt(dh), out=scores), policy)
            np.putmask(scores, future, -math.inf)
            # Max-subtraction softmax in double; rows are convex weights.
            peak = scores.max(axis=1, keepdims=True)
            with np.errstate(invalid="ignore"):  # an inf score: inf - inf is NaN
                np.exp(np.subtract(scores, peak, out=scores), out=scores)
            s = _store(np.divide(scores, scores.sum(axis=1, keepdims=True), out=scores), policy)
            np.matmul(s, v[:, cols], out=heads[:, cols])
        matmul(_store(heads, policy), weights["p"], out=out[rows])
    return _store(out, policy)


# The most token rows a sublayer runs at once.
_BLOCK_ROWS = 8 * _ALIGN


def _row_blocks(n: int, macs: int, *columns: int) -> list[slice]:
    """The n token rows of a sublayer in blocks of at most _BLOCK_ROWS
    (plus a ragged tail), cut by linalg._tiles beside a product of macs
    multiply-adds per row, so its edges and floors hold; one block
    unless every column count of the sublayer's row-tiled products
    (columns) is a multiple of _ALIGN."""
    if any(c % _ALIGN for c in columns):
        return [slice(0, n)]
    return _tiles(0, n, 1, macs, 8 * _BLOCK_ROWS)


def _attention_blocks(n: int, d: int, dh: int) -> list[slice]:
    """attention_forward's query blocks, at the floors of a head's q kᵀ
    and s v products (dh x n multiply-adds per row).  A block's d x d
    products (its q rows and output projection) are left out of the
    floor, which would keep a d=64 model's queries in blocks of 512: on
    the OpenBLAS kernels tested, their row tiles keep their bits at any
    height (the tests run d=64)."""
    return _row_blocks(n, dh * n, d, dh)


def _mlp_plan(n: int, d: int, m: int) -> tuple[list[slice], list[slice], list[slice]]:
    """mlp_forward's row blocks, at the floors of its d x m products, and
    the hidden and output column tiles every block runs in: each widened
    E or G tile about a d x d block, with the fewest rows of any block
    beside it so linalg's floors hold for every block, and one tile for
    a column count that is not a multiple of _ALIGN."""
    blocks = _row_blocks(n, d * m, m, d)
    fewest = min(rows.stop - rows.start for rows in blocks)

    def tiles(k: int, p: int) -> list[slice]:
        return _tiles(0, p, k, fewest, 8 * d * d) if p % _ALIGN == 0 else [slice(0, p)]

    return blocks, tiles(d, m), tiles(m, d)


def mlp_forward(
    x: np.ndarray,
    weights: dict,
    mlp_kind: MlpKind,
    nonlinearity: Nonlinearity,
    policy: PrecisionPolicy,
) -> np.ndarray:
    """Standard F(xE)G or gated (F(xE) .* xB)G; no residual here.

    The tokens run in row blocks and, in each, the hidden dimension in
    column tiles at most about d wide (_mlp_plan), in buffers sized for
    one block that every block reuses: a tile's xE, F and gating
    product in one, F's scratch and then xB in the other.  Each tile is
    rounded there and copied into the block's hidden rows (a lone tile
    is those rows).  The down product writes each output-column tile
    into the block's rows of the one n x d output."""
    x = np.asarray(x, dtype=np.float64)
    e, g = weights["e"], weights["g"]
    if x.ndim != 2 or x.shape[1] != e.shape[0]:
        raise ValueError(f"expected n_tokens x {e.shape[0]} activations, got {x.shape}")
    (n, d), m = x.shape, e.shape[1]
    blocks, spans, out_spans = _mlp_plan(n, d, m)
    most = max(rows.stop - rows.start for rows in blocks)
    size = most * max(span.stop - span.start for span in spans)
    up, spare = np.empty(size), np.empty(size)
    hidden_rows = np.empty((most, m)) if len(spans) > 1 else None
    out = np.empty((n, g.shape[1]))
    for rows in blocks:
        b = rows.stop - rows.start
        for span in spans:
            width = span.stop - span.start
            tile, scratch = (buffer[:b * width].reshape(b, width) for buffer in (up, spare))
            _store(matmul(x[rows], e[:, span], out=tile), policy)
            _store(_nonlinearity(tile, nonlinearity, scratch), policy)
            if mlp_kind is MlpKind.LLAMA_GATED:
                _store(matmul(x[rows], weights["b"][:, span], out=scratch), policy)
                _store(np.multiply(tile, scratch, out=tile), policy)
            if hidden_rows is None:
                hidden = tile
            else:
                hidden = hidden_rows[:b]
                hidden[:, span] = tile
        for span in out_spans:
            matmul(hidden, g[:, span], out=out[rows, span])
    return _store(out, policy)


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
        # Not rounded in place: every pass starts from the caller's block.
        self.x = self.h = fp16.round_array(x) if policy.fp16_storage else x
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
            self.x = _store(np.add(self.x, out, out=out), policy)
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
    del x0, x  # only a pass that has not yet run a sublayer refers to the block
    gate = None  # an MLP's e, kept until the rest of its MLP is read
    with np.errstate(over="ignore", invalid="ignore"):
        for step in model.execution_order():
            if isinstance(step, Sublayer) and step.gate:
                gate = step.weights["e"]
            else:
                if isinstance(step, Sublayer) and step.mlp:
                    step = Sublayer(mlp=True, weights={**step.weights, "e": gate})
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
    # Handed on through a list, so that this frame holds no reference
    # during the walk: forward_passes lets the block go once its pass starts.
    tokens = [x0]
    del x0
    (result,) = forward_passes(model, tokens.pop(), [(policy, scales)])
    if isinstance(result, Exception):
        raise result
    return result

