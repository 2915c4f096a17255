"""Tests for the instrumented forward pass and the dynamic calibration
baseline (dynamic_oracle).

Oracles: independent step-by-step numpy reimplementations of the
attention and MLP blocks (slicing weights per head before any matmul,
elementwise math for the nonlinearities), numpy's float16 for the
accumulation path, and pinned counts from one-time runs for the
amplified-overflow cases.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import fp16_oracle
from dynamic_oracle import calibrate_dynamic
from memory_gates import traced_peak
from slanc import engine, fp16, scales
from slanc.engine import (
    FP16_POLICY,
    REFERENCE_POLICY,
    InputError,
    NonPositiveVarianceError,
    NormAudit,
    PrecisionPolicy,
    attention_forward,
    forward,
    mlp_forward,
    norm_forward,
)
from slanc.model import (
    LAYER_ROLES,
    InitSpec,
    MlpKind,
    ModelConfig,
    ModelGraph,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
    generate_synthetic,
)
from slanc.report import build_audit_report, histogram, run_compare
from slanc.scales import (
    ScaleTableError,
    adjust_epsilon,
    compute_scale_table,
    entry_scales,
    read_scale_table,
)


def _config(d=16, layers=2, heads=2, mlp=32,
            norm_kind=NormKind.RMS_NORM,
            placement=ResidualPlacement.POST_LN,
            mlp_kind=MlpKind.LLAMA_GATED,
            nonlinearity=Nonlinearity.SILU,
            epsilon=1e-5) -> ModelConfig:
    return ModelConfig(
        d_model=d, n_heads=heads, head_dim=d // heads, mlp_hidden=mlp,
        n_layers=layers, norm_kind=norm_kind, residual_placement=placement,
        mlp_kind=mlp_kind, nonlinearity=nonlinearity, epsilon=epsilon,
    )


def _layer(rng, d, m) -> dict:
    """One gated decoder layer's {role: array}."""
    mat = lambda r, c: rng.standard_normal((r, c)) * 0.2  # noqa: E731
    return dict(gamma1=np.ones(d), gamma2=np.ones(d),
                w_q=mat(d, d), w_k=mat(d, d), w_v=mat(d, d), p=mat(d, d),
                e=mat(d, m), b=mat(d, m), g=mat(m, d))


def _audit_bits(audit: dict) -> list:
    """Every column of a forward's audit, bit-exact and comparable."""
    return [
        (norm_id, a.norm_id, a.scale_applied, a.raw_sums.view(np.uint64).tolist(),
         a.raw_sums.dtype.name, a.fp16_sums.dtype.name,
         a.fp16_sums.view(np.uint64).tolist(), a.overflowed.tolist(), a.underflowed.tolist())
        for norm_id, a in audit.items()
    ]


def _rel(a: np.ndarray, b: np.ndarray) -> float:
    floor = float(np.sqrt(np.mean(np.square(a)))) or 1.0
    denom = np.maximum(np.abs(a), floor)
    return float(np.max(np.abs(a - b) / denom))


# ── precision policies ───────────────────────────────────────────────────

# Every combination of the two flags, the reference and FP16 ones first.
ALL_POLICIES = (REFERENCE_POLICY, FP16_POLICY,
                PrecisionPolicy(fp16_accumulation=True, fp16_storage=False),
                PrecisionPolicy(fp16_accumulation=False, fp16_storage=True))


def test_policy_constants_pin_both_flags():
    assert REFERENCE_POLICY == PrecisionPolicy(fp16_accumulation=False, fp16_storage=False)
    assert FP16_POLICY == PrecisionPolicy(fp16_accumulation=True, fp16_storage=True)
    assert [f.name for f in dataclasses.fields(PrecisionPolicy)] == [
        "fp16_accumulation", "fp16_storage"]


# ── norm_forward ─────────────────────────────────────────────────────────


def test_rms_norm_unit_mean_square_is_identity():
    x = np.array([[2.0, 0.0, 0.0, 0.0], [0.0, -2.0, 0.0, 0.0]])
    gamma = np.ones(4)
    y, audit = norm_forward(x, gamma, None, 1e-300, NormKind.RMS_NORM,
                            REFERENCE_POLICY)
    assert np.array_equal(y, x)
    assert audit.raw_sums.dtype == np.float64
    assert audit.raw_sums.tolist() == [4.0, 4.0]
    assert audit.scale_applied == 1.0


def test_layer_norm_constant_vector_returns_beta():
    gamma = np.full(8, 1.5)
    beta = np.arange(8.0)
    x = np.array([np.full(8, c) for c in (0.0, -3.25, 7.0)])
    y, _ = norm_forward(x, gamma, beta, 1e-5, NormKind.LAYER_NORM,
                        REFERENCE_POLICY)
    for row in y:
        assert np.array_equal(row, beta)


def test_rms_norm_homogeneity_in_inputs_and_epsilon():
    rng = np.random.default_rng(17)
    gamma = 1.0 + 0.1 * rng.standard_normal(32)
    x = rng.standard_normal((3, 32)) * 5.0
    a, _ = norm_forward(x, gamma, None, 1e-5, NormKind.RMS_NORM, REFERENCE_POLICY)
    b, _ = norm_forward(x / 10.0, gamma, None, 1e-5 / 100.0, NormKind.RMS_NORM,
                        REFERENCE_POLICY)
    assert _rel(a, b) < 1e-12


def test_scale_entry_homogeneity_both_kinds():
    rng = np.random.default_rng(23)
    for kind in (NormKind.RMS_NORM, NormKind.LAYER_NORM):
        gamma = 1.0 + 0.05 * rng.standard_normal(24)
        beta = (rng.standard_normal(24)
                if kind is NormKind.LAYER_NORM else None)
        for _ in range(50):
            x = rng.standard_normal((2, 24)) * math.exp(rng.uniform(-4.0, 4.0))
            s = 2.0 ** rng.uniform(-8.0, 12.0)
            plain, _ = norm_forward(x, gamma, beta, 1e-5, kind, REFERENCE_POLICY)
            scaled, audit = norm_forward(x, gamma, beta, 1e-5, kind,
                                         REFERENCE_POLICY, s=s)
            assert _rel(plain, scaled) < 1e-12
            assert audit.scale_applied == s


def test_fp16_accumulation_matches_numpy_half_sequence():
    rng = np.random.default_rng(29)
    x = rng.standard_normal((4, 64)) * 4.0
    _, audit = norm_forward(x, np.ones(64), None,
                            1e-5, NormKind.RMS_NORM, FP16_POLICY)
    assert audit.fp16_sums.dtype == np.float64
    for row, fp16_sum, raw_sum in zip(x, audit.fp16_sums, audit.raw_sums):
        stored = row.astype(np.float16)
        acc = np.float16(0.0)
        for v in stored:
            acc = np.float16(acc + np.float16(v * v))
        assert fp16_sum.view(np.uint64) == np.float64(acc).view(np.uint64)
        assert raw_sum == float(
            np.dot(stored.astype(np.float64), stored.astype(np.float64))
        )


@pytest.mark.parametrize("policy", [REFERENCE_POLICY, FP16_POLICY], ids=["fp64", "fp16"])
@pytest.mark.parametrize("d", [1, 7, 2816, 11008])
@pytest.mark.parametrize("n", [1, 3, 64])
def test_raw_sums_are_per_row_dots_at_any_width(n, d, policy, monkeypatch):
    # The raw sums are one batched matmul call; this pins that it makes
    # the dot a per-row loop makes, bit for bit, at widths up to
    # Llama-7B's MLP.  Each audit is kept as norm_forward builds it, so a
    # NaN row's sum is seen although its variance then stops the norm.
    built = []

    def record(*fields):
        built.append(NormAudit(*fields))
        return built[-1]

    monkeypatch.setattr(engine, "NormAudit", record)
    rng = np.random.default_rng(n * d)
    magnitudes = np.resize([1e-150, 1.0, 1e150], n)[:, None]
    rows = rng.standard_normal((n, d)) * magnitudes
    with_inf, with_nan = rows.copy(), rows.copy()
    with_inf[0, d // 2] = math.inf
    with_nan[n - 1, 0] = math.nan
    for block in (rows, with_inf, with_nan):
        built.clear()
        try:
            norm_forward(block, np.ones(d), None, 1e-5, NormKind.RMS_NORM, policy)
        except NonPositiveVarianceError:
            assert block is with_nan
        stored = fp16.round_array(block) if policy.fp16_storage else block
        want = np.array([np.dot(row, row) for row in stored])
        (audit,) = built
        got = audit.raw_sums
        assert np.isnan(got).tolist() == np.isnan(want).tolist()
        finite = ~np.isnan(want)
        assert got[finite].view(np.uint64).tolist() == want[finite].view(np.uint64).tolist()


def test_fp16_overflow_zeroes_output_and_flags():
    x = np.full((1, 300), 16.0)
    gamma = np.ones(300)
    y, audit = norm_forward(x, gamma, None, 1e-5, NormKind.RMS_NORM,
                            FP16_POLICY)
    assert audit.overflowed.tolist() == [True]
    assert audit.fp16_sums.tolist() == [math.inf]
    assert not y.any()  # sigma is infinite, everything collapses to zero


def test_fp16_underflow_flags_but_survives():
    x = np.full((1, 128), 1e-4)
    gamma = np.ones(128)
    y, audit = norm_forward(x, gamma, None, 1e-5, NormKind.RMS_NORM,
                            FP16_POLICY)
    assert audit.underflowed.tolist() == [True]
    assert audit.overflowed.tolist() == [False]
    assert np.isfinite(y).all() and y.any()


def test_fp16_rounding_can_force_non_positive_variance():
    # Each square 1 + 2^-9 + 2^-20 rounds down to 1 + 2^-9, so the FP16
    # mean square lands below the exact squared mean; with epsilon tiny
    # the LayerNorm variance goes negative.  Tokens 0-3 are benign, so
    # the error must name token 4, the first of the two failing rows.
    x = np.full((6, 8), 1.0 + 2.0**-10)
    x[:4] = np.random.default_rng(4).standard_normal((4, 8))
    gamma = np.ones(8)
    beta = np.zeros(8)
    with pytest.raises(NonPositiveVarianceError) as info:
        norm_forward(x, gamma, beta, 1e-7, NormKind.LAYER_NORM, FP16_POLICY,
                     norm_id="layer0.norm1")
    assert info.value.variance <= 0.0
    assert info.value.norm_id == "layer0.norm1"
    assert info.value.token_index == 4
    assert str(info.value) == (
        f"non-positive variance {info.value.variance:.6g} at norm "
        "'layer0.norm1', token 4"
    )


def test_norm_forward_rejects_bad_shapes():
    gamma = np.ones(4)
    with pytest.raises(ValueError, match="length-4"):
        norm_forward(np.ones(5), gamma, None, 1e-5, NormKind.RMS_NORM,
                     REFERENCE_POLICY)


# ── attention ────────────────────────────────────────────────────────────


def test_single_token_attention_is_value_projection():
    rng = np.random.default_rng(31)
    cfg = _config(d=6, layers=1, heads=2, mlp=12)
    layer = _layer(rng, 6, 12)
    x = rng.standard_normal((1, 6))
    out = attention_forward(x, layer, cfg, REFERENCE_POLICY)
    expected = (x @ layer["w_v"]) @ layer["p"]
    assert np.array_equal(out, expected)


def test_softmax_rows_are_causal_convex_weights():
    # With identity tokens, values and output projection, the output IS
    # the softmax matrix of the single head.
    cfg = _config(d=4, layers=1, heads=1, mlp=8)
    rng = np.random.default_rng(37)
    layer = dict(w_q=rng.standard_normal((4, 4)), w_k=rng.standard_normal((4, 4)),
                 w_v=np.eye(4), p=np.eye(4))
    s = attention_forward(np.eye(4), layer, cfg, REFERENCE_POLICY)
    assert np.all(s >= 0.0)
    assert np.allclose(s.sum(axis=1), 1.0, atol=1e-12)
    assert np.array_equal(np.triu(s, k=1), np.zeros((4, 4)))
    assert s[0, 0] == 1.0


def _oracle_attention(x, layer, cfg):
    """Slices every weight per head before any product; causal softmax."""
    n, dh = x.shape[0], cfg.head_dim
    heads = []
    for h in range(cfg.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        q = x @ layer["w_q"][:, cols]
        k = x @ layer["w_k"][:, cols]
        v = x @ layer["w_v"][:, cols]
        scores = q @ k.T / math.sqrt(dh)
        s = np.zeros((n, n))
        for i in range(n):
            row = scores[i, : i + 1] - scores[i, : i + 1].max()
            weights = np.exp(row)
            s[i, : i + 1] = weights / weights.sum()
        heads.append(s @ v)
    return np.hstack(heads) @ layer["p"]


def test_attention_matches_independent_oracle():
    rng = np.random.default_rng(41)
    cfg = _config(d=8, layers=1, heads=2, mlp=16)
    layer = _layer(rng, 8, 16)
    x = rng.standard_normal((4, 8))
    out = attention_forward(x, layer, cfg, REFERENCE_POLICY)
    assert _rel(out, _oracle_attention(x, layer, cfg)) < 1e-10


def test_attention_fp16_storage_stays_on_grid():
    rng = np.random.default_rng(43)
    cfg = _config(d=8, layers=1, heads=2, mlp=16)
    layer = _layer(rng, 8, 16)
    x = rng.standard_normal((4, 8))
    out = attention_forward(x, layer, cfg, FP16_POLICY)
    assert np.array_equal(out, fp16.round_array(out))
    assert not np.array_equal(out, attention_forward(x, layer, cfg,
                                                     REFERENCE_POLICY))


def test_attention_rejects_bad_shapes():
    cfg = _config(d=8, layers=1, heads=2, mlp=16)
    layer = _layer(np.random.default_rng(0), 8, 16)
    with pytest.raises(ValueError, match="n_tokens x 8"):
        attention_forward(np.ones((2, 7)), layer, cfg, REFERENCE_POLICY)


def test_fp16_attention_holds_one_score_block():
    # Memory gate, bound from shapes: q, k, v, the heads block and the
    # output (n x d each), one score block of at most n x d float64 (the
    # queries run in blocks of d rows here), its causal mask (a byte per
    # score), one widened weight and the rounding scratch.  A whole head
    # of n x n scores is n / d = 16 such blocks.
    n, d = 1024, 64
    cfg = _config(d=d, layers=1, heads=1, mlp=4 * d)
    rng = np.random.default_rng(97)
    weights = {role: (rng.standard_normal((d, d)) * 0.1).astype(np.float32)
               for role in ("w_q", "w_k", "w_v", "p")}
    x = rng.standard_normal((n, d))
    bound = 8 * (5 * n * d + n * d + d * d + 2 * fp16._BLOCK) + n * d
    peak = traced_peak(lambda: attention_forward(x, weights, cfg, FP16_POLICY))
    assert peak <= 1.05 * bound


# ── MLP ──────────────────────────────────────────────────────────────────


def test_relu_mlp_kills_all_negative_preactivations():
    layer = dict(e=-np.ones((2, 3)), g=np.ones((3, 2)))
    out = mlp_forward(np.ones((2, 2)), layer, MlpKind.STANDARD,
                      Nonlinearity.RELU, REFERENCE_POLICY)
    assert not out.any()


def test_gated_mlp_with_zero_up_projection_is_zero():
    rng = np.random.default_rng(47)
    layer = {**_layer(rng, 4, 8), "b": np.zeros((4, 8))}
    out = mlp_forward(rng.standard_normal((3, 4)), layer, MlpKind.LLAMA_GATED,
                      Nonlinearity.SILU, REFERENCE_POLICY)
    assert not out.any()


def _oracle_mlp(x, layer, mlp_kind, nonlinearity):
    """Elementwise math-module nonlinearities, explicit gating."""
    def f(z):
        out = np.empty_like(z)
        flat_in, flat_out = z.ravel(), out.ravel()
        for i, v in enumerate(flat_in.tolist()):
            if nonlinearity is Nonlinearity.RELU:
                flat_out[i] = v if v > 0 else 0.0
            elif nonlinearity is Nonlinearity.GELU:
                flat_out[i] = 0.5 * v * (1.0 + math.erf(v / math.sqrt(2.0)))
            else:
                flat_out[i] = v / (1.0 + math.exp(-v))
        return out

    gate = f(x @ layer["e"])
    if mlp_kind is MlpKind.LLAMA_GATED:
        gate = gate * (x @ layer["b"])
    return gate @ layer["g"]


def test_mlp_matches_independent_oracle():
    rng = np.random.default_rng(53)
    layer = _layer(rng, 6, 10)
    x = rng.standard_normal((4, 6))
    for mlp_kind in (MlpKind.STANDARD, MlpKind.LLAMA_GATED):
        for nonlinearity in (Nonlinearity.RELU, Nonlinearity.GELU,
                             Nonlinearity.SILU):
            out = mlp_forward(x, layer, mlp_kind, nonlinearity, REFERENCE_POLICY)
            assert _rel(out, _oracle_mlp(x, layer, mlp_kind, nonlinearity)) < 1e-10


@pytest.mark.parametrize("nonlinearity", [Nonlinearity.RELU, Nonlinearity.GELU,
                                          Nonlinearity.SILU], ids=["relu", "gelu", "silu"])
@pytest.mark.parametrize("mlp_kind", [MlpKind.STANDARD, MlpKind.LLAMA_GATED],
                         ids=["standard", "gated"])
def test_fp16_mlp_holds_one_hidden_block(mlp_kind, nonlinearity):
    # Memory gate, bound from shapes: one n x m hidden block, three n x d
    # blocks (a hidden tile's two temporaries, or the output and its
    # tile; hidden tiles are at most d wide here) and one widened weight
    # of at most d x m (the whole matrix; its tiles are smaller).  Each
    # store rounds the block it is handed; a second hidden block (a
    # whole gate or up product), a store that made a float16 copy and a
    # new float64 block, or a nonlinearity that made fresh blocks, would
    # not fit.
    import scipy.special  # noqa: F401  GELU's lazy import, loaded before tracing

    n, d, m = 256, 128, 1024
    rng = np.random.default_rng(83)
    mat = lambda r, c: (rng.standard_normal((r, c)) * 0.1).astype(np.float32)  # noqa: E731
    weights = dict(e=mat(d, m), b=mat(d, m), g=mat(m, d))
    x = rng.standard_normal((n, d))
    bound = 8 * (n * m + 3 * n * d + d * m)
    peak = traced_peak(lambda: mlp_forward(x, weights, mlp_kind, nonlinearity, FP16_POLICY))
    assert peak <= 1.05 * bound


def test_mlp_rejects_bad_shapes():
    layer = _layer(np.random.default_rng(0), 4, 8)
    with pytest.raises(ValueError, match="n_tokens x 4"):
        mlp_forward(np.ones((2, 5)), layer, MlpKind.LLAMA_GATED,
                    Nonlinearity.SILU, REFERENCE_POLICY)


# ── tiles and query blocks ───────────────────────────────────────────────


def _one_shot_attention(x, weights, cfg, policy):
    """attention_forward with whole products: each head's n x n scores."""
    store, d, dh = engine._store, cfg.d_model, cfg.head_dim
    wide = {role: np.asarray(weights[role], dtype=np.float64)
            for role in ("w_q", "w_k", "w_v", "p")}
    q, k, v = (store(x @ wide[role], policy) for role in ("w_q", "w_k", "w_v"))
    future = np.arange(x.shape[0])[:, None] < np.arange(x.shape[0])
    heads = np.empty((x.shape[0], d))
    for h in range(cfg.n_heads):
        cols = slice(h * dh, (h + 1) * dh)
        scores = q[:, cols] @ k[:, cols].T
        store(np.divide(scores, math.sqrt(dh), out=scores), policy)
        np.putmask(scores, future, -math.inf)
        np.exp(np.subtract(scores, scores.max(axis=1, keepdims=True), out=scores), out=scores)
        s = store(np.divide(scores, scores.sum(axis=1, keepdims=True), out=scores), policy)
        heads[:, cols] = s @ v[:, cols]
    return store(store(heads, policy) @ wide["p"], policy)


def _one_shot_mlp(x, weights, mlp_kind, nonlinearity, policy):
    """mlp_forward with whole products: the n x m gate and up blocks."""
    store = engine._store
    e, b, g = (np.asarray(weights[role], dtype=np.float64) for role in ("e", "b", "g"))
    gate = store(engine._nonlinearity(store(x @ e, policy), nonlinearity), policy)
    if mlp_kind is MlpKind.LLAMA_GATED:
        store(np.multiply(gate, store(x @ b, policy), out=gate), policy)
    return store(gate @ g, policy)


@pytest.mark.parametrize("n", [1, 7, 16, 33, 1040])
def test_tiles_and_query_blocks_keep_every_bit(n):
    # d=128, m=512, head_dim 32: at 1040 tokens the queries run in nine
    # blocks, the hidden dimension in four tiles and the down product in
    # two; the fewer tokens cover one block or tile, and ragged counts.
    d, m = 128, 512
    cfg = _config(d=d, heads=4, mlp=m)
    rng = np.random.default_rng(89)
    mat = lambda r, c: (rng.standard_normal((r, c)) * 0.1).astype(np.float32)  # noqa: E731
    weights = dict(w_q=mat(d, d), w_k=mat(d, d), w_v=mat(d, d), p=mat(d, d),
                   e=mat(d, m), b=mat(d, m), g=mat(m, d))
    x = rng.standard_normal((n, d))
    same_bits = lambda a, b: np.array_equal(a.view(np.uint64), b.view(np.uint64))  # noqa: E731
    for policy in (REFERENCE_POLICY, FP16_POLICY):
        assert same_bits(attention_forward(x, weights, cfg, policy),
                         _one_shot_attention(x, weights, cfg, policy))
        for mlp_kind in (MlpKind.STANDARD, MlpKind.LLAMA_GATED):
            for nonlinearity in (Nonlinearity.RELU, Nonlinearity.GELU, Nonlinearity.SILU):
                assert same_bits(mlp_forward(x, weights, mlp_kind, nonlinearity, policy),
                                 _one_shot_mlp(x, weights, mlp_kind, nonlinearity, policy))


# ── full forward ─────────────────────────────────────────────────────────


def test_zero_layer_post_ln_is_identity_with_empty_audit():
    graph = generate_synthetic(_config(d=8, layers=0, heads=1, mlp=16),
                               InitSpec(), seed=0)
    x0 = np.random.default_rng(3).standard_normal((5, 8))
    result = forward(graph, x0, REFERENCE_POLICY)
    assert np.array_equal(result.output, x0)
    assert result.audit == {}
    rounded = forward(graph, x0, FP16_POLICY)
    assert np.array_equal(rounded.output, fp16.round_array(x0))


def test_zero_layer_pre_ln_runs_only_the_final_norm():
    graph = generate_synthetic(
        _config(d=8, layers=0, heads=1, mlp=16,
                placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=0,
    )
    x0 = np.random.default_rng(3).standard_normal((5, 8))
    result = forward(graph, x0, REFERENCE_POLICY)
    assert list(result.audit) == ["final_norm"]
    assert result.audit["final_norm"].norm_id == "final_norm"
    assert result.audit["final_norm"].raw_sums.size == 5


def test_fp64_scales_change_nothing():
    graph = generate_synthetic(_config(d=16, layers=2, mlp=32),
                               InitSpec(std=0.05), seed=5)
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    plain = forward(graph, x0, REFERENCE_POLICY)
    scaled = forward(graph, x0, REFERENCE_POLICY, scales=table)
    denom = np.maximum(np.abs(plain.output),
                       float(np.sqrt(np.mean(plain.output**2))))
    assert float(np.max(np.abs(scaled.output - plain.output) / denom)) < 1e-10
    assert all(a.scale_applied == 1.0 for a in plain.audit.values())
    assert all(a.scale_applied != 1.0 for a in scaled.audit.values())


def _amplified_graph():
    cfg = _config(d=256, layers=1, heads=4, mlp=1024, mlp_kind=MlpKind.STANDARD)
    init = InitSpec(std=0.04, amplify={"e": 8.0, "g": 8.0}, amplify_layers=(0,))
    return generate_synthetic(cfg, init, seed=7)


def test_amplified_model_overflows_then_scales_rescue_it():
    # Pinned one-time run: 32 of 32 tokens overflow at layer0.norm2
    # without scales; the static table removes every overflow and
    # introduces no underflow.
    graph = _amplified_graph()
    tokens = np.random.default_rng(3).standard_normal((32, 256))
    plain = forward(graph, tokens, FP16_POLICY)
    assert sum(a.overflowed.sum() for a in plain.audit.values()) == 32
    scaled = forward(graph, tokens, FP16_POLICY,
                     scales=compute_scale_table(graph))
    assert sum(a.overflowed.sum() for a in scaled.audit.values()) == 0
    assert sum(a.underflowed.sum() for a in scaled.audit.values()) == 0


def test_fingerprint_mismatch_is_refused():
    graph = generate_synthetic(_config(), InitSpec(), seed=1)
    other = generate_synthetic(_config(), InitSpec(), seed=2)
    table = compute_scale_table(other)
    x0 = np.zeros((2, 16)) + 1.0
    with pytest.raises(ScaleTableError, match="fingerprint"):
        forward(graph, x0, REFERENCE_POLICY, scales=table)


def test_missing_scale_entry_is_refused():
    graph = generate_synthetic(_config(), InitSpec(), seed=1)
    table = compute_scale_table(graph)
    broken = {**table, "entries": [e for e in table["entries"]
                                   if e["norm_id"] != "layer1.norm2"]}
    with pytest.raises(ScaleTableError, match="no entry for norm 'layer1.norm2'"):
        forward(graph, np.ones((2, 16)), REFERENCE_POLICY, scales=broken)


def test_entries_are_checked_once_per_scaled_pass(monkeypatch):
    # The pass checks its table's entries as it starts; after the walk
    # only the fingerprint is left to check.
    graph = generate_synthetic(_config(), InitSpec(), seed=1)
    table = compute_scale_table(graph)
    calls = []

    def counting(doc, cfg):
        calls.append(doc)
        return entry_scales(doc, cfg)

    monkeypatch.setattr(engine, "entry_scales", counting)
    monkeypatch.setattr(scales, "entry_scales", counting)
    x0 = np.random.default_rng(2).standard_normal((3, 16))
    forward(graph, x0, FP16_POLICY, scales=table)
    assert len(calls) == 1
    forward(graph, x0, FP16_POLICY)
    assert len(calls) == 1
    run_compare(graph, x0, table)
    assert len(calls) == 2
    assert all(doc is table for doc in calls)


def test_audit_is_complete_and_ordered():
    for placement in (ResidualPlacement.POST_LN, ResidualPlacement.PRE_LN):
        graph = generate_synthetic(_config(placement=placement), InitSpec(), seed=6)
        x0 = np.random.default_rng(9).standard_normal((7, 16))
        result = forward(graph, x0, FP16_POLICY)
        assert list(result.audit) == graph.norm_ids
        assert list(result.audit)[:2] == ["layer0.norm1", "layer0.norm2"]
        for norm_id, audit in result.audit.items():
            assert audit.norm_id == norm_id
            for column in (audit.raw_sums, audit.fp16_sums, audit.overflowed,
                           audit.underflowed):
                assert column.shape == (7,)


@pytest.mark.parametrize("placement,layers,expected", [
    (ResidualPlacement.POST_LN, 2,
     ["layer0.norm1", "layer0.norm2", "layer1.norm1", "layer1.norm2"]),
    (ResidualPlacement.PRE_LN, 2,
     ["layer0.norm1", "layer0.norm2", "layer1.norm1", "layer1.norm2", "final_norm"]),
    (ResidualPlacement.PRE_LN, 0, ["final_norm"]),
], ids=["post-ln", "pre-ln", "pre-ln-0-layers"])
def test_execution_order_agrees_across_modules(placement, layers, expected):
    graph = generate_synthetic(_config(layers=layers, placement=placement),
                               InitSpec(), seed=6)
    table = compute_scale_table(graph)
    result = forward(graph, np.random.default_rng(9).standard_normal((3, 16)),
                     FP16_POLICY, scales=table)
    report = build_audit_report(result, graph, "fp16", seed=None)
    assert graph.norm_ids == expected
    assert [entry["norm_id"] for entry in table["entries"]] == expected
    assert list(result.audit) == expected
    assert [a.norm_id for a in result.audit.values()] == expected
    assert [n["norm_id"] for n in report["norms"]] == expected


def test_fp16_forward_is_deterministic():
    graph = generate_synthetic(_config(), InitSpec(std=0.05), seed=8)
    x0 = np.random.default_rng(10).standard_normal((4, 16))
    first = forward(graph, x0, FP16_POLICY)
    second = forward(graph, x0, FP16_POLICY)
    assert np.array_equal(first.output, second.output)
    assert _audit_bits(first.audit) == _audit_bits(second.audit)


@pytest.mark.parametrize("cfg", [
    _config(d=32, mlp=64),
    _config(d=32, mlp=64, norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN,
            mlp_kind=MlpKind.STANDARD, nonlinearity=Nonlinearity.RELU),
])
def test_compare_passes_write_no_shared_array(cfg):
    # compare's three passes start from the caller's token block and read
    # the same held weights, while every store rounds the array it is
    # handed in place.  With the shared arrays read-only, a store handed
    # one of them raises instead of corrupting the other passes.
    tokens = np.random.default_rng(19).standard_normal((12, cfg.d_model))

    def run(read_only: bool):
        graph = generate_synthetic(cfg, InitSpec(std=0.05, amplify={"e": 16.0, "g": 16.0}),
                                   seed=23)
        x = tokens.copy()
        if read_only:
            for array in graph.tensors.values():
                array.flags.writeable = False
            x.flags.writeable = False
        passes = [(FP16_POLICY, compute_scale_table(graph)), (REFERENCE_POLICY, None),
                  (FP16_POLICY, None)]
        return x, engine.forward_passes(graph, x, passes)

    _, writable = run(read_only=False)
    x, frozen = run(read_only=True)
    assert x.tobytes() == tokens.tobytes()
    for a, b in zip(writable, frozen):
        if isinstance(a, Exception):
            assert (type(a), str(a)) == (type(b), str(b))
        else:
            assert a.output.tobytes() == b.output.tobytes()
            assert _audit_bits(a.audit) == _audit_bits(b.audit)


def test_forward_rejects_bad_inputs():
    graph = generate_synthetic(_config(), InitSpec(), seed=1)
    with pytest.raises(InputError, match="n_tokens x 16"):
        forward(graph, np.ones((2, 15)), REFERENCE_POLICY)
    with pytest.raises(InputError, match="n_tokens x 16"):
        forward(graph, np.ones(16), REFERENCE_POLICY)
    with pytest.raises(InputError, match=r"at least one token, got \(0, 16\)"):
        forward(graph, np.ones((0, 16)), REFERENCE_POLICY)
    with pytest.raises(InputError, match="finite"):
        bad = np.ones((2, 16))
        bad[0, 0] = math.inf
        forward(graph, bad, REFERENCE_POLICY)
    # The first non-finite value is named, whether NaN or inf.
    bad = np.ones((3, 16))
    bad[1, 5] = math.nan
    bad[2, 0] = math.inf
    with pytest.raises(InputError, match="finite: token 1, element 5 is "):
        forward(graph, bad, REFERENCE_POLICY)


def test_normalized_rows_have_unit_mean_square():
    # Gains of exactly one expose the normalized vector itself; its mean
    # square must sit within epsilon-effects of 1.
    graph = generate_synthetic(_config(d=32, layers=1, mlp=64), InitSpec(std=0.0),
                               seed=0)
    x0 = np.random.default_rng(15).standard_normal((6, 32)) * 3.0
    result = forward(graph, x0, REFERENCE_POLICY)
    mean_square = np.mean(result.output**2, axis=1)
    assert np.all(np.abs(mean_square - 1.0) < 1e-4)


def _per_token_norm(x, gamma, beta, epsilon, kind, policy, s=1.0, norm_id="norm"):
    """Oracle for norm_forward: one token at a time, scalar soft-float.

    Storage rounding uses the oracle's scalar encode, the FP16 sum its
    accumulate_sum_of_squares decoded to a float64 value, and the
    epilogue runs on Python floats.
    """
    d = gamma.size
    reciprocal = 1.0 / s
    eps_adjusted = adjust_epsilon(epsilon, s)
    rows, raws, flags = [], [], []
    for t, row in enumerate(np.asarray(x, dtype=np.float64)):
        scaled = row * reciprocal
        bits = np.array([fp16_oracle.encode(v) for v in scaled.tolist()], dtype=np.uint16)
        if policy.fp16_storage:
            scaled = np.array([fp16_oracle.decode(b) for b in bits.tolist()])
        raw = float(np.dot(scaled, scaled))
        if policy.fp16_accumulation:
            sum_bits, overflowed, underflowed = fp16_oracle.accumulate_sum_of_squares(bits)
            sum_sq = fp16_oracle.decode(sum_bits)
            flags.append((sum_sq, overflowed, underflowed))
        else:
            sum_sq = raw
            flags.append((fp16_oracle.decode(fp16_oracle.encode(raw)), False, False))
        raws.append(raw)
        if kind is NormKind.LAYER_NORM:
            mean = float(np.mean(scaled))
            variance = sum_sq / d - mean * mean + eps_adjusted
        else:
            mean = 0.0
            variance = sum_sq / d + eps_adjusted
        if not variance > 0.0:
            raise NonPositiveVarianceError(norm_id, t, variance)
        y = (scaled - mean) / math.sqrt(variance) * gamma
        if kind is NormKind.LAYER_NORM and beta is not None:
            y = y + beta
        rows.append(fp16.round_array(y) if policy.fp16_storage else y)
    sums, overflowed, underflowed = (np.array(c) for c in zip(*flags))
    audit = NormAudit(norm_id, s, np.array(raws), sums, overflowed, underflowed)
    return np.array(rows), audit


def _forward_outcome(graph, x0, policy, table):
    """Everything a forward pass shows, as bit-exact text."""
    try:
        result = forward(graph, x0, policy, scales=table)
    except NonPositiveVarianceError as err:
        return repr((err.norm_id, err.token_index, err.variance))
    return repr((result.output.view(np.uint64).tolist(), _audit_bits(result.audit)))


@pytest.mark.parametrize("cfg", [
    _config(d=24, layers=2, heads=2, mlp=48),
    _config(d=20, layers=2, heads=2, mlp=40, norm_kind=NormKind.LAYER_NORM,
            placement=ResidualPlacement.PRE_LN, mlp_kind=MlpKind.STANDARD,
            nonlinearity=Nonlinearity.GELU),
], ids=["post-ln-rms-gated", "pre-ln-layernorm-standard"])
def test_forward_matches_per_token_scalar_oracle(cfg, monkeypatch):
    init = InitSpec(std=0.05, amplify={"e": 64.0, "g": 64.0})
    graph = generate_synthetic(cfg, init, seed=13)
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(14).standard_normal((12, cfg.d_model)) * 3.0
    # Plain FP16 overflows on some tokens only, so both paths are covered.
    audit = forward(graph, x0, FP16_POLICY).audit
    overflowed = np.concatenate([a.overflowed for a in audit.values()])
    assert 0 < overflowed.sum() < overflowed.size
    outcomes = {}
    for name, norm in (("block", norm_forward), ("oracle", _per_token_norm)):
        monkeypatch.setattr(engine, "norm_forward", norm)
        outcomes[name] = [
            _forward_outcome(graph, x0, policy, t)
            for policy in ALL_POLICIES
            for t in (None, table)
        ]
    assert outcomes["block"] == outcomes["oracle"]


def _two_branch_forward(graph, x0, policy, table):
    """Oracle for forward's residual wiring, each placement written out.

    PostLN: sublayer, add residual, norm.  PreLN: norm, sublayer, add
    residual, with one final norm after the last decoder.
    """
    cfg = graph.config
    audit = {}
    s_by_norm = read_scale_table(table, graph) if table is not None else {}

    def run_norm(acts, norm_id, gamma, beta):
        rows, audit[norm_id] = norm_forward(acts, gamma, beta, cfg.epsilon,
                                            cfg.norm_kind, policy,
                                            s=s_by_norm.get(norm_id, 1.0),
                                            norm_id=norm_id)
        return rows

    def store(acts):
        return fp16.round_array(acts) if policy.fp16_storage else acts

    def mlp(acts, layer):
        return mlp_forward(acts, layer, cfg.mlp_kind, cfg.nonlinearity, policy)

    x = store(np.asarray(x0, dtype=np.float64))
    for i in range(cfg.n_layers):
        layer = {role: graph.tensors.get((role, i)) for role in LAYER_ROLES}
        if cfg.residual_placement is ResidualPlacement.POST_LN:
            attn = attention_forward(x, layer, cfg, policy)
            x = run_norm(store(x + attn), f"layer{i}.norm1", layer["gamma1"],
                         layer["beta1"])
            x = run_norm(store(x + mlp(x, layer)), f"layer{i}.norm2",
                         layer["gamma2"], layer["beta2"])
        else:
            normed = run_norm(x, f"layer{i}.norm1", layer["gamma1"], layer["beta1"])
            x = store(x + attention_forward(normed, layer, cfg, policy))
            normed = run_norm(x, f"layer{i}.norm2", layer["gamma2"], layer["beta2"])
            x = store(x + mlp(normed, layer))
    if cfg.has_final_norm:
        x = run_norm(x, "final_norm", graph.tensors["final_gamma", None],
                     graph.tensors.get(("final_beta", None)))
    return x, audit


@pytest.mark.parametrize("placement", [ResidualPlacement.POST_LN,
                                       ResidualPlacement.PRE_LN],
                         ids=["post-ln", "pre-ln"])
def test_forward_matches_two_branch_residual_loop(placement):
    cfg = _config(d=16, layers=2, heads=2, mlp=32, norm_kind=NormKind.LAYER_NORM,
                  placement=placement, mlp_kind=MlpKind.STANDARD,
                  nonlinearity=Nonlinearity.GELU)
    graph = generate_synthetic(cfg, InitSpec(std=0.2), seed=21)
    betas = [array for (role, _), array in graph.tensors.items() if "beta" in role]
    assert len(betas) == 2 * cfg.n_layers + cfg.has_final_norm
    # Distinct, non-zero shifts: a swapped or dropped beta changes the bits.
    assert all(b.all() for b in betas)
    assert len({b.tobytes() for b in betas}) == len(betas)
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(22).standard_normal((6, 16)) * 2.0
    for policy in ALL_POLICIES:
        for t in (None, table):
            result = forward(graph, x0, policy, scales=t)
            output, audit = _two_branch_forward(graph, x0, policy, t)
            assert result.output.view(np.uint64).tolist() == output.view(np.uint64).tolist()
            assert _audit_bits(result.audit) == _audit_bits(audit)


# ── the report's histogram of raw sums ───────────────────────────────────


def test_histogram_bucket_edges():
    h = histogram([
        1.0,            # [2^0, 2^1) -> bucket 30
        0.75,           # [2^-1, 2^0) -> bucket 29
        2.0**-30,       # lowest bucket
        2.0**-31,       # below range
        0.0,            # below range
        2.0**30,        # above range
        math.inf,       # above range
        math.nan,       # counted as above, like an overflowed sum
        3.5,            # [2^1, 2^2) -> bucket 31
        -0.0,           # below range
        -1.0,           # negatives are below range
        -math.inf,      # below range
        math.nextafter(2.0**-30, 0.0),   # just under the lowest edge: below
        math.nextafter(2.0**30, 0.0),    # just under the top edge: bucket 59
        2.0**29,        # bucket 59
        math.nextafter(2.0**-29, 0.0),   # still bucket 0
        2.0**-29,       # bucket 1
        1e300,          # above range
        -math.nan,      # above range, whatever the sign bit
    ])
    counts = h["counts"]
    assert counts[30] == 1
    assert counts[29] == 1
    assert counts[0] == 2
    assert counts[1] == 1
    assert counts[31] == 1
    assert counts[59] == 2
    assert sum(counts) == 8
    assert h["below"] == 6
    assert h["above"] == 5
    assert h["below"] + sum(counts) + h["above"] == 19
    assert len(counts) == 60
    assert all(type(c) is int for c in (h["below"], h["above"], *counts))
    empty = histogram([])
    assert empty == {"below": 0, "counts": [0] * 60, "above": 0}


# ── dynamic calibration ──────────────────────────────────────────────────


def test_dynamic_singleton_statistic_is_the_norm():
    graph = generate_synthetic(
        _config(d=4, layers=0, heads=1, mlp=8, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=0,
    )
    x = np.array([[4.0, 4.0, 4.0, 4.0]])  # Euclidean norm 8
    for statistic in ("Mean", "Median"):
        assert calibrate_dynamic(graph, [x], statistic) == {"final_norm": 8.0}


def test_dynamic_is_invariant_under_replication():
    graph = generate_synthetic(_config(d=8, layers=1, heads=1, mlp=16),
                               InitSpec(std=0.05), seed=19)
    x = np.random.default_rng(20).standard_normal((4, 8))
    for statistic in ("Mean", "Median"):
        once = calibrate_dynamic(graph, [x], statistic)
        tenfold = calibrate_dynamic(graph, [x] * 10, statistic)
        for norm_id in once:
            assert math.isclose(once[norm_id], tenfold[norm_id], rel_tol=1e-12)


def test_dynamic_agrees_with_static_within_pinned_factor():
    # Pinned one-time run: the worst static/dynamic ratio on this seeded
    # model is 1.161; the order-of-magnitude bound is 32.
    graph = generate_synthetic(_config(d=16, layers=2, mlp=32),
                               InitSpec(std=0.05), seed=5)
    static = read_scale_table(compute_scale_table(graph), graph)
    dynamic = calibrate_dynamic(
        graph, [np.random.default_rng(11).standard_normal((8, 16))], "Median")
    ratios = [max(static[n] / dynamic[n], dynamic[n] / static[n]) for n in static]
    assert max(ratios) < 1.2
    assert max(ratios) < 32.0


def test_dynamic_argument_validation():
    graph = generate_synthetic(_config(), InitSpec(), seed=1)
    with pytest.raises(ValueError, match="empty calibration set"):
        calibrate_dynamic(graph, [])
    with pytest.raises(ValueError, match="statistic"):
        calibrate_dynamic(graph, [np.ones((1, 16))], "Mode")
