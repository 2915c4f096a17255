"""Tests for the closed-form scale formulas and whole-model tables.

Oracles: hand-evaluated Frobenius norms on matrices small enough to do
on paper, and an independent plain-numpy reimplementation of the three
formulas (dense SVD for the gate's spectral factor) for seeded models.
"""

from __future__ import annotations

import itertools
import json
import math
import re

import numpy as np
import pytest

from memory_gates import gram_tile_bytes, product_tile_bytes, traced_peak
from slanc import linalg, serialization
from slanc.linalg import ConvergenceError, spectral_norm
from slanc.model import (
    InitSpec,
    MlpKind,
    ModelConfig,
    ModelGraph,
    NormKind,
    NormSite,
    Nonlinearity,
    ResidualPlacement,
    generate_synthetic,
    open_safetensors,
    outline,
    save_safetensors,
)
from slanc.scales import (
    DEGENERATE_THRESHOLD,
    DegenerateScaleError,
    Formula,
    ScaleTableError,
    adjust_epsilon,
    compute_scale_table,
    read_scale_table,
    scale_attention,
    scale_llama_mlp,
    scale_standard_mlp,
    scale_entry,
)


# ── the three closed forms ───────────────────────────────────────────────


def test_standard_mlp_zero_projections_leave_identity():
    assert scale_standard_mlp(np.ones(4), np.zeros((4, 8)), np.zeros((8, 4))) == 2.0


def test_standard_mlp_hand_case():
    # diag(2,2) (I + I) has entries 4 on the diagonal: Frobenius 4*sqrt(2).
    s = scale_standard_mlp(np.array([2.0, 2.0]), np.eye(2), np.eye(2))
    assert s == math.sqrt(32.0)


def test_standard_mlp_cancellation_is_degenerate():
    with pytest.raises(DegenerateScaleError):
        scale_standard_mlp(np.ones(2), np.eye(2), -np.eye(2))


def test_standard_mlp_dimension_mismatch():
    with pytest.raises(ValueError, match="dimension mismatch"):
        scale_standard_mlp(np.ones(2), np.zeros((2, 3)), np.zeros((4, 2)))


def test_llama_mlp_unit_gate_gain():
    # e = I gives spectral factor 1, so the result is ||I + I||_F.
    s = scale_llama_mlp(np.ones(2), np.eye(2), np.eye(2), np.eye(2))
    assert s == math.sqrt(8.0)


def test_llama_mlp_zero_bg_gives_sqrt_d():
    rng = np.random.default_rng(1)
    e = rng.standard_normal((3, 5))
    assert scale_llama_mlp(np.ones(3), e, np.zeros((3, 5)), np.zeros((5, 3))) == math.sqrt(3.0)


def test_llama_mlp_zero_gamma_is_degenerate():
    gamma = np.zeros(2)
    with pytest.raises(DegenerateScaleError):
        scale_llama_mlp(gamma, np.eye(2), np.eye(2), np.eye(2))


def test_llama_mlp_spectral_factor_scales_linearly():
    # Doubling e doubles the gate gain: ||2 B G + I||_F on the identity
    # example is 3*sqrt(2), strictly above the unit-gain 2*sqrt(2).
    base = scale_llama_mlp(np.ones(2), np.eye(2), np.eye(2), np.eye(2))
    doubled = scale_llama_mlp(np.ones(2), 2 * np.eye(2), np.eye(2), np.eye(2))
    assert math.isclose(doubled, math.sqrt(18.0), rel_tol=1e-12)
    assert doubled > base
    gain1 = spectral_norm(np.diag([1.0, 1.0]) @ np.diag([3.0, 2.0]))
    gain2 = spectral_norm(np.diag([1.0, 1.0]) @ np.diag([6.0, 4.0]))
    assert math.isclose(gain2, 2.0 * gain1, rel_tol=1e-9)


def test_attention_zero_projection_gives_sqrt_d():
    assert scale_attention(np.ones(5), np.zeros((5, 5)), np.zeros((5, 5))) == math.sqrt(5.0)


def test_attention_hand_case():
    assert scale_attention(np.ones(2), np.eye(2), np.eye(2)) == math.sqrt(8.0)


def test_attention_cancellation_is_degenerate():
    with pytest.raises(DegenerateScaleError):
        scale_attention(np.ones(2), np.eye(2), -np.eye(2))


def test_attention_accepts_rectangular_heads():
    # w_v is d x k with k = heads * head_dim, p is k x d.
    rng = np.random.default_rng(2)
    s = scale_attention(
        np.ones(4), rng.standard_normal((4, 6)), rng.standard_normal((6, 4))
    )
    assert s > 0
    with pytest.raises(ValueError, match="dimension mismatch"):
        scale_attention(np.ones(4), np.zeros((4, 6)), np.zeros((4, 4)))


def test_formula_identity_for_unit_gamma():
    rng = np.random.default_rng(3)
    e = rng.standard_normal((6, 9))
    g = rng.standard_normal((9, 6))
    expected = float(np.linalg.norm(e @ g + np.eye(6), "fro"))
    s = scale_standard_mlp(np.ones(6), e, g)
    assert math.isclose(s, expected, rel_tol=1e-13)


def _llama_widened_whole(gamma, e, b, g) -> float:
    """scale_llama_mlp as written before its products were tiled: every
    weight widened whole, the identity added as np.eye."""
    x = gamma[:, None] * e
    gate_gain = math.sqrt(max(float(np.linalg.eigvalsh(x @ x.T)[-1]), 0.0))
    grown = gate_gain * (np.asarray(b, dtype=np.float64) @ g) + np.eye(gamma.size)
    return _frobenius(gamma[:, None] * grown)


def _attention_widened_whole(gamma, w_v, p) -> float:
    grown = np.asarray(w_v, dtype=np.float64) @ p + np.eye(gamma.size)
    return _frobenius(gamma[:, None] * grown)


def _frobenius(a: np.ndarray) -> float:
    """The square root of the sum of a's squared entries, summed as
    scales._grown sums them."""
    return math.sqrt(float(np.sum(a * a)))


def test_formulas_hold_a_product_a_gram_and_two_tiles():
    # Memory gate, bound from shapes (d=512, m=1408): the d x d float64
    # product, the d x d Gram and the widest outer and inner tile of a
    # weight (linalg's plan), 5% over; the tiles give the same bits.
    # B G is cut in two outer and two inner tiles, and the gated formula
    # with each weight widened whole does not fit.  Attention's 512 x 512
    # weights are each one tile.
    rng = np.random.default_rng(5)
    d, m = 512, 1408
    gamma = rng.standard_normal(d)
    e, b = (rng.standard_normal((d, m)).astype(np.float32) for _ in range(2))
    g = rng.standard_normal((m, d)).astype(np.float32)
    w_v, p = (rng.standard_normal((d, d)).astype(np.float32) for _ in range(2))
    rows, cols = linalg._product_tiles(d, m, d, False, False)
    assert min(len(rows), len(cols)) >= 2

    for formula, whole, weights, k, whole_fits in (
        (scale_llama_mlp, _llama_widened_whole, (e, b, g), m, False),
        (scale_attention, _attention_widened_whole, (w_v, p), d, True),
    ):
        tiles = max(sum(product_tile_bytes(d, k, d)), sum(gram_tile_bytes(d, k)))
        bound = 1.05 * (2 * 8 * d * d + tiles)
        peak = traced_peak(lambda: formula(gamma, *weights))
        assert peak <= bound, (formula.__name__, peak, bound)
        widened = traced_peak(lambda: whole(gamma, *weights))
        assert (widened <= bound) == whole_fits, (formula.__name__, widened, bound)
        assert formula(gamma, *weights) == whole(gamma, *weights)


def test_wide_gated_formula_holds_b_g_a_product_and_two_tiles():
    # Memory gate at the wide-scales MLP (d=1024, m=2816): B and G, made
    # inside the traced call as a streamed walk reads them, the d x d
    # float64 product and the widest outer and inner tile of B G, 5%
    # over.  G's outer tiles are a quarter of its 22 MiB float64 copy;
    # 11 MiB halves would not fit.
    rng = np.random.default_rng(7)
    d, m = 1024, 2816
    gamma = rng.standard_normal(d)
    e, b = (rng.standard_normal((d, m)).astype(np.float32) for _ in range(2))
    g = rng.standard_normal((m, d)).astype(np.float32)
    outer, inner = product_tile_bytes(d, m, d)
    bound = 1.05 * (b.nbytes + g.nbytes + 8 * d * d + outer + inner)
    peak = traced_peak(lambda: scale_llama_mlp(gamma, e, b.copy(), g.copy()))
    assert peak <= bound, (peak, bound)
    assert b.nbytes + g.nbytes + 8 * d * d + 2 * outer > bound


# ── epsilon adjustment ───────────────────────────────────────────────────


def test_adjust_epsilon_cases():
    assert adjust_epsilon(1e-5, 1.0) == 1e-5
    assert math.isclose(adjust_epsilon(1e-5, 10.0), 1e-7, rel_tol=1e-15)
    assert math.isclose(
        adjust_epsilon(1e-6, 2.0 * math.sqrt(2.0)), 1.25e-7, rel_tol=1e-12
    )


def test_adjust_epsilon_rejects_bad_arguments():
    for epsilon, s in ((0.0, 1.0), (-1e-5, 1.0), (math.inf, 1.0),
                       (1e-5, 0.0), (1e-5, -2.0), (1e-5, math.nan)):
        with pytest.raises(ValueError):
            adjust_epsilon(epsilon, s)


# ── table entries ────────────────────────────────────────────────────────


def test_make_norm_scale_fills_derived_fields():
    entry = scale_entry("layer2.norm1", 2, Formula.ATTENTION, 4.0, 1e-5)
    assert entry == {"norm_id": "layer2.norm1", "layer": 2, "formula": "Attention",
                     "s": 4.0, "reciprocal": 0.25, "eps_adjusted": 1e-5 / 16.0}
    assert list(entry) == ["norm_id", "layer", "formula", "s", "reciprocal",
                           "eps_adjusted"]


def test_norm_scale_rejects_inconsistent_reciprocal():
    graph = generate_synthetic(_config(d=16, layers=1), InitSpec(), seed=0)
    table = compute_scale_table(graph)
    table["entries"][1]["reciprocal"] = 0.3
    with pytest.raises(ScaleTableError,
                       match="entry 'layer0.norm2': reciprocal must be .*, got 0.3"):
        read_scale_table(table, graph)
    for s in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError):
            scale_entry("n", 0, Formula.UNIT, s, 1e-5)


def test_degenerate_threshold_boundary():
    # The reader accepts exactly the s the formulas can produce: from
    # DEGENERATE_THRESHOLD up, with consistent reciprocal and eps_adjusted.
    assert DEGENERATE_THRESHOLD == 2.0**-24
    graph = generate_synthetic(_config(d=16, layers=1), InitSpec(), seed=0)
    table = compute_scale_table(graph)

    def with_s(s: float, norm_id: str) -> dict:
        return {**table, "entries": [
            scale_entry(e["norm_id"], e["layer"], Formula(e["formula"]),
                        s if e["norm_id"] == norm_id else e["s"], 1e-5)
            for e in table["entries"]]}

    accepted = read_scale_table(with_s(2.0**-24, "layer0.norm2"), graph)
    assert accepted["layer0.norm2"] == 2.0**-24
    below = math.nextafter(2.0**-24, 0.0)
    with pytest.raises(ScaleTableError, match=re.escape(
            f"entry 'layer0.norm2': s must be at least 2^-24 ({2.0**-24!r}), "
            f"got {below!r}")):
        read_scale_table(with_s(below, "layer0.norm2"), graph)


# ── whole-model tables ───────────────────────────────────────────────────


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


def test_zero_weight_post_ln_table_is_sqrt_d():
    graph = generate_synthetic(_config(d=16, layers=1), InitSpec(std=0.0), seed=0)
    table = compute_scale_table(graph)
    assert [entry["norm_id"] for entry in table["entries"]] == [
        "layer0.norm1", "layer0.norm2"]
    for entry in table["entries"]:
        assert entry["s"] == 4.0
        assert math.isclose(entry["eps_adjusted"], 1e-5 / 16.0, rel_tol=1e-15)
    assert [entry["formula"] for entry in table["entries"]] == [
        Formula.ATTENTION, Formula.LLAMA_MLP]


def test_pre_ln_table_has_unit_first_entry():
    graph = generate_synthetic(
        _config(layers=2, placement=ResidualPlacement.PRE_LN), InitSpec(), seed=0
    )
    table = compute_scale_table(graph)
    formulas = [entry["formula"] for entry in table["entries"]]
    assert formulas == [
        Formula.UNIT, Formula.ATTENTION, Formula.LLAMA_MLP,
        Formula.ATTENTION, Formula.LLAMA_MLP,
    ]
    first = table["entries"][0]
    assert first["norm_id"] == "layer0.norm1"
    assert first["s"] == 1.0
    assert sum(f == Formula.UNIT for f in formulas) == 1


def test_zero_layer_pre_ln_table_is_single_unit():
    graph = generate_synthetic(
        _config(layers=0, placement=ResidualPlacement.PRE_LN), InitSpec(), seed=0
    )
    table = compute_scale_table(graph)
    assert table["entries"] == [scale_entry("final_norm", 0, Formula.UNIT, 1.0, 1e-5)]


def test_table_completeness_matches_norm_count():
    for cfg in (
        _config(layers=0),
        _config(layers=3),
        _config(layers=2, placement=ResidualPlacement.PRE_LN),
        _config(layers=1, mlp_kind=MlpKind.STANDARD),
    ):
        graph = generate_synthetic(cfg, InitSpec(), seed=9)
        table = compute_scale_table(graph)
        assert [entry["norm_id"] for entry in table["entries"]] == graph.norm_ids
        assert table["fingerprint"] == graph.fingerprint()


@pytest.mark.parametrize(
    "norm_kind,placement,mlp_kind,layers",
    [(*arch, 3) for arch in itertools.product(NormKind, ResidualPlacement, MlpKind)]
    + [(NormKind.RMS_NORM, ResidualPlacement.PRE_LN, MlpKind.LLAMA_GATED, 0)])
def test_each_norm_has_one_formula_from_every_source(tmp_path, norm_kind, placement,
                                                     mlp_kind, layers):
    cfg = _config(d=8, layers=layers, heads=2, mlp=16, norm_kind=norm_kind,
                  placement=placement, mlp_kind=mlp_kind)
    graph = generate_synthetic(cfg, InitSpec(), seed=4)
    save_safetensors(graph, str(tmp_path / "m.safetensors"))
    mlp = Formula.LLAMA_MLP if mlp_kind is MlpKind.LLAMA_GATED else Formula.STANDARD_MLP

    def rule(norm_id: str) -> Formula:  # the sublayer that runs before the norm
        if placement is ResidualPlacement.POST_LN:
            return Formula.ATTENTION if norm_id.endswith("norm1") else mlp
        if norm_id == "layer0.norm1" or layers == 0:
            return Formula.UNIT
        return Formula.ATTENTION if norm_id.endswith("norm2") else mlp

    def formulas(steps) -> list:
        return [(step.norm_id, step.formula) for step in steps
                if isinstance(step, NormSite)]

    with open_safetensors(str(tmp_path / "m.safetensors"), config=cfg) as stream:
        streamed = formulas(stream.execution_order())
    want = [(norm_id, rule(norm_id)) for norm_id in graph.norm_ids]
    assert formulas(graph.execution_order()) == streamed == want
    assert formulas(outline(cfg).norm_sites) == want
    table = compute_scale_table(graph)
    assert [(entry["norm_id"], entry["formula"]) for entry in table["entries"]] == want


def _oracle_table(graph: ModelGraph) -> dict:
    """Independent reimplementation: plain numpy, dense SVD gate factor."""
    cfg = graph.config
    d = cfg.d_model
    eye = np.eye(d)
    ones = np.ones(d)
    t = graph.tensors

    def from_attention(gam: np.ndarray, i: int) -> float:
        inner = t["w_v", i] @ t["p", i] + eye
        return float(np.linalg.norm(np.diag(gam) @ inner, "fro"))

    def from_mlp(gam: np.ndarray, i: int) -> float:
        e, g = t["e", i], t["g", i]
        if cfg.mlp_kind is MlpKind.LLAMA_GATED:
            gain = float(np.linalg.svd(np.diag(gam) @ e, compute_uv=False)[0])
            inner = gain * (t["b", i] @ g) + eye
        else:
            inner = e @ g + eye
        return float(np.linalg.norm(np.diag(gam) @ inner, "fro"))

    out = {}
    last = cfg.n_layers - 1
    if cfg.residual_placement is ResidualPlacement.POST_LN:
        for i in range(cfg.n_layers):
            prev = t["gamma2", i - 1] if i > 0 else ones
            out[f"layer{i}.norm1"] = from_attention(prev, i)
            out[f"layer{i}.norm2"] = from_mlp(t["gamma1", i], i)
    else:
        for i in range(cfg.n_layers):
            out[f"layer{i}.norm1"] = (
                1.0 if i == 0 else from_mlp(t["gamma2", i - 1], i - 1)
            )
            out[f"layer{i}.norm2"] = from_attention(t["gamma1", i], i)
        out["final_norm"] = from_mlp(t["gamma2", last], last) if cfg.n_layers else 1.0
    return out


def test_seeded_tables_match_independent_reimplementation():
    for cfg in (
        _config(d=64, layers=2, heads=2, mlp=128),
        _config(d=64, layers=3, heads=4, mlp=96, norm_kind=NormKind.LAYER_NORM,
                placement=ResidualPlacement.PRE_LN, mlp_kind=MlpKind.STANDARD,
                nonlinearity=Nonlinearity.GELU, epsilon=1e-6),
    ):
        graph = generate_synthetic(cfg, InitSpec(std=0.02), seed=42)
        table = compute_scale_table(graph)
        oracle = _oracle_table(graph)
        entries = {entry["norm_id"]: entry for entry in table["entries"]}
        assert set(entries) == set(oracle)
        for norm_id, expected in oracle.items():
            entry = entries[norm_id]
            assert math.isclose(entry["s"], expected, rel_tol=1e-6), norm_id
            assert math.isclose(entry["reciprocal"] * entry["s"], 1.0, rel_tol=1e-15)
            assert math.isclose(
                entry["eps_adjusted"], cfg.epsilon / expected**2, rel_tol=1e-6
            )


def test_table_is_bitwise_deterministic():
    graph = generate_synthetic(_config(d=32, layers=2, mlp=64), InitSpec(), seed=13)
    first = compute_scale_table(graph)
    second = compute_scale_table(graph)
    assert [e["s"] for e in first["entries"]] == [e["s"] for e in second["entries"]]
    assert serialization.dumps(first) == serialization.dumps(second)


def test_degenerate_table_names_offending_norm():
    d = 4
    rng = np.random.default_rng(4)
    small = lambda: rng.standard_normal((d, d)) * 0.01  # noqa: E731
    layer = dict(gamma1=np.ones(d), gamma2=np.ones(d),
                 w_q=small(), w_k=small(), w_v=small(), p=small(),
                 e=np.eye(d), g=-np.eye(d))
    cfg = _config(d=d, layers=1, heads=1, mlp=d, mlp_kind=MlpKind.STANDARD)
    graph = ModelGraph(cfg, {(role, 0): array for role, array in layer.items()})
    with pytest.raises(DegenerateScaleError) as info:
        compute_scale_table(graph)
    assert info.value.norm_id == "layer0.norm2"


def test_pre_ln_errors_name_the_norm():
    d = 4
    rng = np.random.default_rng(5)
    small = lambda: rng.standard_normal((d, d)) * 0.01  # noqa: E731

    def layer(e, g, b=None):
        return dict(gamma1=np.ones(d), gamma2=np.ones(d),
                    w_q=small(), w_k=small(), w_v=small(), p=small(), e=e, b=b, g=g)

    def graph(mlp_kind, layers):
        cfg = _config(d=d, layers=len(layers), heads=1, mlp=d, mlp_kind=mlp_kind,
                      placement=ResidualPlacement.PRE_LN)
        return ModelGraph(cfg, {("final_gamma", None): np.ones(d), **{
            (role, i): array for i, held in enumerate(layers)
            for role, array in held.items() if array is not None}})

    # Layer 0's MLP cancels its residual; under pre-LN it feeds layer1.norm1.
    cancelling = graph(MlpKind.STANDARD, [layer(np.eye(d), -np.eye(d)),
                                          layer(small(), small())])
    with pytest.raises(DegenerateScaleError, match="'layer1.norm1'") as info:
        compute_scale_table(cancelling)
    assert info.value.norm_id == "layer1.norm1"

    # The last layer's gate squares past float64: the final norm fails.
    huge_gate = graph(MlpKind.LLAMA_GATED, [layer(small(), small(), small()),
                                            layer(np.full((d, d), 1e160), small(),
                                                  small())])
    with pytest.raises(ConvergenceError, match="'final_norm'") as conv:
        compute_scale_table(huge_gate)
    assert conv.value.norm_id == "final_norm"


def test_table_json_round_trip_is_exact():
    graph = generate_synthetic(_config(d=32, layers=2, mlp=64), InitSpec(), seed=21)
    table = compute_scale_table(graph)
    text = serialization.dumps(table)
    parsed = json.loads(text)
    assert parsed == table
    assert serialization.dumps(parsed) == text
    read = read_scale_table(parsed, graph)
    assert list(read) == graph.norm_ids
    assert [s.hex() for s in read.values()] == [e["s"].hex() for e in table["entries"]]


def test_table_json_rejects_malformed_documents():
    graph = generate_synthetic(_config(d=16, layers=1), InitSpec(), seed=0)
    fingerprint = graph.fingerprint()
    for doc, message in [
        ([], "scale table must be a JSON object, got list"),
        ({"fingerprint": 7}, "fingerprint must be a string, got 7"),
        ({"fingerprint": "x"}, "fingerprint does not match the model weights"),
        ({"fingerprint": fingerprint}, "entries must be a list, got NoneType"),
        ({"fingerprint": fingerprint, "entries": [{"norm_id": "n"}]},
         "entries\\[0\\]: norm_id must be 'layer0.norm1', got 'n'"),
        ({"fingerprint": fingerprint, "entries": [{"norm_id": "layer0.norm1"}]},
         "entry 'layer0.norm1': s must be a finite positive number, got None"),
    ]:
        with pytest.raises(ScaleTableError, match=message):
            read_scale_table(doc, graph)


def _mutations(value):
    """(what, new value) edits of one entry field: its value changed, and
    its JSON type changed (int<->float, bool for int, str to list)."""
    if isinstance(value, str):
        return [("value", value + "?"), ("type", [value])]
    if isinstance(value, int):
        return [("value", value + 1), ("type", float(value)), ("type", bool(value))]
    return [("value", -value), ("type", int(value))]


@pytest.mark.parametrize("norm_kind,placement,mlp_kind",
                         list(itertools.product(NormKind, ResidualPlacement, MlpKind)))
def test_reader_refuses_every_edit_the_writer_would_not_make(norm_kind, placement,
                                                             mlp_kind):
    # Driven by what compute_scale_table writes: every field scale_entry
    # returns, so a field it gains later is covered here unedited.
    graph = generate_synthetic(
        _config(d=8, layers=2, heads=2, mlp=16, norm_kind=norm_kind,
                placement=placement, mlp_kind=mlp_kind), InitSpec(), seed=4)
    table = compute_scale_table(graph)
    entries = table["entries"]
    read = read_scale_table(table, graph)
    assert list(read) == graph.norm_ids
    assert [s.hex() for s in read.values()] == [e["s"].hex() for e in entries]

    def refused(edited: list, message: str) -> None:
        doc = json.loads(json.dumps({**table, "entries": edited}))
        with pytest.raises(ScaleTableError, match=re.escape(message)):
            read_scale_table(doc, graph)

    for i, entry in enumerate(entries):
        for field, value in entry.items():
            where = (f"entries[{i}]: norm_id " if field == "norm_id"
                     else f"entry {entry['norm_id']!r}: {field} ")
            rest = {k: v for k, v in entry.items() if k != field}
            for edit in [rest] + [{**entry, field: new} for _, new in _mutations(value)]:
                refused(entries[:i] + [edit] + entries[i + 1:], where)
        # Dropped, duplicated, reordered: refused where the order breaks.
        refused(entries[:i] + entries[i + 1:],
                f"entries[{i}]: norm_id must be {entry['norm_id']!r}"
                if i + 1 < len(entries) else f"has no entry for norm {entry['norm_id']!r}")
        refused(entries[:i + 1] + entries[i:], f"entries[{i + 1}]: norm_id ")
        if i + 1 < len(entries):
            refused(entries[:i] + [entries[i + 1], entry] + entries[i + 2:],
                    f"entries[{i}]: norm_id must be {entry['norm_id']!r}")
    refused(entries + [{**entries[0], "norm_id": "extra"}],
            f"entries[{len(entries)}]: norm_id 'extra' comes after the model's "
            f"{len(entries)} norms")


# Pinned float.hex of every s, and the weight fingerprint, for three
# seeded models.  Scale tables must stay bitwise identical across
# refactors; a change that means to move them updates these values and
# says so.
GOLDEN_TABLES = {
    "post_ln_gated": (
        _config(d=32, layers=2, heads=2, mlp=64),
        InitSpec(std=0.05, amplify={"e": 8.0, "g": 8.0}), 101,
        "4f5419ae9f68648117f367fe1b72649fabefdd362d160e864101ec1da6ffde5f",
        [("layer0.norm1", "0x1.6b28bf919b100p+2"),
         ("layer0.norm2", "0x1.ad44fbc59a5f5p+4"),
         ("layer1.norm1", "0x1.700ac541d1c41p+2"),
         ("layer1.norm2", "0x1.cac31e09d6845p+4")],
    ),
    "pre_ln_gated": (
        _config(d=32, layers=3, heads=4, mlp=48,
                placement=ResidualPlacement.PRE_LN, epsilon=1e-6),
        InitSpec(std=0.05, amplify={"e": 16.0, "b": 4.0}), 202,
        "0eda31324c08aac52fcbc451febf0c1441c2680edb5d2fe104dbf9f24bfe2c65",
        [("layer0.norm1", "0x1.0000000000000p+0"),
         ("layer0.norm2", "0x1.6db86f9921f38p+2"),
         ("layer1.norm1", "0x1.65ccc5f899255p+4"),
         ("layer1.norm2", "0x1.6dba32ac05cc3p+2"),
         ("layer2.norm1", "0x1.635b421049d7dp+4"),
         ("layer2.norm2", "0x1.6a16c48c44222p+2"),
         ("final_norm", "0x1.5f4d83423f5d3p+4")],
    ),
    "pre_ln_layernorm_standard": (
        _config(d=24, layers=2, heads=3, mlp=40, norm_kind=NormKind.LAYER_NORM,
                placement=ResidualPlacement.PRE_LN, mlp_kind=MlpKind.STANDARD,
                nonlinearity=Nonlinearity.GELU),
        InitSpec(std=0.05, amplify={"w_v": 4.0}), 303,
        "d9935a0a78ef933799c4688445a42283cf17d08a907312d5576f9d2a48414e97",
        [("layer0.norm1", "0x1.0000000000000p+0"),
         ("layer0.norm2", "0x1.3f058706e4a97p+2"),
         ("layer1.norm1", "0x1.363020c74ccb5p+2"),
         ("layer1.norm2", "0x1.448face258b1fp+2"),
         ("final_norm", "0x1.3bc0680763618p+2")],
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_TABLES))
def test_table_bits_match_golden_values(name):
    cfg, init, seed, fingerprint, expected = GOLDEN_TABLES[name]
    graph = generate_synthetic(cfg, init, seed)
    table = compute_scale_table(graph)
    assert table["fingerprint"] == fingerprint
    assert [(e["norm_id"], e["s"].hex()) for e in table["entries"]] == expected
