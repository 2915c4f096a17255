"""Tests for model config, synthetic weights, checkpoint IO, validation.

Oracles: exact byte and fingerprint comparison for determinism, the
scale-table closed forms for the zero-weight case, and pinned counts
from one-time audited forward runs for the overflow guarantees.
"""

from __future__ import annotations

import copy
import dataclasses
import hashlib
import json
import math
import struct
import threading
import tracemalloc

import numpy as np
import pytest

from slanc import engine
from slanc import model as model_mod
from slanc.model import (
    DecoderWeights,
    LAYER_ROLES,
    InitSpec,
    MlpKind,
    ModelConfig,
    ModelError,
    ModelGraph,
    NameMap,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
    config_sidecar_path,
    default_name_map,
    generate_synthetic,
    load_safetensors,
    overflow_amplification,
    save_safetensors,
    to_tensor_dict,
    validate,
)
from slanc.safetensors_io import save_tensors
from slanc.scales import Formula, compute_scale_table


def _config(
    d: int = 16,
    layers: int = 2,
    heads: int = 2,
    mlp: int = 32,
    norm_kind: NormKind = NormKind.RMS_NORM,
    placement: ResidualPlacement = ResidualPlacement.POST_LN,
    mlp_kind: MlpKind = MlpKind.LLAMA_GATED,
    nonlinearity: Nonlinearity = Nonlinearity.SILU,
    epsilon: float = 1e-5,
) -> ModelConfig:
    return ModelConfig(
        d_model=d,
        n_heads=heads,
        head_dim=d // heads,
        mlp_hidden=mlp,
        n_layers=layers,
        norm_kind=norm_kind,
        residual_placement=placement,
        mlp_kind=mlp_kind,
        nonlinearity=nonlinearity,
        epsilon=epsilon,
    )


def _graphs_equal(a: ModelGraph, b: ModelGraph) -> bool:
    if a.config != b.config or len(a.layers) != len(b.layers):
        return False
    roles = ("gamma1", "beta1", "gamma2", "beta2",
             "w_q", "w_k", "w_v", "p", "e", "b", "g")
    for la, lb in zip(a.layers, b.layers):
        for role in roles:
            ta, tb = getattr(la, role), getattr(lb, role)
            if (ta is None) != (tb is None):
                return False
            if ta is not None and not np.array_equal(ta, tb):
                return False
    for fa, fb in ((a.final_gamma, b.final_gamma), (a.final_beta, b.final_beta)):
        if (fa is None) != (fb is None):
            return False
        if fa is not None and not np.array_equal(fa, fb):
            return False
    return True


# ── config ───────────────────────────────────────────────────────────────


def test_config_validation():
    with pytest.raises(ModelError, match="n_heads x head_dim"):
        _config(d=16, heads=3)
    with pytest.raises(ModelError, match="positive"):
        _config(d=0)
    with pytest.raises(ModelError, match="epsilon"):
        _config(epsilon=0.0)
    with pytest.raises(ModelError, match="n_layers"):
        _config(layers=-1)
    assert _config(layers=0).n_layers == 0


def test_config_dict_round_trip():
    cfg = _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN)
    doc = cfg.to_dict()
    assert set(doc) == {
        "d_model", "n_heads", "head_dim", "mlp_hidden", "n_layers",
        "norm_kind", "residual_placement", "mlp_kind", "nonlinearity", "epsilon",
    }
    assert ModelConfig.from_dict(doc) == cfg
    with pytest.raises(ModelError, match="bad model config"):
        ModelConfig.from_dict({"d_model": 4})


def test_final_norm_follows_placement():
    assert not _config(placement=ResidualPlacement.POST_LN).has_final_norm
    assert _config(placement=ResidualPlacement.PRE_LN).has_final_norm


def test_norm_ids_and_layers():
    graph = generate_synthetic(_config(placement=ResidualPlacement.PRE_LN),
                               InitSpec(), seed=0)
    assert graph.norm_ids == [
        "layer0.norm1", "layer0.norm2", "layer1.norm1", "layer1.norm2", "final_norm",
    ]
    layers = {site.norm_id: site.layer for site in graph.norm_sites}
    assert layers["layer1.norm2"] == 1
    assert layers["final_norm"] == 2
    post = generate_synthetic(_config(), InitSpec(), seed=0)
    assert post.norm_ids == [
        "layer0.norm1", "layer0.norm2", "layer1.norm1", "layer1.norm2",
    ]
    assert post.final_gamma is None


# ── synthetic generation ─────────────────────────────────────────────────


def test_generate_is_deterministic():
    cfg = _config(d=64, layers=2, heads=2, mlp=128)
    init = InitSpec(std=0.02)
    first = generate_synthetic(cfg, init, seed=7)
    second = generate_synthetic(cfg, init, seed=7)
    assert _graphs_equal(first, second)
    assert first.fingerprint() == second.fingerprint()


def test_generate_depends_on_seed_and_init():
    cfg = _config()
    base = generate_synthetic(cfg, InitSpec(std=0.02), seed=7)
    assert base.fingerprint() != generate_synthetic(cfg, InitSpec(std=0.02),
                                                    seed=8).fingerprint()
    assert base.fingerprint() != generate_synthetic(cfg, InitSpec(std=0.03),
                                                    seed=7).fingerprint()


def test_zero_std_gives_sqrt_d_scales():
    graph = generate_synthetic(_config(d=16, layers=1), InitSpec(std=0.0), seed=1)
    assert np.array_equal(graph.layers[0].gamma1, np.ones(16))
    assert not graph.layers[0].e.any()
    table = compute_scale_table(graph)
    assert [entry.s for entry in table.entries.values()] == [4.0, 4.0]


def test_layer_norm_generation_carries_betas():
    graph = generate_synthetic(
        _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=3,
    )
    assert graph.layers[0].beta1 is not None
    assert graph.final_beta is not None
    rms = generate_synthetic(_config(), InitSpec(), seed=3)
    assert rms.layers[0].beta1 is None


def test_generate_refuses_draws_beyond_float32():
    # float32 tops out near 3.4e38: an inf weight is an error naming the
    # role and layer, not a checkpoint the loader would refuse later.
    cfg = _config(d=16, layers=2, placement=ResidualPlacement.PRE_LN)
    amplified = InitSpec(amplify={"e": 1e40}, amplify_layers=(1,))
    with pytest.raises(ModelError, match="'e' of layer 1 does not fit float32"):
        generate_synthetic(cfg, amplified, seed=0)
    with pytest.raises(ModelError, match="'gamma1' of layer 0 does not fit float32"):
        generate_synthetic(cfg, InitSpec(std=1e40), seed=0)
    bare = _config(d=16, layers=0, placement=ResidualPlacement.PRE_LN)
    with pytest.raises(ModelError, match="'final_gamma' does not fit float32"):
        generate_synthetic(bare, InitSpec(std=1e40), seed=0)
    large = generate_synthetic(cfg, InitSpec(amplify={"e": 1e37}), seed=0)
    assert validate(large) == []


def test_standard_mlp_generation_has_no_b():
    graph = generate_synthetic(_config(mlp_kind=MlpKind.STANDARD), InitSpec(), seed=3)
    assert graph.layers[0].b is None


def test_init_spec_validation():
    with pytest.raises(ModelError, match="std"):
        InitSpec(std=-0.1)
    with pytest.raises(ModelError, match="unknown amplify role"):
        InitSpec(amplify={"gamma1": 2.0})
    with pytest.raises(ModelError, match="positive"):
        InitSpec(amplify={"e": 0.0})
    spec = InitSpec(std=0.02, amplify={"e": 8.0}, amplify_layers=(0,))
    assert spec.factor("e", 0) == 8.0
    assert spec.factor("e", 1) == 1.0
    assert spec.factor("g", 0) == 1.0


def test_amplification_eight_overflows_unscaled_audit():
    # Pinned one-time oracle run: every one of the 32 seeded tokens
    # overflows the FP16 sum at the layer-0 post-MLP norm.
    cfg = _config(d=256, layers=1, heads=4, mlp=1024, mlp_kind=MlpKind.STANDARD)
    init = InitSpec(std=0.04, amplify={"e": 8.0, "g": 8.0}, amplify_layers=(0,))
    graph = generate_synthetic(cfg, init, seed=7)
    tokens = np.random.default_rng(3).standard_normal((32, 256))
    result = engine.forward(graph, tokens, engine.FP16_POLICY)
    counts = {n: int(a.overflowed.sum()) for n, a in result.audit.items()}
    assert sum(counts.values()) == 32
    assert {n for n, count in counts.items() if count} == {"layer0.norm2"}


def test_overflow_amplification_threshold_is_honest():
    # The config-reported threshold must itself trigger overflow; pinned
    # run: all 64 tokens overflow at layer0.norm2.
    cfg = _config(d=256, layers=4, heads=4, mlp=1024)
    threshold = overflow_amplification(cfg, std=0.02)
    assert 1.0 < threshold <= 32.0
    init = InitSpec(std=0.02, amplify={"e": threshold, "g": threshold})
    graph = generate_synthetic(cfg, init, seed=7)
    tokens = np.random.default_rng(1).standard_normal((64, 256))
    result = engine.forward(graph, tokens, engine.FP16_POLICY)
    counts = {n: int(a.overflowed.sum()) for n, a in result.audit.items()}
    assert sum(counts.values()) == 64
    assert {n for n, count in counts.items() if count} == {"layer0.norm2"}


def test_overflow_amplification_rejects_zero_std():
    with pytest.raises(ModelError, match="zero init std"):
        overflow_amplification(_config(), std=0.0)


# ── checkpoint IO ────────────────────────────────────────────────────────


def test_save_load_round_trip_f32(tmp_path):
    for cfg in (
        _config(),
        _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN,
                mlp_kind=MlpKind.STANDARD),
    ):
        graph = generate_synthetic(cfg, InitSpec(std=0.05), seed=11)
        path = tmp_path / "model.safetensors"
        save_safetensors(graph, str(path))
        loaded = load_safetensors(str(path), config=cfg)
        assert _graphs_equal(loaded, graph)
        assert loaded.fingerprint() == graph.fingerprint()


def test_load_infers_config_without_sidecar(tmp_path):
    cfg = _config(d=16, layers=2, mlp=32)
    graph = generate_synthetic(cfg, InitSpec(), seed=2)
    path = tmp_path / "m.safetensors"
    save_safetensors(graph, str(path))
    loaded = load_safetensors(str(path))
    inferred = loaded.config
    assert inferred.n_layers == 2
    assert inferred.d_model == 16
    assert inferred.mlp_hidden == 32
    assert inferred.norm_kind is NormKind.RMS_NORM
    assert inferred.residual_placement is ResidualPlacement.POST_LN
    assert inferred.mlp_kind is MlpKind.LLAMA_GATED
    assert inferred.n_heads == 1  # not recoverable from fused projections
    assert _graphs_equal(loaded, ModelGraph(config=inferred, layers=graph.layers))


def test_load_missing_tensor_names_it(tmp_path):
    cfg = _config(layers=1)
    graph = generate_synthetic(cfg, InitSpec(), seed=2)
    tensors = to_tensor_dict(graph)
    del tensors["model.layers.0.self_attn.q_proj.weight"]
    path = tmp_path / "missing.safetensors"
    save_tensors(str(path), tensors)
    with pytest.raises(ModelError, match="missing required tensor.*q_proj"):
        load_safetensors(str(path), config=cfg)


def test_load_rejects_tensors_the_config_has_no_place_for(tmp_path):
    cfg = _config(layers=1, norm_kind=NormKind.LAYER_NORM,
                  placement=ResidualPlacement.PRE_LN)
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(), seed=2), str(path))
    for other, pattern in (
        (dataclasses.replace(cfg, mlp_kind=MlpKind.STANDARD), "up_proj.*has no b"),
        (dataclasses.replace(cfg, norm_kind=NormKind.RMS_NORM),
         "input_layernorm.bias.*has no beta"),
        (dataclasses.replace(cfg, residual_placement=ResidualPlacement.POST_LN),
         "model.norm.weight.*must not have a final norm"),
    ):
        with pytest.raises(ModelError, match="unexpected tensor.*" + pattern):
            load_safetensors(str(path), config=other)


def test_load_shape_mismatch_names_tensor(tmp_path):
    cfg = _config(layers=1)
    graph = generate_synthetic(cfg, InitSpec(), seed=2)
    tensors = to_tensor_dict(graph)
    tensors["model.layers.0.self_attn.v_proj.weight"] = np.zeros((16, 8))
    path = tmp_path / "badshape.safetensors"
    save_tensors(str(path), tensors)
    with pytest.raises(ModelError,
                       match="bad tensor.*v_proj.*expected shape 16x16, got 16x8"):
        load_safetensors(str(path), config=cfg)


def test_load_rejects_non_finite_weights(tmp_path):
    cfg = _config(layers=1)
    tensors = to_tensor_dict(generate_synthetic(cfg, InitSpec(), seed=2))
    bad = tensors["model.layers.0.mlp.gate_proj.weight"].copy()
    bad[0, 0] = np.inf
    tensors["model.layers.0.mlp.gate_proj.weight"] = bad
    path = tmp_path / "naninf.safetensors"
    save_tensors(str(path), tensors)
    with pytest.raises(ModelError, match="gate_proj"):
        load_safetensors(str(path), config=cfg)


def test_saved_bytes_are_pinned(tmp_path):
    # SHA-256 of one seeded model in each storage dtype.  The amplified
    # gate projection overflows binary16, so the F16 file holds infinities.
    cfg = _config(d=24, layers=2, heads=3, mlp=40, norm_kind=NormKind.LAYER_NORM,
                  placement=ResidualPlacement.PRE_LN)
    graph = generate_synthetic(cfg, InitSpec(std=0.05, amplify={"e": 1e6}), seed=404)
    for dtype, digest in (
        ("F32", "5a00eb8a449d1d897365856100a29552587190f49145f43c29593e6a1b52be96"),
        ("F16", "11c9fc843d8ff95a18a42abe103a8f7d480433407f7bd0d5c7c454d79fc464df"),
        ("BF16", "2230d38c585b4130bc5c62f896ff35f1b921a9629e29d5b81fa2e117848ad4fa"),
    ):
        path = tmp_path / f"{dtype}.safetensors"
        save_safetensors(graph, str(path), dtype=dtype)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == digest, dtype


def _plain_cast_file(tensors: dict, dtype: str) -> bytes:
    """The safetensors bytes of tensors laid out as save_tensors lays
    them out, each cast to its storage dtype by one plain
    np.ascontiguousarray."""
    header, payloads, offset = {}, [], 0
    for name in sorted(tensors):
        with np.errstate(over="ignore"):
            if dtype == "BF16":
                bits = np.ascontiguousarray(tensors[name], dtype=np.float32)
                bits = bits.view(np.uint32)
                raw = ((bits + 0x7FFF + ((bits >> 16) & 1)) >> 16).astype("<u2")
            else:
                storage = {"F32": "<f4", "F16": "<f2"}[dtype]
                raw = np.ascontiguousarray(tensors[name], dtype=storage)
        header[name] = {"dtype": dtype, "shape": list(raw.shape),
                        "data_offsets": [offset, offset + raw.nbytes]}
        payloads.append(raw.tobytes())
        offset += raw.nbytes
    head = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return struct.pack("<Q", len(head)) + head + b"".join(payloads)


def test_saved_bytes_of_a_model_wider_than_a_cast_block(tmp_path):
    # d=160 and mlp=300 put every transposed role across the 128-column
    # edge of the blocked cast; the amplified gate projection overflows
    # binary16 in part.
    cfg = _config(d=160, layers=1, heads=4, mlp=300)
    graph = generate_synthetic(cfg, InitSpec(std=0.05, amplify={"e": 1e6}), seed=405)
    tensors = to_tensor_dict(graph)
    for dtype in ("F32", "F16", "BF16"):
        path = tmp_path / f"{dtype}.safetensors"
        save_safetensors(graph, str(path), dtype=dtype)
        assert path.read_bytes() == _plain_cast_file(tensors, dtype), dtype
    assert _graphs_equal(load_safetensors(str(tmp_path / "F32.safetensors"),
                                          config=cfg), graph)


def test_load_peak_memory_is_file_plus_float64_weights(tmp_path):
    # One read of the file plus one float64 copy per tensor; no
    # intermediate copies of the payload.
    cfg = _config(d=256, layers=2, heads=4, mlp=512)
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(), seed=3), str(path))
    tracemalloc.start()
    try:
        graph = load_safetensors(str(path), config=cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    weights = sum(getattr(layer, role).nbytes for layer in graph.layers
                  for role in ("gamma1", "gamma2", "w_q", "w_k", "w_v", "p",
                               "e", "b", "g"))
    assert peak <= 1.05 * (path.stat().st_size + weights)


def test_loaded_arrays_are_c_contiguous_float64(tmp_path):
    # Transposed roles are stored flipped; the loader hands out row-major
    # copies so every product and norm sees the same memory layout.
    cfg = _config(layers=1)
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(), seed=2), str(path))
    layer = load_safetensors(str(path), config=cfg).layers[0]
    for role in ("gamma1", "w_v", "e", "b", "g"):
        array = getattr(layer, role)
        assert array.dtype == np.float64 and array.flags.c_contiguous, role


def test_name_map_round_trip_and_default_names():
    nm = default_name_map()
    assert nm.tensor_name("w_v", 3) == "model.layers.3.self_attn.v_proj.weight"
    assert nm.tensor_name("final_gamma") == "model.norm.weight"
    assert NameMap.from_dict(nm.to_dict()) == nm
    with pytest.raises(ModelError, match="no entry"):
        nm.tensor_name("unknown_role", 0)
    with pytest.raises(ModelError, match="layer index"):
        nm.tensor_name("w_v")


def test_tensor_dict_applies_transpose():
    graph = generate_synthetic(_config(layers=1), InitSpec(), seed=4)
    tensors = to_tensor_dict(graph)
    e = graph.layers[0].e
    stored = tensors["model.layers.0.mlp.gate_proj.weight"]
    assert stored.shape == e.shape[::-1]
    assert np.array_equal(stored.T, e)


# ── validation ───────────────────────────────────────────────────────────


def test_validate_fresh_graph_is_clean():
    graph = generate_synthetic(_config(), InitSpec(), seed=5)
    assert validate(graph) == []


def test_validate_reports_nan_with_location():
    graph = generate_synthetic(_config(), InitSpec(), seed=5)
    graph.layers[0].e.flat[5] = math.nan
    problems = validate(graph)
    assert any("layer 0: e: non-finite entry at flat index 5" in p for p in problems)
    layer_norm = generate_synthetic(
        _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=5,
    )
    layer_norm.final_beta[3] = math.nan
    assert validate(layer_norm) == [
        "final norm beta: non-finite entry at flat index 3 (nan)"
    ]


def test_validate_reports_shape_violation():
    graph = generate_synthetic(_config(d=8, layers=1, heads=1, mlp=16),
                               InitSpec(), seed=5)
    bad_layer = dataclasses.replace(
        graph.layers[0], w_v=np.zeros((8, 4))
    )
    bad = ModelGraph(config=graph.config, layers=(bad_layer,))
    problems = validate(bad)
    assert any("layer 0: w_v: expected shape 8x8, got 8x4" in p for p in problems)
    layer_norm = generate_synthetic(
        _config(d=8, layers=1, heads=1, mlp=16, norm_kind=NormKind.LAYER_NORM,
                placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=5,
    )
    short_beta = dataclasses.replace(layer_norm, final_beta=np.zeros(7))
    assert validate(short_beta) == ["final norm beta: expected shape 8, got 7"]


def test_validate_reports_missing_and_misplaced_parts():
    graph = generate_synthetic(_config(d=8, layers=1, heads=1, mlp=16),
                               InitSpec(), seed=5)
    no_b = ModelGraph(
        config=graph.config,
        layers=(dataclasses.replace(graph.layers[0], b=None),),
    )
    assert any("layer 0: b: missing" in p for p in validate(no_b))
    stray_final = ModelGraph(
        config=graph.config,
        layers=graph.layers,
        final_gamma=np.ones(8),
    )
    assert any("must not have a final norm" in p for p in validate(stray_final))
    rms_pre = generate_synthetic(
        _config(d=8, layers=1, heads=1, mlp=16, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=5,
    )
    stray_beta = dataclasses.replace(rms_pre, final_beta=np.zeros(8))
    assert validate(stray_beta) == [
        "final norm beta: present but norm kind has no beta"
    ]


def test_config_sidecar_path():
    assert config_sidecar_path("m.safetensors") == "m.config.json"
    assert config_sidecar_path("dir/m.bin") == "dir/m.bin.config.json"


def test_fingerprint_tracks_weight_bytes():
    graph = generate_synthetic(_config(), InitSpec(), seed=5)
    before = graph.fingerprint()
    assert before == graph.fingerprint()
    graph.layers[0].g[0, 0] += 1.0
    assert graph.fingerprint() != before


def _copying_fingerprint(graph: ModelGraph) -> str:
    """The fingerprint's definition, hashing a bytes copy of each tensor."""
    digest = hashlib.sha256()
    tagged = [(f"{i}:{role}", getattr(layer, role))
              for i, layer in enumerate(graph.layers) for role in LAYER_ROLES]
    tagged += [("final:gamma", graph.final_gamma), ("final:beta", graph.final_beta)]
    for tag, array in tagged:
        if array is not None:
            dims = "x".join(str(n) for n in array.shape)
            digest.update(f"{tag}:{dims}".encode("utf-8") + b"\x00")
            digest.update(np.ascontiguousarray(array, dtype="<f8").tobytes())
    return digest.hexdigest()


def test_fingerprint_matches_the_copying_definition():
    cfg = _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN)
    graph = generate_synthetic(cfg, InitSpec(), seed=6)
    assert graph.fingerprint() == _copying_fingerprint(graph)
    # Fortran-ordered and float32 arrays hash as their float64 C-order
    # values; generated weights are float32-representable, so the
    # fingerprint does not move.
    layer = graph.layers[0]
    mixed = dataclasses.replace(
        layer,
        gamma1=layer.gamma1.astype(np.float32),
        w_q=np.asfortranarray(layer.w_q),
        e=layer.e.astype(np.float32),
        g=np.asfortranarray(layer.g, dtype=np.float32),
    )
    other = dataclasses.replace(graph, layers=(mixed,) + graph.layers[1:])
    assert other.fingerprint() == _copying_fingerprint(other)
    assert other.fingerprint() == graph.fingerprint()


def test_fingerprint_hashes_weights_in_place():
    # Each float64 matrix here is 0.5-1 MiB; hashing allocates none of it.
    cfg = _config(d=256, layers=1, heads=4, mlp=512)
    graph = generate_synthetic(cfg, InitSpec(), seed=7)
    tracemalloc.start()
    try:
        graph.fingerprint()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def _count_hashes(monkeypatch) -> list:
    """Count the tensors hashed from here on; returns the live counter."""
    calls = [0]
    real = model_mod._hash_tensor

    def counting(*args):
        calls[0] += 1
        real(*args)

    monkeypatch.setattr(model_mod, "_hash_tensor", counting)
    return calls


@pytest.mark.parametrize("cfg, dtype", [
    (_config(), "F32"),
    (_config(), "F16"),
    (_config(), "BF16"),
    # Betas, a standard MLP (no b) and a final norm: skipped None roles
    # and the final: tags.
    (_config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN,
             mlp_kind=MlpKind.STANDARD), "F32"),
])
def test_load_time_digest_is_the_copying_definition(tmp_path, monkeypatch, cfg, dtype):
    # The default name map stores every matrix transposed.
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(std=0.05), seed=8), str(path),
                     dtype=dtype)
    loaded = load_safetensors(str(path), config=cfg)
    calls = _count_hashes(monkeypatch)
    assert loaded.fingerprint() == _copying_fingerprint(loaded)
    assert calls[0] == 0


def test_loaded_weights_are_read_only_and_edits_rehash(tmp_path, monkeypatch):
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(_config(), InitSpec(), seed=9), str(path))
    loaded = load_safetensors(str(path), config=_config())
    before = loaded.fingerprint()
    with pytest.raises(ValueError, match="read-only"):
        loaded.layers[0].g[0, 0] += 1.0
    calls = _count_hashes(monkeypatch)
    for other in (dataclasses.replace(loaded, layers=loaded.layers),
                  copy.deepcopy(loaded)):
        hashed = calls[0]
        assert other.fingerprint() == before
        assert calls[0] > hashed
    loaded.layers[0].g.flags.writeable = True
    loaded.layers[0].g[0, 0] += 1.0
    assert loaded.fingerprint() != before
    assert loaded.fingerprint() == _copying_fingerprint(loaded)


def test_forward_with_a_table_does_not_rehash_a_loaded_graph(tmp_path, monkeypatch):
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(_config(), InitSpec(), seed=10), str(path))
    loaded = load_safetensors(str(path), config=_config())
    table = compute_scale_table(loaded)
    tokens = np.random.default_rng(1).standard_normal((4, 16))
    calls = _count_hashes(monkeypatch)
    for _ in range(2):
        engine.forward(loaded, tokens, engine.FP16_POLICY, scales=table)
    assert calls[0] == 0


def test_failed_load_joins_its_hash_thread(tmp_path):
    cfg = _config()
    tensors = to_tensor_dict(generate_synthetic(cfg, InitSpec(), seed=2))
    bad = tensors["model.layers.1.mlp.down_proj.weight"].copy()
    bad[3, 5] = np.nan
    tensors["model.layers.1.mlp.down_proj.weight"] = bad
    path = tmp_path / "nan.safetensors"
    save_tensors(str(path), tensors)
    threads = threading.active_count()
    with pytest.raises(ModelError, match="model.layers.1.mlp.down_proj.weight"):
        load_safetensors(str(path), config=cfg)
    assert threading.active_count() == threads


def test_hash_failure_fails_the_load(tmp_path, monkeypatch):
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(_config(), InitSpec(), seed=2), str(path))

    def broken(*args):
        raise RuntimeError("hash failed")

    monkeypatch.setattr(model_mod, "_hash_tensor", broken)
    threads = threading.active_count()
    graph = None
    with pytest.raises(RuntimeError, match="hash failed"):
        graph = load_safetensors(str(path), config=_config())
    assert graph is None
    assert threading.active_count() == threads
