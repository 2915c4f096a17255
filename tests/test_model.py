"""Tests for model config, synthetic weights, checkpoint IO, validation.

Oracles: exact byte and fingerprint comparison for determinism, the
scale-table closed forms for the zero-weight case, and pinned counts
from one-time audited forward runs for the overflow guarantees.
"""

from __future__ import annotations

import copy
import dataclasses
import gc
import hashlib
import itertools
import json
import math
import os
import re
import struct
import threading
import warnings

import numpy as np
import pytest

from checkpoints import load_safetensors, load_tensors
from memory_gates import gate_checkpoint, traced_peak
from model_validate import validate
from slanc import engine, serialization
from slanc.cli import main
from slanc import model as model_mod
from slanc.model import (
    LAYER_ROLES,
    InitSpec,
    MlpKind,
    ModelConfig,
    ModelError,
    ModelGraph,
    NameMap,
    NormKind,
    NormSite,
    Nonlinearity,
    ResidualPlacement,
    config_sidecar_path,
    default_name_map,
    generate_synthetic,
    open_safetensors,
    save_safetensors,
    to_tensor_dict,
)
from slanc.report import run_compare
from slanc.safetensors_io import SafetensorsError, read_header, save_tensors
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
    return (a.config == b.config and a.tensors.keys() == b.tensors.keys()
            and all(np.array_equal(array, b.tensors[slot])
                    for slot, array in a.tensors.items()))


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
    # A config document's sizes must be JSON integers and its epsilon a
    # JSON number: nothing is truncated, and neither bools nor strings
    # are coerced.
    doc = _config().to_dict()
    for name, value, what in [
        ("d_model", 16.9, "an integer"),
        ("n_layers", True, "an integer"),
        ("mlp_hidden", "32", "an integer"),
        ("n_heads", 2.0, "an integer"),
        ("epsilon", "1e-5", "a number"),
        ("epsilon", True, "a number"),
    ]:
        message = f"bad model config: {name} must be {what}, got {value!r}"
        with pytest.raises(ModelError, match=re.escape(message)):
            ModelConfig.from_dict({**doc, name: value})
    # A JSON integer beyond float range is a number, but no epsilon.
    with pytest.raises(ModelError, match=re.escape(
            "bad model config: epsilon must be a finite number, got a 401-digit integer")):
        ModelConfig.from_dict({**doc, "epsilon": 10**400})
    assert ModelConfig.from_dict({**doc, "epsilon": 1}).epsilon == 1.0


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
    assert ("final_gamma", None) not in post.tensors


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
    assert np.array_equal(graph.tensors["gamma1", 0], np.ones(16))
    assert not graph.tensors["e", 0].any()
    table = compute_scale_table(graph)
    assert [entry["s"] for entry in table["entries"]] == [4.0, 4.0]


def test_layer_norm_generation_carries_betas():
    graph = generate_synthetic(
        _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=3,
    )
    assert ("beta1", 0) in graph.tensors
    assert ("final_beta", None) in graph.tensors
    rms = generate_synthetic(_config(), InitSpec(), seed=3)
    assert ("beta1", 0) not in rms.tensors


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
    assert ("b", 0) not in graph.tensors


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


# ── checkpoint IO ────────────────────────────────────────────────────────


def test_save_load_round_trip_f32(tmp_path):
    # Every norm kind x placement x MLP kind: generation, save, load and
    # the fingerprint walk the same slots.
    for norm_kind, placement, mlp_kind in itertools.product(
        NormKind, ResidualPlacement, MlpKind
    ):
        cfg = _config(norm_kind=norm_kind, placement=placement, mlp_kind=mlp_kind)
        graph = generate_synthetic(cfg, InitSpec(std=0.05), seed=11)
        path = tmp_path / "model.safetensors"
        save_safetensors(graph, str(path))
        loaded = load_safetensors(str(path), config=cfg)
        assert _graphs_equal(loaded, graph), cfg
        assert loaded.fingerprint() == graph.fingerprint(), cfg
        assert validate(loaded) == [], cfg


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
    assert _graphs_equal(loaded, ModelGraph(inferred, graph.tensors))


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


# Stored as blocks.{i}.<role>, with only some matrices transposed.
_BLOCKS_MAP = NameMap(
    layer_template="blocks.{i}",
    roles={role: role for role in LAYER_ROLES},
    transpose=frozenset(["w_v", "e", "g"]),
)


@pytest.mark.parametrize("name_map", [None, _BLOCKS_MAP],
                         ids=["default-map", "blocks-map"])
def test_load_peak_memory_is_held_weights_plus_one_payload(tmp_path, monkeypatch,
                                                           name_map):
    # The float32 matrices and float64 vectors and one staging buffer of
    # a fixed size, here an eighth of the largest stored payload: the
    # file and no payload is ever held whole, no tensor is copied twice
    # on its way from the file to its held array, and the fingerprint
    # hashes the held arrays in place.
    monkeypatch.setattr(model_mod, "_STAGING_BYTES", 64 << 10)
    cfg = _config(d=256, layers=2, heads=4, mlp=512)
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(), seed=3), str(path),
                     name_map=name_map)
    with open(path, "rb") as handle:
        entries = read_header(handle).values()
    largest, staging = max(entry.nbytes for entry in entries), model_mod._staging_bytes(entries)
    peak = traced_peak(lambda: load_safetensors(str(path), name_map=name_map, config=cfg))
    graph = load_safetensors(str(path), name_map=name_map, config=cfg)
    weights = sum(array.nbytes for array in graph.tensors.values())
    assert staging == largest / 8
    assert peak <= 1.05 * (weights + staging)


_GATE = "model.layers.0.mlp.gate_proj.weight"


@pytest.mark.parametrize("damage, message", [
    ("bad shape", "bad tensor .*gate_proj.*expected shape 32x16, got 3x3"),
    ("non-finite entry", "bad tensor .*gate_proj.*non-finite entry at flat index 5"),
    ("truncated payload", "outside data section .*gate_proj"),
    ("missing tensor", "missing required tensor .*gate_proj"),
], ids=["bad-shape", "non-finite", "truncated", "missing"])
def test_failing_load_closes_the_file(tmp_path, damage, message):
    cfg = _config(layers=1)
    tensors = to_tensor_dict(generate_synthetic(cfg, InitSpec(), seed=2))
    if damage == "bad shape":
        tensors[_GATE] = np.zeros((3, 3))
    elif damage == "non-finite entry":
        tensors[_GATE] = tensors[_GATE].copy()
        tensors[_GATE].flat[5] = np.nan
    elif damage == "missing tensor":
        del tensors[_GATE]
    path = tmp_path / "m.safetensors"
    save_tensors(str(path), tensors)
    if damage == "truncated payload":  # the header stays intact
        with open(path, "rb") as handle:
            entry = read_header(handle)[_GATE]
        os.truncate(path, entry.offset + entry.nbytes // 2)
    # A file object collected while still open warns; no load may leave one.
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with pytest.raises((ModelError, SafetensorsError), match=message):
            load_safetensors(str(path), config=cfg)
        gc.collect()
    assert [w.message for w in caught if w.category is ResourceWarning] == []


def test_loaded_arrays_are_c_contiguous_float32_matrices_float64_vectors(tmp_path):
    # Transposed roles are stored flipped; the loader hands out row-major
    # copies so every product and norm sees the same memory layout.  A
    # matrix is held as float32, which every storage dtype widens to
    # exactly; gains and shifts are float64.
    cfg = _config(layers=1, norm_kind=NormKind.LAYER_NORM,
                  placement=ResidualPlacement.PRE_LN)
    graph = generate_synthetic(cfg, InitSpec(), seed=2)
    path = tmp_path / "m.safetensors"
    save_safetensors(graph, str(path))
    for held in (graph, load_safetensors(str(path), config=cfg)):
        for (role, _), array in held.tensors.items():
            wanted = np.float32 if role in model_mod.MATRIX_ROLES else np.float64
            assert array.dtype == wanted and array.flags.c_contiguous, role


@pytest.mark.parametrize("name_map", [NameMap("blocks.{i}", _BLOCKS_MAP.roles,
                                              frozenset()), _BLOCKS_MAP],
                         ids=["untransposed", "blocks-map"])
def test_loaded_arrays_share_no_memory(tmp_path, monkeypatch, name_map):
    # An F32 matrix stored untransposed is read in place into the staging
    # buffer; the next read would overwrite it if the loader kept that view.
    cfg = _config()
    graph = generate_synthetic(cfg, InitSpec(std=0.05), seed=12)
    path = tmp_path / "m.safetensors"
    save_safetensors(graph, str(path), name_map=name_map, dtype="F32")
    buffers = []
    real = model_mod.safetensors_io.read_tensor

    def recording(handle, entry, buffer, rows=None):
        buffers.append(buffer)
        return real(handle, entry, buffer, rows)

    monkeypatch.setattr(model_mod.safetensors_io, "read_tensor", recording)
    loaded = load_safetensors(str(path), name_map=name_map, config=cfg)
    (staging,) = {id(buffer): buffer for buffer in buffers}.values()
    arrays = list(loaded.tensors.values())
    for i, array in enumerate(arrays):
        assert not np.shares_memory(array, staging), i
        for other in arrays[i + 1:]:
            assert not np.shares_memory(array, other), i
    assert _graphs_equal(loaded, graph)
    assert loaded.fingerprint() == _copying_fingerprint(loaded) == graph.fingerprint()


def test_name_map_round_trip_and_default_names():
    nm = default_name_map()
    assert nm.tensor_name("w_v", 3) == "model.layers.3.self_attn.v_proj.weight"
    assert nm.tensor_name("final_gamma") == "model.norm.weight"
    assert NameMap.from_dict(nm.to_dict()) == nm
    for template in ("layers.{j}", "layers.{}", "layers.{", "layers.{i[0]}", "layers.{i.x}"):
        with pytest.raises(ModelError, match="does not format with i=0"):
            NameMap.from_dict({**nm.to_dict(), "layer_template": template})
    with pytest.raises(ModelError, match="bad name map"):
        NameMap.from_dict({**nm.to_dict(), "roles": "ab"})
    with pytest.raises(ModelError, match="no entry"):
        nm.tensor_name("unknown_role", 0)
    with pytest.raises(ModelError, match="layer index"):
        nm.tensor_name("w_v")


def test_tensor_dict_applies_transpose():
    graph = generate_synthetic(_config(layers=1), InitSpec(), seed=4)
    tensors = to_tensor_dict(graph)
    e = graph.tensors["e", 0]
    stored = tensors["model.layers.0.mlp.gate_proj.weight"]
    assert stored.shape == e.shape[::-1]
    assert np.array_equal(stored.T, e)


def test_saving_refuses_two_slots_naming_one_tensor(tmp_path):
    # A final-norm name equal to a resolved per-layer one: saving must not
    # store one of the two tensors under the other's name.
    graph = generate_synthetic(_config(placement=ResidualPlacement.PRE_LN),
                               InitSpec(), seed=4)
    doc = default_name_map().to_dict()
    doc["roles"]["final_gamma"] = "model.layers.0.input_layernorm.weight"
    nm = NameMap.from_dict(doc)
    message = ("bad name map: roles 'gamma1' of layer 0 and 'final_gamma' both "
               "name tensor 'model.layers.0.input_layernorm.weight'")
    with pytest.raises(ModelError, match=re.escape(message)):
        to_tensor_dict(graph, nm)
    path = tmp_path / "m.safetensors"
    with pytest.raises(ModelError, match=re.escape(message)):
        save_safetensors(graph, str(path), name_map=nm)
    assert not path.exists()


# ── validation ───────────────────────────────────────────────────────────


def test_validate_fresh_graph_is_clean():
    graph = generate_synthetic(_config(), InitSpec(), seed=5)
    assert validate(graph) == []


def test_validate_reports_nan_with_location():
    graph = generate_synthetic(_config(), InitSpec(), seed=5)
    graph.tensors["e", 0].flat[5] = math.nan
    problems = validate(graph)
    assert any("layer 0: e: non-finite entry at flat index 5" in p for p in problems)
    layer_norm = generate_synthetic(
        _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=5,
    )
    layer_norm.tensors["final_beta", None][3] = math.nan
    assert validate(layer_norm) == [
        "final norm beta: non-finite entry at flat index 3 (nan)"
    ]


def test_validate_reports_shape_violation():
    graph = generate_synthetic(_config(d=8, layers=1, heads=1, mlp=16),
                               InitSpec(), seed=5)
    bad = ModelGraph(graph.config, {**graph.tensors, ("w_v", 0): np.zeros((8, 4))})
    problems = validate(bad)
    assert any("layer 0: w_v: expected shape 8x8, got 8x4" in p for p in problems)
    layer_norm = generate_synthetic(
        _config(d=8, layers=1, heads=1, mlp=16, norm_kind=NormKind.LAYER_NORM,
                placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=5,
    )
    short_beta = ModelGraph(layer_norm.config,
                            {**layer_norm.tensors, ("final_beta", None): np.zeros(7)})
    assert validate(short_beta) == ["final norm beta: expected shape 8, got 7"]


def test_validate_reports_missing_and_misplaced_parts():
    graph = generate_synthetic(_config(d=8, layers=1, heads=1, mlp=16),
                               InitSpec(), seed=5)
    no_b = ModelGraph(graph.config, dict(graph.tensors))
    del no_b.tensors["b", 0]
    assert any("layer 0: b: missing" in p for p in validate(no_b))
    stray_final = ModelGraph(graph.config,
                             {**graph.tensors, ("final_gamma", None): np.ones(8)})
    assert any("must not have a final norm" in p for p in validate(stray_final))
    rms_pre = generate_synthetic(
        _config(d=8, layers=1, heads=1, mlp=16, placement=ResidualPlacement.PRE_LN),
        InitSpec(), seed=5,
    )
    stray_beta = ModelGraph(rms_pre.config,
                            {**rms_pre.tensors, ("final_beta", None): np.zeros(8)})
    assert validate(stray_beta) == [
        "final norm beta: present but norm kind has no beta"
    ]
    two = generate_synthetic(_config(d=8, layers=2, heads=1, mlp=16), InitSpec(), seed=5)
    past_the_last = ModelGraph(two.config, {**two.tensors, ("w_q", 2): np.zeros((8, 8))})
    assert validate(past_the_last) == ["tensor ('w_q', 2): not a slot of a 2-layer model"]


def test_config_sidecar_path():
    assert config_sidecar_path("m.safetensors") == "m.config.json"
    assert config_sidecar_path("dir/m.bin") == "dir/m.bin.config.json"


def test_fingerprint_tracks_weight_bytes():
    graph = generate_synthetic(_config(), InitSpec(), seed=5)
    before = graph.fingerprint()
    assert before == graph.fingerprint()
    graph.tensors["g", 0][0, 0] += 1.0
    assert graph.fingerprint() != before


def test_slot_order_not_insertion_order_defines_the_walk():
    # The graph's walks follow the config's slots, so a tensor map filled
    # in reverse slot order hashes, scales, orders its norms and names
    # its saved tensors as the slot-ordered one does.
    cfg = _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN)
    graph = generate_synthetic(cfg, InitSpec(), seed=5)
    backwards = ModelGraph(cfg, dict(reversed(graph.tensors.items())))
    assert list(backwards.tensors) == list(reversed(list(graph.tensors)))
    assert backwards.fingerprint() == graph.fingerprint()
    assert compute_scale_table(backwards) == compute_scale_table(graph)
    norm_ids = [[step.norm_id for step in g.execution_order() if isinstance(step, NormSite)]
                for g in (backwards, graph)]
    assert norm_ids[0] == norm_ids[1] == graph.norm_ids
    assert list(to_tensor_dict(backwards)) == list(to_tensor_dict(graph))


def _copying_fingerprint(graph: ModelGraph) -> str:
    """The fingerprint's definition, hashing a bytes copy of each tensor
    in its held dtype: float32 matrices, float64 gains and shifts."""
    digest = hashlib.sha256()
    tagged = [(f"{i}:{role}", role, i)
              for i in range(graph.config.n_layers) for role in LAYER_ROLES]
    tagged += [("final:gamma", "final_gamma", None), ("final:beta", "final_beta", None)]
    for tag, role, layer in tagged:
        array = graph.tensors.get((role, layer))
        if array is not None:
            dtype = np.dtype("<f4" if role in model_mod.MATRIX_ROLES else "<f8")
            dims = "x".join(str(n) for n in array.shape)
            digest.update(f"{tag}:{dims}:{dtype.name}".encode("utf-8") + b"\x00")
            digest.update(np.ascontiguousarray(array, dtype=dtype).tobytes())
    return digest.hexdigest()


def test_fingerprint_matches_the_copying_definition():
    cfg = _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN)
    graph = generate_synthetic(cfg, InitSpec(), seed=6)
    assert graph.fingerprint() == _copying_fingerprint(graph)
    # Fortran-ordered arrays and arrays in another dtype hash as their
    # values in the held dtype and C order; the conversions are exact
    # here, so the fingerprint does not move.
    held = graph.tensors
    other = ModelGraph(graph.config, {
        **held,
        ("gamma1", 0): held["gamma1", 0].astype(np.float32),
        ("w_q", 0): np.asfortranarray(held["w_q", 0]),
        ("e", 0): held["e", 0].astype(np.float64),
        ("g", 0): np.asfortranarray(held["g", 0], dtype=np.float64),
    })
    assert other.fingerprint() == _copying_fingerprint(other)
    assert other.fingerprint() == graph.fingerprint()


@pytest.mark.parametrize("value", [1 + 2.0**-40, 1e39],
                         ids=["rounds-to-1", "overflows-to-inf"])
def test_fingerprint_refuses_a_value_its_held_dtype_cannot_hold(value):
    # Hashing the converted value would give this graph the fingerprint
    # of other weights.
    cfg = _config(norm_kind=NormKind.LAYER_NORM)
    graph = generate_synthetic(cfg, InitSpec(), seed=6)
    e = graph.tensors["e", 0].astype(np.float64)
    e[1, 2] = value
    rounded = ModelGraph(graph.config, {**graph.tensors, ("e", 0): e})
    with pytest.raises(ModelError, match="'0:e'.*float32"):
        rounded.fingerprint()
    e[1, 2] = 1.0
    assert rounded.fingerprint() == _copying_fingerprint(rounded)


def test_fingerprint_hashes_weights_in_place():
    # Each matrix here is 0.25-0.5 MiB as float32; hashing reads the held
    # arrays in place and allocates none of them.
    cfg = _config(d=256, layers=1, heads=4, mlp=512)
    graph = generate_synthetic(cfg, InitSpec(), seed=7)
    assert traced_peak(graph.fingerprint) < 64 * 1024


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
    # The default name map stores every matrix transposed.  The stream
    # hashes each tensor once, as its walk reads it.
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(std=0.05), seed=8), str(path),
                     dtype=dtype)
    calls = _count_hashes(monkeypatch)
    with open_safetensors(str(path), config=cfg) as stream:
        for _ in stream.execution_order():
            pass
        fingerprint = stream.fingerprint()
    assert calls[0] == len(load_tensors(str(path)))
    assert fingerprint == _copying_fingerprint(load_safetensors(str(path), config=cfg))


def _widened(graph: ModelGraph) -> ModelGraph:
    """graph with every matrix widened to float64."""
    return ModelGraph(graph.config, {
        (role, i): array.astype(np.float64) if role in model_mod.MATRIX_ROLES else array
        for (role, i), array in graph.tensors.items()})


def _forward_bits(graph: ModelGraph, tokens, policy, table) -> list:
    """The bytes of a forward pass's output and of every field of its audit."""
    result = engine.forward(graph, tokens, policy, scales=table)
    bits = [result.output.tobytes()]
    for audit in result.audit.values():
        bits += [audit.norm_id, audit.scale_applied]
        bits += [array.tobytes() for array in (audit.raw_sums, audit.fp16_sums,
                                                audit.overflowed, audit.underflowed)]
    return bits


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
@pytest.mark.parametrize("cfg", [
    _config(),
    _config(norm_kind=NormKind.LAYER_NORM, placement=ResidualPlacement.PRE_LN,
            mlp_kind=MlpKind.STANDARD),
], ids=["rms-postln-gated", "layernorm-preln-standard"])
def test_float32_matrices_give_the_bits_of_float64_ones(tmp_path, cfg, dtype):
    # Every float32 matrix is widened inside the products that use it, so
    # the table, the forward outputs and the audits are those of the same
    # weights held as float64.
    path = tmp_path / "m.safetensors"
    init = InitSpec(std=0.05, amplify={"e": 30.0, "w_v": 4.0})
    save_safetensors(generate_synthetic(cfg, init, seed=13), str(path), dtype=dtype)
    held = load_safetensors(str(path), config=cfg)
    wide = _widened(held)
    assert held.tensors["e", 0].dtype == np.float32
    assert wide.tensors["e", 0].dtype == np.float64
    table = compute_scale_table(held)
    assert table == compute_scale_table(wide)
    tokens = np.random.default_rng(14).standard_normal((8, cfg.d_model)) * 40.0
    for policy in (engine.REFERENCE_POLICY, engine.FP16_POLICY):
        for scales in (None, table):
            assert (_forward_bits(held, tokens, policy, scales)
                    == _forward_bits(wide, tokens, policy, scales)), (policy, scales)


def test_loaded_weights_are_read_only_and_edits_rehash(tmp_path, monkeypatch):
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(_config(), InitSpec(), seed=9), str(path))
    loaded = load_safetensors(str(path), config=_config())
    before = loaded.fingerprint()
    with pytest.raises(ValueError, match="read-only"):
        loaded.tensors["g", 0][0, 0] += 1.0
    calls = _count_hashes(monkeypatch)
    for other in (ModelGraph(loaded.config, dict(loaded.tensors)),
                  copy.deepcopy(loaded)):
        hashed = calls[0]
        assert other.fingerprint() == before
        assert calls[0] > hashed
    loaded.tensors["g", 0].flags.writeable = True
    loaded.tensors["g", 0][0, 0] += 1.0
    assert loaded.fingerprint() != before
    assert loaded.fingerprint() == _copying_fingerprint(loaded)


def test_failed_load_leaves_no_thread_behind(tmp_path):
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


# ── the streamed walk ────────────────────────────────────────────────────


def _streamed_table(path, name_map=None, config=None) -> tuple[dict, str]:
    with open_safetensors(str(path), name_map, config) as stream:
        table = compute_scale_table(stream)
        return table, stream.fingerprint()


@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
@pytest.mark.parametrize("norm_kind, placement, mlp_kind",
                         list(itertools.product(NormKind, ResidualPlacement, MlpKind)),
                         ids=lambda kind: kind.value)
def test_streamed_table_is_the_loaded_graphs(tmp_path, norm_kind, placement,
                                             mlp_kind, dtype):
    # The one reader serves both: walked once, or collected into a graph.
    cfg = _config(norm_kind=norm_kind, placement=placement, mlp_kind=mlp_kind)
    init = InitSpec(std=0.05, amplify={"e": 8.0, "w_v": 4.0})
    graph = generate_synthetic(cfg, init, seed=17)
    has_final = placement is ResidualPlacement.PRE_LN
    for name_map in [None] + ([] if has_final else [_BLOCKS_MAP]):
        path = tmp_path / "m.safetensors"
        save_safetensors(graph, str(path), name_map=name_map, dtype=dtype)
        loaded = load_safetensors(str(path), name_map=name_map, config=cfg)
        table, fingerprint = _streamed_table(path, name_map, cfg)
        assert (serialization.dumps(table)
                == serialization.dumps(compute_scale_table(loaded))), name_map
        assert fingerprint == loaded.fingerprint() == _copying_fingerprint(loaded)


def test_streamed_walk_runs_once_and_is_fingerprinted_after(tmp_path):
    cfg = _config(placement=ResidualPlacement.PRE_LN)
    graph = generate_synthetic(cfg, InitSpec(), seed=4)
    path = tmp_path / "m.safetensors"
    save_safetensors(graph, str(path))
    with open_safetensors(str(path), config=cfg) as stream:
        assert stream.config == cfg
        with pytest.raises(RuntimeError, match="known only once its walk is done"):
            stream.fingerprint()
        steps = stream.execution_order()
        first = next(steps)
        with pytest.raises(RuntimeError, match="known only once its walk is done"):
            stream.fingerprint()
        rest = list(steps)
        with pytest.raises(RuntimeError, match="walked only once"):
            next(stream.execution_order())
        assert stream.fingerprint() == graph.fingerprint()
    walked, expected = [first, *rest], list(graph.execution_order())
    assert [type(step) for step in walked] == [type(step) for step in expected]
    for got, want in zip(walked, expected):
        if isinstance(want, NormSite):
            assert (got.norm_id, got.layer) == (want.norm_id, want.layer)
            assert np.array_equal(got.gamma, want.gamma)
        else:
            assert got.mlp == want.mlp
            assert got.weights.keys() == want.weights.keys()
            for role, wanted in want.weights.items():
                assert (got.weights[role] is None if wanted is None
                        else np.array_equal(got.weights[role], wanted)), role


def _gate_config(placement: ResidualPlacement) -> ModelConfig:
    return _config(d=256, layers=8, heads=4, mlp=512, placement=placement)


def test_streamed_scales_hold_one_layer_post_ln_two_pre_ln(tmp_path, small_tiles):
    # Memory gate: `slanc scales` holds the staging buffer, the float64
    # temporaries of the formulas and one sublayer's matrices, in both
    # placements: pre-LN's norm1, fed by the previous layer's MLP, comes
    # before the layer's attention is read.  The temporaries and the
    # entries are measured over the first layer repeated, which holds
    # one layer.  Holding a whole layer fits in neither placement, nor
    # does collecting the whole graph first.  Small tiles keep the
    # temporaries below a sublayer, so one held too long shows.
    for placement in ResidualPlacement:
        directory = tmp_path / placement.value
        directory.mkdir()
        gate = gate_checkpoint(directory, _gate_config(placement))
        bound = (gate.sublayer + gate.staging
                 + traced_peak(lambda: compute_scale_table(gate.repeated)))
        streamed = traced_peak(
            lambda: main(["scales", str(gate.path), "-o", str(directory / "t.json")]))
        whole = traced_peak(
            lambda: compute_scale_table(load_safetensors(str(gate.path))))
        assert streamed <= 1.05 * bound, (placement, streamed, bound)
        assert whole > 1.05 * bound, (placement, whole, bound)


def test_streamed_scales_hold_two_mlp_matrices_not_three(tmp_path, small_tiles):
    # Memory gate: a gated MLP's formula needs E only for ||Gamma E||, so
    # `slanc scales` takes that spectral norm once E is read and drops E
    # before it reads B and G.  In both placements it holds the larger of
    # attention's four matrices and B + G, the staging buffer and the
    # formula temporaries (measured as in the gate above).  Holding E
    # with B and G does not fit.
    for placement in ResidualPlacement:
        directory = tmp_path / placement.value
        directory.mkdir()
        gate = gate_checkpoint(directory, _gate_config(placement))
        bound = (gate.group + gate.staging
                 + traced_peak(lambda: compute_scale_table(gate.repeated)))
        streamed = traced_peak(
            lambda: main(["scales", str(gate.path), "-o", str(directory / "t.json")]))
        assert gate.group < gate.sublayer
        assert streamed <= 1.05 * bound, (placement, streamed, bound)


def test_streamed_audit_and_compare_hold_one_layer_not_the_graph(tmp_path, small_tiles):
    # The gate for `audit` and `compare`, in both placements: one
    # sublayer's matrices, the staging buffer, and the temporaries and
    # kept audits of their passes (compare's three over the first layer
    # repeated bound audit's one).  A step's weights are dropped before
    # the walk reads the next sublayer's.
    for placement in ResidualPlacement:
        directory = tmp_path / placement.value
        directory.mkdir()
        gate = gate_checkpoint(directory, _gate_config(placement))
        table_path = directory / "t.json"
        assert main(["scales", str(gate.path), "-o", str(table_path)]) == 0
        tokens = np.random.default_rng(6).standard_normal((16, gate.repeated.config.d_model))
        np.save(directory / "x.npy", tokens)
        repeated_table = compute_scale_table(gate.repeated)
        bound = (gate.sublayer + gate.staging
                 + traced_peak(lambda: run_compare(gate.repeated, tokens, repeated_table)))
        inputs = ["--scales", str(table_path), "--inputs", str(directory / "x.npy")]
        for argv in (["audit", str(gate.path), *inputs, "-o", str(directory / "r.json")],
                     ["compare", str(gate.path), *inputs]):
            streamed = traced_peak(lambda: main(argv))
            assert streamed <= 1.05 * bound, (placement, argv[0], streamed, bound)
        table = json.loads(table_path.read_text())
        whole = traced_peak(lambda: engine.forward(load_safetensors(str(gate.path)), tokens,
                                                   engine.FP16_POLICY, scales=table))
        assert whole > 1.05 * bound, (placement, whole, bound)


def test_audit_and_compare_hash_each_tensor_once(tmp_path, monkeypatch):
    # A command hashes only when it checks a table: a plain audit never
    # reads the fingerprint.
    path, table = tmp_path / "m.safetensors", tmp_path / "t.json"
    assert main(["gen-model", "--d", "16", "--layers", "2", "--heads", "2",
                 "--placement", "pre-ln", "-o", str(path)]) == 0
    assert main(["scales", str(path), "-o", str(table)]) == 0
    tensors = len(load_tensors(str(path)))
    calls = _count_hashes(monkeypatch)
    tokens = ["--tokens", "4"]
    for argv, hashes in (
            (["audit", str(path), *tokens, "-o", str(tmp_path / "r.json")], 0),
            (["audit", str(path), "--scales", str(table), *tokens,
              "-o", str(tmp_path / "r.json")], tensors),
            (["compare", str(path), "--scales", str(table), *tokens], tensors)):
        hashed = calls[0]
        assert main(argv) == 0
        assert calls[0] - hashed == hashes, argv


def test_a_stream_opened_without_a_fingerprint_hashes_nothing(tmp_path, monkeypatch):
    cfg = _config()
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(), seed=4), str(path))
    calls = _count_hashes(monkeypatch)
    with open_safetensors(str(path), config=cfg, fingerprint=False) as stream:
        assert len(list(stream.execution_order())) == 2 * 5  # with each MLP in two
        with pytest.raises(RuntimeError, match="without a fingerprint"):
            stream.fingerprint()
    assert calls[0] == 0


def test_each_tensor_is_hashed_before_the_next_is_read(tmp_path, monkeypatch):
    # The walk hashes each tensor as it reads it, in slot order: no
    # tensor is read while one before it waits for its hash.
    cfg = _config(layers=4)
    graph = generate_synthetic(cfg, InitSpec(), seed=4)
    path = tmp_path / "m.safetensors"
    save_safetensors(graph, str(path))
    nm = default_name_map()
    events = []  # ("read" | "hashed", tensor name), in the order they happened
    real_hash, real_read = model_mod._hash_tensor, model_mod.safetensors_io.read_tensor

    def hashing(digest, role, layer, array):
        real_hash(digest, role, layer, array)
        events.append(("hashed", nm.tensor_name(role, layer)))

    def reading(handle, entry, buffer, rows=None):
        events.append(("read", entry.name))
        return real_read(handle, entry, buffer, rows)

    names, fingerprint = list(to_tensor_dict(graph)), graph.fingerprint()
    monkeypatch.setattr(model_mod, "_hash_tensor", hashing)
    monkeypatch.setattr(model_mod.safetensors_io, "read_tensor", reading)
    with open_safetensors(str(path), config=cfg) as stream:
        compute_scale_table(stream)
        assert stream.fingerprint() == fingerprint
    assert len(names) == 4 * 9
    assert events == [(kind, name) for name in names for kind in ("read", "hashed")]


def test_a_config_with_fewer_layers_than_the_checkpoint_is_refused(tmp_path, monkeypatch,
                                                                   capsys):
    # A config that stops short of the checkpoint's layers would scale
    # and fingerprint a truncated model.  The plan refuses it, naming the
    # first tensor of the layer the config does not have, before any
    # payload is read.  Names outside the template are still ignored.
    cfg = _config(layers=3)
    tensors = to_tensor_dict(generate_synthetic(cfg, InitSpec(), seed=5))
    tensors["model.embed_tokens.weight"] = np.ones((8, cfg.d_model))
    tensors["lm_head.weight"] = np.ones((8, cfg.d_model))
    path = tmp_path / "m.safetensors"
    save_tensors(str(path), tensors)
    assert load_safetensors(str(path), config=cfg).config.n_layers == 3
    assert load_safetensors(str(path)).config.n_layers == 3
    read = []
    real_read = model_mod.safetensors_io.read_tensor
    monkeypatch.setattr(model_mod.safetensors_io, "read_tensor",
                        lambda *args: read.append(args) or real_read(*args))
    for layers in (1, 2):
        short = dataclasses.replace(cfg, n_layers=layers)
        with pytest.raises(ModelError, match=re.escape(
                f"unexpected tensor 'model.layers.{layers}.input_layernorm.weight': "
                f"the config's n_layers is {layers}")):
            load_safetensors(str(path), config=short)
    assert read == []
    config = tmp_path / "c.json"
    config.write_text(json.dumps(dataclasses.replace(cfg, n_layers=1).to_dict()))
    table = tmp_path / "t.json"
    assert main(["scales", str(path), "--config", str(config), "-o", str(table)]) == 1
    assert capsys.readouterr().err == (
        "slanc: error: unexpected tensor 'model.layers.1.input_layernorm.weight': "
        "the config's n_layers is 1\n")
    assert not table.exists()


@pytest.mark.parametrize("shape, transpose", [((), model_mod.MATRIX_ROLES), ((32,), ())],
                         ids=["0-d", "1-d-untransposed"])
def test_inferring_a_config_refuses_a_gate_that_is_not_a_matrix(tmp_path, shape,
                                                                 transpose):
    # Without a config the MLP width comes from the gate's shape; a gate
    # that is not 2-D is refused by name instead of ending in IndexError.
    nm = NameMap(default_name_map().layer_template, default_name_map().roles,
                 frozenset(transpose))
    tensors = to_tensor_dict(generate_synthetic(_config(layers=1), InitSpec(), seed=2),
                             nm)
    tensors[_GATE] = np.zeros(shape)
    path = tmp_path / "m.safetensors"
    save_tensors(str(path), tensors)
    with pytest.raises(ModelError, match=re.escape(
            f"bad tensor {_GATE!r}: expected a matrix, got shape {list(shape)}")):
        load_safetensors(str(path), name_map=nm)


def test_a_template_without_i_names_one_layer(tmp_path):
    # Counting layers stops at a name seen before instead of looping.
    cfg = _config(layers=1)
    blocks = NameMap("blocks", _BLOCKS_MAP.roles, frozenset())
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(cfg, InitSpec(), seed=6), str(path),
                     name_map=blocks)
    assert load_safetensors(str(path), name_map=blocks).config.n_layers == 1
    with pytest.raises(ModelError, match="bad name map: roles 'gamma1' of layer 0 and "
                                         "'gamma1' of layer 1 both name tensor "
                                         "'blocks.gamma1'"):
        load_safetensors(str(path), name_map=blocks,
                         config=dataclasses.replace(cfg, n_layers=2))
