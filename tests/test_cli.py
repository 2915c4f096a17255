"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and stdout
are observable without subprocesses; only the checks that need a fresh
interpreter (clean stderr, what `import slanc.cli` loads) start one.
The amplified model fixture pins counts from a one-time run: with e and
g amplified 8x on layer 0 the MLP sums of squares pass binary16's max
finite value for every token.
"""

from __future__ import annotations

import gc
import json
import math
import os
import shutil
import struct
import subprocess
import sys
import threading
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest

from checkpoints import load_safetensors, load_tensors
import slanc
from slanc import cli, engine
from slanc import model as model_mod
from slanc import serialization
from slanc.cli import main
from slanc.model import (
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
    open_safetensors,
    save_safetensors,
)
from slanc.safetensors_io import SafetensorsError, read_header, save_tensors
from slanc.scales import DegenerateScaleError, Formula, compute_scale_table, scale_entry


@pytest.fixture(scope="module")
def amp(tmp_path_factory):
    """Amplified 1-layer model plus its scale table, built once."""
    root = tmp_path_factory.mktemp("amp")
    model = root / "model.safetensors"
    scales = root / "scales.json"
    assert main([
        "gen-model", "--d", "256", "--layers", "1", "--seed", "7",
        "--heads", "4", "--mlp-hidden", "1024", "--std", "0.04",
        "--mlp-kind", "standard", "--amplify", "e,g:8",
        "--amplify-layers", "0", "-o", str(model),
    ]) == 0
    assert main(["scales", str(model), "-o", str(scales)]) == 0
    return model, scales


# ── gen-model ────────────────────────────────────────────────────────────


def test_gen_model_is_byte_reproducible(tmp_path, capsys):
    args = ["gen-model", "--d", "32", "--layers", "2", "--seed", "11"]
    first = tmp_path / "a.safetensors"
    second = tmp_path / "b.safetensors"
    assert main(args + ["-o", str(first)]) == 0
    assert main(args + ["-o", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()
    prints = capsys.readouterr().out.strip().split("\n")
    assert prints[0] == prints[1]
    graph = load_safetensors(str(first))
    assert prints[0] == graph.fingerprint()
    assert len(prints[0]) == 64 and set(prints[0]) <= set("0123456789abcdef")


def test_gen_model_writes_config_sidecar(tmp_path):
    out = tmp_path / "m.safetensors"
    assert main(["gen-model", "--d", "32", "--layers", "1", "-o", str(out)]) == 0
    sidecar = tmp_path / "m.config.json"
    assert sidecar.exists()
    doc = json.loads(sidecar.read_text())
    assert doc["d_model"] == 32
    assert doc["mlp_hidden"] == 128  # default 4 * d
    assert doc["norm_kind"] == "RMSNorm"
    assert doc["residual_placement"] == "PostLN"


def test_gen_model_rejects_bad_arguments(tmp_path, capsys):
    out = str(tmp_path / "m.safetensors")
    bad = [
        ["gen-model", "--d", "0", "--layers", "1", "-o", out],
        ["gen-model", "--d", "32", "--layers", "-1", "-o", out],
        ["gen-model", "--d", "32", "--layers", "1", "--heads", "5", "-o", out],
        ["gen-model", "--d", "32", "--layers", "1", "--amplify", "e8", "-o", out],
        ["gen-model", "--d", "32", "--layers", "1", "--amplify", ":8", "-o", out],
        ["gen-model", "--d", "32", "--layers", "1",
         "--amplify-layers", "a", "-o", out],
        ["gen-model", "--d", "32", "--layers", "1", "--seed", "-1", "-o", out],
        ["gen-model", "--d", "32", "--layers", "1"],  # missing -o
        ["gen-model", "--layers", "1", "-o", out],  # missing --d
    ]
    for argv in bad:
        assert main(argv) == 1, argv
        assert "slanc:" in capsys.readouterr().err
    # Amplifying a layer the model does not have names the first such
    # index instead of writing an unamplified model.
    argv = ["gen-model", "--d", "32", "--layers", "2", "--amplify", "e:4",
            "--amplify-layers", "1,7,-1", "-o", out]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "slanc: error: amplify layer 7 is outside [0, 2)" in captured.err
    assert not (tmp_path / "m.safetensors").exists()


def test_gen_model_refuses_weights_beyond_float32(tmp_path, capsys):
    out = tmp_path / "m.safetensors"
    for flags, culprit in ((["--amplify", "e:1e40"], "'e' of layer 0"),
                           (["--std", "1e40"], "'gamma1' of layer 0")):
        argv = ["gen-model", "--d", "16", "--layers", "1", *flags, "-o", str(out)]
        assert main(argv) == 1, flags
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("slanc: error: generated ")
        assert f"{culprit} does not fit float32" in captured.err
        assert not out.exists()
        assert not Path(config_sidecar_path(str(out))).exists()


def test_unknown_command_is_usage_error(capsys):
    assert main(["frobnicate"]) == 1
    assert main([]) == 1
    capsys.readouterr()


# The options the model commands share: their defaults, then every
# flag set and what it parses to.
_MODEL_OPTIONS = {"model": "m.safetensors", "name_map": None, "config": None}
_TOKEN_OPTIONS = {"tokens": None, "seed": 0, "inputs": None}
_MODEL_FLAGS = ["--name-map", "nm.json", "--config", "c.json"]
_TOKEN_FLAGS = ["--tokens", "16", "--seed", "3"]  # --inputs excludes --tokens
_MODEL_SET = {"name_map": "nm.json", "config": "c.json"}
_TOKEN_SET = {"tokens": 16, "seed": 3, "inputs": None}
_GEN_DEFAULTS = {
    "seed": 0, "heads": None, "mlp_hidden": None, "std": 0.02, "norm_kind": "rmsnorm",
    "placement": "post-ln", "mlp_kind": "llama-gated", "nonlinearity": "silu",
    "epsilon": 1e-5, "amplify": [], "amplify_layers": None}


@pytest.mark.parametrize("argv, want", [
    (["gen-model", "--d", "8", "--layers", "1", "-o", "m.safetensors"],
     {"command": "gen-model", "d": 8, "layers": 1, **_GEN_DEFAULTS, "out": "m.safetensors"}),
    (["gen-model", "--d", "8", "--layers", "2", "--seed", "5", "--heads", "2",
      "--mlp-hidden", "24", "--std", "0.5", "--norm-kind", "layernorm",
      "--placement", "pre-ln", "--mlp-kind", "standard", "--nonlinearity", "gelu",
      "--epsilon", "1e-6", "--amplify", "e,g:8", "--amplify", "p:2",
      "--amplify-layers", "0,1", "--out", "m.safetensors"],
     {"command": "gen-model", "d": 8, "layers": 2, "seed": 5, "heads": 2,
      "mlp_hidden": 24, "std": 0.5, "norm_kind": "layernorm", "placement": "pre-ln",
      "mlp_kind": "standard", "nonlinearity": "gelu", "epsilon": 1e-6,
      "amplify": ["e,g:8", "p:2"], "amplify_layers": "0,1", "out": "m.safetensors"}),
    (["scales", "m.safetensors", "-o", "t.json"],
     {"command": "scales", **_MODEL_OPTIONS, "out": "t.json"}),
    (["scales", "m.safetensors", *_MODEL_FLAGS, "--out", "t.json"],
     {"command": "scales", **_MODEL_OPTIONS, **_MODEL_SET, "out": "t.json"}),
    (["audit", "m.safetensors", "-o", "r.json"],
     {"command": "audit", **_MODEL_OPTIONS, "policy": "fp16", "scales": None,
      **_TOKEN_OPTIONS, "format": "json", "out": "r.json", "fail_on_overflow": False}),
    (["audit", "m.safetensors", *_MODEL_FLAGS, "--policy", "fp64", "--scales", "t.json",
      *_TOKEN_FLAGS, "--format", "csv", "--out", "r.csv", "--fail-on-overflow"],
     {"command": "audit", **_MODEL_OPTIONS, **_MODEL_SET, "policy": "fp64",
      "scales": "t.json", **_TOKEN_SET, "format": "csv", "out": "r.csv",
      "fail_on_overflow": True}),
    (["compare", "m.safetensors", "--scales", "t.json"],
     {"command": "compare", **_MODEL_OPTIONS, "scales": "t.json", **_TOKEN_OPTIONS,
      "out": None}),
    (["compare", "m.safetensors", *_MODEL_FLAGS, "--scales", "t.json", *_TOKEN_FLAGS,
      "-o", "c.json"],
     {"command": "compare", **_MODEL_OPTIONS, **_MODEL_SET, "scales": "t.json",
      **_TOKEN_SET, "out": "c.json"}),
    (["audit", "m.safetensors", "--inputs", "x.npy", "--seed", "3", "-o", "r.json"],
     {"command": "audit", **_MODEL_OPTIONS, "policy": "fp16", "scales": None,
      **_TOKEN_OPTIONS, "seed": 3, "inputs": "x.npy", "format": "json", "out": "r.json",
      "fail_on_overflow": False}),
    (["compare", "m.safetensors", "--scales", "t.json", "--inputs", "x.npy"],
     {"command": "compare", **_MODEL_OPTIONS, "scales": "t.json", **_TOKEN_OPTIONS,
      "inputs": "x.npy", "out": None}),
], ids=[f"{command}-{argv}" for command in ("gen-model", "scales", "audit", "compare")
        for argv in ("minimal", "full")] + ["audit-inputs", "compare-inputs"])
def test_each_subcommand_parses_its_options(argv, want):
    # Every dest, value and type of the parsed options, with nothing
    # else; dict equality ignores order, so only the names count.
    got = vars(cli._build_parser().parse_args(argv))
    assert got == want
    assert {k: type(v) for k, v in got.items()} == {k: type(v) for k, v in want.items()}


@pytest.mark.parametrize("argv", [
    ["gen-model", "--d", "8", "--layers", "1", "-o", "m", "--norm-kind", "batchnorm"],
    ["gen-model", "--d", "8", "--layers", "1", "-o", "m", "--placement", "sandwich"],
    ["gen-model", "--d", "8", "--layers", "1", "-o", "m", "--mlp-kind", "moe"],
    ["gen-model", "--d", "8", "--layers", "1", "-o", "m", "--nonlinearity", "tanh"],
    ["audit", "m", "-o", "r", "--policy", "bf16"],
    ["audit", "m", "-o", "r", "--format", "xml"],
])
def test_an_unknown_choice_is_a_usage_error(argv, capsys):
    assert main(argv) == 1
    assert "invalid choice" in capsys.readouterr().err


# ── scales ───────────────────────────────────────────────────────────────


def test_scales_matches_api_and_reruns_identically(amp, capsys, tmp_path):
    model, scales = amp
    text = scales.read_text()
    graph = load_safetensors(str(model))
    assert json.loads(text) == compute_scale_table(graph)
    again = tmp_path / "again.json"
    assert main(["scales", str(model), "-o", str(again)]) == 0
    assert capsys.readouterr().out == f"wrote 2 scales to {again}\n"
    assert again.read_text() == text


def test_zero_weight_model_scales_are_sqrt_d(tmp_path, capsys):
    model = tmp_path / "zero.safetensors"
    scales = tmp_path / "zero.json"
    assert main(["gen-model", "--d", "64", "--layers", "1", "--std", "0",
                 "-o", str(model)]) == 0
    assert main(["scales", str(model), "-o", str(scales)]) == 0
    capsys.readouterr()
    entries = json.loads(scales.read_text())["entries"]
    assert [entry["norm_id"] for entry in entries] == ["layer0.norm1", "layer0.norm2"]
    assert all(entry["s"] == 8.0 for entry in entries)


def test_degenerate_model_exits_2_and_names_the_norm(tmp_path, capsys):
    # Up and down projections that cancel exactly: e @ g = -identity, so
    # the MLP residual update annihilates on layer0.norm2.
    config = ModelConfig(
        d_model=4, n_heads=1, head_dim=4, mlp_hidden=4, n_layers=1,
        norm_kind=NormKind.RMS_NORM,
        residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.STANDARD, nonlinearity=Nonlinearity.RELU,
        epsilon=1e-5,
    )
    eye = np.eye(4)
    layer = dict(gamma1=np.ones(4), gamma2=np.ones(4), w_q=eye, w_k=eye,
                 w_v=np.zeros((4, 4)), p=np.zeros((4, 4)), e=eye, g=-eye)
    graph = ModelGraph(config, {(role, 0): array for role, array in layer.items()})
    path = tmp_path / "degenerate.safetensors"
    save_safetensors(graph, str(path))
    serialization.atomic_write_text(
        config_sidecar_path(str(path)), serialization.dumps(config.to_dict())
    )
    assert main(["scales", str(path), "-o", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert "degenerate" in err
    assert "layer0.norm2" in err


def test_scales_on_missing_model_is_io_error(amp, tmp_path, capsys):
    model, _ = amp
    assert main(["scales", str(tmp_path / "nope.safetensors"),
                 "--config", config_sidecar_path(str(model)),
                 "-o", str(tmp_path / "t.json")]) == 1
    assert capsys.readouterr().err.startswith(
        f"slanc: error: cannot read {tmp_path / 'nope.safetensors'}: ")


@pytest.mark.parametrize("command", ["scales", "audit", "compare"])
def test_a_checkpoint_without_a_config_is_refused(command, tmp_path, monkeypatch,
                                                  capsys):
    # The weights hold neither the head count, the nonlinearity nor
    # epsilon, so with no --config and no sidecar nothing is guessed: the
    # command exits 1 naming the sidecar, before it opens the checkpoint.
    model, table, out = (str(tmp_path / name) for name in ("m.safetensors", "t.json", "o"))
    assert main(["gen-model", "--d", "32", "--layers", "1", "--heads", "2",
                 "-o", model]) == 0
    assert main(["scales", model, "-o", table]) == 0
    os.remove(config_sidecar_path(model))
    opened = []
    monkeypatch.setattr(model_mod.safetensors_io, "open_file", opened.append)
    capsys.readouterr()
    assert main({"scales": ["scales", model, "-o", out],
                 "audit": ["audit", model, "--tokens", "4", "-o", out],
                 "compare": ["compare", model, "--scales", table, "--tokens", "4"],
                 }[command]) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith(
        f"slanc: error: cannot read config {tmp_path / 'm.config.json'}: ")
    assert (captured.out, opened) == ("", [])
    assert not os.path.exists(out)


def test_malformed_tensor_shape_exits_1_naming_the_tensor(amp, tmp_path, capsys):
    header = json.dumps({"model.layers.0.input_layernorm.weight": {
        "dtype": "F32", "shape": [-2, -1], "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + bytes(8))
    shutil.copy(config_sidecar_path(str(amp[0])), config_sidecar_path(str(path)))
    assert main(["scales", str(path), "-o", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slanc: error: shape must be a list of non-negative")
    assert "'model.layers.0.input_layernorm.weight'" in err


def test_scales_refuses_a_final_norm_named_like_a_layer_tensor(tmp_path, capsys):
    # Two slots resolving to one tensor would load it into both, and
    # model.norm.weight would never be read.
    path = tmp_path / "pre.safetensors"
    assert main(["gen-model", "--d", "16", "--layers", "2", "--placement", "pre-ln",
                 "-o", str(path)]) == 0
    name_map = default_name_map().to_dict()
    name_map["roles"]["final_gamma"] = "model.layers.0.input_layernorm.weight"
    (tmp_path / "map.json").write_text(json.dumps(name_map))
    table = tmp_path / "t.json"
    assert main(["scales", str(path), "--name-map", str(tmp_path / "map.json"),
                 "-o", str(table)]) == 1
    assert capsys.readouterr().err == (
        "slanc: error: bad name map: roles 'gamma1' of layer 0 and 'final_gamma' both "
        "name tensor 'model.layers.0.input_layernorm.weight'\n")
    assert not table.exists()


@pytest.mark.parametrize("damage", ["non-finite", "truncated", "degenerate"])
def test_a_walk_that_stops_early_leaves_nothing_open(tmp_path, capsys, damage):
    # Two layers in a file several read buffers long.  A non-finite entry
    # or a short read in layer 1 stops the streamed walk after layer 0's
    # scales; a degenerate scale stops it in layer 0.  Neither the walk
    # nor `slanc scales` may leave the file open or a thread running, and
    # `scales` writes no table.  The bad payload stops `audit` and
    # `compare` part way through their walk too, before the table's
    # fingerprint or entries are checked.
    d = 32
    config = ModelConfig(
        d_model=d, n_heads=1, head_dim=d, mlp_hidden=d, n_layers=2,
        norm_kind=NormKind.RMS_NORM, residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.STANDARD, nonlinearity=Nonlinearity.RELU, epsilon=1e-5)
    rng = np.random.default_rng(3)
    matrices = ("w_q", "w_k", "w_v", "p", "e", "g")
    tensors = {}
    for i in range(2):
        tensors.update({("gamma1", i): np.ones(d), ("gamma2", i): np.ones(d)})
        tensors.update({(role, i): rng.standard_normal((d, d)) * 0.1 for role in matrices})
    if damage == "degenerate":  # layer 0's MLP cancels its residual: e @ g = -I
        tensors["e", 0], tensors["g", 0] = np.eye(d), -np.eye(d)
    if damage == "non-finite":
        tensors["g", 1][2, 1] = np.nan  # stored transposed: flat index 1 * d + 2
    path = tmp_path / "m.safetensors"
    save_safetensors(ModelGraph(config, tensors), str(path))
    serialization.atomic_write_text(config_sidecar_path(str(path)),
                                    serialization.dumps(config.to_dict()))
    with open(path, "rb") as handle:
        last = max(read_header(handle).values(), key=lambda entry: entry.offset)
    expected = {
        "non-finite": (ModelError, "bad tensor 'model.layers.1.mlp.down_proj.weight': "
                                   "non-finite entry at flat index 34", 1),
        "truncated": (SafetensorsError, f"short read: .*tensor {last.name!r}", 1),
        "degenerate": (DegenerateScaleError, "layer0.norm2", 2),
    }[damage]
    error, message, code = expected
    assert last.name.startswith("model.layers.1.")
    threads = threading.active_count()
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always", ResourceWarning)
        with open_safetensors(str(path), config) as stream:
            if damage == "truncated":  # after the plan: the walk reads short
                os.truncate(path, last.offset + last.nbytes // 2)
            with pytest.raises(error, match=message):
                compute_scale_table(stream)
        assert threading.active_count() == threads
        table = tmp_path / "t.json"
        assert main(["scales", str(path), "-o", str(table)]) == code
        assert "slanc:" in capsys.readouterr().err
        assert not table.exists()
        assert threading.active_count() == threads
        if damage != "degenerate":  # audit and compare fail in layer 1 too
            table.write_text(json.dumps({"fingerprint": "0" * 64, "entries": []}))
            report = tmp_path / "r.json"
            for argv in (["audit", str(path), "--tokens", "4", "-o", str(report)],
                         ["compare", str(path), "--scales", str(table),
                          "--tokens", "4", "-o", str(report)]):
                assert main(argv) == code, argv
                assert "tensor 'model.layers.1." in capsys.readouterr().err, argv
                assert not report.exists()
                assert threading.active_count() == threads
        gc.collect()
    assert [w.message for w in caught if w.category is ResourceWarning] == []


# ── audit ────────────────────────────────────────────────────────────────


def test_audit_fp16_reports_pinned_overflows(amp, tmp_path, capsys):
    model, _ = amp
    out = tmp_path / "report.json"
    assert main(["audit", str(model), "--policy", "fp16", "--tokens", "32",
                 "--seed", "3", "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        "32 overflows, 0 underflows over 32 tokens x 2 norms\n"
    )
    doc = json.loads(out.read_text())
    assert doc["policy"] == "fp16"
    assert doc["tokens"] == 32
    assert doc["seed"] == 3
    by_id = {n["norm_id"]: n for n in doc["norms"]}
    assert by_id["layer0.norm2"]["overflow_count"] == 32
    assert by_id["layer0.norm1"]["overflow_count"] == 0
    assert doc["fp16_max_finite"] == 65504.0


def _fresh_python(args: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run `python args` in a new interpreter that imports this slanc."""
    src = str(Path(slanc.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], cwd=cwd, capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": path})


def test_overflowing_fp16_audit_keeps_stderr_clean(amp, tmp_path):
    # Overflowed sums are inf in the batched epilogue; no RuntimeWarning
    # may reach stderr.
    model, _ = amp
    proc = _fresh_python(["-m", "slanc.cli", "audit", str(model), "--policy",
                          "fp16", "--tokens", "32", "--seed", "3", "-o", "r.json"],
                         tmp_path)
    assert proc.returncode == 0
    assert proc.stdout == "32 overflows, 0 underflows over 32 tokens x 2 norms\n"
    assert proc.stderr == ""


def test_huge_finite_inputs_fail_with_one_stderr_line(amp, tmp_path):
    # Finite tokens of 1e300 overflow inside the forward's products; each
    # command ends in exit 3 naming the norm, and no numpy RuntimeWarning
    # reaches stderr.
    model, scales = amp
    np.save(tmp_path / "big.npy", np.full((2, 256), 1e300))
    for args in (["audit", "--policy", "fp16", "-o", "r.json"],
                 ["audit", "--policy", "fp64", "-o", "r.json"],
                 ["compare", "--scales", str(scales)]):
        proc = _fresh_python(["-m", "slanc.cli", args[0], str(model), *args[1:],
                              "--inputs", "big.npy"], tmp_path)
        assert proc.returncode == 3, (args, proc.stderr)
        assert proc.stderr == ("slanc: numerical failure: non-positive variance nan "
                               "at norm 'layer0.norm1', token 0\n"), args


def test_a_scale_formula_past_float64_fails_with_one_stderr_line(tmp_path):
    # Finite float32 weights of 3e38 make the gated MLP's formula
    # overflow float64 inside ||Gamma (M + I)||_F: `scales` exits 3 naming
    # the norm it feeds, with no numpy RuntimeWarning and no table.
    config = ModelConfig(
        d_model=16, n_heads=2, head_dim=8, mlp_hidden=32, n_layers=2,
        norm_kind=NormKind.RMS_NORM, residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.LLAMA_GATED, nonlinearity=Nonlinearity.SILU, epsilon=1e-5,
    )
    graph = generate_synthetic(config, InitSpec(), seed=1)
    huge = {role: 3e38 for role in ("gamma1", "e", "b", "g")}
    graph = ModelGraph(config, {
        (role, i): np.full_like(array, huge[role]) if role in huge else array
        for (role, i), array in graph.tensors.items()})
    path = tmp_path / "huge.safetensors"
    save_safetensors(graph, str(path))
    serialization.atomic_write_text(config_sidecar_path(str(path)),
                                    serialization.dumps(config.to_dict()))
    proc = _fresh_python(["-m", "slanc.cli", "scales", str(path), "-o", "t.json"],
                         tmp_path)
    assert proc.returncode == 3, proc.stderr
    assert proc.stderr == ("slanc: numerical failure: scale formula overflowed float64 "
                           "(got inf) at norm 'layer0.norm2'\n")
    assert not (tmp_path / "t.json").exists()


def test_importing_the_cli_does_not_load_scipy(tmp_path):
    proc = _fresh_python(["-c", "import sys, slanc.cli; print(sorted("
                          "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
                         tmp_path)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_audit_fail_on_overflow_exits_4(amp, tmp_path, capsys):
    model, _ = amp
    assert main(["audit", str(model), "--tokens", "32", "--seed", "3",
                 "--fail-on-overflow", "-o", str(tmp_path / "r.json")]) == 4
    capsys.readouterr()


def test_audit_with_scales_removes_overflows(amp, tmp_path, capsys):
    model, scales = amp
    out = tmp_path / "scaled.json"
    assert main(["audit", str(model), "--tokens", "32", "--seed", "3",
                 "--scales", str(scales), "--fail-on-overflow",
                 "-o", str(out)]) == 0
    assert capsys.readouterr().out == (
        "0 overflows, 0 underflows over 32 tokens x 2 norms\n"
    )
    doc = json.loads(out.read_text())
    entries = json.loads(scales.read_text())["entries"]
    assert [norm["scale_applied"] for norm in doc["norms"]] == [
        entry["s"] for entry in entries]


def test_audit_fp64_never_overflows(amp, tmp_path, capsys):
    model, _ = amp
    assert main(["audit", str(model), "--policy", "fp64", "--tokens", "32",
                 "--seed", "3", "-o", str(tmp_path / "r.json")]) == 0
    assert capsys.readouterr().out.startswith("0 overflows, 0 underflows")


def test_audit_csv_columns_sum_to_tokens(amp, tmp_path, capsys):
    model, _ = amp
    out = tmp_path / "report.csv"
    assert main(["audit", str(model), "--tokens", "8", "--seed", "1",
                 "--format", "csv", "-o", str(out)]) == 0
    capsys.readouterr()
    lines = out.read_text().rstrip("\n").split("\n")
    assert lines[0] == "bucket,layer0.norm1,layer0.norm2"
    assert len(lines) == 63
    for col in (1, 2):
        assert sum(int(line.split(",")[col]) for line in lines[1:]) == 8


def test_audit_accepts_npy_inputs(amp, tmp_path, capsys):
    model, _ = amp
    acts = tmp_path / "acts.npy"
    np.save(acts, np.random.default_rng(5).standard_normal((4, 256)) * 0.1)
    out = tmp_path / "r.json"
    assert main(["audit", str(model), "--inputs", str(acts),
                 "-o", str(out)]) == 0
    capsys.readouterr()
    doc = json.loads(out.read_text())
    assert doc["tokens"] == 4
    assert doc["seed"] is None


@pytest.mark.parametrize("command", ["audit", "compare"])
def test_tokens_and_inputs_together_are_a_usage_error(amp, tmp_path, capsys, command):
    model, scales = amp
    acts = tmp_path / "acts.npy"
    np.save(acts, np.zeros((4, 256)))
    out = tmp_path / "r.json"
    argv = [command, str(model), "--tokens", "4", "--inputs", str(acts), "-o", str(out)]
    assert main(argv + (["--scales", str(scales)] if command == "compare" else [])) == 1
    err = capsys.readouterr().err
    assert "--tokens" in err and "--inputs" in err
    assert not out.exists()


def test_audit_input_validation(amp, tmp_path, capsys):
    model, scales = amp
    out = str(tmp_path / "r.json")
    wrong = tmp_path / "wrong.npy"
    np.save(wrong, np.zeros((4, 255)))
    bad = [
        ["audit", str(model), "--tokens", "0", "-o", out],
        ["audit", str(model), "--tokens", "-3", "-o", out],
        ["audit", str(model), "-o", out],  # neither --tokens nor --inputs
        ["audit", str(model), "--inputs", str(wrong), "-o", out],
        ["audit", str(model), "--inputs", str(tmp_path / "nope.npy"), "-o", out],
    ]
    for argv in bad:
        assert main(argv) == 1, argv
        assert "slanc:" in capsys.readouterr().err
    # Malformed outside input of other kinds: each exits 1 naming what
    # is wrong, without a traceback.
    np.save(tmp_path / "text.npy", np.full((4, 256), "x"))
    np.save(tmp_path / "complex.npy", np.ones((4, 256), dtype=complex))
    np.savez(tmp_path / "archive.npz", acts=np.ones((4, 256)))
    (tmp_path / "list.json").write_text("[]")
    config = json.loads(Path(config_sidecar_path(str(model))).read_text())
    (tmp_path / "null.json").write_text(json.dumps({**config, "d_model": None}))
    name_map = default_name_map().to_dict()
    name_map["layer_template"] = "model.layers.{j}"
    (tmp_path / "map.json").write_text(json.dumps(name_map))
    (tmp_path / "utf16.json").write_bytes(b"\xff\xfe{")  # not UTF-8
    np.save(tmp_path / "empty.npy", np.zeros((0, 256)))
    named = [
        (["--tokens", "4", "--seed", "-1"], "--seed must be non-negative, got -1"),
        (["--inputs", str(tmp_path / "text.npy")],
         "activations must be integer or floating point, got dtype <U1"),
        (["--inputs", str(tmp_path / "complex.npy")],
         "activations must be integer or floating point, got dtype complex128"),
        (["--inputs", str(tmp_path / "archive.npz")],
         f"activations {tmp_path / 'archive.npz'} must be one .npy array"),
        (["--tokens", "4", "--config", str(tmp_path / "list.json")],
         "bad model config: expected a JSON object, got list"),
        (["--tokens", "4", "--config", str(tmp_path / "null.json")], "bad model config"),
        (["--tokens", "4", "--name-map", str(tmp_path / "map.json")],
         "bad name map: layer_template 'model.layers.{j}' does not format with i=0"),
        (["--tokens", "4", "--config", str(tmp_path / "utf16.json")],
         f"malformed config JSON in {tmp_path / 'utf16.json'}: 'utf-8' codec can't decode"),
        (["--tokens", "4", "--name-map", str(tmp_path / "utf16.json")],
         f"malformed name map JSON in {tmp_path / 'utf16.json'}: 'utf-8' codec can't "
         f"decode"),
    ]
    # A name map is read as written: strings stay strings, and a
    # transpose entry must name a role (a typo there would load v_proj
    # untransposed without a word).
    for i, (edit, message) in enumerate([
        ({"layer_template": 5}, "layer_template must be a string, got 5"),
        ({"roles": {**name_map["roles"], "w_v": 3}}, "roles['w_v'] must be a string, got 3"),
        ({"roles": ["w_v"]}, "roles must be a JSON object, got ['w_v']"),
        ({"transpose": "w_q"}, "transpose must be a list, got 'w_q'"),
        ({"transpose": ["w_q", "wv"]}, "transpose entry 'wv' names no role"),
        # Two roles naming one tensor would load k_proj as both w_k and w_v;
        # the plan names the first layer where the resolved names meet.
        ({"roles": {**name_map["roles"], "w_v": "self_attn.k_proj.weight"}},
         "roles 'w_k' of layer 0 and 'w_v' of layer 0 both name tensor "
         "'model.layers.0.self_attn.k_proj.weight'"),
        ({"roles": {**name_map["roles"], "final_beta": "model.norm.weight"}},
         "roles 'final_gamma' and 'final_beta' both name tensor 'model.norm.weight'"),
        # Nor may a final-norm name be a resolved per-layer one.
        ({"roles": {**name_map["roles"],
                    "final_gamma": "model.layers.0.input_layernorm.weight"}},
         "roles 'gamma1' of layer 0 and 'final_gamma' both name tensor "
         "'model.layers.0.input_layernorm.weight'"),
    ]):
        path = tmp_path / f"map{i}.json"
        path.write_text(json.dumps({**default_name_map().to_dict(), **edit}))
        named.append((["--tokens", "4", "--name-map", str(path)], f"bad name map: {message}"))
    # A config's sizes must be JSON integers and its epsilon a JSON
    # number; nothing is truncated or coerced.
    for name, value, what in [
        ("d_model", 256.9, "an integer"),
        ("n_layers", True, "an integer"),
        ("mlp_hidden", "1024", "an integer"),
        ("epsilon", "1e-5", "a number"),
        ("epsilon", True, "a number"),
    ]:
        path = tmp_path / f"{name}-{type(value).__name__}.json"
        path.write_text(json.dumps({**config, name: value}))
        named.append((["--tokens", "4", "--config", str(path)],
                      f"bad model config: {name} must be {what}, got {value!r}"))
    # Values of the right JSON type that form no model carry the same
    # prefix; 1e400 parses as inf.
    for name, text, message in [
        ("d_model", "0", "d_model must be positive, got 0"),
        ("epsilon", "1e400", "epsilon must be positive and finite, got inf"),
    ]:
        path = tmp_path / f"{name}-{text}.json"
        path.write_text(json.dumps({**config, name: "?"}).replace('"?"', text))
        named.append((["--tokens", "4", "--config", str(path)],
                      f"bad model config: {message}"))
    # A JSON integer beyond float range is a number, but no epsilon.
    path = tmp_path / "epsilon-huge.json"
    path.write_text(json.dumps({**config, "epsilon": 10**400}))
    named.append((["--tokens", "4", "--config", str(path)],
                  "bad model config: epsilon must be a finite number, got a 401-digit "
                  "integer"))
    # A key the config has no field for is refused, not ignored: a config
    # adding num_key_value_heads would run grouped KV heads as multi-head
    # attention.  The first unknown key in sorted order is named.
    path = tmp_path / "kv-heads.json"
    path.write_text(json.dumps({**config, "rope_theta": 1e4, "num_key_value_heads": 1}))
    named.append((["--tokens", "4", "--config", str(path)],
                  "bad model config: 'num_key_value_heads' is not a config field"))
    # A scale table applies only to the model and epsilon it was written
    # for, read as written: each edit names the norm (or the entry's
    # index) and the field.
    table = json.loads(scales.read_text())
    norm1, norm2 = table["entries"]
    s = norm1["s"]
    for i, (entries, message) in enumerate([
        ([norm1, {**norm2, "eps_adjusted": 1.0}],
         "entry 'layer0.norm2': eps_adjusted must be "),
        # Entries stand in execution order, one per norm: a repeated,
        # reordered or extra entry is refused at its index.
        ([norm1, norm2, {**norm1, "s": 3 * s, "reciprocal": 1 / (3 * s)}],
         "entries[2]: norm_id 'layer0.norm1' comes after the model's 2 norms"),
        ([norm1, norm1, norm2],
         "entries[1]: norm_id must be 'layer0.norm2', got 'layer0.norm1'"),
        ([norm2, norm1],
         "entries[0]: norm_id must be 'layer0.norm1', got 'layer0.norm2'"),
        ([{**norm1, "s": repr(s)}, norm2],
         f"entry 'layer0.norm1': s must be a finite positive number, got '{s!r}'"),
        # Each field is the one scale_entry writes, in value and JSON type.
        ([{**norm1, "layer": 0.7}, norm2],
         "entry 'layer0.norm1': layer must be 0, got 0.7"),
        ([{**norm1, "layer": True}, norm2],
         "entry 'layer0.norm1': layer must be 0, got True"),
        ([norm1, {**norm2, "layer": 5}],
         "entry 'layer0.norm2': layer must be 0, got 5"),
        ([norm1, {**norm2, "s": 4, "reciprocal": 0.25, "eps_adjusted": 1e-5 / 16}],
         "entry 'layer0.norm2': s must be 4.0, got 4"),
        ([{**norm1, "note": ""}, norm2],
         "entry 'layer0.norm1': 'note' is not a field of a table entry"),
        ([norm1, norm2, {**norm2, "norm_id": "layer9.norm1"}],
         "entries[2]: norm_id 'layer9.norm1' comes after the model's 2 norms"),
        ([{**norm1, "formula": norm2["formula"]}, {**norm2, "formula": norm1["formula"]}],
         "entry 'layer0.norm1': formula must be 'Attention', got 'StandardMlp'"),
        ([{**norm1, "reciprocal": math.nextafter(norm1["reciprocal"], 1.0)}, norm2],
         "entry 'layer0.norm1': reciprocal must be "),
        ({"layer0.norm1": norm1, "layer0.norm2": norm2},
         "entries must be a list, got dict"),
        ([norm1, [norm2]], "entries[1] must be a JSON object, got list"),
        # No command writes a runtime-calibrated table: Dynamic is one more
        # wrong formula, wherever it stands.
        ([{**norm1, "formula": "Dynamic"}, norm2],
         "entry 'layer0.norm1': formula must be 'Attention', got 'Dynamic'"),
        ([norm1, {**norm2, "formula": "Dynamic"}],
         "entry 'layer0.norm2': formula must be 'StandardMlp', got 'Dynamic'"),
        # An s below 2^-24 is one compute_scale_table never writes, even
        # with its reciprocal and eps_adjusted consistent: refused, not
        # run into a numerical failure blamed on the model.
        ([scale_entry(e["norm_id"], e["layer"], Formula(e["formula"]), 2.0**-30,
                      config["epsilon"]) for e in (norm1, norm2)],
         f"entry 'layer0.norm1': s must be at least 2^-24 (5.960464477539063e-08), "
         f"got {2.0**-30!r}"),
    ]):
        path = tmp_path / f"table{i}.json"
        path.write_text(json.dumps({**table, "entries": entries}))
        named.append((["--tokens", "4", "--scales", str(path)], f"scale table {message}"))
    path = tmp_path / "epsilon.json"
    path.write_text(json.dumps({**config, "epsilon": 1e-2}))
    named.append((["--tokens", "4", "--config", str(path), "--scales", str(scales)],
                  "scale table entry 'layer0.norm1': eps_adjusted must be "))
    for args, message in named:
        assert main(["audit", str(model), *args, "-o", out]) == 1, args
        err = capsys.readouterr().err
        assert f"slanc: error: {message}" in err
        assert "Traceback" not in err
    assert main(["compare", str(model), "--scales", str(scales), "--tokens", "4",
                 "--seed", "-1"]) == 1
    assert capsys.readouterr().err == "slanc: error: --seed must be non-negative, got -1\n"
    # An activation file with no tokens is refused before the forward pass,
    # by both commands that read one.
    empty = ["--inputs", str(tmp_path / "empty.npy")]
    for argv in (["audit", str(model), *empty, "-o", out],
                 ["compare", str(model), "--scales", str(scales), *empty]):
        assert main(argv) == 1, argv
        captured = capsys.readouterr()
        assert ("slanc: error: activations must hold at least one token, got (0, 256)"
                in captured.err)
        assert "Traceback" not in captured.err


def test_non_finite_values_exit_1_naming_the_culprit(amp, tmp_path, capsys):
    model, _ = amp
    acts = np.zeros((4, 256))
    acts[2, 7] = np.nan
    np.save(tmp_path / "nan.npy", acts)
    assert main(["audit", str(model), "--inputs", str(tmp_path / "nan.npy"),
                 "-o", str(tmp_path / "r.json")]) == 1
    assert "slanc: error: activations must be finite: token 2, element 7" in (
        capsys.readouterr().err)
    pre_ln = tmp_path / "pre.safetensors"
    assert main(["gen-model", "--d", "32", "--layers", "1", "--norm-kind",
                 "layernorm", "--placement", "pre-ln", "-o", str(pre_ln)]) == 0
    tensors = load_tensors(str(pre_ln))
    tensors["model.norm.bias"][5] = np.nan
    save_tensors(str(pre_ln), tensors)
    assert main(["scales", str(pre_ln), "-o", str(tmp_path / "t.json")]) == 1
    assert "slanc: error: bad tensor 'model.norm.bias': non-finite" in (
        capsys.readouterr().err)


def test_checkpoint_truncated_inside_a_payload_exits_1_naming_the_tensor(
        tmp_path, capsys):
    path = tmp_path / "m.safetensors"
    assert main(["gen-model", "--d", "32", "--layers", "2", "-o", str(path)]) == 0
    name = "model.layers.1.mlp.down_proj.weight"
    with open(path, "rb") as handle:
        entry = read_header(handle)[name]
    os.truncate(path, entry.offset + entry.nbytes // 2)  # the header stays intact
    for command in (["scales", "-o", str(tmp_path / "t.json")],
                    ["audit", "--tokens", "4", "-o", str(tmp_path / "r.json")]):
        assert main([command[0], str(path), *command[1:]]) == 1
        err = capsys.readouterr().err
        assert err.startswith("slanc: error: data_offsets [")
        assert "outside data section" in err
        assert err.rstrip().endswith(f"(tensor {name!r})")


# One layer whose tensor names sort in slot order, so the file holds
# its payloads in the order the walk reads them; e is stored transposed,
# b as held.
_SLOT_ORDER_MAP = NameMap("blocks.{i}", {role: f"r{k:02d}_{role}"
                                         for k, role in enumerate(LAYER_ROLES)},
                          frozenset(["e"]))


@pytest.mark.parametrize("damage", ["non-finite", "truncated"])
@pytest.mark.parametrize("role", ["e", "b"], ids=["transposed", "untransposed"])
@pytest.mark.parametrize("dtype", ["F32", "F16", "BF16"])
def test_an_error_past_the_first_staging_chunk_reads_as_for_a_whole_payload(
        tmp_path, monkeypatch, capsys, dtype, role, damage):
    # A 256-byte staging buffer reads each 16 x 40 matrix in many chunks.
    # The flat index of a non-finite entry counts in stored orientation
    # from the tensor's first entry, and a short read counts the bytes
    # the file holds from the payload's start, as when a payload is read
    # whole.
    monkeypatch.setattr(model_mod, "_STAGING_BYTES", 256)
    config = ModelConfig(
        d_model=16, n_heads=2, head_dim=8, mlp_hidden=40, n_layers=1,
        norm_kind=NormKind.RMS_NORM, residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.LLAMA_GATED, nonlinearity=Nonlinearity.SILU, epsilon=1e-5)
    path = tmp_path / "m.safetensors"
    save_safetensors(generate_synthetic(config, InitSpec(), seed=4), str(path),
                     name_map=_SLOT_ORDER_MAP, dtype=dtype)
    (tmp_path / "map.json").write_text(json.dumps(_SLOT_ORDER_MAP.to_dict()))
    serialization.atomic_write_text(config_sidecar_path(str(path)),
                                    serialization.dumps(config.to_dict()))
    name = _SLOT_ORDER_MAP.tensor_name(role, 0)
    with open(path, "rb") as handle:
        entry = read_header(handle)[name]
    if damage == "non-finite":
        tensors = load_tensors(str(path))
        tensors[name].flat[301] = np.inf
        save_tensors(str(path), tensors, dtype=dtype)
        expected = f"bad tensor {name!r}: non-finite entry at flat index 301 (inf)"
    else:  # the header was read from the whole file; the payload ends early
        size = path.stat().st_size
        cut = entry.nbytes - 5
        os.truncate(path, entry.offset + cut)
        real_fstat = os.fstat
        monkeypatch.setattr(model_mod.safetensors_io.os, "fstat", lambda fd: os.stat_result(
            (*real_fstat(fd)[:6], size, *real_fstat(fd)[7:])))
        expected = (f"short read: the file ends {cut} bytes into a {entry.nbytes}-byte "
                    f"payload (tensor {name!r})")
    table = tmp_path / "t.json"
    assert main(["scales", str(path), "--name-map", str(tmp_path / "map.json"),
                 "-o", str(table)]) == 1
    assert capsys.readouterr().err == f"slanc: error: {expected}\n"
    assert not table.exists()


@pytest.mark.parametrize("placement, norm_id", [(ResidualPlacement.POST_LN, "layer0.norm1"),
                                                (ResidualPlacement.PRE_LN, "layer0.norm2")])
def test_scales_stops_at_a_degenerate_scale_before_the_next_sublayer_is_read(
        tmp_path, capsys, placement, norm_id):
    # Layer 0's attention cancels the residual (W_V P = -I), so the norm
    # it feeds is degenerate; the MLP payload after it is non-finite.
    # `scales` computes that norm's scale before it reads the MLP, so it
    # exits 2 naming the norm (it exited 1 while a walk read whole
    # layers); `audit` and `compare` still report the bad payload first.
    d = 8
    config = ModelConfig(
        d_model=d, n_heads=1, head_dim=d, mlp_hidden=d, n_layers=1,
        norm_kind=NormKind.RMS_NORM, residual_placement=placement,
        mlp_kind=MlpKind.STANDARD, nonlinearity=Nonlinearity.RELU, epsilon=1e-5)
    eye, g = np.eye(d), np.full((d, d), 0.1)
    g[3, 5] = np.nan
    layer = dict(gamma1=np.ones(d), gamma2=np.ones(d), w_q=eye, w_k=eye, w_v=eye, p=-eye,
                 e=eye, g=g)
    final = {("final_gamma", None): np.ones(d)} if config.has_final_norm else {}
    graph = ModelGraph(config, {**{(role, 0): array for role, array in layer.items()},
                                **final})
    path = tmp_path / "m.safetensors"
    save_safetensors(graph, str(path))
    serialization.atomic_write_text(config_sidecar_path(str(path)),
                                    serialization.dumps(config.to_dict()))
    table, report = tmp_path / "t.json", tmp_path / "r.json"
    assert main(["scales", str(path), "-o", str(table)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("slanc: degenerate scale: ") and repr(norm_id) in err
    assert not table.exists()
    table.write_text(json.dumps({"fingerprint": "0" * 64, "entries": []}))
    for argv in (["audit", str(path), "--tokens", "4", "-o", str(report)],
                 ["compare", str(path), "--scales", str(table), "--tokens", "4"]):
        assert main(argv) == 1, argv
        assert capsys.readouterr().err == (
            "slanc: error: bad tensor 'model.layers.0.mlp.down_proj.weight': "
            "non-finite entry at flat index 43 (nan)\n"), argv
        assert not report.exists()


@pytest.mark.parametrize("placement, norm_id", [("post-ln", "layer0.norm2"),
                                                ("pre-ln", "layer1.norm1")])
@pytest.mark.parametrize("role", ["b", "g"])
def test_scales_fails_a_gate_spectral_norm_before_it_reads_b_and_g(
        tmp_path, monkeypatch, capsys, placement, norm_id, role):
    # `scales` takes a gated MLP's ||Gamma E|| once E is read, before B
    # and G, so a spectral norm that fails exits 3 naming the norm fed; a
    # non-finite entry in B or G of the same MLP comes after it, and
    # `audit` still reports it first.  A stored E cannot make the float64
    # Gram overflow (float32's largest value to the fourth power, times
    # the width, is finite), so the eigenvalue solve fails instead.
    path, table = tmp_path / "m.safetensors", tmp_path / "t.json"
    assert main(["gen-model", "--d", "16", "--layers", "2", "--heads", "2",
                 "--placement", placement, "-o", str(path)]) == 0
    name = default_name_map().tensor_name(role, 0)
    tensors = load_tensors(str(path))
    tensors[name][1, 2] = np.nan
    save_tensors(str(path), tensors)
    capsys.readouterr()
    bad_payload = f"slanc: error: bad tensor {name!r}: non-finite entry"
    assert main(["scales", str(path), "-o", str(table)]) == 1
    assert capsys.readouterr().err.startswith(bad_payload)

    def failing_eigvalsh(gram):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    assert main(["scales", str(path), "-o", str(table)]) == 3
    assert capsys.readouterr().err == (
        f"slanc: numerical failure: eigenvalue solve failed: Eigenvalues did not "
        f"converge at norm {norm_id!r}\n")
    assert not table.exists()
    assert main(["audit", str(path), "--tokens", "4",
                 "-o", str(tmp_path / "r.json")]) == 1
    assert capsys.readouterr().err.startswith(bad_payload)


def test_scale_table_missing_a_norm_exits_1_naming_it(amp, tmp_path, capsys):
    model, scales = amp
    doc = json.loads(scales.read_text())
    doc["entries"] = [e for e in doc["entries"] if e["norm_id"] != "layer0.norm2"]
    partial = tmp_path / "partial.json"
    partial.write_text(json.dumps(doc))
    for command in (["audit", "-o", str(tmp_path / "r.json")], ["compare"]):
        assert main(command[:1] + [str(model), "--tokens", "4", "--scales",
                                   str(partial)] + command[1:]) == 1
        assert ("slanc: error: scale table has no entry for norm 'layer0.norm2'"
                in capsys.readouterr().err)


def test_audit_refuses_foreign_scale_table(amp, tmp_path, capsys):
    model, _ = amp
    other = tmp_path / "other.safetensors"
    other_scales = tmp_path / "other.json"
    assert main(["gen-model", "--d", "256", "--layers", "1", "--seed", "8",
                 "-o", str(other)]) == 0
    assert main(["scales", str(other), "-o", str(other_scales)]) == 0
    capsys.readouterr()
    assert main(["audit", str(model), "--tokens", "4", "--scales",
                 str(other_scales), "-o", str(tmp_path / "r.json")]) == 1
    assert "fingerprint" in capsys.readouterr().err


@pytest.fixture(scope="module")
def blowup(tmp_path_factory):
    """A LayerNorm model whose layer-0 MLP, amplified 2000x, overflows
    SiLU's exp and then FP16, so every FP16 pass dies of a NaN variance
    at layer0.norm2; plus its own scale table."""
    root = tmp_path_factory.mktemp("blowup")
    model, scales = root / "model.safetensors", root / "scales.json"
    assert main(["gen-model", "--d", "64", "--layers", "3", "--seed", "1",
                 "--norm-kind", "layernorm", "--amplify", "e,g:2000",
                 "--amplify-layers", "0", "-o", str(model)]) == 0
    assert main(["scales", str(model), "-o", str(scales)]) == 0
    return model, scales


def test_silu_overflow_reports_only_the_numerical_failure(blowup, tmp_path, capsys):
    model, _ = blowup
    capsys.readouterr()
    out = str(tmp_path / "r.json")
    assert main(["audit", str(model), "--tokens", "8", "-o", out]) == 3
    assert capsys.readouterr().err == ("slanc: numerical failure: non-positive "
                                       "variance nan at norm 'layer0.norm2', token 7\n")
    assert main(["audit", str(model), "--policy", "fp64", "--tokens", "8",
                 "-o", out]) == 0
    assert capsys.readouterr().err == ""


def test_softmax_of_an_inf_score_reports_only_the_numerical_failure(tmp_path, capsys):
    # Query and key amplified 3000x: FP16 scores round to inf, and the
    # max-subtraction meets inf - inf.
    model = tmp_path / "m.safetensors"
    assert main(["gen-model", "--d", "64", "--layers", "1", "--seed", "1",
                 "--amplify", "w_q,w_k:3000", "-o", str(model)]) == 0
    capsys.readouterr()
    assert main(["audit", str(model), "--tokens", "8",
                 "-o", str(tmp_path / "r.json")]) == 3
    assert capsys.readouterr().err == ("slanc: numerical failure: non-positive "
                                       "variance nan at norm 'layer0.norm1', token 2\n")


def _commands(model: Path, scales: Path, out: Path) -> list:
    tokens = ["--tokens", "8"]
    return [["audit", str(model), "--scales", str(scales), *tokens, "-o", str(out)],
            ["compare", str(model), "--scales", str(scales), *tokens, "-o", str(out)]]


def test_a_late_bad_payload_beats_an_early_numerical_failure(blowup, tmp_path, capsys):
    # Undamaged, the model exits 3 at layer0.norm2 (pinned above).
    model, scales = blowup
    damaged, out = tmp_path / "m.safetensors", tmp_path / "r.json"
    shutil.copy(config_sidecar_path(str(model)), config_sidecar_path(str(damaged)))
    name = "model.layers.2.mlp.down_proj.weight"
    tensors = load_tensors(str(model))
    tensors[name][0, 0] = np.nan
    save_tensors(str(damaged), tensors)
    for argv in _commands(damaged, scales, out):
        assert main(argv) == 1, argv
        assert f"slanc: error: bad tensor {name!r}: non-finite" in capsys.readouterr().err
        assert not out.exists()


def test_a_foreign_fingerprint_beats_a_numerical_failure(blowup, tmp_path, capsys):
    # s = 2^-20 multiplies every norm input by 2^20: FP16 storage makes
    # it inf and the first LayerNorm's variance NaN.
    model, scales = blowup
    doc = json.loads(scales.read_text())
    epsilon = json.loads(Path(config_sidecar_path(str(model))).read_text())["epsilon"]
    doc["entries"] = [scale_entry(e["norm_id"], e["layer"], Formula(e["formula"]),
                                  2.0**-20, epsilon) for e in doc["entries"]]
    tiny, out = tmp_path / "tiny.json", tmp_path / "r.json"
    tiny.write_text(json.dumps(doc))
    for argv in _commands(model, tiny, out):  # the model's own fingerprint
        assert main(argv) == 3, argv
    capsys.readouterr()
    tiny.write_text(json.dumps(doc | {"fingerprint": "0" * 64}))
    for argv in _commands(model, tiny, out):
        assert main(argv) == 1, argv
        assert "fingerprint" in capsys.readouterr().err
        assert not out.exists()


# ── compare ──────────────────────────────────────────────────────────────


def test_compare_prints_three_rows_and_writes_json(amp, tmp_path, capsys):
    model, scales = amp
    out = tmp_path / "cmp.json"
    assert main(["compare", str(model), "--scales", str(scales),
                 "--tokens", "32", "--seed", "3", "-o", str(out)]) == 0
    lines = capsys.readouterr().out.rstrip("\n").split("\n")
    assert len(lines) == 5
    fp64 = lines[2].split()
    assert fp64[0] == "FP64"
    assert float(fp64[1]) == 0.0 and float(fp64[2]) == 0.0
    fp16_row = lines[3].split()
    assert fp16_row[0] == "FP16"
    assert int(fp16_row[3]) == 32  # pinned: every token overflows
    scaled = lines[4].split()
    assert scaled[0] == "FP16+SLaNC"
    assert float(scaled[1]) < 5e-3 and int(scaled[3]) == 0
    doc = json.loads(out.read_text())
    assert [r["mode"] for r in doc["rows"]] == ["FP64", "FP16", "FP16+SLaNC"]
    assert doc["tokens"] == 32


@pytest.mark.parametrize("placement", ["post-ln", "pre-ln"])
def test_audit_and_compare_let_the_token_block_go(placement, tmp_path, monkeypatch):
    # Each command hands the token block it read or generated to the
    # engine and keeps no reference to it, nor do forward, run_compare
    # and forward_passes once every pass holds its own start, so by the
    # first MLP nothing refers to it any more.
    model, table = str(tmp_path / "m.safetensors"), str(tmp_path / "t.json")
    np.save(tmp_path / "x.npy", np.random.default_rng(2).standard_normal((8, 16)))
    assert main(["gen-model", "--d", "16", "--layers", "1", "--heads", "2",
                 "--placement", placement, "-o", model]) == 0
    assert main(["scales", model, "-o", table]) == 0
    blocks, alive = [], []
    read, run_mlp = cli._token_inputs, engine.mlp_forward

    def recorded(args, config):
        block = read(args, config)
        blocks.append(weakref.ref(block))
        return block

    def spying(*args):
        alive.append(blocks[-1]() is not None)
        return run_mlp(*args)

    monkeypatch.setattr(cli, "_token_inputs", recorded)
    monkeypatch.setattr(engine, "mlp_forward", spying)
    for tokens in (["--tokens", "8"], ["--inputs", str(tmp_path / "x.npy")]):
        assert main(["audit", model, *tokens, "-o", str(tmp_path / "r.json")]) == 0
        assert main(["compare", model, "--scales", table, *tokens]) == 0
    assert len(blocks) == 4 and len(alive) == 2 * (1 + 3)  # an MLP per pass: audit 1, compare 3
    assert not any(alive)


def test_compare_requires_scales_flag(amp, capsys):
    model, _ = amp
    assert main(["compare", str(model), "--tokens", "4"]) == 1
    assert "slanc:" in capsys.readouterr().err


def test_compare_rejects_empty_token_request(amp, capsys):
    model, scales = amp
    assert main(["compare", str(model), "--scales", str(scales),
                 "--tokens", "0"]) == 1
    assert "--tokens must be positive" in capsys.readouterr().err
