"""End-to-end tests of the command-line interface.

Everything runs in-process through main(argv) so exit codes and stdout
are observable without subprocesses; only the checks that need a fresh
interpreter (clean stderr, what `import slanc.cli` loads) start one.
The amplified model fixture pins counts from a one-time run: with e and
g amplified 8x on layer 0 the MLP sums of squares pass binary16's max
finite value for every token.
"""

from __future__ import annotations

import json
import os
import struct
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import slanc
from slanc import serialization
from slanc.cli import main
from slanc.model import (
    DecoderWeights,
    MlpKind,
    ModelConfig,
    ModelGraph,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
    config_sidecar_path,
    load_safetensors,
    save_safetensors,
)
from slanc.safetensors_io import load_tensors, save_tensors
from slanc.scales import ScaleTable, compute_scale_table


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
        ["gen-model", "--d", "32", "--layers", "1"],  # missing -o
        ["gen-model", "--layers", "1", "-o", out],  # missing --d
    ]
    for argv in bad:
        assert main(argv) == 1, argv
        assert "slanc:" in capsys.readouterr().err


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


# ── scales ───────────────────────────────────────────────────────────────


def test_scales_matches_api_and_reruns_identically(amp, capsys, tmp_path):
    model, scales = amp
    text = scales.read_text()
    table = ScaleTable.from_json_text(text)
    graph = load_safetensors(str(model))
    api_table = compute_scale_table(graph)
    assert table == api_table
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
    table = ScaleTable.from_json_text(scales.read_text())
    assert sorted(table.entries) == ["layer0.norm1", "layer0.norm2"]
    assert all(entry.s == 8.0 for entry in table.entries.values())


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
    layer = DecoderWeights(
        gamma1=np.ones(4),
        gamma2=np.ones(4),
        w_q=eye, w_k=eye,
        w_v=np.zeros((4, 4)),
        p=np.zeros((4, 4)),
        e=eye, g=-eye,
    )
    graph = ModelGraph(config=config, layers=(layer,))
    path = tmp_path / "degenerate.safetensors"
    save_safetensors(graph, str(path))
    serialization.atomic_write_text(
        config_sidecar_path(str(path)), serialization.dumps(config.to_dict())
    )
    assert main(["scales", str(path), "-o", str(tmp_path / "t.json")]) == 2
    err = capsys.readouterr().err
    assert "degenerate" in err
    assert "layer0.norm2" in err


def test_scales_on_missing_model_is_io_error(tmp_path, capsys):
    assert main(["scales", str(tmp_path / "nope.safetensors"),
                 "-o", str(tmp_path / "t.json")]) == 1
    capsys.readouterr()


def test_malformed_tensor_shape_exits_1_naming_the_tensor(tmp_path, capsys):
    header = json.dumps({"model.layers.0.input_layernorm.weight": {
        "dtype": "F32", "shape": [-2, -1], "data_offsets": [0, 8]}}).encode()
    path = tmp_path / "bad.safetensors"
    path.write_bytes(struct.pack("<Q", len(header)) + header + bytes(8))
    assert main(["scales", str(path), "-o", str(tmp_path / "t.json")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("slanc: error: shape must be a list of non-negative")
    assert "'model.layers.0.input_layernorm.weight'" in err


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
    table = ScaleTable.from_json_text(scales.read_text())
    for norm in doc["norms"]:
        assert norm["scale_applied"] == table.entries[norm["norm_id"]].s


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


def test_audit_input_validation(amp, tmp_path, capsys):
    model, _ = amp
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


def test_compare_requires_scales_flag(amp, capsys):
    model, _ = amp
    assert main(["compare", str(model), "--tokens", "4"]) == 1
    assert "slanc:" in capsys.readouterr().err


def test_compare_rejects_empty_token_request(amp, capsys):
    model, scales = amp
    assert main(["compare", str(model), "--scales", str(scales),
                 "--tokens", "0"]) == 1
    assert "--tokens must be positive" in capsys.readouterr().err
