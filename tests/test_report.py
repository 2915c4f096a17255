"""Tests for audit and comparison reports.

Oracles: the engine's own audits with known counts, hand-computed
relative-error fixtures, pinned one-time measurements for the
amplified-model comparison, and the pinned bytes of every report the
CLI writes for one small seeded model.
"""

from __future__ import annotations

import hashlib
import json
import math

import numpy as np
import pytest

from slanc import report, serialization
from slanc.cli import main
from slanc.engine import FP16_POLICY, NonPositiveVarianceError, forward, forward_passes
from slanc.model import (
    InitSpec,
    MlpKind,
    ModelConfig,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
    generate_synthetic,
)
from slanc.report import (
    audit_csv,
    build_audit_report,
    compare_text,
    relative_mismatch,
    run_compare,
)
from slanc.scales import ScaleTableError, compute_scale_table


def _config(d=16, layers=2, heads=2, mlp=32,
            placement=ResidualPlacement.POST_LN,
            mlp_kind=MlpKind.LLAMA_GATED) -> ModelConfig:
    return ModelConfig(
        d_model=d, n_heads=heads, head_dim=d // heads, mlp_hidden=mlp,
        n_layers=layers, norm_kind=NormKind.RMS_NORM,
        residual_placement=placement, mlp_kind=mlp_kind,
        nonlinearity=Nonlinearity.SILU, epsilon=1e-5,
    )


@pytest.fixture(scope="module")
def small_run():
    graph = generate_synthetic(_config(), InitSpec(std=0.05), seed=5)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    result = forward(graph, x0, FP16_POLICY)
    return graph, result


@pytest.fixture(scope="module")
def amplified_model():
    cfg = _config(d=256, layers=1, heads=4, mlp=1024, mlp_kind=MlpKind.STANDARD)
    init = InitSpec(std=0.04, amplify={"e": 8.0, "g": 8.0}, amplify_layers=(0,))
    graph = generate_synthetic(cfg, init, seed=7)
    tokens = np.random.default_rng(3).standard_normal((32, 256))
    return graph, tokens


# ── audit report ─────────────────────────────────────────────────────────


def test_build_audit_report_counts(small_run):
    graph, result = small_run
    doc = build_audit_report(result, graph, "fp16", seed=11)
    assert doc["policy"] == "fp16"
    assert doc["tokens"] == 8
    assert doc["seed"] == 11
    assert [n["norm_id"] for n in doc["norms"]] == list(graph.norm_ids)
    for summary, site in zip(doc["norms"], graph.norm_sites):
        audit = result.audit[summary["norm_id"]]
        histogram = summary["histogram"]
        assert summary["token_count"] == 8
        assert histogram == report.histogram(audit.raw_sums)
        assert histogram["below"] + sum(histogram["counts"]) + histogram["above"] == 8
        assert summary["layer"] == site.layer
        assert summary["scale_applied"] == 1.0
        assert summary["overflow_count"] == audit.overflowed.sum()
        assert summary["underflow_count"] == audit.underflowed.sum()
    assert sum(n["overflow_count"] for n in doc["norms"]) == sum(
        a.overflowed.sum() for a in result.audit.values()
    )
    assert sum(n["underflow_count"] for n in doc["norms"]) == sum(
        a.underflowed.sum() for a in result.audit.values()
    )
    assert doc["fp16_max_finite"] == 65504.0
    assert doc["fp16_min_normal"] == 2.0**-14


def test_audit_report_records_applied_scales(small_run):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    result = forward(graph, x0, FP16_POLICY, scales=table)
    doc = build_audit_report(result, graph, "fp16", seed=None)
    assert doc["seed"] is None
    s_by_norm = {entry["norm_id"]: entry["s"] for entry in table["entries"]}
    for summary in doc["norms"]:
        assert summary["scale_applied"] == s_by_norm[summary["norm_id"]]


def test_audit_report_json_round_trip(small_run):
    graph, result = small_run
    doc = build_audit_report(result, graph, "fp16", seed=11)
    text = serialization.dumps(doc)
    assert json.loads(text) == doc
    assert serialization.dumps(build_audit_report(result, graph, "fp16", seed=11)) == text
    assert text.endswith("\n")


def test_audit_report_csv_shape_and_sums(small_run):
    graph, result = small_run
    doc = build_audit_report(result, graph, "fp16", seed=11)
    lines = audit_csv(doc).rstrip("\n").split("\n")
    assert lines[0] == "bucket," + ",".join(graph.norm_ids)
    assert len(lines) == 1 + 62  # below + 60 buckets + above
    assert lines[1].startswith("below,")
    assert lines[2].startswith("2^-30,")
    assert lines[-2].startswith("2^29,")
    assert lines[-1].startswith("above,")
    table = [[int(c) for c in line.split(",")[1:]] for line in lines[1:]]
    for col in range(len(graph.norm_ids)):
        assert sum(row[col] for row in table) == doc["tokens"]


# ── relative mismatch ────────────────────────────────────────────────────


def test_relative_mismatch_identical_is_zero():
    x = np.random.default_rng(0).standard_normal((3, 4))
    assert relative_mismatch(x, x) == (0.0, 0.0)


def test_relative_mismatch_hand_computed():
    # rms([3,4]) = sqrt(12.5) ~ 3.536; denominators max(|ref|, rms) are
    # (3.536, 4), errors (0, 0.4) -> ratios (0, 0.1).
    ref = np.array([3.0, 4.0])
    cand = np.array([3.0, 4.4])
    median, peak = relative_mismatch(ref, cand)
    assert math.isclose(median, 0.05, rel_tol=1e-12)
    assert math.isclose(peak, 0.1, rel_tol=1e-12)


def test_relative_mismatch_zero_reference_uses_unit_floor():
    ref = np.zeros(4)
    cand = np.array([0.5, 0.0, 0.0, -0.25])
    median, peak = relative_mismatch(ref, cand)
    assert peak == 0.5
    assert median == 0.125


def test_relative_mismatch_propagates_non_finite():
    ref = np.ones(4)
    cand = np.array([1.0, math.inf, 1.0, 1.0])
    _, peak = relative_mismatch(ref, cand)
    assert math.isinf(peak)
    cand = np.array([1.0, math.nan, 1.0, 1.0])
    _, peak = relative_mismatch(ref, cand)
    assert math.isnan(peak)


# ── comparison runs ──────────────────────────────────────────────────────


def test_run_compare_modes_and_pinned_errors(amplified_model):
    # Pinned one-time run: FP16 overflows on all 32 tokens and its final
    # states are garbage (zeros, median relative error ~0.68), while the
    # scaled run tracks the reference to ~5e-4.
    graph, tokens = amplified_model
    table = compute_scale_table(graph)
    doc = run_compare(graph, tokens, table, seed=3)
    assert doc["tokens"] == 32
    assert doc["seed"] == 3
    assert [r["mode"] for r in doc["rows"]] == ["FP64", "FP16", "FP16+SLaNC"]
    fp64, fp16_row, scaled = doc["rows"]
    assert (fp64["median_rel_err"], fp64["max_rel_err"]) == (0.0, 0.0)
    assert fp64["overflow_count"] == 0 and fp64["underflow_count"] == 0
    assert fp16_row["median_rel_err"] > 0.5
    assert fp16_row["overflow_count"] == 32
    assert scaled["median_rel_err"] < 5e-3
    assert scaled["max_rel_err"] < 5e-2
    assert scaled["overflow_count"] == 0
    assert scaled["underflow_count"] == 0


def test_compare_refuses_a_foreign_table_after_one_walk(small_run, monkeypatch):
    # The three passes share one walk; a stream's fingerprint is known
    # only once it is done, so the table is refused then.
    graph, _ = small_run
    other = generate_synthetic(_config(), InitSpec(std=0.05), seed=6)
    walks = []

    class Counted:
        config = graph.config
        fingerprint = graph.fingerprint

        def execution_order(self):
            walks.append(1)
            return graph.execution_order()

    with pytest.raises(ScaleTableError, match="fingerprint"):
        run_compare(Counted(), np.ones((2, 16)), compute_scale_table(other))
    assert len(walks) == 1


def test_compare_report_json_round_trip(small_run):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    doc = run_compare(graph, x0, table, seed=11)
    text = serialization.dumps(doc)
    assert json.loads(text) == doc
    assert serialization.dumps(run_compare(graph, x0, table, seed=11)) == text


def test_compare_report_text_rendering(small_run):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    text = compare_text(run_compare(graph, x0, table))
    lines = text.rstrip("\n").split("\n")
    assert lines[0].split() == [
        "mode", "median_rel_err", "max_rel_err", "overflows", "underflows",
    ]
    assert len(lines) == 5  # header, rule, three mode rows
    assert lines[2].startswith("FP64")
    assert lines[4].startswith("FP16+SLaNC")


def test_reference_run_tracks_fp64_row_exactly(small_run):
    # The benign small model should not overflow even in plain FP16.
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    fp16_row = run_compare(graph, x0, table)["rows"][1]
    assert fp16_row["overflow_count"] == 0
    assert fp16_row["median_rel_err"] < 5e-3  # only rounding noise


def test_compare_names_the_norm_and_token_that_failed(small_run, monkeypatch):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    untouched = run_compare(graph, x0, table)

    def plain_dies(model, x, passes):
        results = forward_passes(model, x, passes)
        return [NonPositiveVarianceError("layer1.norm2", 5, -0.25)
                if (policy, scales) == (FP16_POLICY, None) else result
                for (policy, scales), result in zip(passes, results)]

    monkeypatch.setattr(report, "forward_passes", plain_dies)
    doc = run_compare(graph, x0, table)
    fp64, fp16_row, scaled = doc["rows"]
    assert fp16_row == {
        "mode": "FP16", "median_rel_err": math.inf, "max_rel_err": math.inf,
        "overflow_count": 0, "underflow_count": 0,
        "failed_norm": "layer1.norm2", "failed_token": 5,
    }
    assert (fp64, scaled) == (untouched["rows"][0], untouched["rows"][2])
    assert json.loads(serialization.dumps(doc)) == doc
    lines = compare_text(doc).rstrip("\n").split("\n")
    assert len(lines) == 6  # header, rule, three mode rows, one failure
    assert lines[3].split() == ["FP16", "inf", "inf", "0", "0"]
    assert lines[5] == ("FP16 failed: non-positive variance at norm "
                        "'layer1.norm2', token 5")
    assert compare_text(untouched).count("\n") == 5  # no failure, no line


# ── golden bytes ─────────────────────────────────────────────────────────

# SHA-256 of the scale table and each report file and the exact stdout
# of each CLI run, for one small seeded model (d=16, two post-LN gated
# layers with e and g amplified 128x, so plain FP16 overflows on every
# token) and 8 Gaussian tokens drawn with seed 11.  Tables and reports
# must stay byte-identical across refactors; a change that means to
# move them updates these values and says so.
GOLDEN_REPORTS = {
    "scales.json": (
        "910118ba4d4693c47aa154abc4268fc120f0ccd8a029a10601840b26cd15cee9",
        "wrote 4 scales to scales.json\n",
    ),
    "audit.json": (
        "22ab225ee1e9ffe5f25260d728433ecaf93f65315f0b54c9a71fe3e5062ace57",
        "8 overflows, 0 underflows over 8 tokens x 4 norms\n",
    ),
    "audit-scaled.json": (
        "a01de902ff09bf3c57434329f888b5a29fbb98333edec696c961d10f2c17ac2d",
        "0 overflows, 0 underflows over 8 tokens x 4 norms\n",
    ),
    "audit.csv": (
        "dc06abceb3a017f36e8b51bfd5b89b17c20675603752331aa9e27a9ae02c6f59",
        "8 overflows, 0 underflows over 8 tokens x 4 norms\n",
    ),
    "compare.json": (
        "f5c9d9f9bbbee8b02960f19627ac75192e2403350cdb20f3440a8ab1c91e49e1",
        "mode          median_rel_err     max_rel_err  overflows  underflows\n"
        "-------------------------------------------------------------------\n"
        "FP64                       0               0          0           0\n"
        "FP16                0.720339               1          8           0\n"
        "FP16+SLaNC       0.000633656      0.00941948          0           0\n",
    ),
}


def test_report_bytes_match_golden(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)  # relative paths keep stdout machine-independent
    model, scales = "m.safetensors", "scales.json"
    assert main(["gen-model", "--d", "16", "--layers", "2", "--heads", "2",
                 "--mlp-hidden", "32", "--seed", "5", "--std", "0.05",
                 "--amplify", "e,g:128", "-o", model]) == 0
    capsys.readouterr()
    tokens = ["--tokens", "8", "--seed", "11"]
    runs = {
        "scales.json": ["scales", model],
        "audit.json": ["audit", model, *tokens],
        "audit-scaled.json": ["audit", model, "--scales", scales, *tokens],
        "audit.csv": ["audit", model, "--format", "csv", *tokens],
        "compare.json": ["compare", model, "--scales", scales, *tokens],
    }
    seen = {}
    for name, argv in runs.items():
        assert main([*argv, "-o", name]) == 0
        seen[name] = (hashlib.sha256((tmp_path / name).read_bytes()).hexdigest(),
                      capsys.readouterr().out)
    assert seen == GOLDEN_REPORTS
