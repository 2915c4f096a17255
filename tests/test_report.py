"""Tests for audit and comparison reports.

Oracles: hand-built audit records with known counts, hand-computed
relative-error fixtures, and pinned one-time measurements for the
amplified-model comparison.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from slanc.engine import FP16_POLICY, REFERENCE_POLICY, forward
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
    AuditReport,
    CompareReport,
    build_audit_report,
    relative_mismatch,
    run_compare,
)
from slanc.scales import compute_scale_table


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
    report = build_audit_report(result, graph, "fp16", seed=11)
    assert report.policy == "fp16"
    assert report.tokens == 8
    assert report.seed == 11
    assert [n.norm_id for n in report.norms] == list(graph.norm_ids)
    for summary, site in zip(report.norms, graph.norm_sites):
        audit = result.audit[summary.norm_id]
        assert summary.token_count == 8
        assert summary.histogram == audit.histogram
        assert summary.histogram.total == 8
        assert summary.layer == site.layer
        assert summary.scale_applied == 1.0
        assert summary.overflow_count == audit.overflowed.sum()
        assert summary.underflow_count == audit.underflowed.sum()
    assert report.total_overflows == sum(
        a.overflowed.sum() for a in result.audit.values()
    )
    assert report.total_underflows == sum(
        a.underflowed.sum() for a in result.audit.values()
    )
    assert report.fp16_max_finite == 65504.0
    assert report.fp16_min_normal == 2.0**-14


def test_audit_report_records_applied_scales(small_run):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    result = forward(graph, x0, FP16_POLICY, scales=table)
    report = build_audit_report(result, graph, "fp16", seed=None)
    assert report.seed is None
    for summary in report.norms:
        assert summary.scale_applied == table.entries[summary.norm_id].s


def test_audit_report_json_round_trip(small_run):
    graph, result = small_run
    report = build_audit_report(result, graph, "fp16", seed=11)
    text = report.to_json_text()
    assert AuditReport.from_json_text(text) == report
    assert report.to_json_text() == text  # emission is deterministic
    assert text.endswith("\n")


def test_audit_report_csv_shape_and_sums(small_run):
    graph, result = small_run
    report = build_audit_report(result, graph, "fp16", seed=11)
    lines = report.to_csv_text().rstrip("\n").split("\n")
    assert lines[0] == "bucket," + ",".join(graph.norm_ids)
    assert len(lines) == 1 + 62  # below + 60 buckets + above
    assert lines[1].startswith("below,")
    assert lines[2].startswith("2^-30,")
    assert lines[-2].startswith("2^29,")
    assert lines[-1].startswith("above,")
    table = [[int(c) for c in line.split(",")[1:]] for line in lines[1:]]
    for col in range(len(graph.norm_ids)):
        assert sum(row[col] for row in table) == report.tokens


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
    report = run_compare(graph, tokens, table, seed=3)
    assert report.tokens == 32
    assert report.seed == 3
    assert [r.mode for r in report.rows] == ["FP64", "FP16", "FP16+SLaNC"]
    fp64, fp16_row, scaled = report.rows
    assert (fp64.median_rel_err, fp64.max_rel_err) == (0.0, 0.0)
    assert fp64.overflow_count == 0 and fp64.underflow_count == 0
    assert fp16_row.median_rel_err > 0.5
    assert fp16_row.overflow_count == 32
    assert scaled.median_rel_err < 5e-3
    assert scaled.max_rel_err < 5e-2
    assert scaled.overflow_count == 0
    assert scaled.underflow_count == 0


def test_compare_report_json_round_trip(small_run):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    report = run_compare(graph, x0, table, seed=11)
    text = report.to_json_text()
    assert CompareReport.from_json_text(text) == report
    assert report.to_json_text() == text


def test_compare_report_text_rendering(small_run):
    graph, _ = small_run
    table = compute_scale_table(graph)
    x0 = np.random.default_rng(11).standard_normal((8, 16))
    text = run_compare(graph, x0, table).to_text()
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
    report = run_compare(graph, x0, table)
    fp16_row = report.rows[1]
    assert fp16_row.overflow_count == 0
    assert fp16_row.median_rel_err < 5e-3  # only rounding noise
