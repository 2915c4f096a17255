"""Smoke tests of the benchmark itself (tiny shapes, a few seconds each).

    python -m pytest bench
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, workload: str, trace: int, *extra: str):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), *extra]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
@pytest.mark.parametrize("workload", ["flagship", "wide-scales", "deep-preln"])
def test_smoke_run_reports_every_metric(workload, trace, section):
    proc = run_bench(ROOT, workload, trace, "--smoke")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    for name, metric in result["metrics"].items():
        assert isinstance(metric["value"], (int, float)), name
    if trace:
        assert result["metrics"]["trace.overhead_ratio"]["value"] > 0
        assert result["metrics"]["engine.norm_forward.calls"]["value"] > 0
    else:
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_checkout_without_the_program_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    cmd = [sys.executable, "bench/run.py", "--workload", "flagship", "--seed", "1",
           "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True,
                          timeout=170, env=env)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_layer_metrics_split_self_time_and_tags():
    spans = [
        ["cli.audit", None, 0.0, 10.0, None],
        ["engine.forward", "fp16", 1.0, 9.0, 0],
        ["engine.norm_forward", None, 2.0, 5.0, 1],
        ["fp16.accumulate_sum_of_squares", None, 3.0, 4.0, 2],
        ["engine.norm_forward", None, 6.0, 7.0, 1],
    ]
    result = {"spans": spans, "counters": {"fp16.accumulated_elements": 4.0}}
    metrics = tracing.layer_metrics([result], checkpoint_elements=10)
    assert metrics["engine.forward.fp16_s"] == 8.0
    assert metrics["engine.forward.fp64_s"] == 0.0
    assert metrics["engine.forward.self_s"] == 4.0
    assert metrics["engine.norm_forward.s"] == 4.0
    assert metrics["engine.norm_forward.self_s"] == 3.0
    assert metrics["engine.norm_forward.calls"] == 2
    assert metrics["fp16.accumulate.ns_per_element"] == 0.25e9
    assert metrics["model.fingerprint.calls"] == 0
    assert tracing.self_time_problems([result]) == []
