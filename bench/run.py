#!/usr/bin/env python3
"""End-to-end benchmark of the slanc command-line pipeline.

One run builds a synthetic checkpoint with `slanc gen-model` (the
set-up, repeated and reported as a median), writes a seeded Gaussian
token matrix, then repeats the README pipeline -- `scales`, plain FP16
`audit`, scaled `audit --fail-on-overflow`, `compare` -- one child
process at a time until `--seconds` would be exceeded, checking every
output.  With `--trace 1` it instead runs the pipeline once without and
once with per-function spans (see tracing.py) and reports per-layer
metrics; it makes one pass whatever `--seconds` says.  The last line of stdout is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

Usage, from the repository root:

    python3 bench/run.py --workload flagship --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload deep-preln --seed 1 --seconds 50 --trace 1

`--smoke` swaps in tiny shapes of the same architectures (for tests).
Exit codes: 0 all checks passed, 1 some check failed (the result is
still printed), 2 the pipeline could not be set up (nothing printed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".bench_work"

SETUP_REPEATS = 3
IMPORT_REPEATS = 3
CHILD_TIMEOUT_S = 150.0
# Stop starting rounds once a run would pass this, so that it always
# ends inside the 180 s a run is allowed.
RUN_BUDGET_S = 150.0
KIB_PER_MB = 1024.0  # ru_maxrss is in KiB on Linux

MODEL = "model.safetensors"
TOKENS = "tokens.npy"


@dataclass(frozen=True)
class Workload:
    d: int
    layers: int
    model_seed: int
    amplify: str
    tokens: int
    placement: str = "post-ln"
    mlp_hidden: int | None = None
    # Acceptance 4's verdict: plain FP16 overflows and the scale table
    # rescues it.  Deep pre-LN models break the second half (a known
    # defect), so that workload reports its overflows without a gate.
    rescued: bool = True

    def gen_model_argv(self) -> list[str]:
        argv = ["gen-model", "--d", str(self.d), "--layers", str(self.layers),
                "--seed", str(self.model_seed), "--placement", self.placement,
                "--amplify", self.amplify, "-o", MODEL]
        if self.mlp_hidden is not None:
            argv += ["--mlp-hidden", str(self.mlp_hidden)]
        return argv


# Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS = {
    "flagship": Workload(d=256, layers=4, model_seed=7, amplify="e,g:32", tokens=256),
    "wide-scales": Workload(d=1024, layers=2, model_seed=11, amplify="e,g:8",
                            tokens=16, mlp_hidden=2816),
    "deep-preln": Workload(d=128, layers=48, model_seed=3, amplify="e,g:48",
                           tokens=16, placement="pre-ln", rescued=False),
}

SMOKE_WORKLOADS = {
    "flagship": Workload(d=64, layers=2, model_seed=7, amplify="e,g:128", tokens=16),
    "wide-scales": Workload(d=128, layers=1, model_seed=11, amplify="e,g:128",
                            tokens=4, mlp_hidden=352),
    "deep-preln": Workload(d=32, layers=6, model_seed=3, amplify="e,g:48",
                           tokens=8, placement="pre-ln", rescued=False),
}

# Every end-to-end metric, name -> unit, all lower-is-better; the run
# prints each with its sample count.
END_TO_END = {
    "setup_s": "s",             # gen-model, median of the set-up repeats
    "scales_s": "s",            # time to a scale table
    "audit_plain_s": "s",       # audit --policy fp16, no table
    "audit_scaled_s": "s",      # audit with the table: time to a verdict
    "compare_s": "s",
    "pipeline_s": "s",          # the four steps above, one round
    "peak_rss_mb": "MB",        # largest child peak RSS of a round
    "scaled_max_rel_err": "ratio",  # FP16+SLaNC row of compare
    "scaled_overflows": "count",    # scaled audit's total
}
# The ones in the result line, which BENCHMARK.json bounds.  Over ten
# runs on a 2-vCPU machine a single step's wall time spread by up to
# 0.34 (quartile distance over median) and pipeline_s, their sum, by at
# most 0.23, against a largest allowed bound of 0.25.  The two accuracy
# figures depend on the seed alone: scaled_overflows is 0 on the rescued
# workloads, so no share of it can bound it, and scaled_max_rel_err on
# deep-preln spreads by more than 0.25 over one ten-seed draw in five.
RESULT = ("setup_s", "pipeline_s", "peak_rss_mb")


class SetupError(Exception):
    """The pipeline cannot start; the run prints no result."""


@dataclass(frozen=True)
class Step:
    code: int
    wall_s: float
    peak_rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], work: Path, label: str) -> Step:
    """Run one child to completion, timing it and reading its peak RSS."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    out_path, err_path = work / f"{label}.stdout", work / f"{label}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, cwd=work, env=env)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Step(
        code=proc.returncode,
        wall_s=wall,
        peak_rss_mb=usage.ru_maxrss / KIB_PER_MB,
        stdout=out_path.read_text(errors="replace"),
        stderr=err_path.read_text(errors="replace"),
    )


def run_cli(argv: list[str], work: Path, label: str) -> Step:
    return run_child([sys.executable, "-m", "slanc.cli", *argv], work, label)


# ── correctness checks ───────────────────────────────────────────────────


class Ledger:
    """Operations attempted and the checks each one failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: list[str] = []
        self.digests: dict[str, str] = {}

    def record(self, label: str, problems: list[str]) -> None:
        self.attempted += 1
        if problems:
            self.failures.append(f"{label}: " + "; ".join(problems))

    def digest(self, key: str, data: bytes) -> list[str]:
        """Remember an output's SHA-256; a repeat that differs is a problem."""
        sha = hashlib.sha256(data).hexdigest()
        first = self.digests.setdefault(key, sha)
        return [] if sha == first else [f"{key} differs from an earlier repeat"]


def exit_problems(step: Step, allowed: tuple[int, ...] = (0,)) -> list[str]:
    if step.code in allowed:
        return []
    tail = step.stderr.strip().splitlines()[-1:] or ["no stderr"]
    return [f"exit {step.code} ({tail[0]})"]


def read_json(path: Path) -> tuple[dict | None, bytes, list[str]]:
    try:
        data = path.read_bytes()
        return json.loads(data), data, []
    except (OSError, ValueError) as err:
        return None, b"", [f"cannot read {path.name}: {err}"]


def check_gen_model(ledger: Ledger, step: Step) -> str:
    problems = exit_problems(step)
    fingerprint = step.stdout.strip()
    problems += ledger.digest("fingerprint", fingerprint.encode())
    ledger.record("gen-model", problems)
    if problems:
        raise SetupError("gen-model failed: " + "; ".join(problems))
    return fingerprint


def check_scales(ledger: Ledger, step: Step, path: Path, fingerprint: str) -> None:
    problems = exit_problems(step)
    if not problems:
        doc, data, problems = read_json(path)
        if doc is not None:
            problems += ledger.digest("scales", data)
            if doc.get("fingerprint") != fingerprint:
                problems.append("table fingerprint differs from gen-model's")
    ledger.record("scales", problems)


def audit_problems(doc: dict, tokens: int) -> list[str]:
    """Histogram totals; also stores the report's overflow and underflow sums."""
    problems = []
    overflows = underflows = 0
    for norm in doc["norms"]:
        hist = norm["histogram"]
        total = hist["below"] + sum(hist["counts"]) + hist["above"]
        if total != tokens or norm["token_count"] != tokens:
            problems.append(f"{norm['norm_id']} histogram totals {total}, "
                            f"not {tokens} tokens")
        overflows += norm["overflow_count"]
        underflows += norm["underflow_count"]
    doc["total_overflows"], doc["total_underflows"] = overflows, underflows
    return problems


def check_audit(ledger: Ledger, step: Step, path: Path, key: str,
                tokens: int, scaled: bool, rescued: bool) -> dict | None:
    """Checks one audit; returns its report when it could be read."""
    problems = exit_problems(step, (0, 4) if scaled else (0,))
    doc = None
    if step.code in (0, 4):
        doc, data, read_problems = read_json(path)
        problems += read_problems
    if doc is not None:
        problems += ledger.digest(key, data)
        try:
            problems += audit_problems(doc, tokens)
        except (KeyError, TypeError) as err:
            problems.append(f"unexpected audit layout: {err!r}")
            doc = None
    if doc is not None:
        overflows, underflows = doc["total_overflows"], doc["total_underflows"]
        if scaled and (step.code == 4) != (overflows > 0):
            problems.append(f"exit {step.code} disagrees with {overflows} overflows")
        if rescued and not scaled and overflows == 0:
            problems.append("plain FP16 did not overflow")
        if rescued and scaled and (overflows or underflows):
            problems.append(f"scaled FP16 has {overflows} overflows, "
                            f"{underflows} underflows")
    ledger.record(key, problems)
    return doc


def check_compare(ledger: Ledger, step: Step, path: Path,
                  scaled_audit: dict | None) -> dict | None:
    """Checks compare; returns the FP16+SLaNC row when it could be read."""
    problems = exit_problems(step)
    doc = None
    if not problems:
        doc, data, problems = read_json(path)
    row = None
    if doc is not None:
        problems += ledger.digest("compare", data)
        try:
            rows = {r["mode"]: r for r in doc["rows"]}
            fp64 = rows.get("FP64")
            if fp64 is None or any(fp64[k] != 0 for k in (
                    "median_rel_err", "max_rel_err", "overflow_count", "underflow_count")):
                problems.append(f"FP64 row is not zero: {fp64}")
            row = rows.get("FP16+SLaNC")
            if row is None:
                problems.append("no FP16+SLaNC row")
            elif scaled_audit is None:
                problems.append("no scaled audit to compare overflows with")
            elif row["overflow_count"] != scaled_audit["total_overflows"]:
                problems.append(f"scaled row has {row['overflow_count']} overflows, "
                                f"the scaled audit {scaled_audit['total_overflows']}")
        except (KeyError, TypeError) as err:
            problems.append(f"unexpected compare layout: {err!r}")
            row = None
    ledger.record("compare", problems)
    return row


# ── one pass of the pipeline ─────────────────────────────────────────────


def pipeline(wl: Workload, work: Path, ledger: Ledger, fingerprint: str,
             run, scales_runs: int) -> dict[str, Step | dict | None]:
    """scales (scales_runs times), plain audit, scaled audit, compare.

    `run(argv, label)` executes one CLI step; the checks are the same
    whether it is the real CLI or the in-process tracing runner.
    """
    scales_steps = []
    for i in range(scales_runs):
        table = f"scales{i}.json"
        step = run(["scales", MODEL, "-o", table], f"scales{i}")
        check_scales(ledger, step, work / table, fingerprint)
        scales_steps.append(step)
    plain = run(["audit", MODEL, "--policy", "fp16", "--inputs", TOKENS,
                 "-o", "plain.json"], "audit_plain")
    check_audit(ledger, plain, work / "plain.json", "audit_plain",
                wl.tokens, scaled=False, rescued=wl.rescued)
    scaled = run(["audit", MODEL, "--policy", "fp16", "--scales", "scales0.json",
                  "--inputs", TOKENS, "-o", "scaled.json", "--fail-on-overflow"],
                 "audit_scaled")
    scaled_doc = check_audit(ledger, scaled, work / "scaled.json", "audit_scaled",
                             wl.tokens, scaled=True, rescued=wl.rescued)
    compare = run(["compare", MODEL, "--scales", "scales0.json", "--inputs", TOKENS,
                   "-o", "compare.json"], "compare")
    row = check_compare(ledger, compare, work / "compare.json", scaled_doc)
    return {"scales": scales_steps, "audit_plain": plain, "audit_scaled": scaled,
            "compare": compare, "scaled_doc": scaled_doc, "scaled_row": row}


def write_tokens(wl: Workload, seed: int, work: Path) -> None:
    """The workload's input: a seeded Gaussian token matrix."""
    rng = np.random.default_rng(seed)
    np.save(work / TOKENS, rng.standard_normal((wl.tokens, wl.d)))


def measure(wl: Workload, seed: int, seconds: float, work: Path,
            ledger: Ledger, started: float) -> dict[str, list[float]]:
    """The untraced run: set-up repeats, then pipeline rounds."""
    samples: dict[str, list[float]] = defaultdict(list)
    write_tokens(wl, seed, work)
    fingerprint = ""
    for i in range(SETUP_REPEATS):
        step = run_cli(wl.gen_model_argv(), work, f"gen{i}")
        fingerprint = check_gen_model(ledger, step)
        samples["setup_s"].append(step.wall_s)

    def run(argv, label):
        return run_cli(argv, work, label)

    measure_start = time.perf_counter()
    longest = 0.0
    while True:
        round_start = time.perf_counter()
        # The first round runs `scales` twice so that a run always has
        # two tables to compare byte for byte.
        r = pipeline(wl, work, ledger, fingerprint, run,
                     scales_runs=1 if samples["pipeline_s"] else 2)
        four = [r["scales"][0], r["audit_plain"], r["audit_scaled"], r["compare"]]
        samples["scales_s"] += [s.wall_s for s in r["scales"]]
        for key in ("audit_plain", "audit_scaled", "compare"):
            samples[f"{key}_s"].append(r[key].wall_s)
        samples["pipeline_s"].append(sum(s.wall_s for s in four))
        samples["peak_rss_mb"].append(max(s.peak_rss_mb for s in r["scales"] + four))
        if r["scaled_doc"] is not None:
            samples["scaled_overflows"].append(r["scaled_doc"]["total_overflows"])
        if r["scaled_row"] is not None:
            samples["scaled_max_rel_err"].append(r["scaled_row"]["max_rel_err"])
        now = time.perf_counter()
        longest = max(longest, now - round_start)
        if (now - measure_start + longest > seconds
                or now - started + longest > RUN_BUDGET_S):
            return samples


# ── the traced run ───────────────────────────────────────────────────────


def import_seconds(work: Path) -> list[float]:
    """Fresh-process `import slanc.cli`, timed inside the child."""
    code = ("import time; t = time.perf_counter(); import slanc.cli; "
            "print(time.perf_counter() - t)")
    times = []
    for i in range(IMPORT_REPEATS):
        step = run_child([sys.executable, "-c", code], work, f"import{i}")
        if step.code != 0:
            raise SetupError("cannot import slanc.cli: " + step.stderr.strip())
        times.append(float(step.stdout))
    return times


def traced_pass(wl: Workload, seed: int, work: Path, ledger: Ledger,
                run_id: str, traced: bool) -> tuple[list[dict], dict[str, Step], dict]:
    """The pipeline in tracing.py children, with or without spans."""
    work.mkdir()
    write_tokens(wl, seed, work)
    results: list[dict] = []
    steps: dict[str, Step] = {}

    def run(argv, label):
        out = f"{label}.trace.json"
        step = run_child([sys.executable, str(BENCH_DIR / "tracing.py"),
                          "--trace", str(int(traced)), "--run-id", run_id,
                          "--out", out, "--", *argv], work, label)
        steps[label] = step
        try:
            results.append(json.loads((work / out).read_text()))
        except (OSError, ValueError):
            pass  # the step's own checks report the failure
        return step

    fingerprint = check_gen_model(ledger, run(wl.gen_model_argv(), "gen-model"))
    return results, steps, pipeline(wl, work, ledger, fingerprint, run, scales_runs=1)


def trace_run(wl: Workload, seed: int, work: Path, ledger: Ledger) -> dict[str, float]:
    metrics = {"cli.import_s": statistics.median(import_seconds(work))}
    run_id = f"{os.getpid()}-{time.time_ns()}"
    plain, steps, _ = traced_pass(wl, seed, work / "untraced", ledger, run_id, False)
    traced, _, outputs = traced_pass(wl, seed, work / "traced", ledger, run_id, True)
    metrics["cli.scales.peak_rss_mb"] = steps["scales0"].peak_rss_mb
    metrics["cli.audit.peak_rss_mb"] = max(steps["audit_plain"].peak_rss_mb,
                                           steps["audit_scaled"].peak_rss_mb)
    metrics["cli.compare.peak_rss_mb"] = steps["compare"].peak_rss_mb
    metrics["cli.scales.wall_s"] = steps["scales0"].wall_s
    for label in ("audit_plain", "audit_scaled", "compare"):
        metrics[f"cli.{label}.wall_s"] = steps[label].wall_s
    metrics.update(tracing.layer_metrics(traced, checkpoint_elements(work / "traced" / MODEL)))
    if outputs["scaled_doc"] is not None:
        metrics["report.scaled_overflows"] = outputs["scaled_doc"]["total_overflows"]
    if outputs["scaled_row"] is not None:
        metrics["report.scaled_max_rel_err"] = outputs["scaled_row"]["max_rel_err"]
    plain_s = sum(result["wall_s"] for result in plain)
    if plain_s > 0:
        metrics["trace.overhead_ratio"] = sum(r["wall_s"] for r in traced) / plain_s
    ledger.record("trace", tracing.self_time_problems(traced))
    return metrics


def checkpoint_elements(path: Path) -> int:
    """Element count of every tensor in a safetensors file, from its header."""
    with open(path, "rb") as handle:
        header_len = int.from_bytes(handle.read(8), "little")
        header = json.loads(handle.read(header_len))
    return sum(math.prod(entry["shape"]) for name, entry in header.items()
               if name != "__metadata__")


# ── reporting ────────────────────────────────────────────────────────────


def machine_info() -> dict:
    """What the numbers were measured on."""
    info = {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _first_field("/proc/cpuinfo", "model name"),
        "mem_total": _first_field("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": _scipy_version(),
        "blas": None,
        "blas_threads": _blas_threads(),
        "git_commit": _git_commit(),
    }
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def _first_field(path: str, key: str) -> str | None:
    try:
        with open(path) as handle:
            for line in handle:
                name, _, value = line.partition(":")
                if name.strip() == key:
                    return value.strip()
    except OSError:
        pass
    return None


def _scipy_version() -> str | None:
    from importlib import metadata
    try:
        return metadata.version("scipy")
    except metadata.PackageNotFoundError:
        return None


def _blas_threads() -> int | None:
    """OpenBLAS's thread count, asked of the library numpy loaded."""
    import ctypes
    try:
        with open("/proc/self/maps") as handle:
            paths = {line.split()[-1] for line in handle if "openblas" in line}
    except OSError:
        return None
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "scipy_openblas_get_num_threads", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return out.stdout.strip() or None


def print_summary(name: str, samples: dict[str, list[float]], ledger: Ledger) -> None:
    print(f"{'metric':<20} {'unit':<6} {'median':>12} {'n':>3} {'min':>12} {'max':>12}")
    for metric, unit in END_TO_END.items():
        values = samples.get(metric, [])
        if values:
            print(f"{metric:<20} {unit:<6} {statistics.median(values):>12.6g} "
                  f"{len(values):>3} {min(values):>12.6g} {max(values):>12.6g}")
        else:
            print(f"{metric:<20} {unit:<6} {'-':>12} {0:>3}")
    print(f"{name}: failure share {len(ledger.failures)}/{ledger.attempted}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny shapes of the same architectures, for tests")
    args = parser.parse_args(argv)
    wl = (SMOKE_WORKLOADS if args.smoke else WORKLOADS)[args.workload]
    if not (SRC / "slanc" / "cli.py").is_file():
        # Measure the checkout's own source, never an installed copy.
        print(f"bench: no slanc source under {SRC}", file=sys.stderr)
        return 2
    started = time.perf_counter()
    ledger = Ledger()
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=WORK_ROOT))
    try:
        if args.trace:
            metrics = trace_run(wl, args.seed, work, ledger)
            result = {name: {"value": metrics.get(name, 0), "unit": unit}
                      for name, unit in tracing.PER_LAYER.items()}
        else:
            samples = measure(wl, args.seed, args.seconds, work, ledger, started)
            print_summary(args.workload, samples, ledger)
            result = {}
            for name in RESULT:
                if samples.get(name):
                    result[name] = {"value": statistics.median(samples[name]),
                                    "unit": END_TO_END[name]}
    except SetupError as err:
        print(f"bench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in ledger.failures:
        print(f"FAILED {failure}")
    detail = {"workload": args.workload, "seed": args.seed, "smoke": args.smoke,
              "trace": args.trace, "digests": ledger.digests,
              "failures": ledger.failures, "machine": machine_info()}
    if not args.trace:
        detail["samples"] = samples
    print("detail " + json.dumps(detail, sort_keys=True))
    correct = not ledger.failures
    print(json.dumps({"correct": correct, "attempted": ledger.attempted,
                      "failed": len(ledger.failures), "metrics": result}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
