#!/usr/bin/env python3
"""Repeat run.py over seeds and summarise, optionally into a BENCH file.

For each workload this makes one untraced run per seed and, with
`--trace`, one traced run on the first seed.  It prints each end-to-end
metric's median, quartiles and spread -- (q3 - q1) / median, the
statistic the bound in BENCHMARK.json is compared with -- and writes
every run's result, digests and the machine to `--out` as JSON:

    python3 bench/collect.py --seeds 1-10 --trace --out bench/results/BENCH_x.json
    python3 bench/collect.py --workloads flagship --seeds 1-5
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds += range(int(low), int(high or low) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [*SPEC["command"], "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    start = time.perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    elapsed = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    detail = next((json.loads(line[len("detail "):]) for line in lines
                   if line.startswith("detail ")), {})
    result = json.loads(lines[-1])
    return {"seed": seed, "trace": trace, "exit": proc.returncode,
            "elapsed_s": elapsed, "result": result, "detail": detail}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def summarise(runs: list[dict]) -> dict:
    """Per end-to-end metric: the run medians, their quartiles and spread."""
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    summary = {}
    for name in runs[0]["detail"].get("samples", {}):
        values = [statistics.median(r["detail"]["samples"][name]) for r in runs
                  if r["detail"]["samples"].get(name)]
        q1, median, q3 = quartiles(values)
        summary[name] = {
            "n": len(values), "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
            "bound": bounds.get(name), "values": values,
        }
    return summary


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,7,9")
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", action="store_true", help="add one traced run")
    parser.add_argument("--out", default=None, help="write the BENCH JSON here")
    args = parser.parse_args()
    seeds = parse_seeds(args.seeds)
    doc = {"seconds": args.seconds, "seeds": seeds, "workloads": {}}
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds:
            run = run_once(workload, seed, args.seconds, 0)
            runs.append(run)
            print(f"{workload} seed {seed}: exit {run['exit']}, "
                  f"{run['elapsed_s']:.1f} s, failed {run['result']['failed']}"
                  f"/{run['result']['attempted']}", flush=True)
        entry = {"end_to_end": summarise(runs), "runs": runs}
        if args.trace:
            traced = run_once(workload, seeds[0], args.seconds, 1)
            print(f"{workload} traced: exit {traced['exit']}, {traced['elapsed_s']:.1f} s",
                  flush=True)
            entry["per_layer"] = {k: v["value"] for k, v in traced["result"]["metrics"].items()}
            entry["traced_run"] = traced
        doc["workloads"][workload] = entry
        doc["machine"] = runs[-1]["detail"].get("machine")
        print(f"{'metric':<20} {'median':>11} {'q1':>11} {'q3':>11} {'spread':>8} bound")
        for name, s in entry["end_to_end"].items():
            spread = f"{s['spread']:.4f}" if s["spread"] is not None else "-"
            print(f"{name:<20} {s['median']:>11.6g} {s['q1']:>11.6g} {s['q3']:>11.6g} "
                  f"{spread:>8} {s['bound'] or '-'}", flush=True)
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
