#!/usr/bin/env python3
"""Per-layer spans around the calls into each slanc module.

Run as a child of run.py, this executes one CLI step in-process through
`slanc.cli.main`, so the traced work is exactly what the command does:

    python3 bench/tracing.py --trace 1 --run-id ID --out step.json -- \
        scales model.safetensors -o scales.json

With `--trace 1` each public function in TARGETS is replaced by a
wrapper wherever a slanc module holds a reference to it (`engine`
imports `accumulate_sum_of_squares` by name, so the wrapper has to go
into `engine`'s namespace too).  A wrapper records a span -- name, tag,
start, end, parent -- and a few counts computed from argument shapes.
Spans stay in memory and are written to `--out` when the step ends,
together with the step's wall time; `--trace 0` writes the wall time
alone, which gives the tracing overhead.  A target that no longer
exists is skipped and reports zero calls.

`fp16.encode` is deliberately not wrapped: it runs millions of times
per forward pass and a wrapper would cost more than the call.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
import time
from collections import defaultdict

# (module, function or Class.method[, span name]) wrapped in the traced
# run; the span name defaults to "module.attr".
TARGETS = [
    ("safetensors_io", "load_tensors"),
    ("safetensors_io", "save_tensors"),
    ("model", "load_safetensors"),
    ("model", "validate"),
    ("model", "ModelGraph.fingerprint", "model.fingerprint"),
    ("model", "generate_synthetic"),
    ("linalg", "spectral_norm"),
    ("linalg", "matmul"),
    ("scales", "compute_scale_table"),
    ("scales", "scale_attention"),
    ("scales", "scale_llama_mlp"),
    ("engine", "forward"),
    ("engine", "attention_forward"),
    ("engine", "mlp_forward"),
    ("engine", "norm_forward"),
    ("engine", "Histogram.from_values"),
    ("fp16", "accumulate_sum_of_squares"),
    ("fp16", "round_array"),
    ("report", "build_audit_report"),
    ("report", "run_compare"),
    ("report", "AuditReport.to_json_text"),
    ("serialization", "dumps"),
    ("serialization", "atomic_write_text"),
]

# Every per-layer metric of the traced run, name -> unit.  Names ending
# in .s, .self_s and .calls are span totals, self times and call counts
# of the span before the suffix; engine.forward.<tag>_s splits forward
# by precision policy; the rest are counts.
PER_LAYER = {
    "cli.import_s": "s",
    "cli.scales.peak_rss_mb": "MB",
    "cli.audit.peak_rss_mb": "MB",
    "cli.compare.peak_rss_mb": "MB",
    "cli.scales.wall_s": "s",
    "cli.audit_plain.wall_s": "s",
    "cli.audit_scaled.wall_s": "s",
    "cli.compare.wall_s": "s",
    "safetensors_io.load_tensors.s": "s",
    "safetensors_io.load_tensors.bytes": "bytes",
    "safetensors_io.save_tensors.s": "s",
    "model.load_safetensors.self_s": "s",
    "model.validate.s": "s",
    "model.fingerprint.s": "s",
    "model.fingerprint.calls": "count",
    "model.fingerprint.bytes": "bytes",
    "model.generate_synthetic.s": "s",
    "linalg.spectral_norm.s": "s",
    "linalg.spectral_norm.calls": "count",
    "linalg.spectral_norm.iterations": "count",
    "linalg.matmul.s": "s",
    "linalg.matmul.calls": "count",
    "linalg.matmul.flops": "flop",
    "scales.compute_scale_table.s": "s",
    "scales.compute_scale_table.self_s": "s",
    "scales.scale_attention.s": "s",
    "scales.scale_llama_mlp.s": "s",
    "engine.forward.fp64_s": "s",
    "engine.forward.fp16_s": "s",
    "engine.forward.fp16_scaled_s": "s",
    "engine.forward.self_s": "s",
    "engine.attention_forward.s": "s",
    "engine.mlp_forward.s": "s",
    "engine.norm_forward.s": "s",
    "engine.norm_forward.self_s": "s",
    "engine.norm_forward.calls": "count",
    "engine.norm_evaluations": "count",
    "engine.Histogram.from_values.s": "s",
    "fp16.accumulate_sum_of_squares.s": "s",
    "fp16.accumulate_sum_of_squares.calls": "count",
    "fp16.accumulated_elements": "count",
    "fp16.accumulate.ns_per_element": "ns",
    "fp16.round_array.s": "s",
    "fp16.round_array.elements": "count",
    "report.build_audit_report.s": "s",
    "report.run_compare.self_s": "s",
    "report.AuditReport.to_json_text.s": "s",
    "report.scaled_overflows": "count",
    "report.scaled_max_rel_err": "ratio",
    "serialization.dumps.s": "s",
    "serialization.atomic_write_text.s": "s",
    "serialization.atomic_write_text.bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}

SPAN_FIELDS = ["name", "tag", "start", "end", "parent"]
_NAME, _TAG, _START, _END, _PARENT = range(len(SPAN_FIELDS))


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


def _shape(x):
    shape = getattr(x, "shape", None)
    if shape is None and hasattr(x, "rows"):
        shape = (x.rows, x.cols)
    return tuple(shape) if shape is not None else None


# ── counters, computed from arguments and results ─────────────────────────
# Each hook runs after its call, also when the call raised (result None).
# Counts come from shapes, not from wrapping the per-element functions.


def _count_load_tensors(span, counters, args, kwargs, result):
    path = _arg(args, kwargs, 0, "path")
    if path is not None:
        counters["safetensors_io.load_tensors.bytes"] += os.path.getsize(path)


def _count_spectral_norm(span, counters, args, kwargs, result):
    counters["linalg.spectral_norm.iterations"] += getattr(result, "iterations", 0)


def _count_matmul(span, counters, args, kwargs, result):
    a, b = _shape(_arg(args, kwargs, 0, "a")), _shape(_arg(args, kwargs, 1, "b"))
    if a is not None and b is not None and len(a) == len(b) == 2:
        counters["linalg.matmul.flops"] += 2 * a[0] * a[1] * b[1]


def _count_forward(span, counters, args, kwargs, result):
    model = _arg(args, kwargs, 0, "model")
    x0 = _shape(_arg(args, kwargs, 1, "x0"))
    policy = _arg(args, kwargs, 2, "policy")
    fp16 = getattr(policy, "norm_accumulation", None) != "FP64"
    if not fp16:
        span[_TAG] = "fp64"
    else:
        span[_TAG] = "fp16_scaled" if _arg(args, kwargs, 3, "scales") else "fp16"
    if model is None or not x0:
        return
    evaluations = x0[0] * len(model.norm_ids)
    counters["engine.norm_evaluations"] += evaluations
    if fp16:
        counters["fp16.accumulated_elements"] += evaluations * model.config.d_model


def _count_round_array(span, counters, args, kwargs, result):
    shape = _shape(_arg(args, kwargs, 0, "values"))
    if shape is not None:
        counters["fp16.round_array.elements"] += math.prod(shape)


def _count_atomic_write_text(span, counters, args, kwargs, result):
    text = _arg(args, kwargs, 1, "text")
    if isinstance(text, str):
        counters["serialization.atomic_write_text.bytes"] += len(text.encode("utf-8"))


HOOKS = {
    "safetensors_io.load_tensors": _count_load_tensors,
    "linalg.spectral_norm": _count_spectral_norm,
    "linalg.matmul": _count_matmul,
    "engine.forward": _count_forward,
    "fp16.round_array": _count_round_array,
    "serialization.atomic_write_text": _count_atomic_write_text,
}


class Tracer:
    """In-memory span recorder for one process."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: dict[str, float] = defaultdict(float)

    def wrap(self, name: str, fn):
        spans, stack, counters = self.spans, self.stack, self.counters
        hook = HOOKS.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, None, clock(), 0.0, stack[-1] if stack else None]
            stack.append(len(spans))
            spans.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                span[_END] = clock()
                stack.pop()
                if hook is not None:
                    try:
                        hook(span, counters, args, kwargs, result)
                    except (AttributeError, TypeError, ValueError, OSError):
                        # A changed signature costs a count, not the run.
                        counters[f"hook_errors.{name}"] += 1

        return traced

    def install(self) -> list[str]:
        """Wrap every TARGETS entry that exists; returns the wrapped names."""
        import slanc.cli  # noqa: F401  -- loads every module the CLI uses

        modules = [m for n, m in sys.modules.items()
                   if m is not None and (n == "slanc" or n.startswith("slanc."))]
        installed = []
        for module_name, attr, *alias in TARGETS:
            module = sys.modules.get(f"slanc.{module_name}")
            owner, _, fn_name = attr.rpartition(".")
            span_name = alias[0] if alias else f"{module_name}.{attr}"
            if module is None:
                continue
            if owner:
                cls = getattr(module, owner, None)
                raw = vars(cls).get(fn_name) if isinstance(cls, type) else None
                if isinstance(raw, classmethod):
                    setattr(cls, fn_name, classmethod(self.wrap(span_name, raw.__func__)))
                elif callable(raw):
                    setattr(cls, fn_name, self.wrap(span_name, raw))
                else:
                    continue
            else:
                original = getattr(module, fn_name, None)
                if not callable(original):
                    continue
                wrapped = self.wrap(span_name, original)
                for holder in modules:
                    for key, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, key, wrapped)
            installed.append(span_name)
        return installed


# ── aggregation, in the parent ───────────────────────────────────────────


def span_totals(results: list[dict]):
    """Per span name: total time, self time and calls over every step.

    Total time counts only the outermost span of a name, so a function
    that re-enters itself is not counted twice.  Self time is a span's
    duration minus its children's; spans of one thread nest, so the
    children never overlap and their sum is the part they cover.
    """
    totals: dict[str, float] = defaultdict(float)
    self_s: dict[str, float] = defaultdict(float)
    every: dict[str, float] = defaultdict(float)
    calls: dict[str, int] = defaultdict(int)
    for result in results:
        spans = result["spans"]
        covered = [0.0] * len(spans)
        for span in spans:
            if span[_PARENT] is not None:
                covered[span[_PARENT]] += span[_END] - span[_START]
        for i, span in enumerate(spans):
            name, duration = span[_NAME], span[_END] - span[_START]
            calls[name] += 1
            every[name] += duration
            self_s[name] += duration - covered[i]
            parent = span[_PARENT]
            while parent is not None and spans[parent][_NAME] != name:
                parent = spans[parent][_PARENT]
            if parent is None:
                totals[name] += duration
                if span[_TAG] is not None:
                    totals[f"{name}:{span[_TAG]}"] += duration
    return totals, self_s, every, calls


def layer_metrics(results: list[dict], checkpoint_elements: int) -> dict[str, float]:
    """The span-derived entries of PER_LAYER (absent spans read as 0)."""
    totals, self_s, _, calls = span_totals(results)
    counters: dict[str, float] = defaultdict(float)
    for result in results:
        for key, value in result["counters"].items():
            counters[key] += value
    # The fingerprint hashes every weight as float64.
    counters["model.fingerprint.bytes"] = calls["model.fingerprint"] * 8 * checkpoint_elements
    for tag in ("fp64", "fp16", "fp16_scaled"):
        counters[f"engine.forward.{tag}_s"] = totals[f"engine.forward:{tag}"]
    elements = counters["fp16.accumulated_elements"]
    counters["fp16.accumulate.ns_per_element"] = (
        totals["fp16.accumulate_sum_of_squares"] / elements * 1e9 if elements else 0.0)
    metrics = {}
    for name in PER_LAYER:
        base, _, kind = name.rpartition(".")
        if name in counters:
            metrics[name] = counters[name]
        elif kind == "s":
            metrics[name] = totals[base]
        elif kind == "self_s":
            metrics[name] = self_s[base]
        elif kind == "calls":
            metrics[name] = calls[base]
    return metrics


def self_time_problems(results: list[dict]) -> list[str]:
    """A self time below zero or above its spans' total is a tracing bug."""
    _, self_s, every, _ = span_totals(results)
    return [f"{name} self time {self_s[name]:.6g} s outside [0, {every[name]:.6g}] s"
            for name in every
            if not -1e-9 <= self_s[name] <= every[name] + 1e-9]


# ── child entry point ────────────────────────────────────────────────────


def main() -> int:
    parser = argparse.ArgumentParser(description="run one slanc CLI step in-process")
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--run-id", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("argv", nargs=argparse.REMAINDER)
    args = parser.parse_args()
    argv = args.argv[1:] if args.argv[:1] == ["--"] else args.argv

    import slanc.cli

    tracer = Tracer()
    installed = []
    step = slanc.cli.main
    if args.trace:
        installed = tracer.install()
        step = tracer.wrap(f"cli.{argv[0]}", step)
    start = time.perf_counter()
    code = step(argv)
    wall = time.perf_counter() - start
    with open(args.out, "w", encoding="utf-8") as handle:
        json.dump({"run_id": args.run_id, "step": argv[0], "exit": code,
                   "wall_s": wall, "installed": installed, "fields": SPAN_FIELDS,
                   "spans": tracer.spans, "counters": tracer.counters}, handle)
    return code


if __name__ == "__main__":
    sys.exit(main())
