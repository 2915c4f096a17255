"""The seven acceptance gates, one test per criterion.

Each test prints a single pass/fail line and registers it with the
conftest hook so the pytest summary repeats it.  Pinned constants come
from one-time oracle runs recorded in the test bodies; criteria 4
through 6 share one amplified flagship model: d=256, 4 post-LN RMSNorm
decoder layers, gated SiLU MLP, with the MLP up and down projections
amplified 32x so that unscaled FP16 accumulation overflows.
"""

from __future__ import annotations

import math
import os
import time

import numpy as np
import pytest

import fp16_oracle as oracle
from checkpoints import load_safetensors
from conftest import record_acceptance
from dynamic_oracle import calibrate_dynamic
from slanc import fp16
from slanc.engine import (
    FP16_POLICY,
    REFERENCE_POLICY,
    forward,
    norm_forward,
)
from slanc.linalg import spectral_norm
from slanc.model import (
    InitSpec,
    MlpKind,
    ModelConfig,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
    generate_synthetic,
)
from slanc.report import run_compare
from slanc.scales import (
    DegenerateScaleError,
    adjust_epsilon,
    compute_scale_table,
    read_scale_table,
    scale_attention,
    scale_llama_mlp,
    scale_standard_mlp,
)


def _criterion(number: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"acceptance {number} ({label}): {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" [{detail}]"
    print(line)
    record_acceptance(line)
    assert ok, line


def test_criterion_1_binary16_soft_float():
    start = time.monotonic()
    roundtrip_ok = all(
        oracle.encode(oracle.decode(bits)) == (oracle.NAN if oracle.is_nan(bits) else bits)
        for bits in range(0x10000)
    )

    # One million random single operations against numpy's half path,
    # which computes in a wider format and rounds once (correct for
    # binary16 because float32 carries more than 2p + 2 bits).
    rng = np.random.default_rng(2024)
    n = 250_000
    a = rng.integers(0, 0x10000, n, dtype=np.uint16)
    b = rng.integers(0, 0x10000, n, dtype=np.uint16)
    ha, hb = a.view(np.float16), b.view(np.float16)
    with np.errstate(all="ignore"):
        ref_add = (ha + hb).view(np.uint16)
        ref_mul = (ha * hb).view(np.uint16)
        ref_div = (ha / hb).view(np.uint16)
        ref_sqrt = np.sqrt(ha).view(np.uint16)

    def canon(bits: int) -> int:
        return oracle.NAN if oracle.is_nan(bits) else bits

    mismatches = 0
    for i in range(n):
        ai, bi = int(a[i]), int(b[i])
        mismatches += canon(oracle.add(ai, bi)) != canon(int(ref_add[i]))
        mismatches += canon(oracle.mul(ai, bi)) != canon(int(ref_mul[i]))
        mismatches += canon(oracle.div(ai, bi)) != canon(int(ref_div[i]))
        mismatches += canon(oracle.sqrt(ai)) != canon(int(ref_sqrt[i]))

    # The package's array kernels, which the engine runs on binary16
    # values held in float64, against the oracle: round_array of every
    # pattern's decoded value is decode(encode(x)) bit for bit (-0 and
    # +-inf included; NaN stays NaN), and sum_of_squares_rows, on the
    # values of a seeded block whose rows draw from each regime in turn,
    # then from all of them, gives each row's oracle sum once encoded.
    decoded = np.array([oracle.decode(bits) for bits in range(0x10000)])
    rounded = fp16.round_array(decoded)
    expected = np.array([oracle.decode(oracle.encode(x)) for x in decoded.tolist()])
    nan = np.isnan(expected)
    mismatches += int(np.count_nonzero(np.isnan(rounded) != nan))
    mismatches += int(np.count_nonzero(
        rounded[~nan].view(np.uint64) != expected[~nan].view(np.uint64)))

    block_rng = np.random.default_rng(2026)
    shape = (32, 256)
    specials = np.array([0x0000, 0x0001, 0x03FF, 0x0400, 0x3C00, 0x7BFF,
                         0x7C00, 0x7E00, 0x7C01], dtype=np.uint16)
    regimes = np.stack([
        block_rng.integers(0, 0x8000, shape),       # anything, NaN payloads too
        block_rng.integers(0, 0x0800, shape),       # every square rounds to zero
        block_rng.integers(0x2000, 0x4C00, shape),  # sums depend on term order
        block_rng.integers(0x5000, 0x7C00, shape),  # sums overflow part-way
        block_rng.choice(specials, shape),          # subnormal edges, inf, NaN
        np.zeros(shape),                            # zero rows set no flag
    ]).astype(np.uint16)
    mixed = np.take_along_axis(
        regimes, block_rng.integers(0, len(regimes), (1,) + shape), axis=0)
    block = np.concatenate([*regimes, *mixed])
    block |= (block_rng.integers(0, 2, block.shape) << 15).astype(np.uint16)
    sums, overflowed, underflowed = fp16.sum_of_squares_rows(decoded[block])
    rows = zip([oracle.encode(x) for x in sums.tolist()], overflowed.tolist(),
               underflowed.tolist())
    mismatches += sum(got != oracle.accumulate_sum_of_squares(row)
                      for got, row in zip(rows, block))
    elapsed = time.monotonic() - start
    _criterion(
        1, "binary16 soft-float",
        roundtrip_ok and mismatches == 0 and elapsed < 60.0,
        f"65536-pattern round-trip, 10^6 ops, array kernels on 65536 patterns and "
        f"{len(block)} rows ({int(overflowed.sum())} overflowed, "
        f"{int(underflowed.sum())} underflowed), {mismatches} mismatches, "
        f"{elapsed:.1f}s",
    )


def test_criterion_2_scaling_homogeneity():
    rng = np.random.default_rng(2025)
    worst = 0.0
    pairs = 0
    for d in (8, 64, 4096):
        for kind in (NormKind.RMS_NORM, NormKind.LAYER_NORM):
            gamma = 1.0 + 0.1 * rng.standard_normal(d)
            beta = (rng.standard_normal(d)
                    if kind is NormKind.LAYER_NORM else None)
            for _ in range(167):
                x = rng.standard_normal(d) * math.exp(rng.uniform(-6.0, 6.0))
                s = 2.0 ** rng.uniform(-10.0, 14.0)
                (plain,), _ = norm_forward(x[None, :], gamma, beta, 1e-5, kind,
                                           REFERENCE_POLICY)
                (scaled,), _ = norm_forward(x[None, :], gamma, beta, 1e-5, kind,
                                            REFERENCE_POLICY, s=s)
                floor = float(np.sqrt(np.mean(plain**2))) or 1.0
                rel = float(np.max(
                    np.abs(plain - scaled) / np.maximum(np.abs(plain), floor)
                ))
                worst = max(worst, rel)
                pairs += 1
    _criterion(
        2, "scaling homogeneity",
        pairs >= 1000 and worst < 1e-12,
        f"{pairs} (x, s) pairs, worst rel {worst:.2e}",
    )


def test_criterion_3_scale_formulas_and_spectral_norm():
    examples_ok = (
        scale_standard_mlp(np.ones(4), np.zeros((4, 8)), np.zeros((8, 4))) == 2.0
        and scale_standard_mlp(np.array([2.0, 2.0]), np.eye(2), np.eye(2))
        == math.sqrt(32.0)
        and scale_llama_mlp(np.ones(2), np.eye(2), np.eye(2), np.eye(2)) == math.sqrt(8.0)
        and scale_llama_mlp(
            np.ones(3), np.random.default_rng(1).standard_normal((3, 5)),
            np.zeros((3, 5)), np.zeros((5, 3))
        ) == math.sqrt(3.0)
        and scale_attention(np.ones(5), np.zeros((5, 5)), np.zeros((5, 5))) == math.sqrt(5.0)
        and scale_attention(np.ones(2), np.eye(2), np.eye(2)) == math.sqrt(8.0)
        and adjust_epsilon(1e-5, 1.0) == 1e-5
        and math.isclose(adjust_epsilon(1e-5, 10.0), 1e-7, rel_tol=1e-15)
        and math.isclose(adjust_epsilon(1e-6, 2.0 * math.sqrt(2.0)), 1.25e-7,
                         rel_tol=1e-12)
    )

    degenerate_ok = True
    for call in (
        lambda: scale_standard_mlp(np.ones(2), np.eye(2), -np.eye(2)),
        lambda: scale_llama_mlp(np.zeros(2), np.eye(2),
                                np.eye(2), np.eye(2)),
        lambda: scale_attention(np.ones(2), np.eye(2), -np.eye(2)),
    ):
        try:
            call()
            degenerate_ok = False
        except DegenerateScaleError:
            pass

    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        r = int(rng.integers(1, 33))
        c = int(rng.integers(1, 33))
        m = rng.standard_normal((r, c)) * math.exp(rng.uniform(-3.0, 3.0))
        estimate = spectral_norm(m)
        top = float(np.linalg.svd(m, compute_uv=False)[0])
        worst = max(worst, abs(estimate - top) / top)
    _criterion(
        3, "scale formulas + spectral norm",
        examples_ok and degenerate_ok and worst < 1e-4,
        f"worst spectral rel {worst:.2e} over 100 matrices",
    )


@pytest.fixture(scope="module")
def flagship():
    config = ModelConfig(
        d_model=256, n_heads=4, head_dim=64, mlp_hidden=1024, n_layers=4,
        norm_kind=NormKind.RMS_NORM,
        residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.LLAMA_GATED, nonlinearity=Nonlinearity.SILU,
        epsilon=1e-5,
    )
    init = InitSpec(std=0.02, amplify={"e": 32.0, "g": 32.0})
    graph = generate_synthetic(config, init, seed=7)
    tokens = np.random.default_rng(1).standard_normal((512, 256))
    return graph, tokens, compute_scale_table(graph)


def test_criterion_4_overflow_audit(flagship):
    # Pinned one-time run: all 512 tokens overflow at layer0.norm2, a
    # quarter of the (MLP norm, token) pairs; with scales the raw sums
    # sit between 2^-6 and 2^0.
    graph, tokens, table = flagship
    start = time.monotonic()
    plain = forward(graph, tokens, FP16_POLICY)
    mlp_overflowed = np.concatenate(
        [a.overflowed for n, a in plain.audit.items() if n.endswith("norm2")]
    )
    fraction = mlp_overflowed.sum() / mlp_overflowed.size

    scaled = forward(graph, tokens, FP16_POLICY, scales=table)
    overflows = sum(int(a.overflowed.sum()) for a in scaled.audit.values())
    underflows = sum(int(a.underflowed.sum()) for a in scaled.audit.values())
    sums = np.concatenate([a.raw_sums for a in scaled.audit.values()])
    low_margin = float(sums.min()) / 2.0**-14
    high_margin = 65504.0 / float(sums.max())
    elapsed = time.monotonic() - start
    _criterion(
        4, "overflow audit",
        fraction >= 0.10 and overflows == 0 and underflows == 0
        and low_margin >= 4.0 and high_margin >= 4.0 and elapsed < 60.0,
        f"unscaled MLP-norm overflow fraction {fraction:.2f}, scaled "
        f"{overflows}/{underflows}, margins {low_margin:.0f}x/{high_margin:.0f}x, "
        f"{elapsed:.1f}s",
    )


def test_criterion_5_precision_comparison(flagship):
    graph, tokens, table = flagship
    fp64_row, fp16_row, scaled_row = run_compare(graph, tokens, table, seed=1)["rows"]
    fp16_bad = (not math.isfinite(fp16_row["median_rel_err"])
                or fp16_row["median_rel_err"] > 0.5)
    scaled_good = (scaled_row["median_rel_err"] < 2e-2
                   and scaled_row["max_rel_err"] < 2e-1)
    _criterion(
        5, "precision comparison",
        fp64_row["median_rel_err"] == 0.0 and fp16_bad and scaled_good,
        f"FP16 median {fp16_row['median_rel_err']:.3g}, scaled median "
        f"{scaled_row['median_rel_err']:.3g} max {scaled_row['max_rel_err']:.3g}",
    )


# One-time oracle run measured a worst static/dynamic ratio of 4.27 on
# the flagship model; frozen here with headroom, well under the 32 cap.
PINNED_DYNAMIC_FACTOR = 8.0


def test_criterion_6_dynamic_baseline(flagship):
    graph, tokens, table = flagship
    static = read_scale_table(table, graph)
    dynamic = calibrate_dynamic(graph, [tokens], "Median")
    worst = max(max(static[n] / dynamic[n], dynamic[n] / static[n]) for n in static)
    _criterion(
        6, "dynamic-baseline agreement",
        worst <= PINNED_DYNAMIC_FACTOR <= 32.0,
        f"worst ratio {worst:.3f}, pinned {PINNED_DYNAMIC_FACTOR}",
    )


def test_criterion_7_real_weights_smoke():
    path = os.environ.get("SLANC_REAL_WEIGHTS")
    if not path:
        line = ("acceptance 7 (real-weights smoke): SKIP "
                "[set SLANC_REAL_WEIGHTS to a Llama safetensors path with a "
                ".config.json sidecar next to it]")
        print(line)
        record_acceptance(line)
        pytest.skip("SLANC_REAL_WEIGHTS is not set")
    graph = load_safetensors(path)  # default name map, config from the sidecar
    scales = read_scale_table(compute_scale_table(graph), graph).values()
    _criterion(
        7, "real-weights smoke",
        len(scales) > 0 and all(math.isfinite(s) and s > 0 for s in scales),
        f"{len(scales)} scales, all finite and positive",
    )
