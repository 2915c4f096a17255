"""The promise suite: known counterexamples to what the scale table promises.

The table promises that no scaled FP16 sum of squares overflows and no
square rounds to zero, and a failing run promises to name what failed.
Each test here builds one model, with `generate_synthetic` and the
shape `slanc gen-model` would give it, that ROADMAP.md records as
breaking a promise today, and asserts the promise.  Each is marked
`xfail(strict=True)` with the ROADMAP item that will fix it, and
pyproject.toml makes every xfail strict: the fix turns its test into an
unexpected pass that fails the run until the marker is removed.  So a
run's xfailed count is the number of known failures still open.  Each
marker expects an AssertionError, so a test that breaks some other way
still fails.  The counts each item quotes are in the assertion messages.
"""

from __future__ import annotations

import re

import numpy as np
import pytest

from checkpoints import generate_synthetic
from slanc.engine import FP16_POLICY, ForwardResult, forward_passes
from slanc.model import (
    InitSpec,
    MlpKind,
    ModelConfig,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
)
from slanc.scales import compute_scale_table


def _scaled_fp16(d: int, layers: int, placement: ResidualPlacement, mlp_kind: MlpKind,
                 nonlinearity: Nonlinearity, amplify: float, seed: int, tokens: int):
    """The scaled FP16 pass, its ForwardResult or the error that stopped
    it, of the model `slanc gen-model` draws for these options (RMSNorm,
    default heads, width and std, `e,g` amplified), over `tokens`
    Gaussian tokens drawn with seed 1."""
    heads = d // 64 if d % 64 == 0 else 4
    cfg = ModelConfig(
        d_model=d, n_heads=heads, head_dim=d // heads, mlp_hidden=4 * d,
        n_layers=layers, norm_kind=NormKind.RMS_NORM, residual_placement=placement,
        mlp_kind=mlp_kind, nonlinearity=nonlinearity, epsilon=1e-5,
    )
    graph = generate_synthetic(cfg, InitSpec(amplify={"e": amplify, "g": amplify}), seed)
    x0 = np.random.default_rng(1).standard_normal((tokens, d))
    (outcome,) = forward_passes(graph, x0, [(FP16_POLICY, compute_scale_table(graph))])
    return outcome


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 2")
@pytest.mark.parametrize("layers, seed, tokens", [(48, 7, 32), (48, 3, 16)],
                         ids=["depth-sweep-48", "bench-deep-preln"])
def test_deep_pre_ln_scaled_sums_do_not_overflow(layers, seed, tokens):
    # Under pre-LN the residual stream grows with every block, past what
    # each block's `+ I` term allows for: 76 and 50 scaled overflows.
    result = _scaled_fp16(128, layers, ResidualPlacement.PRE_LN, MlpKind.LLAMA_GATED,
                          Nonlinearity.SILU, 48.0, seed, tokens)
    if not isinstance(result, ForwardResult):
        raise result
    overflows = sum(int(audit.overflowed.sum()) for audit in result.audit.values())
    assert overflows == 0, f"{overflows} scaled overflows"


@pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 14")
def test_a_storage_overflow_is_named_where_it_happens():
    # Layer 0's MLP output store overflows binary16 before any norm sees
    # it; the NaN variance it causes is met only at layer1.norm1.
    outcome = _scaled_fp16(64, 2, ResidualPlacement.POST_LN, MlpKind.STANDARD,
                           Nonlinearity.RELU, 2000.0, 3, 32)
    failure = "no failure" if isinstance(outcome, ForwardResult) else str(outcome)
    assert re.search(r"\blayer ?0\b", failure), failure
