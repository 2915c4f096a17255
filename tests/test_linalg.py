"""Tests for the double-precision matrix norms.

Oracles: direct elementwise summation for the Frobenius norm, and dense
SVD of the matrix itself (a different LAPACK driver from the symmetric
eigensolver on the Gram matrix) for the spectral norm.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from slanc.linalg import ConvergenceError, frobenius_norm, spectral_norm
from slanc.model import (
    DecoderWeights,
    MlpKind,
    ModelConfig,
    ModelGraph,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
)
from slanc.scales import compute_scale_table


# ── frobenius norm ───────────────────────────────────────────────────────


def test_frobenius_small_cases():
    assert frobenius_norm(np.eye(4)) == 2.0
    assert frobenius_norm(np.diag([3.0, 4.0])) == 5.0


def test_frobenius_random_against_direct_sum():
    rng = np.random.default_rng(23)
    for _ in range(20):
        a = rng.normal(size=(5, 5))
        want = math.sqrt(sum(float(x) * float(x) for x in a.ravel()))
        got = frobenius_norm(a)
        assert got == pytest.approx(want, rel=1e-13)


def test_frobenius_of_diag_is_vector_norm():
    rng = np.random.default_rng(29)
    v = rng.normal(size=9)
    got = frobenius_norm(np.diag(v))
    want = math.sqrt(float(np.dot(v, v)))
    assert got == pytest.approx(want, rel=1e-15)


# ── spectral norm ────────────────────────────────────────────────────────


def test_spectral_diagonal():
    assert spectral_norm(np.diag([1.0, 2.0, 3.0])) == pytest.approx(3.0, rel=1e-6)


def test_spectral_identity():
    assert spectral_norm(np.eye(5)) == pytest.approx(1.0, rel=1e-12)


def test_spectral_zero_matrix_short_circuits():
    assert spectral_norm(np.zeros((4, 4))) == 0.0


def test_spectral_random_against_svd():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.normal(size=(8, 8))
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12)


def test_spectral_rectangular_against_svd():
    rng = np.random.default_rng(37)
    cases = [rng.normal(size=shape) for shape in
             [(6, 3), (3, 6), (12, 5), (4, 90), (90, 4), (1, 7), (7, 1)]]
    # Rank-deficient: rank 2 in a 6x9 matrix, and rank 1 from an outer product.
    cases.append(rng.normal(size=(6, 2)) @ rng.normal(size=(2, 9)))
    cases.append(np.outer(rng.normal(size=10), rng.normal(size=5)))
    for a in cases:
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        assert spectral_norm(a) == pytest.approx(want, rel=1e-12), a.shape


def test_spectral_solves_on_the_smaller_gram_side(monkeypatch):
    sizes = []
    real_eigvalsh = np.linalg.eigvalsh

    def recording_eigvalsh(g):
        sizes.append(g.shape)
        return real_eigvalsh(g)

    monkeypatch.setattr(np.linalg, "eigvalsh", recording_eigvalsh)
    rng = np.random.default_rng(39)
    for shape in [(3, 40), (40, 3), (5, 5)]:
        spectral_norm(rng.normal(size=shape))
    assert sizes == [(3, 3), (3, 3), (5, 5)]


def test_spectral_deterministic_across_calls():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(9, 9))
    assert spectral_norm(m) == spectral_norm(m)


def test_spectral_nonconvergence_carries_best_estimate():
    # Entries near 1e160 square past the float64 range: the Gram matrix
    # is not finite, and the table names the norm whose formula failed.
    with pytest.raises(ConvergenceError, match="not finite") as exc_info:
        spectral_norm(np.full((3, 4), 1e160))
    assert exc_info.value.norm_id is None
    for bad in (np.nan, np.inf):
        m = np.eye(3)
        m[1, 2] = bad
        with pytest.raises(ConvergenceError):
            spectral_norm(m)

    d = 4
    rng = np.random.default_rng(43)
    small = lambda: rng.normal(size=(d, d)) * 0.01  # noqa: E731
    layer = DecoderWeights(
        gamma1=np.ones(d), gamma2=np.ones(d),
        w_q=small(), w_k=small(), w_v=small(), p=small(),
        e=np.full((d, d), 1e160), b=small(), g=small(),
    )
    cfg = ModelConfig(
        d_model=d, n_heads=1, head_dim=d, mlp_hidden=d, n_layers=1,
        norm_kind=NormKind.RMS_NORM, residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.LLAMA_GATED, nonlinearity=Nonlinearity.SILU, epsilon=1e-5,
    )
    with pytest.raises(ConvergenceError, match="'layer0.norm2'") as exc_info:
        compute_scale_table(ModelGraph(config=cfg, layers=(layer,)))
    assert exc_info.value.norm_id == "layer0.norm2"


def test_spectral_solver_failure_is_a_convergence_error(monkeypatch):
    def failing_eigvalsh(g):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", failing_eigvalsh)
    with pytest.raises(ConvergenceError, match="did not converge"):
        spectral_norm(np.eye(3))


def test_spectral_validates_arguments():
    for bad in (np.ones(3), np.ones((2, 2, 2)), np.array(1.0)):
        with pytest.raises(ValueError, match="2-D"):
            spectral_norm(bad)


# ── norm inequalities ────────────────────────────────────────────────────


def test_spectral_bounded_by_frobenius():
    rng = np.random.default_rng(47)
    for _ in range(10):
        m = rng.normal(size=(6, 6))
        assert spectral_norm(m) <= frobenius_norm(m) * (1.0 + 1e-9)


def test_product_frobenius_submultiplicative():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 6))
        lhs = frobenius_norm(a @ b)
        rhs = spectral_norm(a) * frobenius_norm(b)
        assert lhs <= rhs * (1.0 + 1e-6)


def test_spectral_transpose_invariant():
    rng = np.random.default_rng(59)
    a = rng.normal(size=(7, 4))
    assert spectral_norm(a) == pytest.approx(spectral_norm(a.T), rel=1e-5)


def test_float32_input_is_computed_in_double():
    # A graph holds its matrices as float32; a norm taken of one directly
    # must not run in single precision.  Entries near 1e20 square past
    # float32's range, so a single-precision Gram matrix would not be
    # finite, and a single-precision sum of squares would overflow.
    rng = np.random.default_rng(61)
    for m in (rng.normal(size=(37, 53)).astype(np.float32),
              rng.normal(size=(53, 37)).astype(np.float32),
              np.full((3, 4), 1e20, dtype=np.float32)):
        wide = m.astype(np.float64)
        assert frobenius_norm(m) == frobenius_norm(wide), m.shape
        assert spectral_norm(m) == spectral_norm(wide), m.shape
        assert math.isfinite(spectral_norm(m)), m.shape
