"""Tests for the double-precision matrix norms.

Oracles: direct elementwise summation for the Frobenius norm, and dense
SVD (numpy's LAPACK bindings, an algorithm entirely unrelated to power
iteration) for the spectral norm.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from slanc.linalg import ConvergenceError, frobenius_norm, spectral_norm


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
    est = spectral_norm(np.diag([1.0, 2.0, 3.0]))
    assert est.value == pytest.approx(3.0, rel=1e-6)
    assert est.iterations >= 1


def test_spectral_identity():
    est = spectral_norm(np.eye(5))
    assert est.value == pytest.approx(1.0, rel=1e-12)


def test_spectral_zero_matrix_short_circuits():
    est = spectral_norm(np.zeros((4, 4)))
    assert est.value == 0.0
    assert est.iterations == 0


def test_spectral_random_against_svd():
    rng = np.random.default_rng(31)
    for _ in range(10):
        a = rng.normal(size=(8, 8))
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        got = spectral_norm(a).value
        assert got == pytest.approx(want, rel=1e-4)


def test_spectral_rectangular_against_svd():
    rng = np.random.default_rng(37)
    for shape in [(6, 3), (3, 6), (12, 5)]:
        a = rng.normal(size=shape)
        want = float(np.linalg.svd(a, compute_uv=False)[0])
        got = spectral_norm(a).value
        assert got == pytest.approx(want, rel=1e-4)


def test_spectral_deterministic_across_calls():
    rng = np.random.default_rng(41)
    m = rng.normal(size=(9, 9))
    first = spectral_norm(m)
    second = spectral_norm(m)
    assert first.value == second.value
    assert first.iterations == second.iterations


def test_spectral_nonconvergence_carries_best_estimate():
    rng = np.random.default_rng(43)
    m = rng.normal(size=(8, 8))
    with pytest.raises(ConvergenceError) as exc_info:
        spectral_norm(m, tol=1e-15, max_iter=2)
    err = exc_info.value
    assert err.iterations == 2
    assert err.best_estimate > 0.0
    # The carried estimate is already in the right neighbourhood.
    want = float(np.linalg.svd(m, compute_uv=False)[0])
    assert err.best_estimate == pytest.approx(want, rel=0.5)


def test_spectral_validates_arguments():
    with pytest.raises(ValueError):
        spectral_norm(np.eye(2), tol=0.0)
    with pytest.raises(ValueError):
        spectral_norm(np.eye(2), max_iter=0)


# ── norm inequalities ────────────────────────────────────────────────────


def test_spectral_bounded_by_frobenius():
    rng = np.random.default_rng(47)
    for _ in range(10):
        m = rng.normal(size=(6, 6))
        assert spectral_norm(m).value <= frobenius_norm(m) * (1.0 + 1e-9)


def test_product_frobenius_submultiplicative():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 6))
        lhs = frobenius_norm(a @ b)
        rhs = spectral_norm(a).value * frobenius_norm(b)
        assert lhs <= rhs * (1.0 + 1e-6)


def test_spectral_transpose_invariant():
    rng = np.random.default_rng(59)
    a = rng.normal(size=(7, 4))
    assert spectral_norm(a).value == pytest.approx(spectral_norm(a.T).value, rel=1e-5)
