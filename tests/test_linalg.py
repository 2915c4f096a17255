"""Tests for the double-precision matrix norms and tiled products.

Oracles: dense SVD of the matrix itself (a different LAPACK driver from
the symmetric eigensolver on the Gram matrix) for the spectral norm,
numpy's Frobenius norm for the norm inequalities, and the one-shot
float64 product and Gram matrix, bit for bit, for the tiled ones.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from checkpoints import ModelGraph
from memory_gates import gram_tile_bytes, product_tile_bytes, traced_peak
from slanc import linalg
from slanc.linalg import ConvergenceError, spectral_norm
from slanc.model import (
    MlpKind,
    ModelConfig,
    NormKind,
    Nonlinearity,
    ResidualPlacement,
)
from slanc.scales import compute_scale_table


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
    layer = dict(gamma1=np.ones(d), gamma2=np.ones(d),
                 w_q=small(), w_k=small(), w_v=small(), p=small(),
                 e=np.full((d, d), 1e160), b=small(), g=small())
    cfg = ModelConfig(
        d_model=d, n_heads=1, head_dim=d, mlp_hidden=d, n_layers=1,
        norm_kind=NormKind.RMS_NORM, residual_placement=ResidualPlacement.POST_LN,
        mlp_kind=MlpKind.LLAMA_GATED, nonlinearity=Nonlinearity.SILU, epsilon=1e-5,
    )
    with pytest.raises(ConvergenceError, match="'layer0.norm2'") as exc_info:
        compute_scale_table(ModelGraph(cfg, {(role, 0): array
                                             for role, array in layer.items()}))
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
        assert spectral_norm(m) <= np.linalg.norm(m, "fro") * (1.0 + 1e-9)


def test_product_frobenius_submultiplicative():
    rng = np.random.default_rng(53)
    for _ in range(10):
        a = rng.normal(size=(5, 4))
        b = rng.normal(size=(4, 6))
        lhs = np.linalg.norm(a @ b, "fro")
        rhs = spectral_norm(a) * np.linalg.norm(b, "fro")
        assert lhs <= rhs * (1.0 + 1e-6)


def test_spectral_transpose_invariant():
    rng = np.random.default_rng(59)
    a = rng.normal(size=(7, 4))
    assert spectral_norm(a) == pytest.approx(spectral_norm(a.T), rel=1e-5)


def test_float32_input_is_computed_in_double():
    # A graph holds its matrices as float32; a norm taken of one directly
    # must not run in single precision.  Entries near 1e20 square past
    # float32's range, so a single-precision Gram matrix would not be finite.
    rng = np.random.default_rng(61)
    for m in (rng.normal(size=(37, 53)).astype(np.float32),
              rng.normal(size=(53, 37)).astype(np.float32),
              np.full((3, 4), 1e20, dtype=np.float32)):
        wide = m.astype(np.float64)
        assert spectral_norm(m) == spectral_norm(wide), m.shape
        assert math.isfinite(spectral_norm(m)), m.shape


# ── tiled products ───────────────────────────────────────────────────────
# matmul and gram_lower widen float32 weights one tile at a time.  Each
# output tile is one BLAS call over the full inner dimension, so it must
# sum in the one-shot product's order: a BLAS whose kernels sum in
# another order for a tile (an edge kernel, a small-matrix kernel) fails
# here instead of silently moving a scale table.


def _counting_matmul(monkeypatch) -> list:
    """Count the BLAS calls linalg makes from here on."""
    calls, real = [0], np.matmul

    def counting(*args, **kwargs):
        calls[0] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg.np, "matmul", counting)
    return calls


# (rows, inner, columns) and whether the product is tiled: by columns
# when b is float32, by rows when a is float32 and has 256 rows or more
# (beside a float64 b, only when a is over a quarter of it: 4n > p)
_PRODUCTS = [
    ((1, 512, 12288), True),  # one row: matrix-vector calls
    ((16, 1024, 1008), True),
    ((256, 700, 1040), True),  # 1040 columns: not a multiple of a tile
    ((512, 1500, 512), True),
    ((8, 8, 8), False),  # below every tile bound
    ((512, 1408, 1001), False),  # a ragged column count is not tiled
]


@pytest.mark.parametrize("dtypes", [(np.float32, np.float32), (np.float64, np.float32),
                                    (np.float32, np.float64), (np.float64, np.float64)],
                         ids=lambda pair: "@".join(t.__name__ for t in pair))
def test_matmul_is_the_one_shot_product_bit_for_bit(small_tiles, monkeypatch, dtypes):
    rng = np.random.default_rng(67)
    calls = _counting_matmul(monkeypatch)
    for (n, k, p), tiled in _PRODUCTS:
        a = rng.standard_normal((n, k)).astype(dtypes[0])
        b = rng.standard_normal((k, p)).astype(dtypes[1])
        want = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        before = calls[0]
        assert np.array_equal(linalg.matmul(a, b), want), (n, k, p)
        by_columns = dtypes[1] is np.float32
        by_rows = dtypes[0] is np.float32 and n >= 256 and (
            dtypes[1] is np.float32 or 4 * n > p)
        assert (calls[0] - before > 1) == (tiled and (by_columns or by_rows)), (n, k, p)


def test_matmul_of_the_wide_shapes_is_the_one_shot_product(monkeypatch):
    # The bench's wide model (d=1024, m=2816) at the real tile bounds:
    # the gated formula's B G, the attention formula's W_V P, and the
    # engine's 16-token products with E and G.
    rng = np.random.default_rng(71)
    d, m = 1024, 2816
    calls = _counting_matmul(monkeypatch)
    f32 = lambda *shape: rng.standard_normal(shape).astype(np.float32)  # noqa: E731
    for a, b in [(f32(d, m), f32(m, d)), (f32(d, d), f32(d, d)),
                 (rng.standard_normal((16, d)), f32(d, m)),
                 (rng.standard_normal((16, m)), f32(m, d))]:
        before = calls[0]
        want = np.asarray(a, dtype=np.float64) @ np.asarray(b, dtype=np.float64)
        assert np.array_equal(linalg.matmul(a, b), want), (a.shape, b.shape)
        assert calls[0] - before > 1, (a.shape, b.shape)


@pytest.mark.parametrize("shape", [(512, 1408), (256, 700), (700, 256), (1000, 300),
                                   (48, 48), (300, 1001)],
                         ids=lambda shape: "x".join(map(str, shape)))
def test_gram_lower_is_the_one_shot_gram_bit_for_bit(small_tiles, shape):
    # Against a aᵀ (or aᵀa, when a is tall), which numpy computes with one
    # syrk; LAPACK's symmetric solver reads only the lower triangle.
    rng = np.random.default_rng(73)
    a = rng.standard_normal(shape).astype(np.float32)
    scale = rng.standard_normal(shape[0])
    x = scale[:, None] * a
    want = x @ x.T if shape[0] <= shape[1] else x.T @ x
    got = linalg.gram_lower(a, scale)
    lower = np.tril_indices(min(shape))
    assert np.array_equal(got[lower], want[lower])
    assert np.array_equal(np.linalg.eigvalsh(got), np.linalg.eigvalsh(want))


def test_tiled_products_hold_two_tiles():
    # Memory gate, bound from shapes: the float64 result and the widest
    # outer and inner tile of linalg's plan, nothing the size of a
    # widened operand.  The 8 MiB operands are cut in at least two outer
    # tiles, and the rows beside (or below) one in at least two inner.
    rng = np.random.default_rng(79)
    d, m = 512, 2048
    a = rng.standard_normal((d, m)).astype(np.float32)
    b = rng.standard_normal((m, d)).astype(np.float32)
    scale = rng.standard_normal(d)
    rows, cols = linalg._product_tiles(d, m, d, False, False)
    (_, below), *_ = plan = linalg._gram_tiles(d, m)
    assert min(len(rows), len(cols), len(plan), len(below)) >= 2
    for run, tile_bytes in ((lambda: linalg.matmul(a, b), product_tile_bytes(d, m, d)),
                            (lambda: linalg.gram_lower(a, scale), gram_tile_bytes(d, m))):
        bound = 8 * d * d + sum(tile_bytes)
        assert sum(tile_bytes) < 8 * d * m  # so one widened operand would not fit
        assert traced_peak(run) <= 1.05 * bound
    whole = traced_peak(lambda: np.asarray(a, dtype=np.float64) @ b)
    assert whole > 1.05 * (8 * d * d + sum(product_tile_bytes(d, m, d)))


def test_tile_plans_follow_the_operand():
    # The plans from shapes alone, no array made.  Flagship (d=256,
    # m=1024): every product and Gram is one tile.  Wide-scales' B G
    # (d=1024, m=2816): G in 4 column tiles, B in 8 row tiles.  The
    # d=4096 layer's B G (m=11008): 4 column tiles of 1024 and 16 row
    # tiles of 256 (12 MiB outer and 3 MiB inner tiles would be 29 x 85).
    def widths(n: int, k: int, p: int) -> tuple[list[int], list[int]]:
        rows, cols = linalg._product_tiles(n, k, p, False, False)
        return [c.stop - c.start for c in cols], [r.stop - r.start for r in rows]

    for n, k, p in ((256, 1024, 256), (256, 256, 256), (1024, 256, 256)):
        assert widths(n, k, p) == ([p], [n])
    assert linalg._product_tiles(256, 256, 1024, True, False) == ([slice(0, 256)],
                                                                 [slice(0, 1024)])
    assert linalg._gram_tiles(256, 1024) == [(slice(0, 256), [])]
    assert widths(1024, 2816, 1024) == ([256] * 4, [128] * 8)
    assert widths(4096, 11008, 4096) == ([1024] * 4, [256] * 16)
