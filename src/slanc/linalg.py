"""Double-precision matrix norms and products for offline scale computation.

Everything here runs in float64 on plain ndarrays, whatever the input
dtype; reduced precision exists only in the simulated inference data
path.  The spectral norm is one symmetric eigenvalue solve on the lower
triangle of the smaller Gram matrix (a aᵀ or aᵀa), so it is
deterministic on one numpy/OpenBLAS build, kernel and thread count
(another can move the last bits; ROADMAP item 20) and needs no
iteration count or tolerance; dense SVD is only a test oracle.

A float32 weight is widened one tile at a time (matmul, gram_lower),
and each output tile is one BLAS call over the full inner dimension on
the kernels the one-shot call runs, so it sums in the same order: tile
edges fall on multiples of _ALIGN, no tile is thinner than 2 * _ALIGN
(one row would be a matrix-vector call), and a result whose column
count is not a multiple of _ALIGN is not tiled (OpenBLAS's ragged-edge
kernels sum a row tile in another order).  The tests check the bits
against the one-shot product and Gram.

A tile's size follows its operand (_budget).  An outer tile, widened
once, holds at most a quarter of its widened operand; a tile widened
beside a float64 block (an outer tile, which an inner tile is widened
again for, or an operand already float64) at most a quarter of that
block; none is held to less than _LEAST_TILE_BYTES.  Why a quarter: a
tile of fixed bytes gets thinner as the inner dimension grows (3 MB is
35 rows of 11008), and a 4096 x 11008 by 11008 x 4096 product in such
tiles ran at a third of the one-shot rate, while tiles of a quarter
and a sixteenth of the operand ran at 1.1-1.3x the one-shot time
(ROADMAP item 21).  The inner operand is then widened at most four
times, and the tiles held at once are a fraction of what the product
holds anyway.  A product with few float64 rows (the engine's) keeps
_LEAST_TILE_BYTES tiles, which cost it no time.
"""

from __future__ import annotations

import math

import numpy as np

# Widened bytes no tile budget goes below, however small its operand.
_LEAST_TILE_BYTES = 3 << 20
_ALIGN = 16
# Below about 100^3 multiply-adds OpenBLAS runs an unblocked
# small-matrix kernel that sums in another order; no tile does fewer.
_LEAST_MACS = 1 << 21


class ConvergenceError(Exception):
    """A spectral norm or scale formula could not be computed (a
    non-finite Gram matrix or value, or an eigensolver failure); names
    the norm once one is known."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.norm_id: str | None = None  # set by compute_scale_table

    def __str__(self) -> str:
        where = f" at norm {self.norm_id!r}" if self.norm_id else ""
        return f"{self.message}{where}"


def _tiles(start: int, stop: int, k: int, other: int, bound: int) -> list[slice]:
    """range(start, stop) in about equal tiles of k float64 per row, edges
    at multiples of _ALIGN from start, each at most bound bytes (plus
    _ALIGN rows) unless it would be under 2 * _ALIGN rows or _LEAST_MACS
    beside a tile other rows wide."""
    n = stop - start
    least = max(-(-_LEAST_MACS // max(1, k * other)), 2 * _ALIGN) + _ALIGN
    count = max(min(n, 1), min(-(-n * 8 * k // bound), n // least))
    edges = [start + _ALIGN * (n * i // (_ALIGN * count)) for i in range(count)]
    return [slice(a, b) for a, b in zip(edges, edges[1:] + [stop])]


def _budget(widened: int) -> int:
    """Bytes a tile of an operand that widens to widened bytes may hold:
    a quarter of them, never less than _LEAST_TILE_BYTES."""
    return max(widened // 4, _LEAST_TILE_BYTES)


def _product_tiles(n: int, k: int, p: int, a_wide: bool,
                   b_wide: bool) -> tuple[list[slice], list[slice]]:
    """The row tiles of a and the column tiles of b that matmul runs an
    n x k by k x p product in, from its shape alone; an operand already
    float64 (a_wide, b_wide) is one tile.  Under two float32 operands
    b's column tiles are the outer ones; beside a float64 operand the
    other's tiles hold at most a quarter of it (_budget)."""
    rows, cols = [slice(0, n)], [slice(0, p)]
    if p % _ALIGN:
        return rows, cols
    narrow, quarter_a, quarter_b = 2 * _ALIGN, _budget(8 * n * k), _budget(8 * k * p)
    if not b_wide:
        cols = _tiles(0, p, k, min(n, narrow), quarter_a if a_wide else quarter_b)
    if not a_wide:
        rows = _tiles(0, n, k, min(p, narrow), quarter_b if b_wide else _budget(quarter_b))
    return rows, cols


def matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """a @ b in float64, bit for bit the one-shot product of the widened
    operands, written into out (an n x p float64 array) when given: a
    float32 b is widened in column tiles, each once, and a float32 a in
    row tiles, once per column tile (_product_tiles)."""
    a, b = np.asarray(a), np.asarray(b)
    (n, k), p = a.shape, b.shape[1]
    rows, cols = _product_tiles(n, k, p, a.dtype == np.float64, b.dtype == np.float64)
    out = np.empty((n, p)) if out is None else out
    for c in cols:
        right = np.asarray(b[:, c], dtype=np.float64)
        for r in rows:
            np.matmul(np.asarray(a[r], dtype=np.float64), right, out=out[r, c])
        del right  # before the next tile is widened
    return out


def _gram_tiles(side: int, k: int) -> list[tuple[slice, list[slice]]]:
    """The outer row tiles of x that gram_lower runs a side x side Gram
    of rows k long in, each with the inner tiles of the rows below it."""
    if side % _ALIGN:
        return [(slice(0, side), [])]
    outer = _budget(8 * side * k)
    return [(span, _tiles(span.stop, side, k, 2 * _ALIGN, _budget(outer)))
            for span in _tiles(0, side, k, 2 * _ALIGN, outer)]


def gram_lower(a: np.ndarray, row_scale: np.ndarray) -> np.ndarray:
    """The lower triangle of x xᵀ for x = diag(row_scale) a (of xᵀx when
    a is tall), bit for bit the one-shot float64 product's (a syrk); no
    caller reads above it.  Each outer row tile of x is widened once, for
    its diagonal block, and the rows below it in inner tiles
    (_gram_tiles)."""
    wide, (side, k) = a.shape[0] <= a.shape[1], sorted(a.shape)

    def tile(span: slice) -> np.ndarray:  # rows of x
        if wide:
            return np.multiply(row_scale[span, None], a[span], dtype=np.float64)
        return np.multiply(row_scale[:, None], a[:, span], dtype=np.float64).T

    gram = np.zeros((side, side))
    with np.errstate(over="ignore", invalid="ignore"):
        for span, below in _gram_tiles(side, k):
            held = tile(span)
            np.matmul(held, held.T, out=gram[span, span])
            for here in below:
                np.matmul(tile(here), held.T, out=gram[here, span])
            del held  # before the next outer tile is widened
    return gram


def spectral_norm(a: np.ndarray, row_scale: np.ndarray | None = None) -> float:
    """Largest singular value of diag(row_scale) a, a 2-D array, in
    double precision (row_scale all ones when None): the square root of
    the largest eigenvalue of gram_lower, from LAPACK's symmetric solver.
    A zero matrix short-circuits to 0.  Raises ConvergenceError when the
    Gram matrix is not finite (non-finite input, or entries large enough
    to overflow when squared) or the solver fails."""
    a = np.asarray(a)
    if a.ndim != 2:
        raise ValueError(f"spectral_norm needs a 2-D array, got shape {a.shape}")
    if not a.any():
        return 0.0
    gram = gram_lower(a, np.ones(a.shape[0]) if row_scale is None else row_scale)
    if not np.isfinite(gram).all():
        raise ConvergenceError(f"Gram matrix of the {a.shape[0]}x{a.shape[1]} "
                               f"operand is not finite")
    try:
        top = float(np.linalg.eigvalsh(gram)[-1])
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigenvalue solve failed: {err}") from err
    return math.sqrt(max(top, 0.0))
