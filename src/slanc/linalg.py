"""Double-precision matrix norms and products for offline scale computation.

Everything here runs in float64 on plain ndarrays, whatever the input
dtype; reduced precision exists only in the simulated inference data
path.  The spectral norm is one symmetric eigenvalue solve on the lower
triangle of the smaller Gram matrix (a aᵀ or aᵀa), so it is
deterministic and needs no iteration count or tolerance; dense SVD is
only a test oracle.  A float32 weight is widened one tile at a time
(matmul, gram_lower), and each output tile is one BLAS call over the
full inner dimension on the kernels the one-shot call runs, so it sums
in the same order: tile edges fall on multiples of _ALIGN, no tile is
thinner than 2 * _ALIGN (one row would be a matrix-vector call), and a
result whose column count is not a multiple of _ALIGN is not tiled
(OpenBLAS's ragged-edge kernels sum a row tile in another order).  The
tests check the bits against the one-shot product and Gram.
"""

from __future__ import annotations

import math

import numpy as np

# Widened bytes in a tile, and in an outer tile, which is widened once
# while the inner tiles beside it are widened once per outer tile.
_TILE_BYTES = 3 << 20
_OUTER_BYTES = 4 * _TILE_BYTES
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


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b in float64, bit for bit the one-shot product of the widened
    operands: a float32 b is widened in column tiles, each once (outer
    tiles when a is float32 too), and a float32 a in row tiles, once per
    column tile."""
    a, b = np.asarray(a), np.asarray(b)
    (n, k), p = a.shape, b.shape[1]
    tiled, narrow = p % _ALIGN == 0, 2 * _ALIGN
    cols = ([slice(0, p)] if b.dtype == np.float64 or not tiled else _tiles(
        0, p, k, min(n, narrow), _TILE_BYTES if a.dtype == np.float64 else _OUTER_BYTES))
    rows = ([slice(0, n)] if a.dtype == np.float64 or not tiled
            else _tiles(0, n, k, min(p, narrow), _TILE_BYTES))
    out = np.empty((n, p))
    for c in cols:
        right = np.asarray(b[:, c], dtype=np.float64)
        for r in rows:
            np.matmul(np.asarray(a[r], dtype=np.float64), right, out=out[r, c])
        del right  # before the next tile is widened
    return out


def gram_lower(a: np.ndarray, row_scale: np.ndarray) -> np.ndarray:
    """The lower triangle of x xᵀ for x = diag(row_scale) a (of xᵀx when
    a is tall), bit for bit the one-shot float64 product's (a syrk); no
    caller reads above it.  Each outer row tile of x is widened once, for
    its diagonal block, and the rows below it in inner tiles."""
    wide, (side, k) = a.shape[0] <= a.shape[1], sorted(a.shape)

    def tile(span: slice) -> np.ndarray:  # rows of x
        if wide:
            return np.multiply(row_scale[span, None], a[span], dtype=np.float64)
        return np.multiply(row_scale[:, None], a[:, span], dtype=np.float64).T

    gram = np.zeros((side, side))
    outer = (_tiles(0, side, k, 2 * _ALIGN, _OUTER_BYTES) if side % _ALIGN == 0
             else [slice(0, side)])
    with np.errstate(over="ignore", invalid="ignore"):
        for span in outer:
            held = tile(span)
            np.matmul(held, held.T, out=gram[span, span])
            for here in _tiles(span.stop, side, k, 2 * _ALIGN, _TILE_BYTES):
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
