"""Double-precision matrix norms for offline scale computation.

Everything here runs in float64 on plain ndarrays, whatever the input
dtype: a float32 weight is widened before it is squared, so no norm is
taken in single precision.  Reduced precision exists only in the
simulated inference data path.  The spectral norm is one symmetric
eigenvalue solve on the smaller Gram matrix (a aᵀ or aᵀa), so it is
deterministic and needs no iteration count or tolerance; dense SVD is
used only as a test oracle.
"""

from __future__ import annotations

import math

import numpy as np


class ConvergenceError(Exception):
    """The spectral norm could not be computed (non-finite Gram matrix
    or an eigensolver failure); names the norm once one is known."""

    def __init__(self, message: str):
        super().__init__(message)
        self.message = message
        self.norm_id: str | None = None  # set by compute_scale_table

    def __str__(self) -> str:
        where = f" at norm {self.norm_id!r}" if self.norm_id else ""
        return f"{self.message}{where}"


def frobenius_norm(a: np.ndarray) -> float:
    """Square root of the sum of squared entries, in double precision."""
    a = np.asarray(a, dtype=np.float64)
    return math.sqrt(float(np.sum(a * a)))


def spectral_norm(a: np.ndarray) -> float:
    """Largest singular value of a 2-D array, in double precision.

    Forms the Gram matrix on the smaller side (a aᵀ when a has no more
    rows than columns, else aᵀa) and takes the square root of its
    largest eigenvalue from LAPACK's symmetric solver.  A zero matrix
    short-circuits to 0.  Raises ConvergenceError when the Gram matrix
    is not finite (non-finite input, or entries large enough to
    overflow when squared) or the solver fails.
    """
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"spectral_norm needs a 2-D array, got shape {a.shape}")
    if not a.any():
        return 0.0
    rows, cols = a.shape
    with np.errstate(over="ignore", invalid="ignore"):
        gram = a @ a.T if rows <= cols else a.T @ a
    if not np.isfinite(gram).all():
        raise ConvergenceError(
            f"Gram matrix of the {rows}x{cols} operand is not finite"
        )
    try:
        top = float(np.linalg.eigvalsh(gram)[-1])
    except np.linalg.LinAlgError as err:
        raise ConvergenceError(f"eigenvalue solve failed: {err}") from err
    return math.sqrt(max(top, 0.0))
