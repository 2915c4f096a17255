"""Batched binary16 kernels for the FP16 activation policy.

Values are IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits),
held as the exact float64 values they stand for; the package has no
other binary16 representation.  Rounding is round-to-nearest-even with
gradual underflow (subnormals are never flushed) and overflow to signed
infinity.

`sum_of_squares_rows` is the audited accumulation: it walks the d
columns strictly left to right and vectorises each step over the n
rows, rounding after every multiply and after every add (no FMA),
modelling hardware whose non-linear unit works purely in FP16.  Each
step computes in double and rounds once to binary16.  That is exact:
the square of a binary16 is exact in double, and so is the sum of two
binary16 values (a multiple of 2^-24 below 2^17, so at most 41
significant bits), and rounding to p bits via p' bits is innocuous when
p' >= 2p + 2 (Figueroa, "When is double rounding innocuous?", SIGNUM
1995).  The test suite holds both kernels here bit for bit to a scalar
soft-float oracle on bit patterns (`tests/fp16_oracle.py`).
"""

from __future__ import annotations

import numpy as np

# Format landmarks (exact doubles).
MAX_FINITE = 65504.0
MIN_NORMAL = 2.0**-14


def round_array(values: np.ndarray) -> np.ndarray:
    """Round a float64 array to binary16 values, kept in float64.

    This is the storage-rounding step of the FP16 activation policy:
    the values coming back are exactly representable in binary16
    (infinities included when the input overflows the format).
    """
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        return arr.astype(np.float16).astype(np.float64)


def sum_of_squares_rows(
    values: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise FP16 sum of squares of an n x d block of binary16 values.

    The block must hold binary16 values (`round_array`'s output).
    Returns (sums, overflowed, underflowed_to_zero), one entry per row:
    the columns are added strictly left to right, every square and
    every partial sum rounded once to binary16, so each sum is a
    binary16 value too.  A row overflows when its sum is inf or NaN,
    and underflows to zero when every square rounded to zero although
    some entry was nonzero.
    """
    values = np.asarray(values, dtype=np.float64)
    if values.ndim != 2:
        raise ValueError(f"expected an n x d block, got shape {values.shape}")
    if values.shape[1] == 0:
        raise ValueError("empty rows")
    with np.errstate(over="ignore", invalid="ignore"):
        squares = round_array(values * values)
        columns = np.ascontiguousarray(squares.T)  # one contiguous row per step
        acc = np.zeros(values.shape[0])
        half = np.empty(values.shape[0], dtype=np.float16)
        for column in columns:
            np.add(acc, column, out=acc)  # exact: both operands are binary16
            half[...] = acc  # the one rounding of this step
            acc[...] = half
    overflowed = ~np.isfinite(acc)
    underflowed = (squares == 0.0).all(axis=1) & (values != 0.0).any(axis=1)
    return acc, overflowed, underflowed
