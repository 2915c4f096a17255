"""Batched binary16 kernels for the FP16 activation policy.

Values are IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits),
held as the exact float64 values they stand for; the package has no
other binary16 representation.  Rounding is round-to-nearest-even with
gradual underflow (subnormals are never flushed) and overflow to signed
infinity.

`round_array` rounds by exact float64 arithmetic, never through a
float16 cast, so its cost does not depend on the values' range.  Take
an element x with float64 exponent e (|x| in [2^e, 2^(e+1))), clamped
to [-14, 16]: binary16's grid step there is 2^(e-10), which is 2^-24,
the subnormal step, for every e the lower clamp raises.  With
m = +-2^(e+42), carrying x's sign, x + m lies in m's binade, whose
float64 ulp is that step; so fl(x + m) rounds x to the grid, ties to
even (the last bit of fl(x + m) is the parity of x's binary16 mantissa),
and fl(x + m) - m is exact.  The clamps come before the exponent is
shifted by 42: a shifted inf/NaN exponent would overflow its field, and
the upper clamp keeps m finite for them.  On the grid, |r| > 65504
means |r| >= 2^16, which becomes infinity.  Last, x's sign bit goes
back on r (a copysign from m), so a negative value that rounds to zero
gives -0.

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


# round_array works in blocks of this many elements, so that the scratch
# arrays of a block stay in cache.
_BLOCK = 1 << 14
_SIGN = np.uint64(1 << 63)
_EXPONENT = np.uint64(0x7FF << 52)
_SHIFT = np.uint64(42 << 52)  # 2^e -> 2^(e+42), added to the exponent field
_UNIT = 2.0**1008  # r * _UNIT overflows exactly when |r| >= 2^16


def round_array(values: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Round a float64 array to binary16 values, kept in float64.

    This is the storage-rounding step of the FP16 activation policy:
    each value coming back is the round-to-nearest-even binary16 of its
    input (infinity when the input overflows the format), bit for bit
    what a float64 -> float16 cast gives.  The module docstring gives
    the arithmetic and why it is exact.

    Without `out` the result is a new array.  `out` must be a
    C-contiguous float64 array of the input's shape; it may be the
    input itself, which is then rounded in place.  A non-contiguous
    input is copied once.  Scratch space is two blocks of _BLOCK
    elements, whatever the size of the input.
    """
    x = np.asarray(values, dtype=np.float64, order="C")
    if out is None:
        out = np.empty_like(x)
    elif out.dtype != np.float64 or out.shape != x.shape or not out.flags.c_contiguous:
        raise ValueError(f"out must be a C-contiguous float64 array of shape {x.shape}")
    flat, result = x.reshape(-1), out.reshape(-1)
    scratch = np.empty((2, min(flat.size, _BLOCK)), dtype=np.uint64)
    # Overflow is how _UNIT makes infinities; invalid comes only from a
    # signalling NaN input.
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, flat.size, _BLOCK):
            xb, r = flat[start:start + _BLOCK], result[start:start + _BLOCK]
            m_bits, sign = scratch[:, :xb.size]
            m = m_bits.view(np.float64)
            np.bitwise_and(xb.view(np.uint64), _SIGN, out=sign)
            np.bitwise_and(xb.view(np.uint64), _EXPONENT, out=m_bits)  # 2^e, or 0, or inf
            np.maximum(m, MIN_NORMAL, out=m)
            np.minimum(m, 2.0**16, out=m)
            np.add(m_bits, _SHIFT, out=m_bits)
            np.bitwise_or(m_bits, sign, out=m_bits)  # m = +-2^(e+42)
            np.add(xb, m, out=r)  # the one rounding
            np.subtract(r, m, out=r)
            np.multiply(r, _UNIT, out=r)
            np.multiply(r, 1.0 / _UNIT, out=r)
            r_bits = r.view(np.uint64)
            np.bitwise_or(r_bits, sign, out=r_bits)
    return out


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
        columns = np.empty(values.shape[::-1])  # the squares, one contiguous row per step
        np.multiply(values.T, values.T, out=columns)
        round_array(columns, out=columns)
        acc = np.zeros(values.shape[0])
        half = np.empty(values.shape[0], dtype=np.float16)
        for column in columns:
            np.add(acc, column, out=acc)  # exact: both operands are binary16
            half[...] = acc  # the one rounding of this step
            acc[...] = half
    overflowed = ~np.isfinite(acc)
    underflowed = (columns == 0.0).all(axis=0) & (values != 0.0).any(axis=1)
    return acc, overflowed, underflowed
