"""Batched binary16 kernels for the FP16 activation policy.

Values are IEEE 754 binary16 (1 sign, 5 exponent, 10 mantissa bits),
held as uint16 bit patterns or as the exact float64 values they decode
to.  Rounding is round-to-nearest-even with gradual underflow
(subnormals are never flushed) and overflow to signed infinity; every
NaN produced is the canonical quiet pattern 0x7E00.

`sum_of_squares_rows` is the audited accumulation: it walks the d
columns strictly left to right and vectorises each step over the n
rows, rounding after every multiply and after every add (no FMA),
modelling hardware whose non-linear unit works purely in FP16.  Each
step computes in double and rounds once to binary16.  That is exact:
the square of a binary16 is exact in double, and so is the sum of two
binary16 values (a multiple of 2^-24 below 2^17, so at most 41
significant bits), and rounding to p bits via p' bits is innocuous when
p' >= 2p + 2 (Figueroa, "When is double rounding innocuous?", SIGNUM
1995).  The test suite holds every kernel here bit for bit to a scalar
soft-float oracle (`tests/fp16_oracle.py`).
"""

from __future__ import annotations

import numpy as np

NAN = 0x7E00  # canonical quiet NaN bit pattern

# Format landmarks (exact doubles).
MAX_FINITE = 65504.0
MIN_NORMAL = 2.0**-14


def encode_array(values: np.ndarray) -> np.ndarray:
    """Round a float64 array to binary16: float64 -> uint16 bit patterns.

    Uses numpy's double->half cast (also round-to-nearest-even) and
    canonicalises NaNs.
    """
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        bits = arr.astype(np.float16).view(np.uint16)
    if np.isnan(arr).any():
        bits = np.where(np.isnan(arr), np.uint16(NAN), bits)
    return bits


def decode_array(bits: np.ndarray) -> np.ndarray:
    """uint16 bit patterns -> the exact float64 values they encode."""
    return np.asarray(bits, dtype=np.uint16).view(np.float16).astype(np.float64)


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
    bits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise FP16 sum of squares of an n x d block of bit patterns.

    Returns (sum bits, overflowed, underflowed_to_zero), one entry per
    row: the columns are added strictly left to right, every square and
    every partial sum rounded once to binary16, NaN sums canonicalised
    to 0x7E00.  A row overflows when its sum is inf or NaN, and
    underflows to zero when every square rounded to zero although some
    entry was nonzero.
    """
    bits = np.asarray(bits, dtype=np.uint16)
    if bits.ndim != 2:
        raise ValueError(f"expected an n x d block, got shape {bits.shape}")
    if bits.shape[1] == 0:
        raise ValueError("empty rows")
    values = decode_array(bits)
    with np.errstate(over="ignore", invalid="ignore"):
        squares = round_array(values * values)
        columns = np.ascontiguousarray(squares.T)  # one contiguous row per step
        acc = np.zeros(bits.shape[0])
        half = np.empty(bits.shape[0], dtype=np.float16)
        for column in columns:
            np.add(acc, column, out=acc)  # exact: both operands are binary16
            half[...] = acc  # the one rounding of this step
            acc[...] = half
    sums = half.view(np.uint16)
    nan = np.isnan(acc)
    if nan.any():
        sums = np.where(nan, np.uint16(NAN), sums)
    overflowed = np.isinf(acc) | nan
    underflowed = (squares == 0.0).all(axis=1) & (values != 0.0).any(axis=1)
    return sums, overflowed, underflowed
