"""Scalar soft-float oracle for IEEE 754 binary16.

The package computes in batched numpy kernels (`slanc.fp16`); this
module is the slow, one-value-at-a-time reference the tests hold them
to.  Values are 16-bit patterns held in plain ints (1 sign, 5 exponent,
10 mantissa bits).  Every primitive decodes to double, performs the
operation in double, and rounds back with round-to-nearest-even.  This
is exact for binary16: double carries more than twice the precision and
range, so no double-rounding hazard exists for add / mul / div / sqrt of
binary16 operands (rounding to p bits via p' bits is innocuous when
p' >= 2p + 2; Figueroa, "When is double rounding innocuous?", SIGNUM
1995).

Subnormals are fully supported and never flushed.  All NaNs produced
here are the canonical quiet pattern 0x7E00.  There is no FMA: the
sum-of-squares accumulator rounds after every multiply and after every
add, modelling hardware whose non-linear unit works purely in FP16.

Tests import it by module name, as they import `conftest`; its file name
does not match `test_*.py`, so pytest does not collect it.
"""

from __future__ import annotations

import math
import struct

import numpy as np

# Distinguished bit patterns.
POS_INF = 0x7C00
NEG_INF = 0xFC00
NAN = 0x7E00  # canonical quiet NaN

_EXP_MASK = 0x7C00
_FRAC_MASK = 0x03FF


def decode(bits: int) -> float:
    """Exact double value of a binary16 bit pattern.

    Every finite binary16 is exactly representable in double, so this
    is lossless.  NaN payloads are not preserved (a plain nan comes
    back).
    """
    if not 0 <= bits <= 0xFFFF:
        raise ValueError(f"not a 16-bit pattern: {bits!r}")
    sign = -1.0 if bits & 0x8000 else 1.0
    e = (bits >> 10) & 0x1F
    m = bits & _FRAC_MASK
    if e == 0x1F:
        return sign * math.inf if m == 0 else math.nan
    if e == 0:
        return sign * math.ldexp(m, -24)  # subnormal: m * 2^-24, zero included
    return sign * math.ldexp(1024 + m, e - 25)  # (1 + m/1024) * 2^(e-15)


def encode(x: float) -> int:
    """Round a real (or inf/nan) to the nearest binary16, ties to even.

    Magnitudes of exactly 65520 and above round to signed infinity;
    gradual underflow produces subnormals down to 2^-24.  NaN maps to
    the canonical 0x7E00.
    """
    if math.isnan(x):
        return NAN
    u = struct.unpack("<Q", struct.pack("<d", x))[0]
    sign = (u >> 48) & 0x8000
    exp64 = (u >> 52) & 0x7FF
    frac64 = u & 0x000F_FFFF_FFFF_FFFF
    if exp64 == 0x7FF:  # infinity; NaN handled above
        return sign | POS_INF
    if exp64 == 0:  # double subnormal: < 2^-1022, rounds to zero for binary16
        return sign
    he = exp64 - 1008  # tentative biased half exponent (= E - 1023 + 15)
    if he >= 0x1F:
        return sign | POS_INF
    if he >= 1:
        # Normal result: keep 10 of the 52 fraction bits.
        keep = frac64 >> 42
        rest = frac64 & ((1 << 42) - 1)
        out = sign | (he << 10) | keep
        halfway = 1 << 41
        if rest > halfway or (rest == halfway and keep & 1):
            out += 1  # carry may roll into the exponent; 0x7BFF + 1 == inf, as required
        return out
    # Subnormal result: denormalize the full 53-bit significand.
    full = frac64 | (1 << 52)
    drop = 43 - he
    if drop >= 54:  # below half the smallest subnormal
        return sign
    keep = full >> drop
    rest = full & ((1 << drop) - 1)
    halfway = 1 << (drop - 1)
    if rest > halfway or (rest == halfway and keep & 1):
        keep += 1  # 0x3FF + 1 == 0x400 is the smallest normal, the right pattern
    return sign | keep


def add(a: int, b: int) -> int:
    """Binary16 addition: encode(decode(a) + decode(b))."""
    return encode(decode(a) + decode(b))


def mul(a: int, b: int) -> int:
    """Binary16 multiplication, IEEE special-value semantics included."""
    return encode(decode(a) * decode(b))


def div(a: int, b: int) -> int:
    """Binary16 division.  x/0 gives signed infinity, 0/0 and inf/inf NaN."""
    da, db = decode(a), decode(b)
    if db == 0.0:
        # Python raises on float division by zero; IEEE does not.
        if math.isnan(da) or da == 0.0:
            return NAN
        negative = (math.copysign(1.0, da) < 0.0) != (math.copysign(1.0, db) < 0.0)
        return NEG_INF if negative else POS_INF
    return encode(da / db)


def sqrt(a: int) -> int:
    """Binary16 square root.  Negative operands give NaN; sqrt(-0) is -0."""
    da = decode(a)
    if math.isnan(da) or da < 0.0:
        return NAN
    return encode(math.sqrt(da))


def is_nan(bits: int) -> bool:
    return bits & _EXP_MASK == _EXP_MASK and bits & _FRAC_MASK != 0


def is_inf(bits: int) -> bool:
    return bits & 0x7FFF == POS_INF


def accumulate_sum_of_squares(bits) -> tuple[int, bool, bool]:
    """Sum the squares of a 1-D sequence of bit patterns left to right in FP16.

    Each step is s = add(s, mul(v_i, v_i)), both operations rounded.
    Returns (sum bits, overflowed, underflowed): overflow means the sum
    is inf or NaN, underflow that every squared term rounded to zero
    although some input was nonzero -- the triple one row of
    `slanc.fp16.sum_of_squares_rows` gives.  Accumulation order is part
    of the contract: permuting the input may change the result.
    """
    bits = np.asarray(bits, dtype=np.uint16)
    if bits.ndim != 1:
        raise ValueError(f"expected a 1-D sequence of bit patterns, got shape {bits.shape}")
    if bits.size == 0:
        raise ValueError("empty vector")
    s = 0x0000
    any_nonzero = False
    all_squares_zero = True
    for b in bits.tolist():
        any_nonzero = any_nonzero or decode(b) != 0.0
        square = mul(b, b)
        all_squares_zero = all_squares_zero and square == 0x0000
        s = add(s, square)
    overflowed = is_inf(s) or is_nan(s)
    return s, overflowed, all_squares_zero and any_nonzero
