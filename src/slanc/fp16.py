"""Bit-exact software emulation of IEEE 754 binary16.

Values are 16-bit patterns held in plain ints (1 sign, 5 exponent,
10 mantissa bits).  Every primitive is computed by decoding to double,
performing the operation in double, and rounding back with
round-to-nearest-even.  This is exact for binary16: double carries more
than twice the precision and range, so no double-rounding hazard exists
for add / mul / div / sqrt of binary16 operands (rounding to p bits via
p' bits is innocuous when p' >= 2p + 2; Figueroa, "When is double
rounding innocuous?", SIGNUM 1995).

Subnormals are fully supported and never flushed.  All NaNs produced
here are the canonical quiet pattern 0x7E00.  There is no FMA: the
sum-of-squares accumulator rounds after every multiply and after every
add, modelling hardware whose non-linear unit works purely in FP16.

The engine uses the batched row accumulator `sum_of_squares_rows`,
which walks the d columns strictly left to right and vectorises each
step over the n rows.  Every step is the same single rounding of an
exact double result as in the scalar path -- the square of a binary16
is exact in double, and so is the sum of two binary16 values (a
multiple of 2^-24 below 2^17, so at most 41 significant bits) -- so
its sums are bit-identical to `accumulate_sum_of_squares`.  The scalar
soft-float (`encode`, `Fp16Tensor`, `accumulate_sum_of_squares`) is
kept as the test oracle.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass

import numpy as np

# Distinguished bit patterns.
POS_INF = 0x7C00
NEG_INF = 0xFC00
NAN = 0x7E00  # canonical quiet NaN

# Format landmarks (exact doubles).
MAX_FINITE = 65504.0
MIN_NORMAL = 2.0**-14
MIN_SUBNORMAL = 2.0**-24

_EXP_MASK = 0x7C00
_FRAC_MASK = 0x03FF

_decode_table: list[float] | None = None


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


def _table() -> list[float]:
    """Decoded value of every 16-bit pattern, built once on first use."""
    global _decode_table
    if _decode_table is None:
        _decode_table = [decode(b) for b in range(0x10000)]
    return _decode_table


# ── array helpers ────────────────────────────────────────────────────────

def encode_array(values: np.ndarray) -> np.ndarray:
    """Vectorised encode: float64 array -> uint16 bit patterns.

    Uses numpy's double->half cast (also round-to-nearest-even) and
    canonicalises NaNs; pinned bitwise-equal to scalar encode() by the
    test suite.
    """
    arr = np.asarray(values, dtype=np.float64)
    with np.errstate(over="ignore"):
        bits = arr.astype(np.float16).view(np.uint16)
    if np.isnan(arr).any():
        bits = np.where(np.isnan(arr), np.uint16(NAN), bits)
    return bits


def decode_array(bits: np.ndarray) -> np.ndarray:
    """Vectorised decode: uint16 bit patterns -> exact float64 values."""
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


# ── tensors and the accumulator ──────────────────────────────────────────

@dataclass(frozen=True)
class Fp16Tensor:
    """Dense row-major tensor of binary16 bit patterns."""

    shape: tuple[int, ...]
    data: np.ndarray  # flat uint16

    def __post_init__(self) -> None:
        data = np.ascontiguousarray(self.data, dtype=np.uint16).ravel()
        object.__setattr__(self, "data", data)
        object.__setattr__(self, "shape", tuple(int(n) for n in self.shape))
        if math.prod(self.shape) != data.size:
            raise ValueError(
                f"shape {self.shape} does not match {data.size} elements"
            )

    @classmethod
    def from_doubles(cls, values: np.ndarray) -> "Fp16Tensor":
        arr = np.asarray(values, dtype=np.float64)
        return cls(shape=arr.shape, data=encode_array(arr).ravel())

    def to_doubles(self) -> np.ndarray:
        return decode_array(self.data).reshape(self.shape)

    @property
    def rank(self) -> int:
        return len(self.shape)


@dataclass(frozen=True)
class AccumulationTrace:
    """Outcome of one emulated FP16 sum-of-squares accumulation.

    final_sum is a bit pattern; max_partial is the running exact sum
    (double precision, reporting only — it never feeds back into the
    FP16 arithmetic).
    """

    final_sum: int
    overflowed: bool
    underflowed_to_zero: bool
    max_partial: float
    count: int

    @property
    def final_value(self) -> float:
        return decode(self.final_sum)


def accumulate_sum_of_squares(v: Fp16Tensor) -> AccumulationTrace:
    """Sum the squares of a rank-1 tensor strictly left to right in FP16.

    Each step is s = add(s, mul(v_i, v_i)), both operations rounded.
    The trace flags overflow (final sum is inf or NaN) and total
    underflow (every squared term rounded to zero although some input
    was nonzero).  Accumulation order is part of the contract:
    permuting the input may change the result.
    """
    if v.rank != 1:
        raise ValueError(f"expected a rank-1 tensor, got shape {v.shape}")
    if v.data.size == 0:
        raise ValueError("empty vector")
    table = _table()
    s_val = 0.0
    s_bits = 0x0000
    exact = 0.0
    max_partial = 0.0
    any_nonzero = False
    all_squares_zero = True
    for b in v.data.tolist():
        dv = table[b]
        if dv != 0.0:
            any_nonzero = True
        sq_bits = encode(dv * dv)
        if sq_bits != 0x0000:
            all_squares_zero = False
        s_bits = encode(s_val + table[sq_bits])
        s_val = table[s_bits]
        exact += dv * dv
        if exact > max_partial:
            max_partial = exact
    return AccumulationTrace(
        final_sum=s_bits,
        overflowed=math.isinf(s_val) or math.isnan(s_val),
        underflowed_to_zero=all_squares_zero and any_nonzero,
        max_partial=max_partial,
        count=int(v.data.size),
    )


def sum_of_squares_rows(
    bits: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Row-wise FP16 sum of squares of an n x d block of bit patterns.

    Returns (sum bits, overflowed, underflowed_to_zero), one entry per
    row, each equal to what `accumulate_sum_of_squares` gives for that
    row: the columns are added strictly left to right, every square and
    every partial sum rounded once to binary16, NaN sums canonicalised
    to 0x7E00.
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
