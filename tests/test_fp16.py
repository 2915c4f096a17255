"""Tests for the binary16 emulation: the scalar soft-float oracle
(`fp16_oracle`) and the package's batched kernels (`slanc.fp16`).

The scalar oracle is checked, in decreasing order of authority, against:

* an exact nearest-even oracle built on fractions.Fraction and the IEEE
  binary16 value formula (independent of both the emulator's bit
  twiddling and of numpy),
* numpy's half-precision path (float16 ops run in float32, which is
  correctly rounded for binary16 since float32 carries more than
  2p + 2 bits),
* exhaustive enumeration of all 65536 patterns where that is feasible.

The batched kernels, which hold binary16 as the float64 values the
patterns decode to, are then held bit for bit to the scalar oracle: the
oracle decodes its patterns to feed them and encodes what they return.
No expected value below was produced by the code under test.
"""

from __future__ import annotations

import math
import struct
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from fp16_oracle import (
    NAN,
    NEG_INF,
    POS_INF,
    accumulate_sum_of_squares,
    add,
    decode,
    div,
    encode,
    is_nan,
    mul,
    sqrt,
)
from slanc.fp16 import round_array, sum_of_squares_rows

# ── independent oracles ──────────────────────────────────────────────────


def _positive_half_values() -> list[Fraction]:
    """Every non-negative finite binary16 as an exact rational.

    Built from the format definition only: subnormals are m * 2^-24,
    normals (1 + m/1024) * 2^(e-15).  Index i is exactly the bit
    pattern i, so pattern parity gives tie-to-even directly.
    """
    values = [Fraction(m, 1 << 24) for m in range(1024)]
    for e in range(1, 31):
        scale = Fraction(2) ** (e - 15)
        values.extend((1 + Fraction(m, 1024)) * scale for m in range(1024))
    return values


_HALVES = _positive_half_values()
# Virtual next value after 65504: rounding past the midpoint 65520 must
# give infinity, and 65520 itself ties to the (even) infinity pattern.
_HALVES_EXT = _HALVES + [Fraction(65536)]


def oracle_encode(x: float) -> int:
    """Round-to-nearest-even binary16 of a double, by exact search."""
    if math.isnan(x):
        return NAN
    sign = 0x8000 if math.copysign(1.0, x) < 0.0 else 0x0000
    if math.isinf(x):
        return sign | POS_INF
    mag = Fraction(abs(x))
    lo, hi = 0, len(_HALVES_EXT) - 1
    while lo < hi:  # largest pattern with value <= mag
        mid = (lo + hi + 1) // 2
        if _HALVES_EXT[mid] <= mag:
            lo = mid
        else:
            hi = mid - 1
    below = lo
    above = min(lo + 1, len(_HALVES_EXT) - 1)
    d_below = mag - _HALVES_EXT[below]
    d_above = _HALVES_EXT[above] - mag
    if d_below < d_above:
        pick = below
    elif d_above < d_below:
        pick = above
    else:
        pick = below if below % 2 == 0 else above
    if pick >= 0x7C00:
        return sign | POS_INF
    return sign | pick


def numpy_half_bits(x: float) -> int:
    with np.errstate(over="ignore"):
        return int(np.float64(x).astype(np.float16).view(np.uint16))


def canonical(bits: int) -> int:
    """Collapse NaN payloads so bitwise comparison is meaningful."""
    return NAN if is_nan(bits) else bits


def same_double(a: float, b: float) -> bool:
    """Both NaN, or the same float64 bit for bit (so -0 is not +0)."""
    return (math.isnan(a) and math.isnan(b)) or struct.pack("<d", a) == struct.pack("<d", b)


def encode_all(xs) -> np.ndarray:
    """The oracle's bit pattern of every value of a float array."""
    xs = np.asarray(xs, dtype=np.float64)
    return np.array([encode(x) for x in xs.ravel().tolist()], dtype=np.uint16).reshape(xs.shape)


# The oracle's value of every bit pattern: DECODED[bits] decodes an array.
DECODED = np.array([decode(bits) for bits in range(0x10000)])


SPECIAL_BITS = [
    0x0000, 0x8000,  # +-0
    0x0001, 0x8001,  # smallest subnormals
    0x03FF, 0x0400,  # subnormal/normal boundary
    0x3C00, 0xBC00,  # +-1
    0x7BFF, 0xFBFF,  # +-max finite
    POS_INF, NEG_INF,
    NAN, 0x7C01, 0xFFFF,  # assorted NaNs
]


# ── decode ───────────────────────────────────────────────────────────────


def test_decode_landmarks():
    assert decode(0x0001) == 2.0**-24
    assert decode(0x3C00) == 1.0
    assert decode(0x7BFF) == 65504.0
    assert decode(0x0000) == 0.0
    assert math.copysign(1.0, decode(0x8000)) == -1.0
    assert decode(POS_INF) == math.inf
    assert decode(NEG_INF) == -math.inf
    assert math.isnan(decode(NAN))


def test_decode_exhaustive_against_format_definition():
    # Positive finite patterns against the exact rational table.
    for bits, frac in enumerate(_HALVES):
        assert decode(bits) == float(frac)
        assert decode(bits | 0x8000) == -float(frac)
    # And against numpy's decoder for every pattern, NaNs included.
    ref = np.arange(0x10000, dtype=np.uint16).view(np.float16).astype(np.float64)
    for bits in range(0x10000):
        got = decode(bits)
        if math.isnan(ref[bits]):
            assert math.isnan(got)
        else:
            assert got == ref[bits]


def test_decode_rejects_non_patterns():
    with pytest.raises(ValueError):
        decode(-1)
    with pytest.raises(ValueError):
        decode(0x10000)


# ── encode ───────────────────────────────────────────────────────────────


def test_encode_landmarks():
    assert encode(65504.0) == 0x7BFF
    assert encode(65520.0) == POS_INF
    assert encode(-65520.0) == NEG_INF
    assert encode(0.0) == 0x0000
    assert encode(-0.0) == 0x8000
    assert encode(2.0**-24) == 0x0001
    assert encode(2.0**-14) == 0x0400
    assert encode(math.inf) == POS_INF
    assert encode(-math.inf) == NEG_INF
    assert encode(math.nan) == NAN
    assert encode(1e308) == POS_INF
    assert encode(5e-324) == 0x0000


def test_roundtrip_exhaustive():
    # Finite patterns must round-trip bitwise; NaNs must stay NaN.
    for bits in range(0x10000):
        x = decode(bits)
        if math.isnan(x):
            assert encode(x) == NAN
        else:
            assert encode(x) == bits


def test_encode_ties_to_even_at_every_positive_boundary():
    # Midpoints of adjacent finite halves are exact doubles (12-bit
    # significands), so they can be fed in directly.  The tie must go
    # to the even pattern; a nudge either way must pick that neighbour.
    for bits in range(0x7BFF):
        lo = decode(bits)
        hi = decode(bits + 1)
        mid = (lo + hi) / 2.0
        even = bits if bits % 2 == 0 else bits + 1
        assert encode(mid) == even
        assert encode(math.nextafter(mid, lo)) == bits
        assert encode(math.nextafter(mid, hi)) == bits + 1


def test_encode_overflow_boundary():
    # 65520 is halfway between 65504 and the next-would-be 65536.
    assert encode(math.nextafter(65520.0, 0.0)) == 0x7BFF
    assert encode(65520.0) == POS_INF
    assert encode(math.nextafter(65520.0, math.inf)) == POS_INF
    assert encode(-math.nextafter(65520.0, 0.0)) == 0xFBFF


def test_encode_random_against_fraction_oracle():
    rng = np.random.default_rng(1234)
    mantissas = rng.uniform(-2.0, 2.0, size=2000)
    exponents = rng.integers(-30, 20, size=2000)
    xs = [math.ldexp(m, int(e)) for m, e in zip(mantissas, exponents)]
    xs += [0.0, -0.0, 1e-30, -1e-30, 65519.0, 65521.0, 1e6, -1e6]
    for x in xs:
        assert encode(x) == oracle_encode(x), repr(x)


def test_encode_random_against_numpy():
    rng = np.random.default_rng(99)
    xs = np.concatenate([
        rng.uniform(-70000.0, 70000.0, 50000),
        rng.uniform(-1.0, 1.0, 50000),
        rng.uniform(-1e-4, 1e-4, 50000),
        rng.uniform(-1e-7, 1e-7, 50000),
    ])
    with np.errstate(over="ignore"):
        ref = xs.astype(np.float16).view(np.uint16)
    for x, r in zip(xs.tolist(), ref.tolist()):
        assert encode(x) == r, repr(x)


# ── scalar arithmetic ────────────────────────────────────────────────────


def test_arithmetic_small_cases():
    one = encode(1.0)
    assert decode(add(one, one)) == 2.0
    assert mul(encode(256.0), encode(256.0)) == POS_INF
    assert decode(sqrt(encode(4.0))) == 2.0
    assert decode(div(encode(1.0), encode(2.0))) == 0.5


def test_special_value_semantics():
    one, zero = encode(1.0), encode(0.0)
    nzero = encode(-0.0)
    assert div(one, zero) == POS_INF
    assert div(encode(-1.0), zero) == NEG_INF
    assert div(one, nzero) == NEG_INF
    assert div(zero, zero) == NAN
    assert div(POS_INF, POS_INF) == NAN
    assert add(POS_INF, NEG_INF) == NAN
    assert mul(zero, POS_INF) == NAN
    assert sqrt(encode(-1.0)) == NAN
    assert sqrt(nzero) == nzero
    assert sqrt(POS_INF) == POS_INF
    # NaN propagates and is canonicalized.
    for op in (add, mul, div):
        assert op(NAN, one) == NAN
        assert op(one, 0x7C01) == NAN
    assert sqrt(0xFFFF) == NAN


def test_arithmetic_random_against_numpy():
    rng = np.random.default_rng(7)
    a = rng.integers(0, 0x10000, 30000, dtype=np.uint16)
    b = rng.integers(0, 0x10000, 30000, dtype=np.uint16)
    specials = np.array(SPECIAL_BITS, dtype=np.uint16)
    grid_a, grid_b = np.meshgrid(specials, specials)
    a = np.concatenate([a, grid_a.ravel()])
    b = np.concatenate([b, grid_b.ravel()])
    ha, hb = a.view(np.float16), b.view(np.float16)
    with np.errstate(all="ignore"):
        ref_add = (ha + hb).view(np.uint16)
        ref_mul = (ha * hb).view(np.uint16)
        ref_div = (ha / hb).view(np.uint16)
        ref_sqrt = np.sqrt(ha).view(np.uint16)
    for i in range(a.size):
        ai, bi = int(a[i]), int(b[i])
        assert canonical(add(ai, bi)) == canonical(int(ref_add[i]))
        assert canonical(mul(ai, bi)) == canonical(int(ref_mul[i]))
        assert canonical(div(ai, bi)) == canonical(int(ref_div[i]))
        assert canonical(sqrt(ai)) == canonical(int(ref_sqrt[i]))


def test_add_commutes_bitwise():
    rng = np.random.default_rng(21)
    a = rng.integers(0, 0x10000, 5000, dtype=np.uint16).tolist()
    b = rng.integers(0, 0x10000, 5000, dtype=np.uint16).tolist()
    a += SPECIAL_BITS
    b += list(reversed(SPECIAL_BITS))
    for ai, bi in zip(a, b):
        assert add(int(ai), int(bi)) == add(int(bi), int(ai))


# ── array kernels against the scalar oracle ──────────────────────────────


def test_encode_array_matches_scalar():
    # The batched encoder is round_array: the binary16 pattern of each
    # value it returns must be the oracle's encoding of the input.  The
    # log-uniform draw covers every binade from below half the smallest
    # subnormal to past the overflow threshold, both signs; the landmarks
    # sit on rounding boundaries (overflow, max finite, smallest normal,
    # half the smallest subnormal and a tie above it).
    rng = np.random.default_rng(5)
    magnitudes = 2.0 ** rng.uniform(-26.0, 17.0, 20000)
    landmarks = np.array([65519.99, 65520.0, 65504.0, 2.0**-14, 2.0**-25,
                          3 * 2.0**-26, 0.0])
    xs = np.concatenate([
        rng.uniform(-70000.0, 70000.0, 5000),
        rng.uniform(-1e-7, 1e-7, 5000),
        magnitudes * rng.choice([-1.0, 1.0], magnitudes.size),
        landmarks, -landmarks,
        np.array([math.inf, -math.inf, math.nan]),
    ])
    rounded = round_array(xs)
    assert rounded.dtype == np.float64
    for x, value in zip(xs.tolist(), rounded.tolist()):
        assert canonical(encode(value)) == canonical(encode(x)), repr(x)
        assert same_double(value, decode(encode(x))), repr(x)


def test_round_array_is_decode_of_encode():
    rng = np.random.default_rng(6)
    xs = rng.uniform(-1e5, 1e5, 4000)
    rounded = round_array(xs)
    assert rounded.dtype == np.float64
    for x, value in zip(xs.tolist(), rounded.tolist()):
        assert same_double(value, decode(encode(x))), repr(x)
    assert math.isinf(round_array(np.array([70000.0]))[0])


# ── round_array against numpy's cast ─────────────────────────────────────


def _cast(xs: np.ndarray) -> np.ndarray:
    """numpy's float64 -> float16 -> float64 round trip: the rounding
    round_array computes by float64 arithmetic instead."""
    with np.errstate(over="ignore", invalid="ignore"):
        return xs.astype(np.float16).astype(np.float64)


def _assert_rounds_like_cast(xs: np.ndarray) -> None:
    """round_array(xs) out of place, in place, and on the transposed
    (non-contiguous) view equals the cast bit for bit; a NaN only as a
    NaN, whatever its payload."""
    want = _cast(xs)
    nan = np.isnan(want)
    in_place = xs.copy()
    assert round_array(in_place, out=in_place) is in_place
    for got in (round_array(xs), in_place, round_array(xs.T).T):
        assert got.dtype == np.float64 and got.shape == xs.shape
        assert np.array_equal(np.isnan(got), nan)
        assert np.array_equal(got[~nan].view(np.uint64), want[~nan].view(np.uint64))


def _tie(e: int, k: int, negative: bool) -> float:
    """A midpoint of binade e's binary16 grid, step 2^(e-10), or 2^-24
    below the normal range: exact in float64."""
    step = 2.0 ** (max(e, -14) - 10)
    first = int(2.0**e / step)  # the grid points in [2^e, 2^(e+1)) are first..2*first-1
    value = (first + k % first + 0.5) * step
    return -value if negative else value


_BINADE_TIES = st.builds(_tie, st.integers(-24, 15), st.integers(0, 1023), st.booleans())
_OVERFLOW_EDGES = st.sampled_from([
    float(np.nextafter(sign * v, sign * to))
    for v in (65504.0, 65520.0) for sign in (1.0, -1.0) for to in (0.0, v, math.inf)])
_DOUBLE_SUBNORMALS = st.floats(-2.0**-1022, 2.0**-1022, allow_subnormal=True)
_ROUNDING_CASES = (st.floats(width=64) | _BINADE_TIES | _OVERFLOW_EDGES
                   | _DOUBLE_SUBNORMALS | st.sampled_from([0.0, -0.0, math.inf, -math.inf]))


@settings(max_examples=300, deadline=None)
@given(xs=hnp.arrays(np.float64, st.tuples(st.integers(1, 4), st.integers(1, 16)),
                     elements=_ROUNDING_CASES))
def test_round_array_matches_cast(xs):
    _assert_rounds_like_cast(xs)


def test_round_array_matches_cast_at_every_midpoint():
    # Every midpoint between neighbouring non-negative binary16 values
    # (65520 above 65504), its two double neighbours, both signs and
    # every binary16 value itself: a tie in every binade, and several
    # blocks of round_array's loop with a ragged last one.
    finite = np.append(DECODED[:0x7C00], 65536.0)
    midpoints = (finite[:-1] + finite[1:]) / 2
    near = np.concatenate([np.nextafter(midpoints, 0.0), midpoints,
                           np.nextafter(midpoints, math.inf)])
    xs = np.concatenate([near, -near, DECODED])
    _assert_rounds_like_cast(xs.reshape(-1, 125))


# ── scalar accumulation ──────────────────────────────────────────────────


def _numpy_accumulate(values: np.ndarray) -> int:
    """Left-to-right numpy-half accumulation; returns the sum's bits."""
    s = np.float16(0.0)
    with np.errstate(all="ignore"):
        for v in values.astype(np.float16):
            s = np.float16(s + np.float16(v * v))
    return int(s.view(np.uint16))


def test_accumulate_ones():
    sum_bits, overflowed, underflowed = accumulate_sum_of_squares(encode_all(np.ones(4)))
    assert decode(sum_bits) == 4.0
    assert not overflowed
    assert not underflowed


def test_accumulate_overflow():
    # 300 * 16^2 = 76800 exceeds the largest finite value 65504.
    sum_bits, overflowed, underflowed = accumulate_sum_of_squares(
        encode_all(np.full(300, 16.0)))
    assert overflowed
    assert sum_bits == POS_INF
    assert not underflowed


def test_accumulate_underflow_to_zero():
    # Each square of ~1e-4 is ~1e-8, far below the smallest subnormal
    # 2^-24, so every term rounds to zero.
    sum_bits, overflowed, underflowed = accumulate_sum_of_squares(
        encode_all(np.full(128, 1.0e-4)))
    assert underflowed
    assert not overflowed
    assert sum_bits == 0x0000


def test_accumulate_zeros_sets_no_flags():
    sum_bits, overflowed, underflowed = accumulate_sum_of_squares(
        encode_all(np.zeros(64)))
    assert sum_bits == 0x0000
    assert not overflowed
    assert not underflowed


def test_accumulate_random_against_numpy_sequence():
    rng = np.random.default_rng(42)
    for scale in (1e-4, 1e-2, 1.0, 20.0, 200.0):
        for n in (1, 7, 64, 513):
            xs = rng.normal(0.0, scale, n)
            sum_bits, _, _ = accumulate_sum_of_squares(encode_all(xs))
            assert canonical(sum_bits) == canonical(_numpy_accumulate(xs))


def test_accumulate_order_sensitivity():
    # Two big terms first park the sum on a coarse grid that swallows
    # the later ones; small terms first accumulate before the big hits.
    big_first = np.array([45.0] * 2 + [1.0] * 100)
    small_first = np.array([1.0] * 100 + [45.0] * 2)
    s1, _, _ = accumulate_sum_of_squares(encode_all(big_first))
    s2, _, _ = accumulate_sum_of_squares(encode_all(small_first))
    assert s1 == _numpy_accumulate(big_first)
    assert s2 == _numpy_accumulate(small_first)
    assert s1 != s2


def test_accumulate_rejects_bad_input():
    with pytest.raises(ValueError, match="empty vector"):
        accumulate_sum_of_squares(encode_all(np.zeros(0)))
    with pytest.raises(ValueError):
        accumulate_sum_of_squares(encode_all(np.zeros((2, 2))))


# ── batched row accumulator against the scalar oracle ────────────────────


def _assert_rows_match_scalar(bits: np.ndarray) -> None:
    """sum_of_squares_rows on the values of a block of bit patterns: each
    row's sum is the oracle's, bit for bit, and so are its flags."""
    sums, overflowed, underflowed = sum_of_squares_rows(DECODED[bits])
    assert sums.dtype == np.float64
    assert sums.shape == overflowed.shape == underflowed.shape == (bits.shape[0],)
    for row, *got in zip(bits, sums.tolist(), overflowed.tolist(), underflowed.tolist()):
        sum_bits, *flags = accumulate_sum_of_squares(row)
        assert same_double(got[0], decode(sum_bits)) and got[1:] == flags


# Bit-pattern regimes: anything (NaN payloads, infinities, subnormals),
# tiny values whose squares all round to zero, moderate values whose
# rounded sums depend on the order of the terms, large values whose sums
# overflow part-way along a row, and the distinguished patterns.
_ANY = st.integers(0, 0xFFFF)
_MODERATE = st.integers(0x2000, 0x5400) | st.integers(0xA000, 0xD400)
_TINY = st.integers(0, 0x0B00) | st.integers(0x8000, 0x8B00)
_LARGE = st.integers(0x5000, 0x7BFF) | st.integers(0xD000, 0xFBFF)
_SPECIAL = st.sampled_from(
    [0x0000, 0x8000, 0x0001, 0x03FF, 0x0400, 0x3C00, 0x7BFF, 0x7C00, 0xFC00,
     0x7E00, 0x7C01, 0xFFFF]
)
_REGIMES = [_ANY, _TINY, _MODERATE, _LARGE, _SPECIAL,
            _ANY | _TINY | _MODERATE | _LARGE | _SPECIAL]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_sum_of_squares_rows_matches_scalar_accumulator(data):
    elements = data.draw(st.sampled_from(_REGIMES))
    shape = data.draw(st.tuples(st.integers(1, 6), st.integers(1, 40)))
    bits = data.draw(hnp.arrays(np.uint16, shape, elements=elements))
    _assert_rows_match_scalar(bits)


def test_sum_of_squares_rows_edge_rows():
    d = 8
    rows = [
        np.zeros(d),                               # all zero: no flags
        np.full(d, -0.0),                          # negative zeros
        np.full(d, 1.0e-4),                        # every square underflows
        np.r_[np.full(d - 1, 1.0e-4), 0.0],        # ... next to a zero
        np.r_[np.full(d - 1, 1.0e-4), 1.0],        # one square survives
        np.r_[200.0, 200.0, np.full(d - 2, 1.0)],  # overflows mid-row
        np.r_[45.0, 45.0, np.full(d - 2, 1.0)],    # big terms first ...
        np.r_[np.full(d - 2, 1.0), 45.0, 45.0],    # ... or last: sums differ
        np.r_[np.full(d - 1, 1.0), math.inf],      # +inf last
        np.r_[-math.inf, np.full(d - 1, 1.0)],     # -inf first
        np.r_[1.0, math.nan, np.full(d - 2, 1.0)],  # NaN
        np.r_[math.inf, math.nan, np.zeros(d - 2)],
        np.full(d, 2.0**-24),                      # smallest subnormal
        np.full(d, 2.0**-7),                       # squares land on 2^-14
    ]
    bits = encode_all(rows)
    _assert_rows_match_scalar(bits)
    # Hand-checked flags for a few of those rows.
    sums, overflowed, underflowed = sum_of_squares_rows(DECODED[bits])
    assert not underflowed[0] and not overflowed[0] and same_double(sums[0], 0.0)
    assert underflowed[2] and same_double(sums[2], 0.0)
    assert overflowed[5] and sums[5] == math.inf
    assert sums[6] != sums[7]
    assert overflowed[10] and math.isnan(sums[10])
    # d = 1, NaN inputs with a payload included.
    _assert_rows_match_scalar(np.array([[0x7C01], [0xFE01], [0x3C00], [0x0000]],
                                       dtype=np.uint16))


def test_sum_of_squares_rows_rejects_bad_shapes():
    with pytest.raises(ValueError, match="n x d block"):
        sum_of_squares_rows(np.zeros(4))
    with pytest.raises(ValueError, match="empty rows"):
        sum_of_squares_rows(np.zeros((2, 0)))
