"""Exact ``'%.17g' % v`` text for a float64 array, without a Python call
per value.

format_g17(values, sep) returns, for each element v, the bytes of
``'%.17g' % v`` followed by ``sep``, as a fixed-width bytes array (numpy
drops the NUL padding of each element on the way out).  invosc.artifacts
writes long float columns through it: their bytes are behaviour, and one
dtoa call per value was most of the time of ``solve``.

Digits.  For finite normal x let k = floor(log10|x|) and p = 16 - k.  The
17 significant digits of %.17g are the integer D nearest to the exact
V = |x| 10^p (half to even), provided V lies in [10^16, 10^17).  With
|x| = m 2^e from frexp (m in [0.5, 1), exact) and 10^p = (hi + lo) 2^t
from a table (hi + lo in [1, 2), built on first use from exact integers),
V = m (hi + lo) 2^(e + t).  Dekker's two-product, written without FMA,
gives m hi = P + E exactly.  With Q = E + m lo and s = e + t, D is
P 2^s + rint(Q 2^s); both scalings by 2^s are exact.

Why D is exact wherever the fast path keeps it.  The table is off by at
most 2^-105 relative (the mantissa is rounded at 2^-120, lo at 2^-106).
m lo and E + m lo are each rounded once, at 2^-53 of a term below 2^-52.
So P + Q is within 2^-103 of m (hi + lo) exactly, and after the scaling
by 2^s <= 2^57, P 2^s + Q 2^s is within 2^-46 (1.5e-14) of V.  The fast
path keeps D only where 10^16 < D < 10^17; there P 2^s >= 2^53, an
integer, so D - V is the fractional part f = Q 2^s - rint(Q 2^s) up to
that error.  It also requires |f| < 1/2 - 1e-9: then V is more than
1/2 - 1e-9 - 1.5e-14 from every half-integer, so D is V rounded to
nearest and no tie needs deciding.  An exact tie, such as
1000000000000000.25, has |f| within 1.5e-14 of 1/2 and falls back.
log10 may misplace k by one next to a power of ten; then V < 10^16 or
V >= 10^17, so D <= 10^16 or D >= 10^17, and the element falls back too.

Fallback.  Subnormals, inf, nan and the elements above are formatted one
by one with Python's ``'%.17g'``; +-0 is laid out directly.

Layout.  The 17 digit characters come from a table of 10,000 four-digit
ASCII groups viewed as uint32.  Sign, the leading "0.000" of fixed
notation, the decimal point, the dropped trailing zeros and the exponent
suffix are then applied to the text held as little-endian uint64 words,
one row of words per word position, so that every step is contiguous
integer arithmetic over whole columns with per-element shift counts.
numpy defines a shift by 64 bits or more as 0; the word arithmetic
relies on that for positions outside a word.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["format_g17"]

_K_MIN, _K_MAX = -308, 308          # floor(log10|x|) over the normal doubles
_TABLE_BITS = 120                   # 10^p mantissas are rounded at 2^-120
_SPLIT = 134217729.0                # 2^27 + 1, Dekker's splitting constant
_TIE_WINDOW = 1e-9
_FIXED_MIN, _FIXED_MAX = -4, 16     # %g keeps fixed notation for these X
_WORDS = 3                          # uint64 words of text before the suffix

_E16, _E17 = 10 ** 16, 10 ** 17
_TINY = np.finfo(np.float64).smallest_normal
_HUGE = np.finfo(np.float64).max
_BYTE_HIGH = 0x8080808080808080     # bit 7 of every byte
_BYTE_ONES = 0x0101010101010101
_NONZERO_DIGIT = 0x4F4F4F4F4F4F4F4F  # byte + 0x4F sets bit 7 iff byte >= '1'


def _words(value, count):
    """A nonnegative int as `count` little-endian uint64 words."""
    return [(value >> (64 * j)) & (2 ** 64 - 1) for j in range(count)]


@functools.cache
def _tables():
    """(scale, exp2, quads, layout, exponents), built on first use.

    scale[:, k - _K_MIN] = (hi, hi_hi, hi_lo, lo) and exp2[k - _K_MIN] = t
    with 10^(16 - k) = (hi + lo) 2^t, hi + lo in [1, 2), and hi_hi + hi_lo
    Dekker's split of hi.  quads[i]: the ASCII of '%04d' % i, first
    character in the low byte.  layout[:, c] for class c = 2 (X' + 5) +
    negative, X' the exponent clipped to [-5, 17]: (shift, 64 - shift,
    sign and leading zeros, 3 words of the mask of bytes before the
    point, 3 words of the point).  exponents[k - _K_MIN]: ("e%+03d" % k)
    as an int in scientific notation, else 0, and its length in bits.
    """
    size = _K_MAX - _K_MIN + 1
    scale = np.empty((4, size))
    exp2 = np.empty(size, dtype=np.int32)
    bits = _TABLE_BITS
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        p = 16 - k
        num, den = 10 ** max(p, 0), 10 ** max(-p, 0)
        t = num.bit_length() - den.bit_length()
        if (num << max(-t, 0)) < (den << max(t, 0)):
            t -= 1
        # m = round(10^p 2^(bits - t)): the mantissa with `bits` fraction bits
        num <<= max(bits - t, 0)
        den <<= max(t - bits, 0)
        m = (2 * num + den) // (2 * den)
        top = (m + (1 << (bits - 53))) >> (bits - 52)
        hi = math.ldexp(top, -52)
        hi_hi = _SPLIT * hi - (_SPLIT * hi - hi)
        scale[:, i] = (hi, hi_hi, hi - hi_hi,
                       math.ldexp(m - (top << (bits - 52)), -bits))
        exp2[i] = t

    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                          dtype="<u4").astype(np.uint64)

    columns = []
    for X in range(_FIXED_MIN - 1, _FIXED_MAX + 2):
        sci = not _FIXED_MIN <= X <= _FIXED_MAX
        for neg in (0, 1):
            zeros = 0 if sci or X >= 0 else -X
            point = neg + (1 if sci or X < 0 else X + 1)
            lead = b"-" * neg + b"0" * zeros
            shift = 8 * len(lead)
            columns.append([shift, 64 - shift, int.from_bytes(lead, "little"),
                            *_words((1 << 8 * point) - 1, _WORDS),
                            *_words(ord(".") << 8 * point, _WORDS)])
    layout = np.array(columns, dtype=np.uint64).T.copy()

    exponents = np.zeros((2, size), dtype=np.uint64)
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        if not _FIXED_MIN <= k <= _FIXED_MAX:
            text = b"e%+03d" % k
            exponents[:, i] = int.from_bytes(text, "little"), 8 * len(text)
    return scale, exp2, quads, layout, exponents


def _digits(x, scale, exp2, quads):
    """(W, idx, fast): the 17 digit characters of |x| as three uint64
    words (d0 in the low byte of the first), k - _K_MIN, and the mask of
    the elements they are exact for.  +-0 reads as "0" at k = 0."""
    a = np.abs(x)
    s = np.fmax(a, _TINY)
    np.fmin(s, _HUGE, out=s)
    fast = s == a                       # finite and normal
    zero = a == 0.0
    del a
    np.copyto(s, 1.0, where=zero)
    k = np.log10(s)
    np.floor(k, out=k)
    k -= _K_MIN
    idx = k.astype(np.intp)
    del k

    # |x| 10^(16 - k) = (prod + err) 2^e, rounded to the 17-digit integer D
    m, e = np.frexp(s)
    del s
    hi, hi_hi, hi_lo, lo = scale.take(idx, axis=1)
    e += exp2.take(idx)
    c = _SPLIT * m
    m_hi = c - (c - m)
    m_lo = np.subtract(m, m_hi, out=c)
    prod = m * hi
    err = m_hi * hi_hi - prod
    err += m_hi * hi_lo
    err += m_lo * hi_hi
    err += m_lo * hi_lo
    err += m * lo
    del m, m_hi, m_lo, c, hi, hi_hi, hi_lo, lo
    np.ldexp(err, e, out=err)
    r = np.rint(err)
    err -= r
    fast &= np.abs(err) < 0.5 - _TIE_WINDOW
    D = np.ldexp(prod, e).astype(np.int64)
    D += r.astype(np.int64)
    del err, r, prod, e
    fast &= (D - (_E16 + 1)).view(np.uint64) < _E17 - _E16 - 1
    fast |= zero

    upper = D // 10 ** 8
    halves = np.empty((2, x.size), dtype=np.int64)
    np.subtract(D, upper * 10 ** 8, out=halves[1])
    d0 = upper // 10 ** 8
    np.subtract(upper, d0 * 10 ** 8, out=halves[0])
    del D, upper
    groups = halves // 10 ** 4
    first = quads.take(groups, mode="clip")
    halves -= groups * 10 ** 4
    second = quads.take(halves, mode="clip")
    del groups, halves
    W = np.empty((_WORDS, x.size), dtype=np.uint64)
    np.left_shift(first, 8, out=W[:2])
    W[:2] |= second << 40
    W[2] = 0
    W[1:] |= second >> 24
    d0 -= zero
    W[0] |= d0.view(np.uint64) + ord("0")
    return W, idx, fast


def format_g17(values, sep=b""):
    """``('%.17g' % v).encode() + sep`` for each element of a 1-D float
    array, as a bytes array whose width is its longest element rounded up
    to whole 8-byte words; sep is at most 3 bytes."""
    tail = bytes(sep)
    if len(tail) > 3:
        raise ValueError("separator longer than 3 bytes")
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("values must be 1-D")
    scale, exp2, quads, layout, exponents = _tables()
    W, idx, fast = _digits(x, scale, exp2, quads)

    # sign and leading zeros, then the point; see _tables for the classes
    cls = np.minimum(np.maximum(idx, _FIXED_MIN - 1 - _K_MIN),
                     _FIXED_MAX + 1 - _K_MIN)
    cls -= _FIXED_MIN - 1 - _K_MIN
    cls *= 2
    cls += np.signbit(x)
    rows = layout.take(cls, axis=1)
    del cls
    shift, back, lead = rows[:3]
    below = rows[3:3 + _WORDS]          # the bytes before the point
    T = W << shift
    T[1:] |= W[:-1] >> back
    del W
    T[0] |= lead
    above = ~below
    above &= T
    T &= below
    T |= rows[3 + _WORDS:]              # the point itself
    T[1:] |= above[:-1] >> 56
    above <<= 8
    T |= above
    del above

    # drop trailing zeros, and the point when no digit follows it: keep the
    # bytes before the point and up to the last nonzero digit
    keep = T + _NONZERO_DIGIT
    keep &= _BYTE_HIGH
    for bits in (8, 16, 32):
        keep |= keep >> bits
    for j in range(_WORDS - 2, -1, -1):
        keep[j] |= (keep[j + 1] & 0x80) * _BYTE_ONES
    keep >>= 7
    keep *= 0xFF
    keep |= below
    del rows, below
    T &= keep
    length = np.bitwise_count(keep).sum(axis=0, dtype=np.uint64)
    del keep

    # the exponent of scientific notation and sep go after the last byte
    suffix, suffix_bits = exponents.take(idx, axis=1)
    suffix |= np.uint64(int.from_bytes(tail, "little")) << suffix_bits
    suffix_bits += length
    slow = np.flatnonzero(~fast).tolist()
    fallback = [b"%.17g" % float(x[i]) + tail for i in slow]
    width = max([int(suffix_bits.max(initial=0)) // 8 + len(tail), 1,
                 *map(len, fallback)])
    out = np.empty((x.size, -(-width // 8)), dtype="<u8")
    for j in range(out.shape[1]):
        word = out[:, j]
        np.left_shift(suffix, length - np.uint64(64 * j), out=word)
        word |= suffix >> (np.uint64(64 * j) - length)
        if j < _WORDS:
            word |= T[j]
    text = out.view(f"S{out.shape[1] * 8}").ravel()
    text[slow] = fallback
    return text
