"""Exact ``'%.17g' % v`` text for float64 columns, without a Python call
per value.

format_columns(block, seps) returns, for each element v of row i of a 2-D
float block, the bytes of ``'%.17g' % v`` followed by ``seps[i]``, as a
fixed-width bytes array of the block's shape (numpy drops the NUL padding
of each element on the way out).
invosc.artifacts writes the float columns of a table chunk through one
call: their bytes are behaviour, and one dtoa call per value was most of
the time of ``solve``.

Digits.  For x with |x| in [1e-290, 1e290] let k = floor(log10|x|) and p =
16 - k.  The 17 significant digits of %.17g are the integer D nearest to
the exact V = |x| 10^p (half to even), provided V lies in [10^16, 10^17).
10^p = H + lo from a table (H the double nearest 10^p, lo the double
nearest the rest, built on first use from exact integers), and H = hh + hl
is split into two 26-bit halves.  Dekker's two-product, written without
FMA, gives |x| H = P + E exactly; with Q = E + |x| lo, D is P + rint(Q).
Every product is of order V, so nothing overflows or underflows and no
rescaling is needed.

Why D is exact wherever the fast path keeps it.  H + lo is within 2^-106
relative of 10^p, and |x| lo and E + |x| lo are each rounded once, at
2^-53 of a term below 2^5.  So P + Q is within 2^-46 (1.5e-14) of V.  The
fast path keeps D only where 10^16 < D < 10^17; there P >= 2^53, an
integer, so D - V is the fractional part f = Q - rint(Q) up to that error.
It also requires |f| < 1/2 - 1e-9: then V is more than 1/2 - 1e-9 - 1.5e-14
from every half-integer, so D is V rounded to nearest and no tie needs
deciding.  An exact tie, such as 1000000000000000.25, has |f| within
1.5e-14 of 1/2 and falls back.  log10 may misplace k by one next to a
power of ten; then V < 10^16 or V >= 10^17, so D <= 10^16 or D >= 10^17,
and the element falls back too.

Fallback.  Values outside [1e-290, 1e290] (subnormals, inf and nan among
them) and the elements above are formatted one by one with Python's
``'%.17g'``; +-0 is laid out directly.

Layout.  The text is [sign][prefix] d0 [point] d1...d16 [exponent][sep],
held as little-endian uint64 words, first character in the low byte.  A
table by k and sign gives the head (sign and the "0.000" prefix of fixed
notation below 1), the place of the point among d1...d16, and the exponent
of scientific notation.  d1...d16 are two words of ASCII, four digits at a
time from a table of 10,000 groups.  The trailing zeros after the point
are dropped, and the point with them when no digit follows it; the point
goes in, and the digits move past the head, by per-element shifts of whole
columns.  numpy defines a shift by 64 bits or more as 0; the word
arithmetic relies on that for positions outside a word.

Working set.  A call holds at most about 115 bytes of temporaries a
value, in columns of the call's length: 1.4 MB for the 12,288 values of a
4,096-row chunk of three columns, inside a 2 MB L2 cache.  The fixed cost
is about 90 numpy calls, about 0.15 ms, so a call of fewer than a few
thousand values pays mostly for that; one call a chunk pays it once for
all the chunk's float columns.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = ["format_columns"]

_LO, _HI = 1e-290, 1e290            # the fast path's range of |x|
_K_MIN, _K_MAX = -291, 290          # floor(log10|x|) over that range
_SPLIT_BITS = 27                    # Dekker's split: two 26-bit halves
_SPLIT = 2.0 ** _SPLIT_BITS + 1.0
_TIE_WINDOW = 1e-9
_FIXED_MIN, _FIXED_MAX = -4, 16     # %g keeps fixed notation for these k

_E8 = 10 ** 8
_E16, _E17 = 10 ** 16, 10 ** 17
_ONES = np.uint64(2 ** 64 - 1)
_LOW48 = 2 ** 48 - 1
_NONZERO_DIGIT = 0x0F0F0F0F0F0F0F0F  # byte + 0x0F sets bit 6 iff byte >= '1'
_BIT6 = 0x4040404040404040
# a word's highest flag, bit 8 b + 6, has the exponent field 1029 + 8 b as a
# double; plus these, 1024 + 8 * the digits up to it, or less when it is 0
_TOP_OFFSET = np.array([[3], [67]], dtype=np.uint64)


def _split(value):
    """hi + lo == value, each with at most 26 significant bits."""
    m, e = math.frexp(value)
    whole = int(m * 2 ** 53)
    hi = (whole + (1 << _SPLIT_BITS - 1)) >> _SPLIT_BITS << _SPLIT_BITS
    return math.ldexp(hi, e - 53), math.ldexp(whole - hi, e - 53)


@functools.cache
def _tables():
    """(scale, classes, quads), built on first use.

    scale[:, k - _K_MIN] = (H, hh, hl, lo): 10^(16 - k) = H + lo, with H
    and lo correctly rounded and H = hh + hl, the halves of 26 bits each.
    classes[:, 2 (k - _K_MIN) + negative] = (head, 8 * its length, 8 * the
    number of d1...d16 before the point, 8 if the point follows them else
    0, exponent suffix, 8 * its length): the head is the sign and, in fixed
    notation below 1, "0." and the zeros before d0, where the point is part
    of the head.  quads[i]: the ASCII of '%04d' % i, first character in the
    low byte.
    """
    scale, columns = [], []
    for k in range(_K_MIN, _K_MAX + 1):
        exact = Fraction(10) ** (16 - k)
        high = float(exact)
        scale.append((high, *_split(high), float(exact - Fraction(high))))
        sci = not _FIXED_MIN <= k <= _FIXED_MAX
        prefix = b"" if sci or k >= 0 else b"0." + b"0" * (-k - 1)
        point = k if not sci and k > 0 else 0
        suffix = b"e%+03d" % k if sci else b""
        for head in (prefix, b"-" + prefix):
            columns.append([int.from_bytes(head, "little"), 8 * len(head),
                            8 * point, 0 if prefix else 8,
                            int.from_bytes(suffix, "little"), 8 * len(suffix)])
    quads = np.frombuffer(b"".join(b"%04d" % i for i in range(10000)),
                          dtype="<u4").astype(np.uint64)
    return (np.array(scale).T.copy(), np.array(columns, dtype=np.uint64).T,
            quads)


@functools.cache
def _classes(tail):
    """The classes with the separator ``tail`` after every suffix, packed
    for one gather a column: (head | 8 * the suffix's length << 48 | 8 *
    the head's length << 56, point, dot, suffix)."""
    head, head_bits, point, dot, suffix, suffix_bits = _tables()[1]
    return np.stack([
        head | (suffix_bits + 8 * len(tail)) << 48 | head_bits << 56, point,
        dot, suffix | int.from_bytes(tail, "little") << suffix_bits])


def _digits(x, scale):
    """(D, idx, fast): the 17-digit integers of |x|, k - _K_MIN, and the
    mask of the elements they are exact for.  +-0 reads as D = 0 at k = 0."""
    a = np.abs(x)
    s = np.fmax(a, _LO)
    np.fmin(s, _HI, out=s)
    fast = s == a                       # finite and inside the table
    zero = a == 0.0
    np.copyto(s, 1.0, where=zero)
    k = np.log10(s, out=a)
    k -= _K_MIN
    idx = k.astype(np.intp)             # truncation is floor here: k > 0

    # |x| 10^(16 - k) = P + E + |x| lo, rounded to the 17-digit integer D
    high, hh, hl, lo = scale
    part = k
    prod = s * high.take(idx, out=part, mode="clip")
    s_hi = s * _SPLIT
    s_lo = s_hi - s
    s_hi -= s_lo
    np.subtract(s, s_hi, out=s_lo)
    err = s_hi * hh.take(idx, out=part, mode="clip")
    err -= prod
    part *= s_lo
    err += part
    hl.take(idx, out=part, mode="clip")
    s_hi *= part
    err += s_hi
    s_lo *= part
    err += s_lo
    lo.take(idx, out=part, mode="clip")
    part *= s
    err += part
    del s, s_hi, s_lo, part
    r = np.rint(err)
    err -= r
    fast &= np.abs(err, out=err) < 0.5 - _TIE_WINDOW
    D = prod.astype(np.int64)
    D += r.astype(np.int64)
    del err, r, prod
    fast &= (D - (_E16 + 1)).view(np.uint64) < _E17 - _E16 - 1
    fast |= zero
    np.copyto(D, 0, where=zero)
    return D, idx, fast


def _suffix_part(suffix, length, j, out):
    """The bits of ``suffix`` at bit ``length`` that land in word j."""
    np.subtract(length, np.uint64(64 * j), out=out)
    part = np.left_shift(suffix, out)
    np.negative(out, out=out)
    np.right_shift(suffix, out, out=out)
    out |= part
    return out


def format_columns(block, seps):
    """``('%.17g' % v).encode() + seps[i]`` for each element v of row i of
    a 2-D float block, as a bytes array of the block's shape whose width is
    its longest element rounded up to whole 8-byte words; each separator is
    at most 3 bytes."""
    tails = [bytes(sep) for sep in seps]
    if any(len(tail) > 3 for tail in tails):
        raise ValueError("separator longer than 3 bytes")
    x = np.ascontiguousarray(block, dtype=np.float64)
    if x.ndim != 2 or len(tails) != x.shape[0]:
        raise ValueError("values must be 2-D, with one separator a row")
    shape, x = x.shape, x.ravel()
    n = x.size
    if n == 0:
        return np.empty(shape, dtype="S8")
    scale, _, quads = _tables()
    D, idx, fast = _digits(x, scale)

    # d0, and d1...d16 as two words of ASCII, four digits at a time
    D = D.view(np.uint64)
    upper = D // _E8
    words = np.empty((3, n), dtype=np.uint64)    # reused to the end
    halves = words[:2]
    np.multiply(upper, _E8, out=halves[1])
    np.subtract(D, halves[1], out=halves[1])
    d0 = np.floor_divide(upper, _E8, out=D)
    np.multiply(d0, _E8, out=halves[0])
    np.subtract(upper, halves[0], out=halves[0])
    del upper
    groups = halves // 10000
    Q = np.multiply(groups, 10000)
    halves -= Q
    quads.take(halves.view(np.intp), out=Q, mode="clip")
    Q <<= 32
    keep = halves
    Q |= quads.take(groups.view(np.intp), out=keep, mode="clip")
    del halves, groups
    d0 += ord("0")

    # 8 * how many of d1...d16 are kept, up to the last nonzero one: the
    # exponent of the highest flag of each word, as a double, gives it
    np.add(Q, _NONZERO_DIGIT, out=keep)
    keep &= _BIT6
    top = keep.view(np.int64).astype(np.float64).view(np.uint64)
    top >>= 52
    top += _TOP_OFFSET
    kept8 = np.maximum(top[0], top[1])
    del top
    np.maximum(kept8, 1024, out=kept8)
    kept8 -= 1024
    np.left_shift(_ONES, kept8, out=keep[0])
    np.invert(keep[0], out=keep[0])
    np.subtract(128, kept8, out=keep[1])
    np.right_shift(_ONES, keep[1], out=keep[1])

    # the class of each element: k and the sign
    classes = np.concatenate([_classes(tail) for tail in tails], axis=1)
    idx <<= 1
    idx -= x.view(np.int64) >> 63
    per_tail = classes.shape[1] // len(tails)
    idx.reshape(shape)[...] += per_tail * np.arange(len(tails))[:, None]
    head, point, dot, suffix = (column.take(idx, mode="clip")
                                for column in classes)
    del idx
    shift = head >> 56
    suffix_bits = head >> 48
    suffix_bits &= 0xFF
    head &= _LOW48
    d0 <<= shift
    head |= d0
    del d0
    dot *= kept8 > point

    # the text from d1 on, C = A | point | B << dot: A the digits before
    # the point, all kept, and B the kept ones after it; two words and a
    # byte.  Below 10 in magnitude the point follows d0 and A is empty.
    C = words
    char = dot * np.uint64(ord("."))
    char >>= 3
    if point.any():
        mask = np.empty_like(Q)
        np.left_shift(_ONES, point, out=mask[0])
        np.invert(mask[0], out=mask[0])
        np.subtract(128, point, out=mask[1])
        np.right_shift(_ONES, mask[1], out=mask[1])
        keep |= mask
        Q &= keep
        np.bitwise_and(Q, mask, out=C[:2])
        del mask
        Q ^= C[:2]
        C[0] |= char << point
        point -= 64
        C[1] |= np.left_shift(char, point, out=char)
        point += 64
    else:
        Q &= keep
        C[0] = char
        C[1] = 0
    del keep, char
    back = 64 - dot
    np.right_shift(Q[1], back, out=C[2])
    C[1] |= np.right_shift(Q[0], back, out=back)
    Q <<= dot
    C[:2] |= Q
    del Q

    # past the head and d0; the length before the suffix, in bits
    shift += 8
    np.subtract(64, shift, out=back)
    np.maximum(kept8, point, out=kept8)
    kept8 += dot
    del dot, point
    length = np.add(shift, kept8, out=kept8)
    carry = C[:2] >> back
    words <<= shift
    words[1:] |= carry
    words[0] |= head
    del C, carry, shift, back

    # the exponent of scientific notation and the separator after the text
    end = np.add(suffix_bits, length, out=suffix_bits)
    slow = np.flatnonzero(~fast).tolist()
    fallback = [b"%.17g" % float(x[i]) + tails[i // shape[1]] for i in slow]
    width = max([int(end.max(initial=0)) // 8, 1, *map(len, fallback)])
    out = np.empty((n, -(-width // 8)), dtype="<u8")

    # the suffix lands in the words from the shortest text's last to the
    # longest one's
    first = int(length.min(initial=0)) // 64
    last = (int(end.max(initial=0)) - 1) // 64
    for j, word in enumerate(out.T):
        text = words[j] if j < len(words) else np.uint64(0)
        if first <= j <= last:
            np.bitwise_or(text, _suffix_part(suffix, length, j, head),
                          out=word)
        else:
            word[...] = text
    text = out.view(f"S{out.shape[1] * 8}").ravel()
    text[slow] = fallback
    return text.reshape(shape)

