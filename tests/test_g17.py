"""The vectorized %.17g kernel against Python's own '%.17g', byte for byte."""

import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import invosc
from invosc.cli import RunConfig
from invosc.g17 import _K_MAX, _K_MIN, _digits, _tables, format_columns
from invosc.wavefunction import sample_field

C15 = Path(invosc.__file__).parent / "configs" / "static_c15.cfg"
BLOCK = 1 << 16


def format_g17(values, sep=b""):
    """The 1-D case of format_columns: one row, one separator."""
    return format_columns(np.asarray(values, dtype=np.float64)[None], [sep])[0]


def _mismatch(values, sep):
    """None when format_g17 agrees with '%.17g' on every value, else the
    first disagreement."""
    got = format_g17(values, sep)
    want = ((b"%.17g" + sep) * values.size) % tuple(values.tolist())
    if b"".join(got.tolist()) == want:
        return None
    for v, g in zip(values.tolist(), got.tolist()):
        if g != b"%.17g" % v + sep:
            return v, g


def _assert_matches(values, sep=b","):
    values = np.asarray(values, dtype=np.float64).ravel()
    for lo in range(0, values.size, BLOCK):
        assert _mismatch(values[lo:lo + BLOCK], sep) is None


def _signed(values):
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate([values, -values])


def _powers_of_ten():
    """10^p as parsed (correctly rounded) and its +-1 ulp neighbours."""
    p = np.array([float(f"1e{e}") for e in range(-320, 309)])
    return _signed(np.concatenate(
        [p, np.nextafter(p, 0.0), np.nextafter(p, np.inf)]))


def _exact_ties(rng, per_decade=2000):
    """Doubles exactly halfway between two 17-digit decimals.

    At decimal exponent k, x = q 2^(k - 17) with q odd gives x 10^(16 - k)
    = q 5^(16 - k) / 2, a half-integer; every such x in [10^k, 10^(k+1))
    with q below 2^53 is a double."""
    ties = [np.array([1000000000000000.25, 1000000000000000.75])]
    for k in range(-7, 16):
        lo, hi = 10.0 ** k * 2.0 ** (17 - k), 10.0 ** (k + 1) * 2.0 ** (17 - k)
        q = rng.integers(int(lo) + 1, min(int(hi), 2 ** 53), per_decade) | 1
        ties.append(np.ldexp(q.astype(np.float64), k - 17))
    return _signed(np.concatenate(ties))


def _every_layout(rng, per_exponent=2000):
    """Random mantissas at each %g branch and at 3-digit exponents, with
    1 to 17 significant digits so that every strip length occurs."""
    scale = np.array([float(f"1e{e}") for e in
                      (-5, -4, -1, 0, 16, 17, -100, 100, -307, 308)])[:, None]
    u = rng.uniform(1.0, 10.0, (scale.size, per_exponent))
    digits = 10.0 ** rng.integers(0, 17, per_exponent)
    with np.errstate(over="ignore"):
        values = np.concatenate([(u * scale).ravel(),
                                 (np.round(u * digits) / digits * scale).ravel()])
    return _signed(values[np.isfinite(values)])


def test_random_bit_patterns():
    # 2^20 patterns, with subnormals and NaNs; +-0 and +-inf (one pattern
    # each) come in with the edges of the normal range
    rng = np.random.default_rng(17)
    values = rng.integers(0, 2 ** 64, 1 << 20, dtype=np.uint64).view(np.float64)
    assert np.isnan(values).any()
    assert ((values != 0) & (np.abs(values) < 2.2250738585072014e-308)).any()
    specials = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324,
                         2.2250738585072014e-308, 2.225073858507201e-308,
                         1.7976931348623157e308, 1e16, 1e17, -1e16, -1e17])
    _assert_matches(np.concatenate([values, specials]))


def test_powers_of_ten_and_their_neighbours():
    _assert_matches(_powers_of_ten())


def test_exact_ties_round_half_even():
    values = _exact_ties(np.random.default_rng(5))
    # %.17g decides these by round-half-even on the exact binary value
    assert b"%.17g" % 1000000000000000.25 == b"1000000000000000.2"
    assert b"%.17g" % 1000000000000000.75 == b"1000000000000000.8"
    _assert_matches(values)


def test_power_table_is_within_the_error_bound():
    # the module's exactness argument assumes H + lo within 2^-106 of
    # 10^(16 - k), and hh + hl an exact split of H into 26-bit halves
    scale, *_ = _tables()
    for i, k in enumerate(range(_K_MIN, _K_MAX + 1)):
        high, hh, hl, lo = (Fraction(float(v)) for v in scale[:, i])
        exact = Fraction(10) ** (16 - k)
        assert abs(high + lo - exact) <= exact / 2 ** 106
        assert hh + hl == high
        for half in (hh, hl):
            assert half == 0 or (math.frexp(half)[0] * 2 ** 26).is_integer()


def test_exact_ties_take_the_fallback():
    # the double-double value of a tie sits within 2^-46 of the half, so
    # only Python's correctly rounded dtoa may decide it
    scale, *_ = _tables()
    ties = _exact_ties(np.random.default_rng(3), per_decade=50)
    assert not _digits(ties, scale)[2].any()


def test_every_g_layout_branch():
    _assert_matches(_every_layout(np.random.default_rng(11)))


@pytest.mark.parametrize("sep", [b"", b",", b"\n", b"a\tb"])
def test_separators(sep):
    values = np.array([0.0, -0.0, 1.5, -2.5e-7, 1e300, np.nan, 123456789.0,
                       1.0 / 3.0, 6.02214076e23])
    assert _mismatch(values, sep) is None


@pytest.mark.parametrize("seps", [(b",", b",", b"\n"), (b"a\tb", b"", b";")])
def test_columns_take_one_separator_each(seps):
    # a table chunk's float columns in one call: row i of the block ends
    # every value with seps[i]
    rng = np.random.default_rng(23)
    block = rng.integers(0, 2 ** 64, (3, 5000), dtype=np.uint64).view(
        np.float64)
    block[0, :300] = _powers_of_ten()[::7][:300]
    block[1, :400] = _exact_ties(rng, per_decade=10)[:400]
    block[2, :1000] = rng.standard_normal(1000) * 10.0 ** rng.integers(
        -6, 18, 1000)
    block[:, -1] = [0.0, -0.0, 5e-324]
    got = format_columns(block, seps)
    assert got.shape == block.shape
    for row, sep, text in zip(block, seps, got):
        assert b"".join(text.tolist()) == ((b"%.17g" + sep) * row.size) % (
            tuple(row.tolist()))


def test_values_below_ten_in_every_layout():
    # below 10 in magnitude the point always follows d0, and the kernel
    # skips placing it among d1...d16: fixed notation from 1e-4, both
    # scientific ranges, trailing zeros, +-0 and the fallback's subnormals
    rng = np.random.default_rng(29)
    values = _every_layout(rng, per_exponent=500)
    values = values[np.abs(values) < 10.0]
    assert (np.abs(values) < 1e-4).any() and (np.abs(values) >= 1.0).any()
    values = np.concatenate([values, [0.0, -0.0, 5e-324, 9.999999999999998,
                                      -1e-5, 0.5, 1e-300]])
    assert _mismatch(values, b",") is None
    assert _mismatch(rng.permutation(values)[:5000], b"\n") is None


def test_columns_accept_strided_rows_and_no_rows():
    z = np.array([complex(1.5, -0.0), complex(-1e-5, 3e300), 0.25 + 1j])
    got = format_columns(np.stack([z.real, z.imag]), [b",", b"\n"])
    assert got.tolist() == [[b"1.5,", b"-1.0000000000000001e-05,", b"0.25,"],
                            [b"-0\n", b"3.0000000000000002e+300\n", b"1\n"]]
    assert format_columns(np.zeros((2, 0)), [b",", b"\n"]).shape == (2, 0)


def test_output_width_is_the_longest_element_in_whole_words():
    assert format_g17(np.array([1.0, 22.0]), b",").dtype == np.dtype("S8")
    assert format_g17(np.array([1.0, -1.2345678901234567e-300]),
                      b",").dtype == np.dtype("S32")
    # a fallback (subnormal) element longer than every fast one widens it
    assert format_g17(np.array([1.0, -5e-324]), b"\n").tolist() \
        == [b"1\n", b"-4.9406564584124654e-324\n"]
    assert format_g17(np.array([1.0, -5e-324]), b"\n").itemsize == 32
    assert format_g17(np.array([]), b",").shape == (0,)
    assert format_g17(np.array([]), b"").shape == (0,)


def test_rejects_bad_arguments():
    with pytest.raises(ValueError, match="separator"):
        format_g17(np.zeros(2), b"abcd")
    with pytest.raises(ValueError, match="2-D"):
        format_columns(np.zeros(2), [b","])
    with pytest.raises(ValueError, match="one separator a row"):
        format_columns(np.zeros((2, 2)), [b","])
    with pytest.raises(ValueError, match="separator"):
        format_columns(np.zeros((1, 2)), [b"abcd"])


def test_fast_path_formats_the_bundled_field():
    # the per-element fallback must stay the exception on real output
    cfg = RunConfig.load(C15)
    flags = cfg.flags
    field = sample_field(cfg.mode(flags), cfg.chain(flags.alpha_branch),
                         cfg.grid, cfg.field_times)
    X, Y = cfg.grid.xy_mesh()
    v = field.values.ravel()
    columns = [X.ravel(), Y.ravel(), v.real, v.imag, v.real * v.real
               + v.imag * v.imag]
    scale, *_ = _tables()
    fast = np.concatenate([_digits(np.ascontiguousarray(c), scale)[2]
                           for c in columns])
    assert fast.size == 11 * 65536
    assert fast.mean() >= 0.999
