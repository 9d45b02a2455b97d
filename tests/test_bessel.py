"""Cylinder functions: AMOS J and N.

Frozen reference values come from three independent routes, none of which
shares code with the module under test:

* ``mpmath.besselj`` at 40 significant digits for the complex spot value;
* the ascending series for J_3(3.5) summed in exact ``fractions.Fraction``
  arithmetic and rounded once at the end;
* ``scipy.integrate.quad`` applied to the standard integral representation
  of N_nu for the real N spot values.

The property checks at the end compare seeded samples over the whole
validated domain against ``mpmath.besselj``/``bessely`` at 40 digits.
J is checked bit for bit against its former two-path form (real ``jv`` on
the nonnegative axis, complex ``jv`` elsewhere) and N against
``scipy.special.yv``, both up to AMOS's real limit 2^51, past which every
argument is refused.
"""

import math
import zlib

import mpmath
import numpy as np
import pytest
from scipy.special import hankel1, jv, yv

from invosc import bessel
from invosc.bessel import bessel_j, bessel_n
from invosc.errors import (DomainTooLarge, NonFinite, NonPositiveArgument,
                           Overflow)

from conftest import wronskian_check

# mpmath dps=40: besselj(2.5, 3.7 + 0.2j)
J_COMPLEX_REF = 0.4617433206681554439843833 - 0.003205716463664856660341146j

# Ascending series in Fraction arithmetic, 60 terms: J_3(3.5)
J3_35_REF = 0.38677011171688136

# quad on the DLMF integral representation of N_nu(x)
N_REF = {
    (0.0, 1.0): 0.088256964215677136,
    (0.0, 9.3): 0.20857006764523731,
    (1.0, 1.0): -0.78121282130028868,
    (2.0, 9.3): -0.17221279730944872,
}


# -- frozen-value checks -------------------------------------------------------

def test_j_complex_against_mpmath():
    val = bessel_j(2.5, 3.7 + 0.2j)
    assert abs(val - J_COMPLEX_REF) / abs(J_COMPLEX_REF) < 1e-11


def test_j_real_against_exact_series():
    val = bessel_j(3.0, 3.5)
    assert abs(val - J3_35_REF) < 5e-14


@pytest.mark.parametrize("nu,x", sorted(N_REF))
def test_n_against_quadrature(nu, x):
    ref = N_REF[(nu, x)]
    assert abs(bessel_n(nu, x) - ref) / abs(ref) < 1e-11


def test_j_half_integer_closed_forms():
    # J_{1/2} and J_{3/2} reduce to trig closed forms; checked at a small
    # and a large off-axis argument.
    import cmath

    def j_half(z):
        return cmath.sqrt(2.0 / (cmath.pi * z)) * cmath.sin(z)

    def j_3half(z):
        return cmath.sqrt(2.0 / (cmath.pi * z)) * (cmath.sin(z) / z - cmath.cos(z))

    for z in (3.0 + 1.0j, 12.0 + 5.0j):
        for nu, ref_fn in ((0.5, j_half), (1.5, j_3half)):
            ref = ref_fn(z)
            assert abs(bessel_j(nu, z) - ref) / abs(ref) < 1e-12


# -- identities ----------------------------------------------------------------

@pytest.mark.parametrize("nu,x", [(0.0, 1.0), (0.5, 2.3), (2.5, 7.7),
                                  (7.0, 20.0), (1.0, 40.0)])
def test_wronskian_identity_spot_pairs(nu, x):
    # wronskian_check returns the raw deviation; scale by pi x / 2 so the
    # bound matches the usual normalized statement 1 - (pi x / 2) W = 0.
    assert abs(wronskian_check(nu, x) * (math.pi * x / 2.0)) < 1e-9


@pytest.mark.parametrize("nu,x", [(1.0, 2.7), (2.5, 6.3), (4.0, 18.0)])
def test_three_term_recurrence(nu, x):
    lhs = bessel_j(nu - 1.0, x) + bessel_j(nu + 1.0, x)
    rhs = (2.0 * nu / x) * bessel_j(nu, x)
    assert abs(lhs - rhs) <= 1e-10 * max(abs(rhs), 1.0)


@pytest.mark.parametrize("z", [3.7 + 0.2j, 12.0 + 5.0j])
def test_conjugate_symmetry_is_exact(z):
    # AMOS uses arithmetic that commutes with conjugation, so this holds
    # bit for bit, not merely to rounding.
    assert bessel_j(2.5, z.conjugate()) == bessel_j(2.5, z).conjugate()


@pytest.mark.parametrize("nu", [0.0, 1.5, 4.0])
def test_real_axis_and_complex_paths_agree(nu):
    # a vanishing imaginary part moves the argument off the axis, where the
    # imaginary part of the value is no longer set to zero
    on_axis = bessel_j(nu, 12.0)
    off_axis = bessel_j(nu, 12.0 + 1e-30j)
    assert abs(off_axis - on_axis) / abs(on_axis) < 1e-11


@pytest.mark.parametrize("nu", [0.5, 2.5, 7.0])
def test_small_argument_power_law(nu):
    x = 1e-4
    leading = (x / 2.0) ** nu / math.gamma(nu + 1.0)
    assert abs(bessel_j(nu, x) - leading) / leading < 1e-8


def test_value_at_zero_argument():
    assert bessel_j(0.0, 0.0) == 1.0
    assert bessel_j(0.5, 0.0) == 0.0
    assert bessel_j(3.0, 0.0) == 0.0


def test_n_diverges_toward_origin():
    val = bessel_n(3.0, 0.01)
    assert math.isfinite(val)
    assert val < -1e6


# -- dtype and shape contract --------------------------------------------------

def test_scalar_types_follow_input():
    real = bessel_j(1.0, 2.0)
    assert isinstance(real, float)
    cplx = bessel_j(1.0, 2.0 + 1.0j)
    assert isinstance(cplx, complex)


def test_negative_real_argument_promotes_to_complex():
    val = bessel_j(0.0, -1.0)
    assert isinstance(val, complex)
    # J_0 is even, and the reflection of -1 onto +1 multiplies by
    # e^{i pi nu} = 1 exactly at nu = 0.
    assert val == bessel_j(0.0, 1.0) + 0.0j


def test_array_arguments_round_trip():
    xs = np.array([[0.5, 1.0], [2.0, 9.5]])
    out = bessel_j(1.5, xs)
    assert out.shape == xs.shape
    assert out.dtype == np.float64
    for idx in np.ndindex(xs.shape):
        assert out[idx] == bessel_j(1.5, float(xs[idx]))

    n_out = bessel_n(1.0, np.array([1.0, 2.0, 3.0]))
    assert n_out.shape == (3,)
    assert n_out[1] == bessel_n(1.0, 2.0)


def test_large_off_axis_array_matches_its_chunks_bit_for_bit():
    # AMOS evaluates each element on its own, so no value depends on the
    # size of the array it arrives in; 762 is the number of distinct radii
    # of a 256x256 polar grid
    rng = _sample("chunks")
    z = (rng.uniform(0.05, 30.0, 65536)
         * np.exp(1j * rng.uniform(-0.6, 0.6, 65536)))
    whole = bessel_j(2.0, z)
    parts = np.concatenate([bessel_j(2.0, z[lo:lo + 762])
                            for lo in range(0, z.size, 762)])
    assert whole.tobytes() == parts.tobytes()


def test_empty_array_passes_through():
    out = bessel_j(1.0, np.array([]))
    assert out.shape == (0,)
    assert not np.iscomplexobj(out)


# -- domain policy and failure modes -------------------------------------------

def test_complex_magnitude_past_validated_radius_refused():
    with pytest.raises(DomainTooLarge):
        bessel_j(1.0, 22.0 + 22.0j)


def test_order_must_be_finite_and_nonnegative():
    with pytest.raises(ValueError):
        bessel_j(-0.5, 1.0)
    with pytest.raises(ValueError):
        bessel_j(float("nan"), 1.0)
    with pytest.raises(ValueError):
        bessel_n(-1.0, 1.0)


def test_n_needs_strictly_positive_argument():
    with pytest.raises(NonPositiveArgument):
        bessel_n(1.0, 0.0)
    with pytest.raises(NonPositiveArgument):
        bessel_n(1.0, -2.0)
    with pytest.raises(NonPositiveArgument):
        bessel_n(0.0, np.array([1.0, -1.0]))


NAN, INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn,arg", [
    (bessel_j, NAN), (bessel_j, INF), (bessel_j, complex(1.0, NAN)),
    (bessel_j, np.array([1.0, INF])),
    (bessel_n, NAN), (bessel_n, INF), (bessel_n, np.array([1.0, NAN])),
    (wronskian_check, NAN), (wronskian_check, INF),
], ids=["j-nan", "j-inf", "j-complex-nan", "j-array-inf", "n-nan", "n-inf",
        "n-array-nan", "wronskian-nan", "wronskian-inf"])
def test_non_finite_argument_is_an_input_error(fn, arg, monkeypatch):
    # refused before any library call, naming the argument, rather than
    # reported as an overflow of the result (or, for the Wronskian, a nan)
    def unreachable(*args):
        raise AssertionError("library kernel called on a non-finite argument")

    for name in ("jv", "hankel1"):
        monkeypatch.setattr(bessel, name, unreachable)
    with pytest.raises(NonFinite, match="argument [xz] must be finite"):
        fn(1.0, arg)


def test_wronskian_check_needs_positive_x():
    with pytest.raises(NonPositiveArgument):
        wronskian_check(1.0, 0.0)
    with pytest.raises(NonPositiveArgument):
        wronskian_check(1.0, -1.0)


# -- properties against mpmath over the validated domain -------------------------

REF_DPS = 40
PROPERTY_REL_TOL = 1e-11
PROPERTY_SAMPLES = 32

# Orders are built exactly in mpmath, never through float arithmetic, so
# the reference does not inherit a rounded order.
PROPERTY_ORDERS = {
    "0": lambda: mpmath.mpf(0),
    "1": lambda: mpmath.mpf(1),
    "2": lambda: mpmath.mpf(2),
    "7": lambda: mpmath.mpf(7),
    "1/2": lambda: mpmath.mpf(1) / 2,
    "5/2": lambda: mpmath.mpf(5) / 2,
    "sqrt3": lambda: mpmath.sqrt(3),
    "sqrt13": lambda: mpmath.sqrt(13),
    "7.3": lambda: mpmath.mpf(73) / 10,
}


def _rel_errors(values, points, ref_fn, order):
    errs = []
    with mpmath.workdps(REF_DPS):
        for val, pt in zip(values, points):
            ref = ref_fn(order, mpmath.mpmathify(pt))
            errs.append(float(abs(val - ref) / abs(ref)))
    return np.array(errs)


def _sample(name):
    return np.random.default_rng(zlib.crc32(name.encode()))


@pytest.mark.parametrize("name", sorted(PROPERTY_ORDERS))
def test_j_complex_property_against_mpmath(name):
    # |z| <= 30 and |arg z| <= pi/2 span the validated off-axis domain,
    # small arguments and large alike: z = k rho / mu(t), and every
    # bundled chain reaches |arg mu| = 1.02-1.12 by t = 1.
    with mpmath.workdps(REF_DPS):
        order = PROPERTY_ORDERS[name]()
    rng = _sample("complex " + name)
    z = (rng.uniform(0.05, 30.0, PROPERTY_SAMPLES)
         * np.exp(1j * rng.uniform(-np.pi / 2, np.pi / 2, PROPERTY_SAMPLES)))
    errs = _rel_errors(bessel_j(float(order), z), z, mpmath.besselj, order)
    worst = int(np.argmax(errs))
    assert errs[worst] < PROPERTY_REL_TOL, (z[worst], errs[worst])


@pytest.mark.parametrize("name", sorted(PROPERTY_ORDERS))
def test_real_axis_property_against_mpmath(name):
    with mpmath.workdps(REF_DPS):
        order = PROPERTY_ORDERS[name]()
    x = _sample("real " + name).uniform(0.05, 30.0, PROPERTY_SAMPLES)
    x[0] = 30.0
    nu = float(order)
    for fn, ref_fn in ((bessel_j, mpmath.besselj), (bessel_n, mpmath.bessely)):
        errs = _rel_errors(fn(nu, x), x, ref_fn, order)
        worst = int(np.argmax(errs))
        assert errs[worst] < PROPERTY_REL_TOL, (fn.__name__, x[worst], errs[worst])


def test_j_irrational_order_at_the_validated_edge():
    # The worst point of an mpmath series that formed nu + j + 1 in float64
    # before the reciprocal gamma: off by 4e-3 relative there.
    z = 29.83 - 0.96j
    with mpmath.workdps(REF_DPS):
        order = mpmath.sqrt(3)
        ref = mpmath.besselj(order, mpmath.mpc(z))
        err = float(abs(bessel_j(float(order), z) - ref) / abs(ref))
    assert err < PROPERTY_REL_TOL


# -- one AMOS call each: the bits of the former kernels up to 2^51 ------------

# orders 0-60 in quarter steps plus five large ones, x log-spaced over
# 1e-300..1e300: N overflows toward the origin at every order, and past
# x = 2^51 AMOS stops, so the Hankel call gives NaN and yv a non-AMOS
# fallback
IDENTITY_ORDERS = [0.25 * i for i in range(241)] + [100.0, 170.5, 200.0,
                                                    500.0, 1000.0]
IDENTITY_X = np.logspace(-300.0, 300.0, 1800)
AMOS_LIMIT = 2.0 ** 51
PAST_LIMIT = np.nextafter(AMOS_LIMIT, np.inf)


def test_amos_limit_is_the_module_constant():
    assert bessel.AMOS_REAL_LIMIT == AMOS_LIMIT
    # the last double at which AMOS still answers, at every order tried
    for nu in (0.0, 1.5, 2.0, 60.0, 1000.0):
        assert np.isfinite(hankel1(nu, AMOS_LIMIT))
        assert np.isnan(hankel1(nu, PAST_LIMIT))


def test_n_is_yv_bit_for_bit_over_the_double_range():
    # up to AMOS's limit; past it, see the next test
    inside = IDENTITY_X[IDENTITY_X <= AMOS_LIMIT]
    for nu in IDENTITY_ORDERS:
        ref = yv(nu, inside)
        finite = np.isfinite(ref)
        got = bessel_n(nu, inside[finite])
        assert got.tobytes() == ref[finite].tobytes(), nu
        # where yv is not finite N has overflowed: the whole set raises,
        # and so do its smallest and largest x alone
        overflow = inside[~finite]
        for x in (overflow, overflow[:1], overflow[-1:]):
            if x.size:
                with pytest.raises(Overflow):
                    bessel_n(nu, x)


def test_n_past_the_amos_limit_is_refused():
    # scipy's non-AMOS fallback has lost the phase x mod 2 pi there, so
    # every point raises, alone or in the array
    past = IDENTITY_X[IDENTITY_X > AMOS_LIMIT]
    assert past.size
    for nu in IDENTITY_ORDERS:
        for x in (past, past[:1], past[-1:]):
            with pytest.raises(DomainTooLarge):
                bessel_n(nu, x)


def _j_two_paths(nu, z):
    """bessel_j as it was before the single complex call: real jv on the
    nonnegative real axis, complex jv everywhere else; the bit reference."""
    z_in = np.asarray(z)
    zf = np.atleast_1d(z_in).astype(complex).ravel()
    out = np.empty(zf.shape, dtype=complex)
    right = (zf.imag == 0.0) & (zf.real >= 0.0)
    out[right] = jv(nu, zf.real[right])
    out[~right] = jv(nu, zf[~right])
    out = out.reshape(np.atleast_1d(z_in).shape)
    if not np.iscomplexobj(z_in) and np.all(z_in >= 0):
        out = out.real
    return out[()].item() if z_in.ndim == 0 else out


def _assert_same_bits(got, ref, label):
    got, ref = np.asarray(got), np.asarray(ref)
    assert got.dtype == ref.dtype, label
    assert got.tobytes() == ref.tobytes(), label


def test_j_is_the_two_path_form_bit_for_bit():
    x = np.concatenate([[0.0, -0.0],
                        np.logspace(-300.0, math.log10(AMOS_LIMIT), 600),
                        [AMOS_LIMIT]])
    rng = _sample("two paths")
    z = (rng.uniform(0.05, 30.0, PROPERTY_SAMPLES)
         * np.exp(1j * rng.uniform(-0.6, 0.6, PROPERTY_SAMPLES)))
    # off-axis points, both axes with either sign of a zero imaginary part
    mixed = np.concatenate([z[:8], x[::50], -x[1::50],
                            [complex(2.0, -0.0), complex(-2.0, -0.0),
                             complex(-2.0, 0.0), 0j]])
    for nu in IDENTITY_ORDERS:
        for label, arg in (("real", x), ("complex", z), ("mixed", mixed)):
            _assert_same_bits(bessel_j(nu, arg), _j_two_paths(nu, arg),
                              (nu, label))
    for arg in (0.0, -0.0, 2.5, AMOS_LIMIT, -AMOS_LIMIT, -2.5, 3.7 + 0.2j):
        got, ref = bessel_j(2.5, arg), _j_two_paths(2.5, arg)
        assert type(got) is type(ref), arg
        _assert_same_bits(got, ref, arg)


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["positive", "negative"])
def test_j_at_the_amos_limit_and_past_it(sign):
    edge = sign * AMOS_LIMIT
    for nu in (0.0, 2.5, 60.0):
        val = bessel_j(nu, edge)
        assert np.isfinite(val)
        assert val == _j_two_paths(nu, edge)
    past = sign * PAST_LIMIT
    for arg in (past, np.array([1.0, past, 2.0])):
        with pytest.raises(DomainTooLarge, match="2\\^51"):
            bessel_j(2.0, arg)


def test_n_at_the_amos_limit_and_past_it():
    for nu in (0.0, 2.5, 60.0):
        val = bessel_n(nu, AMOS_LIMIT)
        assert np.isfinite(val)
        assert val == yv(nu, AMOS_LIMIT)
    for arg in (PAST_LIMIT, np.array([1.0, PAST_LIMIT, 2.0])):
        with pytest.raises(DomainTooLarge, match="2\\^51"):
            bessel_n(2.0, arg)
    with pytest.raises(DomainTooLarge):
        wronskian_check(2.0, PAST_LIMIT)


def test_n_overflow_raises_where_both_kernels_overflow():
    # both kernels leave the double range at nu = 200, x = 0.01
    assert not np.isfinite(hankel1(200.0, 0.01).imag)
    assert yv(200.0, 0.01) == -INF
    with pytest.raises(Overflow):
        bessel_n(200.0, 0.01)
    with pytest.raises(Overflow):
        bessel_n(200.0, np.array([1.0, 0.01]))
