"""Coefficient families, the terms built from them, and config scanning."""

import math

import numpy as np
import pytest

from invosc.errors import ConfigError, NonFinite, OutOfDomain
from invosc.oracle import RadialProblem
from invosc.params import (CoefficientRangeError, CoefficientSet,
                           TimeFunction, coefficient_terms, parse_sections,
                           time_function_from_section)
from invosc.wavefunction import ModeSpec, PolarGrid, schrodinger_residual

from conftest import SPAN, WINNER, make_chain, make_coeffs


# -- families -------------------------------------------------------------------

def test_family_values():
    cases = [
        (TimeFunction.constant(2.5, SPAN), lambda t: 2.5),
        (TimeFunction.linear(1.0, 0.1, SPAN), lambda t: 1.0 + 0.1 * t),
        (TimeFunction.exponential(1.0, 0.1, SPAN), lambda t: math.exp(0.1 * t)),
        (TimeFunction.sinusoidal(1.0, 2.0, SPAN, offset=0.5),
         lambda t: 0.5 + math.cos(2.0 * t)),
        (TimeFunction.polynomial((1.0, 0.0, 3.0), SPAN),
         lambda t: 1.0 + 3.0 * t * t),
    ]
    for f, val in cases:
        for t in (0.0, 0.3, 1.0):
            assert f.value(t) == pytest.approx(val(t), rel=1e-14), f.family


def test_family_array_evaluation():
    f = TimeFunction.linear(1.0, 2.0, SPAN)
    t = np.array([0.0, 0.25, 1.0])
    assert np.allclose(f.value(t), 1.0 + 2.0 * t)


def test_tabulated_exact_at_nodes():
    ts = np.linspace(0.0, 1.0, 7)
    vs = np.cos(ts)
    f = TimeFunction.tabulated(ts, vs)
    assert f.span == (0.0, 1.0)
    for t, v in zip(ts, vs):
        assert f.value(t) == pytest.approx(v, abs=1e-15)
    # between nodes the cubic tracks a smooth function closely
    assert f.value(0.55) == pytest.approx(math.cos(0.55), abs=1e-4)


def test_tabulated_rejects_bad_samples():
    with pytest.raises(ValueError):
        TimeFunction.tabulated([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(ValueError):
        TimeFunction.tabulated([0.0, 1.0], [1.0, 2.0, 3.0])
    with pytest.raises(NonFinite):
        TimeFunction.tabulated([0.0, 0.5, 1.0], [1.0, math.nan, 3.0])


def test_out_of_span_raises():
    f = TimeFunction.constant(1.0, SPAN)
    with pytest.raises(OutOfDomain):
        f.value(1.5)
    with pytest.raises(OutOfDomain):
        f.value(-0.2)
    # a hair past the endpoint is representation slack, not an error
    assert f.value(1.0 + 1e-13) == 1.0


# A span far from zero, where the slack 1e-12 * max(1, |t0|, |t1|) is 1e-10.
FAR_SPAN = (99.0, 100.0)


@pytest.mark.parametrize("past,accepted", [(5e-11, True), (2e-10, False)],
                         ids=["inside-slack", "past-slack"])
def test_every_span_check_allows_the_same_slack(past, accepted):
    # the coefficients, the chain's interpolant, the radial oracle and the
    # residual stencil all read the one rule in params
    coeffs = make_coeffs(span=FAR_SPAN)
    chain = make_chain(coeffs)
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, conventions=WINNER)
    t, dt = FAR_SPAN[1] + past, 0.25
    checks = {
        "TimeFunction.value": lambda: coeffs.mass.value(t),
        "DenseFunction": lambda: chain.alpha(t),
        "RadialProblem": lambda: RadialProblem(
            coeffs, n=1, rho_max=8.0, n_rho=256, dt=0.01,
            span=(FAR_SPAN[0], t)),
        "schrodinger_residual": lambda: schrodinger_residual(
            mode, chain, coeffs, PolarGrid(0.4, 8.0, 16, 16), (t - dt,),
            steps=(dt,)),
    }
    for name, check in checks.items():
        if accepted:
            check()
        else:
            with pytest.raises(OutOfDomain):
                check()


# A span off zero, so the slack 1e-12 * max(1, |t0|, |t1|) is not its floor.
PARITY_SPAN = (-3.0, 5.0)
_SLACK = 1e-12 * 5.0
_KNOTS = np.linspace(-3.0, 5.0, 9)
PARITY_FAMILIES = {
    "constant": TimeFunction.constant(2.5, PARITY_SPAN),
    "linear": TimeFunction.linear(1.0, 0.1, PARITY_SPAN),
    "exponential": TimeFunction.exponential(1.5, -0.7, PARITY_SPAN),
    "sinusoidal": TimeFunction.sinusoidal(1.0, 2.0, PARITY_SPAN, offset=0.5),
    "polynomial": TimeFunction.polynomial((1.0, -0.5, 3.0, 0.25), PARITY_SPAN),
    "tabulated": TimeFunction.tabulated(_KNOTS, np.cos(_KNOTS)),
}


@pytest.mark.parametrize("method", ["value"])
@pytest.mark.parametrize("family", sorted(PARITY_FAMILIES))
def test_scalar_and_array_evaluation_agree(family, method):
    # scalars take float comparisons and math.isfinite, arrays numpy
    # reductions; both must give the same bits and the same errors
    fn = getattr(PARITY_FAMILIES[family], method)
    t0, t1 = PARITY_SPAN
    inside = (t0, -1.2345, 0.0, 1.0 / 3.0, 2.75, t1, t0 - _SLACK, t1 + _SLACK)
    for t in inside:
        scalar = fn(t)
        assert type(scalar) is float
        assert scalar.hex() == float(fn(np.array([t]))[0]).hex(), t
        assert scalar.hex() == fn(np.float64(t)).hex() == fn(np.array(t)).hex()
    # a NaN time is outside every span
    past = (np.nextafter(t0 - _SLACK, -math.inf),
            np.nextafter(t1 + _SLACK, math.inf), math.nan)
    for t in past:
        with pytest.raises(OutOfDomain) as scalar_err:
            fn(float(t))
        with pytest.raises(OutOfDomain) as array_err:
            fn(np.array([t]))
        assert str(scalar_err.value) == str(array_err.value)
        assert str(scalar_err.value).startswith(f"t={float(t)!r} outside span")


@pytest.mark.parametrize("method", ["value"])
def test_overflowing_exponential_is_non_finite_in_both_forms(method):
    fn = getattr(TimeFunction.exponential(1.0, 800.0, SPAN), method)
    with np.errstate(over="ignore"):
        assert math.isfinite(fn(0.0))
        with pytest.raises(NonFinite) as scalar_err:
            fn(1.0)
        with pytest.raises(NonFinite) as array_err:
            fn(np.array([0.0, 1.0]))
    assert str(scalar_err.value) == str(array_err.value)


def test_minimum_on_span_sees_interior_dips():
    f = TimeFunction.sinusoidal(1.0, 2.0, (0.0, 4.0), offset=0.25)
    # 0.25 + cos(2t) dips to -0.75 inside the span, not at an endpoint
    assert f.minimum_on_span() == pytest.approx(-0.75, abs=1e-12)


def _enumerated_sinusoidal_minimum(amp, gam, off, t0, t1):
    """The reference: endpoints plus every cos extremum gam t = j pi in
    [t0, t1], listed one by one."""
    cands = [t0, t1]
    if gam != 0.0:
        lo, hi = sorted((gam * t0, gam * t1))
        js = range(math.ceil(lo / math.pi), math.floor(hi / math.pi) + 1)
        cands += [j * math.pi / gam for j in js]
    return min(off + amp * math.cos(gam * tc) for tc in cands)


def test_sinusoidal_minimum_matches_the_enumeration():
    # spans that hold no extremum, one, or many, with both signs of the
    # amplitude and of the frequency, and a zero frequency
    rng = np.random.default_rng(7)
    for _ in range(2000):
        amp, off = rng.uniform(-2.0, 2.0, 2)
        gam = rng.choice([-1.0, 1.0]) * 10.0 ** rng.uniform(-2.0, 3.0)
        if rng.random() < 0.05:
            gam = 0.0
        t0 = rng.uniform(-3.0, 3.0)
        t1 = t0 + 10.0 ** rng.uniform(-4.0, 1.0)
        f = TimeFunction.sinusoidal(amp, gam, (t0, t1), offset=off)
        assert f.minimum_on_span() == _enumerated_sinusoidal_minimum(
            amp, gam, off, t0, t1), (amp, gam, off, t0, t1)


def test_sinusoidal_minimum_costs_the_same_at_any_frequency(monkeypatch):
    # every config load runs the sign check, so it evaluates no more than
    # the endpoints and one extremum, not the 31,831 extrema of cos(1e5 t)
    # on [0, 1]
    calls = []
    real_cos = math.cos
    monkeypatch.setattr(math, "cos", lambda x: calls.append(x) or real_cos(x))
    for gam, low in ((1e5, 0.5), (1.0, 1.0 + 0.5 * real_cos(1.0))):
        f = TimeFunction.sinusoidal(0.5, gam, SPAN, offset=1.0)
        assert f.minimum_on_span() == low
    assert len(calls) <= 3
    # a phase that overflows at an end of the span has no minimum to find
    huge = TimeFunction.sinusoidal(0.5, 1e308, (0.0, 2.0), offset=1.0)
    with pytest.raises(NonFinite, match="sinusoidal family's phase overflows"):
        huge.minimum_on_span()


# -- coefficient set invariants --------------------------------------------------

def test_nonpositive_mass_rejected():
    with pytest.raises(ValueError, match="nonpositive mass"):
        make_coeffs(m=-1.0)
    with pytest.raises(ValueError, match="nonpositive mass"):
        make_coeffs(m=TimeFunction.linear(1.0, -2.0, SPAN))  # crosses zero


def test_negative_frequency_rejected():
    with pytest.raises(ValueError, match="negative frequency"):
        make_coeffs(w=TimeFunction.linear(0.5, -1.0, SPAN))
    # omega = 0 is allowed: the field term alone can confine
    make_coeffs(w=0.0)


def test_common_span_is_the_intersection():
    c = CoefficientSet(mass=TimeFunction.constant(1.0, (0.0, 0.5)),
                       frequency=TimeFunction.constant(1.0, SPAN),
                       magnetic_field=TimeFunction.constant(1.0, SPAN),
                       charge=1.0, coupling=0.0)
    assert c.span == (0.0, 0.5)
    with pytest.raises(ValueError, match="empty intersection"):
        CoefficientSet(mass=TimeFunction.constant(1.0, (2.0, 3.0)),
                       frequency=TimeFunction.constant(1.0, SPAN),
                       magnetic_field=TimeFunction.constant(1.0, SPAN),
                       charge=1.0, coupling=0.0)


def test_nonfinite_constants_rejected():
    with pytest.raises(NonFinite):
        make_coeffs(q=math.inf)
    with pytest.raises(NonFinite):
        make_coeffs(C=math.nan)


def test_describe_mentions_every_input():
    text = make_coeffs(C=1.5).describe()
    for token in ("constant", "q=", "C="):
        assert token in text


# -- coefficient terms ------------------------------------------------------------

def test_frame_rotation_rate_value():
    c = make_coeffs(m=0.5, B=3.0, q=2.0)
    assert coefficient_terms(c, 0.0)[2] == pytest.approx(3.0)  # qB/(4m)


def test_effective_frequency_sq_value():
    c = make_coeffs(m=2.0, w=1.5, B=4.0, q=1.0)
    # omega^2 + q^2 B^2/(4 m^2) = 2.25 + 16/16
    assert coefficient_terms(c, 0.0)[1] == pytest.approx(3.25)


@pytest.mark.parametrize("t", [0.25, np.array([0.25, 0.5])])
def test_overflowing_terms_name_w2_and_t(t):
    # (q B)**2 on floats raised OverflowError; the square is a product now
    with np.errstate(over="ignore"), pytest.raises(
            NonFinite, match=r"^W\^2 = .* is not finite at t=0\.25$"):
        coefficient_terms(make_coeffs(B=1e308), t)
    # m * m underflows to zero: a ZeroDivisionError on floats
    with np.errstate(divide="ignore", invalid="ignore"), pytest.raises(
            NonFinite, match=r"^W\^2 = .* is not finite at t=0\.25$"):
        coefficient_terms(make_coeffs(m=1e-200), t)


@pytest.mark.parametrize("coefficient", ["mass", "frequency"])
def test_overflowing_sign_check_names_its_coefficient(coefficient):
    # math.exp(1e308) raised OverflowError out of minimum_on_span
    big = TimeFunction.exponential(1.0, 1e308, SPAN)
    with pytest.raises(CoefficientRangeError,
                       match=f"^{coefficient} is not finite on the configured"
                       ) as err:
        make_coeffs(**{{"mass": "m", "frequency": "w"}[coefficient]: big})
    assert err.value.coefficient == coefficient
    with pytest.raises(NonFinite, match="exponential family overflows"):
        big.minimum_on_span()


def test_zero_field_kills_rate_but_not_frequency():
    c = make_coeffs(B=0.0, w=2.0)
    _, w2, rate = coefficient_terms(c, 0.7)
    assert rate == 0.0
    assert w2 == pytest.approx(4.0)


# -- config scanning --------------------------------------------------------------

GOOD = """\
# comment
[mass]
family = constant
value = 1.0   # trailing comment

[frequency]
family = linear
intercept = 1.0
slope = -0.1
"""


def test_parse_sections_happy_path():
    sections = parse_sections(GOOD)
    assert set(sections) == {"mass", "frequency"}
    assert sections["mass"].header_line == 2
    assert sections["mass"].items["value"] == ("1.0", 4)
    assert sections["frequency"].items["slope"] == ("-0.1", 9)


@pytest.mark.parametrize("text,fragment", [
    ("value = 1.0\n", "before any"),
    ("[a]\nvalue\n", "key = value"),
    ("[a]\nx = 1\nx = 2\n", "duplicate key"),
    ("[a]\n[a]\n", "duplicate section"),
    ("[]\n", "empty section"),
    ("[a]\n= 3\n", "empty key"),
])
def test_parse_sections_errors_carry_lines(text, fragment):
    with pytest.raises(ConfigError, match=fragment) as err:
        parse_sections(text)
    assert err.value.line is not None


def test_time_function_from_section_families():
    sections = parse_sections(GOOD)
    f = time_function_from_section(sections["mass"], SPAN)
    assert f.family == "constant" and f.value(0.3) == 1.0
    g = time_function_from_section(sections["frequency"], SPAN)
    assert g.value(0.5) == pytest.approx(0.95)


@pytest.mark.parametrize("body,fragment", [
    ("family = warp\n", "unknown family"),
    ("family = constant\n", "missing key"),
    ("family = constant\nvalue = two\n", "not a number"),
    ("family = constant\nvalue = nan\n", "line 3: value = 'nan' is not finite"),
    ("family = polynomial\ncoeffs = 1, 1e400\n",
     "line 3: coeffs = '1, 1e400' is not finite"),
    ("family = constant\nvalue = 1\nwibble = 2\n", "unknown key"),
    ("family = constant\nvalue = 1.0\nslope = 5\n", "unknown key"),
])
def test_time_function_from_section_errors(body, fragment):
    sections = parse_sections("[mass]\n" + body)
    with pytest.raises(ConfigError, match=fragment):
        time_function_from_section(sections["mass"], SPAN)
