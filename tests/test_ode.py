"""The transformation chain: width, scale, rotation angle, phase.

The frozen complex endpoints below come from a fixed-step RK4 integration
at h = 1e-6 of the width equation alpha' = i (m W^2 - alpha^2 / m) with
alpha(0) = m(0) W(0), run independently of this package's integrator.
"""

import cmath
import math

import numpy as np
import pytest

from invosc import ode
from invosc.artifacts import write_trajectory_csv
from invosc.errors import (BlowUp, NonFinite, OutOfDomain, ToleranceNotMet,
                           ZeroCrossing)
from invosc.ode import IntegratorConfig, default_alpha0, solve_chain
from invosc.params import TimeFunction, coefficient_terms

from conftest import SPAN, make_chain, make_coeffs

# RK4 h=1e-6 endpoints alpha(1) for the three fixture families.
RK4_ALPHA_1 = {
    "static": 1.1180339887498949 - 2.2204460492678948e-16j,
    "ramp": 1.1736322210853809 + 0.066170509639284322j,
    "sin_field": 1.0844360039622294 - 0.051237882731258351j,
}


def width(coeffs, **kw):
    """alpha(t) alone: the alpha component of the chain solved at k = 0."""
    return solve_chain(coeffs, 0.0, **kw).alpha


def fixture_family(name):
    if name == "static":
        return make_coeffs(C=0.0)
    if name == "ramp":
        return make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN), C=0.0)
    return make_coeffs(B=TimeFunction.sinusoidal(1.0, 1.0, SPAN), C=0.0)


@pytest.mark.parametrize("name", sorted(RK4_ALPHA_1))
def test_riccati_against_fixed_step_oracle(name):
    coeffs = fixture_family(name)
    alpha = width(coeffs)
    got = complex(alpha(1.0))
    want = RK4_ALPHA_1[name]
    assert abs(got - want) <= 1e-8 * abs(want)


@pytest.mark.parametrize("name", sorted(RK4_ALPHA_1))
def test_riccati_plugback_residual(name):
    """The quadratic-potential term the width transformation exists to kill
    actually vanishes along alpha: (m/2)W^2 - alpha^2/(2m) + i alpha'/2 = 0."""
    coeffs = fixture_family(name)
    alpha = width(coeffs)
    h = 1e-5
    ts = np.linspace(SPAN[0] + 2 * h, SPAN[1] - 2 * h, 401)
    worst = 0.0
    for t in ts:
        m, w2, _ = coefficient_terms(coeffs, t)
        a = alpha(t)
        adot = (alpha(t + h) - alpha(t - h)) / (2 * h)
        res = 0.5 * m * w2 - a * a / (2 * m) + 0.5j * adot
        worst = max(worst, abs(res) / (0.5 * m * w2))
    assert worst < 1e-7


def test_default_alpha0_is_m_times_w():
    coeffs = make_coeffs(m=2.0, w=1.5, B=4.0, q=1.0)
    w0 = math.sqrt(coefficient_terms(coeffs, 0.0)[1])
    assert default_alpha0(coeffs) == pytest.approx(2.0 * w0)
    assert default_alpha0(coeffs, branch=-1) == pytest.approx(-2.0 * w0)


def test_riccati_blowup_reports_escape_time():
    # alpha(0) = i turns the width equation into a' = 1 + a^2 along the
    # imaginary axis: a = tan(t + pi/4), escaping at t = pi/4.
    coeffs = make_coeffs(B=0.0, C=0.0, span=(0.0, 2.0))
    with pytest.raises(BlowUp) as err:
        width(coeffs, alpha0=1j)
    assert err.value.escape_time == pytest.approx(math.pi / 4, abs=5e-2)


def test_mu_zero_crossing(monkeypatch):
    # |mu|^2 = Re alpha0 / Re alpha(t) on the chain's link, so |alpha|
    # escapes before |mu| reaches 1e-12; the guard is reached by raising
    # its floor to 0.1.  At w = 30 this alpha0 takes |mu| down to 0.0236
    # at t = 0.34.
    from scipy.optimize import brentq

    coeffs = make_coeffs(w=30.0, B=0.0, C=0.0, span=(0.0, 0.5))
    alpha0 = 1.0 + 30.0j
    log_mu = solve_chain(coeffs, 1.0, alpha0=alpha0).log_mu
    ts = np.linspace(0.0, 0.5, 5001)
    first = int(np.argmax(log_mu(ts).real < math.log(0.1)))
    assert first > 0
    t_cross = brentq(lambda t: log_mu(t).real - math.log(0.1),
                     ts[first - 1], ts[first], xtol=1e-15)
    monkeypatch.setattr(ode, "_LOG_MU_FLOOR", math.log(0.1))
    with pytest.raises(ZeroCrossing) as err:
        solve_chain(coeffs, 1.0, alpha0=alpha0)
    assert err.value.crossing_time == pytest.approx(t_cross, abs=1e-12)


def test_beta_quadrature_is_exact_for_constant_field():
    coeffs = make_coeffs(m=2.0, B=3.0, q=0.5)
    beta = make_chain(coeffs).beta
    for t in (0.0, 0.3, 1.0):
        assert beta(t) == pytest.approx(0.5 * 3.0 * t / (4 * 2.0), abs=1e-12)


def test_beta_vanishes_identically_without_field():
    beta = make_chain(make_coeffs(B=0.0)).beta
    assert all(beta(t) == 0.0 for t in np.linspace(0, 1, 17))


def test_dense_output_matches_tighter_solution():
    coeffs = fixture_family("sin_field")
    loose = width(coeffs)
    tight = width(coeffs, cfg=IntegratorConfig(rel_tol=1e-12,
                                               abs_tol=1e-14))
    ts = np.linspace(0.013, 0.987, 173)   # deliberately off any step grid
    dev = max(abs(loose(t) - tight(t)) / abs(tight(t)) for t in ts)
    assert dev < 1e-8


def test_tolerance_actually_steers_accuracy():
    coeffs = fixture_family("ramp")
    ref = width(coeffs, cfg=IntegratorConfig(1e-13, 1e-15))(1.0)
    coarse = abs(width(coeffs, cfg=IntegratorConfig(1e-6, 1e-8))(1.0) - ref)
    fine = abs(width(coeffs, cfg=IntegratorConfig(1e-10, 1e-12))(1.0) - ref)
    assert fine < coarse / 10


def test_max_steps_surfaces_as_tolerance_not_met(monkeypatch):
    coeffs = fixture_family("ramp")
    monkeypatch.setattr("invosc.ode._MAX_STEPS", 5)
    with pytest.raises(ToleranceNotMet, match="within 5 steps"):
        width(coeffs)


def test_chain_consistency_of_the_mu_link():
    """mu follows its link mu'/mu = i alpha / m."""
    coeffs = fixture_family("ramp")
    h = 1e-6
    traj = make_chain(coeffs)
    for t in (0.1, 0.5, 0.9):
        rate_fd = (traj.mu(t + h) - traj.mu(t - h)) / (2 * h * traj.mu(t))
        rate = 1j * traj.alpha(t) / coeffs.mass.value(t)
        assert abs(rate_fd - rate) < 1e-6


# The ids of the tests below name the mu link, "pde": mu' = i alpha mu / m.
@pytest.mark.parametrize("constants", [
    {}, {"m": 2.0, "w": 1.5, "B": 4.0, "q": 1.0}, {"B": 0.0}],
    ids=["standard-pde", "heavy_strong_field-pde", "no_field-pde"])
def test_chain_matches_closed_forms_over_the_span(constants):
    """Constant coefficients with alpha0 = m W make the chain exact:
    alpha = m W, beta = q B t / (4 m), mu = exp(i W t) and
    f = W t + k^2 int_0^t mu^-2 / (2 m), checked at the default tolerance
    at every one of 1001 times."""
    coeffs = make_coeffs(**constants)
    m, q = coeffs.mass.value(0.0), coeffs.charge
    w = math.sqrt(coefficient_terms(coeffs, 0.0)[1])
    k = 1.0
    traj = make_chain(coeffs, k=k)
    for t in np.linspace(0.0, 1.0, 1001):
        t = float(t)
        mu_ref = cmath.exp(1j * w * t)
        f_ref = w * t + k * k * (1.0 - cmath.exp(-2j * w * t)) / (4j * m * w)
        beta_ref = q * coeffs.magnetic_field.value(t) * t / (4.0 * m)
        assert abs(traj.alpha(t) - m * w) <= 1e-14 * m * w, t
        assert abs(traj.mu(t) - mu_ref) <= 1e-14 * abs(mu_ref), t
        assert abs(traj.beta(t) - beta_ref) <= 1e-14, t
        assert abs(traj.phase(t) - f_ref) <= 7e-10 * max(1.0, abs(f_ref)), t


# Driven families of the bundled configs: ramp_mass, sinusoidal_b and
# exp_omega.
DRIVEN_FAMILIES = {
    "linear": {"m": TimeFunction.linear(1.0, 0.1, SPAN)},
    "sinusoidal": {"B": TimeFunction.sinusoidal(1.0, 1.0, SPAN)},
    "exponential": {"w": TimeFunction.exponential(1.0, 0.1, SPAN), "B": 0.0},
    "polynomial": {"m": TimeFunction.polynomial((1.0, 0.1, -0.2, 0.15), SPAN)},
    # a natural cubic spline through cos t: its third derivative jumps at
    # each of the 10 interior knots
    "tabulated": {"B": TimeFunction.tabulated(np.linspace(*SPAN, 12),
                                              np.cos(np.linspace(*SPAN, 12)),
                                              SPAN)},
}
# Worst of |chain - reference| / max(1, |reference|) over the linear,
# sinusoidal and exponential families and both alpha0 branches at 201
# times, measured at the default tolerance: beta 7.7e-13, alpha 4.1e-11,
# mu 1.9e-11, f 5.6e-11.  Each bar leaves at least 2.5x headroom.  The reference moves by at most 6.4e-12
# (f) between rtol 1e-12 and 1e-13, well inside every bar.
DRIVEN_BARS = {"beta": 2e-12, "alpha": 1e-10, "mu": 5e-11, "phase": 3e-10}


def _linearized_reference(coeffs, alpha0, ts, k=1.0):
    """The chain from the classical oscillator, independently of ode.py.

    alpha = -i m xi'/xi turns the width equation into the linear
    (m xi')' + m W^2 xi = 0, integrated as (xi, p = m xi') with xi(0) = 1
    and p(0) = i alpha0 by scipy's DOP853.  The mu link gives mu = xi;
    beta and f are quadratures carried along.
    """
    from scipy.integrate import solve_ivp

    def rhs(t, y):
        xi, p, _, _ = y
        m, w2, rate = coefficient_terms(coeffs, t)
        alpha = -1j * p / xi
        mu2 = xi * xi
        return [p / m, -m * w2 * xi, rate,
                (k * k + 2.0 * mu2 * alpha) / (2.0 * m * mu2)]

    # a spline coefficient is integrated knot to knot, because its third
    # derivative jumps at every knot and DOP853 would step across them
    cuts = {*SPAN}
    for fn in (coeffs.mass, coeffs.frequency, coeffs.magnetic_field):
        if fn.family == "tabulated":
            cuts.update(fn.params[:len(fn.params) // 2])
    cuts = sorted(c for c in cuts if SPAN[0] <= c <= SPAN[1])
    y0, ys = [1.0 + 0j, 1j * alpha0, 0j, 0j], []
    for lo, hi in zip(cuts, cuts[1:]):
        inside = ts[(ts >= lo) & ((ts < hi) | (hi == SPAN[1]))]
        sol = solve_ivp(rhs, (lo, hi), y0, method="DOP853", t_eval=inside,
                        rtol=1e-13, atol=1e-15, dense_output=True)
        assert sol.success, sol.message
        ys.append(sol.y)
        y0 = sol.sol(hi)
    xi, p, beta, f = np.concatenate(ys, axis=1)
    return {"beta": beta.real, "alpha": -1j * p / xi, "mu": xi, "phase": f}


def _chain_errors(traj, ref, ts):
    return {name: float(np.max(
        np.abs(np.asarray(getattr(traj, name)(ts)) - want)
        / np.maximum(1.0, np.abs(want)))) for name, want in ref.items()}


# The family on which the chain, at its default tolerance, misses the
# bars above.  Worst over both branches: polynomial beta 6.5e-12 (3.3x
# its bar), alpha 1.2e-10, mu 6.6e-11, f 3.9e-10; it converges to the
# reference as rel_tol falls, so the misses are the chain's step control.
# The tabulated field passes because no step crosses a knot, where the
# spline's third derivative jumps: beta 8.3e-17, alpha 6.3e-11, mu
# 2.1e-11, f 5.8e-11.
CHAIN_MISSES_BARS = pytest.mark.xfail(strict=True, reason=(
    "at the default rel_tol 1e-10 the chain misses the bars on a cubic "
    "mass; see CHAIN_MISSES_BARS"))


@pytest.mark.parametrize("branch", [+1, -1], ids=["pde-1", "pde--1"])
@pytest.mark.parametrize("family", [
    pytest.param(name, marks=CHAIN_MISSES_BARS) if name == "polynomial"
    else name for name in sorted(DRIVEN_FAMILIES)])
def test_driven_chain_matches_the_linearized_riccati(family, branch):
    coeffs = make_coeffs(**DRIVEN_FAMILIES[family])
    traj = make_chain(coeffs, branch=branch)
    ts = np.linspace(*SPAN, 201)
    ref = _linearized_reference(coeffs, traj.alpha0, ts)
    errors = _chain_errors(traj, ref, ts)
    assert all(errors[name] <= bar for name, bar in DRIVEN_BARS.items()), \
        errors


def test_linearized_riccati_catches_a_perturbed_chain():
    # alpha0 and the field amplitude each off by 1e-9 relative: every
    # component leaves its bar, f by the least (about 2x), beta by the
    # most (about 100x)
    coeffs = make_coeffs(**DRIVEN_FAMILIES["sinusoidal"])
    nudged = make_coeffs(B=TimeFunction.sinusoidal(1.0 + 1e-9, 1.0, SPAN))
    alpha0 = default_alpha0(coeffs)
    traj = solve_chain(nudged, 1.0, alpha0=alpha0 * (1.0 + 1e-9))
    ts = np.linspace(*SPAN, 201)
    errors = _chain_errors(
        traj, _linearized_reference(coeffs, alpha0, ts), ts)
    assert all(errors[name] > bar for name, bar in DRIVEN_BARS.items()), \
        errors


def _random_coefficients(family, rng):
    """A coefficient set whose driven coefficient is of ``family``, with
    random parameters; the other coefficients and q are random constants."""
    u = rng.uniform
    kw = {"m": u(0.5, 2.0), "w": u(0.5, 2.0), "B": u(-2.0, 2.0),
          "q": u(-1.0, 1.0)}
    if family == "linear":
        m0 = u(0.5, 2.0)
        kw["m"] = TimeFunction.linear(m0, m0 * u(-0.5, 0.5), SPAN)
    elif family == "sinusoidal":
        kw["B"] = TimeFunction.sinusoidal(u(-2.0, 2.0), u(0.1, 6.0), SPAN,
                                          offset=u(-1.0, 1.0))
    elif family == "exponential":
        kw["w"] = TimeFunction.exponential(u(0.5, 2.0), u(-1.0, 1.0), SPAN)
    elif family == "polynomial":
        kw["m"] = TimeFunction.polynomial([u(0.5, 2.0), *u(-0.15, 0.15, 3)],
                                          SPAN)
    else:
        knots = np.linspace(*SPAN, 12)
        kw["B"] = TimeFunction.tabulated(knots, u(-2.0, 2.0, 12), SPAN)
    return make_coeffs(**kw)


def _invariant_drift(traj, ts):
    """max |I(t) - I(t0)| / |I(t0)| of I = Re alpha |mu|^2 at ``ts``."""
    inv = traj.alpha(ts).real * np.exp(2.0 * traj.log_mu(ts).real)
    return float(np.max(np.abs(inv - inv[0])) / abs(inv[0]))


# Re alpha |mu|^2 is conserved exactly under alpha' = i (m W^2 - alpha^2/m)
# and mu' = i alpha mu / m, for any coefficients and alpha0.  Its drift over
# 200 random sets per family and branch is at most 1.4 rel_tol, at rel_tol
# 1e-8, 1e-10 and 1e-11 (abs_tol = rel_tol / 100).
INVARIANT_BAR = 3.0 * IntegratorConfig.rel_tol


@pytest.mark.parametrize("branch", [+1, -1])
@pytest.mark.parametrize("family", sorted(DRIVEN_FAMILIES))
def test_chain_conserves_re_alpha_mu_squared(family, branch):
    rng = np.random.default_rng(sorted(DRIVEN_FAMILIES).index(family))
    ts = np.linspace(*SPAN, 201)
    drifts = [_invariant_drift(make_chain(_random_coefficients(family, rng),
                                          branch=branch), ts)
              for _ in range(30)]
    assert max(drifts) <= INVARIANT_BAR, drifts


def test_invariant_catches_a_perturbed_mu_rate(monkeypatch):
    # the mu rate, component 2 of the chain's rhs, off by 1e-6 relative:
    # the drift reaches about 2e-8, 70x the bar (1e-9 gives 2.1e-11)
    coeffs = make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN),
                         B=TimeFunction.sinusoidal(1.0, 1.0, SPAN))
    ts = np.linspace(*SPAN, 201)
    assert _invariant_drift(make_chain(coeffs), ts) <= INVARIANT_BAR
    real = ode._dopri5

    def perturbed(rhs, *args):
        def scaled(t, y):
            dy = rhs(t, y)
            dy[2] *= 1.0 + 1e-6
            return dy
        return real(scaled, *args)

    monkeypatch.setattr(ode, "_dopri5", perturbed)
    for branch in (+1, -1):
        drift = _invariant_drift(make_chain(coeffs, branch=branch), ts)
        assert drift > 10.0 * INVARIANT_BAR, (branch, drift)


def test_solve_chain_is_one_coupled_integration(monkeypatch):
    calls = []
    real = ode._dopri5

    def counting(rhs, span, y0, cfg, watcher, knots):
        calls.append(len(y0))
        return real(rhs, span, y0, cfg, watcher, knots)

    monkeypatch.setattr(ode, "_dopri5", counting)
    make_chain(fixture_family("ramp"))
    assert calls == [4]


def test_chain_steps_end_on_the_knots_inside_the_span(monkeypatch):
    # the spline field's 10 interior knots, and none from the constant
    # mass and frequency
    coeffs = make_coeffs(**DRIVEN_FAMILIES["tabulated"])
    knots = coeffs.magnetic_field.knots()
    assert knots == tuple(np.linspace(*SPAN, 12)[1:-1])
    passed = []
    real = ode._dopri5

    def recording(rhs, span, y0, cfg, watcher, knots):
        passed.append(knots)
        return real(rhs, span, y0, cfg, watcher, knots)

    monkeypatch.setattr(ode, "_dopri5", recording)
    traj = make_chain(coeffs)
    assert passed == [list(knots)]
    ends = traj.alpha._ts
    assert all(np.min(np.abs(ends - t)) <= 1e-15 for t in knots)
    # a narrower span passes only the knots inside it
    ts, narrow = np.linspace(*SPAN, 12), (0.25, 0.75)
    solve_chain(make_coeffs(B=TimeFunction.tabulated(ts, np.cos(ts), narrow),
                            span=narrow), 1.0)
    assert passed[1] == [t for t in knots if 0.25 < t < 0.75]


def test_a_step_is_shortened_to_end_on_a_knot():
    # y' = max(t - 0.3, 0) has a kink at 0.3: stepping onto it leaves a
    # linear slope on each step, which the 5th-order pair integrates
    # exactly
    def rhs(t, y):
        return np.full(y.shape, max(t - 0.3, 0.0), dtype=complex)

    def end(knots):
        ts, rcont = ode._dopri5(rhs, (0.0, 1.0), [0j], IntegratorConfig(),
                                lambda *args: None, knots)
        return ts, abs(rcont[-1, 0, :2].sum() - 0.245)

    ts, err = end([0.3, 0.6])
    assert 0.3 in ts and 0.6 in ts
    assert err <= 1e-15
    ts, err = end([])
    assert 0.3 not in ts and err > 1e-13


def test_out_of_span_evaluation_raises():
    traj = make_chain(make_coeffs(C=0.0))
    for t in (1.5, math.nan, np.array([0.5, math.nan])):
        with pytest.raises(OutOfDomain):
            traj.alpha(t)


@pytest.mark.parametrize("coeffs,k,alpha0,message", [
    (make_coeffs(C=0.0), 1.0, complex(math.nan), "alpha0 must be finite"),
    # alpha0 = m W = 1e308, so alpha^2 / m overflows in the first slope
    (make_coeffs(m=1e308, C=0.0), 1.0, None,
     "chain slope is not finite at t=0"),
    (make_coeffs(C=0.0), 1e308, None, "chain slope is not finite at t=0"),
], ids=["nan-alpha0", "huge-mass", "huge-k"])
def test_non_finite_chain_is_named(coeffs, k, alpha0, message):
    # each used to end in "OutOfDomain: t=nan" or a bare ValueError
    with pytest.raises(NonFinite, match=message):
        solve_chain(coeffs, k, alpha0=alpha0)


def test_nan_step_is_named_with_its_time():
    # a slope that turns nan mid-span makes a nan error norm
    def rhs(t, y):
        return np.full(y.shape, math.nan if t > 0.5 else 1.0, dtype=complex)
    with pytest.raises(NonFinite, match=r"chain step from t=0\.\d+ is not "):
        ode._dopri5(rhs, (0.0, 1.0), [0j], IntegratorConfig(),
                    lambda *args: None)


def test_trajectory_csv_round_trip(tmp_path):
    traj = make_chain(make_coeffs(C=0.0))
    path = tmp_path / "chain.csv"
    write_trajectory_csv(traj, path, digest="feedbeef")
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_digest: feedbeef"
    assert lines[1] == "t,beta,re_alpha,im_alpha,re_mu,im_mu,re_f,im_f"
    rows = np.loadtxt(lines[2:], delimiter=",")
    assert rows.shape == (512, 8)
    ts = np.linspace(*traj.span, 512)
    assert np.allclose(rows[:, 0], ts, atol=1e-15)
    alphas = np.array([traj.alpha(t) for t in ts])
    assert np.allclose(rows[:, 2] + 1j * rows[:, 3], alphas, rtol=0,
                       atol=1e-15)
