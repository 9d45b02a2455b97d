"""The transformation chain: one coupled time problem solved by one engine.

Removing the magnetic cross term, the harmonic term, and the velocity
coupling from the planar Hamiltonian costs one quadrature and two ODEs:

  beta(t)   rotation angle,        beta' = q B / (4 m)
  alpha(t)  Gaussian width,        alpha' = i (m W^2 - alpha^2 / m)
  mu(t)     radial scale,          mu'   = i alpha mu / m
  f(t)      accumulated phase,     f'    = (k^2 + 2 mu^2 alpha) / (2 m mu^2)

with W^2 = omega^2 + q^2 B^2 / (4 m^2).  alpha and mu are complex: the
width equation with real coefficients and the factor i admits no
nonconstant real solution, so the literal real reading is a dead end.
Under this mu link the assembled field solves the Schrodinger equation,
and Re alpha |mu|^2 is conserved for any m, omega and B (the Wronskian
of the linearized oscillator; Lewis & Riesenfeld, J. Math. Phys. 10,
1458 (1969)).

The four are integrated together as one system y = (beta, alpha, g, f),
with g = log(mu / mu0), by an embedded Dormand-Prince 5(4) integrator with
its order-4 dense interpolant (coefficients from Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, the DOPRI5 code).  Each stage
evaluates the coefficients once and reads the current state; no equation
evaluates another's interpolant.  The step error is the max norm over the
components, max |err / scale|, not the RMS: it holds every component to
the tolerance it would meet alone, whereas an RMS over four lets the phase
take a larger share (on the static C = 1.5 set it doubled f's deviation
from its closed form, 4.6e-10 to 9.1e-10).  scipy's RK45 is the same pair,
but importing it costs a quarter second and 20 MB of resident memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (BlowUp, NonFinite, OutOfDomain, ToleranceNotMet,
                     ZeroCrossing)
from .params import CoefficientSet, coefficient_terms, within_span

__all__ = [
    "IntegratorConfig", "DenseFunction", "TransformTrajectory",
    "default_alpha0", "solve_chain",
]

# |alpha| past this multiple of max(|alpha0|, 1) counts as a finite-time
# escape (BlowUp).
_BLOWUP_FACTOR = 1e6
# log |mu| below this counts as a zero crossing (mu starts at 1): the phase
# and the assembled field divide by mu^2.
_LOG_MU_FLOOR = math.log(1e-12)
# Attempted steps past which the integration gives up (ToleranceNotMet).
_MAX_STEPS = 200_000

# Dormand-Prince 5(4) tableau.
_C = (0.2, 0.3, 0.8, 8.0 / 9.0, 1.0, 1.0)
_A = (
    (0.2,),
    (3.0 / 40.0, 9.0 / 40.0),
    (44.0 / 45.0, -56.0 / 15.0, 32.0 / 9.0),
    (19372.0 / 6561.0, -25360.0 / 2187.0, 64448.0 / 6561.0, -212.0 / 729.0),
    (9017.0 / 3168.0, -355.0 / 33.0, 46732.0 / 5247.0, 49.0 / 176.0,
     -5103.0 / 18656.0),
    (35.0 / 384.0, 0.0, 500.0 / 1113.0, 125.0 / 192.0, -2187.0 / 6784.0,
     11.0 / 84.0),
)
# Difference between the 5th- and 4th-order weights (error estimator).
_E = np.array([71.0 / 57600.0, 0.0, -71.0 / 16695.0, 71.0 / 1920.0,
               -17253.0 / 339200.0, 22.0 / 525.0, -1.0 / 40.0])
# Dense-output weights for the quartic interpolant.
_D = np.array([
    -12715105075.0 / 11282082432.0,
    0.0,
    87487479700.0 / 32700410799.0,
    -10690763975.0 / 1880347072.0,
    701980252875.0 / 199316789632.0,
    -1453857185.0 / 822651844.0,
    69997945.0 / 29380423.0,
])


@dataclass(frozen=True)
class IntegratorConfig:
    """Error control of the chain integration."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")


_DEFAULT_CFG = IntegratorConfig()


def _quartic(r, theta):
    """Dense-output rows ``r`` (five coefficients on the last axis)
    evaluated at the fraction ``theta`` of their step."""
    one = 1.0 - theta
    return r[..., 0] + theta * (r[..., 1] + one * (r[..., 2] + theta * (
        r[..., 3] + one * r[..., 4])))


class DenseFunction:
    """Piecewise-quartic interpolant of one solution component.

    Callable on scalars or numpy arrays; times outside the span, NaN
    included, raise OutOfDomain.  The interpolant is the integrator's own,
    so its error is bounded by a small multiple of the step tolerance
    (checked by test).
    """

    def __init__(self, ts, rcont):
        self._ts = ts                  # step boundaries, shape (K+1,)
        self._rcont = rcont            # interpolant table, shape (K, 5)
        self.span = (float(ts[0]), float(ts[-1]))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        t0, t1 = self.span
        if not within_span(t_arr, self.span):
            raise OutOfDomain(f"t={t} outside span [{t0}, {t1}]")
        idx = np.clip(np.searchsorted(self._ts, t_arr, side="right") - 1,
                      0, len(self._ts) - 2)
        ta = self._ts[idx]
        h = self._ts[idx + 1] - ta
        val = _quartic(self._rcont[idx], np.clip((t_arr - ta) / h, 0.0, 1.0))
        return val if val.ndim else val[()]


def _norm(v):
    return float(np.max(np.abs(v)))


def _initial_step(rhs, t0, y0, f0, cfg, h_max):
    """Hairer's starting-step heuristic, in the max norm.

    The probe evaluation stays inside the span: near a stationary point
    d1 is small but nonzero and the raw ratio d0/d1 can dwarf the span.
    """
    sc = cfg.abs_tol + cfg.rel_tol * np.abs(y0)
    d0 = _norm(y0 / sc)
    d1 = _norm(f0 / sc)
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, h_max)
    f1 = rhs(t0 + h0, y0 + h0 * f0)
    d2 = _norm((f1 - f0) / sc) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


# numpy's overflow and invalid warnings are off: the slope and step
# checks below name a non-finite value themselves
@np.errstate(over="ignore", invalid="ignore")
def _dopri5(rhs, span, y0, cfg, watcher, knots=()):
    """Integrate y' = rhs(t, y) over span; return (ts, rcont) tables.

    ``rcont[j, i]`` holds the five interpolant coefficients of component
    i on step j.  ``watcher(t_lo, t_hi, segment)`` is called after every
    accepted step with a callable segment(t) evaluating the fresh
    interpolant of every component; watchers raise to abort (used for
    blow-up and zero-crossing detection).  ``knots``, sorted times inside
    the span where rhs is not smooth, are never stepped across: a step
    that would cross the next one is shortened to end there (Hairer,
    Norsett & Wanner, II.6).  A non-finite slope at the start,
    or a step whose error norm is nan, raises NonFinite naming t: the
    step-size rule takes no factor from a nan error.
    """
    t0, t1 = float(span[0]), float(span[1])
    y = np.asarray(y0, dtype=complex)
    t = t0
    k1 = rhs(t, y)
    if not np.all(np.isfinite(k1)):
        raise NonFinite(f"chain slope is not finite at t={t:.6g}")
    h = min(_initial_step(rhs, t0, y, k1, cfg, t1 - t0), t1 - t0)
    ts = [t0]
    rcont = []
    stages = np.empty((7, y.size), dtype=complex)
    stops = [*knots, t1]
    nsteps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if nsteps >= _MAX_STEPS:
            raise ToleranceNotMet(
                f"no convergence within {_MAX_STEPS} steps (t={t:.6g})")
        while stops[0] < t1 and stops[0] <= t + 1e-14 * max(1.0, abs(t)):
            del stops[0]
        h = min(h, stops[0] - t)
        if h < 1e-14 * max(1.0, abs(t)):
            raise ToleranceNotMet(f"step size underflow at t={t:.6g}")
        stages[0] = k1
        for i, (ci, ai) in enumerate(zip(_C, _A), start=1):
            yi = y + h * (np.asarray(ai) @ stages[:i])
            stages[i] = rhs(t + ci * h, yi)
        y_new = yi  # the 7th stage argument is the 5th-order solution
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = _norm(h * (_E @ stages) / sc)
        if math.isnan(err):
            raise NonFinite(f"chain step from t={t:.6g} is not finite")
        nsteps += 1
        accepted = err <= 1.0
        if accepted:
            ydiff = y_new - y
            bspl = h * stages[0] - ydiff
            row = np.stack([y, ydiff, bspl,
                            2.0 * ydiff - h * (stages[0] + stages[6]),
                            h * (_D @ stages)], axis=-1)
            rcont.append(row)
            ts.append(t + h)
            t_lo, t_hi = t, t + h
            watcher(t_lo, t_hi,
                    lambda tq: _quartic(row, (tq - t_lo) / (t_hi - t_lo)))
            t, y, k1 = t + h, y_new, stages[6].copy()
        fac = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(5.0 if accepted else 1.0, max(0.2, fac))
    return np.asarray(ts), np.asarray(rcont)


def _bisect_threshold(segment, t_lo, t_hi, crosses):
    """First time in [t_lo, t_hi] where ``crosses`` flips true, by bisection."""
    lo, hi = t_lo, t_hi
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if crosses(segment(mid)):
            hi = mid
        else:
            lo = mid
    return hi


def default_alpha0(coeffs: CoefficientSet, branch=+1):
    """Stationary point of the static width equation, m(t0) * W(t0), at
    the start t0 of the coefficients' span.

    ``branch`` selects the sign; +1 is the decaying-envelope branch under
    the scan-selected conventions.
    """
    m, w2, _ = coefficient_terms(coeffs, coeffs.span[0])
    return branch * m * math.sqrt(w2)


@dataclass(frozen=True)
class TransformTrajectory:
    """Dense record of the full chain (beta, alpha, mu, f) over a span,
    with the start alpha0.

    mu is held as its logarithm g = log(mu / mu0), the component the
    integrator carries, so mu(t) = exp(g(t)) is structurally nonzero.
    The tolerances it was solved to are the caller's IntegratorConfig.
    """

    span: tuple[float, float]
    beta: DenseFunction
    alpha: DenseFunction
    log_mu: DenseFunction
    phase: DenseFunction
    alpha0: complex

    def mu(self, t):
        return np.exp(self.log_mu(t))


def solve_chain(coeffs: CoefficientSet, k, alpha0=None, cfg=None):
    """Solve beta, alpha, mu, f as one coupled system over the
    coefficients' span and bundle the results.

    mu starts at mu0 = 1 and is carried as g = log mu, so it cannot pass
    through zero; |alpha| growing past 1e6 max(|alpha0|, 1) raises BlowUp
    and |mu| falling below 1e-12 |mu0| raises ZeroCrossing, each with the
    bisected time of the event.  The knots of a tabulated coefficient are
    step ends: no step crosses one.
    """
    cfg = cfg or _DEFAULT_CFG
    span = coeffs.span
    a0 = complex(default_alpha0(coeffs) if alpha0 is None else alpha0)
    if not (math.isfinite(a0.real) and math.isfinite(a0.imag)):
        raise NonFinite("alpha0 must be finite")
    k = float(k)
    ceiling = _BLOWUP_FACTOR * max(abs(a0), 1.0)

    def rhs(t, y):
        m, w2, rate = coefficient_terms(coeffs, t)
        a = y[1]
        mu2 = np.exp(2.0 * y[2])
        if abs(mu2) < 1e-280:
            raise ZeroCrossing(f"mu vanished at t={t:.6g}", crossing_time=float(t))
        return np.array([rate, 1j * (m * w2 - a * a / m),
                         1j * a / m,
                         (k * k + 2.0 * mu2 * a) / (2.0 * m * mu2)])

    def watcher(t_lo, t_hi, segment):
        end = segment(t_hi)
        if abs(end[1]) > ceiling:
            t_esc = _bisect_threshold(segment, t_lo, t_hi,
                                      lambda v: abs(v[1]) > ceiling)
            raise BlowUp(f"|alpha| crossed {ceiling:.3g} at t={t_esc:.6g}",
                         escape_time=float(t_esc))
        if end[2].real < _LOG_MU_FLOOR:
            t_zero = _bisect_threshold(segment, t_lo, t_hi,
                                       lambda v: v[2].real < _LOG_MU_FLOOR)
            raise ZeroCrossing(
                f"|mu| fell below 1e-12 |mu0| at t={t_zero:.6g}",
                crossing_time=float(t_zero))

    knots = sorted({t for f in (coeffs.mass, coeffs.frequency,
                                coeffs.magnetic_field)
                    for t in f.knots() if span[0] < t < span[1]})
    ts, rcont = _dopri5(rhs, span, [0.0, a0, 0.0, 0.0], cfg, watcher, knots)
    return TransformTrajectory(
        span=span, beta=DenseFunction(ts, rcont[:, 0].real),
        alpha=DenseFunction(ts, rcont[:, 1]),
        log_mu=DenseFunction(ts, rcont[:, 2]),
        phase=DenseFunction(ts, rcont[:, 3]), alpha0=a0)
