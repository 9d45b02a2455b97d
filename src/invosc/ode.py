"""The transformation chain: four scalar time problems solved by one engine.

Removing the magnetic cross term, the harmonic term, and the velocity
coupling from the planar Hamiltonian costs one quadrature and two ODEs:

  beta(t)   rotation angle,        beta' = q B / (4 m)
  alpha(t)  Gaussian width,        alpha' = i (m W^2 - alpha^2 / m)
  mu(t)     radial scale,          mu'   = -(link rate) mu
  f(t)      accumulated phase,     f'    = (k^2 + 2 mu^2 alpha) / (2 m mu^2)

with W^2 = omega^2 + q^2 B^2 / (4 m^2).  alpha and mu are complex: the
width equation with real coefficients and the factor i admits no
nonconstant real solution, so the literal real reading is a dead end.

All four run through the same embedded Dormand-Prince 5(4) integrator with
its order-4 dense interpolant (coefficients from Hairer, Norsett & Wanner,
Solving Ordinary Differential Equations I, the DOPRI5 code).  Quadratures
are the same machinery with a state-independent right-hand side, so error
control and dense output behave identically everywhere.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import BlowUp, OutOfDomain, ToleranceNotMet, ZeroCrossing
from .params import CoefficientSet, effective_frequency_sq, frame_rotation_rate

__all__ = [
    "IntegratorConfig", "DenseFunction", "TransformTrajectory",
    "integrate_beta", "default_alpha0", "solve_riccati", "integrate_mu",
    "integrate_phase", "solve_chain", "write_trajectory_csv", "MU_COUPLINGS",
]

# Couplings for the scale-factor equation.  "pde" ties mu to alpha the way
# the assembled wavefunction actually needs (mu' = i alpha mu / m, confirmed
# by the residual check in the wavefunction module); "literal" keeps the
# direct first-order link mu' = -alpha mu for side-by-side comparison.
MU_COUPLINGS = ("pde", "literal")

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
    """Error control knobs shared by every solver in this module."""

    rel_tol: float = 1e-10
    abs_tol: float = 1e-12
    max_step: float = math.inf
    blowup_factor: float = 1e6
    max_steps: int = 200_000

    def __post_init__(self):
        if self.rel_tol <= 0 or self.abs_tol <= 0:
            raise ValueError("tolerances must be positive")
        if self.max_step <= 0:
            raise ValueError("max_step must be positive")


_DEFAULT_CFG = IntegratorConfig()


class DenseFunction:
    """Piecewise-quartic interpolant of one solution component.

    Callable on scalars or numpy arrays; values outside the span raise
    OutOfDomain.  The interpolant is the integrator's own, so its error is
    bounded by a small multiple of the step tolerance (checked by test).
    """

    def __init__(self, ts, rcont, rel_tol, abs_tol, real=False):
        self._ts = ts                  # step boundaries, shape (K+1,)
        self._rcont = rcont            # interpolant table, shape (K, 5)
        self.rel_tol = rel_tol
        self.abs_tol = abs_tol
        self.real = real
        self.span = (float(ts[0]), float(ts[-1]))

    def __call__(self, t):
        t_arr = np.asarray(t, dtype=float)
        t0, t1 = self.span
        slack = 1e-12 * max(1.0, abs(t0), abs(t1))
        if np.any(t_arr < t0 - slack) or np.any(t_arr > t1 + slack):
            raise OutOfDomain(f"t={t} outside span [{t0}, {t1}]")
        idx = np.clip(np.searchsorted(self._ts, t_arr, side="right") - 1,
                      0, len(self._ts) - 2)
        ta = self._ts[idx]
        h = self._ts[idx + 1] - ta
        theta = np.clip((t_arr - ta) / h, 0.0, 1.0)
        r = self._rcont[idx]
        one = 1.0 - theta
        val = r[..., 0] + theta * (r[..., 1] + one * (r[..., 2] + theta * (
            r[..., 3] + one * r[..., 4])))
        if self.real:
            val = val.real
        return val if val.ndim else val[()]


def _initial_step(rhs, t0, y0, f0, direction, rel_tol, abs_tol, h_max):
    """Hairer's starting-step heuristic, trimmed to scalar systems.

    The probe evaluation stays inside the span: near a stationary point
    d1 is small but nonzero and the raw ratio d0/d1 can dwarf the span.
    """
    sc = abs_tol + rel_tol * np.abs(y0)
    d0 = float(np.sqrt(np.mean(np.abs(y0 / sc) ** 2)))
    d1 = float(np.sqrt(np.mean(np.abs(f0 / sc) ** 2)))
    h0 = 1e-6 if d0 < 1e-5 or d1 < 1e-5 else 0.01 * d0 / d1
    h0 = min(h0, h_max)
    y1 = y0 + h0 * direction * f0
    f1 = rhs(t0 + h0 * direction, y1)
    d2 = float(np.sqrt(np.mean(np.abs((f1 - f0) / sc) ** 2))) / h0
    if max(d1, d2) <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** 0.2
    return min(100.0 * h0, h1)


def _dopri5(rhs, span, y0, cfg, watcher=None):
    """Integrate y' = rhs(t, y) over span; return (ts, rcont) tables.

    ``watcher(t_lo, t_hi, segment)`` is called after every accepted step
    with a callable segment(t) evaluating the fresh interpolant; watchers
    raise to abort (used for blow-up and zero-crossing detection).
    """
    t0, t1 = float(span[0]), float(span[1])
    if not t1 > t0:
        raise ValueError("span must be increasing")
    y = np.atleast_1d(np.asarray(y0, dtype=complex))
    n = y.size
    t = t0
    k1 = np.atleast_1d(np.asarray(rhs(t, y), dtype=complex))
    h = min(_initial_step(lambda tt, yy: np.atleast_1d(np.asarray(rhs(tt, yy), dtype=complex)),
                          t0, y, k1, 1.0, cfg.rel_tol, cfg.abs_tol,
                          min(cfg.max_step, t1 - t0)),
            cfg.max_step, t1 - t0)
    ts = [t0]
    rcont = []
    stages = np.empty((7, n), dtype=complex)
    nsteps = 0
    while t < t1 - 1e-14 * max(1.0, abs(t1)):
        if nsteps >= cfg.max_steps:
            raise ToleranceNotMet(
                f"no convergence within {cfg.max_steps} steps (t={t:.6g})")
        h = min(h, t1 - t, cfg.max_step)
        if h < 1e-14 * max(1.0, abs(t)):
            raise ToleranceNotMet(f"step size underflow at t={t:.6g}")
        stages[0] = k1
        failed = False
        for i, (ci, ai) in enumerate(zip(_C, _A), start=1):
            yi = y + h * (np.asarray(ai) @ stages[:i])
            stages[i] = rhs(t + ci * h, yi)
        y_new = yi  # the 7th stage argument is the 5th-order solution
        err_vec = h * (_E @ stages)
        sc = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(y), np.abs(y_new))
        err = float(np.sqrt(np.mean(np.abs(err_vec / sc) ** 2)))
        nsteps += 1
        if err <= 1.0:
            ydiff = y_new - y
            bspl = h * stages[0] - ydiff
            row = np.stack([y, ydiff, bspl,
                            2.0 * ydiff - h * (stages[0] + stages[6]),
                            h * (_D @ stages)], axis=-1)
            rcont.append(row)
            ts.append(t + h)
            if watcher is not None:
                t_lo, t_hi, seg_row = t, t + h, row

                def segment(tq, t_lo=t_lo, t_hi=t_hi, seg_row=seg_row):
                    th = (tq - t_lo) / (t_hi - t_lo)
                    one = 1.0 - th
                    return seg_row[..., 0] + th * (seg_row[..., 1] + one * (
                        seg_row[..., 2] + th * (seg_row[..., 3] + one * seg_row[..., 4])))
                watcher(t_lo, t_hi, segment)
            t, y, k1 = t + h, y_new, stages[6].copy()
        else:
            failed = True
        fac = 0.9 * err ** -0.2 if err > 0 else 5.0
        h *= min(1.0 if failed else 5.0, max(0.2, fac))
    if n == 1:
        return np.asarray(ts), np.asarray(rcont)[:, 0, :]
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


# -- the four chain problems --------------------------------------------------

def _span_or_default(coeffs, span):
    return coeffs.span if span is None else (float(span[0]), float(span[1]))


def integrate_beta(coeffs: CoefficientSet, span=None, cfg=None):
    """Rotation angle beta(t) = integral of qB/(4m), beta(t0) = 0."""
    cfg = cfg or _DEFAULT_CFG
    span = _span_or_default(coeffs, span)

    def rhs(t, y):
        return np.array([frame_rotation_rate(coeffs, t)], dtype=complex)

    ts, rcont = _dopri5(rhs, span, [0.0], cfg)
    return DenseFunction(ts, rcont, cfg.rel_tol, cfg.abs_tol, real=True)


def default_alpha0(coeffs: CoefficientSet, t0=None, branch=+1):
    """Stationary point of the static width equation, m(t0) * W(t0).

    ``branch`` selects the sign; +1 is the decaying-envelope branch under
    the scan-selected conventions.
    """
    t0 = coeffs.span[0] if t0 is None else t0
    return branch * coeffs.mass.value(t0) * math.sqrt(effective_frequency_sq(coeffs, t0))


def solve_riccati(coeffs: CoefficientSet, alpha0=None, span=None, cfg=None):
    """Gaussian width alpha(t): alpha' = i (m W^2 - alpha^2 / m).

    Equivalent to requiring (m/2) W^2 - alpha^2/(2m) + i alpha'/2 = 0, the
    condition that kills the quadratic potential term.  Solutions can
    escape in finite time; that surfaces as BlowUp with the escape time.
    """
    cfg = cfg or _DEFAULT_CFG
    span = _span_or_default(coeffs, span)
    if alpha0 is None:
        alpha0 = default_alpha0(coeffs, span[0])
    alpha0 = complex(alpha0)
    if not (math.isfinite(alpha0.real) and math.isfinite(alpha0.imag)):
        raise ValueError("alpha0 must be finite")
    ceiling = cfg.blowup_factor * max(abs(alpha0), 1.0)

    def rhs(t, y):
        m = coeffs.mass.value(t)
        w2 = effective_frequency_sq(coeffs, t)
        a = y[0]
        return np.array([1j * (m * w2 - a * a / m)])

    def watcher(t_lo, t_hi, segment):
        if abs(segment(t_hi)) > ceiling:
            t_esc = _bisect_threshold(segment, t_lo, t_hi,
                                      lambda v: abs(v) > ceiling)
            raise BlowUp(f"|alpha| crossed {ceiling:.3g} at t={t_esc:.6g}",
                         escape_time=float(t_esc))

    ts, rcont = _dopri5(rhs, span, [alpha0], cfg, watcher)
    return DenseFunction(ts, rcont, cfg.rel_tol, cfg.abs_tol)


class _ScaledExp:
    """mu0 * exp(g(t)) wrapper keeping mu structurally nonzero."""

    def __init__(self, mu0, log_fn):
        self.mu0 = mu0
        self.log = log_fn
        self.span = log_fn.span
        self.rel_tol = log_fn.rel_tol
        self.abs_tol = log_fn.abs_tol
        self.real = False

    def __call__(self, t):
        return self.mu0 * np.exp(self.log(t))


def integrate_mu(alpha, mu0, span, cfg=None):
    """Scale factor mu solving mu' = -alpha(t) mu, mu(t0) = mu0.

    Integrated in log space, so mu(t) = mu0 exp(-int alpha) exactly by
    construction.  A zero crossing (|mu| below 1e-12 |mu0|) aborts with
    the crossing time: downstream phases divide by mu^2.
    """
    cfg = cfg or _DEFAULT_CFG
    mu0 = complex(mu0)
    if mu0 == 0:
        raise ValueError("mu0 must be nonzero")
    floor = math.log(1e-12)

    def rhs(t, y):
        return np.array([-alpha(t)], dtype=complex)

    def watcher(t_lo, t_hi, segment):
        if segment(t_hi).real < floor:
            t_zero = _bisect_threshold(segment, t_lo, t_hi,
                                       lambda v: v.real < floor)
            raise ZeroCrossing(
                f"|mu| fell below 1e-12 |mu0| at t={t_zero:.6g}",
                crossing_time=float(t_zero))

    ts, rcont = _dopri5(rhs, span, [0.0], cfg, watcher)
    return _ScaledExp(mu0, DenseFunction(ts, rcont, cfg.rel_tol, cfg.abs_tol))


def integrate_phase(coeffs: CoefficientSet, alpha, mu, k, span=None, cfg=None):
    """Accumulated phase f(t) = integral of (k^2 + 2 mu^2 alpha)/(2 m mu^2)."""
    cfg = cfg or _DEFAULT_CFG
    span = _span_or_default(coeffs, span)
    k = float(k)

    def rhs(t, y):
        m = coeffs.mass.value(t)
        mu_t = mu(t)
        mu2 = mu_t * mu_t
        if abs(mu2) < 1e-280:
            raise ZeroCrossing(f"mu vanished at t={t:.6g}", crossing_time=float(t))
        return np.array([(k * k + 2.0 * mu2 * alpha(t)) / (2.0 * m * mu2)])

    ts, rcont = _dopri5(rhs, span, [0.0], cfg)
    return DenseFunction(ts, rcont, cfg.rel_tol, cfg.abs_tol)


@dataclass(frozen=True)
class TransformTrajectory:
    """Dense record of the full chain (beta, alpha, mu, f) over a span.

    ``mu_coupling`` names which link closed the mu equation: "pde" uses
    the rate -i alpha / m (the choice under which the assembled
    wavefunction actually satisfies the original equation; see the
    wavefunction module's residual check), "literal" uses alpha itself.
    ``mu_log_rate(t)`` returns the effective rate r(t) with mu' = -r mu,
    whichever coupling is active, so the chain-consistency check is
    expressible for both.
    """

    span: tuple[float, float]
    beta: DenseFunction
    alpha: DenseFunction
    mu: _ScaledExp
    phase: DenseFunction
    k: float
    alpha0: complex
    mu0: complex
    mu_coupling: str
    rel_tol: float
    abs_tol: float
    coeffs_desc: str = ""

    def mu_log_rate(self, t):
        if self.mu_coupling == "literal":
            return self.alpha(t)
        return -1j * self.alpha(t) / self._mass(t)

    def _mass(self, t):
        # mass is recoverable from the description only at config level;
        # the chain keeps a private evaluator injected by solve_chain.
        return self.__dict__["_mass_fn"](t)

    def digest(self):
        """Stable hex digest of everything that determines the trajectory."""
        text = (f"{self.coeffs_desc}|k={self.k!r}|alpha0={self.alpha0!r}"
                f"|mu0={self.mu0!r}|coupling={self.mu_coupling}"
                f"|rtol={self.rel_tol!r}|atol={self.abs_tol!r}"
                f"|span={self.span!r}")
        return hashlib.sha256(text.encode()).hexdigest()


def solve_chain(coeffs: CoefficientSet, k, span=None, alpha0=None, mu0=1.0,
                cfg=None, mu_coupling="pde"):
    """Solve beta, alpha, mu, f in sequence and bundle the results.

    The two mu couplings exist because the first-order link between the
    scale factor and the width can be read two ways; only the "pde" rate
    -i alpha / m survives the residual check downstream, so it is the
    default.  "literal" is kept so the alternative stays demonstrable
    rather than merely asserted.
    """
    if mu_coupling not in MU_COUPLINGS:
        raise ValueError(f"mu_coupling must be one of {MU_COUPLINGS}")
    cfg = cfg or _DEFAULT_CFG
    span = _span_or_default(coeffs, span)
    beta = integrate_beta(coeffs, span, cfg)
    alpha = solve_riccati(coeffs, alpha0, span, cfg)
    if mu_coupling == "literal":
        link = alpha
    else:
        def link(t):
            return -1j * alpha(t) / coeffs.mass.value(t)
    mu = integrate_mu(link, mu0, span, cfg)
    phase = integrate_phase(coeffs, alpha, mu, k, span, cfg)
    a0 = complex(alpha0) if alpha0 is not None else complex(default_alpha0(coeffs, span[0]))
    traj = TransformTrajectory(
        span=span, beta=beta, alpha=alpha, mu=mu, phase=phase, k=float(k),
        alpha0=a0, mu0=complex(mu0), mu_coupling=mu_coupling,
        rel_tol=cfg.rel_tol, abs_tol=cfg.abs_tol,
        coeffs_desc=coeffs.describe())
    object.__setattr__(traj, "_mass_fn", coeffs.mass.value)
    return traj


def write_trajectory_csv(traj: TransformTrajectory, path, num=512, digest=None):
    """Write the chain at ``num`` evenly spaced times as CSV.

    Floats use repr-faithful %.17g so identical runs produce identical
    bytes.  ``digest`` (if given) is embedded as a comment header.
    """
    ts = np.linspace(traj.span[0], traj.span[1], num)
    b = np.asarray(traj.beta(ts), dtype=float)
    a = np.asarray(traj.alpha(ts))
    m = np.asarray(traj.mu(ts))
    f = np.asarray(traj.phase(ts))
    with open(path, "w", encoding="utf-8") as fh:
        if digest:
            fh.write(f"# config_digest: {digest}\n")
        fh.write("t,beta,re_alpha,im_alpha,re_mu,im_mu,re_f,im_f\n")
        for i in range(num):
            row = (ts[i], b[i], a[i].real, a[i].imag,
                   m[i].real, m[i].imag, f[i].real, f[i].imag)
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
