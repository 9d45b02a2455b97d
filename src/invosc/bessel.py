"""Bessel functions of real order: J for complex argument, N (= Y) on the
positive real axis, and the real Gamma function.

The radial factor of the assembled solution is J_nu(k rho / mu) with mu
complex, so J must accept complex argument; N is needed only for annular
domains where the argument stays real.  J is scipy.special.jv (AMOS, Amos
ACM TOMS 644) in two regimes:

  nonnegative real axis   real jv, float64 out
  everything else         complex jv on the principal branch of z^nu: the
                          negative real axis and off-axis |z| <= 30

Off-axis |z| > VALIDATED_COMPLEX_RADIUS raises DomainTooLarge: the caller
should shrink the grid or the time window rather than trust an unvalidated
regime.  N is Im H1_nu(x) from scipy.special.hankel1, which AMOS makes
equal to scipy.special.yv bit for bit at about half of its cost; yv itself
runs only where that value is not finite (see bessel_n).  J and N are
property-tested against mpmath at 40 digits over |z| <= 30.  NaN or
infinite arguments raise NonFinite before any library call.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hankel1, jv, yv

from .errors import (DomainTooLarge, NonFinite, NonPositiveArgument,
                     Overflow, Pole)

__all__ = ["VALIDATED_COMPLEX_RADIUS", "gamma_real", "bessel_j", "bessel_n",
           "wronskian_check"]

# Off-axis |z| up to which complex jv is property-tested against mpmath.
VALIDATED_COMPLEX_RADIUS = 30.0


# -- gamma ---------------------------------------------------------------------

def gamma_real(x):
    """Gamma(x) for real x, avoiding silent pole or overflow surprises.

    Relative accuracy rides on the platform gamma, about 1e-15 on the
    tested range |x| <= 170; the identities are property-tested rather
    than assumed.
    """
    x = float(x)
    if not math.isfinite(x):
        raise ValueError("gamma_real needs finite x")
    if x <= 0.0 and x == math.floor(x):
        raise Pole(f"gamma has a pole at {x:g}")
    try:
        return math.gamma(x)
    except OverflowError:
        raise Overflow(f"gamma({x:g}) exceeds double range") from None


# -- public operations -----------------------------------------------------------

def _check_order(nu):
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be finite and nonnegative, got {nu}")
    return nu


def _check_finite(name, values):
    finite = np.isfinite(values)
    if not np.all(finite):
        bad = np.asarray(values)[~finite].flat[0]
        raise NonFinite(f"{name} must be finite, got {bad}")


def bessel_j(nu, z):
    """J_nu(z) for nonnegative real order and scalar/array argument.

    Real nonnegative input comes back as float64, anything else as
    complex128 on the principal branch of z^nu.  Complex magnitudes past
    VALIDATED_COMPLEX_RADIUS off the real axis raise DomainTooLarge so
    callers shrink their grid or time window instead of consuming junk.
    """
    nu = _check_order(nu)
    z_in = np.asarray(z)
    _check_finite("J_nu argument z", z_in)
    real_in = not np.iscomplexobj(z_in) and (z_in.size == 0 or bool(np.all(z_in >= 0)))
    zf = np.atleast_1d(z_in).astype(complex).ravel()
    out = np.empty(zf.shape, dtype=complex)
    mag = np.abs(zf)
    off_axis = zf.imag != 0.0

    too_big = off_axis & (mag > VALIDATED_COMPLEX_RADIUS)
    if np.any(too_big):
        worst = float(np.max(mag[too_big]))
        raise DomainTooLarge(
            f"|z| = {worst:.4g} exceeds the validated complex radius "
            f"{VALIDATED_COMPLEX_RADIUS:g}")

    right = ~off_axis & (zf.real >= 0.0)
    cplx = ~right                 # off the axis, or the negative axis
    if np.any(right):
        out[right] = jv(nu, zf.real[right])
    if np.any(cplx):
        out[cplx] = jv(nu, zf[cplx])

    if not np.all(np.isfinite(out)):
        raise Overflow("J evaluation left the double range")
    out = out.reshape(np.atleast_1d(z_in).shape)
    if real_in:
        out = out.real
    if z_in.ndim == 0:
        return out[()].item()
    return out


def bessel_n(nu, x):
    """N_nu(x) on the positive real axis, nonnegative real order.

    For real x > 0 AMOS's ZBESY makes two Hankel calls and returns
    (H1 - H2)/2i, which is Im H1_nu(x) (Amos, ACM TOMS 644), so one
    hankel1 call gives the value of yv bit for bit.  Points where that
    value is not finite go to yv alone: there N overflows toward the
    origin (yv gives -inf, so Overflow is raised), or x > 2^51, where the
    Hankel call gives NaN and yv a finite non-AMOS fallback.
    """
    nu = _check_order(nu)
    x_in = np.asarray(x, dtype=float)
    _check_finite("N_nu argument x", x_in)
    if np.any(x_in <= 0.0):
        raise NonPositiveArgument("N_nu needs x > 0")
    xs = np.atleast_1d(x_in)
    out = np.ascontiguousarray(hankel1(nu, xs).imag)
    bad = ~np.isfinite(out)
    if np.any(bad):
        out[bad] = yv(nu, xs[bad])
        if not np.all(np.isfinite(out[bad])):
            raise Overflow("N evaluation left the double range")
    if x_in.ndim == 0:
        return float(out[0])
    return out


def wronskian_check(nu, x):
    """J_nu N'_nu - J'_nu N_nu - 2/(pi x): zero in exact arithmetic.

    Derivatives use the downward recurrence f' = f_{nu-1} - (nu/x) f_nu,
    which needs one extra order of each kind; order nu-1 may be negative,
    which jv and yv accept.
    """
    nu = _check_order(nu)
    x = float(x)
    _check_finite("wronskian_check argument x", x)
    if x <= 0.0:
        raise NonPositiveArgument("wronskian_check needs x > 0")
    j0, j1 = float(jv(nu, x)), float(jv(nu - 1.0, x))
    n0, n1 = float(yv(nu, x)), float(yv(nu - 1.0, x))
    jp = j1 - (nu / x) * j0
    npr = n1 - (nu / x) * n0
    return j0 * npr - jp * n0 - 2.0 / (math.pi * x)
