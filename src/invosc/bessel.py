"""Bessel functions of real order: J for complex argument, N (= Y) on the
positive real axis.

The radial factor of the assembled solution is J_nu(k rho / mu) with mu
complex, so J must accept complex argument; N is needed only for annular
domains where the argument stays real.  Each is one AMOS call (Amos, ACM
TOMS 644): J is complex scipy.special.jv on the principal branch of z^nu,
N is Im H1_nu(x) from scipy.special.hankel1.

Both share one domain, checked before any library call: NaN or infinite
arguments raise NonFinite, and so do not reach AMOS; off-axis
|z| > VALIDATED_COMPLEX_RADIUS and real-axis |x| > AMOS_REAL_LIMIT raise
DomainTooLarge, so the caller shrinks the grid or the time window rather
than trust an unvalidated regime.  Past 2^51 AMOS stops and scipy's
non-AMOS fallback loses the phase x mod 2 pi.  J and N are
property-tested against mpmath at 40 digits over |z| <= 30, J off the
axis over |arg z| <= pi/2.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.special import hankel1, jv

from .errors import DomainTooLarge, NonFinite, NonPositiveArgument, Overflow

__all__ = ["VALIDATED_COMPLEX_RADIUS", "AMOS_REAL_LIMIT", "bessel_j",
           "bessel_n"]

# Off-axis |z| up to which complex jv is property-tested against mpmath.
VALIDATED_COMPLEX_RADIUS = 30.0
# Real |x| up to which AMOS evaluates: hankel1 is NaN from the next double.
AMOS_REAL_LIMIT = 2.0 ** 51


# -- public operations -----------------------------------------------------------

def _check_order(nu):
    nu = float(nu)
    if not math.isfinite(nu) or nu < 0.0:
        raise ValueError(f"order must be finite and nonnegative, got {nu}")
    return nu


def _check_domain(name, z):
    """Refuse NaN or infinite z (NonFinite), then off-axis
    |z| > VALIDATED_COMPLEX_RADIUS and real |x| > AMOS_REAL_LIMIT
    (DomainTooLarge)."""
    finite = np.isfinite(z)
    if not np.all(finite):
        raise NonFinite(f"{name} must be finite, got {z[~finite].flat[0]}")
    mag = np.abs(z)
    off_axis = np.imag(z) != 0.0
    too_big = off_axis & (mag > VALIDATED_COMPLEX_RADIUS)
    if np.any(too_big):
        raise DomainTooLarge(
            f"|z| = {float(np.max(mag[too_big])):.4g} exceeds the validated "
            f"complex radius {VALIDATED_COMPLEX_RADIUS:g}")
    too_big = ~off_axis & (mag > AMOS_REAL_LIMIT)
    if np.any(too_big):
        raise DomainTooLarge(
            f"|x| = {float(np.max(mag[too_big])):.17g} exceeds 2^51, where "
            "AMOS's real range ends")


def bessel_j(nu, z):
    """J_nu(z) for nonnegative real order and scalar/array argument.

    One complex jv call on the whole argument.  Real nonnegative input
    comes back as float64 (the real part, which is real jv bit for bit),
    anything else as complex128 on the principal branch of z^nu, with the
    imaginary part +0.0 on the nonnegative real axis, where AMOS may leave
    about 1e-17.  Arguments outside the domain (see _check_domain) raise
    before the call.
    """
    nu = _check_order(nu)
    z_in = np.asarray(z)
    _check_domain("J_nu argument z", z_in)
    zc = np.atleast_1d(z_in).astype(complex)
    out = jv(nu, zc)
    if not np.all(np.isfinite(out)):
        raise Overflow("J evaluation left the double range")
    if not np.iscomplexobj(z_in) and (z_in.size == 0
                                      or bool(np.all(z_in >= 0))):
        out = out.real
    else:
        out.imag[(zc.imag == 0.0) & (zc.real >= 0.0)] = 0.0
    if z_in.ndim == 0:
        return out.item()
    return out


def bessel_n(nu, x):
    """N_nu(x) on the positive real axis, nonnegative real order.

    For real x > 0 AMOS's ZBESY makes two Hankel calls and returns
    (H1 - H2)/2i, which is Im H1_nu(x) (Amos, ACM TOMS 644), so one
    hankel1 call gives the value of yv bit for bit.  Inside the domain
    that value is not finite exactly where N overflows toward the origin,
    which raises Overflow.
    """
    nu = _check_order(nu)
    x_in = np.asarray(x, dtype=float)
    _check_domain("N_nu argument x", x_in)
    if np.any(x_in <= 0.0):
        raise NonPositiveArgument("N_nu needs x > 0")
    out = hankel1(nu, np.atleast_1d(x_in)).imag
    if not np.all(np.isfinite(out)):
        raise Overflow("N evaluation left the double range")
    if x_in.ndim == 0:
        return out.item()
    return out

