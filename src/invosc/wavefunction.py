"""Assembly of the closed-form field and its discretized PDE residual.

The field under test is separable in a rotating frame:

    Psi(x, y, t) = [A J_nu(k rho / mu) + B N_nu(k rho / mu)]
                   * exp[s h alpha rho^2 + i (sign) n theta - i f]

with rho^2 = x^2 + y^2, theta the rotated-frame angle built from beta(t),
and (alpha, mu, f, beta) a TransformTrajectory from the ode module.  The
exponent carries two free readings (overall sign s and the factor h in
{1, 1/2}) plus the branch of alpha0; none of the three is fixed a priori,
so they live in ConventionFlags and are resolved by convention_scan,
which measures the Schrodinger residual of every combination and keeps
the argmin.

Since theta = pi/2 - phi + beta(t) with phi = atan2(y, x) the lab angle,
and n is an integer, the field factors exactly into three parts:

    Psi = [A J_nu + B N_nu](k rho / mu) e^{s h alpha rho^2}   (rho only)
          * e^{i sign n (pi/2 + beta) - i f}                   (one scalar per t)
          * e^{-i sign n phi}                                  (fixed per node)

e^{i n theta} is 2 pi periodic in theta, so where atan2 puts its branch
cut never matters.  GridGeometry holds the parts fixed per node, built
once per grid; assemble_psi evaluates the rest on the distinct radii.

The residual check discretizes

    R = i Psi_t - [ -(1/2m) lap Psi + i r (y Psi_x - x Psi_y)
                    + (m/2) W^2 rho^2 Psi + (C / m rho^2) Psi ]

with r = q B / (4 m) and W^2 = omega^2 + q^2 B^2 / (4 m^2), using
4th-order central stencils in space and a 2nd-order one in time, over a
ladder of time steps on one grid, so the convergence order is measured
rather than assumed.
"""

from __future__ import annotations

import cmath
import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from . import artifacts
from .bessel import bessel_j, bessel_n
from .errors import (FallToCenter, GridTooCoarse, NonFinite,
                     NonPositiveArgument, OriginUndefined, OutOfDomain,
                     ZeroNorm)
from .params import CoefficientSet, coefficient_terms, within_span

__all__ = [
    "ConventionFlags", "ModeSpec", "CartesianGrid", "PolarGrid", "WaveField",
    "LadderRung", "ResidualReport", "ScanRow", "ScanOutcome",
    "order_from_coupling", "theta_from_xy", "assemble_psi", "sample_field",
    "schrodinger_residual", "convention_scan", "sector_winding",
    "GridGeometry",
]


# -- conventions and mode -------------------------------------------------------

@dataclass(frozen=True)
class ConventionFlags:
    """One reading of the assembled exponent and the alpha branch.

    exponent_sign   s in {+1, -1}: overall sign of alpha in the envelope.
    exponent_half   h in {1, 1/2}: the factor on alpha rho^2.
    alpha_branch    +1 or -1: sign of the default alpha0 the chain starts from.

    The source text writes the envelope once as exp[alpha rho^2] and once
    as multiplication by exp[-alpha rho^2 / 2]; rather than pick a side,
    all eight combinations are enumerable and the scan measures them.
    The default is the naive reading: exp[+alpha rho^2], branch +.
    """

    exponent_sign: int = +1
    exponent_half: float = 1.0
    alpha_branch: int = +1

    def __post_init__(self):
        if self.exponent_sign not in (+1, -1):
            raise ValueError("exponent_sign must be +1 or -1")
        if self.exponent_half not in (1.0, 0.5):
            raise ValueError("exponent_half must be 1 or 1/2")
        if self.alpha_branch not in (+1, -1):
            raise ValueError("alpha_branch must be +1 or -1")

    @classmethod
    def all_combinations(cls):
        """All eight flag sets, in a fixed documented order.

        Sign varies slowest, then half, then branch; scan tables and the
        tie-break rule both rely on this order being stable.
        """
        combos = []
        for s in (+1, -1):
            for h in (1.0, 0.5):
                for b in (+1, -1):
                    combos.append(cls(s, h, b))
        return tuple(combos)

    def label(self):
        h = "1" if self.exponent_half == 1.0 else "1/2"
        return (f"s={'+' if self.exponent_sign > 0 else '-'}1,"
                f"h={h},branch={'+' if self.alpha_branch > 0 else '-'}")

    @classmethod
    def from_label(cls, text):
        """The flag set whose label() is ``text``, spaces ignored."""
        key = "".join(text.split())
        for flags in cls.all_combinations():
            if flags.label() == key:
                return flags
        raise ValueError(f"{text!r} is not a flags label such as "
                         "s=-1,h=1/2,branch=+")


def order_from_coupling(C, n):
    """Radial order nu = sqrt(2 C + n^2) for coupling C and angular number n.

    Supercritical attraction (2C + n^2 < 0) has no regular solution, so
    construction is rejected rather than returning an imaginary order.
    """
    C = float(C)
    n = int(n)
    disc = 2.0 * C + n * n
    if disc < 0.0:
        raise FallToCenter(
            f"2C + n^2 = {disc:g} < 0: supercritical attraction, "
            "no regular radial solution")
    return math.sqrt(disc)


@dataclass(frozen=True)
class ModeSpec:
    """One separable mode: radial order, angular number, amplitudes, flags."""

    k: float
    n: int
    nu: float
    amp_first: complex = 1.0 + 0j
    amp_second: complex = 0.0 + 0j
    angular_sign: int = +1
    conventions: ConventionFlags = ConventionFlags()

    def __post_init__(self):
        if not (math.isfinite(self.k) and self.k > 0):
            raise ValueError(f"k must be a positive real, got {self.k!r}")
        if self.n != int(self.n):
            raise ValueError(f"n must be an integer, got {self.n!r}")
        if not (math.isfinite(self.nu) and self.nu >= 0):
            raise ValueError(f"nu must be finite and >= 0, got {self.nu!r}")
        if self.angular_sign not in (+1, -1):
            raise ValueError("angular_sign must be +1 or -1")
        object.__setattr__(self, "k", float(self.k))
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "nu", float(self.nu))
        object.__setattr__(self, "amp_first", complex(self.amp_first))
        object.__setattr__(self, "amp_second", complex(self.amp_second))
        if not all(map(cmath.isfinite, (self.amp_first, self.amp_second))):
            raise ValueError("amp_first and amp_second must be finite")
        if self.amp_first == 0 and self.amp_second == 0:
            raise ValueError("amp_first and amp_second are both 0, so the "
                             "field vanishes everywhere")

    @classmethod
    def from_coupling(cls, k, n, C, **kw):
        """Build with nu derived from the coupling, the usual entry point."""
        return cls(k=k, n=n, nu=order_from_coupling(C, n), **kw)

    def describe(self):
        return (f"k={self.k!r},n={self.n},nu={self.nu!r},"
                f"A={self.amp_first!r},B={self.amp_second!r},"
                f"sign={self.angular_sign:+d},{self.conventions.label()}")


def sector_winding(mode: ModeSpec):
    """Lab-frame winding number of the assembled field.

    theta = pi/2 - phi + beta(t), so exp[i sign n theta] carries
    exp[-i sign n phi] in the lab: the fixed angular sector the radial
    oracle propagates is w = -sign * n.
    """
    return -mode.angular_sign * mode.n


# -- geometry -------------------------------------------------------------------

def theta_from_xy(x, y, beta):
    """Rotated-frame angle: atan2(cos b x + sin b y, -sin b x + cos b y).

    The first rotated coordinate sits in the numerator of the defining
    tangent, so theta runs from the +y axis at beta = 0.  Undefined at
    the origin.  Assembly never forms theta (it uses the lab angle, see
    GridGeometry); this is the definition the checks compare against.
    """
    xa = np.asarray(x, dtype=float)
    ya = np.asarray(y, dtype=float)
    if np.any((xa == 0.0) & (ya == 0.0)):
        raise OriginUndefined("theta has no limit at (x, y) = (0, 0)")
    b = float(beta)
    cb, sb = math.cos(b), math.sin(b)
    out = np.arctan2(cb * xa + sb * ya, -sb * xa + cb * ya)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class CartesianGrid:
    """Uniform square grid on [-L, L]^2, L = half_width, with n nodes per
    axis; axis 0 runs along x, axis 1 along y.  Even n keeps the origin
    off-node.

    rho_min > 0 marks an excluded disk around the origin: field values
    are still sampled there (the field itself is regular), but residual
    statistics skip it because the 1/rho^2 potential term is not.
    """

    half_width: float
    n: int
    rho_min: float = 0.0

    def __post_init__(self):
        # the spacing is 2 L / (n - 1), so 2 L must be a finite float
        if not (self.half_width > 0 and math.isfinite(2.0 * self.half_width)):
            raise ValueError(f"half_width must be positive with 2 * "
                             f"half_width finite, got {self.half_width!r}")
        if self.n < 8:
            raise ValueError("grid needs at least 8 points per axis")
        if self.rho_min < 0:
            raise ValueError("rho_min must be >= 0")

    @property
    def shape(self):
        return (self.n, self.n)

    def spacing(self):
        h = 2.0 * self.half_width / (self.n - 1)
        return (h, h)

    def axes(self):
        xs = np.linspace(-self.half_width, self.half_width, self.n)
        return (xs, xs)

    def xy_mesh(self):
        xs, ys = self.axes()
        return np.meshgrid(xs, ys, indexing="ij")

    def outer_radius(self):
        return math.hypot(self.half_width, self.half_width)

    def active_mask(self, floor):
        """Residual points: 2 nodes inside every edge, at rho >= floor."""
        mask = np.zeros(self.shape, dtype=bool)
        mask[2:-2, 2:-2] = True
        if floor > 0.0:
            X, Y = self.xy_mesh()
            mask &= np.hypot(X, Y) >= floor
        return mask

    def describe(self):
        L = self.half_width
        return (f"cartesian {self.n}x{self.n} [{-L:g},{L:g}]x[{-L:g},{L:g}] "
                f"rho_min={self.rho_min:g}")


@dataclass(frozen=True)
class PolarGrid:
    """Uniform (rho, phi) grid; axis 0 along rho, axis 1 along phi.

    phi covers [0, 2 pi) without the duplicate endpoint, so angular
    stencils wrap periodically.  rho_min = 0 makes it a disk grid (the
    rho = 0 ring is then a single degenerate circle of grid points,
    acceptable for sampling, excluded from residual statistics).
    """

    rho_min: float
    rho_max: float
    n_rho: int
    n_phi: int

    def __post_init__(self):
        if not (0.0 <= self.rho_min < self.rho_max):
            raise ValueError("need 0 <= rho_min < rho_max")
        if self.n_rho < 8 or self.n_phi < 8:
            raise ValueError("grid needs at least 8 points per axis")

    @property
    def shape(self):
        return (self.n_rho, self.n_phi)

    def spacing(self):
        return ((self.rho_max - self.rho_min) / (self.n_rho - 1),
                2.0 * math.pi / self.n_phi)

    def axes(self):
        return (np.linspace(self.rho_min, self.rho_max, self.n_rho),
                np.linspace(0.0, 2.0 * math.pi, self.n_phi, endpoint=False))

    def xy_mesh(self):
        # trig of the n_phi angles only: the same bits as over the mesh
        rho, phi = self.axes()
        return np.outer(rho, np.cos(phi)), np.outer(rho, np.sin(phi))

    def outer_radius(self):
        return self.rho_max

    def active_mask(self, floor):
        """Residual points: 2 rings inside either edge, at rho >= floor
        and off the axis."""
        rho, _ = self.axes()
        mask = np.zeros(self.shape, dtype=bool)
        mask[2:-2, :] = True
        if floor > 0.0:
            mask &= (rho >= floor)[:, None]
        else:
            mask &= (rho > 0.0)[:, None]
        return mask

    def describe(self):
        return (f"polar {self.n_rho}x{self.n_phi} "
                f"rho=[{self.rho_min:g},{self.rho_max:g}]")


# -- assembly -------------------------------------------------------------------

@dataclass(eq=False)
class GridGeometry:
    """The time-independent part of assembly on one set of nodes.

    From the node coordinates x, y (broadcast together) and the winding
    w = sector_winding(mode) it derives:

    radii, inverse  the distinct radii of the nodes off the origin and the
                    index that gathers them back onto those nodes
    origin          mask of the nodes at rho = 0, None when there are none
    phase           e^{i w phi} on the nodes off the origin, phi = atan2(y, x)
    radial          empty at first; assemble_psi stores here each radial
                    factor A J_nu + B N_nu it evaluates on ``radii``, keyed
                    by everything the factor depends on, (nu, k, amp_first,
                    amp_second, mu), so no entry ever goes stale

    It serves assembly only: the residual's mask of active nodes is the
    grid's (see schrodinger_residual).  Build one per grid, from
    ``GridGeometry(*grid.xy_mesh(), winding)``, and pass it to
    assemble_psi at every time; it is what lets a call skip every
    per-node hypot, unique, atan2 and exp, and every Bessel evaluation at
    a (mode, mu) it has seen: the eight readings of a scan share the
    factor of each (branch, t).  The rungs of a residual ladder need no
    memo for that: they share Psi(t) and H Psi(t) themselves.
    """

    x: np.ndarray
    y: np.ndarray
    winding: int

    def __post_init__(self):
        self.x, self.y = np.broadcast_arrays(np.asarray(self.x, dtype=float),
                                             np.asarray(self.y, dtype=float))
        self.winding = int(self.winding)
        xf, yf = self.x.ravel(), self.y.ravel()
        rho = np.hypot(xf, yf)
        self.origin = rho == 0.0
        if np.any(self.origin):
            body = ~self.origin
            xf, yf, rho = xf[body], yf[body], rho[body]
        else:
            self.origin = None
        self.radii, self.inverse = np.unique(rho, return_inverse=True)
        self.phase = np.exp(1j * (self.winding * np.arctan2(yf, xf)))
        self.radial = {}

    @property
    def shape(self):
        return self.x.shape


# numpy's overflow and invalid warnings are off: the finiteness check at
# the end names an overflowing field itself
@np.errstate(over="ignore", invalid="ignore")
def assemble_psi(mode: ModeSpec, traj, x, y, t, geometry=None):
    """Evaluate the assembled field at scalar time t.

    x and y broadcast; the return matches their broadcast shape (scalar
    in, scalar out).  Points at the exact origin follow the regularity
    of the mode: nu = 0 with n = 0 has the finite limit A e^{-i f}, every
    nu > 0 vanishes like rho^nu, and nu = 0 with n != 0, which turns as
    e^{-i sign n phi}, has no limit and raises, as a second-kind part does.

    The field is the product of three factors (see the module
    docstring): the radial factor with its envelope, which depends on
    rho alone and is evaluated once per distinct radius; one scalar
    phase e^{i sign n (pi/2 + beta) - i f} per time, folded into it;
    and e^{-i sign n phi} per node, which ``geometry`` holds.  Because
    n is an integer the atan2 branch cut of phi drops out.  Pass a
    GridGeometry built from the same x, y and sector_winding(mode) to
    reuse it across times, and its memo of radial factors across calls
    at the same mu; without one, a one-off geometry is built.
    A geometry of another shape or winding raises ValueError.
    """
    winding = sector_winding(mode)
    if geometry is None:
        geometry = GridGeometry(x, y, winding)
    elif geometry.shape != np.broadcast_shapes(np.shape(x), np.shape(y)):
        raise ValueError(f"geometry of shape {geometry.shape} does not "
                         "match the shape of x, y")
    if geometry.winding != winding:
        raise ValueError(f"geometry has winding {geometry.winding}, the "
                         f"mode {winding}")
    t = float(t)
    beta = float(traj.beta(t))
    alpha = complex(traj.alpha(t))
    mu = complex(traj.mu(t))
    f = complex(traj.phase(t))
    flags = mode.conventions
    sh = flags.exponent_sign * flags.exponent_half

    origin_value = 0.0
    if geometry.origin is not None:
        if mode.amp_second != 0:
            raise OriginUndefined("second-kind radial part diverges at rho = 0")
        if mode.nu == 0.0 and mode.n == 0:
            origin_value = mode.amp_first * np.exp(-1j * f)
        elif mode.nu == 0.0:
            raise OriginUndefined(
                f"no limit at rho = 0 for nu = 0, n = {mode.n}")

    ru = geometry.radii
    key = (mode.nu, mode.k, mode.amp_first, mode.amp_second, mu)
    radial = geometry.radial.get(key)
    if radial is None:
        radial = mode.amp_first * np.asarray(
            bessel_j(mode.nu, (mode.k / mu) * ru), dtype=complex)
        if mode.amp_second != 0:
            # second kind is real-axis only; a complex scale factor mu
            # would push its argument off the axis, which is an error,
            # not something to silently project back
            if abs(mu.imag) > 1e-13 * abs(mu):
                raise NonPositiveArgument(
                    "N_nu needs a real argument but mu(t) = "
                    f"{mu:.6g} makes k rho / mu complex")
            radial = radial + mode.amp_second * np.asarray(
                bessel_n(mode.nu, ru * (mode.k / mu.real)), dtype=complex)
        geometry.radial[key] = radial
    sign_n = mode.angular_sign * mode.n
    scalar = 1j * (sign_n * (0.5 * math.pi + beta)) - 1j * f
    # not `*=`: numpy rounds an in-place complex product of one element
    # without the FMA its longer loops use, and a scalar call must give
    # the same bits as that node of a grid; above 256 KiB numpy reuses
    # the temporary from take, so large grids are multiplied in place
    body = np.take(radial * np.exp((sh * alpha) * ru * ru + scalar),
                   geometry.inverse) * geometry.phase

    if geometry.origin is None:
        out = body
    else:
        out = np.empty(geometry.origin.shape, dtype=complex)
        out[geometry.origin] = origin_value
        out[~geometry.origin] = body
    if not np.all(np.isfinite(out.view(float))):
        raise NonFinite("assembled field is not finite everywhere; "
                        "check the envelope sign and the grid extent")
    if not geometry.shape:
        return complex(out[0])
    return out.reshape(geometry.shape)


@dataclass(frozen=True)
class WaveField:
    """Sampled field of one mode on a grid at a tuple of times."""

    grid: object
    times: tuple
    values: np.ndarray          # shape (len(times), *grid.shape)
    mode: ModeSpec

    def __post_init__(self):
        if self.values.shape != (len(self.times), *self.grid.shape):
            raise ValueError("values shape does not match (times, grid)")
        if not np.all(np.isfinite(self.values.view(float))):
            raise NonFinite("field values must be finite")

    def write_csv(self, path, digest):
        """One row x,y,t,re_psi,im_psi,abs2 per node and time."""
        with artifacts.Table(path, digest, [f"mode: {self.mode.describe()}",
                                            f"grid: {self.grid.describe()}"],
                             lead=self.grid.xy_mesh()) as table:
            table.lines("x,y,t,re_psi,im_psi,abs2")
            for t, v in zip(self.times, map(np.ravel, self.values)):
                table.rows(t, v.real, v.imag,
                           lambda p: v[p].real ** 2 + v[p].imag ** 2)


def sample_field(mode: ModeSpec, traj, grid, times):
    """Assemble the field on a grid at each time and bundle it."""
    geometry = GridGeometry(*grid.xy_mesh(), sector_winding(mode))
    times = tuple(float(t) for t in times)
    values = np.empty((len(times), *grid.shape), dtype=complex)
    for i, t in enumerate(times):
        values[i] = assemble_psi(mode, traj, geometry.x, geometry.y, t,
                                 geometry=geometry)
    return WaveField(grid=grid, times=times, values=values, mode=mode)


# -- finite-difference residual -------------------------------------------------

def _folded_weights(c2, c1, h):
    """4th-order 5-point weights of c2 d^2/du^2 + c1 d/du, spacing h.

    Returns (centre, (w(+2), w(+1), w(-1), w(-2))), w(k) being the weight
    of the node k steps ahead.  c2 and c1 may be arrays that broadcast
    against the nodes, so a weight can vary along the other axis, or
    along this one (then the caller slices it to the nodes it reaches).
    """
    a2 = c2 / (12.0 * h * h)
    a1 = c1 / (12.0 * h)
    return -30.0 * a2, (-a2 - a1, 16.0 * a2 + 8.0 * a1,
                        16.0 * a2 - 8.0 * a1, a1 - a2)


def _add_stencil(out, values, weights, axis, periodic):
    """out += the off-centre part of a 5-point stencil along one axis.

    ``weights`` are the four off-centre weights of _folded_weights.  A
    periodic axis is padded once with two wrapped nodes at each end, so
    the stencil covers every node; a bounded axis gets it on its interior
    only and leaves the two nodes at either edge of ``out`` untouched.
    Each term is one product into a scratch array and one in-place add;
    the shifted arrays it reads are views.
    """
    pad = [(0, 0)] * values.ndim
    pad[axis] = (2, 2)
    src = np.pad(values, pad, mode="wrap") if periodic else values
    n = values.shape[axis] if periodic else values.shape[axis] - 4
    s = [slice(None)] * values.ndim
    if not periodic:
        s[axis] = slice(2, -2)
    dest = out[tuple(s)]
    term = np.empty(dest.shape, dtype=complex)
    for off, w in zip((2, 1, -1, -2), weights):
        s[axis] = slice(2 + off, 2 + off + n)
        dest += np.multiply(w, src[tuple(s)], out=term)


def _apply_hamiltonian(values, grid, coeffs: CoefficientSet, t):
    """H Psi on the grid (garbage within 2 nodes of non-periodic edges).

    H = -(1/2m) lap + i r (y d_x - x d_y) + (m/2) W^2 rho^2 + C/(m rho^2)
    with r and W^2 from the params module, so every consumer of the
    operator agrees on the cross-term normalization.

    Each axis is one 4th-order 5-point stencil whose weights fold in
    everything that multiplies a derivative along it: on a polar grid
    -(1/2m)(d_rr + d_r / rho) along rho and -(1/2m) d_pp / rho^2 - i r d_p
    along phi (y d_x - x d_y = -d_phi), weights per row; on a Cartesian
    grid -(1/2m) d_xx + i r y d_x and -(1/2m) d_yy - i r x d_y, weights
    per column and per row.  The centre weights of both axes join the
    potential, so H Psi is one centre product plus four shifted
    multiply-adds per axis.
    """
    m, W2, rate = coefficient_terms(coeffs, t)
    C = coeffs.coupling
    kinetic = -0.5 / m

    if isinstance(grid, PolarGrid):
        drho, dphi = grid.spacing()
        rho, _ = grid.axes()
        r_col = rho[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r = np.where(r_col > 0.0, 1.0 / r_col, 0.0)
        inv_r2 = inv_r * inv_r
        c_rho, w_rho = _folded_weights(kinetic, kinetic * inv_r, drho)
        w_rho = tuple(w[2:-2] for w in w_rho)
        c_phi, w_phi = _folded_weights(kinetic * inv_r2, -1j * rate, dphi)
        pot = 0.5 * m * W2 * (r_col * r_col)
        if C != 0.0:
            pot = pot + (C / m) * inv_r2
        out = (pot + c_rho + c_phi) * values
        _add_stencil(out, values, w_rho, 0, periodic=False)
        _add_stencil(out, values, w_phi, 1, periodic=True)
    else:
        hx, hy = grid.spacing()
        xs, ys = grid.axes()
        x_col, y_row = xs[:, None], ys[None, :]
        c_x, w_x = _folded_weights(kinetic, (1j * rate) * y_row, hx)
        c_y, w_y = _folded_weights(kinetic, (-1j * rate) * x_col, hy)
        rho2 = x_col * x_col + y_row * y_row
        pot = 0.5 * m * W2 * rho2
        if C != 0.0:
            with np.errstate(divide="ignore"):
                pot = pot + (C / m) * np.where(rho2 > 0.0, 1.0 / rho2, 0.0)
        out = (pot + (c_x + c_y)) * values
        _add_stencil(out, values, w_x, 0, periodic=False)
        _add_stencil(out, values, w_y, 1, periodic=False)
    return out


@dataclass(frozen=True)
class LadderRung:
    """One rung of the residual ladder: one time step on the grid."""

    step: float          # time step of the 2nd-order d/dt stencil
    spacing: float       # spatial grid spacing (first axis)
    rel_inf: float
    rel_l2: float


@dataclass(frozen=True)
class ResidualReport:
    """Ladder of relative residuals plus the measured convergence order."""

    rungs: tuple
    order: float | None
    grid_desc: str
    rho_min: float
    per_time: tuple = ()        # finest rung: (t, rel_inf, rel_l2, Hinf, Hl2)

    @property
    def rel_inf(self):
        return self.rungs[-1].rel_inf

    @property
    def rel_l2(self):
        return self.rungs[-1].rel_l2

    def summary_line(self):
        order = "none" if self.order is None else f"{self.order:.4f}"
        return (f"rel_inf:{self.rel_inf:.8e};rel_l2:{self.rel_l2:.8e};"
                f"order:{order};levels:{len(self.rungs)};"
                f"refinement:temporal;grid:{self.grid_desc};"
                f"rho_min:{self.rho_min:.8g}")

    def write_csv(self, path, digest):
        with artifacts.Table(path, digest, [self.summary_line()]) as table:
            table.lines("level,dt,spacing,rel_inf,rel_l2")
            table.rows(range(len(self.rungs)),
                       *zip(*map(dataclasses.astuple, self.rungs)))
            if self.per_time:
                table.lines("time,rel_inf,rel_l2,hnorm_inf,hnorm_l2")
                table.rows(*zip(*self.per_time))


def _residual_floor(grid, coeffs):
    """Radius below which no residual point counts.

    The 1/rho^2 term forbids residual points near the origin; an
    explicit grid exclusion wins, otherwise 5% of the outer radius.
    """
    if grid.rho_min > 0.0 or coeffs.coupling == 0.0:
        return grid.rho_min
    return 0.05 * grid.outer_radius()


def schrodinger_residual(mode, traj, coeffs: CoefficientSet, grid, times,
                         steps, psi=None, geometry=None):
    """Measure the discretized PDE residual over a ladder of time steps.

    The ladder keeps ``grid`` fixed and walks ``steps``, a decreasing
    sequence of time steps of the 2nd-order d/dt stencil; each rung is
    one step.  ``psi(x_mesh, y_mesh, t)``
    overrides the assembled field, which keeps the operator testable
    against known exact solutions; otherwise ``mode`` and ``traj`` drive
    assemble_psi.  ``geometry`` supplies the GridGeometry of ``grid``'s
    nodes, so repeated calls on one grid (convention_scan) share it; a
    psi callable needs none.  The residual owns its mask of active
    nodes: grid.active_mask at the floor of _residual_floor, derived on
    every call.  Psi(t) and H Psi(t) do not depend on the step, so each
    residual time assembles Psi(t) and applies the operator once, and
    every rung shares H Psi and its norms; a rung adds only Psi(t - dt)
    and Psi(t + dt).  The report's per-time rows are the finest rung's.

    The finite-difference operator always acts on the assembled 2D
    field, never on its factors, so the residual stays independent
    evidence for the separable assembly.

    The report's ``order`` is None unless the ladder has two or more
    rungs and its rel_inf decreases strictly; judging that is the
    caller's.  Raises GridTooCoarse only when no residual point is
    active, where nothing was measured.
    """
    times = tuple(float(t) for t in times)
    steps = tuple(float(s) for s in steps)
    if not steps or any(s <= 0 for s in steps):
        raise ValueError("steps must be one or more positive time steps")
    if psi is None and (mode is None or traj is None):
        raise ValueError("need mode and traj when no psi callable is given")

    if geometry is not None and geometry.shape != grid.shape:
        raise ValueError(f"geometry of shape {geometry.shape} does not "
                         f"match the residual grid {grid.shape}")
    if traj is not None:
        lo, hi = min(times) - max(steps), max(times) + max(steps)
        if not within_span((lo, hi), traj.span):
            raise OutOfDomain(
                f"residual stencil needs t in [{lo:g}, {hi:g}], "
                f"outside the trajectory span {traj.span}")
    rho_floor = _residual_floor(grid, coeffs)
    mask = grid.active_mask(rho_floor)
    if not np.any(mask):
        raise GridTooCoarse("no active residual points inside the grid")
    if psi is None:
        if geometry is None:
            geometry = GridGeometry(*grid.xy_mesh(), sector_winding(mode))
        def psi_at(t):
            return assemble_psi(mode, traj, geometry.x, geometry.y, t,
                                geometry=geometry)
    else:
        X, Y = grid.xy_mesh()
        def psi_at(t):
            return np.asarray(psi(X, Y, t), dtype=complex)

    per_time = []
    num_r2 = [0.0] * len(steps)
    worst_inf = [0.0] * len(steps)
    num_h2 = 0.0
    worst_h = 0.0
    for t in times:
        h_mid = _apply_hamiltonian(psi_at(t), grid, coeffs, t)
        h = np.abs(h_mid[mask])
        h_inf = float(np.max(h))
        h_l2 = float(np.sqrt(np.sum(h * h)))
        if h_inf == 0.0:
            raise ZeroNorm("H Psi vanishes on the active region; "
                           "the relative residual is undefined")
        worst_h = max(worst_h, h_inf)
        num_h2 += h_l2 * h_l2
        for i, dt in enumerate(steps):
            dpsi_dt = (psi_at(t + dt) - psi_at(t - dt)) / (2.0 * dt)
            r = np.abs((1j * dpsi_dt - h_mid)[mask])
            r_inf = float(np.max(r))
            r_l2 = float(np.sqrt(np.sum(r * r)))
            worst_inf[i] = max(worst_inf[i], r_inf)
            num_r2[i] += r_l2 * r_l2
        # r_inf and r_l2 are left from the last, finest rung
        per_time.append((t, r_inf / h_inf, r_l2 / h_l2, h_inf, h_l2))

    spacing = grid.spacing()[0]
    rungs = tuple(LadderRung(dt, spacing, w / worst_h, math.sqrt(n2 / num_h2))
                  for dt, w, n2 in zip(steps, worst_inf, num_r2))
    pairs = tuple(zip(rungs, rungs[1:]))
    order = None
    if pairs and all(r1.rel_inf < r0.rel_inf for r0, r1 in pairs):
        order = float(np.mean([math.log(r0.rel_inf / r1.rel_inf)
                               / math.log(r0.step / r1.step)
                               for r0, r1 in pairs]))
    return ResidualReport(rungs, order, grid.describe(), rho_floor,
                          tuple(per_time))


# -- convention scan --------------------------------------------------------------

@dataclass(frozen=True)
class ScanRow:
    flags: ConventionFlags
    rel_inf: float
    rel_l2: float
    envelope_decays: bool


@dataclass(frozen=True)
class ScanOutcome:
    """Result of the 8-way convention scan: winner, runner-up and the full
    table."""

    winner: ConventionFlags
    runner_up: ConventionFlags
    rows: tuple
    margin: float               # runner-up residual / winner residual

    @classmethod
    def ranked(cls, rows):
        """Rank a scan table by rel_inf: the least wins, ties going to the
        earlier row; ``rows`` keep their order."""
        best, second = sorted(rows, key=lambda row: row.rel_inf)[:2]
        margin = second.rel_inf / best.rel_inf if best.rel_inf > 0 else math.inf
        return cls(winner=best.flags, runner_up=second.flags, rows=tuple(rows),
                   margin=margin)

    def write_csv(self, path, digest):
        comment = f"winner: {self.winner.label()} margin: {self.margin:.17g}"
        with artifacts.Table(path, digest, [comment]) as table:
            table.lines("exponent_sign,exponent_half,alpha_branch,"
                        "rel_inf,rel_l2,envelope_decays,winner")
            table.rows(*zip(*(
                (f"{r.flags.exponent_sign:+d}", r.flags.exponent_half,
                 f"{r.flags.alpha_branch:+d}", r.rel_inf, r.rel_l2,
                 int(r.envelope_decays), int(r.flags == self.winner))
                for r in self.rows)))


def convention_scan(mode_template: ModeSpec, trajs, coeffs, grid, times,
                    step):
    """Measure the residual of all 8 flag readings and keep the argmin.

    ``trajs`` maps each alpha branch, +1 and -1, to the chain solved with
    alpha0 on that branch, which the four flag sets riding on it share;
    ``step`` is the residual's one time step.  The flags leave the
    winding alone, so one GridGeometry of ``grid`` serves all eight
    residuals.  Ties break toward the enumeration order of
    ConventionFlags.all_combinations().
    The ranked table comes back tied or not: its ``margin`` says how
    far the winner stands from the runner-up, and the caller decides
    whether that is decisive.
    """
    times = tuple(float(t) for t in times)
    geometry = GridGeometry(*grid.xy_mesh(), sector_winding(mode_template))
    rows = []
    for flags in ConventionFlags.all_combinations():
        traj = trajs[flags.alpha_branch]
        mode = dataclasses.replace(mode_template, conventions=flags)
        report = schrodinger_residual(mode, traj, coeffs, grid, times,
                                      steps=(step,), geometry=geometry)
        sh = flags.exponent_sign * flags.exponent_half
        decays = all((sh * complex(traj.alpha(t))).real < 0.0 for t in times)
        rows.append(ScanRow(flags, report.rel_inf, report.rel_l2, decays))
    return ScanOutcome.ranked(rows)
