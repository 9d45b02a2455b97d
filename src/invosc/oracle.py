"""Independent radial propagation for cross-checking the assembled field.

A single angular sector exp(i n phi) reduces the planar equation to a
radial one:

    i u_t = -(1/2m) [u_rr + u_r / rho - n^2 u / rho^2]
            + [(m/2) W^2 rho^2 + C/(m rho^2) + r n] u

with W^2 = omega^2 + q^2 B^2/(4 m^2) and r = q B/(4 m).  The sector shift
r n comes from the cross term r i (y d_x - x d_y): since
y d_x - x d_y = -d_phi, i (y d_x - x d_y) exp(i n phi) = n exp(i n phi),
so the shift is +r n.  A finite-difference fit of the 2D operator in the
tests pins this sign.

With nu = sqrt(n^2 + 2C) the oracle carries w = u / rho^nu, which is
smooth and even at the axis for every nu >= 0, and the 1/rho^2 term
drops out exactly:

    i w_t = -(1/2m) rho^-(2nu+1) (rho^(2nu+1) w_r)_r
            + [(m/2) W^2 rho^2 + r n] w

on the cell centres of one radial layout for every sector (see
RadialProblem and _kinetic_stencil).  Propagation is Crank-Nicolson on
this flux form, exactly unitary in the weighted inner product up to
roundoff.  H(t) = K/m(t) + a(t) rho^2 + s(t) is symmetric in the cell
measures M, so both paths carry y = M^{1/2} w under the real symmetric
tridiagonal S = M^{1/2} H M^{-1/2}, and |y| is the weighted norm of u.
Changing coefficients take one LAPACK zgtsv solve per step; constant
ones give the recorded states in closed form from one
eigendecomposition of S (see propagate).  Both routines come from
scipy.linalg.lapack, which each path imports when it runs, so importing
this module (and every command but oracle) loads no scipy.linalg of its
own.  scipy.special, which the Bessel layer imports, still loads it on
scipy releases older than scipy's gh-23420 change.

This module deliberately shares nothing with the assembly path except the
coefficient definitions in params: agreement between the two routes is
evidence, not construction.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .errors import (FallToCenter, MismatchedGrids, NonFinite, OutOfDomain,
                     Unstable)
from .params import CoefficientSet, coefficient_terms, within_span

__all__ = ["RadialProblem", "PropagationResult", "effective_potential",
           "propagate", "fidelity"]


# Eigenvalue per unit winding of i (y d_x - x d_y) on exp(i n phi); see
# the module docstring for the derivation.
_CROSS_TERM = 1

# Snapshot rows formatted per write, as the field writer does; the
# oracle keeps its own constant to stay independent of the assembly path.
_CSV_CHUNK_ROWS = 4096


def solve_banded(*args, **kwargs):
    """scipy.linalg.solve_banded, imported on call.

    Nothing here calls it: it exists only because bench/tracer.py wraps
    this name as its ``oracle.linsolve`` layer.  ROADMAP item 1 deletes
    it with the tracer's patch.
    """
    from scipy.linalg import solve_banded as solve
    return solve(*args, **kwargs)


def _sector_terms(coeffs: CoefficientSet, n, t):
    """(m, a, s) with a rho^2 + s the potential of w at t.

    Scalar or array t; an array of midpoints is evaluated in one pass.
    """
    m, w2, rate = coefficient_terms(coeffs, t)
    return m, 0.5 * m * w2, _CROSS_TERM * n * rate


def effective_potential(coeffs: CoefficientSet, n, rho, t):
    """Sector potential (m/2) W^2 rho^2 + (C + n^2/2)/(m rho^2) + r n.

    The shift r n = q B n/(4 m) is the eigenvalue of the cross term
    r i (y d_x - x d_y) = -i r d_phi on exp(i n phi).
    """
    n = int(n)
    rho_arr = np.asarray(rho, dtype=float)
    if np.any(rho_arr <= 0.0):
        raise OutOfDomain("effective potential needs rho > 0")
    m, a, s = _sector_terms(coeffs, n, t)
    b = (coeffs.coupling + 0.5 * n * n) / m
    out = a * rho_arr * rho_arr + b * (1.0 / (rho_arr * rho_arr)) + s
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class RadialProblem:
    """Grid and stepping description for one sector propagation.

    The unknowns sit at the cell centres rho_j = (j + 1/2) drho,
    j = 0 .. N_rho - 1, with drho = rho_max / N_rho, for every sector.
    They carry w = u / rho^nu; the first cell's inner face is the axis,
    whose zero weight needs no boundary condition, and u = 0 one cell
    beyond the last.
    """

    coeffs: CoefficientSet
    n: int
    rho_max: float
    n_rho: int
    dt: float
    span: tuple

    def __post_init__(self):
        if self.n_rho < 256:
            raise ValueError("n_rho must be at least 256")
        # written so that NaN fails both tests
        if not 0 < self.dt < math.inf:
            raise ValueError("dt must be positive and finite")
        if not 0 < self.rho_max < math.inf:
            raise ValueError("rho_max must be positive and finite")
        t0, t1 = self.span
        if not t1 > t0:
            raise ValueError("span must be increasing")
        if not (t1 - t0) / self.dt < math.inf:
            raise ValueError("dt leaves no finite step count over the span")
        if not within_span(self.span, self.coeffs.span):
            lo, hi = self.coeffs.span
            raise OutOfDomain(f"span {self.span} outside coefficients "
                              f"span ({lo}, {hi})")
        object.__setattr__(self, "n", int(self.n))
        object.__setattr__(self, "span", (float(t0), float(t1)))
        if 2.0 * self.coeffs.coupling + self.n * self.n < 0.0:
            raise FallToCenter("2C + n^2 < 0: no regular radial solution")

    @property
    def drho(self):
        return self.rho_max / self.n_rho

    @property
    def nu(self):
        """Radial order sqrt(n^2 + 2C): u goes as rho^nu at the axis."""
        return math.sqrt(2.0 * self.coeffs.coupling + self.n * self.n)

    @property
    def rho(self):
        """Cell centres (j + 1/2) drho, one per unknown."""
        return (np.arange(self.n_rho) + 0.5) * self.drho

    def weights(self):
        """Weights of the u inner product: the cell measures of w,
        rho_j^(2nu+1) drho, over rho_j^(2nu), which is rho_j drho for
        every nu and never under- or overflows."""
        return self.rho * self.drho

    def describe(self):
        return (f"radial n={self.n} N={self.n_rho} rho_max={self.rho_max:g} "
                f"dt={self.dt:g} span=({self.span[0]:g},{self.span[1]:g})")


@dataclass(frozen=True)
class PropagationResult:
    """Snapshots plus the norm bookkeeping of one propagation."""

    problem: RadialProblem
    times: tuple
    fields: np.ndarray              # (len(times), n_rho)
    norm_drift_step: float          # max relative change between checked states
    norm_drift_total: float         # end-to-start relative norm change
    fidelities: tuple | None = None  # vs. reference, when one was given

    def write_csv(self, path, digest=None):
        with open(path, "w", encoding="utf-8") as fh:
            if digest:
                fh.write(f"# config_digest: {digest}\n")
            fh.write(f"# {self.problem.describe()}\n")
            fh.write(f"# norm_drift_step:{self.norm_drift_step:.8e};"
                     f"norm_drift_total:{self.norm_drift_total:.8e}\n")
            fh.write("t,fidelity\n")
            for i, t in enumerate(self.times):
                f = (self.fidelities[i] if self.fidelities is not None
                     else float("nan"))
                fh.write(f"{t:.17g},{f:.17g}\n")

    def write_snapshots_csv(self, path, digest=None):
        """One row t,rho,re_u,im_u per unknown and snapshot, in %.17g.

        rho repeats in every snapshot, so it is formatted once: chunk by
        chunk, into one "rho," line per unknown, kept as one string per
        chunk (about 20 bytes per unknown).  Each snapshot then formats
        only re and im, and the row template takes the chunk's lines as
        a %s field.
        """
        rho = self.problem.rho
        starts = range(0, rho.size, _CSV_CHUNK_ROWS)
        prefixes = []
        for lo in starts:
            part = rho[lo:lo + _CSV_CHUNK_ROWS]
            prefixes.append(("%.17g,\n" * len(part)) % tuple(part.tolist()))
        with open(path, "w", encoding="utf-8") as fh:
            if digest:
                fh.write(f"# config_digest: {digest}\n")
            fh.write("t,rho,re_u,im_u\n")
            for i, t in enumerate(self.times):
                row = format(t, ".17g") + ",%s%.17g,%.17g\n"
                u = self.fields[i]
                for lo, prefix in zip(starts, prefixes):
                    part = u[lo:lo + _CSV_CHUNK_ROWS]
                    rows = zip(prefix.splitlines(), part.real.tolist(),
                               part.imag.tolist())
                    fh.write((row * len(part))
                             % tuple(itertools.chain.from_iterable(rows)))


def _kinetic_stencil(problem: RadialProblem):
    """Sub/diag/super of K, the kinetic part of H times m(t), on w.

    Conservative discretization of -(1/2) rho^-(2nu+1) d_rho(rho^(2nu+1)
    d_rho w): the flux through each face rho_j +- drho/2, weighted by
    the face's rho^(2nu+1), over the cell measure rho_j^(2nu+1) drho.
    Only the ratios (face/centre)^(2nu+1), of (2j + 2)/(2j + 1) and
    2j/(2j + 1), enter, so no power of rho is formed and none under- or
    overflows.  The matrix is symmetric under the cell measures, which
    is what makes the Cayley step exactly unitary in that inner
    product.  The axis face's ratio is exactly zero, so it drops out
    without a special case.
    """
    q = 2.0 * problem.nu + 1.0
    centre = 2.0 * np.arange(problem.n_rho) + 1.0
    scale = 1.0 / (2.0 * problem.drho * problem.drho)
    inner = ((centre - 1.0) / centre) ** q * scale
    outer = ((centre + 1.0) / centre) ** q * scale
    return -inner, inner + outer, -outer


def snap_times(span, dt, times=None):
    """(n_steps, step, {j: t0 + j step}): the n_steps equal steps of about
    ``dt`` that cover ``span``, and each of ``times`` (default the span's
    endpoints) snapped to the nearest step.  Raises OutOfDomain for a time
    farther than half a step from every step, NaN included."""
    t0, t1 = span
    n_steps = max(1, int(round((t1 - t0) / dt)))
    step = (t1 - t0) / n_steps
    steps = {}
    for t in (t0, t1) if times is None else map(float, times):
        # the range test fails for NaN before round() can reject it
        j = int(round((t - t0) / step)) if t0 - step <= t <= t1 + step else -1
        if j < 0 or j > n_steps or abs(t0 + j * step - t) > 0.5 * step + 1e-12:
            raise OutOfDomain(f"requested time {t:g} outside span "
                              f"[{t0}, {t1}]")
        steps.setdefault(j, t0 + j * step)
    return n_steps, step, steps


def _symmetrised_operator(problem: RadialProblem):
    """(basis, off): the parts of S = M^{1/2} H M^{-1/2}.

    H = K/m + a rho^2 + s is symmetric in the cell measures M, so S is
    real symmetric tridiagonal for every sector.  Its diagonal is that
    of H, k_diag/m + a rho^2 + s: the rows of ``basis`` (k_diag, rho^2,
    1) weighted by (1/m, a, s).  Its off-diagonal is
    -sqrt(K_{j,j+1} K_{j+1,j})/m = off/m; both off-diagonals of K are
    negative, hence the sign.
    """
    rho2 = problem.rho * problem.rho
    k_sub, k_diag, k_sup = _kinetic_stencil(problem)
    basis = np.array([k_diag, rho2, np.ones_like(rho2)])
    return basis, -np.sqrt(k_sub[1:] * k_sup[:-1])


def _norm(y):
    """sqrt(sum |y_j|^2): one reduction over the interleaved floats.

    On y = W^{1/2} u this is the rho-weighted norm of u.  add.reduce
    sums pairwise: over 2,000 driven states at n = 2047 it stayed
    within 6e-16 of |y|^2, where einsum strayed by up to 6e-15, which
    the per-step drift would then read as the scheme's.  Ufuncs only:
    no BLAS thread.
    """
    return math.sqrt(float(np.add.reduce(np.square(y.view(float)))))


def propagate(problem: RadialProblem, u0, record_times=None, reference=None):
    """Crank-Nicolson propagation of the sector equation.

    Applies (1 + i dt/2 H(t_mid)) w⁺ = (1 - i dt/2 H(t_mid)) w with H
    taken at each step midpoint, so time-dependent m, omega, B keep
    second-order accuracy.  Both paths carry the weight-symmetrised
    state y = M^{1/2} w = W^{1/2} u, W = problem.weights(), and the
    symmetric S = M^{1/2} H M^{-1/2}, built once here (see
    _symmetrised_operator): the same map, since
    M^{1/2}(1 + z H) = (1 + z S) M^{1/2}.  The coefficient scalars of
    all midpoints are evaluated up front.  If they differ between
    midpoints, each step makes one LAPACK zgtsv solve with 1 + z S (see
    _stepped_states).  If they are identical at every midpoint, every
    step applies the same map, and the states at the recorded steps
    come in closed form from one eigendecomposition of S (see
    _spectral_states); no step is taken, and the eigenvector matrix
    costs 8 n² bytes.  u = y / W^{1/2} is formed only at the recorded
    steps.  ``record_times`` asks for snapshots (snapped to the nearest
    step; defaults to the span endpoints).  ``reference(t) -> samples on
    problem.rho`` attaches a fidelity per snapshot.

    The norm is checked at every state the path computes: after every
    step when stepping, at each recorded snapshot and the final step on
    the closed-form path.  It is |y|, one reduction, which is the
    rho-weighted norm of u.  ``norm_drift_step`` is the largest relative
    norm change between consecutive such states, starting from u0.
    Raises Unstable when the norm drifts from the initial one by more
    than 1e-6, when it stops being finite, or when LAPACK reports a
    singular matrix or a failed decomposition.  The guard is defensive:
    the scheme is unitary at any dt (drift stays near 1e-15), so no
    valid configuration is known to trip it.
    """
    u = np.asarray(u0, dtype=complex).copy()
    if u.shape != problem.rho.shape:
        raise MismatchedGrids(
            f"u0 has {u.shape[0] if u.ndim else 0} samples, "
            f"grid has {problem.rho.size}")
    if not np.all(np.isfinite(u.view(float))):
        raise NonFinite("u0 must be finite")
    peak = float(np.max(np.abs(u)))
    if peak == 0.0:
        raise ValueError("u0 is identically zero")
    if abs(u[-1]) > 1e-5 * peak:
        raise ValueError(
            "u0 does not vanish at the outer wall "
            f"(|u0| there is {abs(u[-1]) / peak:.2e} of peak); "
            "enlarge rho_max")

    t0 = problem.span[0]
    n_steps, dt, record_steps = snap_times(problem.span, problem.dt,
                                           record_times)

    weights = problem.weights()
    root_w = np.sqrt(weights)
    y = root_w * u
    norm0 = _norm(y)
    if norm0 == 0.0:
        raise ValueError("u0 has zero norm")

    times = []
    fields = []
    fidelities = [] if reference is not None else None

    def record(step_index, v):
        t = record_steps[step_index]
        times.append(t)
        fields.append(v)
        if fidelities is not None:
            fidelities.append(fidelity(v, np.asarray(reference(t),
                                                     dtype=complex),
                                       weights))

    operator = _symmetrised_operator(problem)
    t_mid = t0 + (np.arange(n_steps) + 0.5) * dt
    terms = np.array(_sector_terms(problem.coeffs, problem.n, t_mid))
    if np.all(terms == terms[:, :1]):
        steps = sorted(record_steps.keys() - {0} | {n_steps})
        states = _spectral_states(y, terms[:, 0].tolist(), dt, operator,
                                  steps)
    else:
        states = _stepped_states(y, terms, dt, operator)

    max_step_drift = 0.0
    prev_norm = norm0
    if 0 in record_steps:
        record(0, u)
    for j, y in states:
        norm = _norm(y)
        max_step_drift = max(max_step_drift, abs(norm - prev_norm) / norm0)
        # written so that a NaN norm fails the test
        if not abs(norm - norm0) <= 1e-6 * norm0:
            raise Unstable(
                f"norm drifted by {abs(norm - norm0) / norm0:.3e} after "
                f"{j} steps (dt={dt:g}); the propagation is no longer "
                "unitary")
        prev_norm = norm
        if j in record_steps:
            record(j, y / root_w)

    # both paths yield ascending steps, so the snapshots are in time order
    return PropagationResult(
        problem=problem,
        times=tuple(times),
        fields=np.asarray(fields),
        norm_drift_step=max_step_drift,
        norm_drift_total=abs(prev_norm - norm0) / norm0,
        fidelities=tuple(fidelities) if fidelities is not None else None,
    )


def _stepped_states(y, terms, dt, operator):
    """(step, y) after every step, from one LAPACK zgtsv solve per step.

    (1 + z S) y⁺ = (1 - z S) y with z = i dt/2 and S at the step's
    midpoint, whose scalars (m, a, s) are column j - 1 of ``terms``.
    Since 1 - z S = 2 - (1 + z S), the update is implicit only:
    y⁺ = (1 + z S)⁻¹ (2 y) - y, and no explicit-side product is formed.
    The solve takes 2 y rather than y so that its result is already
    2 (1 + z S)⁻¹ y (scaling by 2 is exact).  The diagonal of
    1 + z S is 1 + i (dt/2)(k_diag/m + a rho^2 + s), its imaginary
    part one einsum of the basis rows with (dt/2)(1/m, a, s).
    S is symmetric, so both bands are z off/m, filled by one product.
    zgtsv (the routine solve_banded calls for one band on each side)
    overwrites the bands, the diagonal and the right-hand side in place,
    so each step fills them afresh.  y is updated in place; the caller
    reads it before the next step.  Everything here is a ufunc, einsum
    or the zgtsv call: no multithreaded BLAS in the loop.  zgtsv is
    looked up on scipy.linalg.lapack, imported when the first step runs.
    """
    from scipy.linalg import lapack

    basis, off = operator
    c = 0.5 * dt
    z = 1j * c
    m, a, s = terms
    scales = np.stack([c / m, c * a, c * s], axis=1)
    unit = np.ones(y.size, dtype=complex)
    # both bands in one product: complex rows spare the cast of off
    off_pair = np.array([off, off], dtype=complex)
    bands = np.empty_like(off_pair)
    for j, (mass, scale) in enumerate(zip(m.tolist(), scales), start=1):
        # z / mass stays a Python scalar: an array division rounds twice
        np.multiply(z / mass, off_pair, out=bands)
        diag = unit.copy()
        diag.imag = np.einsum("i,ij->j", scale, basis)
        *_, w2, info = lapack.zgtsv(bands[0], diag, bands[1], 2.0 * y,
                                    1, 1, 1, 1)
        if info != 0:
            kind = "singular matrix" if info > 0 else "illegal argument"
            raise Unstable(f"step {j}: {kind} (zgtsv info {info})")
        np.subtract(w2, y, out=y)
        yield j, y


def _spectral_states(y, sector, dt, operator, steps):
    """(step, y) pairs at each of ``steps`` (ascending, all >= 1).

    With constant scalars ``sector`` = (m, a, s) every step applies
    the same Cayley map (1 + z S)⁻¹(1 - z S), z = i dt/2, to y.  One
    decomposition S = V diag(lam) Vᵀ (LAPACK stemr) gives every power
    of it,

        y_j = V diag(exp(-2ij atan(dt lam / 2))) Vᵀ y,

    since (1 - z lam)/(1 + z lam) = exp(-2i atan(dt lam / 2)).  V stays
    float64: the real and imaginary parts are projected separately.  It
    holds 8 n² bytes, 8.4 MB at n = 1023 and 128 MB at n = 4096, and is
    the only n² array.  stemr is called with its documented workspace
    (18 n and 10 n) rather than through eigh_tridiagonal, whose size
    query allocates and frees a second n² array first: after that free
    the allocator kept V resident once V was freed too.  The snapshots
    are rebuilt by matrix-vector products, which left less memory
    resident than one matrix-matrix product.  The products go through
    einsum, on one thread, not through BLAS: at n = 1023 a second
    OpenBLAS thread made them slower, on a host with two shared CPUs
    several times slower, and its idle workers kept spinning into the
    next command.  dstemr is looked up on scipy.linalg.lapack, imported
    here.
    """
    from scipy.linalg import lapack

    (k_diag, rho2, _), off = operator
    m, a, s = sector
    n = rho2.size
    diag = k_diag / m + a * rho2 + s
    sub = np.zeros(n)               # stemr reads n entries and uses n - 1
    sub[:-1] = off / m
    # range 0 asks for every eigenpair; vl, vu, il, iu are then unused
    _, lam, v, info = lapack.dstemr(diag, sub, 0, 0.0, 0.0, 0, 0,
                                    compute_v=1, lwork=18 * n, liwork=10 * n)
    if info != 0:
        raise Unstable("tridiagonal eigendecomposition failed "
                       f"(stemr info {info})")
    c = np.einsum("i,ij->j", y.real, v) + 1j * np.einsum("i,ij->j", y.imag, v)
    c = c * np.exp(-2j * np.outer(steps, np.arctan(0.5 * dt * lam)))
    return [(j, np.einsum("ij,j->i", v, cj.real)
             + 1j * np.einsum("ij,j->i", v, cj.imag))
            for j, cj in zip(steps, c)]


def fidelity(u_num, u_exact, weights):
    """|<u_num, u_exact>| / (|u_num| |u_exact|) in the weighted product."""
    a = np.asarray(u_num, dtype=complex)
    b = np.asarray(u_exact, dtype=complex)
    w = np.asarray(weights, dtype=float)
    if a.shape != b.shape or a.shape != w.shape:
        raise MismatchedGrids(
            f"shapes differ: {a.shape} vs {b.shape} vs weights {w.shape}")
    na = math.sqrt(float(np.sum(w * np.abs(a) ** 2)))
    nb = math.sqrt(float(np.sum(w * np.abs(b) ** 2)))
    if na == 0.0 or nb == 0.0:
        raise ValueError("fidelity of a zero state is undefined")
    return float(abs(np.sum(w * np.conj(a) * b)) / (na * nb))
