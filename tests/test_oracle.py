"""Radial Crank-Nicolson propagator: unitarity, accuracy, sector physics.

The pinned-resolution stationary-modulus test is expected to fail: the
spatial floor of the 3-point stencil at N_rho = 2048 on any useful
rho_max measures 1.31e-6, just above the 1e-6 target (the deviation
scales as drho^2 and passes at N_rho = 4096, which the companion test
demonstrates).  The xfail is strict so an accidental pass gets flagged.
"""

import cmath
import dataclasses
import itertools
import math

import numpy as np
import pytest

from scipy.linalg import eigh_tridiagonal, lapack, solve_banded

import invosc.oracle as oracle
from invosc.artifacts import Table
from invosc.errors import (FallToCenter, MismatchedGrids, NonFinite,
                           OutOfDomain, Unstable)
from invosc.oracle import (PropagationResult, RadialProblem,
                           effective_potential, fidelity, propagate)
from invosc.params import TimeFunction
from invosc.wavefunction import (ModeSpec, assemble_psi, sector_winding)

from conftest import SPAN, WINNER, count_calls, make_chain, make_coeffs


@pytest.fixture(scope="module")
def harmonic():
    return make_coeffs(B=0.0, C=0.0)


@pytest.fixture(scope="module")
def stationary_deviation(harmonic):
    """Modulus drift of the lowest static profile at three radial counts."""
    out = {}
    for n_rho in (1024, 2048, 4096):
        prob = RadialProblem(harmonic, 0, 6.0, n_rho, 1e-4, SPAN)
        u0 = np.exp(-prob.rho ** 2 / 2.0)
        res = propagate(prob, u0)
        out[n_rho] = float(np.max(np.abs(np.abs(res.fields[-1])
                                         - np.abs(res.fields[0]))))
    return out


# -- effective potential -----------------------------------------------------------

def test_potential_pure_harmonic_sector():
    coeffs = make_coeffs(B=0.0, C=0.0)
    assert effective_potential(coeffs, 0, 2.0, 0.3) == pytest.approx(2.0)


def test_potential_centrifugal_plus_coupling():
    coeffs = make_coeffs(w=0.0, B=0.0, C=1.5)
    assert effective_potential(coeffs, 1, 1.0, 0.0) == pytest.approx(2.0)


def test_potential_field_shift_and_quadratic_coefficient():
    # q=1, B=4, m=1, omega=0: the quadratic coefficient is (1/2)(qB/2m)^2
    # = 2 and the sector constant is qBn/(4m) = 2
    coeffs = make_coeffs(w=0.0, B=4.0, C=0.0)
    rho = 50.0
    v = effective_potential(coeffs, 2, rho, 0.5)
    const = v - 2.0 * rho * rho - 2.0 / rho / rho
    assert abs(const) == pytest.approx(2.0, rel=1e-12)
    # the shift is linear in n and antisymmetric
    v_minus = effective_potential(coeffs, -2, rho, 0.5)
    assert v - v_minus == pytest.approx(2.0 * const, rel=1e-9)


def test_potential_array_and_domain():
    coeffs = make_coeffs()
    rho = np.array([0.5, 1.0, 2.0])
    out = effective_potential(coeffs, 1, rho, 0.0)
    assert out.shape == (3,)
    assert out[1] == effective_potential(coeffs, 1, 1.0, 0.0)
    with pytest.raises(OutOfDomain):
        effective_potential(coeffs, 1, 0.0, 0.0)
    with pytest.raises(OutOfDomain):
        effective_potential(coeffs, 1, np.array([1.0, -2.0]), 0.0)


def test_cross_term_fit_matches_the_derived_constant():
    # i (y d_x - x d_y) on a ring-supported exp(i phi) sample, by central
    # differences on a Cartesian patch: the ratio to the sample is the
    # eigenvalue per unit winding that the sector shift uses
    xs = np.linspace(-3.0, 3.0, 97)
    h = xs[1] - xs[0]
    X, Y = np.meshgrid(xs, xs, indexing="ij")
    rho2 = X * X + Y * Y
    psi = np.exp(-((np.sqrt(rho2) - 1.5) ** 2)) * np.exp(1j * np.arctan2(Y, X))
    d_x = np.zeros_like(psi)
    d_y = np.zeros_like(psi)
    d_x[1:-1, :] = (psi[2:, :] - psi[:-2, :]) / (2.0 * h)
    d_y[:, 1:-1] = (psi[:, 2:] - psi[:, :-2]) / (2.0 * h)
    op = 1j * (Y * d_x - X * d_y)
    core = (rho2 > 1.0) & (rho2 < 4.0)
    core[:2, :] = core[-2:, :] = False
    core[:, :2] = core[:, -2:] = False
    ratio = np.mean((op[core] / psi[core]).real)
    assert abs(ratio - oracle._CROSS_TERM) < 0.05


# -- problem geometry --------------------------------------------------------------

@pytest.mark.parametrize("n, C", [(-1, 1.5), (0, 0.0), (1, 0.0)])
def test_every_sector_uses_the_cell_centres(n, C):
    # singular (nu = 2), regular (nu = 0) and pure winding (nu = 1)
    # sectors share one layout: N unknowns at (j + 1/2) drho, measured
    # by rho_j drho in u
    prob = RadialProblem(make_coeffs(C=C), n, 8.0, 512, 1e-3, SPAN)
    assert prob.nu == math.sqrt(n * n + 2.0 * C)
    assert prob.rho.shape == (512,)
    assert prob.rho[0] == pytest.approx(0.5 * prob.drho)
    assert prob.rho[-1] == pytest.approx(8.0 - 0.5 * prob.drho)
    assert np.allclose(prob.weights(), prob.rho * prob.drho)
    # the axis face carries no flux
    k_sub, _, _ = oracle._kinetic_stencil(prob)
    assert k_sub[0] == 0.0


@pytest.mark.parametrize("nu", [0.0, 0.1, 0.25, 0.5, 1.0, 2.0])
def test_sector_operator_eigenvalues_converge_at_second_order(nu):
    # the oracle's own operator (the symmetrised S and the sector terms)
    # in a harmonic trap with m = W = 1 and n = 0, C = nu^2 / 2: its
    # lowest three levels against the exact 2 n_r + nu + 1 as N_rho
    # doubles
    coeffs = make_coeffs(m=1.0, w=1.0, B=0.0, C=0.5 * nu * nu)
    errors = []
    for n_rho in (1024, 2048, 4096):
        prob = RadialProblem(coeffs, 0, 12.0, n_rho, 1e-3, SPAN)
        basis, off = oracle._symmetrised_operator(prob)
        m, a, s = oracle._sector_terms(coeffs, 0, SPAN[0])
        levels = eigh_tridiagonal(
            np.array([1.0 / m, a, s]) @ basis, off / m, eigvals_only=True,
            select="i", select_range=(0, 2))
        errors.append(np.max(np.abs(levels - (np.arange(3) * 2 + nu + 1))))
    orders = np.log2(np.array(errors[:-1]) / errors[1:])
    assert errors[-1] < 2e-5
    assert np.all(orders > 1.9), orders


def test_problem_refinement_and_description(coeffs_c15):
    prob = RadialProblem(coeffs_c15, -1, 8.0, 256, 1e-3, SPAN)
    fine = dataclasses.replace(prob, n_rho=2 * prob.n_rho)
    assert fine.n_rho == 512
    assert fine.drho == pytest.approx(prob.drho / 2.0)
    assert "n=-1" in prob.describe() and "N=256" in prob.describe()


def test_large_order_keeps_the_operator_finite():
    # nu = 50 in a stiff trap (omega = 100, so the state peaks at
    # rho = sqrt(nu / (m omega)) = 0.71): the innermost cell centre is
    # 3.9e-4, where rho^(2 nu + 1) would underflow to 0.  The measures
    # and face ratios stay finite and positive, and a driven propagation
    # stays unitary.
    coeffs = make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN), w=100.0,
                         B=0.0, C=0.5 * (50.0 ** 2 - 1.0))
    prob = RadialProblem(coeffs, 1, 1.6, 2048, 1e-3, (0.0, 0.01))
    assert prob.nu == 50.0
    assert prob.rho[0] ** 101 == 0.0
    k_sub, k_diag, k_sup = oracle._kinetic_stencil(prob)
    for part in (prob.weights(), -k_sub[1:], k_diag, -k_sup):
        assert np.all(np.isfinite(part)) and np.all(part > 0.0)
    # (rho / rho_peak)^50 exp(-(omega / 2)(rho^2 - rho_peak^2))
    u0 = np.exp(50.0 * np.log(prob.rho / math.sqrt(0.5))
                - 50.0 * (prob.rho ** 2 - 0.5))
    res = propagate(prob, u0)
    assert res.norm_drift_total < 1e-9


def test_problem_validation(coeffs_c15):
    with pytest.raises(ValueError):
        RadialProblem(coeffs_c15, 0, 8.0, 128, 1e-3, SPAN)
    with pytest.raises(ValueError):
        RadialProblem(coeffs_c15, 0, 8.0, 512, 0.0, SPAN)
    with pytest.raises(ValueError):
        RadialProblem(coeffs_c15, 0, -8.0, 512, 1e-3, SPAN)
    with pytest.raises(ValueError):
        RadialProblem(coeffs_c15, 0, 8.0, 512, 1e-3, (1.0, 0.0))
    with pytest.raises(ValueError, match="finite step count"):
        RadialProblem(coeffs_c15, 0, 8.0, 512, 1e-320, SPAN)
    with pytest.raises(OutOfDomain):
        RadialProblem(coeffs_c15, 0, 8.0, 512, 1e-3, (0.0, 2.0))
    with pytest.raises(FallToCenter):
        RadialProblem(make_coeffs(C=-1.0), 1, 8.0, 512, 1e-3, SPAN)


# -- propagation guards --------------------------------------------------------------

def test_initial_state_guards(harmonic):
    prob = RadialProblem(harmonic, 0, 6.0, 512, 1e-3, SPAN)
    good = np.exp(-prob.rho ** 2 / 2.0)
    with pytest.raises(MismatchedGrids):
        propagate(prob, good[:-1])
    bad = good.copy()
    bad[5] = math.inf
    with pytest.raises(NonFinite):
        propagate(prob, bad)
    with pytest.raises(ValueError):
        propagate(prob, np.zeros_like(good))
    with pytest.raises(ValueError, match="rho_max"):
        propagate(prob, np.ones_like(good))


def test_record_times_snap_and_sort(harmonic):
    prob = RadialProblem(harmonic, 0, 6.0, 512, 1e-3, SPAN)
    u0 = np.exp(-prob.rho ** 2 / 2.0)
    res = propagate(prob, u0, record_times=(1.0, 0.50002, 0.0))
    assert res.times == (0.0, 0.5, 1.0)
    assert res.fields.shape == (3, 512)
    for bad in (2.0, math.nan, math.inf):
        with pytest.raises(OutOfDomain, match="outside span"):
            propagate(prob, u0, record_times=(0.0, bad))
    endpoints = propagate(prob, u0)
    assert endpoints.times == SPAN


# -- unitarity and accuracy -----------------------------------------------------------

def test_free_ring_norm_is_conserved():
    coeffs = make_coeffs(w=0.0, B=0.0, C=0.0)
    prob = RadialProblem(coeffs, 0, 10.0, 512, 1e-4, SPAN)
    u0 = np.exp(-(prob.rho - 4.0) ** 2)
    res = propagate(prob, u0)
    assert res.norm_drift_total < 1e-9
    assert res.norm_drift_step < 1e-10


def test_unitary_even_at_coarse_dt(harmonic):
    # the midpoint scheme is norm-preserving independent of dt; a large
    # step costs accuracy, never stability
    prob = RadialProblem(harmonic, 0, 6.0, 512, 0.05, SPAN)
    u0 = np.exp(-prob.rho ** 2 / 2.0)
    res = propagate(prob, u0)
    assert res.norm_drift_total < 1e-9


@pytest.mark.xfail(strict=True, reason=(
    "spatial floor: at the pinned N_rho=2048, dt=1e-4 the modulus "
    "deviation measures 1.31e-6 for every useful rho_max (it scales "
    "as drho^2, independent of dt); the 1e-6 target needs N_rho=4096"))
def test_stationary_modulus_at_pinned_resolution(stationary_deviation):
    assert stationary_deviation[2048] < 1e-6


def test_stationary_modulus_converges_in_the_grid(stationary_deviation):
    # same metric: second-order in drho, and below target one level up
    assert stationary_deviation[4096] < 1e-6
    r1 = stationary_deviation[1024] / stationary_deviation[2048]
    r2 = stationary_deviation[2048] / stationary_deviation[4096]
    assert 3.3 < r1 < 4.7
    assert 3.3 < r2 < 4.7


def test_halving_dt_quarters_the_error(harmonic):
    prob = RadialProblem(harmonic, 0, 8.0, 512, 1e-3, SPAN)
    u0 = (1.0 + 0.5 * prob.rho ** 2) * np.exp(-prob.rho ** 2 / 2.0)
    w = prob.weights()

    def final(dt):
        return propagate(dataclasses.replace(prob, dt=dt), u0).fields[-1]

    ref = (4.0 * final(5e-4) - final(1e-3)) / 3.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        diff = final(dt) - ref
        errs.append(math.sqrt(float(np.sum(w * np.abs(diff) ** 2))))
    assert errs[0] > errs[1] > errs[2]
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0


# -- sector physics ------------------------------------------------------------------

def test_opposite_windings_differ_by_the_frame_phase():
    # C=0, omega=0, constant B: the n and -n sectors see identical
    # potentials up to the constant shift 2 rate n, so the same ring
    # propagates to the same shape times exp(+2i rate n t)
    coeffs = make_coeffs(w=0.0, B=2.0, C=0.0)
    rate = 0.5
    plus = RadialProblem(coeffs, +1, 8.0, 512, 5e-4, SPAN)
    minus = RadialProblem(coeffs, -1, 8.0, 512, 5e-4, SPAN)
    u0 = np.exp(-(plus.rho - 3.0) ** 2)
    up = propagate(plus, u0).fields[-1]
    um = propagate(minus, u0).fields[-1]
    w = plus.weights()
    assert fidelity(up, um, w) > 1.0 - 1e-8
    na = math.sqrt(float(np.sum(w * np.abs(up) ** 2)))
    nb = math.sqrt(float(np.sum(w * np.abs(um) ** 2)))
    overlap = complex(np.sum(w * np.conj(up) * um)) / (na * nb)
    assert abs(overlap - cmath.exp(+2j * rate * 1.0)) < 1e-4
    assert abs(overlap - cmath.exp(-2j * rate * 1.0)) > 1.0


def test_fidelity_against_assembly_improves_with_the_grid(coeffs_ramp,
                                                          chain_ramp):
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, conventions=WINNER)
    winding = sector_winding(mode)
    scores = []
    for n_rho in (256, 512, 1024):
        prob = RadialProblem(coeffs_ramp, winding, 12.0, n_rho, 5e-4, SPAN)
        rho = prob.rho
        u0 = assemble_psi(mode, chain_ramp, rho, 0.0 * rho, SPAN[0])
        res = propagate(prob, u0, record_times=(1.0,),
                        reference=lambda t: assemble_psi(mode, chain_ramp,
                                                         rho, 0.0 * rho, t))
        scores.append(res.fidelities[0])
    assert all(0.0 <= f <= 1.0 + 1e-12 for f in scores)
    assert scores[0] < scores[1] < scores[2]
    assert scores[0] > 0.999


# -- overlap metric ------------------------------------------------------------------

def test_fidelity_trivial_cases(harmonic):
    prob = RadialProblem(harmonic, 0, 6.0, 512, 1e-3, SPAN)
    w = prob.weights()
    u = np.exp(-prob.rho ** 2 / 2.0).astype(complex)
    assert fidelity(u, u, w) == pytest.approx(1.0, abs=1e-14)
    assert fidelity(u, 1j * u, w) == pytest.approx(1.0, abs=1e-14)
    left = np.where(prob.rho < 2.0, 1.0 + 0j, 0.0)
    right = np.where(prob.rho > 3.0, 1.0 + 0j, 0.0)
    assert fidelity(left, right, w) == 0.0


def test_fidelity_shape_and_zero_guards(harmonic):
    prob = RadialProblem(harmonic, 0, 6.0, 512, 1e-3, SPAN)
    w = prob.weights()
    u = np.exp(-prob.rho ** 2 / 2.0).astype(complex)
    with pytest.raises(MismatchedGrids):
        fidelity(u, u[:-1], w[:-1])
    with pytest.raises(ValueError):
        fidelity(u, np.zeros_like(u), w)


# -- exports -------------------------------------------------------------------------

def test_result_csv_layouts(tmp_path, harmonic):
    prob = RadialProblem(harmonic, 0, 6.0, 512, 1e-2, SPAN)
    u0 = np.exp(-prob.rho ** 2 / 2.0)
    res = propagate(prob, u0, record_times=(0.0, 0.5, 1.0),
                    reference=lambda t: u0 * cmath.exp(-1j * t))

    fid_path = tmp_path / "fidelity.csv"
    res.write_csv(fid_path, "c" * 64, Table)
    lines = fid_path.read_text().splitlines()
    assert lines[0] == "# config_digest: " + "c" * 64
    assert lines[1] == "# " + prob.describe()
    assert lines[2].startswith("# norm_drift_step:")
    assert lines[3] == "t,fidelity"
    assert len(lines) == 4 + 3

    snap_path = tmp_path / "snapshots.csv"
    res.write_snapshots_csv(snap_path, "c" * 64, Table)
    lines = snap_path.read_text().splitlines()
    assert lines[0] == "# config_digest: " + "c" * 64
    assert lines[1] == "t,rho,re_u,im_u"
    assert len(lines) == 2 + 3 * 512


def _write_snapshots_per_row(result, path, digest):
    """PropagationResult.write_snapshots_csv as it was before chunked
    formatting, kept as the byte reference."""
    rho = result.problem.rho
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest: {digest}\n")
        fh.write("t,rho,re_u,im_u\n")
        for i, t in enumerate(result.times):
            for r, u in zip(rho, result.fields[i]):
                fh.write(f"{t:.17g},{r:.17g},{u.real:.17g},{u.imag:.17g}\n")


@pytest.mark.parametrize("digest", ["c" * 64])
def test_chunked_snapshots_csv_matches_the_per_row_writer(tmp_path, harmonic,
                                                          digest):
    # 4199 unknowns per snapshot: one full chunk plus a partial tail
    prob = RadialProblem(harmonic, 1, 7.3, 4199, 1e-2, SPAN)
    times = (0.0, 1.0 / 3.0, 1.0)
    rng = np.random.default_rng(11)
    shape = (len(times), prob.rho.size)
    fields = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
              + 1j * rng.standard_normal(shape))
    fields[0, 0] = complex(-0.0, 1e-300)
    fields[0, 1] = complex(1e300, -0.0)
    fields[1, -1] = complex(-1e-300, -1e300)
    fields[2, 4095] = complex(-0.0, -0.0)
    fields[2, 4096] = complex(1e-300, 1e300)
    res = PropagationResult(problem=prob, times=times, fields=fields,
                            norm_drift_step=0.0, norm_drift_total=0.0)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    res.write_snapshots_csv(new, digest, Table)
    _write_snapshots_per_row(res, old, digest=digest)
    assert new.read_bytes() == old.read_bytes()
    assert len(new.read_text().splitlines()) == 2 + 3 * 4199


def test_result_without_reference_reports_nan_fidelity(tmp_path, harmonic):
    prob = RadialProblem(harmonic, 0, 6.0, 512, 1e-2, SPAN)
    u0 = np.exp(-prob.rho ** 2 / 2.0)
    res = propagate(prob, u0, record_times=(1.0,))
    assert res.fidelities is None
    path = tmp_path / "fid.csv"
    res.write_csv(path, "c" * 64, Table)
    assert path.read_text().splitlines()[-1].endswith(",nan")


# -- hoisted propagator against the per-step reference ---------------------------------

def _per_step_reference(problem, u0):
    """The plain loop on w = u / rho^nu: rebuild H = K/m + V at every
    midpoint from the oracle's kinetic stencil and solve it banded.  V is
    the sector potential of u less its nu^2 / (2 m rho^2), which the
    substitution removes."""
    rho = problem.rho
    t0, t1 = problem.span
    n_steps = max(1, int(round((t1 - t0) / problem.dt)))
    dt = (t1 - t0) / n_steps
    z = 0.5j * dt
    k_sub, k_diag, k_sup = oracle._kinetic_stencil(problem)
    power = rho ** problem.nu
    w = np.asarray(u0, dtype=complex) / power
    for j in range(n_steps):
        t = t0 + (j + 0.5) * dt
        m = problem.coeffs.mass.value(t)
        sub, sup = k_sub / m, k_sup / m
        diag = k_diag / m + (effective_potential(problem.coeffs, problem.n,
                                                 rho, t)
                             - problem.nu ** 2 / (2.0 * m * rho * rho))
        hw = diag * w
        hw[:-1] += sup[:-1] * w[1:]
        hw[1:] += sub[1:] * w[:-1]
        ab = np.zeros((3, w.size), dtype=complex)
        ab[0, 1:], ab[1], ab[2, :-1] = z * sup[:-1], 1.0 + z * diag, z * sub[1:]
        w = solve_banded((1, 1), ab, w - z * hw)
    return power * w


def _driven():
    return make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN),
                       B=TimeFunction.sinusoidal(1.0, 3.0, SPAN))


def _ring_problem(coeffs, dt=2e-3):
    prob = RadialProblem(coeffs, 2, 10.0, 512, dt, SPAN)
    return prob, np.exp(-(prob.rho - 3.0) ** 2) * (1.0 + 0.3j * prob.rho)


@pytest.mark.parametrize("coeffs, closed_form", [(make_coeffs(), True),
                                                (_driven(), False)],
                         ids=["constant", "driven"])
def test_hoisted_propagator_matches_the_per_step_loop(coeffs, closed_form):
    prob, u0 = _ring_problem(coeffs)
    res = propagate(prob, u0, reference=lambda t: u0)
    ref = _per_step_reference(prob, u0)
    peak = np.max(np.abs(ref))
    assert np.max(np.abs(res.fields[-1] - ref)) <= 1e-12 * peak
    w = prob.weights()
    if closed_form:
        # The closed-form path rounds differently from any stepper, so its
        # fidelity is held to what the field bar implies:
        # |F(a) - F(b)| <= |a/|a| - b/|b||_w <= 2 |a - b|_w / |b|_w and
        # |a - b|_w <= max|a - b| sqrt(sum w) <= 1e-12 peak sqrt(sum w),
        # which is 1.0e-11 here.
        bar = 2e-12 * peak * math.sqrt(w.sum()) / math.sqrt(
            float(w @ np.abs(ref) ** 2))
    else:
        bar = 1e-14
    assert res.fidelities[-1] == pytest.approx(fidelity(ref, u0, w), abs=bar)


def _extended_cn_reference(problem, u0):
    """The constant CN map stepped in clongdouble by a Thomas sweep.

    The map is the oracle's own symmetrised operator, with the constant
    m, omega, B, q and n of the problem evaluated by the formulas of the
    oracle module docstring in extended precision; it acts on
    y = W^{1/2} u, W = problem.weights().  1 + zS is diagonally dominant,
    so the sweep needs no pivoting.
    """
    ld = np.longdouble
    c = problem.coeffs
    m, w, bf = (ld(f.value(problem.span[0])) for f in
                (c.mass, c.frequency, c.magnetic_field))
    q, n = ld(c.charge), ld(problem.n)
    (k_diag, rho2, _), off = (part.astype(ld) for part in
                              oracle._symmetrised_operator(problem))
    sub = sup = off / m
    diag = (k_diag / m + m / 2 * (w * w + q * q * bf * bf / (4 * m * m)) * rho2
            + n * q * bf / (4 * m))
    root_w = np.sqrt(problem.weights().astype(ld))
    t0, t1 = problem.span
    n_steps = max(1, int(round((t1 - t0) / problem.dt)))
    z = np.clongdouble(1j) * (ld(t1 - t0) / n_steps) / 2
    # Thomas factors of 1 + zH, then one forward and one backward sweep
    # per step on the explicit side (1 - zH) u
    lo, up = list(z * sub), list(z * sup)
    den, ratio = [1 + z * diag[0]], []
    for j in range(1, diag.size):
        ratio.append(up[j - 1] / den[-1])
        den.append(1 + z * diag[j] - lo[j - 1] * ratio[-1])
    u = np.asarray(u0).astype(np.clongdouble) * root_w
    for _ in range(n_steps):
        r = (1 - z * diag) * u
        r[:-1] -= z * sup * u[1:]
        r[1:] -= z * sub * u[:-1]
        r = list(r)
        r[0] /= den[0]
        for j in range(1, len(r)):
            r[j] = (r[j] - lo[j - 1] * r[j - 1]) / den[j]
        for j in range(len(r) - 2, -1, -1):
            r[j] -= ratio[j] * r[j + 1]
        u = np.array(r)
    return u / root_w


def _mirror_problem():
    prob = RadialProblem(make_coeffs(C=0.0), 0, 6.0, 256, 2e-3, SPAN)
    return prob, np.exp(-prob.rho ** 2 / 2.0) * (1.0 + 0.3j * prob.rho ** 2)


@pytest.mark.skipif(np.finfo(np.longdouble).eps > 1e-18,
                    reason="np.longdouble is plain float64 here")
@pytest.mark.parametrize("setup", [lambda: _ring_problem(make_coeffs()),
                                   _mirror_problem], ids=["ring", "mirror"])
def test_constant_path_matches_an_extended_precision_stepper(setup):
    prob, u0 = setup()
    res = propagate(prob, u0)
    ref = _extended_cn_reference(prob, u0)
    peak = float(np.max(np.abs(ref)))
    assert float(np.max(np.abs(res.fields[-1] - ref))) <= 1e-12 * peak


@pytest.mark.parametrize("coeffs, calls", [(make_coeffs(), (1, 0)),
                                           (_driven(), (0, 500))],
                         ids=["constant", "driven"])
def test_constant_coefficients_decompose_once(monkeypatch, coeffs, calls):
    seen = count_calls(monkeypatch, lapack, ("dstemr", "zgtsv"))
    prob, u0 = _ring_problem(coeffs)
    propagate(prob, u0, record_times=(0.0, 0.5, 1.0))
    assert (seen["dstemr"], seen["zgtsv"]) == calls


@pytest.mark.parametrize("coeffs, solver, steps", [
    (make_coeffs(), "dstemr", 250),
    (_driven(), "zgtsv", 1)], ids=["constant", "driven"])
def test_non_finite_step_is_unstable(monkeypatch, coeffs, solver, steps):
    # the first state either path computes fails the norm guard: after
    # one step when stepping, at the first recorded time in closed form
    def poisoned(*args, **kwargs):
        if solver == "zgtsv":
            lower, diag, upper, rhs = args[:4]
            return (lower, diag, upper,
                    np.full_like(rhs, complex(math.nan, math.nan)), 0)
        size = args[0].size
        return (size, np.full(size, math.nan),
                np.full((size, size), math.nan), 0)

    monkeypatch.setattr(lapack, solver, poisoned)
    prob, u0 = _ring_problem(coeffs)
    with pytest.raises(Unstable, match=f"after {steps} steps"):
        propagate(prob, u0, record_times=(0.0, 0.5, 1.0))


def test_failed_decomposition_is_unstable(monkeypatch):
    # stemr reports a failure through info, as LAPACK does
    real = lapack.dstemr
    monkeypatch.setattr(lapack, "dstemr",
                        lambda *a, **k: (*real(*a, **k)[:-1], 3))
    prob, u0 = _ring_problem(make_coeffs())
    with pytest.raises(Unstable, match=r"eigendecomposition failed \(stemr info 3\)"):
        propagate(prob, u0)


@pytest.mark.parametrize("info, kind", [(7, "singular matrix"),
                                        (-4, "illegal argument")])
def test_failed_step_is_unstable(monkeypatch, info, kind):
    # zgtsv reports an exactly zero pivot, or a bad argument, through info
    real = lapack.zgtsv
    calls = itertools.count(1)

    def failing_on_the_third(*args):
        out = real(*args)
        return (*out[:-1], info) if next(calls) == 3 else out

    monkeypatch.setattr(lapack, "zgtsv", failing_on_the_third)
    prob, u0 = _ring_problem(_driven())
    with pytest.raises(Unstable,
                       match=rf"^step 3: {kind} \(zgtsv info {info}\)$"):
        propagate(prob, u0)


def _banded_stepper(problem, u0, record_times):
    """The stepped path on scipy.linalg.solve_banded, one ab per step.

    The same arithmetic as oracle._stepped_states and the norm
    bookkeeping of propagate: the weight-symmetrised bands of 1 + zS,
    the state y = W^{1/2} u, the implicit-only update
    y⁺ = (1 + zS)⁻¹(2y) - y and the norm |y|.  Returns the fields
    u = y / W^{1/2} at ``record_times`` and the step and total norm
    drifts.
    """
    t0, t1 = problem.span
    n_steps = max(1, int(round((t1 - t0) / problem.dt)))
    dt = (t1 - t0) / n_steps
    c = 0.5 * dt
    basis, off = oracle._symmetrised_operator(problem)
    t_mid = t0 + (np.arange(n_steps) + 0.5) * dt
    terms = np.array(oracle._sector_terms(problem.coeffs, problem.n, t_mid))
    root_w = np.sqrt(problem.weights())

    def norm_of(v):
        return math.sqrt(float(np.add.reduce(np.square(v.view(float)))))

    recorded = {int(round((t - t0) / dt)) for t in record_times}
    u = np.asarray(u0, dtype=complex).copy()
    fields = [u.copy()] if 0 in recorded else []
    y = root_w * u
    norm0 = prev = norm_of(y)
    drift_step = 0.0
    for j, (m, a, s) in enumerate(terms.T.tolist(), start=1):
        # 1 + i (dt/2)(k_diag/m + a rho^2 + s) and z off/m
        scale = np.array([c / m, c * a, c * s])
        ab = np.zeros((3, y.size), dtype=complex)
        ab[0, 1:] = ab[2, :-1] = 1j * c / m * off
        ab[1] = 1.0 + 1j * np.einsum("i,ij->j", scale, basis)
        y = solve_banded((1, 1), ab, 2.0 * y) - y
        norm = norm_of(y)
        drift_step = max(drift_step, abs(norm - prev) / norm0)
        prev = norm
        if j in recorded:
            fields.append(y / root_w)
    return np.array(fields), drift_step, abs(prev - norm0) / norm0


def test_stepped_path_is_bitwise_the_banded_solve():
    # zgtsv is the routine solve_banded calls for one band on each side,
    # so every state, and with them oracle_snapshots.csv and the drift
    # header of fidelity.csv, keeps its bytes
    prob, u0 = _ring_problem(_driven())
    times = tuple(np.linspace(0.0, 1.0, 11).tolist())
    res = propagate(prob, u0, record_times=times)
    fields, drift_step, drift_total = _banded_stepper(prob, u0, times)
    assert len(res.times) == len(fields) == 11
    for got, want in zip(res.fields, fields):
        assert np.array_equal(got, want)
    assert res.norm_drift_step == drift_step
    assert res.norm_drift_total == drift_total
