"""The acceptance gate: one test per criterion, one verdict line under -v.

Every numeric threshold in this file is an external commitment, not a
measured-and-frozen regression bound; loosening one is a contract change.
Each test also enforces its runtime budget, because "verifiable at desk
scale" is part of the contract.
"""

import cmath
import dataclasses
import math
import time

import numpy as np
import pytest

from invosc.errors import FallToCenter
from invosc.ode import IntegratorConfig, default_alpha0, solve_chain
from invosc.oracle import RadialProblem, propagate
from invosc.params import TimeFunction, coefficient_terms
from invosc.wavefunction import (CartesianGrid, ModeSpec, PolarGrid,
                                 assemble_psi, convention_scan,
                                 order_from_coupling, schrodinger_residual,
                                 sector_winding, theta_from_xy)

from conftest import SPAN, WINNER, make_chain, make_coeffs, wronskian_check

# fixed-step RK4 (h = 1e-6) endpoints, computed outside this package
RK4_ALPHA_1 = {
    "static": 1.1180339887498949 - 2.2204460492678948e-16j,
    "ramp": 1.1736322210853809 + 0.066170509639284322j,
    "sin_field": 1.0844360039622294 - 0.051237882731258351j,
}


def _budget(started, seconds):
    elapsed = time.perf_counter() - started
    assert elapsed < seconds, f"runtime {elapsed:.1f}s over budget {seconds}s"


def test_criterion_1_bessel_wronskian_suite():
    started = time.perf_counter()
    xs = np.logspace(math.log10(0.2), math.log10(40.0), 50)
    worst = 0.0
    for nu in (0.0, 0.5, 1.0, 2.5, 7.0):
        for x in xs:
            scaled = wronskian_check(nu, float(x)) * (math.pi * x / 2.0)
            worst = max(worst, abs(scaled))
    assert worst < 1e-9
    _budget(started, 1.0)


def test_criterion_2_riccati_plugback():
    started = time.perf_counter()
    families = {
        "static": make_coeffs(C=0.0),
        "ramp": make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN), C=0.0),
        "sin_field": make_coeffs(B=TimeFunction.sinusoidal(1.0, 1.0, SPAN),
                                 C=0.0),
    }
    cfg = IntegratorConfig(rel_tol=1e-10)
    h = 1e-5
    for name, coeffs in families.items():
        alpha = solve_chain(coeffs, 0.0, cfg=cfg).alpha
        # the harmonic term the transformation is built to cancel,
        # relative to its own (m/2) W^2 scale
        for t in np.linspace(SPAN[0] + 2 * h, SPAN[1] - 2 * h, 401):
            t = float(t)
            m, w2, _ = coefficient_terms(coeffs, t)
            a = alpha(t)
            adot = (alpha(t + h) - alpha(t - h)) / (2.0 * h)
            resid = 0.5 * m * w2 - a * a / (2.0 * m) + 0.5j * adot
            assert abs(resid) / (0.5 * m * w2) < 1e-7, (name, t)
        got = complex(alpha(1.0))
        ref = RK4_ALPHA_1[name]
        assert abs(got - ref) / abs(ref) < 1e-8, name
    _budget(started, 10.0)


def test_criterion_3_pde_residual_ladder():
    started = time.perf_counter()
    coeffs = make_coeffs()
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5)

    def factory(branch):
        return make_chain(coeffs, branch=branch)

    selected = convention_scan(mode, factory, coeffs,
                               PolarGrid(0.4, 8.0, 128, 128), (0.4,),
                               step=8e-3)
    mode = dataclasses.replace(mode, conventions=selected.winner)
    traj = factory(selected.winner.alpha_branch)
    report = schrodinger_residual(mode, traj, coeffs,
                                  PolarGrid(0.4, 8.0, 256, 256), (0.4,),
                                  steps=(8e-3, 4e-3, 2e-3))
    values = [r.rel_inf for r in report.rungs]
    assert values == sorted(values, reverse=True)
    assert 1.7 <= report.order <= 2.3
    assert report.rel_inf < 1e-5
    _budget(started, 120.0)


def test_criterion_4_convention_scan_decisiveness():
    started = time.perf_counter()
    coeffs = make_coeffs(C=0.0)
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=0.0)

    def factory(branch):
        return make_chain(coeffs, branch=branch)

    grid = CartesianGrid.centered(6.0, 128)
    outcome = convention_scan(mode, factory, coeffs, grid, (0.4,), step=4e-2)
    rows = {row.flags: row for row in outcome.rows}
    best = rows[outcome.winner]
    for flags, row in rows.items():
        if flags != outcome.winner:
            assert row.rel_inf >= 10.0 * best.rel_inf, flags.label()
    assert best.envelope_decays
    refined = convention_scan(mode, factory, coeffs,
                              dataclasses.replace(grid, nx=2 * grid.nx,
                                                  ny=2 * grid.ny),
                              (0.4,), step=4e-2)
    assert refined.winner == outcome.winner
    _budget(started, 180.0)


def test_criterion_5_oracle_fidelity():
    started = time.perf_counter()
    coeffs = make_coeffs(m=TimeFunction.linear(1.0, 0.1, SPAN))
    traj = make_chain(coeffs)
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, conventions=WINNER)
    winding = sector_winding(mode)

    def run(n_rho, record_times):
        prob = RadialProblem(coeffs, winding, 12.0, n_rho, 1e-4, SPAN)
        rho = prob.rho
        u0 = assemble_psi(mode, traj, rho, 0.0 * rho, SPAN[0])
        return propagate(prob, u0, record_times=record_times,
                         reference=lambda t: assemble_psi(mode, traj, rho,
                                                          0.0 * rho, t))

    main = run(2048, (0.0, 0.25, 0.5, 0.75, 1.0))
    assert min(main.fidelities) >= 0.999
    ladder = [run(512, (1.0,)).fidelities[0],
              run(1024, (1.0,)).fidelities[0],
              main.fidelities[-1]]
    assert ladder[0] < ladder[1] < ladder[2]
    _budget(started, 300.0)


def test_criterion_6_reduction_chain():
    # C -> 0: integer order and pointwise agreement with the hand-built
    # integer-order composition
    assert order_from_coupling(0.0, 2) == 2.0
    assert order_from_coupling(0.0, -1) == 1.0
    with pytest.raises(FallToCenter):
        order_from_coupling(-2.0, 1)

    from invosc.bessel import bessel_j

    coeffs = make_coeffs(C=0.0)
    traj = make_chain(coeffs)
    mode = ModeSpec.from_coupling(k=1.0, n=2, C=0.0, conventions=WINNER)
    xs, ys = CartesianGrid.centered(3.0, 16).xy_mesh()
    t = 0.6
    got = assemble_psi(mode, traj, xs, ys, t)
    rho = np.hypot(xs, ys)
    alpha = complex(traj.alpha(t))
    mu = complex(traj.mu(t))
    f = complex(traj.phase(t))
    sh = WINNER.exponent_sign * WINNER.exponent_half
    theta = theta_from_xy(xs, ys, float(traj.beta(t)))
    hand = ((1.0 + 0j) * np.asarray(bessel_j(2.0, rho / mu), dtype=complex)
            * np.exp(sh * alpha * rho * rho + 2j * theta - 1j * f))
    assert np.max(np.abs(got - hand)) < 1e-12

    # B -> 0: the frame angle vanishes identically and the factored
    # assembly agrees bit for bit with the hand composition
    coeffs0 = make_coeffs(B=0.0, C=0.0)
    traj0 = make_chain(coeffs0)
    assert traj0.beta(0.37) == 0.0 and traj0.beta(1.0) == 0.0
    got0 = assemble_psi(mode, traj0, xs, ys, t)
    beta = float(traj0.beta(t))
    alpha = complex(traj0.alpha(t))
    mu = complex(traj0.mu(t))
    f = complex(traj0.phase(t))
    # composed in the same factor association as the assembly so equality
    # is exact: radial times envelope times the per-time scalar, then the
    # lab-angle phase e^{-2 i phi} with phi straight from arctan2
    hand0 = (((1.0 + 0j)
              * np.asarray(bessel_j(2.0, (1.0 / mu) * rho), dtype=complex)
              * np.exp((sh * alpha) * rho * rho
                       + (1j * (2 * (0.5 * math.pi + beta)) - 1j * f)))
             * np.exp(1j * (-2 * np.arctan2(ys, xs))))
    assert np.array_equal(got0, hand0)

    # constant coefficients: the chain reproduces the closed forms of
    # beta, mu, f for both scale couplings
    tight = IntegratorConfig(rel_tol=1e-12, abs_tol=1e-14)
    c15 = make_coeffs()
    omega0 = math.sqrt(coefficient_terms(c15, 0.0)[1])
    k = 1.0
    for coupling in ("pde", "literal"):
        traj = solve_chain(c15, k, span=SPAN,
                           alpha0=default_alpha0(c15, SPAN[0]), cfg=tight,
                           mu_coupling=coupling)
        for t in (0.25, 0.5, 0.75, 1.0):
            if coupling == "pde":
                mu_ref = cmath.exp(1j * omega0 * t)
                f_ref = (k * k * (1.0 - cmath.exp(-2j * omega0 * t))
                         / (4j * omega0) + omega0 * t)
            else:
                mu_ref = cmath.exp(-omega0 * t)
                f_ref = (k * k * (cmath.exp(2.0 * omega0 * t) - 1.0)
                         / (4.0 * omega0) + omega0 * t)
            beta_ref = t / 4.0
            assert abs(complex(traj.mu(t)) - mu_ref) / abs(mu_ref) < 1e-10
            assert abs(complex(traj.phase(t)) - f_ref) / abs(f_ref) < 1e-10
            assert abs(float(traj.beta(t)) - beta_ref) / beta_ref < 1e-10


def test_criterion_7_oracle_unitarity_and_order():
    started = time.perf_counter()
    coeffs = make_coeffs(B=0.0, C=0.0)
    prob = RadialProblem(coeffs, 0, 8.0, 512, 1e-4, SPAN)
    u0 = (1.0 + 0.5 * prob.rho ** 2) * np.exp(-prob.rho ** 2 / 2.0)
    res = propagate(prob, u0)
    assert res.norm_drift_total < 1e-9

    w = prob.weights()

    def final(dt):
        return propagate(dataclasses.replace(prob, dt=dt), u0).fields[-1]

    ref = (4.0 * final(5e-4) - final(1e-3)) / 3.0
    errs = []
    for dt in (4e-3, 2e-3, 1e-3):
        diff = final(dt) - ref
        errs.append(math.sqrt(float(np.sum(w * np.abs(diff) ** 2))))
    assert 3.0 < errs[0] / errs[1] < 5.0
    assert 3.0 < errs[1] / errs[2] < 5.0
    _budget(started, 60.0)
