"""Field assembly, the residual ladder, and the 8-way convention scan.

The doctored trajectories here (FlatChain, a 1% alpha corruption) exist
to prove the residual actually measures something: a static field makes
the ladder refuse to report an order, and a small corruption of the
width function must blow the residual up by orders of magnitude.
"""

import cmath
import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from invosc.bessel import bessel_j, bessel_n
from invosc.cli import _require_decisive
from invosc.errors import (FallToCenter, Inconclusive, NonFinite,
                           NonPositiveArgument, OriginUndefined, OutOfDomain,
                           ZeroNorm)
from invosc.wavefunction import (CartesianGrid, ConventionFlags,
                                 GridGeometry, ModeSpec, PolarGrid,
                                 ResidualReport, WaveField,
                                 assemble_psi, convention_scan,
                                 order_from_coupling, sample_field,
                                 schrodinger_residual, sector_winding,
                                 theta_from_xy)
from invosc import wavefunction
from invosc.params import coefficient_terms
from invosc.wavefunction import (_add_stencil, _apply_hamiltonian,
                                 _folded_weights)

from conftest import SPAN, WINNER, count_calls, make_chain, make_coeffs

RESIDUAL_GRID = PolarGrid(0.4, 8.0, 96, 96)
COARSE_STEPS = (4e-2, 2e-2, 1e-2)


class FlatChain:
    """Trajectory stub frozen at the identity: the field it assembles is
    static, so d psi / dt vanishes and the relative residual is exactly 1."""

    span = SPAN

    def beta(self, t):
        return 0.0

    def alpha(self, t):
        return 0.0 + 0.0j

    def mu(self, t):
        return 1.0 + 0.0j

    def phase(self, t):
        return 0.0 + 0.0j

    def digest(self):
        return "0" * 64


class ScaledAlpha:
    """Pass-through trajectory with alpha multiplied by a constant."""

    def __init__(self, base, factor):
        self._base = base
        self._factor = factor

    def beta(self, t):
        return self._base.beta(t)

    def alpha(self, t):
        return self._factor * self._base.alpha(t)

    def mu(self, t):
        return self._base.mu(t)

    def phase(self, t):
        return self._base.phase(t)

    @property
    def span(self):
        return self._base.span


# -- angles and orders -----------------------------------------------------------

def test_theta_runs_from_the_plus_y_axis():
    assert theta_from_xy(0.0, 1.0, 0.0) == 0.0
    assert theta_from_xy(1.0, 0.0, 0.0) == pytest.approx(math.pi / 2.0)
    assert theta_from_xy(-1.0, 0.0, 0.0) == pytest.approx(-math.pi / 2.0)
    # frame rotation adds beta (away from the branch cut)
    assert theta_from_xy(1.0, 0.0, 0.3) == pytest.approx(math.pi / 2.0 + 0.3)
    assert isinstance(theta_from_xy(0.5, 0.5, 0.1), float)


def test_theta_rejects_the_origin():
    with pytest.raises(OriginUndefined):
        theta_from_xy(0.0, 0.0, 0.0)
    with pytest.raises(OriginUndefined):
        theta_from_xy(np.array([1.0, 0.0]), np.array([1.0, 0.0]), 0.2)


def test_order_from_coupling_values():
    assert order_from_coupling(0.0, 2) == 2.0
    assert order_from_coupling(0.0, -3) == 3.0
    assert order_from_coupling(1.5, 1) == 2.0
    assert order_from_coupling(0.32, 0) == pytest.approx(0.8, abs=1e-15)


def test_supercritical_attraction_is_rejected():
    with pytest.raises(FallToCenter):
        order_from_coupling(-1.0, 1)
    with pytest.raises(FallToCenter):
        ModeSpec.from_coupling(k=1.0, n=0, C=-0.5)


def test_sector_winding_opposes_the_signed_angular_number():
    assert sector_winding(ModeSpec(k=1.0, n=1, nu=1.0, angular_sign=+1)) == -1
    assert sector_winding(ModeSpec(k=1.0, n=2, nu=2.0, angular_sign=-1)) == +2
    assert sector_winding(ModeSpec(k=1.0, n=0, nu=0.0)) == 0


# -- convention flags -------------------------------------------------------------

def test_flag_labels_round_trip_all_eight():
    combos = ConventionFlags.all_combinations()
    assert len(combos) == 8
    assert len(set(combos)) == 8
    for flags in combos:
        assert ConventionFlags.from_label(flags.label()) == flags


def test_flag_enumeration_order_is_stable():
    combos = ConventionFlags.all_combinations()
    assert combos[0] == ConventionFlags(+1, 1.0, +1)
    assert combos[0] == ConventionFlags()
    assert combos[-1] == ConventionFlags(-1, 0.5, -1)
    # sign varies slowest
    assert all(f.exponent_sign == +1 for f in combos[:4])
    assert all(f.exponent_sign == -1 for f in combos[4:])


def test_flag_label_spellings():
    assert ConventionFlags(-1, 0.5, +1).label() == "s=-1,h=1/2,branch=+"
    assert ConventionFlags.from_label(" s=+1, h=1/2,\tbranch=- ") == \
        ConventionFlags(+1, 0.5, -1)


def test_flag_parsing_rejects_garbage():
    # one text per reading: other spellings of a value, another key order
    # and anything else are refused with one message
    for bad in ("s=+1,h=0.5,branch=-1", "s=+,h=1,branch=+",
                "h=1,s=+1,branch=+", "s=+1,h=1", "s=+1,h=1,branch=+,extra=1",
                "s=2,h=1,branch=+", "s=+1,h=third,branch=+", "nonsense", ""):
        with pytest.raises(ValueError, match=r"is not a flags label such as "
                                             r"s=-1,h=1/2,branch=\+$"):
            ConventionFlags.from_label(bad)


def test_flag_field_validation():
    with pytest.raises(ValueError):
        ConventionFlags(exponent_sign=0)
    with pytest.raises(ValueError):
        ConventionFlags(exponent_half=0.25)
    with pytest.raises(ValueError):
        ConventionFlags(alpha_branch=2)


def test_mode_spec_validation():
    with pytest.raises(ValueError):
        ModeSpec(k=0.0, n=1, nu=1.0)
    with pytest.raises(ValueError):
        ModeSpec(k=-2.0, n=1, nu=1.0)
    with pytest.raises(ValueError):
        ModeSpec(k=1.0, n=1.5, nu=1.0)
    with pytest.raises(ValueError):
        ModeSpec(k=1.0, n=1, nu=-0.5)
    with pytest.raises(ValueError):
        ModeSpec(k=1.0, n=1, nu=1.0, angular_sign=0)
    with pytest.raises(ValueError, match="finite"):
        ModeSpec(k=1.0, n=1, nu=1.0, amp_first=math.nan)
    with pytest.raises(ValueError, match="finite"):
        ModeSpec(k=1.0, n=1, nu=1.0, amp_second=complex(0.0, math.inf))
    # the null state assembles 0 everywhere: nothing to solve or verify
    with pytest.raises(ValueError, match="both 0"):
        ModeSpec(k=1.0, n=1, nu=1.0, amp_first=0.0)


def test_mode_describe_names_the_conventions(mode_c15):
    assert mode_c15.nu == 2.0
    assert "s=-1,h=1/2,branch=+" in mode_c15.describe()


# -- grids -------------------------------------------------------------------------

def test_centered_cartesian_grid_geometry():
    # the bits static_c0's field.csv, residual_ladder.csv and summaries
    # carry
    g = CartesianGrid(6.0, 128)
    assert g.shape == (128, 128)
    assert g.spacing() == (12.0 / 127, 12.0 / 127)
    xs, ys = g.axes()
    for axis in (xs, ys):
        assert np.array_equal(axis, np.linspace(-6.0, 6.0, 128))
    assert g.outer_radius() == math.hypot(6.0, 6.0)
    assert g.describe() == "cartesian 128x128 [-6,6]x[-6,6] rho_min=0"
    # even point count keeps the origin off-node
    assert not np.any(xs == 0.0)


def test_cartesian_active_mask_trims_edges_and_disk():
    g = CartesianGrid(3.0, 16)
    assert g.active_mask(0.0).sum() == 12 * 12
    masked = g.active_mask(1.0)
    assert masked.sum() < 12 * 12
    X, Y = g.xy_mesh()
    assert np.all(np.hypot(X, Y)[masked] >= 1.0)


def test_polar_grid_geometry():
    g = PolarGrid(0.4, 8.0, 96, 64)
    assert g.shape == (96, 64)
    drho, dphi = g.spacing()
    assert drho == pytest.approx(7.6 / 95.0)
    assert dphi == pytest.approx(2.0 * math.pi / 64.0)
    rho, phi = g.axes()
    assert rho[0] == 0.4 and rho[-1] == 8.0
    # no duplicate angular endpoint
    assert phi[-1] == pytest.approx(2.0 * math.pi * 63.0 / 64.0)
    assert g.outer_radius() == 8.0


@pytest.mark.parametrize("grid", [PolarGrid(0.4, 8.0, 96, 80),
                                  PolarGrid(0.0, 4.0, 17, 40)],
                         ids=["annulus", "disk"])
def test_polar_xy_mesh_is_the_meshgrid_form_bit_for_bit(grid):
    # trig of the n_phi angles times each radius rounds exactly as trig
    # over the full (rho, phi) mesh does
    rho, phi = grid.axes()
    R, P = np.meshgrid(rho, phi, indexing="ij")
    X, Y = grid.xy_mesh()
    assert X.shape == Y.shape == grid.shape
    assert X.tobytes() == (R * np.cos(P)).tobytes()
    assert Y.tobytes() == (R * np.sin(P)).tobytes()


def test_polar_disk_grid_masks_the_degenerate_ring():
    g = PolarGrid(0.0, 4.0, 16, 8)
    mask = g.active_mask(g.rho_min)
    assert mask.sum() == 12 * 8
    rho, _ = g.axes()
    assert not np.any(mask[rho == 0.0, :])


def test_grid_validation():
    with pytest.raises(ValueError):
        CartesianGrid(-1.0, 16)
    with pytest.raises(ValueError, match="2 \\* half_width finite"):
        CartesianGrid(1e308, 16)
    with pytest.raises(ValueError):
        CartesianGrid(1.0, 4)
    with pytest.raises(ValueError):
        CartesianGrid(1.0, 16, rho_min=-0.1)
    with pytest.raises(ValueError):
        PolarGrid(-0.1, 8.0, 16, 16)
    with pytest.raises(ValueError):
        PolarGrid(8.0, 8.0, 16, 16)
    with pytest.raises(ValueError):
        PolarGrid(0.4, 8.0, 4, 16)


# -- assembly ----------------------------------------------------------------------

def test_origin_limit_of_the_regular_sector():
    # nu = 0 with n = 0: the radial part tends to J_0(0) = 1, leaving
    # the amplitude times the pure phase factor.
    mode = ModeSpec.from_coupling(k=1.0, n=0, C=0.0, conventions=WINNER)
    assert mode.nu == 0.0
    val = assemble_psi(mode, FlatChain(), 0.0, 0.0, 0.5)
    assert val == 1.0 + 0.0j


def test_origin_zero_for_steep_orders(mode_c15, chain_c15):
    assert assemble_psi(mode_c15, chain_c15, 0.0, 0.0, 0.5) == 0.0


def test_origin_undefined_for_shallow_fractional_order():
    mode = ModeSpec.from_coupling(k=1.0, n=0, C=0.32, conventions=WINNER)
    with pytest.raises(OriginUndefined):
        assemble_psi(mode, FlatChain(), 0.0, 0.0, 0.5)


def test_origin_undefined_with_second_kind_amplitude():
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, amp_second=0.25 + 0j)
    with pytest.raises(OriginUndefined):
        assemble_psi(mode, FlatChain(), 0.0, 0.0, 0.5)


def test_second_kind_needs_a_real_scale_factor(chain_c15):
    # the default chain couples mu to -i alpha / m, so mu(t) leaves the
    # real axis immediately; N_nu of a complex argument is refused
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, amp_second=0.25 + 0j,
                                  conventions=WINNER)
    with pytest.raises(NonPositiveArgument):
        assemble_psi(mode, chain_c15, 1.0, 0.5, 0.5)


def test_second_kind_composition_with_real_scale():
    mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, amp_second=0.25 + 0j,
                                  conventions=WINNER)
    rho = math.hypot(1.1, 0.6)
    got = assemble_psi(mode, FlatChain(), 1.1, 0.6, 0.3)
    theta = theta_from_xy(1.1, 0.6, 0.0)
    radial = bessel_j(2.0, rho) + 0.25 * bessel_n(2.0, rho)
    assert got == pytest.approx(radial * cmath.exp(1j * theta), rel=1e-14)


def test_scalar_and_broadcast_shapes(mode_c15, chain_c15):
    val = assemble_psi(mode_c15, chain_c15, 1.0, 2.0, 0.5)
    assert isinstance(val, complex)
    xs = np.linspace(0.5, 2.0, 4)[:, None]
    ys = np.linspace(-1.0, 1.0, 3)[None, :]
    out = assemble_psi(mode_c15, chain_c15, xs, ys, 0.5)
    assert out.shape == (4, 3)
    assert out[1, 2] == assemble_psi(mode_c15, chain_c15, float(xs[1, 0]),
                                     float(ys[0, 2]), 0.5)


def test_amplitude_linearity_is_exact(mode_c15, chain_c15):
    doubled = dataclasses.replace(mode_c15, amp_first=2.0 + 0j)
    v1 = assemble_psi(mode_c15, chain_c15, 1.3, -0.4, 0.5)
    v2 = assemble_psi(doubled, chain_c15, 1.3, -0.4, 0.5)
    assert v2 == 2.0 * v1


def test_rigid_rotation_shifts_only_the_angular_phase(mode_c15, chain_c15):
    x0, y0, delta, t = 1.1, 0.7, 0.3, 0.5
    xr = x0 * math.cos(delta) - y0 * math.sin(delta)
    yr = x0 * math.sin(delta) + y0 * math.cos(delta)
    ratio = (assemble_psi(mode_c15, chain_c15, xr, yr, t)
             / assemble_psi(mode_c15, chain_c15, x0, y0, t))
    expect = cmath.exp(-1j * mode_c15.angular_sign * mode_c15.n * delta)
    assert abs(ratio - expect) < 1e-10


def test_zero_coupling_reduces_to_integer_order_composition():
    coeffs = make_coeffs(C=0.0)
    traj = make_chain(coeffs)
    mode = ModeSpec.from_coupling(k=1.0, n=2, C=0.0, conventions=WINNER)
    assert mode.nu == 2.0
    xs = np.array([0.5, 1.2, 2.0])
    ys = np.array([0.3, -0.8, 1.1])
    t = 0.6
    got = assemble_psi(mode, traj, xs, ys, t)
    rho = np.hypot(xs, ys)
    alpha = complex(traj.alpha(t))
    mu = complex(traj.mu(t))
    f = complex(traj.phase(t))
    theta = theta_from_xy(xs, ys, float(traj.beta(t)))
    sh = WINNER.exponent_sign * WINNER.exponent_half
    hand = bessel_j(2.0, rho / mu) * np.exp(sh * alpha * rho * rho
                                            + 2j * theta - 1j * f)
    assert np.max(np.abs(got - hand)) < 1e-12


def test_zero_field_keeps_the_frame_and_angle_fixed():
    coeffs = make_coeffs(B=0.0)
    traj = make_chain(coeffs)
    # beta integrates a vanishing rate and must come back exactly 0.0
    assert traj.beta(0.37) == 0.0
    assert traj.beta(1.0) == 0.0
    X, Y = CartesianGrid(3.0, 16).xy_mesh()
    assert np.array_equal(theta_from_xy(X, Y, 0.0), np.arctan2(X, Y))


# -- sampled fields -----------------------------------------------------------------

def test_sample_field_shape_and_provenance(mode_c15, chain_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    field = sample_field(mode_c15, chain_c15, grid, (0.0, 0.5))
    assert field.values.shape == (2, 16, 16)
    assert field.times == (0.0, 0.5)
    assert field.mode == mode_c15


def test_sample_field_propagates_origin_policy():
    mode = ModeSpec.from_coupling(k=1.0, n=0, C=0.32, conventions=WINNER)
    disk = PolarGrid(0.0, 4.0, 16, 16)
    with pytest.raises(OriginUndefined):
        sample_field(mode, FlatChain(), disk, (0.5,))


def test_wave_field_validation(mode_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    good = np.zeros((1, 16, 16), dtype=complex)
    with pytest.raises(ValueError):
        WaveField(grid=grid, times=(0.0, 0.5), values=good, mode=mode_c15)
    bad = good.copy()
    bad[0, 3, 3] = complex(math.inf, 0.0)
    with pytest.raises(NonFinite):
        WaveField(grid=grid, times=(0.0,), values=bad, mode=mode_c15)


def test_wave_field_csv_layout(tmp_path, mode_c15, chain_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    field = sample_field(mode_c15, chain_c15, grid, (0.0, 0.5))
    path = tmp_path / "field.csv"
    field.write_csv(path, digest="a" * 64)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_digest: " + "a" * 64
    assert lines[1].startswith("# mode: ")
    assert lines[2].startswith("# grid: ")
    assert lines[3] == "x,y,t,re_psi,im_psi,abs2"
    assert len(lines) == 4 + 2 * 16 * 16
    x, y, t, re, im, ab2 = map(float, lines[4].split(","))
    assert ab2 == pytest.approx(re * re + im * im, rel=1e-15)


def _assemble_per_node(mode, traj, x, y, t):
    """The assembly as it was before radii were deduplicated: the radial
    factor evaluated at every node, kept as the reference."""
    xa, ya = np.broadcast_arrays(np.asarray(x, dtype=float),
                                 np.asarray(y, dtype=float))
    rho = np.hypot(xa, ya)
    beta = float(traj.beta(t))
    alpha = complex(traj.alpha(t))
    mu = complex(traj.mu(t))
    f = complex(traj.phase(t))
    sh = mode.conventions.exponent_sign * mode.conventions.exponent_half
    out = np.zeros(rho.shape, dtype=complex)
    origin = rho == 0.0
    if np.any(origin):
        assert mode.nu == 0.0 and mode.n == 0
        out[origin] = mode.amp_first * np.exp(-1j * f)
    body = ~origin
    rb = rho[body]
    radial = mode.amp_first * bessel_j(mode.nu, (mode.k / mu) * rb)
    if mode.amp_second != 0:
        radial = radial + mode.amp_second * bessel_n(mode.nu,
                                                     rb * (mode.k / mu.real))
    theta = theta_from_xy(xa[body], ya[body], beta)
    out[body] = radial * np.exp((sh * alpha) * rb * rb
                                + 1j * float(mode.angular_sign * mode.n) * theta
                                - 1j * f)
    return out


class RealScaleChain(FlatChain):
    """Real scale factor mu with a nontrivial envelope, frame and phase,
    so a second-kind amplitude is allowed."""

    def beta(self, t):
        return 0.3

    def alpha(self, t):
        return 0.2 + 0.1j

    def mu(self, t):
        return 1.3 + 0.0j

    def phase(self, t):
        return 0.1 - 0.05j


DEDUP_POLAR = PolarGrid(0.4, 8.0, 256, 256)


@pytest.mark.parametrize("case", ["polar_complex_mu", "second_kind_real_mu",
                                  "cartesian_origin_nu0"])
def test_deduplicated_radial_factor_matches_per_node(case, chain_c15):
    if case == "polar_complex_mu":
        mode = ModeSpec.from_coupling(k=1.0, n=1, C=1.5, conventions=WINNER)
        traj, grid = chain_c15, DEDUP_POLAR
    elif case == "second_kind_real_mu":
        mode = ModeSpec.from_coupling(k=1.0, n=2, C=0.7, amp_second=0.25 - 0.5j,
                                      conventions=WINNER)
        traj, grid = RealScaleChain(), PolarGrid(0.4, 8.0, 96, 80)
    else:
        mode = ModeSpec.from_coupling(k=1.0, n=0, C=0.0, conventions=WINNER)
        traj, grid = chain_c15, CartesianGrid(6.0, 65)
    X, Y = grid.xy_mesh()
    if case == "cartesian_origin_nu0":
        assert np.count_nonzero(np.hypot(X, Y) == 0.0) == 1
    for t in (0.0, 0.5):
        ref = _assemble_per_node(mode, traj, X, Y, t)
        got = assemble_psi(mode, traj, X, Y, t)
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-15 * np.max(np.abs(ref))


def test_radial_factor_is_evaluated_once_per_distinct_radius(
        monkeypatch, mode_c15, chain_c15):
    sizes = []

    def recording(nu, z, *args, **kwargs):
        sizes.append(np.size(z))
        return bessel_j(nu, z, *args, **kwargs)

    monkeypatch.setattr("invosc.wavefunction.bessel_j", recording)
    X, Y = DEDUP_POLAR.xy_mesh()
    distinct = np.unique(np.hypot(X, Y)).size
    sample_field(mode_c15, chain_c15, DEDUP_POLAR, (0.0, 0.5, 1.0))
    assert sizes == [distinct] * 3
    assert distinct < X.size // 50


def test_one_geometry_serves_modes_that_differ_in_amplitude(mode_c15,
                                                           chain_c15):
    # the memo key holds the amplitudes, so a second mode on the same
    # geometry gets its own radial factor, not the first mode's
    grid = PolarGrid(0.4, 8.0, 32, 24)
    geometry = GridGeometry(*grid.xy_mesh(), sector_winding(mode_c15))
    other = dataclasses.replace(mode_c15, amp_first=2.5 - 1.0j)
    for mode in (mode_c15, other, mode_c15):
        shared = assemble_psi(mode, chain_c15, geometry.x, geometry.y, 0.5,
                              geometry=geometry)
        alone = assemble_psi(mode, chain_c15, geometry.x, geometry.y, 0.5)
        assert np.array_equal(shared, alone)
    assert len(geometry.radial) == 2


def test_temporal_ladder_shares_the_factor_at_the_residual_time(
        monkeypatch, mode_c15, chain_c15, coeffs_c15):
    # each rung evaluates t - dt, t + dt and t; the rungs share t
    calls = []

    def counting(nu, z, *args, **kwargs):
        calls.append(nu)
        return bessel_j(nu, z, *args, **kwargs)

    monkeypatch.setattr("invosc.wavefunction.bessel_j", counting)
    schrodinger_residual(mode_c15, chain_c15, coeffs_c15, RESIDUAL_GRID,
                         (0.4,), steps=COARSE_STEPS)
    assert len(calls) == 2 * len(COARSE_STEPS) + 1


@pytest.fixture
def geometry_builds(monkeypatch):
    """Shapes of the GridGeometry objects built while the test runs."""
    builds = []
    post_init = GridGeometry.__post_init__

    def counting(self):
        post_init(self)
        builds.append(self.shape)

    monkeypatch.setattr(GridGeometry, "__post_init__", counting)
    return builds


def test_sample_field_builds_one_geometry(geometry_builds, mode_c15,
                                          chain_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    sample_field(mode_c15, chain_c15, grid, (0.0, 0.5, 1.0))
    assert geometry_builds == [grid.shape]


def test_temporal_ladder_builds_one_geometry(geometry_builds, mode_c15,
                                             chain_c15, coeffs_c15):
    schrodinger_residual(mode_c15, chain_c15, coeffs_c15, RESIDUAL_GRID,
                         (0.4, 0.6), steps=COARSE_STEPS)
    assert geometry_builds == [RESIDUAL_GRID.shape]


def test_convention_scan_shares_one_geometry(geometry_builds, mode_c15,
                                             coeffs_c15, chain_c15):
    chains = {+1: chain_c15, -1: make_chain(coeffs_c15, branch=-1)}
    outcome = convention_scan(mode_c15, chains.__getitem__, coeffs_c15,
                              RESIDUAL_GRID, (0.4,), step=4e-2)
    assert outcome.winner == WINNER
    assert geometry_builds == [RESIDUAL_GRID.shape]


def test_residual_of_a_given_field_builds_no_geometry(geometry_builds,
                                                      mode_c15, chain_c15,
                                                      coeffs_c15):
    # a geometry serves assembly only and the mask is the grid's, so the
    # residual of a psi callable builds nothing per node; fed the same
    # field, it reads what the residual of the mode reads
    grid = PolarGrid(0.4, 8.0, 16, 16)
    geometry = GridGeometry(*grid.xy_mesh(), sector_winding(mode_c15))

    def assembled(X, Y, t):
        return assemble_psi(mode_c15, chain_c15, X, Y, t, geometry=geometry)

    geometry_builds.clear()
    given = schrodinger_residual(None, None, coeffs_c15, grid, (0.4, 0.6),
                                 steps=COARSE_STEPS, psi=assembled)
    assert geometry_builds == []
    assert given == schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                                         grid, (0.4, 0.6), steps=COARSE_STEPS,
                                         geometry=geometry)


def test_geometry_must_match_the_nodes_and_the_mode(mode_c15, chain_c15,
                                                    coeffs_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    geometry = GridGeometry(*grid.xy_mesh(), sector_winding(mode_c15))
    X, Y = grid.xy_mesh()
    assert np.array_equal(
        assemble_psi(mode_c15, chain_c15, X, Y, 0.5, geometry=geometry),
        assemble_psi(mode_c15, chain_c15, X, Y, 0.5))
    with pytest.raises(ValueError):
        assemble_psi(mode_c15, chain_c15, X[:-1], Y[:-1], 0.5,
                     geometry=geometry)
    with pytest.raises(ValueError):
        assemble_psi(mode_c15, chain_c15, X[:, :1], Y[:, :1], 0.5,
                     geometry=geometry)
    flipped = dataclasses.replace(mode_c15, angular_sign=-1)
    with pytest.raises(ValueError):
        assemble_psi(flipped, chain_c15, X, Y, 0.5, geometry=geometry)
    with pytest.raises(ValueError):
        schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                             PolarGrid(0.4, 8.0, 16, 20), (0.5,),
                             geometry=geometry)


def _write_csv_per_row(field, path, digest):
    """WaveField.write_csv as it was before chunked formatting, kept as
    the byte reference."""
    X, Y = field.grid.xy_mesh()
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest: {digest}\n")
        fh.write(f"# mode: {field.mode.describe()}\n")
        fh.write(f"# grid: {field.grid.describe()}\n")
        fh.write("x,y,t,re_psi,im_psi,abs2\n")
        for i, t in enumerate(field.times):
            v = field.values[i].ravel()
            for xx, yy, vv in zip(X.ravel(), Y.ravel(), v):
                fh.write(f"{xx:.17g},{yy:.17g},{t:.17g},"
                         f"{vv.real:.17g},{vv.imag:.17g},"
                         f"{(vv.real * vv.real + vv.imag * vv.imag):.17g}\n")


_CARTESIAN = CartesianGrid(2.0, 69)
_POLAR = PolarGrid(0.0, 7.3, 67, 71)


@pytest.mark.parametrize("digest,grid", [
    pytest.param("c" * 64, _CARTESIAN, id="c" * 64),
    pytest.param("c" * 64, _POLAR, id="c" * 64 + "-polar"),
])
def test_chunked_field_csv_matches_the_per_row_writer(tmp_path, mode_c15,
                                                      digest, grid):
    # 69 x 69 = 4761 and 67 x 71 = 4757 rows per slice: one full chunk
    # plus a partial tail
    times = (0.1, 1.0 / 3.0, 0.0)
    rng = np.random.default_rng(7)
    shape = (len(times), *grid.shape)
    values = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 8, shape)
              + 1j * rng.standard_normal(shape))
    flat = values.reshape(len(times), -1)
    flat[0, 0] = complex(-0.0, 1e-300)
    flat[0, 1] = complex(1e300, -0.0)
    flat[1, -1] = complex(-1e-300, -1e300)
    flat[2, 4095] = complex(-0.0, -0.0)
    flat[2, 4096] = complex(1e-300, 1e300)
    field = WaveField(grid=grid, times=times, values=values, mode=mode_c15)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    with np.errstate(over="ignore"):       # |1e300|^2 is written as inf
        field.write_csv(new, digest=digest)
        _write_csv_per_row(field, old, digest=digest)
    assert new.read_bytes() == old.read_bytes()
    assert (len(new.read_text().splitlines())
            == 4 + 3 * math.prod(grid.shape))


class _ListGrid:
    """The grid interface the field writer reads, over given node
    coordinates: a shape of (rows, 1) holds any number of rows."""

    def __init__(self, x, y):
        self.x, self.y = np.asarray(x, float), np.asarray(y, float)
        self.shape = (self.x.size, 1)

    def describe(self):
        return f"list {self.x.size}"

    def xy_mesh(self):
        return self.x[:, None], self.y[:, None]


_FALLBACK = [5e-324, -2.5e-310, 1000000000000000.25, -0.0, 0.0,
             np.nextafter(1e16, 0.0), np.nextafter(1e-5, 1.0),
             -np.nextafter(1e17, np.inf), 1e300]


@pytest.mark.parametrize("digest", ["c" * 64], ids=["digest"])
@pytest.mark.parametrize("rows", [1, 4096, 4097])
def test_chunk_edges_match_the_per_row_writer(tmp_path, mode_c15, rows,
                                              digest):
    # one row, exactly one chunk and one chunk and a row per time; the
    # values the kernel hands to Python's '%.17g' sit on the rows at the
    # chunk edges, in the lead columns and in the field
    times = (0.25, 1e-300, -0.0)
    rng = np.random.default_rng(rows)
    x, y = rng.standard_normal((2, rows)) * 10.0 ** rng.uniform(-5, 5, rows)
    values = (rng.standard_normal((3, rows, 1))
              + 1j * rng.standard_normal((3, rows, 1)))
    for i, edge in enumerate(sorted({0, rows - 1, min(4095, rows - 1),
                                     min(4096, rows - 1)})):
        a, b = _FALLBACK[i % 9], _FALLBACK[(i + 4) % 9]
        x[edge], y[edge] = a, b
        values[:, edge, 0] = complex(b, a), complex(-a, b), complex(a, -b)
    field = WaveField(grid=_ListGrid(x, y), times=times, values=values,
                      mode=mode_c15)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    with np.errstate(over="ignore", under="ignore"):
        field.write_csv(new, digest=digest)
        _write_csv_per_row(field, old, digest=digest)
    assert new.read_bytes() == old.read_bytes()
    assert len(new.read_text().splitlines()) == 4 + 3 * rows


def test_field_csv_writer_peak_memory(tmp_path, mode_c15):
    # x, y text is held once per grid as fixed-width arrays; with the
    # kernel's temporaries the writer must stay under the 5.29 MB that the
    # writer built on Python's '%.17g' peaked at on this field
    grid = PolarGrid(0.4, 8.0, 256, 256)
    rng = np.random.default_rng(7)
    shape = (3, *grid.shape)
    values = (rng.standard_normal(shape) * 10.0 ** rng.uniform(-8, 0, shape)
              + 0.01j * rng.standard_normal(shape))
    field = WaveField(grid=grid, times=(0.0, 0.5, 1.0), values=values,
                      mode=mode_c15)
    path = tmp_path / "field.csv"
    field.write_csv(path, digest="c" * 64)     # tables built outside
    tracemalloc.start()
    try:
        field.write_csv(path, digest="c" * 64)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.29e6


# -- residual ladder ----------------------------------------------------------------

def test_known_plane_wave_passes_the_operator():
    # free particle: psi = exp[i(p x + q y - E t)] solves the equation
    # exactly, so the only residual is stencil truncation
    coeffs = make_coeffs(w=0.0, B=0.0, C=0.0)
    p, q = 1.3, -0.7
    energy = 0.5 * (p * p + q * q)

    def plane(X, Y, t):
        return np.exp(1j * (p * X + q * Y - energy * t))

    grid = CartesianGrid(0.016, 33)
    rep = schrodinger_residual(None, None, coeffs, grid, (0.5,),
                               steps=(2e-4,), psi=plane)
    assert rep.rel_inf < 3e-8


def _rolled_stencils(a, h, axis):
    """(d1, d2) from np.roll copies, every node wrapped: the reference for
    the residual's stencils."""
    p2, p1, m1, m2 = (np.roll(a, -off, axis=axis) for off in (2, 1, -1, -2))
    return ((-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h),
            (-p2 + 16.0 * p1 - 30.0 * a + 16.0 * m1 - m2) / (12.0 * h * h))


@pytest.mark.parametrize("periodic", [True, False],
                         ids=["periodic", "bounded"])
@pytest.mark.parametrize("axis", [0, 1])
def test_derivatives_match_the_rolled_stencils(axis, periodic):
    rng = np.random.default_rng(11)
    a = rng.standard_normal((13, 11)) + 1j * rng.standard_normal((13, 11))
    edges = [slice(None)] * 2
    for want, (c2, c1) in zip(_rolled_stencils(a, 0.3, axis),
                              [(0.0, 1.0), (1.0, 0.0)]):
        centre, weights = _folded_weights(c2, c1, 0.3)
        got = centre * a
        if not periodic:
            # a bounded axis has no stencil within two nodes of its edges,
            # and the stencil leaves them as it found them
            want = np.moveaxis(want.copy(), axis, 0)
            want[:2] = want[-2:] = 0.0
            want = np.moveaxis(want, 0, axis)
            for edge in (slice(0, 2), slice(-2, None)):
                edges[axis] = edge
                got[tuple(edges)] = 0.0
        _add_stencil(got, a, weights, axis, periodic)
        # folded weights round each term once instead of the sum: a few
        # ulps of the largest term
        bound = (abs(centre) + sum(map(abs, weights))) * np.max(np.abs(a))
        assert got.shape == a.shape
        assert np.max(np.abs(got - want)) <= 8 * np.finfo(float).eps * bound


def _derivatives(a, h, axis, periodic):
    """4th-order first and second derivatives of a along one axis, each
    padded back with zeros on a bounded axis: the separate stencils the
    folded one replaced."""
    pad = [(0, 0)] * a.ndim
    pad[axis] = (2, 2)
    src = np.pad(a, pad, mode="wrap") if periodic else a
    n = a.shape[axis] if periodic else a.shape[axis] - 4

    def shifted(off):
        s = [slice(None)] * a.ndim
        s[axis] = slice(2 + off, 2 + off + n)
        return src[tuple(s)]

    p2, p1, c, m1, m2 = (shifted(off) for off in (2, 1, 0, -1, -2))
    # a bounded result is padded before the next is built, so only one
    # interior-sized array is alive at a time
    d1 = (-p2 + 8.0 * p1 - 8.0 * m1 + m2) / (12.0 * h)
    if not periodic:
        d1 = np.pad(d1, pad)
    d2 = (-p2 + 16.0 * p1 - 30.0 * c + 16.0 * m1 - m2) / (12.0 * h * h)
    if not periodic:
        d2 = np.pad(d2, pad)
    return d1, d2


def _reference_hamiltonian(values, grid, geometry, coeffs, t):
    """H Psi from the separate derivatives, summed term by term: the
    operator as it was before its weights were folded per axis."""
    m, W2, rate = coefficient_terms(coeffs, t)
    C = coeffs.coupling

    if isinstance(grid, PolarGrid):
        drho, dphi = grid.spacing()
        rho, _ = grid.axes()
        r_col = rho[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            inv_r = np.where(r_col > 0.0, 1.0 / r_col, 0.0)
        # summed in place, in the order d_rr + inv_r d_r + inv_r^2 d_pp,
        # so the bits match the plain sum with fewer full-grid temporaries
        d_r, lap = _derivatives(values, drho, 0, periodic=False)
        lap += inv_r * d_r
        del d_r
        d_p, d_pp = _derivatives(values, dphi, 1, periodic=True)
        lap += inv_r * inv_r * d_pp
        del d_pp
        # y d_x - x d_y = -d_phi
        cross = (-1j * rate) * d_p if rate != 0.0 else 0.0
        rho2 = r_col * r_col
        pot = 0.5 * m * W2 * rho2
        if C != 0.0:
            pot = pot + (C / m) * inv_r * inv_r
    else:
        hx, hy = grid.spacing()
        X, Y = geometry.x, geometry.y
        d_x, lap = _derivatives(values, hx, 0, periodic=False)
        d_y, d_yy = _derivatives(values, hy, 1, periodic=False)
        lap += d_yy
        del d_yy
        cross = (1j * rate) * (Y * d_x - X * d_y) if rate != 0.0 else 0.0
        rho2 = X * X + Y * Y
        pot = 0.5 * m * W2 * rho2
        if C != 0.0:
            with np.errstate(divide="ignore"):
                inv_r2 = np.where(rho2 > 0.0, 1.0 / rho2, 0.0)
            pot = pot + (C / m) * inv_r2

    return (-0.5 / m) * lap + cross + pot * values


@pytest.mark.parametrize("grid,C", [
    (PolarGrid(0.4, 8.0, 48, 40), 1.5),
    (CartesianGrid(6.0, 44, rho_min=0.5), 1.5),
    (PolarGrid(0.0, 6.0, 40, 36), 0.0),
    (CartesianGrid(6.0, 41), 0.0),
], ids=["polar", "cartesian", "polar-disk-C0", "cartesian-origin-C0"])
def test_folded_operator_matches_the_separate_derivatives(grid, C):
    # random nodes weigh every stencil term alike; a smooth field makes
    # the terms cancel, which is where folded weights round differently
    coeffs = make_coeffs(m=1.3, w=0.9, B=0.8, C=C)
    assert coefficient_terms(coeffs, 0.4)[2] != 0.0
    rng = np.random.default_rng(5)
    X, Y = grid.xy_mesh()
    smooth = np.exp(-0.2 * (X * X + Y * Y) + 1j * (0.7 * X - 0.4 * Y))
    mask = grid.active_mask(grid.rho_min)
    geometry = GridGeometry(*grid.xy_mesh(), 0)
    for values in (rng.standard_normal(grid.shape)
                   + 1j * rng.standard_normal(grid.shape), smooth):
        want = _reference_hamiltonian(values, grid, geometry, coeffs,
                                      0.4)[mask]
        got = _apply_hamiltonian(values, grid, coeffs, 0.4)[mask]
        assert np.max(np.abs(got - want)) <= 1e-12 * np.max(np.abs(want))


def test_operator_applies_once_per_residual_time(monkeypatch, mode_c15,
                                                 chain_c15, coeffs_c15):
    calls = count_calls(monkeypatch, wavefunction, ["_apply_hamiltonian"])
    schrodinger_residual(mode_c15, chain_c15, coeffs_c15, RESIDUAL_GRID,
                         (0.4, 0.6), steps=COARSE_STEPS)
    assert calls["_apply_hamiltonian"] == 2


def test_shared_operator_leaves_each_rung_as_if_alone(mode_c15, chain_c15,
                                                      coeffs_c15):
    times = (0.4, 0.6)
    ladder = schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                                  RESIDUAL_GRID, times, steps=COARSE_STEPS)
    for rung, step in zip(ladder.rungs, COARSE_STEPS):
        alone = schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                                     RESIDUAL_GRID, times, steps=(step,))
        assert rung == alone.rungs[0]
    assert ladder.per_time == alone.per_time


def test_temporal_ladder_converges_at_second_order(mode_c15, chain_c15,
                                                   coeffs_c15):
    rep = schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                               RESIDUAL_GRID, (0.4,), steps=COARSE_STEPS)
    values = [r.rel_inf for r in rep.rungs]
    assert values == sorted(values, reverse=True)
    assert rep.rel_inf < 3e-4
    assert 1.7 < rep.order < 2.3
    assert len(rep.per_time) == 1


def test_spatial_ladder_converges_at_fourth_order(mode_c15, chain_c15,
                                                  coeffs_c15):
    # one rung per grid, the time step slaved to spacing^2 so that the
    # 4th-order spatial truncation stays in charge
    rungs = []
    for f in (1, 2, 4):
        grid = PolarGrid(0.4, 8.0, 48 * f, 48 * f)
        h0 = grid.spacing()[0]
        rungs += schrodinger_residual(mode_c15, chain_c15, coeffs_c15, grid,
                                      (0.4,), steps=(h0 * h0,)).rungs
    order = np.mean([math.log(r0.rel_inf / r1.rel_inf)
                     / math.log(r0.spacing / r1.spacing)
                     for r0, r1 in zip(rungs, rungs[1:])])
    assert 3.4 < order < 4.6
    r = [rung.rel_inf for rung in rungs]
    assert 16.0 * 0.7 < r[0] / r[1] < 16.0 * 1.3
    assert 16.0 * 0.7 < r[1] / r[2] < 16.0 * 1.3


def test_corrupted_width_function_is_loud(mode_c15, chain_c15, coeffs_c15):
    step = (2e-3,)
    clean = schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                                 RESIDUAL_GRID, (0.4,), steps=step)
    bad = schrodinger_residual(mode_c15, ScaledAlpha(chain_c15, 1.01),
                               coeffs_c15, RESIDUAL_GRID, (0.4,), steps=step)
    assert bad.rel_inf > 100.0 * clean.rel_inf


def test_literal_sign_reading_fails_the_operator(mode_c15, chain_c15,
                                                 coeffs_c15):
    literal = dataclasses.replace(mode_c15, conventions=ConventionFlags())
    clean = schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                                 RESIDUAL_GRID, (0.4,), steps=(4e-2,))
    bad = schrodinger_residual(literal, chain_c15, coeffs_c15,
                               RESIDUAL_GRID, (0.4,), steps=(4e-2,))
    assert bad.rel_inf > 10.0 * clean.rel_inf


def test_static_field_fails_the_ladder_with_report(mode_c15, coeffs_c15):
    # the ladder does not decrease, so the report comes back with no order
    # (verify turns that into GridTooCoarse after writing the table)
    grid = PolarGrid(0.4, 8.0, 16, 16)
    report = schrodinger_residual(mode_c15, FlatChain(), coeffs_c15, grid,
                                  (0.5,), steps=(8e-3, 4e-3))
    assert report.order is None
    assert len(report.rungs) == 2
    # i d/dt of a static field is zero, so the residual IS the H norm
    assert all(r.rel_inf == 1.0 for r in report.rungs)


def test_residual_stencil_must_stay_inside_the_span(mode_c15, chain_c15,
                                                    coeffs_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    with pytest.raises(OutOfDomain):
        schrodinger_residual(mode_c15, chain_c15, coeffs_c15, grid, (1.0,),
                             steps=(8e-3,))
    with pytest.raises(OutOfDomain):
        schrodinger_residual(mode_c15, chain_c15, coeffs_c15, grid, (0.0,),
                             steps=(8e-3,))


def test_residual_argument_validation(mode_c15, chain_c15, coeffs_c15):
    grid = PolarGrid(0.4, 8.0, 16, 16)
    with pytest.raises(ValueError):
        schrodinger_residual(mode_c15, chain_c15, coeffs_c15, grid, (0.5,),
                             steps=(0.0,))
    # an empty ladder has no finest rung to report per time
    with pytest.raises(ValueError, match="one or more"):
        schrodinger_residual(mode_c15, chain_c15, coeffs_c15, grid, (0.5,),
                             steps=())
    with pytest.raises(ValueError):
        schrodinger_residual(None, None, coeffs_c15, grid, (0.5,))


def test_residual_report_formatting(tmp_path, mode_c15, chain_c15,
                                    coeffs_c15):
    rep = schrodinger_residual(mode_c15, chain_c15, coeffs_c15,
                               RESIDUAL_GRID, (0.4, 0.6), steps=(4e-2, 2e-2))
    line = rep.summary_line()
    assert "levels:2" in line and "refinement:temporal" in line
    assert f"order:{rep.order:.4f}" in line
    path = tmp_path / "ladder.csv"
    rep.write_csv(path, digest="b" * 64)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_digest: " + "b" * 64
    assert lines[2] == "level,dt,spacing,rel_inf,rel_l2"
    assert lines[3].startswith("0,")
    # two rung rows, then the per-time block for the finest level
    assert lines[5] == "time,rel_inf,rel_l2,hnorm_inf,hnorm_l2"
    assert len(lines) == 6 + 2

    bare = ResidualReport(rungs=rep.rungs, order=None, grid_desc="g",
                          rho_min=0.4)
    assert "order:none" in bare.summary_line()


# -- convention scan -----------------------------------------------------------------

@pytest.fixture(scope="module")
def scan_outcome(mode_c15, coeffs_c15):
    def factory(branch):
        return make_chain(coeffs_c15, branch=branch)
    return convention_scan(mode_c15, factory, coeffs_c15, RESIDUAL_GRID,
                           (0.4,), step=4e-2)


def test_scan_selects_the_decaying_half_exponent(scan_outcome):
    assert scan_outcome.winner == WINNER
    assert scan_outcome.margin > 10.0
    assert len(scan_outcome.rows) == 8


def test_scan_winner_has_a_decaying_envelope(scan_outcome):
    by_flags = {row.flags: row for row in scan_outcome.rows}
    assert by_flags[scan_outcome.winner].envelope_decays
    assert not by_flags[ConventionFlags()].envelope_decays


def test_scan_table_csv_marks_one_winner(tmp_path, scan_outcome):
    path = tmp_path / "scan.csv"
    scan_outcome.write_csv(path, digest="e" * 64)
    lines = path.read_text().splitlines()
    assert lines[0] == "# config_digest: " + "e" * 64
    assert lines[1].startswith("# winner: s=-1,h=1/2,branch=+ margin: ")
    assert lines[2] == ("exponent_sign,exponent_half,alpha_branch,"
                        "rel_inf,rel_l2,envelope_decays,winner")
    rows = [line.split(",") for line in lines[3:]]
    assert len(rows) == 8
    assert sum(int(r[-1]) for r in rows) == 1


def test_indistinguishable_readings_raise_inconclusive(mode_c15, coeffs_c15):
    # with alpha frozen at 0 the eight readings assemble the same field,
    # so no residual can separate them: the tied table comes back, and
    # the commands' 2x rule refuses it
    def factory(branch):
        return FlatChain()

    grid = PolarGrid(0.4, 8.0, 16, 16)
    outcome = convention_scan(mode_c15, factory, coeffs_c15, grid, (0.5,),
                              step=8e-3)
    rows = outcome.rows
    assert len(rows) == 8
    assert len({row.rel_inf for row in rows}) == 1
    assert outcome.margin == 1.0
    with pytest.raises(Inconclusive, match="within 2x of runner-up"):
        _require_decisive(outcome)


def test_residual_of_a_vanishing_field_is_undefined(coeffs_c15):
    # a field that is 0 everywhere has H Psi = 0 on every active node, so
    # there is no scale to measure the residual against; ModeSpec refuses
    # the null state, so only a psi callable reaches this
    def zero(x, y, t):
        return np.zeros(np.shape(x), dtype=complex)

    with pytest.raises(ZeroNorm, match="H Psi vanishes"):
        schrodinger_residual(None, None, coeffs_c15,
                             PolarGrid(0.4, 8.0, 16, 16), (0.5,),
                             steps=(8e-3,), psi=zero)
