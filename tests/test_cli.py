"""End-to-end command tests, in process, against the packaged configs.

Each test gets its own output directory because artifacts embed the
config digest and the commands refuse to mix runs.  Config variants are
written as patched copies of the packaged files; every patch asserts
its needle first so a config edit cannot silently turn a test into a
no-op.

A coarse dt does not destabilize the oracle: the midpoint scheme is
unitary at any step size (measured drift ~1e-15 at dt = 0.05), so the
coarse-dt runs pass.  Its Unstable exit is reached by a zgtsv made to
fail or to break unitarity on purpose.
"""

import inspect
import itertools
import math
import os
import re
import socket
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import lapack

import invosc
from invosc.bessel import bessel_j, bessel_n
from invosc.cli import (EXIT_INCONCLUSIVE, EXIT_LADDER, EXIT_OK, EXIT_PARSE,
                        EXIT_SOLVER, EXIT_UNSTABLE, EXIT_VERIFY, OUT_DIR_ENV,
                        _GRIDS, RunConfig, _OutputLock, main)
from invosc.oracle import snap_times

from conftest import count_calls

CONFIGS = Path(invosc.__file__).parent / "configs"
C0 = str(CONFIGS / "static_c0.cfg")
C15 = str(CONFIGS / "static_c15.cfg")
WINNER_LABEL = "s=-1,h=1/2,branch=+"


def patched(text, old, new):
    assert old in text, f"config patch needle missing: {old!r}"
    return text.replace(old, new)


def write_cfg(tmp_path, text, name="case.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


@pytest.fixture()
def c0_text():
    return Path(C0).read_text()


@pytest.fixture()
def winner_text(c0_text):
    """static_c0 with its flags set to the scan's winner: no scan runs."""
    return patched(c0_text, "flags = scan", f"flags = {WINNER_LABEL}")


@pytest.fixture()
def winner_cfg(tmp_path_factory, winner_text):
    return write_cfg(tmp_path_factory.mktemp("cfg"), winner_text)


def test_exit_codes_are_the_documented_contract():
    assert (EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_VERIFY,
            EXIT_INCONCLUSIVE, EXIT_UNSTABLE, EXIT_LADDER) == (0, 2, 3, 4,
                                                               5, 6, 7)


# -- solve -------------------------------------------------------------------------

def test_solve_resolves_scan_and_writes_artifacts(tmp_path, capsys):
    rc = main(["solve", "--config", C0, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    for name in ("trajectory.csv", "field.csv", "scan_table.csv",
                 "summary.txt"):
        assert (tmp_path / name).exists(), name
    summary = (tmp_path / "summary.txt").read_text()
    assert f"flags = {WINNER_LABEL}" in summary
    assert "flags_source = scan(margin=" in summary
    assert "sector_winding = -1" in summary
    out = capsys.readouterr().out
    assert "solve: flags " + WINNER_LABEL in out
    # artifacts embed the digest of the config that made them
    first = (tmp_path / "trajectory.csv").read_text().splitlines()[0]
    assert first.startswith("# config_digest: ") and len(first) == 17 + 64


def test_solve_is_byte_deterministic(tmp_path, winner_cfg):
    d1, d2 = tmp_path / "a", tmp_path / "b"
    d1.mkdir(), d2.mkdir()
    for d in (d1, d2):
        rc = main(["solve", "--config", winner_cfg, "--out", str(d),
                   "--quiet"])
        assert rc == EXIT_OK
    for name in ("trajectory.csv", "field.csv", "summary.txt"):
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes(), name


def test_solve_reuses_the_scanned_chains(tmp_path, monkeypatch):
    # static_c0 resolves its flags by scan, which solves both branches;
    # the winning branch's chain is then reused, not solved again
    import invosc.cli as cli
    alpha0s = []
    real = cli.solve_chain

    def counting(*args, **kwargs):
        alpha0s.append(kwargs["alpha0"])
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "solve_chain", counting)
    rc = main(["solve", "--config", C0, "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_OK
    assert len(alpha0s) == 2 and alpha0s[0] != alpha0s[1]


@pytest.mark.parametrize("command,needle", [
    ("solve", "field_times = 0.0, 0.5, 1.0"),
    ("oracle", "record_times = 0.0, 0.5, 1.0"),
])
def test_nan_time_is_outside_the_span(tmp_path, command, needle, capsys):
    # the reader refuses a nan time at the key's line, before any span
    # check compares it
    new = needle.replace("0.5, 1.0", "nan")
    text = patched(Path(C15).read_text(), needle, new)
    line = text.splitlines().index(new) + 1
    out_dir = tmp_path / "run"
    rc = main([command, "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir), "--quiet"])
    assert rc == EXIT_PARSE
    key, value = new.split(" = ")
    assert capsys.readouterr().err == (
        f"error: line {line}: {key} = {value!r} is not finite\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("command,needle,times", [
    ("solve", "field_times = 0.0, 0.5, 1.0", "0.0, 0.5, 2.0"),
    ("solve", "field_times = 0.0, 0.5, 1.0", "-1e-11, 0.5"),
    ("oracle", "record_times = 0.0, 0.5, 1.0", "0.0, 0.5, 1.5"),
    ("oracle", "record_times = 0.0, 0.5, 1.0", "1.0001001"),
])
def test_out_of_span_time_is_rejected_at_its_line(tmp_path, c0_text, capsys,
                                                  command, needle, times):
    # both used to write scan_table.csv (and solve trajectory.csv) before
    # the field or the snapshots failed with exit 3
    key = needle.split(" = ")[0]
    text = patched(c0_text, needle, f"{key} = {times}")
    line = text.splitlines().index(f"{key} = {times}") + 1
    out_dir = tmp_path / "run"
    rc = main([command, "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: ") and "span" in err
    assert not out_dir.exists()


@pytest.mark.parametrize("needle,times", [
    # within DenseFunction's slack of 1e-12 of the span
    ("field_times = 0.0, 0.5, 1.0", "-5e-13, 0.5, 1.0000000000005"),
    # within half of the oracle's 2e-4 step of its first and last steps
    ("record_times = 0.0, 0.5, 1.0", "-0.0000999, 0.5, 1.0000999"),
])
def test_times_the_later_checks_accept_still_load(tmp_path, c0_text, needle,
                                                  times):
    key = needle.split(" = ")[0]
    cfg = RunConfig.load(write_cfg(tmp_path, patched(c0_text, needle,
                                                     f"{key} = {times}")))
    values = tuple(float(t) for t in times.split(", "))
    if key == "field_times":
        assert cfg.field_times == values
        chain = cfg.chain(+1)
        chain.alpha(np.array(values))           # the field's own check
    else:
        assert cfg.oracle.record_times == values
        assert sorted(snap_times(cfg.span, cfg.oracle.problem.dt,
                                 values)[2]) == [
            0, 2500, 5000]


@pytest.mark.parametrize("argv", [
    ["solve", "--config", C0],
    ["bessel-table", "1", "0.1", "2", "5"],
])
def test_out_naming_a_regular_file_is_a_parse_error(tmp_path, capsys, argv):
    target = tmp_path / "afile"
    target.write_bytes(b"keep me")
    rc = main([*argv, "--out", str(target)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"error: output directory {target} is not a "
                          "directory")
    assert target.read_bytes() == b"keep me"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["afile"]


@pytest.mark.parametrize("argv", [
    ["solve", "--config", C15],
    ["bessel-table", "1", "0.1", "2", "5"],
])
def test_out_that_cannot_be_made_is_a_parse_error(tmp_path, capsys, argv):
    # a 300-character name is past every common file system's 255, so
    # the mkdir fails whoever runs it; one error line, no traceback
    out = tmp_path / ("a" * 300)
    rc = main([*argv, "--out", str(out), "--quiet"])
    assert rc == EXIT_PARSE
    assert capsys.readouterr() == (
        "", f"error: cannot make output directory {out}: File name too "
            "long\n")
    assert list(tmp_path.iterdir()) == []


def test_quiet_silences_stdout(tmp_path, winner_cfg, capsys):
    rc = main(["solve", "--config", winner_cfg, "--out", str(tmp_path),
               "--quiet"])
    assert rc == EXIT_OK
    assert capsys.readouterr().out == ""


def test_out_dir_env_var_is_honored(tmp_path, winner_cfg, monkeypatch):
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    rc = main(["solve", "--config", winner_cfg, "--quiet"])
    assert rc == EXIT_OK
    assert (tmp_path / "summary.txt").exists()


def test_locked_output_directory_is_refused(tmp_path, winner_cfg, capsys):
    (tmp_path / ".lock").touch()
    rc = main(["solve", "--config", winner_cfg, "--out", str(tmp_path)])
    assert rc == EXIT_SOLVER
    assert "locked" in capsys.readouterr().err
    (tmp_path / ".lock").unlink()
    rc = main(["solve", "--config", winner_cfg, "--out", str(tmp_path),
               "--quiet"])
    assert rc == EXIT_OK
    assert not (tmp_path / ".lock").exists()


def test_stale_lock_is_diagnosed_and_kept(tmp_path, winner_cfg, capsys):
    host = socket.gethostname()
    with _OutputLock(tmp_path):
        assert (tmp_path / ".lock").read_text() == f"{os.getpid()}\n{host}\n"
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()
    lock = tmp_path / ".lock"
    for owner, stale in ((child.pid, True), (os.getpid(), False)):
        lock.write_text(f"{owner}\n{host}\n")
        rc = main(["solve", "--config", winner_cfg, "--out", str(tmp_path)])
        assert rc == EXIT_SOLVER
        err = capsys.readouterr().err
        assert "locked" in err
        assert (f"stale {lock} left by pid {owner}" in err) is stale
        assert lock.read_text() == f"{owner}\n{host}\n"


# -- verify ------------------------------------------------------------------------

def test_verify_passes_on_the_singular_core_config(tmp_path, capsys):
    rc = main(["verify", "--config", C15, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "residual_ladder.csv").exists()
    out = capsys.readouterr().out
    assert out.startswith("verify: PASS")
    assert "order:2." in out


def test_verify_fails_loudly_under_corrupted_flags(tmp_path, capsys):
    cfg = write_cfg(tmp_path, patched(Path(C15).read_text(),
                                      f"flags = {WINNER_LABEL}",
                                      "flags = s=+1,h=1,branch=-"))
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == EXIT_LADDER
    # the partial ladder still lands on disk for inspection
    assert (tmp_path / "run" / "residual_ladder.csv").exists()
    assert "GridTooCoarse" in capsys.readouterr().err


def test_verify_rejects_an_unrankable_single_level(tmp_path, winner_text,
                                                   capsys):
    # one level loads, since the scan steps with it alone
    cfg = write_cfg(tmp_path, patched(
        winner_text, "dt_ladder = 4e-2, 2e-2, 1e-2", "dt_ladder = 4e-2"))
    assert RunConfig.load(cfg).verify.dt_ladder == (4e-2,)
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_LADDER
    assert "ladder level" in capsys.readouterr().err


def test_verify_exit_distinguishes_missed_tolerance(tmp_path, winner_text,
                                                    capsys):
    cfg = write_cfg(tmp_path, patched(
        winner_text, "max_rel_inf = 2e-4", "max_rel_inf = 1e-9"))
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_VERIFY
    assert capsys.readouterr().out.startswith("verify: FAIL")


@pytest.mark.parametrize("command", ["solve", "verify", "scan", "oracle"])
def test_commands_refuse_mixed_digests_in_one_directory(tmp_path,
                                                        winner_text, capsys,
                                                        command):
    out_dir = tmp_path / "run"
    cfg_a = write_cfg(tmp_path, winner_text, name="a.cfg")
    rc = main([command, "--config", cfg_a, "--out", str(out_dir), "--quiet"])
    assert rc == EXIT_OK
    before = {p.name: p.read_bytes() for p in out_dir.iterdir()}
    cfg_b = write_cfg(tmp_path, winner_text + "# revised\n", name="b.cfg")
    rc = main([command, "--config", cfg_b, "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    assert "different config" in capsys.readouterr().err
    assert {p.name: p.read_bytes() for p in out_dir.iterdir()} == before


@pytest.mark.parametrize("data,rc", [
    (b"\xff\xfe\x00\x01 not utf-8\n1,2\n", EXIT_OK),
    (b"x,y\n1,2\n", EXIT_OK),
    (b"# config_digest: \xff\xfe\n1,2\n", EXIT_PARSE),
], ids=["binary", "text", "binary-digest"])
def test_verify_reads_foreign_csv_as_bytes(tmp_path, winner_cfg, capsys,
                                           data, rc):
    # a .csv without a digest line is skipped whatever its encoding; one
    # with a digest line that is not this config's is a clash
    (tmp_path / "foreign.csv").write_bytes(data)
    assert main(["verify", "--config", winner_cfg, "--out", str(tmp_path),
                 "--quiet"]) == rc
    err = capsys.readouterr().err
    assert ("foreign.csv in the output directory was written from a "
            "different config" in err) == (rc == EXIT_PARSE)


def test_verify_skips_a_directory_named_like_a_csv(tmp_path, winner_cfg,
                                                   capsys):
    (tmp_path / "x.csv").mkdir()
    assert main(["verify", "--config", winner_cfg, "--out", str(tmp_path),
                 "--quiet"]) == EXIT_OK
    assert capsys.readouterr().err == ""


# -- scan --------------------------------------------------------------------------

def test_scan_names_the_winner(tmp_path, capsys):
    rc = main(["scan", "--config", C15, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    assert (tmp_path / "scan_table.csv").exists()
    out = capsys.readouterr().out
    assert f"scan: winner {WINNER_LABEL}" in out


def test_scan_evaluates_each_radial_factor_once(tmp_path, monkeypatch):
    # the eight readings differ only in the envelope, so the scan's one
    # geometry evaluates J once per (branch, time): 2 x 3 stencil times
    import invosc.wavefunction as wavefunction
    calls = []
    real = wavefunction.bessel_j

    def counting(nu, z, *args, **kwargs):
        calls.append(nu)
        return real(nu, z, *args, **kwargs)

    monkeypatch.setattr(wavefunction, "bessel_j", counting)
    rc = main(["scan", "--config", C15, "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_OK
    assert len(calls) == 6


@pytest.mark.parametrize("command", ["scan", "solve", "verify", "oracle"])
def test_scan_maps_inconclusive_to_its_exit_code(tmp_path, c0_text, capsys,
                                                 command):
    # static_c0 says flags = scan, so every command scans first.  With no
    # frequency and no field, alpha stays 0: both branches solve the same
    # chain, so each reading ties with its other-branch twin.
    text = patched(c0_text, "[frequency]\nfamily = constant\nvalue = 1.0",
                   "[frequency]\nfamily = constant\nvalue = 0.0")
    text = patched(text, "[magnetic_field]\nfamily = constant\nvalue = 1.0",
                   "[magnetic_field]\nfamily = constant\nvalue = 0.0")
    out_dir = tmp_path / "run"
    rc = main([command, "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_INCONCLUSIVE
    # the tied table is still written for the postmortem, and nothing else
    assert sorted(p.name for p in out_dir.iterdir()) == ["scan_table.csv"]
    out, err = capsys.readouterr()
    tie = re.fullmatch(r"error: Inconclusive: (best residual (\S+) "
                       r"\(s=\+1,h=1,branch=\+\) is within 2x of runner-up "
                       r"(\S+) \(s=\+1,h=1,branch=-\))\n", err)
    assert tie is not None, err
    assert tie[2] == tie[3]
    assert out == (f"scan: INCONCLUSIVE {tie[1]}\n" if command == "scan"
                   else "")


@pytest.mark.parametrize("command", ["scan", "solve"])
def test_scan_requires_the_verification_section(tmp_path, c0_text, capsys,
                                                command):
    # solve needs the section only because static_c0 says flags = scan
    cfg = write_cfg(tmp_path, patched(
        c0_text,
        "[verification]\ntimes = 0.4\ndt_ladder = 4e-2, 2e-2, 1e-2\n"
        "max_rel_inf = 2e-4\n\n", ""))
    out_dir = tmp_path / "run"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    assert "[verification]" in capsys.readouterr().err
    assert not out_dir.exists()


# -- oracle ------------------------------------------------------------------------

def test_oracle_agrees_with_the_assembled_field(tmp_path, capsys):
    rc = main(["oracle", "--config", C0, "--out", str(tmp_path)])
    assert rc == EXIT_OK
    for name in ("fidelity.csv", "oracle_snapshots.csv", "scan_table.csv",
                 "oracle_summary.txt"):
        assert (tmp_path / name).exists(), name
    summary = (tmp_path / "oracle_summary.txt").read_text()
    assert "nu=1.0" in summary
    assert "sector_winding = -1" in summary
    out = capsys.readouterr().out
    assert out.startswith("oracle: PASS")


_NU_CUSP = pytest.mark.xfail(strict=True, raises=AssertionError, reason=(
    "at nu = 0.1 verify reads rel_inf 2.397e-4 at order 1.42: the rho^nu "
    "cusp on the Cartesian grid (ROADMAP item 3)"))


@pytest.fixture()
def nu_tenth_cfg(tmp_path, c0_text):
    # n = 0 and C = 0.005: nu = sqrt(n^2 + 2 C) = 0.1
    text = patched(patched(c0_text, "\nn = 1\n", "\nn = 0\n"),
                   "\nC = 0.0\n", "\nC = 0.005\n")
    return write_cfg(tmp_path, text)


@pytest.mark.parametrize("command", [
    "oracle", pytest.param("verify", marks=_NU_CUSP)])
def test_checks_pass_below_nu_one(tmp_path, nu_tenth_cfg, capsys, command):
    rc = main([command, "--config", nu_tenth_cfg,
               "--out", str(tmp_path / "run")])
    assert f"{command}: PASS" in capsys.readouterr().out
    assert rc == EXIT_OK


def test_order_window_is_fixed(tmp_path, nu_tenth_cfg, capsys):
    # at nu = 0.1 the residual meets a 2.5e-4 bar at order 1.42, outside
    # the window of a 2nd-order time stencil; no key widens the window
    cfg = Path(nu_tenth_cfg)
    cfg.write_text(patched(cfg.read_text(), "max_rel_inf = 2e-4",
                           "max_rel_inf = 2.5e-4"))
    rc = main(["verify", "--config", str(cfg),
               "--out", str(tmp_path / "run")])
    out = capsys.readouterr().out
    assert out.startswith("verify: FAIL")
    assert out.endswith("(need rel_inf<=0.00025, order in [1.7,2.3])\n")
    assert rc == EXIT_VERIFY


def test_oracle_requires_its_section(tmp_path, c0_text, capsys):
    cfg = write_cfg(tmp_path, patched(
        c0_text,
        "[oracle]\nrho_max = 8.0\nn_rho = 512\ndt = 2e-4\n"
        "record_times = 0.0, 0.5, 1.0\nmin_fidelity = 0.999\n\n", ""))
    rc = main(["oracle", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PARSE
    assert "[oracle]" in capsys.readouterr().err


@pytest.mark.parametrize("old, new, at, message", [
    ("dt = 2e-4", "dt = 0", "[oracle]",
     "[oracle]: dt must be positive and finite"),
    ("dt = 2e-4", "dt = 1e400", "dt = 1e400", "dt = '1e400' is not finite"),
    ("rho_max = 8.0", "rho_max = inf", "rho_max = inf",
     "rho_max = 'inf' is not finite"),
    ("dt = 2e-4", "dt = 1e-320", "[oracle]",
     "[oracle]: dt leaves no finite step count over the span"),
    ("n_rho = 512", "n_rho = 100", "[oracle]",
     "[oracle]: n_rho must be at least 256"),
], ids=["zero-dt", "infinite-dt", "infinite-rho_max", "subnormal-dt",
        "few-cells"])
def test_oracle_refuses_a_step_or_wall_that_is_not_finite(tmp_path,
                                                          winner_text,
                                                          capsys, old, new,
                                                          at, message):
    # 1e400 reads as inf, which would make one step of the whole span, and
    # an infinite wall leaves no finite grid point: the reader refuses
    # both at their lines; 1e-320 makes an infinite step count, which
    # RadialProblem refuses at the header
    text = patched(winner_text, old, new)
    out_dir = tmp_path / "run"
    rc = main(["oracle", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    line = text.splitlines().index(at) + 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("command,old,new,at,message", [
    ("solve", "k = 1.0", "k = -1", "[mode]", "k must be a positive real"),
    ("solve", "C = 1.5", "C = -3", "[mode]", "2C + n^2 = -5 < 0"),
    ("solve", "angular_sign = +1", "angular_sign = 0", "[mode]",
     "angular_sign must be +1 or -1"),
    ("solve", "amp_first = 1.0", "amp_first = nan", "amp_first = nan",
     "amp_first = 'nan' is not finite"),
    ("solve", "amp_first = 1.0", "amp_first = 0.0", "[mode]",
     "amp_first and amp_second are both 0"),
    ("verify", "times = 0.4", "times = 5.0", "times = 5.0",
     "times +- dt_ladder[0] must lie in the span"),
], ids=["k", "C", "angular_sign", "amp_first", "null-state", "times"])
def test_refused_value_is_a_config_error_at_its_line(tmp_path, capsys,
                                                     command, old, new, at,
                                                     message):
    text = patched(Path(C15).read_text(), old, new)
    out_dir = tmp_path / "run"
    rc = main([command, "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    line = text.splitlines().index(at) + 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: line {line}: {at.split(' = ')[0]}")
    assert message in err
    assert not out_dir.exists()


@pytest.mark.parametrize("name,old,new,at,message", [
    # the chain has one mu link, so a key that chose one is unknown
    ("static_c15.cfg", "[run]\n", "[run]\nmu_coupling = pde\n",
     "mu_coupling = pde", "unknown key 'mu_coupling' in [run]"),
    # trajectory.csv has a fixed row count, so a key that set it is unknown
    ("static_c15.cfg", "[run]\n", "[run]\ntrajectory_samples = 512\n",
     "trajectory_samples = 512",
     "unknown key 'trajectory_samples' in [run]"),
    # the chain runs at IntegratorConfig's tolerances, so a key that set
    # them is unknown
    ("static_c15.cfg", "[run]\n", "[run]\nrel_tol = 1e-11\n",
     "rel_tol = 1e-11", "unknown key 'rel_tol' in [run]"),
    ("static_c15.cfg", "[run]\n", "[run]\nabs_tol = 1e-13\n",
     "abs_tol = 1e-13", "unknown key 'abs_tol' in [run]"),
    # verify's order window is fixed, so a key that moved it is unknown
    ("static_c15.cfg", "max_rel_inf = 1e-5",
     "max_rel_inf = 1e-5\norder_lo = 1.0", "order_lo = 1.0",
     "unknown key 'order_lo' in [verification]"),
    ("static_c15.cfg", "max_rel_inf = 1e-5",
     "max_rel_inf = 1e-5\norder_hi = 3.0", "order_hi = 3.0",
     "unknown key 'order_hi' in [verification]"),
    # 1e-310 against 2 overflows the companion matrix whose eigenvalues
    # are the polynomial's critical points: a config error at [mass], not
    # numpy's "Array must not contain infs or NaNs" with no line
    ("ramp_mass.cfg", "family = linear\nintercept = 1.0\nslope = 0.1",
     "family = polynomial\ncoeffs = 1, 2, 1e-300, 1e-310", "[mass]",
     "mass: polynomial family's critical points overflow: its leading "
     "coefficient is negligible against the others"),
    # the constant-coefficient oracle holds an n_rho x n_rho eigenvector
    # matrix, 2 GiB at the cap; the refusal is made before any allocation
    ("static_c15.cfg", "n_rho = 1024", "n_rho = 16385", "[oracle]",
     "[oracle]: n_rho must be at most 16384"),
], ids=["mu_coupling", "trajectory_samples", "rel_tol", "abs_tol",
        "order_lo", "order_hi", "negligible-leading-coefficient",
        "oracle-n_rho-cap"])
def test_edit_is_refused_at_its_line_before_out_is_made(tmp_path, capsys,
                                                        name, old, new, at,
                                                        message):
    text = patched((CONFIGS / name).read_text(), old, new)
    out_dir = tmp_path / "run"
    rc = main(["solve", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    line = text.splitlines().index(at) + 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not out_dir.exists()


def test_sinusoidal_phase_overflow_is_refused_at_its_section(tmp_path,
                                                              capsys):
    # 1e308 * t1 overflows the phase, past the 2^52 where a sinusoid is
    # float noise: a config error at [frequency], not an OverflowError out
    # of main
    text = patched(Path(C15).read_text(),
                   "[frequency]\nfamily = constant\nvalue = 1.0",
                   "[frequency]\nfamily = sinusoidal\namplitude = 0.5\n"
                   "angular_frequency = 1e308\noffset = 1.0")
    text = patched(text, "t1 = 1.0", "t1 = 2.0")
    out_dir = tmp_path / "run"
    rc = main(["solve", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    line = text.splitlines().index("[frequency]") + 1
    assert capsys.readouterr().err == (
        f"error: line {line}: [frequency]: sinusoidal family's phase reaches "
        "2^52 on the span (0.0, 2.0)\n")
    assert not out_dir.exists()


_KNOTS = np.linspace(0.0, 1.0, 12)

# static_c0's constant field, and a tabulated cos t in its place
_TABULATED_FIELD = (
    "[magnetic_field]\nfamily = constant\nvalue = 1.0",
    "[magnetic_field]\nfamily = tabulated\n"
    f"times = {', '.join(map(repr, _KNOTS.tolist()))}\n"
    f"values = {', '.join(map(repr, np.cos(_KNOTS).tolist()))}")

# one constant coefficient of a bundled config swapped for another
# family: a polynomial mass with constant value, or a spline B through
# cos t; calls counts the oracle's (dstemr, zgtsv) calls, which it looks
# up on scipy.linalg.lapack
_OTHER_FAMILIES = pytest.mark.parametrize("old,new,calls", [
    ("[mass]\nfamily = constant\nvalue = 1.0",
     "[mass]\nfamily = polynomial\ncoeffs = 1.0, 0.0, 0.0", (1, 0)),
    (*_TABULATED_FIELD, (0, 5000)),
], ids=["polynomial-constant", "tabulated-driven"])


@_OTHER_FAMILIES
def test_oracle_passes_on_the_other_coefficient_families(
        tmp_path, winner_text, capsys, monkeypatch, old, new, calls):
    # constant values from any family take the closed-form path, and a
    # time-dependent family steps; both clear the bundled threshold
    seen = count_calls(monkeypatch, lapack, ("dstemr", "zgtsv"))
    text = patched(winner_text, old, new)
    assert "min_fidelity = 0.999\n" in text
    cfg = write_cfg(tmp_path, text)
    rc = main(["oracle", "--config", cfg, "--out", str(tmp_path / "run")])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("oracle: PASS")
    assert (seen["dstemr"], seen["zgtsv"]) == calls


@pytest.mark.parametrize("base", [C0, C15], ids=["static_c0", "static_c15"])
@_OTHER_FAMILIES
def test_solve_and_verify_pass_on_the_other_coefficient_families(
        tmp_path, capsys, base, old, new, calls):
    # each base keeps its own grid, ladder and bar: static_c0's coarse
    # Cartesian grid and 4e-2 ladder carry 2e-4, static_c15's polar grid
    # and 8e-3 ladder the acceptance bar 1e-5 of every driven config
    text = patched(Path(base).read_text(), old, new)
    assert ("max_rel_inf = 1e-5\n" in text) == (base == C15)
    cfg = write_cfg(tmp_path, text)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "solve")])
    assert rc == EXIT_OK
    assert f"solve: flags {WINNER_LABEL}" in capsys.readouterr().out
    rc = main(["verify", "--config", cfg, "--out", str(tmp_path / "verify")])
    assert rc == EXIT_OK
    assert capsys.readouterr().out.startswith("verify: PASS")


@pytest.fixture()
def coarse_dt_cfg(tmp_path, winner_text):
    text = patched(winner_text, "dt = 2e-4", "dt = 0.05")
    return write_cfg(tmp_path, text, name="coarse_dt.cfg")


def test_oracle_stays_unitary_at_coarse_dt(tmp_path, coarse_dt_cfg, capsys):
    out_dir = tmp_path / "run"
    out_dir.mkdir()
    rc = main(["oracle", "--config", coarse_dt_cfg, "--out", str(out_dir)])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("oracle: PASS")
    summary = (out_dir / "oracle_summary.txt").read_text()
    drift = float(summary.split("norm_drift_total = ")[1].splitlines()[0])
    assert drift < 1e-9


def test_driven_oracle_stays_unitary_at_coarse_dt(tmp_path, winner_text,
                                                 capsys, monkeypatch):
    # the tabulated field steps (20 zgtsv solves at dt = 0.05), so this
    # reaches the stepped path that the closed-form case above skips
    seen = count_calls(monkeypatch, lapack, ("dstemr", "zgtsv"))
    text = patched(winner_text, *_TABULATED_FIELD)
    text = patched(text, "dt = 2e-4", "dt = 0.05")
    out_dir = tmp_path / "run"
    rc = main(["oracle", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert (seen["dstemr"], seen["zgtsv"]) == (0, 20)
    assert rc == EXIT_OK
    summary = (out_dir / "oracle_summary.txt").read_text()
    drift = float(summary.split("norm_drift_total = ")[1].splitlines()[0])
    assert drift < 1e-9


def test_failed_oracle_step_exits_unstable(tmp_path, winner_text, capsys,
                                           monkeypatch):
    # zgtsv reporting a zero pivot on the third of the 20 driven steps
    # is an Unstable that a coarse dt never raises
    real = lapack.zgtsv
    calls = itertools.count(1)

    def failing_on_the_third(*args):
        out = real(*args)
        return (*out[:-1], 7) if next(calls) == 3 else out

    monkeypatch.setattr(lapack, "zgtsv", failing_on_the_third)
    text = patched(winner_text, *_TABULATED_FIELD)
    text = patched(text, "dt = 2e-4", "dt = 0.05")
    rc = main(["oracle", "--config", write_cfg(tmp_path, text),
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_UNSTABLE
    assert capsys.readouterr().err == (
        "error: Unstable: step 3: singular matrix (zgtsv info 7)\n")


def test_non_unitary_oracle_step_exits_unstable(tmp_path, winner_text, capsys,
                                                monkeypatch):
    # the norm guard's finite-drift branch: the third of the 20 driven
    # steps comes out of zgtsv scaled by 1 + 1e-5, which no dt does
    real = lapack.zgtsv
    calls = itertools.count(1)

    def scaling_the_third(*args):
        *rest, x, info = real(*args)
        return (*rest, x * (1 + 1e-5) if next(calls) == 3 else x, info)

    monkeypatch.setattr(lapack, "zgtsv", scaling_the_third)
    text = patched(winner_text, *_TABULATED_FIELD)
    text = patched(text, "dt = 2e-4", "dt = 0.05")
    rc = main(["oracle", "--config", write_cfg(tmp_path, text),
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_UNSTABLE
    assert re.fullmatch(
        r"error: Unstable: norm drifted by \d\.\d{3}e-0[56] after 3 steps "
        r"\(dt=0\.05\); the propagation is no longer unitary\n",
        capsys.readouterr().err)


# -- config rejection ----------------------------------------------------------------

def test_missing_constant_names_the_key(tmp_path, c0_text, capsys):
    cfg = write_cfg(tmp_path, patched(c0_text, "C = 0.0\n", ""))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert "C" in err


def test_nonpositive_mass_is_a_parse_error(tmp_path, c0_text, capsys):
    cfg = write_cfg(tmp_path, patched(
        c0_text, "[mass]\nfamily = constant\nvalue = 1.0",
        "[mass]\nfamily = constant\nvalue = -1.0"))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PARSE
    assert "mass" in capsys.readouterr().err


@pytest.mark.parametrize("section,needle", [
    ("mass", "nonpositive mass"),
    ("frequency", "negative frequency"),
])
def test_coefficient_range_error_names_its_own_section(tmp_path, c0_text,
                                                       capsys, section,
                                                       needle):
    old = f"[{section}]\nfamily = constant\nvalue = 1.0"
    text = patched(c0_text, old, old.replace("1.0", "-1.0"))
    header = text.splitlines().index(f"[{section}]") + 1
    cfg = write_cfg(tmp_path, text)
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"line {header}: {needle}" in err


@pytest.mark.parametrize("old,new,at,message", [
    ("[mass]\nfamily = constant", "[mass]\nfamily = warp", "family = warp",
     "unknown family 'warp' in [mass]"),
    ("type = cartesian", "type = hex", "type = hex",
     "unknown type 'hex' in [grid]"),
    ("[mass]\nfamily = constant\nvalue = 1.0",
     "[mass]\nfamily = constant\nvalue = 1.0\nslope = 5", "slope = 5",
     "unknown key 'slope' in [mass]"),
    ("rho_min = 0.0", "rho_min = 0.0\nn_phi = 8", "n_phi = 8",
     "unknown key 'n_phi' in [grid]"),
    ("[mass]\nfamily = constant\n", "[mass]\n", "[mass]",
     "missing key 'family' in [mass]"),
    ("type = cartesian\n", "", "[grid]", "missing key 'type' in [grid]"),
], ids=["unknown-family", "unknown-type", "key-of-linear", "key-of-polar",
        "missing-family", "missing-type"])
def test_tagged_section_is_refused_at_the_line_at_fault(tmp_path, c0_text,
                                                        capsys, old, new, at,
                                                        message):
    # [mass] and [grid] are read by one rule: the tag, then its variant's
    # keys, each refusal at its own line before --out is made
    text = patched(c0_text, old, new)
    out_dir = tmp_path / "run"
    rc = main(["solve", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    line = text.splitlines().index(at) + 1
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("kind", sorted(_GRIDS))
def test_grid_keys_name_their_constructors_parameters(kind):
    # the reader passes each key to the grid's constructor by name
    make, keys = _GRIDS[kind]
    assert set(keys) <= set(inspect.signature(make).parameters)


def test_config_without_run_section_takes_the_defaults(tmp_path):
    text = Path(C15).read_text()
    head, sep, _ = text.partition("[run]")
    assert sep
    cfg = RunConfig.load(write_cfg(tmp_path, head))
    assert cfg.field_times == cfg.span


def test_float_noise_field_phase_is_refused_at_its_section(tmp_path, capsys):
    # [magnetic_field] has no sign check: only the constructor keeps this
    # phase from a chain that no step size resolves
    text = patched((CONFIGS / "sinusoidal_b.cfg").read_text(),
                   "angular_frequency = 1.0", "angular_frequency = 1e308")
    out_dir = tmp_path / "run"
    rc = main(["solve", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    line = text.splitlines().index("[magnetic_field]") + 1
    assert capsys.readouterr().err == (
        f"error: line {line}: [magnetic_field]: sinusoidal family's phase "
        "reaches 2^52 on the span (0.0, 1.0)\n")
    assert not out_dir.exists()


@pytest.mark.parametrize("old,new,hint", [
    ("[span]", "[wibble]\nx = 1\n\n[span]", "wibble"),
    ("rho_min = 0.0", "rho_min = 0.0\nwibble = 3", "wibble"),
    ("type = cartesian", "type = spherical", "spherical"),
    ("[run]\nfield_times", "[run]\nmu_coupling = pde\nfield_times",
     "mu_coupling"),
    ("[mass]\nfamily = constant\nvalue = 1.0",
     "[mass]\nfamily = constant\nvalue = 1.0\nslope = 5", "slope"),
])
def test_unknown_structure_is_rejected(tmp_path, c0_text, capsys, old, new,
                                       hint):
    cfg = write_cfg(tmp_path, patched(c0_text, old, new))
    rc = main(["solve", "--config", cfg, "--out", str(tmp_path)])
    assert rc == EXIT_PARSE
    assert hint in capsys.readouterr().err


@pytest.mark.parametrize("command,key", [
    ("oracle", "record_times"),
    ("verify", "times"),
    ("verify", "dt_ladder"),
    ("solve", "field_times"),
])
def test_empty_number_list_is_rejected_at_its_line(tmp_path, c0_text, capsys,
                                                    command, key):
    lines = c0_text.splitlines()
    index = next(i for i, line in enumerate(lines)
                 if line.startswith(f"{key} = "))
    lines[index] = f"{key} ="
    cfg = write_cfg(tmp_path, "\n".join(lines) + "\n")
    out_dir = tmp_path / "run"
    rc = main([command, "--config", cfg, "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    err = capsys.readouterr().err
    assert f"line {index + 1}: {key} = '' is not a non-empty number list" in err
    assert not out_dir.exists() or not any(out_dir.iterdir())


@pytest.mark.parametrize("command", ["verify", "scan", "solve"])
@pytest.mark.parametrize("ladder", [
    "2e-3, 4e-3, 8e-3", "8e-3, -4e-3", "8e-3, 0", "8e-3, 8e-3, 4e-3",
    "nan, 4e-3", "inf, 4e-3", "8e-3, 1e400"])
def test_malformed_ladder_is_rejected_at_its_line(tmp_path, capsys, command,
                                                  ladder):
    # an increasing ladder used to run the scan and the residual and exit 7
    # as "not monotone", a negative step to exit 3 from the residual; the
    # reader refuses a non-finite step, 1e400 included
    text = patched(Path(C15).read_text(), "dt_ladder = 8e-3, 4e-3, 2e-3",
                   f"dt_ladder = {ladder}")
    line = text.splitlines().index(f"dt_ladder = {ladder}") + 1
    out_dir = tmp_path / "run"
    rc = main([command, "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    finite = all(math.isfinite(float(dt)) for dt in ladder.split(", "))
    message = ("dt_ladder must be positive and strictly decreasing" if finite
               else f"dt_ladder = {ladder!r} is not finite")
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not out_dir.exists()


_VERIFY_BAR = "max_rel_inf = 1e-5"
_ORACLE_BAR = "min_fidelity = 0.999"


@pytest.mark.parametrize("command,old,new,message", [
    ("verify", _VERIFY_BAR, "max_rel_inf = nan",
     "max_rel_inf = 'nan' is not finite"),
    ("verify", _VERIFY_BAR, "max_rel_inf = inf",
     "max_rel_inf = 'inf' is not finite"),
    ("verify", _VERIFY_BAR, "max_rel_inf = 0",
     "max_rel_inf must be positive"),
    ("oracle", _ORACLE_BAR, "min_fidelity = nan",
     "min_fidelity = 'nan' is not finite"),
    ("oracle", _ORACLE_BAR, "min_fidelity = 1.5",
     "min_fidelity must lie in [0, 1]"),
    ("oracle", _ORACLE_BAR, "min_fidelity = -0.1",
     "min_fidelity must lie in [0, 1]"),
], ids=["nan-bar", "inf-bar", "zero-bar", "nan-fidelity",
        "fidelity-above-one", "negative-fidelity"])
def test_unmeetable_threshold_is_refused_at_its_line(tmp_path, capsys,
                                                     command, old, new,
                                                     message):
    # a NaN bar ran the whole ladder (or the propagation) and exited 4
    # with "need rel_inf<=nan"; the refusal names the value's line
    text = patched(Path(C15).read_text(), old, new)
    line = text.splitlines().index(new.splitlines()[-1]) + 1
    out_dir = tmp_path / "run"
    rc = main([command, "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == f"error: line {line}: {message}\n"
    assert not out_dir.exists()


@pytest.mark.parametrize("old,new", [
    (_ORACLE_BAR, "min_fidelity = 0"), (_ORACLE_BAR, "min_fidelity = 1"),
    (_VERIFY_BAR, "max_rel_inf = 5e-324"),
])
def test_thresholds_at_the_edge_of_their_range_load(tmp_path, old, new):
    text = patched(Path(C15).read_text(), old, new)
    RunConfig.load(write_cfg(tmp_path, text))


def _number_edits(text, value):
    """(text, line, section, key) for each number in a key's value: the
    text with that one number replaced by ``value``, and the 1-based line,
    section and key of the edit."""
    lines = text.splitlines()
    section = None
    for index, line in enumerate(lines):
        if line.startswith("["):
            section = line.strip("[]")
        key, eq, rest = line.partition(" = ")
        if not eq or line.startswith(("#", ";")):
            continue
        for token in re.finditer(r"[^,\s]+", rest):
            try:
                float(token.group())
            except ValueError:
                continue
            start = len(key) + len(eq) + token.start()
            edited = line[:start] + value + line[start + len(token.group()):]
            yield ("\n".join(lines[:index] + [edited] + lines[index + 1:])
                   + "\n", index + 1, section, key)


# sinusoidal_b with the one optional number key that no bundled config sets
_OPTIONAL_KEYS = patched((CONFIGS / "sinusoidal_b.cfg").read_text(),
                         "angular_frequency = 1.0\n",
                         "angular_frequency = 1.0\noffset = 0.0\n")


@pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e400"])
@pytest.mark.parametrize("text", [
    *(pytest.param((CONFIGS / name).read_text(), id=name)
      for name in sorted(p.name for p in CONFIGS.glob("*.cfg"))),
    pytest.param(_OPTIONAL_KEYS, id="optional-keys"),
])
def test_non_finite_number_is_refused_at_its_line(tmp_path, capsys, text,
                                                  value):
    # each number of each config in turn: no key means anything with a
    # non-finite value, and 1e400 reads as inf, so the reader refuses
    # every edit at its own line; some used to load (static_c0's
    # [grid] rho_min = nan) or name only a section header
    edits = list(_number_edits(text, value))
    assert len(edits) >= 30             # every config sets 30 numbers or more
    out_dir = tmp_path / "run"
    wrong = []
    for cfg, line, _, key in edits:
        rc = main(["solve", "--config", write_cfg(tmp_path, cfg),
                   "--out", str(out_dir), "--quiet"])
        err = capsys.readouterr().err
        if (rc != EXIT_PARSE or out_dir.exists()
                or not err.startswith(f"error: line {line}: {key} = ")):
            wrong.append((line, rc, err))
    assert not wrong


# what the message of each overflow at 1e308 names
_OVERFLOW_NAMES = {
    ("static_c15.cfg", "mass", "value"): "chain slope is not finite",
    ("static_c15.cfg", "frequency", "value"): "W^2",
    ("static_c15.cfg", "magnetic_field", "value"): "W^2",
    ("static_c15.cfg", "constants", "q"): "W^2",
    ("static_c15.cfg", "mode", "k"): "chain slope is not finite",
    ("static_c15.cfg", "mode", "amp_first"): "assembled field is not finite",
    ("static_c15.cfg", "mode", "amp_second"): "assembled field is not finite",
    ("exp_omega.cfg", "mass", "value"): "chain slope is not finite",
    ("exp_omega.cfg", "frequency", "base"): "W^2",
    ("exp_omega.cfg", "frequency", "rate"):
        "frequency: exponential family overflows on the span",
    ("exp_omega.cfg", "magnetic_field", "value"): "W^2",
    ("exp_omega.cfg", "span", "t1"):
        "frequency: exponential family overflows on the span",
    ("exp_omega.cfg", "mode", "k"): "chain slope is not finite",
    ("exp_omega.cfg", "mode", "amp_first"): "assembled field is not finite",
    ("exp_omega.cfg", "mode", "amp_second"): "assembled field is not finite",
    ("ramp_mass.cfg", "mass", "intercept"): "chain slope is not finite",
    ("sinusoidal_b.cfg", "magnetic_field", "amplitude"): "W^2",
    # 2 * 1e308 is inf: the grid spacing would be too
    ("static_c0.cfg", "grid", "half_width"):
        "[grid]: half_width must be positive with 2 * half_width finite",
}
# and through oracle, which reads the [oracle] numbers that solve ignores
_ORACLE_OVERFLOW_NAMES = {
    ("static_c15.cfg", "oracle", "rho_max"): "exceeds 2^51",
}


def _run_extremes(tmp_path, capsys, command, name, edits, value,
                  names=_OVERFLOW_NAMES):
    """Run ``command`` on each edit: each ends in a contract exit code,
    with no traceback, and an overflow in ``names`` names what
    overflowed."""
    for i, (cfg, _, section, key) in enumerate(edits):
        rc = main([command, "--config", write_cfg(tmp_path, cfg),
                   "--out", str(tmp_path / f"run{i}"), "--quiet"])
        err = capsys.readouterr().err
        assert rc in {EXIT_OK, EXIT_PARSE, EXIT_SOLVER, EXIT_VERIFY,
                      EXIT_INCONCLUSIVE, EXIT_UNSTABLE, EXIT_LADDER}, err
        assert "Traceback" not in err
        if value == "1e308" and (name, section, key) in names:
            assert names[name, section, key] in err, err


@pytest.mark.parametrize("value", ["0", "-1", "1e308"])
@pytest.mark.parametrize("name", ["static_c15.cfg", "exp_omega.cfg"])
def test_finite_extremes_end_in_a_contract_exit_code(tmp_path, capsys, name,
                                                     value):
    # finite but extreme numbers pass, are refused, or fail with a named
    # error: (q B)**2 and math.exp used to raise OverflowError out of main
    # (exit 1 with a traceback), and a nan chain step ended in
    # "OutOfDomain: t=nan"
    edits = list(_number_edits((CONFIGS / name).read_text(), value))
    assert len(edits) >= 30
    _run_extremes(tmp_path, capsys, "solve", name, edits, value)


@pytest.mark.parametrize("value", ["0", "-1", "1e308"])
@pytest.mark.parametrize("name,section,command,names", [
    ("ramp_mass.cfg", "mass", "solve", _OVERFLOW_NAMES),
    ("sinusoidal_b.cfg", "magnetic_field", "solve", _OVERFLOW_NAMES),
    ("static_c15.cfg", "oracle", "oracle", _ORACLE_OVERFLOW_NAMES),
    ("static_c0.cfg", "grid", "solve", _OVERFLOW_NAMES),
], ids=["linear-mass", "sinusoidal-field", "oracle", "cartesian-grid"])
def test_finite_extremes_of_driven_families_and_the_oracle(tmp_path, capsys,
                                                           name, section,
                                                           command, names,
                                                           value):
    # the sweep above, on the coefficient families its two configs lack,
    # on every [oracle] number through the command that reads them, and
    # on the one Cartesian grid (only [grid]: each static_c0 solve scans)
    edits = [edit for edit in _number_edits((CONFIGS / name).read_text(),
                                            value) if edit[2] == section]
    assert len(edits) >= 2
    _run_extremes(tmp_path, capsys, command, name, edits, value, names)


_NOT_A_LABEL = "is not a flags label such as s=-1,h=1/2,branch=+"


@pytest.mark.parametrize("label", [
    "s=+2,h=1,branch=+", "s=-1,h=0.5,branch=+",
], ids=["config-value", "config-spelling"])
def test_malformed_flags_are_a_parse_error(tmp_path, c0_text, capsys, label):
    # refused at its config line before the output directory is made
    text = patched(c0_text, "flags = scan", f"flags = {label}")
    line = text.splitlines().index(f"flags = {label}") + 1
    out_dir = tmp_path / "run"
    rc = main(["solve", "--config", write_cfg(tmp_path, text),
               "--out", str(out_dir)])
    assert rc == EXIT_PARSE
    assert capsys.readouterr().err == (
        f"error: line {line}: flags: {label!r} {_NOT_A_LABEL}\n")
    assert not out_dir.exists()


# -- bessel-table --------------------------------------------------------------------

def test_bessel_table_streams_csv(capsys):
    rc = main(["bessel-table", "2.5", "0.5", "4.5", "5"])
    assert rc == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "x,j,n"
    assert len(lines) == 6
    x, j, n = map(float, lines[1].split(","))
    assert x == 0.5
    assert j == bessel_j(2.5, 0.5)
    assert n == bessel_n(2.5, 0.5)


def test_bessel_table_writes_a_file_with_out(tmp_path, capsys):
    rc = main(["bessel-table", "1.0", "1.0", "2.0", "3",
               "--out", str(tmp_path), "--quiet"])
    assert rc == EXIT_OK
    table = (tmp_path / "bessel_table.csv").read_text().splitlines()
    assert table[0] == "x,j,n"
    assert len(table) == 4
    assert capsys.readouterr().out == ""


def test_bessel_table_without_out_prints_and_says_so(tmp_path, monkeypatch,
                                                     capsys):
    # bessel-table never reads $INVOSC_OUT: without --out the table goes
    # to stdout, which is what its --help names as the default; the
    # config commands keep the output-directory default
    helps = {}
    for command in ("bessel-table", "solve"):
        with pytest.raises(SystemExit) as stop:
            main([command, "--help"])
        assert stop.value.code == 0
        helps[command] = " ".join(capsys.readouterr().out.split())
    assert ("--out OUT write bessel_table.csv into this directory "
            "(default: print the table to stdout)") in helps["bessel-table"]
    assert OUT_DIR_ENV not in helps["bessel-table"]
    assert (f"--out OUT output directory (default ${OUT_DIR_ENV} or .)"
            in helps["solve"])
    monkeypatch.setenv(OUT_DIR_ENV, str(tmp_path))
    assert main(["bessel-table", "1.0", "1.0", "2.0", "3"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[0] == "x,j,n"
    assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [
    ["bessel-table", "1.0", "0.0", "2.0", "3"],
    ["bessel-table", "1.0", "2.0", "1.0", "3"],
    ["bessel-table", "1.0", "1.0", "2.0", "1"],
    ["bessel-table", "1.0", "nan", "2.0", "3"],
    ["bessel-table", "1.0", "1.0", "inf", "3"],
])
def test_bessel_table_rejects_bad_ranges(argv, capsys):
    rc = main(argv)
    assert rc == EXIT_SOLVER
    assert "bessel-table needs" in capsys.readouterr().err


def _bessel_table_per_row(nu, x_min, x_max, num):
    """bessel-table's text as it was before the array pass, kept as the
    byte reference: two scalar calls and one f-string per row."""
    lines = ["x,j,n"]
    for x in np.linspace(x_min, x_max, num):
        j = bessel_j(nu, float(x))
        n = bessel_n(nu, float(x))
        lines.append(f"{x:.17g},{j.real:.17g},{n:.17g}")
    return "\n".join(lines) + "\n"


def _first_difference(got, expected):
    """None when the texts agree, else (line number, got, expected) of the
    first line that differs; pytest's own diff of two long texts is slow."""
    if got == expected:
        return None
    pairs = itertools.zip_longest(got.splitlines(keepends=True),
                                  expected.splitlines(keepends=True))
    return next((i, a, b) for i, (a, b) in enumerate(pairs) if a != b)


@pytest.mark.parametrize("nu,x_min,x_max,num", [
    (2.0, 0.01, 30.0, 3000),            # the order classes the bench draws
    (2.5, 0.05, 29.5, 1000),
    (math.sqrt(13), 0.05, 29.5, 1000),
    (0.0, 0.001, 2.0, 500),
    (60.0, 0.001, 2.0, 500),            # |j| near 1e-280, |n| near 1e+277
], ids=["integer", "half", "sqrt13", "zero", "sixty"])
def test_bessel_table_matches_the_per_row_writer(tmp_path, capsys, nu, x_min,
                                                 x_max, num):
    argv = ["bessel-table", repr(nu), repr(x_min), repr(x_max), str(num)]
    expected = _bessel_table_per_row(nu, x_min, x_max, num)
    assert main(argv) == EXIT_OK
    printed = capsys.readouterr().out
    assert main([*argv, "--out", str(tmp_path), "--quiet"]) == EXIT_OK
    written = (tmp_path / "bessel_table.csv").read_bytes().decode("ascii")
    for got in (printed, written):
        diff = _first_difference(got, expected)
        assert diff is None, diff


def test_bessel_table_overflow_writes_no_table(tmp_path, capsys):
    rc = main(["bessel-table", "200", "0.001", "1", "3",
               "--out", str(tmp_path)])
    assert rc == EXIT_SOLVER
    assert capsys.readouterr().err == ("error: Overflow: N evaluation left "
                                       "the double range\n")
    assert not (tmp_path / "bessel_table.csv").exists()


@pytest.mark.parametrize("argv", [
    ["bessel-table", "0", "0.1", "1e308", "3"],
    ["bessel-table", "2", "0.5", "1e16", "3"],
], ids=["1e308", "1e16"])
def test_bessel_table_past_the_amos_limit_writes_no_table(tmp_path, capsys,
                                                          argv):
    # past x = 2^51 scipy's values carry no correct digit, so the whole
    # table is refused rather than printed
    rc = main([*argv, "--out", str(tmp_path)])
    assert rc == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith("error: DomainTooLarge: ") and "2^51" in err
    assert not (tmp_path / "bessel_table.csv").exists()


# Both sizes ask for more than the 128 TiB user address space, so numpy
# refuses them before any page is touched, whatever the overcommit setting.
# A size that fits the address space is left untested: it could succeed.
_ALLOCATION_REFUSED = "error: MemoryError: Unable to allocate 728. TiB "


def test_unallocatable_table_exits_solver_in_one_line(tmp_path, capsys):
    rc = main(["bessel-table", "1.5", "0.1", "30", "100000000000000",
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith(_ALLOCATION_REFUSED) and err.count("\n") == 1
    assert not (tmp_path / "run").exists()


def test_unallocatable_grid_exits_solver_in_one_line(tmp_path, capsys):
    text = Path(C15).read_text()
    text = patched(text, "n_rho = 256\nn_phi = 256",
                   "n_rho = 10000000\nn_phi = 10000000")
    rc = main(["solve", "--quiet", "--config", write_cfg(tmp_path, text),
               "--out", str(tmp_path / "run")])
    assert rc == EXIT_SOLVER
    err = capsys.readouterr().err
    assert err.startswith(_ALLOCATION_REFUSED) and err.count("\n") == 1
    # the grid is built before the first artifact is written
    assert not list((tmp_path / "run").glob("*.csv"))
