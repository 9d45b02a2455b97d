"""Byte references for the artifact writers, the digest reader, and the
names bench/tracer.py patches.

Each reference below is the writer as it was before the text format
moved into invosc.artifacts: one f-string per float, kept so that the
array writers must reproduce its bytes, at the edges of the double range
too (signed zeros, 1e-300, 1e300, nan, inf, exact ties of the 17th
digit) and at more than one 4,096-row chunk.
"""

import importlib.util
from pathlib import Path

import numpy as np
import pytest

import invosc.artifacts as artifacts
from invosc.artifacts import (Table, read_digest, write_summary,
                              write_trajectory_csv)
from invosc.oracle import PropagationResult, RadialProblem
from invosc.wavefunction import (ConventionFlags, LadderRung, ResidualReport,
                                 ScanOutcome, ScanRow)

from conftest import SPAN, make_coeffs

BENCH = Path(__file__).resolve().parents[1] / "bench"

# -0.0 and 0.0, the ends of the normal range, values whose 17-digit
# rounding is an exact tie, and numbers the %g layout switches on
EDGES = (-0.0, 0.0, 1e-300, -1e-300, 1e300, -1e300, 0.5, -0.5, 2.5,
         1000000000000000.25, 0.000123456789, 1e16, 1e17, 5e-324,
         float("nan"), float("inf"), -float("inf"))
DIGESTS = pytest.mark.parametrize("digest", ["d" * 64], ids=["digest"])


def _floats(count, seed):
    """``count`` floats: EDGES first, then random values over 16 decades."""
    rng = np.random.default_rng(seed)
    values = rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)
    values[:len(EDGES)] = EDGES
    return values


def _complex(re, im):
    # re + 1j * im would turn an infinite imaginary part into a nan real one
    z = np.empty(re.size, dtype=complex)
    z.real, z.imag = re, im
    return z


class _Chain:
    """Stands in for a TransformTrajectory: its functions ignore the times
    and return ``count`` samples."""

    span = (0.0, 1.0)

    def __init__(self, count):
        self.count = count

    def beta(self, ts):
        return _floats(self.count, 1)

    def alpha(self, ts):
        return _complex(_floats(self.count, 2), _floats(self.count, 3)[::-1])

    def mu(self, ts):
        return _complex(_floats(self.count, 4)[::-1], _floats(self.count, 5))

    def phase(self, ts):
        return _complex(_floats(self.count, 6), -_floats(self.count, 7))


def _trajectory_per_row(traj, path, digest, num=512):
    ts = np.linspace(traj.span[0], traj.span[1], num)
    b = np.asarray(traj.beta(ts), dtype=float)
    a = np.asarray(traj.alpha(ts))
    m = np.asarray(traj.mu(ts))
    f = np.asarray(traj.phase(ts))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest: {digest}\n")
        fh.write("t,beta,re_alpha,im_alpha,re_mu,im_mu,re_f,im_f\n")
        for i in range(num):
            row = (ts[i], b[i], a[i].real, a[i].imag,
                   m[i].real, m[i].imag, f[i].real, f[i].imag)
            fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@DIGESTS
@pytest.mark.parametrize("num", [512, 4100])
def test_trajectory_csv_matches_the_per_row_writer(tmp_path, monkeypatch,
                                                   digest, num):
    # 4100 rows take the writer past one 4,096-row chunk
    monkeypatch.setattr(artifacts, "TRAJECTORY_SAMPLES", num)
    traj = _Chain(num)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    write_trajectory_csv(traj, new, digest=digest)
    _trajectory_per_row(traj, old, digest, num=num)
    assert new.read_bytes() == old.read_bytes()


def _ladder_per_row(report, path, digest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest: {digest}\n")
        fh.write(f"# {report.summary_line()}\n")
        fh.write("level,dt,spacing,rel_inf,rel_l2\n")
        for i, rung in enumerate(report.rungs):
            fh.write(f"{i},{rung.step:.17g},{rung.spacing:.17g},"
                     f"{rung.rel_inf:.17g},{rung.rel_l2:.17g}\n")
        if report.per_time:
            fh.write("time,rel_inf,rel_l2,hnorm_inf,hnorm_l2\n")
            for row in report.per_time:
                fh.write(",".join(f"{v:.17g}" for v in row) + "\n")


@DIGESTS
@pytest.mark.parametrize("per_time", [True, False],
                         ids=["per-time", "rungs-only"])
def test_residual_ladder_csv_matches_the_per_row_writer(tmp_path, digest,
                                                        per_time):
    values = _floats(12 * 4 + 7 * 5, 8)
    rungs = tuple(LadderRung(*values[4 * i:4 * i + 4]) for i in range(12))
    rows = tuple(tuple(values[48 + 5 * i:53 + 5 * i]) for i in range(7))
    report = ResidualReport(rungs=rungs, order=1.9990000000000001,
                            grid_desc="polar 8x8", rho_min=0.25,
                            per_time=rows if per_time else ())
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    report.write_csv(new, digest=digest)
    _ladder_per_row(report, old, digest=digest)
    assert new.read_bytes() == old.read_bytes()


def _scan_per_row(outcome, path, digest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest: {digest}\n")
        fh.write(f"# winner: {outcome.winner.label()} "
                 f"margin: {outcome.margin:.17g}\n")
        fh.write("exponent_sign,exponent_half,alpha_branch,"
                 "rel_inf,rel_l2,envelope_decays,winner\n")
        for row in outcome.rows:
            f = row.flags
            fh.write(f"{f.exponent_sign:+d},{f.exponent_half:.17g},"
                     f"{f.alpha_branch:+d},{row.rel_inf:.17g},"
                     f"{row.rel_l2:.17g},{int(row.envelope_decays)},"
                     f"{int(f == outcome.winner)}\n")


@DIGESTS
@pytest.mark.parametrize("seed,margin", [(9, 2.5), (10, float("inf"))])
def test_scan_table_csv_matches_the_per_row_writer(tmp_path, digest, seed,
                                                   margin):
    values = _floats(len(EDGES), seed)
    rng = np.random.default_rng(seed)
    rows = [ScanRow(flags, float(a), float(b), bool(rng.integers(2)))
            for flags, a, b in zip(ConventionFlags.all_combinations(),
                                   values[:8], rng.permutation(values[8:]))]
    rows[3] = ScanRow(ConventionFlags(-1, 1, +1), 0.5, -0.0, True)
    outcome = ScanOutcome(winner=rows[5].flags, runner_up=rows[2].flags,
                          rows=tuple(rows), margin=margin)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    outcome.write_csv(new, digest=digest)
    _scan_per_row(outcome, old, digest=digest)
    assert new.read_bytes() == old.read_bytes()


def _summary_per_row(path, digest, pairs):
    lines = [f"# config_digest: {digest}"]
    lines += [f"{key} = {value}" for key, value in pairs]
    Path(path).write_text("\n".join(lines) + "\n")


def test_summary_matches_the_per_row_writer(tmp_path):
    # the commands always stamp their summaries
    pairs = [("command", "solve"), ("flags", "s=-1,h=1/2,branch=+"),
             ("sector_winding", -1), ("alpha0", repr(complex(0.5, -0.0))),
             *((f"edge_{i}", repr(v)) for i, v in enumerate(EDGES)),
             ("artifacts", "trajectory.csv,field.csv"), ("empty", "")]
    new, old = tmp_path / "new.txt", tmp_path / "old.txt"
    write_summary(new, pairs, "e" * 64)
    _summary_per_row(old, "e" * 64, pairs)
    assert new.read_bytes() == old.read_bytes()


@pytest.mark.parametrize("head,digest", [
    (b"# config_digest: abc123\nx,y\n", "abc123"),
    (b"# mode: m\n# grid: g\n# config_digest: f00d\n", "f00d"),
    (b"x,y\n1,2\n", None),
    (b"\xff\xfe\x00\x01 not text\n# config_digest: late\n", "late"),
    (b"\xff\xd8\xff\xe0" + bytes(range(256)), None),
    (b"# a\n# b\n# c\n# config_digest: fourth\n", "fourth"),
    (b"# a\n# b\n# c\n# d\n# config_digest: fifth\n", None),
    (b"", None),
], ids=["first", "third", "none", "binary-then-digest", "binary", "fourth",
        "fifth", "empty"])
def test_read_digest_reads_the_first_four_lines_as_bytes(tmp_path, head,
                                                         digest):
    path = tmp_path / "some.csv"
    path.write_bytes(head)
    assert read_digest(path) == digest


def _oracle_result(count, fidelities=True):
    """A PropagationResult of ``count`` snapshot times on 256 unknowns,
    with EDGES among its times, fidelities and fields."""
    problem = RadialProblem(make_coeffs(), 1, 6.5, 256, 1e-2, SPAN)
    values = _floats(len(EDGES) + count, 12)
    fields = _complex(_floats(count * 256, 13), _floats(count * 256, 14))
    return PropagationResult(
        problem=problem, times=tuple(values[:count].tolist()),
        fields=fields.reshape(count, 256), norm_drift_step=1.2345678901e-13,
        norm_drift_total=-0.0,
        fidelities=(tuple(values[3:count + 3].tolist()) if fidelities
                    else None))


def _fidelity_per_row(result, path, digest):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"# config_digest: {digest}\n")
        fh.write(f"# {result.problem.describe()}\n")
        fh.write(f"# norm_drift_step:{result.norm_drift_step:.8e};"
                 f"norm_drift_total:{result.norm_drift_total:.8e}\n")
        fh.write("t,fidelity\n")
        for i, t in enumerate(result.times):
            f = (result.fidelities[i] if result.fidelities is not None
                 else float("nan"))
            fh.write(f"{t:.17g},{f:.17g}\n")


@DIGESTS
@pytest.mark.parametrize("fidelities", [True, False],
                         ids=["reference", "no-reference"])
@pytest.mark.parametrize("count", [3, 300])
def test_fidelity_csv_matches_the_per_row_writer(tmp_path, digest, fidelities,
                                                 count):
    # 300 rows, at least 128, send both columns through the g17 kernel
    result = _oracle_result(count, fidelities)
    new, old = tmp_path / "new.csv", tmp_path / "old.csv"
    result.write_csv(new, digest, Table)
    _fidelity_per_row(result, old, digest=digest)
    assert new.read_bytes() == old.read_bytes()


def _tracer():
    spec = importlib.util.spec_from_file_location("bench_tracer",
                                                  BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


def test_bench_tracer_patches_and_restores_every_name():
    # the tracer swaps timing wrappers into the package's namespaces by
    # name, so a writer or kernel that leaves its owner breaks --trace
    tracer = _tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        assert saved
        for owner, attr, original in saved:
            assert owner.__dict__[attr] is not original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, attr


def test_bench_tracer_counts_the_bytes_of_both_oracle_files(tmp_path):
    # the tracer wraps both oracle writers by name and reads the path as
    # their first argument, so a renamed writer or a moved path fails here
    result = _oracle_result(2)
    paths = tmp_path / "fidelity.csv", tmp_path / "oracle_snapshots.csv"
    tracer = _tracer()
    try:
        tracer.install()
        saved = list(tracer._saved)
        result.write_csv(paths[0], "d" * 64, Table)
        result.write_snapshots_csv(paths[1], "d" * 64, Table)
    finally:
        tracer.uninstall()
    assert [(span[0], span[5]) for span in tracer.spans] == [
        ("cli.artifact_write", {"bytes": path.stat().st_size})
        for path in paths]
    for owner, attr, original in saved:
        assert owner.__dict__[attr] is original, attr
