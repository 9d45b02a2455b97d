"""Command line driver: declarative configs in, CSV artifacts out.

Five subcommands cover the pipeline end to end:

  solve         integrate the transformation chain, assemble the field
  verify        run the interior-residual ladder and judge convergence
  oracle        propagate the radial reference and report fidelities
  scan          rank the eight exponent/branch readings by residual
  bessel-table  tabulate the radial pair for manual inspection

Config files use the small ``[section] / key = value`` format scanned by
params.parse_sections; every key is read through params.Section, whose
errors name the offending line.  Physics inputs (coefficients, charge,
coupling, mode numbers, span, grid extents) must be explicit, except three
that default to 0: ``[mode] amp_second``, a sinusoid's ``offset`` and a
Cartesian grid's ``rho_min``.  Otherwise only numerical knobs (ladder
steps, field times) carry defaults.

Every CSV and summary of a config command embeds the sha256 digest of the
config file's text, and every config command refuses an output directory
whose CSV files carry another digest.  Outputs are deterministic: fixed
float format, fixed iteration order, no timestamps.  One process owns an
output directory at a time, enforced with a ``.lock`` file.

The library returns what it measured, a tied scan or an orderless
ladder too; the commands write it, then judge it here: the scan's 2x
rule, the monotone ladder, verify's bar and order window, and the
oracle's fidelity floor.

Exit codes are a stable contract:

  0  pass            4  verification failed (residual/fidelity criteria)
  2  config/parse    5  inconclusive (scan winner under the 2x margin)
  3  solver error    6  unstable oracle propagation
                     7  ladder too short or non-converging to estimate order
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import hashlib
import os
import socket
import sys
from pathlib import Path

import numpy as np

from .artifacts import (Table, read_digest, table_rows, write_summary,
                        write_trajectory_csv)
from .bessel import bessel_j, bessel_n
from .errors import (ConfigError, GridTooCoarse, Inconclusive, InvoscError,
                     OutOfDomain, Unstable)
from .ode import IntegratorConfig, default_alpha0, solve_chain
from .oracle import RadialProblem, propagate, snap_times
from .params import (FAMILIES, CoefficientRangeError, CoefficientSet,
                     Section, parse_sections, within_span)
from .wavefunction import (RESIDUAL_STEPS, CartesianGrid, ConventionFlags,
                           GridGeometry, ModeSpec, PolarGrid, ScanOutcome,
                           assemble_psi, convention_scan, sample_field,
                           schrodinger_residual, sector_winding)

__all__ = ["main", "RunConfig", "EXIT_OK", "EXIT_PARSE", "EXIT_SOLVER",
           "EXIT_VERIFY", "EXIT_INCONCLUSIVE", "EXIT_UNSTABLE", "EXIT_LADDER"]

EXIT_OK = 0
EXIT_PARSE = 2
EXIT_SOLVER = 3
EXIT_VERIFY = 4
EXIT_INCONCLUSIVE = 5
EXIT_UNSTABLE = 6
EXIT_LADDER = 7

OUT_DIR_ENV = "INVOSC_OUT"

# the errors with an exit code of their own; every other InvoscError is 3
_EXIT_OF = {GridTooCoarse: EXIT_LADDER, Inconclusive: EXIT_INCONCLUSIVE,
            Unstable: EXIT_UNSTABLE}

_SECTIONS = {"mass", "frequency", "magnetic_field", "constants", "mode",
             "span", "grid", "verification", "oracle", "run"}
_REQUIRED_SECTIONS = ("mass", "frequency", "magnetic_field", "constants",
                      "mode", "span", "grid")

# Each [grid] type's constructor and the Section.read table of the keys
# it reads besides ``type``, each named after the constructor's parameter.
_GRIDS = {
    "polar": (PolarGrid, {"rho_min": "float", "rho_max": "float",
                          "n_rho": "int", "n_phi": "int"}),
    "cartesian": (CartesianGrid, {"half_width": "float", "n": "int",
                                  "rho_min": ("float", 0.0)}),
}

# verify's window for the ladder's convergence order: the ladder refines
# only the time step of a 2nd-order stencil, so a converging state reads 2
_ORDER_WINDOW = (1.7, 2.3)


# -- run configuration --------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class VerifySettings:
    times: tuple
    dt_ladder: tuple
    max_rel_inf: float


@dataclasses.dataclass(frozen=True)
class OracleSettings:
    record_times: tuple
    min_fidelity: float
    problem: RadialProblem


@dataclasses.dataclass(frozen=True)
class RunConfig:
    """Everything a command needs, read once from a config file.

    ``flags`` come from ``[mode] flags``; None means "scan", and then
    ``mode`` carries the default reading.  Every object a command
    runs is built here, through its section's ``build``, so a value that
    its constructor refuses is a config error at that section.
    verification and oracle sections are optional at parse time; the
    commands that need them say so.
    """

    path: str
    digest: str
    coeffs: CoefficientSet
    span: tuple
    mode: ModeSpec
    flags: ConventionFlags | None
    grid: object
    verify: VerifySettings | None
    oracle: OracleSettings | None
    field_times: tuple

    @classmethod
    def load(cls, path):
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config {path}: {exc}") from exc
        digest = hashlib.sha256(text.encode()).hexdigest()

        sections = parse_sections(text)
        for name, section in sections.items():
            if name not in _SECTIONS:
                raise ConfigError(f"unknown section [{name}]",
                                  section.header_line)
        for name in _REQUIRED_SECTIONS:
            if name not in sections:
                raise ConfigError(f"config has no [{name}] section")

        span_s = sections["span"]
        span = tuple(span_s.read({"t0": "float", "t1": "float"}).values())
        if not span[0] < span[1]:
            raise ConfigError(f"span [{span[0]!r}, {span[1]!r}] is empty",
                              span_s.header_line)

        consts = sections["constants"].read({"q": "float", "C": "float"})
        try:
            coeffs = CoefficientSet(
                **{name: sections[name].variant("family", FAMILIES, span=span)
                   for name in ("mass", "frequency", "magnetic_field")},
                charge=consts["q"], coupling=consts["C"])
        except CoefficientRangeError as exc:
            raise ConfigError(str(exc),
                              sections[exc.coefficient].header_line) from exc

        mode_s = sections["mode"]
        mode_kw = mode_s.read({"flags": "str", "k": "float", "n": "int",
                               "amp_first": "complex",
                               "amp_second": ("complex", 0j),
                               "angular_sign": "int"})
        label = mode_kw.pop("flags")
        try:
            flags = (None if label == "scan"
                     else ConventionFlags.from_label(label))
        except ValueError as exc:
            raise ConfigError(f"flags: {exc}",
                              mode_s.items["flags"][1]) from None
        mode = mode_s.build(ModeSpec.from_coupling, C=consts["C"],
                            conventions=flags or ConventionFlags(), **mode_kw)

        grid = sections["grid"].variant("type", _GRIDS)

        verify = None
        if "verification" in sections:
            ver_s = sections["verification"]
            verify = VerifySettings(**ver_s.read({
                "times": "floats", "dt_ladder": ("floats", RESIDUAL_STEPS),
                "max_rel_inf": "float"}))
            # a bar no result can meet is refused before the ladder runs
            if verify.max_rel_inf <= 0:
                raise ConfigError("max_rel_inf must be positive",
                                  ver_s.items["max_rel_inf"][1])
            ladder = verify.dt_ladder
            if not (all(dt > 0 for dt in ladder)
                    and all(a > b for a, b in zip(ladder, ladder[1:]))):
                raise ConfigError("dt_ladder must be positive and strictly "
                                  "decreasing",
                                  ver_s.items["dt_ladder"][1])
            # the residual's stencil reaches each time +- the largest step
            if not within_span(np.add.outer(verify.times,
                                            (-ladder[0], ladder[0])), span):
                raise ConfigError(
                    f"times +- dt_ladder[0] must lie in the span "
                    f"[{span[0]!r}, {span[1]!r}]", ver_s.items["times"][1])

        oracle = None
        if "oracle" in sections:
            orc_s = sections["oracle"]
            orc_kw = orc_s.read({"record_times": "floats",
                                 "min_fidelity": "float", "rho_max": "float",
                                 "n_rho": "int", "dt": "float"})
            oracle = OracleSettings(
                orc_kw.pop("record_times"), orc_kw.pop("min_fidelity"),
                orc_s.build(RadialProblem, coeffs=coeffs,
                            n=sector_winding(mode), span=span, **orc_kw))
            if not 0 <= oracle.min_fidelity <= 1:
                raise ConfigError("min_fidelity must lie in [0, 1]",
                                  orc_s.items["min_fidelity"][1])
            try:
                snap_times(span, oracle.problem.dt, oracle.record_times)
            except OutOfDomain as exc:
                raise ConfigError(f"record_times: {exc}",
                                  orc_s.items["record_times"][1]) from exc

        run_s = sections.get("run") or Section("run", None)
        run = run_s.read({"field_times": ("floats", span)})
        if not within_span(run["field_times"], span):
            raise ConfigError(
                f"field_times must lie in the span [{span[0]!r}, "
                f"{span[1]!r}]", run_s.items["field_times"][1])

        return cls(path=str(path), digest=digest, coeffs=coeffs, span=span,
                   mode=mode, flags=flags, grid=grid, verify=verify,
                   oracle=oracle, field_times=run["field_times"])

    def chain(self, branch):
        alpha0 = default_alpha0(self.coeffs, self.span[0], branch=branch)
        return solve_chain(self.coeffs, self.mode.k, span=self.span,
                           alpha0=alpha0)


# -- shared plumbing ----------------------------------------------------------

def _resolve_out(args):
    out = args.out or os.environ.get(OUT_DIR_ENV) or "."
    path = Path(out)
    try:
        path.mkdir(parents=True, exist_ok=True)
    except (FileExistsError, NotADirectoryError) as exc:
        raise ConfigError(f"output directory {out} is not a directory: "
                          f"{exc.strerror}") from exc
    except OSError as exc:
        # a name too long, a read-only file system: nothing is written
        raise ConfigError(f"cannot make output directory {out}: "
                          f"{exc.strerror}") from exc
    return path


class _OutputLock:
    """Exclusive ``.lock`` in the output directory, crash leaves it behind.

    The file records the owner's pid and host.  A lock whose owner ran on
    this host and is gone is named as stale in the refusal, but it is
    never removed: only the user can rule out a run on a shared mount.
    """

    def __init__(self, out_dir):
        self.lock_path = Path(out_dir) / ".lock"

    def __enter__(self):
        try:
            fd = os.open(self.lock_path, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            pid = self._dead_owner()
            if pid is not None:
                raise InvoscError(
                    f"output directory is locked by a stale {self.lock_path} "
                    f"left by pid {pid}, which is no longer running on this "
                    "host; remove the file to continue") from None
            raise InvoscError(
                f"output directory is locked by {self.lock_path}; remove the "
                "file if no other run is active") from None
        os.write(fd, f"{os.getpid()}\n{socket.gethostname()}\n".encode())
        os.close(fd)
        return self

    def _dead_owner(self):
        """The lock's pid if it was taken on this host and has exited."""
        try:
            pid_text, host = self.lock_path.read_text().splitlines()[:2]
            pid = int(pid_text)
        except (OSError, ValueError):
            return None
        # os.kill(pid, 0) only probes on POSIX; elsewhere it terminates.
        if os.name != "posix" or host != socket.gethostname() or pid <= 0:
            return None
        try:
            os.kill(pid, 0)
        except ProcessLookupError:
            return pid
        except (OSError, OverflowError):
            pass
        return None

    def __exit__(self, *exc_info):
        self.lock_path.unlink(missing_ok=True)
        return False


def _refuse_digest_clash(out_dir, digest):
    # a directory or other non-file whose name ends in .csv holds no digest
    for prior in sorted(Path(out_dir).glob("*.csv")):
        if not prior.is_file():
            continue
        old = read_digest(prior)
        if old is not None and old != digest:
            raise ConfigError(
                f"{prior.name} in the output directory was written from a "
                f"different config (digest {old[:12]} vs {digest[:12]}); "
                "point --out somewhere fresh or remove the stale artifacts")


def _say(args, text):
    if not args.quiet:
        print(text)


@dataclasses.dataclass(frozen=True)
class _Run:
    """What _run hands a command: the config, the locked output directory,
    the flags' source, the scan if one ran, and the flags' chain and mode."""

    command: str
    cfg: RunConfig
    out: Path
    source: str
    scan: ScanOutcome | None
    traj: object
    mode: ModeSpec

    def write_summary(self, name, pairs):
        """``name``: the pairs every summary opens with, then ``pairs``."""
        cfg, mode = self.cfg, self.mode
        head = [("command", self.command), ("config", Path(cfg.path).name),
                ("flags", mode.conventions.label()),
                ("flags_source", self.source), ("mode", mode.describe()),
                ("sector_winding", sector_winding(mode))]
        write_summary(self.out / name, head + pairs, cfg.digest)


@contextlib.contextmanager
def _run(args, need=None, scan=False, levels=1):
    """Load the config; refuse it without the section ``need``, without
    [verification] for a scan (``scan`` forces one), or with fewer than
    ``levels`` ladder levels; make and lock the output directory, refusing
    one that holds another config's artifacts; then resolve the flags and
    yield the _Run, holding the lock."""
    cfg = RunConfig.load(args.config)
    scan = scan or cfg.flags is None
    settings = {"verification": cfg.verify, "oracle": cfg.oracle}
    if need is not None and settings[need] is None:
        raise ConfigError(f"{args.command} needs the [{need}] section")
    if scan and cfg.verify is None:
        raise ConfigError(f"{args.command} needs the [verification] section "
                          "for the scan's residual times and step")
    if cfg.verify is not None and len(cfg.verify.dt_ladder) < levels:
        raise GridTooCoarse("cannot estimate a convergence order from "
                            f"{len(cfg.verify.dt_ladder)} ladder level")
    out = _resolve_out(args)
    with _OutputLock(out):
        _refuse_digest_clash(out, cfg.digest)
        chain = functools.cache(cfg.chain)
        flags, source, outcome = cfg.flags, "config", None
        if scan:
            outcome = _scan(cfg, out, chain)
            flags = outcome.winner
            source = f"scan(margin={outcome.margin:.6g})"
        yield _Run(args.command, cfg, out, source, outcome,
                   chain(flags.alpha_branch),
                   dataclasses.replace(cfg.mode, conventions=flags))


def _scan(cfg, out, chain):
    """Rank the eight readings, write scan_table.csv and refuse a tie; a
    memoized ``chain(branch)`` keeps the winner's chain for the command."""
    outcome = convention_scan(cfg.mode, chain, cfg.coeffs, cfg.grid,
                              times=cfg.verify.times,
                              step=cfg.verify.dt_ladder[0])
    outcome.write_csv(out / "scan_table.csv", digest=cfg.digest)
    _require_decisive(outcome)
    return outcome


def _require_decisive(outcome):
    """The 2x rule: a winner closer than 2x to the runner-up was not chosen
    by the data, so the scan is Inconclusive."""
    if outcome.margin < 2.0:
        rel_inf = {row.flags: row.rel_inf for row in outcome.rows}
        best, second = outcome.winner, outcome.runner_up
        raise Inconclusive(
            f"best residual {rel_inf[best]:.3e} ({best.label()}) is "
            f"within 2x of runner-up {rel_inf[second]:.3e} "
            f"({second.label()})")


# -- commands -----------------------------------------------------------------

def cmd_solve(args):
    with _run(args) as run:
        cfg, out = run.cfg, run.out
        artifacts = ["trajectory.csv", "field.csv"]
        if run.scan is not None:
            artifacts.append("scan_table.csv")
        # the field first: a grid that cannot be allocated leaves no file
        field = sample_field(run.mode, run.traj, cfg.grid, cfg.field_times)
        write_trajectory_csv(run.traj, out / "trajectory.csv",
                             digest=cfg.digest)
        field.write_csv(out / "field.csv", digest=cfg.digest)
        run.write_summary("summary.txt", [
            ("span", f"{cfg.span[0]!r},{cfg.span[1]!r}"),
            ("coefficients", cfg.coeffs.describe()),
            ("grid", cfg.grid.describe()),
            ("field_times", ",".join(repr(t) for t in cfg.field_times)),
            ("chain_rel_tol", repr(IntegratorConfig.rel_tol)),
            ("chain_abs_tol", repr(IntegratorConfig.abs_tol)),
            ("alpha0", repr(run.traj.alpha0)),
            ("artifacts", ",".join(artifacts)),
        ])
    flags = run.mode.conventions.label()
    _say(args, f"solve: flags {flags} ({run.source}), "
               f"wrote {', '.join(artifacts)}, summary.txt")
    return EXIT_OK


def cmd_verify(args):
    with _run(args, "verification", levels=2) as run:
        ver = run.cfg.verify
        report = schrodinger_residual(run.mode, run.traj, run.cfg.coeffs,
                                      run.cfg.grid, times=ver.times,
                                      steps=ver.dt_ladder)
        report.write_csv(run.out / "residual_ladder.csv",
                         digest=run.cfg.digest)
        if report.order is None:
            reason = ("refinement ladder is not monotone: " + " -> ".join(
                f"{r.rel_inf:.3e}" for r in report.rungs))
            _say(args, f"verify: FAIL (no convergence) {reason}")
            raise GridTooCoarse(reason)
    lo, hi = _ORDER_WINDOW
    ok = report.rel_inf <= ver.max_rel_inf and lo <= report.order <= hi
    verdict = "PASS" if ok else "FAIL"
    _say(args, f"verify: {verdict} flags {run.mode.conventions.label()} "
               f"({run.source}) "
               f"{report.summary_line()} "
               f"(need rel_inf<={ver.max_rel_inf:g}, order in "
               f"[{lo:g},{hi:g}])")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_oracle(args):
    with _run(args, "oracle") as run:
        cfg, mode, orc = run.cfg, run.mode, run.cfg.oracle
        problem = orc.problem
        rho, zero = problem.rho, 0.0 * problem.rho
        geometry = GridGeometry(rho, zero, problem.n)

        def reference(t):
            return assemble_psi(mode, run.traj, rho, zero, t,
                                geometry=geometry)

        u0 = np.asarray(reference(cfg.span[0]), dtype=complex)
        result = propagate(problem, u0, record_times=orc.record_times,
                           reference=reference)
        result.write_csv(run.out / "fidelity.csv", cfg.digest, Table)
        result.write_snapshots_csv(run.out / "oracle_snapshots.csv",
                                   cfg.digest, Table)
        min_f = min(result.fidelities)
        run.write_summary("oracle_summary.txt", [
            ("problem", problem.describe()),
            ("norm_drift_total", repr(result.norm_drift_total)),
            ("min_fidelity", repr(min_f)),
            ("threshold", repr(orc.min_fidelity)),
        ])
    ok = min_f >= orc.min_fidelity
    verdict = "PASS" if ok else "FAIL"
    _say(args, f"oracle: {verdict} min fidelity {min_f:.17g} "
               f"(need >= {orc.min_fidelity:g}), norm drift "
               f"{result.norm_drift_total:.3g}, nu={mode.nu:g}, "
               f"sector {problem.n}")
    return EXIT_OK if ok else EXIT_VERIFY


def cmd_scan(args):
    try:
        with _run(args, scan=True) as run:
            outcome = run.scan
    except Inconclusive as exc:
        _say(args, f"scan: INCONCLUSIVE {exc}")
        raise
    _say(args, f"scan: winner {outcome.winner.label()} "
               f"margin {outcome.margin:.6g}, wrote scan_table.csv")
    return EXIT_OK


def cmd_bessel_table(args):
    """Rows x,j,n in '%.17g', from one J and one N call on the whole range.

    J_nu is bounded on the positive axis, so only N can leave the double
    range; the array call then raises the Overflow that the first bad
    row would have raised, before anything is written.  So does J's
    DomainTooLarge for a range that reaches past 2^51.
    """
    # nan fails every comparison, so the chain also rejects it
    if not 0 < args.x_min < args.x_max < np.inf:
        raise InvoscError("bessel-table needs 0 < x_min < x_max")
    if args.num < 2:
        raise InvoscError("bessel-table needs num >= 2")
    xs = np.linspace(args.x_min, args.x_max, args.num)
    j = bessel_j(args.nu, xs)
    n = bessel_n(args.nu, xs)
    data = b"".join([b"x,j,n\n", *table_rows(xs, j, n)])
    if args.out:
        out = _resolve_out(args)
        (out / "bessel_table.csv").write_bytes(data)
        _say(args, f"bessel-table: wrote {out / 'bessel_table.csv'}")
    else:
        sys.stdout.write(data.decode("ascii"))
    return EXIT_OK


# -- entry point --------------------------------------------------------------

@functools.cache
def _build_parser():
    """The argparse tree, built once per process.  Only callers that run
    main repeatedly in one process gain (a fresh tree cost 0.8-1.0 ms a
    call on a 2-vCPU host, about 15% of a 3,000-row bessel-table call);
    a shell invocation builds it once either way.  parse_args keeps no
    state on the tree between calls."""
    parser = argparse.ArgumentParser(
        prog="invosc",
        description="Exact oscillator states in a time-dependent magnetic "
                    "field: solve, verify, cross-check.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text, with_config=True,
            out_help=f"output directory (default ${OUT_DIR_ENV} or .)"):
        p = sub.add_parser(name, help=help_text)
        if with_config:
            p.add_argument("--config", required=True, help="config file path")
        p.add_argument("--out", default=None, help=out_help)
        p.add_argument("--quiet", action="store_true",
                       help="suppress the stdout summary line")
        p.set_defaults(func=func)
        return p

    add("solve", cmd_solve,
        "solve the chain, assemble the field, write artifacts")
    add("verify", cmd_verify,
        "run the PDE residual ladder against the assembled field")
    add("oracle", cmd_oracle,
        "propagate the independent radial reference and compare")
    add("scan", cmd_scan,
        "rank all 8 convention readings by residual")
    p = add("bessel-table", cmd_bessel_table,
            "tabulate J_nu and N_nu on a range", with_config=False,
            out_help="write bessel_table.csv into this directory "
                     "(default: print the table to stdout)")
    p.add_argument("nu", type=float, help="order")
    p.add_argument("x_min", type=float, help="first abscissa (> 0)")
    p.add_argument("x_max", type=float, help="last abscissa")
    p.add_argument("num", type=int, help="number of rows")
    return parser


def main(argv=None):
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except InvoscError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return next((code for kind, code in _EXIT_OF.items()
                     if isinstance(exc, kind)), EXIT_SOLVER)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except MemoryError as exc:
        # a size no allocator can meet, such as numpy's refusal of a grid
        # or table past the address space
        print(f"error: MemoryError: {exc}", file=sys.stderr)
        return EXIT_SOLVER


if __name__ == "__main__":
    sys.exit(main())
