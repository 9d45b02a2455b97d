"""End-to-end and per-layer benchmark of the invosc command line.

Usage, from the root of a checkout:

    python3 bench/run.py --workload static --seed 1 --seconds 30 --trace 0

One process runs a workload's commands through ``invosc.cli.main``, one
after another (a closed loop with a single client).  A *pass* is every
command of the workload once; passes repeat while the next one is expected
to end within ``--seconds``, at least one.  Workloads, and why each is here:

  static  static_c15 and static_c0 through solve, verify, scan, oracle.
          Constant coefficients, every Bessel argument in the float
          series: time goes to the CN loop, residual/scan assembly and
          CSV writing.  A constant-coefficient CN shortcut shows here.
  driven  ramp_mass, sinusoidal_b and exp_omega through the same four
          commands.  Time-dependent coefficients rebuild the CN matrix
          every step, and the oracle reference takes the mpmath Bessel
          path; a constant-coefficient shortcut must not apply here.
  tables  bessel-table at an integer, a half-integer and an irrational
          order, 3000 scalar rows each: the only path into N, Steed and
          the reflection formula, one scalar per call.

End-to-end metrics (``--trace 0``), all over the untraced passes:

  total_rel      the time from configs to checked verdicts, in units of
                 a calibration kernel (see calibration.py): the sum over
                 the pass's commands of each command's median, over the
                 passes, of its wall time divided by the mean kernel time
                 just before and just after it.  The kernel runs before
                 the first command and after each command, once or for a
                 fifth of the command's time, whichever is longer, so the
                 drift of a shared host cancels out of the ratio.
  setup_s        median over fresh interpreters of ``import invosc`` plus
                 ``RunConfig.load`` of the workload's configs
  peak_rss_mb    peak resident memory of the process running the passes

The sum of the commands' median wall times, in seconds, is printed in
the report and, with ``--trace 1``, as ``trace.untraced_total_s``, next
to the kernel's median time ``calib.kernel_s``.

``--trace 1`` runs the same untraced passes, then one traced pass
without the calibration kernel, and prints the per-layer metrics (see
tracer.py).  The tracing overhead is the traced pass's wall time minus
the untraced ``trace.untraced_total_s``.  Spans go to
``trace.json`` in the run directory,
``.bench_runs/<workload>-seed<n>-trace<t>/``, next to the generated
configs and ``results.json``.

Every command is checked (see checks.py) and the artifacts of every pass
must be byte-identical to the first pass of the run, traced or not.  A
failed check counts the command as failed; the run still reports, and
exits 1 after printing its result.  The last line of stdout is the JSON
result; the lines before it are the human-readable report.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import calibration
import checks
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_SAMPLES = 5
# calibration kernel time after a command of an untraced pass, as a share
# of the command's time (at least one kernel run)
KERNEL_SHARE = 0.2
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

_SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
import invosc
from invosc.cli import RunConfig
t1 = time.perf_counter()
for path in sys.argv[1:]:
    RunConfig.load(path)
t2 = time.perf_counter()
print(repr(t1 - t0), repr(t2 - t1))
"""


def _pin_threads():
    """Cap the BLAS/OpenMP pools at the CPUs this process may use."""
    ncpu = len(os.sched_getaffinity(0))
    for var in THREAD_VARS:
        try:
            want = int(os.environ.get(var, ncpu))
        except ValueError:
            want = ncpu
        os.environ[var] = str(max(1, min(want, ncpu)))
    return ncpu


def _environment(ncpu):
    import mpmath
    import numpy
    import scipy

    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=30,
                             check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "none (not a git checkout)"
    return {"git_sha": sha, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "mpmath": mpmath.__version__, "cpus": ncpu,
            "threads": {v: os.environ[v] for v in THREAD_VARS}}


def _measure_setup(config_paths):
    """Fresh interpreters: import invosc, then load the pass's configs."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    samples, failures = [], 0
    for _ in range(SETUP_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", _SETUP_CHILD,
                               *config_paths], capture_output=True,
                              text=True, env=env, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            failures += 1
            sys.stderr.write(proc.stderr)
            continue
        imp, load = (float(v) for v in proc.stdout.split())
        samples.append((imp, load))
    return samples, failures


@dataclasses.dataclass
class Pass:
    """Every op of the workload once: timings, exit codes, check results."""

    wall_s: float           # sum of the op times
    times: dict             # op key -> wall s
    codes: dict             # op key -> exit code, or "exception"
    kernel_s: list          # kernel run times before op 0 and after each
                            # op, one list each (untraced passes)
    problems: dict          # op key -> list of failed checks
    traced: bool


class Runner:
    """Runs passes in fresh directories and judges their artifacts."""

    def __init__(self, work, cli_main, run_dir):
        self.work = work
        self.cli_main = cli_main
        self.kernel = calibration.Calibration()
        self.run_dir = run_dir
        self.reference = checks.TableReference()
        self.first_hashes = None
        self.figures = {}           # accuracy figure -> values over passes
        self.passes = []

    def run(self, tracer=None):
        pass_dir = self.run_dir / f"pass{len(self.passes)}"
        times, codes, kernel = {}, {}, []
        if not tracer:
            kernel.append(self._kernel_block(0.0))
        for op in self.work.ops:
            argv = [*op.argv, "--out", str(pass_dir / op.key)]
            span = tracer.open("cmd", {"op": op.key}) if tracer else None
            t0 = time.perf_counter()
            try:
                codes[op.key] = self.cli_main(argv)
            except Exception:       # a crash is a failed op, not a dead run
                traceback.print_exc(file=sys.stderr)
                codes[op.key] = "exception"
            finally:
                times[op.key] = time.perf_counter() - t0
                if tracer:
                    tracer.close(span)
            if not tracer:
                kernel.append(self._kernel_block(times[op.key]))
        record = Pass(sum(times.values()), times, codes, kernel,
                      self._judge(pass_dir, codes), tracer is not None)
        self.passes.append(record)
        return record

    def _kernel_block(self, command_s):
        block = [self.kernel()]
        while sum(block) < KERNEL_SHARE * command_s:
            block.append(self.kernel())
        return block

    def _judge(self, pass_dir, codes):
        problems, hashes = {}, {}
        for op in self.work.ops:
            out = pass_dir / op.key
            bad, figs = checks.check(op, codes[op.key], out, self.work,
                                     self.reference)
            hashes[op.key] = checks.artifact_hashes(out) if out.is_dir() else {}
            if (self.first_hashes is not None
                    and hashes[op.key] != self.first_hashes[op.key]):
                bad.append("artifacts differ from the first pass")
            problems[op.key] = bad
            for name, value in figs.items():
                self.figures.setdefault(name, []).append(value)
        self.first_hashes = self.first_hashes or hashes
        shutil.rmtree(pass_dir)
        return problems


def _accuracy(figures):
    """Worst accuracy figure of each kind over the checked commands.

    A workload that runs no command of a kind reports 0 for it.
    """
    def worst(name, pick):
        values = figures.get(name)
        return pick(values) if values else 0.0

    return {"check.verify_rel_inf_max": worst("verify_rel_inf", max),
            "check.oracle_infidelity_max": worst("oracle_infidelity", max),
            "check.scan_margin_min": worst("scan_margin", min),
            "check.table_rel_err_max": worst("table_rel_err", max)}


def _op_medians(work, passes):
    """Median wall time of each op over the untraced passes."""
    return {op.key: statistics.median(p.times[op.key] for p in passes
                                      if not p.traced)
            for op in work.ops}


def _op_relative(work, passes):
    """Median of each op's time over the mean kernel time around it."""
    ratios = {op.key: [] for op in work.ops}
    for p in passes:
        if p.traced:
            continue
        for i, op in enumerate(work.ops):
            around = (statistics.mean(p.kernel_s[i])
                      + statistics.mean(p.kernel_s[i + 1])) / 2
            ratios[op.key].append(p.times[op.key] / around)
    return {key: statistics.median(v) for key, v in ratios.items()}


def _command_sums(work, medians):
    sums = {"cmd.solve_s": 0.0, "cmd.verify_s": 0.0, "cmd.scan_s": 0.0,
            "cmd.oracle_s": 0.0, "cmd.table_s": 0.0}
    for op in work.ops:
        name = "table" if op.command == "bessel-table" else op.command
        sums[f"cmd.{name}_s"] += medians[op.key]
    return sums


def _report(work, runner, medians, relative, failed, attempted, accuracy):
    untraced = [p for p in runner.passes if not p.traced]
    print(f"# invosc benchmark: workload={work.name} seed={work.seed} "
          f"passes={len(untraced)} untraced + "
          f"{len(runner.passes) - len(untraced)} traced")
    for name, params in work.drawn.items():
        drawn = ", ".join(f"{k}={v!r}" for k, v in params.items())
        print(f"# drawn {name}: {drawn or 'bundled values'}")
    print(f"# per command over {len(untraced)} untraced passes: wall s "
          "median / max, kernel units median")
    for op in work.ops:
        worst = max(p.times[op.key] for p in untraced)
        print(f"#   {op.key:24s} {medians[op.key]:9.4f} {worst:9.4f} "
              f"{relative[op.key]:9.3f}")
    print(f"#   {'sum of the medians':24s} {sum(medians.values()):9.4f} "
          f"{'':9s} {sum(relative.values()):9.3f}")
    print("# per pass: wall s; mean calibration kernel s before the first "
          "command and after each")
    for i, record in enumerate(untraced):
        kernel = " ".join(f"{statistics.mean(k):.4f}" for k in record.kernel_s)
        print(f"#   pass {i}: {record.wall_s:.4f}; {kernel}")
    for i, record in enumerate(runner.passes):
        for key, bad in record.problems.items():
            for msg in bad:
                print(f"# FAILED pass {i} {key}: {msg}")
    for name, value in accuracy.items():
        print(f"# {name} = {value!r}")
    print(f"# fail_ratio = {failed / attempted!r} ({failed}/{attempted})")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "invosc" / "__init__.py").is_file():
        print(f"error: no invosc package under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    ncpu = _pin_threads()
    sys.path.insert(0, str(SRC))
    import tracer as tracing        # numpy, so after the thread caps
    import invosc
    from invosc.cli import main as cli_main

    if Path(invosc.__file__).resolve().parent != SRC / "invosc":
        print(f"error: imported invosc from {invosc.__file__}", file=sys.stderr)
        return 2

    run_dir = ROOT / ".bench_runs" / (
        f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    work = workloads.generate(args.workload, args.seed,
                              SRC / "invosc" / "configs", run_dir)
    env = _environment(ncpu)
    print("# environment: " + json.dumps(env, sort_keys=True))
    setup, setup_failed = _measure_setup(work.config_paths)
    if not setup:
        print("error: no set-up sample could import invosc", file=sys.stderr)
        return 1

    runner = Runner(work, cli_main, run_dir)
    runner.kernel()                 # warm-up, untimed
    start = time.perf_counter()
    while True:
        runner.run()
        spent = time.perf_counter() - start
        if spent * (1 + 1 / len(runner.passes)) > args.seconds:
            break
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.pass_id = len(runner.passes)
        tracer.install()
        try:
            runner.run(tracer)
        finally:
            tracer.uninstall()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    attempted = len(setup) + setup_failed + sum(
        len(p.times) for p in runner.passes)
    failed = setup_failed + sum(
        1 for p in runner.passes for bad in p.problems.values() if bad)
    medians = _op_medians(work, runner.passes)
    total_s = sum(medians.values())
    relative = _op_relative(work, runner.passes)
    total_rel = sum(relative.values())
    kernel_s = statistics.median(
        k for p in runner.passes for block in p.kernel_s for k in block)
    accuracy = _accuracy(runner.figures)
    _report(work, runner, medians, relative, failed, attempted, accuracy)

    if args.trace:
        traced = runner.passes[-1]
        values = tracing.layer_metrics(tracer.spans, tracer.pass_id,
                                       traced.wall_s, tracer.value_calls)
        print(f"# traced pass {traced.wall_s:.4f} s = "
              + " + ".join(f"{n} {values[n]:.4f}" for n in tracing.PARTITION)
              + f" + unattributed {values['trace.unattributed_s']:.4f}")
        values["cli.import_s"] = statistics.median(i for i, _ in setup)
        values.update(_command_sums(work, medians))
        values.update(accuracy)
        values["cmd.slowest_s"] = max(medians.values())
        values["calib.kernel_s"] = kernel_s
        values["trace.total_s"] = traced.wall_s
        values["trace.untraced_total_s"] = total_s
        values["trace.overhead_s"] = traced.wall_s - total_s
        tracer.write_json(run_dir / "trace.json")
        declared = spec["per_layer"]
    else:
        values = {"total_rel": total_rel,
                  "setup_s": statistics.median(i + c for i, c in setup),
                  "peak_rss_mb": peak_rss_mb}
        declared = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in declared}
    for name, entry in metrics.items():
        print(f"# {name} = {entry['value']!r} {entry['unit']}")

    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (run_dir / "results.json").write_text(json.dumps(
        {"workload": work.name, "seed": work.seed, "trace": args.trace,
         "environment": env, "drawn": work.drawn,
         "passes": [dataclasses.asdict(p) for p in runner.passes],
         "setup_samples": setup, "all": values, "result": result},
        indent=1))
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
