"""Spans around the public functions of invosc, recorded from outside.

The package looks its collaborators up as module globals at call time
(``cli`` calls ``solve_chain``, ``wavefunction`` calls ``bessel_j``, the
oracle calls ``solve_banded``...), so replacing those names with timing
wrappers traces every layer boundary without touching the package.
``Tracer.install`` swaps the wrappers in and ``Tracer.uninstall`` puts the
originals back; nothing is left patched between passes.

A span is ``[name, start_ns, end_ns, parent, pass_id, attrs]``; ``parent``
is the index of the enclosing span or -1.  Spans stay in memory and are
written once, by ``write_json``, when the run ends.

``layer_metrics`` turns one pass's spans into the per-layer figures.  Each
layer metric, the end-to-end metric it should move (through the
per-command sum in between) and the workloads it shows on:

  cli.config_load_s         setup_s                          all
  cli.import_s              setup_s                          all
  cli.artifact_write_s      total_rel via cmd.solve_s        static, driven
  ode.solve_chain_s         total_rel via cmd.scan_s         static, driven
  bessel.j_s, j_points_*    total_rel via cmd.scan_s/verify  static, driven
  bessel.j_slow_s           total_rel via cmd.oracle_s       driven only
  bessel.n_s, n_points      total_rel via cmd.table_s        tables only
  wavefunction.*_self_s     total_rel via cmd.scan_s/verify  static, driven
  oracle.coeff_s, .linsolve_s, .propagate_self_s
                            total_rel via cmd.oracle_s       static, driven
  oracle.reference_s        total_rel via cmd.oracle_s       driven (mp points)
  params.value_calls        total_rel via cmd.oracle_s       static, driven

Self time is a span's duration minus the durations of its direct child
spans.  Leaf layers (config load, artifact write, solve_chain, J, N,
coefficient rebuild, banded solve) have no traced children, so their
``_s`` figure is their self time.  The self times of all layer spans plus
``trace.unattributed_s`` (CLI code outside any traced layer) add up to
the traced pass's wall time, the sum of its commands' wall times.
"""

from __future__ import annotations

import functools
import json
import os
import time

import numpy as np

# bessel_j's documented regimes: float series for |z| <= 10, Steed on the
# real axis past 10, the mpmath series for complex 10 < |z| <= 30.
SERIES_RADIUS = 10.0

# Self-time figures that, with trace.unattributed_s, add up to the pass.
PARTITION = ("cli.config_load_s", "cli.artifact_write_s", "ode.solve_chain_s",
             "bessel.j_s", "bessel.n_s", "wavefunction.assemble_self_s",
             "wavefunction.residual_self_s", "wavefunction.scan_self_s",
             "oracle.coeff_s", "oracle.linsolve_s", "oracle.propagate_self_s",
             "oracle.reference_self_s")


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self):
        self.spans = []
        self.value_calls = 0        # TimeFunction.value calls, not spanned
        self.pass_id = None
        self._stack = []
        self._saved = []

    # -- spans -----------------------------------------------------------------

    def open(self, name, attrs=None):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent,
                           self.pass_id, attrs])
        self._stack.append(idx)
        return idx

    def close(self, idx):
        self.spans[idx][2] = time.perf_counter_ns()
        self._stack.pop()

    def wrap(self, name, fn, before=None, after=None):
        """``fn`` inside a span; ``before``/``after`` fill attrs untimed."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            attrs = before(*args, **kwargs) if before else {}
            idx = self.open(name, attrs)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(idx)
            if after:
                after(attrs, result, args)
            return result

        return traced

    # -- patching --------------------------------------------------------------

    def _patch(self, owner, attr, replacement):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def install(self):
        """Swap the timing wrappers into the invosc namespaces."""
        from invosc import cli, oracle, params, wavefunction

        self.value_calls = 0
        load = cli.RunConfig.__dict__["load"]
        self._patch(cli.RunConfig, "load", classmethod(
            self.wrap("cli.config_load", load.__func__)))

        def artifact_bytes(attrs, _result, args):
            attrs["bytes"] = os.path.getsize(args[1])

        for owner, attr in ((wavefunction.WaveField, "write_csv"),
                            (wavefunction.ResidualReport, "write_csv"),
                            (wavefunction.ScanOutcome, "write_csv"),
                            (oracle.PropagationResult, "write_csv"),
                            (oracle.PropagationResult, "write_snapshots_csv"),
                            (cli, "write_trajectory_csv")):
            self._patch(owner, attr, self.wrap(
                "cli.artifact_write", owner.__dict__[attr],
                after=artifact_bytes))

        self._patch(cli, "solve_chain",
                    self.wrap("ode.solve_chain", cli.solve_chain))

        j = self.wrap("bessel.j", cli.bessel_j, before=_classify_j)
        n = self.wrap("bessel.n", cli.bessel_n,
                      before=lambda nu, x, *a, **k: {"points": np.size(x)})
        assemble = self.wrap("wavefunction.assemble", cli.assemble_psi,
                             before=_assemble_points)

        def rungs(attrs, report, _args):
            attrs["rungs"] = len(report.rungs)

        residual = self.wrap("wavefunction.residual",
                             cli.schrodinger_residual, after=rungs)
        for module in (cli, wavefunction):
            self._patch(module, "bessel_j", j)
            self._patch(module, "bessel_n", n)
            self._patch(module, "assemble_psi", assemble)
            self._patch(module, "schrodinger_residual", residual)
        self._patch(cli, "convention_scan",
                    self.wrap("wavefunction.scan", cli.convention_scan))

        self._patch(cli, "propagate", self._wrap_propagate(cli.propagate))
        self._patch(oracle, "effective_potential",
                    self.wrap("oracle.coeff", oracle.effective_potential))
        self._patch(oracle, "solve_banded",
                    self.wrap("oracle.linsolve", oracle.solve_banded))

        value = params.TimeFunction.__dict__["value"]

        @functools.wraps(value)
        def counted(tf, t):
            self.value_calls += 1
            return value(tf, t)

        self._patch(params.TimeFunction, "value", counted)
        self._patch(params.TimeFunction, "__call__", counted)

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def _wrap_propagate(self, propagate):
        def before(problem, *args, **kwargs):
            t0, t1 = problem.span
            return {"steps": max(1, int(round((t1 - t0) / problem.dt))),
                    "unknowns": int(problem.rho.size)}

        def after(attrs, result, _args):
            attrs["norm_drift"] = result.norm_drift_total

        traced = self.wrap("oracle.propagate", propagate, before, after)

        @functools.wraps(propagate)
        def with_reference(problem, u0, *args, **kwargs):
            if kwargs.get("reference") is not None:
                kwargs["reference"] = self.wrap("oracle.reference",
                                                kwargs["reference"])
            return traced(problem, u0, *args, **kwargs)

        return with_reference

    # -- output ----------------------------------------------------------------

    def write_json(self, path):
        doc = {"fields": ["name", "start_ns", "end_ns", "parent", "pass",
                          "attrs"],
               "spans": self.spans,
               "value_calls": self.value_calls}
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _classify_j(nu, z, *args, **kwargs):
    zf = np.asarray(z).astype(complex).ravel()
    mag = np.abs(zf)
    small = mag <= SERIES_RADIUS
    on_axis = (zf.imag == 0.0) & (zf.real > 0.0)
    return {"series": int(np.count_nonzero(small)),
            "steed": int(np.count_nonzero(~small & on_axis)),
            "mp": int(np.count_nonzero(~small & ~on_axis))}


def _assemble_points(mode, traj, x, y, *args, **kwargs):
    return {"points": int(np.broadcast(np.asarray(x), np.asarray(y)).size)}


def layer_metrics(spans, pass_id, pass_total_s, value_calls):
    """Per-layer figures of one traced pass (seconds, counts)."""
    mine = [(i, s) for i, s in enumerate(spans) if s[4] == pass_id]
    child_ns = {}
    for _, (_, start, end, parent, _, _) in mine:
        if parent >= 0:
            child_ns[parent] = child_ns.get(parent, 0) + (end - start)

    calls, incl, self_s, attrs = {}, {}, {}, {}
    for i, (name, start, end, _, _, at) in mine:
        dur = (end - start) * 1e-9
        calls[name] = calls.get(name, 0) + 1
        incl[name] = incl.get(name, 0.0) + dur
        self_s[name] = self_s.get(name, 0.0) + dur - child_ns.get(i, 0) * 1e-9
        for key, val in (at or {}).items():
            bucket = attrs.setdefault(name, {})
            if key == "norm_drift":
                bucket[key] = max(bucket.get(key, 0.0), val)
            elif not isinstance(val, str):
                bucket[key] = bucket.get(key, 0) + val

    def under(i, name):
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][3]
        return False

    scan_j = sum(1 for i, s in mine
                 if s[0] == "bessel.j" and under(i, "wavefunction.scan"))
    scans = calls.get("wavefunction.scan", 0)
    j_slow = sum(((s[2] - s[1]) * 1e-9 for _, s in mine
                  if s[0] == "bessel.j" and s[5]["mp"] > 0), 0.0)

    def a(name, key):
        return attrs.get(name, {}).get(key, 0)

    out = {
        "cli.config_load_s": incl.get("cli.config_load", 0.0),
        "cli.artifact_write_s": incl.get("cli.artifact_write", 0.0),
        "cli.artifact_bytes": a("cli.artifact_write", "bytes"),
        "ode.solve_chain_calls": calls.get("ode.solve_chain", 0),
        "ode.solve_chain_s": incl.get("ode.solve_chain", 0.0),
        "bessel.j_calls": calls.get("bessel.j", 0),
        "bessel.j_s": incl.get("bessel.j", 0.0),
        "bessel.j_points_series": a("bessel.j", "series"),
        "bessel.j_points_mp": a("bessel.j", "mp"),
        "bessel.j_points_steed": a("bessel.j", "steed"),
        "bessel.j_slow_s": j_slow,
        "bessel.n_calls": calls.get("bessel.n", 0),
        "bessel.n_s": incl.get("bessel.n", 0.0),
        "bessel.n_points": a("bessel.n", "points"),
        "wavefunction.assemble_calls": calls.get("wavefunction.assemble", 0),
        "wavefunction.assemble_points": a("wavefunction.assemble", "points"),
        "wavefunction.assemble_self_s": self_s.get("wavefunction.assemble",
                                                   0.0),
        "wavefunction.residual_rungs": a("wavefunction.residual", "rungs"),
        "wavefunction.residual_self_s": self_s.get("wavefunction.residual",
                                                   0.0),
        "wavefunction.scan_bessel_calls": scan_j / scans if scans else 0,
        "wavefunction.scan_self_s": self_s.get("wavefunction.scan", 0.0),
        "oracle.steps": a("oracle.propagate", "steps"),
        "oracle.unknowns": a("oracle.propagate", "unknowns"),
        "oracle.coeff_calls": calls.get("oracle.coeff", 0),
        "oracle.coeff_s": incl.get("oracle.coeff", 0.0),
        "oracle.linsolve_calls": calls.get("oracle.linsolve", 0),
        "oracle.linsolve_s": incl.get("oracle.linsolve", 0.0),
        "oracle.propagate_self_s": self_s.get("oracle.propagate", 0.0),
        "oracle.reference_s": incl.get("oracle.reference", 0.0),
        "oracle.reference_self_s": self_s.get("oracle.reference", 0.0),
        "oracle.norm_drift": a("oracle.propagate", "norm_drift"),
        "params.value_calls": value_calls,
        "trace.spans": len(mine),
    }
    out["trace.unattributed_s"] = pass_total_s - sum(out[k] for k in PARTITION)
    return out
