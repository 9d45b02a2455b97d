"""Correctness gate: read each command's artifacts and judge them.

Every check works from the files a command wrote, never from the
program's own objects, so a wrong artifact cannot hide behind an exit
code of 0.  ``check`` returns (problems, figures): a list of what was
wrong (empty when the command passed) and the accuracy figures it read.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import mpmath

EXPECTED_FLAGS = "s=-1,h=1/2,branch=+"
MIN_SCAN_MARGIN = 2.0
# bessel-table rows against mpmath: the worst sampled error measured on
# the bundled orders is 4e-11 (near a zero of J or N), so 1e-8 leaves
# head room without letting a wrong regime through.
TABLE_REL_TOL = 1e-8
REFERENCE_DPS = 30


def artifact_hashes(out_dir):
    """{file name: sha256} of everything a command left in its directory."""
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in sorted(Path(out_dir).iterdir()) if p.is_file()}


def _summary(path):
    pairs = {}
    for line in Path(path).read_text().splitlines():
        if " = " in line and not line.startswith("#"):
            key, value = line.split(" = ", 1)
            pairs[key] = value
    return pairs


def _check_scan_table(out, problems, figures):
    path = out / "scan_table.csv"
    if not path.exists():
        return
    head = path.read_text().splitlines()[1]          # "# winner: ... margin: ..."
    _, rest = head.split("winner: ", 1)
    winner, margin = rest.split(" margin: ")
    margin = float(margin)
    figures["scan_margin"] = margin
    if winner != EXPECTED_FLAGS:
        problems.append(f"scan winner {winner}, expected {EXPECTED_FLAGS}")
    if not margin >= MIN_SCAN_MARGIN:
        problems.append(f"scan margin {margin:g} < {MIN_SCAN_MARGIN:g}")


def _check_verify(out, settings, problems, figures):
    head = (out / "residual_ladder.csv").read_text().splitlines()[1]
    fields = dict(item.split(":", 1) for item in head[2:].split(";"))
    rel_inf = float(fields["rel_inf"])
    figures["verify_rel_inf"] = rel_inf
    bar = float(settings[("verification", "max_rel_inf")])
    lo = float(settings.get(("verification", "order_lo"), "1.7"))
    hi = float(settings.get(("verification", "order_hi"), "2.3"))
    if not rel_inf <= bar:
        problems.append(f"verify rel_inf {rel_inf:.3e} above {bar:g}")
    order = fields["order"]
    if order == "none" or not lo <= float(order) <= hi:
        problems.append(f"verify order {order} outside [{lo:g}, {hi:g}]")


def _check_oracle(out, settings, problems, figures):
    pairs = _summary(out / "oracle_summary.txt")
    fid = float(pairs["min_fidelity"])
    figures["oracle_infidelity"] = 1.0 - fid
    bar = float(settings[("oracle", "min_fidelity")])
    if not fid >= bar:
        problems.append(f"oracle fidelity {fid!r} below {bar:g}")


def _check_solve(out, problems):
    pairs = _summary(out / "summary.txt")
    for name in pairs["artifacts"].split(","):
        if not (out / name).is_file():
            problems.append(f"solve did not write {name}")
    if pairs["flags"] != EXPECTED_FLAGS:
        problems.append(f"solve used flags {pairs['flags']}")


class TableReference:
    """mpmath values of J and N, computed once per (order, abscissa)."""

    def __init__(self):
        self._cache = {}

    def __call__(self, nu, x):
        key = (nu, x)
        if key not in self._cache:
            with mpmath.workdps(REFERENCE_DPS):
                order, arg = mpmath.mpf(nu), mpmath.mpf(x)
                self._cache[key] = (mpmath.besselj(order, arg),
                                    mpmath.bessely(order, arg))
        return self._cache[key]


def _check_table(out, table, reference, problems, figures):
    lines = (out / "bessel_table.csv").read_text().splitlines()
    if lines[0] != "x,j,n" or len(lines) != table.num + 1:
        problems.append(f"bessel-table has {len(lines) - 1} rows, "
                        f"expected {table.num}")
        return
    worst = 0.0
    for row in table.sample_rows:
        x, j, n = (float(v) for v in lines[row + 1].split(","))
        ref_j, ref_n = reference(table.nu, x)
        with mpmath.workdps(REFERENCE_DPS):
            err = max(abs((j - ref_j) / ref_j), abs((n - ref_n) / ref_n))
        worst = max(worst, float(err))
    figures["table_rel_err"] = worst
    if not worst <= TABLE_REL_TOL:
        problems.append(f"bessel-table rel err {worst:.3e} above "
                        f"{TABLE_REL_TOL:g}")


def check(op, code, out, workload, reference):
    """Judge one command from its exit code and the files in ``out``."""
    if code != 0:
        return [f"exit code {code}"], {}
    problems, figures = [], {}
    out = Path(out)
    try:
        if op.command == "bessel-table":
            _check_table(out, workload.tables[op.input], reference,
                         problems, figures)
            return problems, figures
        settings = workload.settings[op.input]
        _check_scan_table(out, problems, figures)
        if op.command == "solve":
            _check_solve(out, problems)
        elif op.command == "verify":
            _check_verify(out, settings, problems, figures)
        elif op.command == "oracle":
            _check_oracle(out, settings, problems, figures)
        elif op.command == "scan" and "scan_margin" not in figures:
            problems.append("scan wrote no scan_table.csv")
    except (OSError, KeyError, ValueError, IndexError) as exc:
        problems.append(f"unreadable artifact: {type(exc).__name__}: {exc}")
    return problems, figures
