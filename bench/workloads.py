"""Seeded inputs for the three benchmark workloads.

The seed only perturbs physics coefficients, each by a factor drawn
uniformly from [0.9, 1.1]: the coupling C where it is 1.5, the magnetic
field value or amplitude, the mass ramp slope and the frequency growth
rate.  Grids, time steps, ladders and thresholds stay as bundled, so
every seed does the same amount of work with the same Bessel regime mix.
Seed 0 copies the bundled configs verbatim.

For ``tables`` the seed draws one integer, one half-integer and one
irrational order (sqrt of a non-square, at least 0.12 from any integer)
and the abscissa range inside (0, 30]; the row count is fixed.  Each
order is drawn from a set whose members cost the same per row to within
a few percent, so the seed moves the work done no more than the host's
own noise does.
"""

from __future__ import annotations

import dataclasses
import math
import random
from pathlib import Path

VERBATIM_SEED = 0

CONFIGS = {
    "static": ("static_c15", "static_c0"),
    "driven": ("ramp_mass", "sinusoidal_b", "exp_omega"),
    "tables": (),
}
COMMANDS = ("solve", "verify", "scan", "oracle")

# (section, key) pairs the seed may scale; zero values stay zero
_PERTURBED = {("constants", "C"), ("magnetic_field", "value"),
              ("magnetic_field", "amplitude"), ("mass", "slope"),
              ("frequency", "rate")}
_SPREAD = 0.1

TABLE_ROWS = 3000
TABLE_SAMPLES = 40          # rows per table checked against mpmath
_INTEGER_ORDERS = (0, 1, 2)
_HALF_ORDERS = (1.5, 2.5, 3.5)
_SQRT_OF = (3, 5, 6, 13, 14, 15)


@dataclasses.dataclass(frozen=True)
class Op:
    """One CLI invocation of a pass: ``argv`` minus the ``--out`` pair."""

    key: str                # unique within a pass, also the output subdir
    input: str              # config name, or table role
    command: str
    argv: tuple


@dataclasses.dataclass(frozen=True)
class Table:
    role: str
    nu: float
    x_min: float
    x_max: float
    num: int
    sample_rows: tuple


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    ops: tuple
    config_paths: tuple
    settings: dict          # config name -> {(section, key): raw value}
    drawn: dict             # input name -> {parameter: value}
    tables: dict            # table role -> Table


def sections(text):
    """{(section, key): raw value} of a config, comments dropped."""
    out = {}
    section = None
    for line in text.splitlines():
        line = line.split("#", 1)[0].strip()
        if line.startswith("[") and line.endswith("]"):
            section = line[1:-1].strip()
        elif "=" in line and section is not None:
            key, value = line.split("=", 1)
            out[(section, key.strip())] = value.strip()
    return out


def perturb(text, rng):
    """Config text with the seeded coefficients rewritten, plus the draws."""
    lines = []
    drawn = {}
    section = None
    for line in text.splitlines(keepends=True):
        body = line.split("#", 1)[0].strip()
        if body.startswith("[") and body.endswith("]"):
            section = body[1:-1].strip()
        elif "=" in body:
            key, raw = (part.strip() for part in body.split("=", 1))
            value = float(raw) if (section, key) in _PERTURBED else 0.0
            if value != 0.0 and (key != "C" or value == 1.5):
                new = value * (1.0 + rng.uniform(-_SPREAD, _SPREAD))
                drawn[f"{section}.{key}"] = new
                line = f"{key} = {new!r}\n"
        lines.append(line)
    return "".join(lines), drawn


def _draw_tables(rng, verbatim):
    if verbatim:
        orders = (("integer", 2.0), ("half", 1.5), ("irrational", math.sqrt(2)))
        x_min, x_max = 0.01, 30.0
    else:
        orders = (("integer", float(rng.choice(_INTEGER_ORDERS))),
                  ("half", rng.choice(_HALF_ORDERS)),
                  ("irrational", math.sqrt(rng.choice(_SQRT_OF))))
        x_min, x_max = rng.uniform(0.005, 0.05), rng.uniform(27.0, 30.0)
    tables = {}
    for role, nu in orders:
        rows = sorted(rng.sample(range(1, TABLE_ROWS - 1), TABLE_SAMPLES - 2))
        tables[role] = Table(role, nu, x_min, x_max, TABLE_ROWS,
                             (0, *rows, TABLE_ROWS - 1))
    return tables


def generate(name, seed, config_dir, run_dir):
    """Write the seeded configs under ``run_dir`` and list the pass's ops."""
    verbatim = seed == VERBATIM_SEED
    rng = random.Random(f"{name}:{seed}")
    ops, paths, settings, drawn = [], [], {}, {}
    cfg_out = Path(run_dir) / "configs"
    cfg_out.mkdir(parents=True, exist_ok=True)
    for cfg in CONFIGS[name]:
        text = (Path(config_dir) / f"{cfg}.cfg").read_text()
        drawn[cfg] = {}
        if not verbatim:
            text, drawn[cfg] = perturb(text, rng)
        path = cfg_out / f"{cfg}.cfg"
        path.write_text(text)
        paths.append(str(path))
        settings[cfg] = sections(text)
        for cmd in COMMANDS:
            ops.append(Op(f"{cfg}/{cmd}", cfg, cmd,
                          (cmd, "--config", str(path), "--quiet")))
    tables = _draw_tables(rng, verbatim) if name == "tables" else {}
    for table in tables.values():
        drawn[f"table_{table.role}"] = {"nu": table.nu, "x_min": table.x_min,
                                        "x_max": table.x_max,
                                        "rows": table.num}
        ops.append(Op(f"table_{table.role}", table.role, "bessel-table",
                      ("bessel-table", repr(table.nu), repr(table.x_min),
                       repr(table.x_max), str(table.num), "--quiet")))
    return Workload(name, seed, tuple(ops), tuple(paths), settings, drawn,
                    tables)
