"""Package-level contracts: what ``import invosc`` loads, and the module
entry points of the command line, each run in a fresh interpreter."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import invosc

PACKAGE = Path(invosc.__file__).resolve().parent
SRC = str(PACKAGE.parent)


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_import_leaves_test_and_spline_dependencies_unloaded():
    # mpmath is a test-only reference; scipy.interpolate is needed only by
    # tabulated coefficients, which no bundled config uses.
    proc = _run("-c", "import sys, invosc; print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "mpmath" not in loaded
    assert "scipy.interpolate" not in loaded


def test_solving_a_bundled_chain_leaves_scipy_integrate_unloaded():
    # the chain runs on the package's own DOPRI5; importing scipy.integrate
    # would cost about 20 MB of resident memory and a quarter second
    proc = _run("-c", "import sys; from pathlib import Path; import invosc; "
                      "from invosc.cli import RunConfig; "
                      "cfg = RunConfig.load(Path(invosc.__file__).parent "
                      "/ 'configs' / 'static_c15.cfg'); "
                      "cfg.chain(+1); print(' '.join(sorted(sys.modules)))")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert "invosc.ode" in loaded
    assert "scipy.integrate" not in loaded


def test_cli_import_builds_no_format_tables():
    # the %.17g kernel is imported on the first field write and builds its
    # tables on the first call, so importing the command line (setup time)
    # pays for neither, nor for exact arithmetic
    proc = _run("-c", "import sys, invosc.cli; "
                      "print('invosc.g17' in sys.modules, "
                      "'fractions' in sys.modules, 'decimal' in sys.modules); "
                      "import invosc.g17 as g; "
                      "print(g._tables.cache_info().currsize)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["False", "False", "False", "0"]


def test_oracle_run_loads_only_the_linalg_and_special_subpackages(tmp_path):
    # the closed-form oracle path decomposes through scipy.linalg, which
    # the stepped path already loads; another subpackage would add to
    # every run's import time and resident memory
    proc = _run("-c", "import sys; from pathlib import Path; import invosc; "
                      "from invosc.cli import main; "
                      "rc = main(['oracle', '--quiet', '--out', sys.argv[1], "
                      "'--config', str(Path(invosc.__file__).parent "
                      "/ 'configs' / 'static_c0.cfg')]); "
                      "print(rc, *sorted(name.split('.')[1] for name, mod "
                      "in list(sys.modules.items()) "
                      "if name.count('.') == 1 and name.startswith('scipy.') "
                      "and not name.split('.')[1].startswith('_') "
                      "and hasattr(mod, '__path__')))",
                str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "linalg", "special"]


@pytest.mark.parametrize("module", sorted(
    str(p.relative_to(PACKAGE)) for p in PACKAGE.rglob("*.py")))
def test_module_parses_as_python_3_10(module):
    # pyproject declares requires-python >= 3.10; the tests run on a newer
    # interpreter, so at least keep the grammar within the floor
    source = (PACKAGE / module).read_text(encoding="utf-8")
    ast.parse(source, filename=module, feature_version=(3, 10))


def _package_imports(path):
    """Modules of the invosc package that a source file imports."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            found.update(a.name.split(".")[1] for a in node.names
                         if a.name.startswith("invosc."))
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level and module:       # from .params import x
                found.add(module.split(".")[0])
            elif node.level or module == "invosc":   # from . import params
                found.update(a.name for a in node.names)
            elif module.startswith("invosc."):
                found.add(module.split(".")[1])
    return found


def test_oracle_imports_only_params_and_errors():
    # the oracle is independent evidence only while it shares nothing
    # with the assembly path but the coefficient definitions
    oracle = PACKAGE / "oracle.py"
    assert _package_imports(oracle) == {"params", "errors"}


def test_cli_main_resolves_lazily():
    proc = _run("-c", "import sys, invosc; assert 'invosc.cli' not in sys.modules; "
                      "main = invosc.cli_main; import invosc.cli as cli; "
                      "assert main is cli.main")
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize("module", ["invosc", "invosc.cli"])
def test_module_entry_point_help_is_clean(module):
    proc = _run("-m", module, "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: invosc")
