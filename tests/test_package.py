"""Package-level contracts: what ``import invosc`` loads, and the module
entry points of the command line, each run in a fresh interpreter; and
README's Python API example, run as written."""

import ast
import importlib
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import invosc

PACKAGE = Path(invosc.__file__).resolve().parent
SRC = str(PACKAGE.parent)
README = Path(__file__).resolve().parent.parent / "README.md"


def _run(*args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=120)


def test_import_leaves_test_and_spline_dependencies_unloaded():
    # mpmath is a test-only reference; scipy.interpolate is needed only by
    # tabulated coefficients, which no bundled config uses.  invosc.cli is
    # what every command loads.
    proc = _run("-c", "import sys, invosc.cli; "
                      "print(' '.join(sorted(sys.modules)))")
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


_LINALG_MODULES = ("import sys; print(*sorted(m for m in sys.modules "
                   "if m.split('.')[:2] == ['scipy', 'linalg']))")


def test_commands_but_oracle_load_no_scipy_linalg_of_their_own(tmp_path):
    # only the oracle's propagation calls LAPACK, and it imports
    # scipy.linalg.lapack when it first runs; loading it at import cost
    # every other command about 0.07 s and 5.7 MB.  Older scipy releases
    # load scipy.linalg from scipy.special itself (scipy gh-23420 made
    # that import lazy), so the bar is what a bare scipy.special loads;
    # on a release with that change it loads none, and so must invosc
    special = _run("-c", "import scipy.special; " + _LINALG_MODULES)
    assert special.returncode == 0, special.stderr
    proc = _run("-c", "import sys; from pathlib import Path; import invosc; "
                      "from invosc.cli import RunConfig, main; "
                      "configs = Path(invosc.__file__).parent / 'configs'; "
                      "paths = sorted(configs.glob('*.cfg')); "
                      "[RunConfig.load(p) for p in paths]; "
                      "out = Path(sys.argv[1]); "
                      "rcs = [main([c, '--quiet', '--out', str(out / c), "
                      "'--config', str(configs / 'static_c0.cfg')]) "
                      "for c in ('solve', 'verify', 'scan')]; "
                      "rcs.append(main(['bessel-table', '1.5', '0.1', '30', "
                      "'50', '--quiet', '--out', str(out / 'table')])); "
                      "print(len(paths), *rcs); " + _LINALG_MODULES,
                str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    counts, linalg = proc.stdout.split("\n")[:2]
    assert counts.split() == ["5", "0", "0", "0", "0"]
    assert set(linalg.split()) <= set(special.stdout.split())


def test_oracle_run_loads_only_the_linalg_and_special_subpackages(tmp_path):
    # the oracle loads scipy.linalg (for its LAPACK routines) only when it
    # propagates, and the Bessel layer loads scipy.special; another
    # subpackage would add to every run's import time and resident memory
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


def test_every_error_type_is_raised_somewhere():
    # an error type that no module constructs is dead API: its catchers
    # can never fire
    from invosc import errors
    made = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "errors.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                made.add(getattr(func, "id", getattr(func, "attr", None)))
    kinds = {name for name, obj in vars(errors).items()
             if isinstance(obj, type) and issubclass(obj, errors.InvoscError)}
    assert len(kinds) > 10
    assert sorted(kinds - made) == []


def test_oracle_imports_only_params_and_errors():
    # the oracle is independent evidence only while it shares nothing
    # with the assembly path but the coefficient definitions
    oracle = PACKAGE / "oracle.py"
    assert _package_imports(oracle) == {"params", "errors"}


def test_package_namespace_holds_only_its_version():
    # every public name has one import path, its submodule, so importing
    # the package itself loads no submodule and no numpy
    proc = _run("-c", "import sys, invosc; print(invosc.__version__, "
                      "*sorted(m for m in sys.modules "
                      "if m.startswith(('invosc.', 'numpy'))))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0.1.0"]


def test_main_reuses_one_parser_and_keeps_no_state_between_calls(tmp_path):
    # the argparse tree is built once per process; --quiet in one call
    # must not leak into the next call's defaults
    proc = _run("-c", "import sys; from pathlib import Path; import invosc; "
                      "from invosc import cli; "
                      "cfg = str(Path(invosc.__file__).parent / 'configs' "
                      "/ 'static_c15.cfg'); out = Path(sys.argv[1]); "
                      "parser = cli._build_parser(); "
                      "rcs = [cli.main(['solve', '--quiet', '--config', cfg, "
                      "'--out', str(out / 'quiet')]), "
                      "cli.main(['solve', '--config', cfg, "
                      "'--out', str(out / 'loud')])]; "
                      "print(cli._build_parser() is parser, *rcs)",
                str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == [
        "solve: flags s=-1,h=1/2,branch=+ (config), wrote trajectory.csv, "
        "field.csv, summary.txt", "True 0 0"]
    assert ((tmp_path / "quiet" / "summary.txt").read_bytes()
            == (tmp_path / "loud" / "summary.txt").read_bytes())


@pytest.mark.parametrize("module", ["invosc", "invosc.cli"])
def test_module_entry_point_help_is_clean(module):
    proc = _run("-m", module, "--help")
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert proc.stdout.startswith("usage: invosc")


def test_readme_python_api_runs_and_names_real_functions(capsys):
    # the fenced example under "## Python API" runs as written, and every
    # name the paragraph after it lists, as `invosc.module` (`name`, ...),
    # is an attribute of that module
    section = README.read_text().split("\n## Python API\n", 1)[1]
    section = section.split("\n## ", 1)[0]
    code, prose = re.fullmatch(r"\s*```python\n(.*?)\n```\n(.*)", section,
                               re.S).groups()
    exec(compile(code, str(README), "exec"), {})
    # it passes the bars of the bundled config with the same grid and
    # ladder, static_c15
    fields = dict(item.split(":", 1)
                  for item in capsys.readouterr().out.strip().split(";"))
    assert float(fields["rel_inf"]) <= 1e-5
    assert 1.7 <= float(fields["order"]) <= 2.3
    listed = re.findall(r"`(invosc\.\w+)`\s*\(([^)]*)\)", prose)
    assert [module for module, _ in listed] == ["invosc.oracle",
                                                "invosc.bessel"]
    for module, names in listed:
        owner = importlib.import_module(module)
        for name in re.findall(r"`(\w+)`", names):
            assert name in owner.__all__, (module, name)
            assert callable(getattr(owner, name)), (module, name)
