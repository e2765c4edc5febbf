"""The package surface: public names, runtime dependencies, README's example."""

import ast
import contextlib
import importlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import hybridlab

MODULES = ("algebra", "expressions", "moments", "benchmark", "observables", "grid",
           "reporting")


def test_all_is_version_plus_each_modules_all():
    expected = ["__version__"]
    for name in MODULES:
        expected += importlib.import_module(f"hybridlab.{name}").__all__
    assert hybridlab.__all__ == expected
    assert len(set(expected)) == len(expected)
    for name in expected:
        assert hasattr(hybridlab, name), name


def test_sample_steps_is_exported():
    from hybridlab import sample_steps

    marks, steps = sample_steps(0.25, 0.01, 10)
    assert steps == 25 and marks.tolist() == [0, 10, 20, 25]
    with pytest.raises(ValueError, match="not a positive whole number"):
        sample_steps(0.255, 0.01, 10)


def _loaded_by_cli_import(module: str, then: str = "") -> bool:
    """Whether a fresh process has `module` loaded after importing the CLI, then `then`."""
    code = f"import sys, hybridlab.cli\n{then}\nprint({module!r} in sys.modules)"
    src = str(Path(hybridlab.__file__).resolve().parents[1])
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src}).stdout
    return out.strip() == "True"


def test_cli_import_leaves_ndimage_out():
    # scipy.ndimage serves only the tests' characteristics_reference oracle
    assert not _loaded_by_cli_import("scipy.ndimage")


def test_cli_import_leaves_scipy_linalg_out():
    # the moment engine and the exact grid plan use the package's own expm
    assert not _loaded_by_cli_import("scipy.linalg")


def test_cli_import_loads_no_scipy():
    # any scipy submodule would load the scipy package itself
    assert not _loaded_by_cli_import("scipy")


def _off_the_grid(run_dir) -> str:
    """Code that runs derive, nogo, spectrum, a moment-only simulate into run_dir, and report."""
    return f"""
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    for argv in (["derive"], ["nogo"], ["spectrum"],
                 ["simulate", "--engine", "moments", "--out", {str(run_dir)!r}],
                 ["report", "--runs", {str(run_dir)!r}, "--out", {str(run_dir)!r}]):
        assert hybridlab.cli.main(argv) == 0, argv
"""


def test_commands_off_the_grid_load_no_scipy(tmp_path):
    # derive, nogo, spectrum and moment runs need numpy alone; any scipy
    # submodule would load the scipy package itself
    assert not _loaded_by_cli_import("scipy", _off_the_grid(tmp_path))


def test_grid_compare_loads_no_scipy(tmp_path):
    # the grid's transforms are numpy.fft's: scipy is a test dependency only
    then = f"""
import contextlib, io
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    argv = ["compare", "--mode", "hybrid", "--grid-n", "16", "--t-final", "0.1",
            "--out", {str(tmp_path)!r}]
    assert hybridlab.cli.main(argv) == 0, argv
assert "hybridlab.grid" in sys.modules  # loaded by the grid run itself
"""
    assert not _loaded_by_cli_import("scipy", then)
    assert (tmp_path / "grid.csv").exists()


@pytest.mark.parametrize("module", ["hybridlab.grid", "hybridlab.observables"])
def test_cli_import_and_commands_off_the_grid_leave_the_grid_out(tmp_path, module):
    # the grid is the package's largest module, and only the grid uses observables
    assert not _loaded_by_cli_import(module)
    assert not _loaded_by_cli_import(module, _off_the_grid(tmp_path))
    assert (tmp_path / "summary.json").exists()


def test_wrappers_set_on_cli_before_a_grid_run_are_the_ones_it_calls(tmp_path):
    # perfbench's tracer reads cli.evolve and cli.gaussian_state, sets wrappers on
    # cli in their place before any grid run, and puts the originals back after
    then = f"""
import contextlib, io
cli, calls = hybridlab.cli, []
originals = {{name: getattr(cli, name) for name in ("evolve", "gaussian_state")}}

def wrapped(name, fn):
    def wrapper(*args, **kwargs):
        calls.append(name)
        return fn(*args, **kwargs)
    return wrapper

def compare(out):
    argv = ["compare", "--mode", "quantum-quantum", "--grid-n", "16", "--t-final", "0.1",
            "--out", out]
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(argv) == 0, argv

for name, fn in originals.items():
    setattr(cli, name, wrapped(name, fn))
compare({str(tmp_path / "wrapped")!r})
assert sorted(set(calls)) == ["evolve", "gaussian_state"], calls
for name, fn in originals.items():
    setattr(cli, name, fn)
calls.clear()
compare({str(tmp_path / "restored")!r})
assert calls == [], calls
assert cli.evolve is originals["evolve"] is hybridlab.grid.evolve
"""
    assert _loaded_by_cli_import("hybridlab.grid", then)
    assert (tmp_path / "restored" / "compare.csv").exists()


def test_cli_resolves_a_grid_name_read_before_any_grid_run():
    # the module __getattr__ perfbench's tracer relies on: it reads cli.evolve first
    then = """
cli = hybridlab.cli
assert "hybridlab.grid" not in sys.modules
evolve = cli.evolve
import hybridlab.grid
assert evolve is hybridlab.grid.evolve
try:
    cli.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("cli.no_such_name resolved")
"""
    assert _loaded_by_cli_import("hybridlab.grid", then)


def test_each_exception_that_can_reach_main_is_in_one_family():
    # main exits 1 on a RunFailed and 2 on an InputRefused, and names no other class
    from hybridlab import InputRefused, RunFailed, cli, observables

    classes = [cli.ConfigError, cli.NonFiniteOutput]
    for name in ("algebra", "expressions", "moments", "grid"):
        module = importlib.import_module(f"hybridlab.{name}")
        classes += [value for value in map(module.__dict__.get, module.__all__)
                    if isinstance(value, type) and issubclass(value, BaseException)]
    assert len(classes) == 20
    for cls in classes:
        assert issubclass(cls, InputRefused) != issubclass(cls, RunFailed), cls
    assert sorted(cls.__name__ for cls in classes if issubclass(cls, RunFailed)) == [
        "BoxOverflow", "MomentOverflow", "NonFiniteOutput", "RunFailed"]
    assert issubclass(hybridlab.ExpressionError, ValueError)
    for cls in (observables.DimensionMismatch, observables.NonHermitianObservable):
        assert not issubclass(cls, (InputRefused, RunFailed)), cls


def _imported_modules(path: Path) -> list[tuple[str, int]]:
    """(top-level module, level) for every import statement in a source file."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            found += [(alias.name.split(".")[0], 0) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            found.append(((node.module or "").split(".")[0], node.level))
    return found


def test_cli_imports_only_public_grid_names():
    from hybridlab import cli, grid

    path = Path(cli.__file__)
    from_grid = [node.lineno for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.ImportFrom) and node.module == "grid"]
    assert from_grid == []  # cli binds the grid's names through _GRID_NAMES alone
    assert [name for name in cli._GRID_NAMES if name.startswith("_")] == []
    assert all(getattr(cli, name) is getattr(grid, name) for name in cli._GRID_NAMES)


def test_runtime_imports_only_stdlib_and_numpy():
    package = Path(hybridlab.__file__).resolve().parent
    allowed = set(sys.stdlib_module_names) | {"numpy"}
    outside = [
        f"{path.name}: {name}"
        for path in sorted(package.glob("*.py"))
        for name, level in _imported_modules(path)
        if level == 0 and name not in allowed
    ]
    assert outside == []


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python 3.11+
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    project = tomllib.loads(pyproject.read_text())["project"]
    assert [re.split(r"[<>=!~ ;\[]", dep)[0] for dep in project["dependencies"]] == ["numpy"]


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", readme, re.S | re.M)
    assert len(blocks) == 1
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(blocks[0], "README.md", "exec"), {})
    lines = out.getvalue().splitlines()
    assert lines[0] == "-q + 0.2*p_y"
    assert float(lines[1]) > 50.0  # <q^2> grew from 0.5: secular growth
