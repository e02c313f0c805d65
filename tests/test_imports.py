"""Each command loads only the modules it runs.

Every case runs a fresh interpreter with PYTHONPATH=src and reads
sys.modules, so the checks are deterministic and time nothing.  A child
reports only the modules its action added, so modules that the
interpreter's own start-up loads do not count.  A fresh interpreter is also
the only place a missing import inside a handler shows: in-process, another
test has already loaded the module.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from jointlab.constructions import grid, random_config
from jointlab.geometry import find_s_joints, save_configuration

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jointlab"

CHILD = """
import sys
before = set(sys.modules)
{action}
print(sorted(set(sys.modules) - before))
"""


def fresh(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    """Run the interpreter with argv in a new process, on the package in src."""
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(
        [sys.executable, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def loaded_by(action: str, cwd: Path) -> set[str]:
    child = fresh(["-c", CHILD.format(action=action)], cwd)
    assert child.returncode == 0, child.stderr
    return set(ast.literal_eval(child.stdout.splitlines()[-1]))


def run_cli(*argv: str) -> str:
    return f"from jointlab.cli import main\nassert main({list(argv)!r}) == 0"


def command_modules(loaded: set[str]) -> set[str]:
    return {name for name in loaded if name.startswith("jointlab.commands.")}


def test_importing_the_cli_loads_no_command_module(tmp_path):
    loaded = loaded_by("import jointlab.cli", tmp_path)
    assert {"jointlab.cli", "jointlab.errors"} <= loaded
    assert command_modules(loaded) == set()
    heavy = {
        "jointlab.exact",
        "jointlab.kernel",
        "jointlab.files",
        "jointlab.projection",
        "jointlab.geometry",
        "jointlab.polynomial",
        "jointlab.pipeline",
        "jointlab.curves",
        "jointlab.harness",
        "jointlab.constructions",
        "dataclasses",
        "logging",
        "json",
        "fractions",
        "decimal",
        "numbers",
    }
    assert loaded & heavy == set()


@pytest.mark.parametrize(
    "argv, command",
    [
        (["-h"], None),
        (["bogus"], None),
        (["trace", "-h"], "trace"),
        (["sweep", "random", "--dim", "x"], "sweep"),
    ],
)
def test_help_and_usage_errors_load_at_most_the_named_command(tmp_path, argv, command):
    action = f"from jointlab.cli import main\nmain({argv!r})"
    loaded = loaded_by(action, tmp_path)
    named = set() if command is None else {f"jointlab.commands.{command}"}
    assert command_modules(loaded) == named
    assert "jointlab.geometry" not in loaded


def test_sweep_random_skips_the_polynomial_layer(tmp_path):
    # two points lie on two lines each, and none on three, so no rank is taken
    incidence = find_s_joints(random_config(3, 20, 3, 10), 2).incidence
    assert len(incidence) == 2 and {len(lines) for lines in incidence.values()} == {2}
    action = run_cli(
        "sweep", "random", "--dim", "3", "--n", "20", "--seeds", "3", "--csv", "s.csv"
    )
    loaded = loaded_by(action, tmp_path)
    assert {"jointlab.harness", "jointlab.geometry"} <= loaded
    assert command_modules(loaded) == {"jointlab.commands.sweep"}
    skipped = {
        "jointlab.polynomial",
        "jointlab.pipeline",
        "jointlab.curves",
        "jointlab.kernel",
        "jointlab.files",
        "jointlab.projection",
    }
    assert loaded & skipped == set()
    assert (tmp_path / "s.csv").is_file()


def test_sweep_random_loads_no_json_or_fractions(tmp_path):
    # a sweep reads no file and makes no Fraction
    action = run_cli(
        "sweep", "random", "--dim", "3", "--n", "8", "--seeds", "1", "--csv", "s.csv"
    )
    loaded = loaded_by(action, tmp_path)
    assert loaded & {"json", "fractions", "decimal", "numbers"} == set()


def write_axes(tmp_path: Path) -> None:
    """axes.json: the three coordinate axes of 3-space, one joint."""
    lines = [
        {"base": ["0", "0", "0"], "dir": ["1", "0", "0"]},
        {"base": ["0", "0", "0"], "dir": ["0", "1", "0"]},
        {"base": ["0", "0", "0"], "dir": ["0", "0", "1"]},
    ]
    (tmp_path / "axes.json").write_text(json.dumps({"dim": 3, "lines": lines}))


def test_trace_skips_curves_sweeps_generators_and_logging(tmp_path):
    write_axes(tmp_path)
    loaded = loaded_by(run_cli("trace", "axes.json"), tmp_path)
    assert {
        "jointlab.pipeline",
        "jointlab.polynomial",
        "jointlab.kernel",
        "jointlab.files",
    } <= loaded
    skipped = {
        "jointlab.projection",
        "jointlab.curves",
        "jointlab.harness",
        "jointlab.constructions",
        "dataclasses",
        "logging",
    }
    assert loaded & skipped == set()


def test_bound_skips_the_trace_layer(tmp_path):
    write_axes(tmp_path)
    loaded = loaded_by(run_cli("bound", "axes.json"), tmp_path)
    assert "jointlab.geometry" in loaded
    assert loaded & {"jointlab.pipeline", "jointlab.polynomial"} == set()


def imported_names(source: str, package: str) -> set[str]:
    """The absolute names that the imports in source, a module of package,
    name: each imported module, and for a from-import each name it takes
    from its module as well, relative imports resolved."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                parent = package.rsplit(".", node.level - 1)[0]
                base = f"{parent}.{base}".rstrip(".")
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def module_imports(path: Path) -> set[str]:
    """imported_names of the package's module at path."""
    package = path.parent.relative_to(PACKAGE.parent).as_posix().replace("/", ".")
    return imported_names(path.read_text(encoding="utf-8"), package)


def test_no_module_imports_dataclasses():
    users = [
        str(path.relative_to(PACKAGE))
        for path in sorted(PACKAGE.rglob("*.py"))
        if "dataclasses" in module_imports(path)
    ]
    assert users == []


@pytest.mark.parametrize(
    "source, imports_cli",
    [
        ("from ..cli import integer", True),
        ("from .. import cli", True),
        ("from .. import errors, cli", True),
        ("import jointlab.cli", True),
        ("from jointlab.cli import main", True),
        ("from jointlab import cli", True),
        ("def run():\n    from ..cli import load_lines", True),
        ("from . import integer", False),
        ("from .. import curves", False),
        ("from ..exact import parse_rational", False),
        ("import jointlab.commands", False),
    ],
)
def test_imported_names_resolves_imports(source, imports_cli):
    names = imported_names(source, "jointlab.commands")
    assert ("jointlab.cli" in names) == imports_cli


def test_no_command_module_imports_the_cli():
    # the commands stand below the dispatcher, which imports them
    importers = [
        path.name
        for path in sorted((PACKAGE / "commands").glob("*.py"))
        if "jointlab.cli" in module_imports(path)
    ]
    assert importers == []


@pytest.mark.parametrize(
    "module, loads_cli", [("jointlab.cli", False), ("jointlab", True)]
)
def test_python_m_runs_the_cli_module_once(tmp_path, module, loads_cli):
    """``-X importtime`` lists each module the moment it is first imported,
    so a module it never lists is absent from sys.modules.  ``python -m
    jointlab.cli`` runs cli.py as __main__ and must not import it again as
    jointlab.cli; ``python -m jointlab`` imports it once, from __main__.py."""
    write_command_inputs(tmp_path)
    child = fresh(["-X", "importtime", "-m", module, "bound", "grid.json"], tmp_path)
    assert child.returncode == 0, child.stderr
    assert child.stdout.startswith("n = 12, m = 8, d = 3\n")
    imported = {
        line.rpartition("|")[2].strip()
        for line in child.stderr.splitlines()
        if line.startswith("import time:")
    }
    assert {"jointlab", "jointlab.commands", "jointlab.commands.bound"} <= imported
    assert ("jointlab.cli" in imported) == loads_cli


COMMANDS = {
    "gen grid": ["gen", "grid", "--dim", "3", "--k", "2", "-o", "out.json"],
    "gen random": [
        "gen", "random", "--dim", "3", "--n", "5", "--seed", "1", "-o", "out.json"
    ],
    "gen planar": ["gen", "planar", "--dim", "3", "--n", "4", "-o", "out.json"],
    "gen grid-orphan": ["gen", "grid-orphan", "--dim", "3", "--k", "2", "-o", "out.json"],
    "joints": ["joints", "grid.json"],
    "joints --s": ["joints", "grid.json", "--s", "2"],
    "fit": ["fit", "grid.json"],
    "fit --minimal": ["fit", "grid.json", "--minimal"],
    "trace --json": ["trace", "grid.json", "--json", "out.json"],
    "bound": ["bound", "grid.json"],
    "project": ["project", "grid.json", "--s", "2", "--seed", "7", "-o", "out.json"],
    "sweep grid": ["sweep", "grid", "--dim", "3", "--k", "2..3", "--csv", "out.csv"],
    "sweep random": [
        "sweep", "random", "--dim", "3", "--n", "5", "--seeds", "1", "--csv", "out.csv"
    ],
    "curve restrict": ["curve", "restrict", "curves.json", "--poly", "x2^2 - x1*x3"],
    "curve joint": [
        "curve", "joint", "curves.json", "--curves", "1,2,3", "--params", "0,0,0"
    ],
}


def write_command_inputs(path: Path) -> None:
    """The files that COMMANDS read: grid.json, grid(3,2), and curves.json."""
    save_configuration(grid(3, 2), path / "grid.json")
    # the moment curve (t, t^2, t^3) and the three coordinate axes
    moment = [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]
    axes = [
        [["0", "1"], ["0"], ["0"]],
        [["0"], ["0", "1"], ["0"]],
        [["0"], ["0"], ["0", "1"]],
    ]
    curves = [{"coords": coords} for coords in [moment, *axes]]
    (path / "curves.json").write_text(json.dumps({"dim": 3, "curves": curves}))


@pytest.mark.parametrize("name", list(COMMANDS))
def test_every_command_runs_in_a_fresh_interpreter(tmp_path, name):
    write_command_inputs(tmp_path)
    argv = COMMANDS[name]
    # the command's own module, the projection for project alone and the
    # pipeline for trace alone
    loaded = loaded_by(run_cli(*argv), tmp_path)
    assert command_modules(loaded) == {f"jointlab.commands.{argv[0]}"}
    assert ("jointlab.projection" in loaded) == (argv[0] == "project")
    assert ("jointlab.pipeline" in loaded) == (argv[0] == "trace")
