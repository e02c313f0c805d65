"""Each command loads only the modules it runs.

Every case runs a fresh interpreter with PYTHONPATH=src and reads
sys.modules, so the checks are deterministic and time nothing.  A child
reports only the modules its action added, so modules that the
interpreter's own start-up loads do not count.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "jointlab"

CHILD = """
import json, sys
before = set(sys.modules)
{action}
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def loaded_by(action: str, cwd: Path) -> set[str]:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(action=action)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    return set(json.loads(child.stdout.splitlines()[-1]))


def run_cli(*argv: str) -> str:
    return f"from jointlab.cli import main\nassert main({list(argv)!r}) == 0"


def test_importing_the_cli_loads_no_command_module(tmp_path):
    loaded = loaded_by("import jointlab.cli", tmp_path)
    assert {"jointlab.cli", "jointlab.exact", "jointlab.errors"} <= loaded
    heavy = {
        "jointlab.geometry",
        "jointlab.polynomial",
        "jointlab.pipeline",
        "jointlab.curves",
        "jointlab.harness",
        "jointlab.constructions",
        "dataclasses",
        "logging",
    }
    assert loaded & heavy == set()


def test_sweep_random_skips_the_polynomial_layer(tmp_path):
    action = run_cli(
        "sweep", "random", "--dim", "3", "--n", "8", "--seeds", "1", "--csv", "s.csv"
    )
    loaded = loaded_by(action, tmp_path)
    assert {"jointlab.harness", "jointlab.geometry"} <= loaded
    skipped = {"jointlab.polynomial", "jointlab.pipeline", "jointlab.curves"}
    assert loaded & skipped == set()
    assert (tmp_path / "s.csv").is_file()


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
    assert {"jointlab.pipeline", "jointlab.polynomial"} <= loaded
    skipped = {
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


def test_no_module_imports_dataclasses():
    users = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if "dataclasses" in names:
                users.append(path.name)
    assert users == []
