"""Outputs do not depend on the string hash seed.

Sets and dicts of lines and points are iterated in many places; every
output must come from a sorted order, not from one of those iterations.
Each seed runs the same commands in a fresh interpreter with its own
PYTHONHASHSEED, and stdout and every written file must agree byte for byte.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

COMMANDS = [
    ["gen", "grid-orphan", "--dim", "3", "--k", "3", "-o", "orphan.json"],
    ["gen", "random", "--dim", "3", "--n", "30", "--seed", "7",
     "--coord-bound", "2", "-o", "random.json"],
    ["trace", "orphan.json", "--json", "trace.json"],
    ["joints", "random.json"],
    ["joints", "orphan.json", "--s", "2"],
    ["fit", "orphan.json", "--minimal"],
    ["project", "random.json", "--s", "2", "--seed", "3", "-o", "proj.json"],
    ["sweep", "random", "--dim", "3", "--n", "20,40", "--seeds", "1..2",
     "--coord-bound", "2", "--csv", "sweep.csv"],
]

CHILD = """
from jointlab.cli import main
for argv in {commands!r}:
    assert main(argv) == 0, argv
"""


def run_under_seed(seed: str, cwd: Path) -> tuple[str, dict[str, bytes]]:
    cwd.mkdir()
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONHASHSEED": seed}
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(commands=COMMANDS)],
        cwd=cwd,
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    files = {path.name: path.read_bytes() for path in sorted(cwd.iterdir())}
    return child.stdout, files


def test_outputs_are_identical_under_two_hash_seeds(tmp_path):
    out0, files0 = run_under_seed("0", tmp_path / "seed0")
    out1, files1 = run_under_seed("1", tmp_path / "seed1")
    assert sorted(files0) == [
        "orphan.json", "proj.json", "random.json", "sweep.csv", "trace.json"
    ]
    assert out0 == out1
    assert files0 == files1
