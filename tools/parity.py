"""Compare what two source trees of jointlab print and write.

``python tools/parity.py OLD_SRC NEW_SRC`` takes two directories that each
hold a ``jointlab`` package, such as ``src`` of two checkouts.  It runs a
fixed corpus of command lines once against each tree, every command line
in a fresh interpreter (``python -m jointlab``) with that tree alone on
``PYTHONPATH``, ``PYTHONHASHSEED=0`` and ``COLUMNS=80``, in a working
directory of its own per tree.  It compares each command line's exit code,
stdout and stderr, and then every file the corpus wrote, prints each
difference, and exits 1 if there is any and 0 if there is none.

The inputs, written in each working directory before the corpus runs:

- grid(3,2), grid(3,5), grid-orphan(3,5), grid(4,3) and planar(3,5), and
  random configurations in d = 3 (n = 60, coordinate bound 2, seeds 1-3),
  each written by the tree's own ``gen``, which the corpus compares too;
- in closed form, the 36 lines where the nine hyperplanes
  x.(1, t, t^2) = t^3 of ``nine_hyperplanes`` in ``tests/conftest.py``
  meet in pairs, and box(4,4,1), the axis-parallel lines through
  {0..3} x {0..3} x {0};
- in closed form, the moment curve (t, t^2, t^3) and the three coordinate
  axes, as curves.

On each line input the corpus runs ``trace --json``, ``joints``,
``bound``, ``fit`` and ``fit --minimal``, and on grid(3,5), grid(4,3) and
the hyperplanes ``project --s 2 --seed 1``.  It runs ``curve joint`` at
the origin on the three axes, a joint, and on the moment curve with the x
and y axes, whose tangents span a plane.  It ends with a ``sweep grid``.
So every command that takes a rank runs.  Standard library only; it
imports neither tree.
"""

from __future__ import annotations

import argparse
import difflib
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path

TS = tuple(
    Fraction(t) for t in ("-7/4", "-5/3", "-3/2", "-1", "-1/3", "1/4", "1/2", "2", "3")
)

GENERATED = {
    "grid-3-2.json": ["gen", "grid", "--dim", "3", "--k", "2"],
    "grid-3-5.json": ["gen", "grid", "--dim", "3", "--k", "5"],
    "orphan-3-5.json": ["gen", "grid-orphan", "--dim", "3", "--k", "5"],
    "grid-4-3.json": ["gen", "grid", "--dim", "4", "--k", "3"],
    "planar-3-5.json": ["gen", "planar", "--dim", "3", "--n", "5"],
    **{
        f"random-{seed}.json": [
            "gen", "random", "--dim", "3", "--n", "60", "--coord-bound", "2",
            "--seed", str(seed),
        ]
        for seed in (1, 2, 3)
    },
}


def hyperplanes() -> list[tuple]:
    """The hyperplanes at a and b meet in the line (0, -ab, a+b) + s (ab, -(a+b), 1)."""
    return [((0, -a * b, a + b), (a * b, -(a + b), 1)) for a, b in combinations(TS, 2)]


def box(sizes) -> list[tuple]:
    """The axis-parallel lines through {0..a-1} x {0..b-1} x ...: per axis,
    one line per point of the other axes, in product order."""
    lines = []
    for axis in range(len(sizes)):
        unit = tuple(int(i == axis) for i in range(len(sizes)))
        for rest in product(*(range(k) for i, k in enumerate(sizes) if i != axis)):
            lines.append((rest[:axis] + (0,) + rest[axis:], unit))
    return lines


WRITTEN = {"hyperplanes.json": hyperplanes(), "box-4-4-1.json": box((4, 4, 1))}

PROJECTED = ("grid-3-5.json", "grid-4-3.json", "hyperplanes.json")

# each curve's coordinate polynomials, by their coefficients
CURVES = [
    [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]],
    [["0", "1"], ["0"], ["0"]],
    [["0"], ["0", "1"], ["0"]],
    [["0"], ["0"], ["0", "1"]],
]


def corpus() -> list[list[str]]:
    """The command lines, in the order they run."""
    argvs = [[*gen, "-o", name] for name, gen in GENERATED.items()]
    for name in [*GENERATED, *WRITTEN]:
        stem = name.removesuffix(".json")
        argvs += [
            ["trace", name, "--json", f"{stem}.trace.json"],
            ["joints", name],
            ["bound", name],
            ["fit", name],
            ["fit", name, "--minimal"],
        ]
        if name in PROJECTED:
            out = f"{stem}.project.json"
            argvs.append(["project", name, "--s", "2", "--seed", "1", "-o", out])
    for chosen in ("1,2,3", "0,1,2"):
        argvs.append(
            ["curve", "joint", "curves.json", "--curves", chosen, "--params", "0,0,0"]
        )
    argvs.append(["sweep", "grid", "--dim", "3", "--k", "2..4", "--csv", "sweep-grid.csv"])
    return argvs


def write_inputs(cwd: Path) -> None:
    for name, lines in WRITTEN.items():
        obj = {
            "dim": len(lines[0][0]),
            "lines": [
                {"base": [str(c) for c in base], "dir": [str(c) for c in direction]}
                for base, direction in lines
            ],
        }
        (cwd / name).write_text(json.dumps(obj), encoding="utf-8")
    curves = {"dim": 3, "curves": [{"coords": coords} for coords in CURVES]}
    (cwd / "curves.json").write_text(json.dumps(curves), encoding="utf-8")


def run_tree(src: Path, argvs: list[list[str]]) -> tuple[list[tuple], dict]:
    """Each command line's exit code, stdout and stderr against the tree,
    and the bytes of every file in the working directory afterwards."""
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0", "COLUMNS": "80"}
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        write_inputs(cwd)
        results = []
        for argv in argvs:
            child = subprocess.run(
                [sys.executable, "-m", "jointlab", *argv],
                cwd=cwd,
                env=env,
                capture_output=True,
                timeout=300,
            )
            results.append((child.returncode, child.stdout, child.stderr))
        files = {f.name: f.read_bytes() for f in sorted(cwd.iterdir()) if f.is_file()}
    return results, files


def diff(old: bytes, new: bytes) -> list[str]:
    lines = difflib.unified_diff(
        old.decode("utf-8", "replace").splitlines(),
        new.decode("utf-8", "replace").splitlines(),
        "old",
        "new",
        lineterm="",
    )
    return ["  " + line for line in lines]


def compare(argvs, old, new) -> list[str]:
    """One report line per difference, each followed by its diff."""
    report = []
    for argv, (code0, out0, err0), (code1, out1, err1) in zip(argvs, old[0], new[0]):
        command = " ".join(argv)
        if code0 != code1:
            report.append(f"{command}: exit code {code0} -> {code1}")
        for what, a, b in (("stdout", out0, out1), ("stderr", err0, err1)):
            if a != b:
                report += [f"{command}: {what} differs", *diff(a, b)]
    for name in sorted(old[1].keys() | new[1].keys()):
        a, b = old[1].get(name), new[1].get(name)
        if a is None or b is None:
            report.append(f"file {name}: written only by {'new' if a is None else 'old'}")
        elif a != b:
            report += [f"file {name} differs", *diff(a, b)]
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("old", type=Path, metavar="OLD_SRC")
    parser.add_argument("new", type=Path, metavar="NEW_SRC")
    args = parser.parse_args(argv)
    for src in (args.old, args.new):
        if not (src / "jointlab").is_dir():
            parser.error(f"{src} holds no jointlab package")
    argvs = corpus()
    with ThreadPoolExecutor(2) as pool:
        old, new = pool.map(lambda src: run_tree(src.resolve(), argvs), (args.old, args.new))
    report = compare(argvs, old, new)
    for line in report:
        print(line)
    differences = sum(not line.startswith("  ") for line in report)
    print(f"{len(argvs)} command lines, {len(old[1])} files: {differences} difference(s)")
    return 1 if report else 0


if __name__ == "__main__":
    sys.exit(main())
