"""Split the wall time of a jointlab job into its run and its exit.

Each job is a fresh interpreter that runs one command line through
``jointlab.cli``, as ``python -m jointlab`` does, with ``cli.main`` wrapped
so that the child writes the moment ``main`` returns to a pipe.  Times are
read on ``CLOCK_MONOTONIC``, which every process on the host shares.  For
each kind of job and each way to end the process the script prints two
medians:

- *to return*: from spawning the process to ``main``'s return, which covers
  the interpreter's start-up, compiling and importing the modules the
  command runs, and the run itself;
- *to reaped*: from that return until the parent has reaped the process,
  which covers the exit: atexit handlers, flushing, the shutdown's
  collections and the interpreter's teardown.

The two ways to end are ``cli.entry()``, the process entry, which freezes
the collector once ``main`` returns, and a plain ``sys.exit(main())``.
Next to them it prints the floor: spawn to reaped of ``python -c pass``.
Runs of the two ways and the floor alternate within each repeat.

The kinds of job:

- ``trace-grid``: ``trace --json`` on grid(3,5), the 75 axis-parallel lines
  through {0..4}^3;
- ``trace-hyperplanes``: ``trace --json`` on the 36 lines where the nine
  hyperplanes x.(1, t, t^2) = t^3 meet in pairs, at the nine t of
  ``nine_hyperplanes`` in ``tests/conftest.py``; the lines are written in
  closed form, as ``tools/fit_timing.py`` writes joints;
- ``sweep-random``: ``sweep random --dim 3 --n 200 --seeds 7``.

Children inherit the environment, ``PYTHONDONTWRITEBYTECODE`` included,
with the repository's ``src`` first on ``PYTHONPATH``.  Standard library
only, Unix only; run it from anywhere as
``python tools/job_phases.py [--repeat N] [kind ...]``.
"""

from __future__ import annotations

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from itertools import combinations
from pathlib import Path
from time import CLOCK_MONOTONIC, clock_gettime_ns

SRC = Path(__file__).resolve().parents[1] / "src"
sys.path.insert(0, str(SRC))

from jointlab.constructions import grid  # noqa: E402
from jointlab.geometry import Configuration, Line, save_configuration  # noqa: E402

TS = tuple(
    Fraction(t) for t in ("-7/4", "-5/3", "-3/2", "-1", "-1/3", "1/4", "1/2", "2", "3")
)

JOBS = {
    "trace-grid": ["trace", "grid.json", "--json", "out.json"],
    "trace-hyperplanes": ["trace", "hyperplanes.json", "--json", "out.json"],
    "sweep-random": [
        "sweep", "random", "--dim", "3", "--n", "200", "--seeds", "7", "--csv", "out.csv"
    ],
}

# the child: cli.main wrapped to write the moment it returns to a pipe
CHILD = """
import os, sys, time
import jointlab.cli as cli
main = cli.main
def timed(argv=None):
    code = main(argv)
    os.write({fd}, b"%d" % time.clock_gettime_ns(time.CLOCK_MONOTONIC))
    return code
cli.main = timed
{end}
"""

ENDS = {"entry()": "cli.entry()", "sys.exit(main())": "sys.exit(cli.main())"}


def hyperplanes(ts) -> Configuration:
    """The hyperplanes at a and b meet in the line (0, -ab, a+b) + s (ab, -(a+b), 1)."""
    lines = [Line((0, -a * b, a + b), (a * b, -(a + b), 1)) for a, b in combinations(ts, 2)]
    return Configuration(3, lines)


def spawn(argv: list[str], cwd: Path, env: dict, fd: int | None = None) -> tuple:
    """Run argv to completion: the spawn and reap times, in ns."""
    start = clock_gettime_ns(CLOCK_MONOTONIC)
    proc = subprocess.Popen(
        argv,
        cwd=cwd,
        env=env,
        stdout=subprocess.DEVNULL,
        pass_fds=() if fd is None else (fd,),
    )
    code = proc.wait()
    reaped = clock_gettime_ns(CLOCK_MONOTONIC)
    if code != 0:
        raise SystemExit(f"error: {argv[1:]} exited {code}")
    return start, reaped


def phases(job: list[str], end: str, cwd: Path, env: dict) -> tuple[int, int]:
    """One job ended by end: ns to main's return, and ns from it to reaped."""
    read, write = os.pipe()
    try:
        code = CHILD.format(fd=write, end=ENDS[end])
        start, reaped = spawn([sys.executable, "-c", code, *job], cwd, env, write)
    finally:
        os.close(write)
    with os.fdopen(read, "rb") as pipe:
        returned = int(pipe.read())
    return returned - start, reaped - returned


def ms(samples: list[int]) -> str:
    return f"{statistics.median(samples) / 1e6:8.1f} ms"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kinds", nargs="*", metavar="kind", help="any of " + ", ".join(JOBS))
    parser.add_argument("--repeat", type=int, default=15, help="jobs per median (default 15)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.kinds if name not in JOBS]
    if unknown:
        parser.error(f"unknown kind {unknown[0]!r}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    path = os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
    env = {**os.environ, "PYTHONPATH": path}
    bytecode = os.environ.get("PYTHONDONTWRITEBYTECODE") or "unset"
    print(f"python {sys.version.split()[0]}, PYTHONDONTWRITEBYTECODE={bytecode}, "
          f"medians of {args.repeat}")
    print(f"{'job':<18} {'end':<17} {'to return':>11} {'to reaped':>11}")
    with tempfile.TemporaryDirectory() as tmp:
        cwd = Path(tmp)
        save_configuration(grid(3, 5), cwd / "grid.json")
        save_configuration(hyperplanes(TS), cwd / "hyperplanes.json")
        floor = []
        for name in args.kinds or JOBS:
            times = {end: ([], []) for end in ENDS}
            for i in range(args.repeat):
                start, reaped = spawn([sys.executable, "-c", "pass"], cwd, env)
                floor.append(reaped - start)
                for end in sorted(ENDS, reverse=i % 2 == 1):
                    to_return, to_reaped = phases(JOBS[name], end, cwd, env)
                    times[end][0].append(to_return)
                    times[end][1].append(to_reaped)
            for end, (to_return, to_reaped) in times.items():
                print(f"{name:<18} {end:<17} {ms(to_return):>11} {ms(to_reaped):>11}")
    print(f"{'python -c pass':<18} {'':<17} {'':>11} {ms(floor):>11}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
