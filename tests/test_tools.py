"""The scripts in ``tools/`` still run against the package.

Both reach package internals by name (``polynomial._distinct_points``,
``polynomial._evaluation_matrix``, ``kernel._lift``, ``cli.main`` and
``cli.entry``), so a rename inside the package shows here.  Each script
runs once, at its smallest setting, in a fresh interpreter; the checks read
the exit code and the shape of each printed row, never a time.
"""

import re
import subprocess
import sys

from test_imports import ROOT

MS = r"\d+\.\d ms"


def tool(*argv: str) -> list[str]:
    """The lines the script in tools/ prints; it must exit 0."""
    child = subprocess.run(
        [sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (child.returncode, child.stderr) == (0, ""), child.stderr
    return child.stdout.splitlines()


def test_fit_timing_prints_one_row_per_fit():
    lines = tool("fit_timing.py", "--repeat", "1", "grid(3,7)")
    assert len(lines) == 1
    # the 343 points of {0..6}^3 against the 364 monomials of degree <= 11,
    # on one prime, with 60 columns lifted one step each
    row = r"grid\(3,7\): 343 x 364, primes 1, lift steps 60, median \d+\.\d{3} s of 1"
    assert re.fullmatch(row, lines[0]), lines[0]


def test_job_phases_prints_each_end_and_the_floor():
    lines = tool("job_phases.py", "--repeat", "1", "sweep-random")
    assert len(lines) == 5
    assert re.fullmatch(r"python \S+, PYTHONDONTWRITEBYTECODE=\S+, medians of 1", lines[0])
    assert lines[1].split() == ["job", "end", "to", "return", "to", "reaped"]
    for line, end in zip(lines[2:4], [r"entry\(\)", r"sys\.exit\(main\(\)\)"]):
        assert re.fullmatch(rf"sweep-random +{end} +{MS} +{MS}", line), line
    assert re.fullmatch(rf"python -c pass +{MS}", lines[4]), lines[4]
