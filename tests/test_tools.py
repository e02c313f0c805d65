"""The scripts in ``tools/`` still run against the package.

The timing scripts reach package internals by name
(``polynomial._distinct_points``, ``polynomial._evaluation_matrix``,
``kernel._lift``, ``kernel._walk``, ``cli.main`` and ``cli.entry``), so a
rename inside the package shows here; the parity script runs the command
line of two source trees.  Each script runs in a fresh interpreter, the
timing ones at their smallest setting; the checks read the exit code and
the shape of each printed row, never a time.
"""

import re
import shutil
import subprocess
import sys

from test_imports import ROOT

SRC = ROOT / "src"

MS = r"\d+\.\d ms"


def run_tool(*argv: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(ROOT / "tools" / argv[0]), *argv[1:]],
        capture_output=True,
        text=True,
        timeout=120,
    )


def tool(*argv: str) -> list[str]:
    """The lines the script in tools/ prints; it must exit 0."""
    child = run_tool(*argv)
    assert (child.returncode, child.stderr) == (0, ""), child.stderr
    return child.stdout.splitlines()


def test_fit_timing_prints_one_row_per_fit():
    lines = tool("fit_timing.py", "--repeat", "1", "grid(3,7)")
    assert len(lines) == 1
    # the 343 points of {0..6}^3 against the 364 monomials of degree <= 11,
    # on one prime; the walk checks the corners x1^7, x2^7 and x3^7 and
    # skips the other 102 free columns, their monomial multiples, and no
    # column is lifted; then the collector's passes of generations 0, 1 and
    # 2 and their time; then the minimal fit, of degree 7, whose walk stops
    # after the 120 columns of degree <= 7
    row = (
        r"grid\(3,7\): 343 x 364, primes 1, corners checked 3, "
        r"free columns skipped 102, lift steps 0, "
        rf"gc passes \d+/\d+/\d+ in {MS}, median \d+\.\d{{3}} s of 1; "
        r"minimal b\* 7, 120 of 364 columns walked, median \d+\.\d{3} s"
    )
    assert re.fullmatch(row, lines[0]), lines[0]


def test_job_phases_prints_each_end_and_the_floor():
    lines = tool("job_phases.py", "--repeat", "1", "sweep-random")
    assert len(lines) == 5
    assert re.fullmatch(r"python \S+, PYTHONDONTWRITEBYTECODE=\S+, medians of 1", lines[0])
    assert lines[1].split() == ["job", "end", "to", "return", "to", "reaped"]
    for line, end in zip(lines[2:4], [r"entry\(\)", r"sys\.exit\(main\(\)\)"]):
        assert re.fullmatch(rf"sweep-random +{end} +{MS} +{MS}", line), line
    assert re.fullmatch(rf"python -c pass +{MS}", lines[4]), lines[4]


def test_parity_finds_no_difference_between_a_tree_and_itself():
    assert tool("parity.py", str(SRC), str(SRC)) == [
        "59 command lines, 21 files: 0 difference(s)"
    ]


def test_parity_names_the_command_whose_output_changed(tmp_path):
    copy = tmp_path / "src"
    shutil.copytree(SRC, copy, ignore=shutil.ignore_patterns("__pycache__"))
    pipeline = copy / "jointlab" / "pipeline.py"
    text = pipeline.read_text(encoding="utf-8")
    assert text.count("} surviving lines") == 1
    pipeline.write_text(text.replace("} surviving lines", "} remaining lines"), "utf-8")
    child = run_tool("parity.py", str(SRC), str(copy))
    assert (child.returncode, child.stderr) == (1, "")
    *report, summary = child.stdout.splitlines()
    # the fit step's verdict: in trace's stdout and its JSON, where a fit runs
    heads = [line for line in report if not line.startswith("  ")]
    assert "trace grid-3-5.json --json grid-3-5.trace.json: stdout differs" in heads
    assert "file grid-3-5.trace.json differs" in heads
    assert all(h.startswith("trace ") or h.endswith(".trace.json differs") for h in heads)
    fit = "  +[fit] degree 8 polynomial vanishes identically on 50 of 75 remaining lines"
    assert any(line.startswith(fit) for line in report)
    assert summary.endswith(f": {len(heads)} difference(s)")
