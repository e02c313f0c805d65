"""The process entry, ``cli.entry``, against the in-process ``main``.

``python -m jointlab``, ``python -m jointlab.cli`` and the console script
all run ``entry``: it runs ``main`` on ``sys.argv``, freezes the collector
so that the interpreter's shutdown collections skip every object left, and
exits with ``main``'s code.  Each route must give what ``main`` gives in
process: the same exit code, the same stdout and stderr bytes and the same
written files.  ``main`` itself never touches the collector, so callers
that go on running after it, such as tests, keep theirs as it was.
"""

import contextlib
import gc
import io
import os
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import pytest

from jointlab.cli import main

from test_imports import COMMANDS, ROOT, write_command_inputs

ROUTES = {
    "python -m jointlab": ["-m", "jointlab"],
    "python -m jointlab.cli": ["-m", "jointlab.cli"],
    "entry()": ["-c", "from jointlab.cli import entry; entry()"],
}

# argv, the exit code and the start of stderr
FAILING = {
    "missing file": (["trace", "missing.json"], 1, "error: "),
    "unknown command": (["bogus"], 1, "usage: jointlab"),
    "-h": (["-h"], 0, ""),
}

CASES = dict(COMMANDS)
CASES.update({name: argv for name, (argv, _, _) in FAILING.items()})

# argparse wraps help and usage to the terminal width, which COLUMNS sets
ENV = {"COLUMNS": "80", "PYTHONIOENCODING": "utf-8"}


def files_in(path: Path) -> dict[str, bytes]:
    return {
        str(f.relative_to(path)): f.read_bytes()
        for f in sorted(path.rglob("*"))
        if f.is_file()
    }


def in_process(argv: list[str], cwd: Path, monkeypatch) -> tuple:
    """main(argv) run in cwd: its code, stdout and stderr bytes, and the
    files in cwd afterwards."""
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as patch:
        patch.chdir(cwd)
        for name, value in ENV.items():
            patch.setenv(name, value)
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(list(argv))
    return code, out.getvalue().encode(), err.getvalue().encode(), files_in(cwd)


def by_route(route: list[str], argv: list[str], cwd: Path) -> tuple:
    """A fresh interpreter running argv by route in cwd: as in_process."""
    env = {**os.environ, **ENV, "PYTHONPATH": str(ROOT / "src")}
    child = subprocess.run(
        [sys.executable, *route, *argv],
        cwd=cwd,
        env=env,
        capture_output=True,
        timeout=120,
    )
    return child.returncode, child.stdout, child.stderr, files_in(cwd)


@pytest.mark.parametrize("name", list(CASES))
def test_every_route_gives_what_main_gives(tmp_path, monkeypatch, name):
    argv = CASES[name]
    dirs = {label: tmp_path / f"d{i}" for i, label in enumerate(["main", *ROUTES])}
    for path in dirs.values():
        path.mkdir()
        write_command_inputs(path)
    expected = in_process(argv, dirs["main"], monkeypatch)
    # the routes run side by side, each in its own directory
    with ThreadPoolExecutor(len(ROUTES)) as pool:
        futures = {
            label: pool.submit(by_route, route, argv, dirs[label])
            for label, route in ROUTES.items()
        }
        got = {label: future.result() for label, future in futures.items()}
    for label in ROUTES:
        assert got[label] == expected, label
    code, out, err, _ = expected
    if name in FAILING:
        _, want_code, want_err = FAILING[name]
        assert code == want_code
        assert err.decode().startswith(want_err) and (err != b"") == (code != 0)
    else:
        assert (code, err) == (0, b"") and out


def test_main_leaves_the_collector_as_it_found_it(tmp_path, monkeypatch, capsys):
    write_command_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    before = gc.isenabled(), gc.get_freeze_count()
    assert main(["trace", "grid.json", "--json", "out.json"]) == 0
    assert (gc.isenabled(), gc.get_freeze_count()) == before


# runs the route's code as its command line would, and reports the exit
# code, with the freeze counts before the run and at the exit, on stderr
LAUNCH = {
    "python -m jointlab": "runpy.run_module('jointlab', run_name='__main__')",
    "python -m jointlab.cli": "runpy.run_module('jointlab.cli', run_name='__main__')",
    "entry()": "from jointlab.cli import entry; entry()",
}
CHILD = """
import gc, runpy, sys
sys.argv = ['jointlab', *{argv!r}]
frozen = gc.get_freeze_count()
try:
    {launch}
except SystemExit as exc:
    print(repr(exc.code), frozen, gc.get_freeze_count(), file=sys.stderr)
"""


@pytest.mark.parametrize("route", list(LAUNCH))
@pytest.mark.parametrize(
    "argv", [["bound", "grid.json"], ["trace", "missing.json"]], ids=["ok", "missing"]
)
def test_every_route_exits_through_a_frozen_collector(
    tmp_path, monkeypatch, capsys, route, argv
):
    write_command_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    code = main(argv)
    child = subprocess.run(
        [sys.executable, "-c", CHILD.format(argv=argv, launch=LAUNCH[route])],
        cwd=tmp_path,
        env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert child.returncode == 0, child.stderr
    exit_code, before, after = map(int, child.stderr.splitlines()[-1].split())
    assert exit_code == code
    # not 0 before: a fresh 3.12 interpreter already reports some frozen
    assert after > before


def test_the_console_script_runs_entry():
    tomllib = pytest.importorskip("tomllib")  # 3.11 and later
    with open(ROOT / "pyproject.toml", "rb") as fh:
        scripts = tomllib.load(fh)["project"]["scripts"]
    assert scripts == {"jointlab": "jointlab.cli:entry"}
