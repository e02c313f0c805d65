"""Command-line interface.

Exit codes: 0 success (and inequality holds), 1 usage or input error,
2 inequality violated, 3 internal invariant violation.

A run starts only what its command runs.  This module is the dispatcher
alone: the one table of commands and their help, the parser that lists
them, the ``--poly``/``--params`` pre-pass, ``main`` and ``entry``.  Each
command is a module of :mod:`jointlab.commands` holding its parsers and its
handler.  What commands share, the ``integer`` argument type and
``load_lines``, is in that package too, so no command module imports this
one.  The handler imports the modules it runs, so a run loads and compiles
only those: ``sweep`` never loads the polynomial layer or the file format,
and only ``curve`` loads the curve module.  ``json`` and ``fractions`` are
imported where a file is read or written and where a Fraction is made, so
a sweep loads neither.  ``main`` imports the invoked command's module
alone, or none when argv names no command, and parses once, with one
parser that lists every command: the invoked one adds its own parsers and
the others are stubs.  Help, usage and error text are therefore those of a
parser with every command filled in.

``entry`` is the process entry, behind ``python -m jointlab``, ``python -m
jointlab.cli`` and the console script; ``main`` is for callers in a
process that goes on running, such as tests and the benchmark's replay.
"""

from __future__ import annotations

import argparse
import gc
import sys

from .errors import GenericityFailureError, InternalInvariantViolation

# each command of jointlab, in the order help lists them, with its help;
# each is a module of jointlab.commands
_COMMANDS = {
    "gen": "generate a configuration file",
    "joints": "count and list joints",
    "fit": "fit a vanishing polynomial on the joints",
    "trace": "run the proof pipeline and narrate it",
    "bound": "exact inequality check",
    "project": "generic projection to dimension s",
    "sweep": "sweep a family and emit CSV",
    "curve": "curve restriction and joint checks",
}


def build_parser(modules: dict) -> argparse.ArgumentParser:
    """The parser listing every command.  Each command in ``modules``, a
    map from its name to its module, adds its own parsers; every other
    command is a stub, built without -h, since it is never parsed."""
    parser = argparse.ArgumentParser(
        prog="jointlab",
        description="Exact-arithmetic toolkit for joints of line configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, text in _COMMANDS.items():
        if name in modules:
            modules[name].add_parsers(sub.add_parser(name, help=text))
        else:
            sub.add_parser(name, help=text, add_help=False)
    return parser


def _join_poly(argv: list[str]) -> list[str]:
    """``--poly VALUE`` as ``--poly=VALUE`` when VALUE starts with a sign,
    and ``--params VALUE`` likewise.

    argparse reads a separate value that starts with "-" as an option,
    unless it is one plain negative number.  But the polynomial text that
    fit and trace print starts with "-" whenever its leading coefficient is
    negative, and a parameter list starts with "-" whenever its first
    parameter is negative, as in ``-1/2,1/2,0``.
    """
    out: list[str] = []
    for arg in argv:
        signed = arg.startswith("-") and not arg.startswith("--")
        if out and out[-1] in ("--poly", "--params") and signed:
            out[-1] = f"{out[-1]}={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    argv = _join_poly(sys.argv[1:] if argv is None else argv)
    # jointlab itself has no option that takes a value, so argparse takes
    # the first argument that names a command; only its module is loaded
    name = next((arg for arg in argv if arg in _COMMANDS), None)
    modules = {}
    if name is not None:
        # __import__, unlike importlib.import_module, shows in -X importtime
        modules[name] = __import__(f"{__package__}.commands.{name}", fromlist=["run"])
    try:
        args = build_parser(modules).parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return modules[name].run(args)
    except InternalInvariantViolation as exc:
        # covers ContradictionBugError as well
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (GenericityFailureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entry() -> None:
    """Run :func:`main` on ``sys.argv`` and exit the process with its code.

    Once ``main`` returns, the output is complete, so ``gc.freeze()`` moves
    every tracked object into the permanent generation, which the
    interpreter's collections at shutdown skip, and the OS reclaims the
    memory.  That saves the shutdown's full collections, a few ms per job.
    atexit handlers still run and stdout and stderr are still flushed.  No
    object is left that needs finalising: every file a command writes is
    closed by a ``with`` block before ``main`` returns, and no jointlab class
    defines ``__del__`` or uses weakref callbacks.
    """
    code = main()
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    entry()
