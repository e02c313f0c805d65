"""Command-line interface.

Exit codes: 0 success (and inequality holds), 1 usage or input error,
2 inequality violated, 3 internal invariant violation.

A run starts only what its command runs.  This module is the dispatcher:
``main``, the ``--poly``/``--params`` pre-pass, the one table of commands
and their help, the parse, and what commands share: the ``integer`` and
range argument types and :func:`load_lines`.  Each command is a module of
:mod:`jointlab.commands` holding its parsers and its handler, and the
handler imports the modules it runs, so a run loads and compiles only
those: ``sweep`` never loads the polynomial layer or the file format, and
only ``curve`` loads the curve module.  ``json`` and ``fractions`` are
imported where a file is read or written and where a Fraction is made, so
a sweep loads neither.  ``main`` imports the invoked command's module
alone, or none when argv names no command, and parses once, with one
parser that lists every command: the invoked one adds its own parsers and
the others are stubs.  Help, usage and error text are therefore those of a
parser with every command filled in.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import GenericityFailureError, InternalInvariantViolation


_INTEGER_RE = re.compile(r"^-?[0-9]+$")


def integer(text: str) -> int:
    """Parse an integer argument in ASCII digits, like ``"12"`` or ``"-3"``.

    ``int`` alone would also take other scripts' digits and underscores.
    As an argparse ``type`` a ValueError reads "invalid integer value".
    """
    literal = text.strip()
    if not _INTEGER_RE.match(literal):
        raise ValueError(f"invalid integer {text!r}")
    return int(literal)


def parse_range(text: str) -> list[int]:
    """Accept "2..6" or a comma list "2,3,6"; refuse one that lists no
    value, such as "6..2" or ",", since a sweep of it would do nothing."""
    try:
        if ".." in text:
            lo, hi = text.split("..", 1)
            values = list(range(integer(lo), integer(hi) + 1))
        else:
            values = [integer(part) for part in text.split(",") if part != ""]
    except ValueError:
        raise ValueError(
            f"invalid range {text!r}: expected A..B or a comma list such as 2,3,6"
        ) from None
    if not values:
        raise ValueError(f"empty range {text!r}: it lists no value")
    return values


def load_lines(path):
    """The configuration in the file; refuses one with no lines, on which
    the bound and the trace are undefined (n >= 1)."""
    from .geometry import load_configuration

    config = load_configuration(path)
    if config.n == 0:
        raise ValueError(f"{path}: the configuration has no lines")
    return config


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


if __name__ == "__main__":
    sys.exit(main())
