"""Command-line interface.

Exit codes: 0 success (and inequality holds), 1 usage or input error,
2 inequality violated, 3 internal invariant violation.

A run starts only what its command runs.  Each command imports the modules
it runs inside its handler, so a run loads and compiles only those:
``sweep`` never loads the polynomial layer, and only ``curve`` loads the
curve module.  ``json`` and ``fractions`` are imported where a file is read
or written and where a Fraction is made, so a sweep loads neither.  ``main``
builds the parsers of the invoked command only (2 for ``trace``, 4 for
``sweep``, against 17 for the full parser); when argv names no command, or
that parse meets any error, the full parser parses argv again, so help,
usage and error text are the full parser's own.
"""

from __future__ import annotations

import argparse
import re
import sys

from .errors import GenericityFailureError, InternalInvariantViolation
from .exact import format_rational, parse_rational


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


def _parse_range(text: str) -> list[int]:
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


def _load_lines(path):
    """The configuration in the file; refuses one with no lines, on which
    the bound and the trace are undefined (n >= 1)."""
    from .geometry import load_configuration

    config = load_configuration(path)
    if config.n == 0:
        raise ValueError(f"{path}: the configuration has no lines")
    return config


def _point_str(point) -> str:
    return " ".join(format_rational(c) for c in point)


def _cmd_gen(args) -> int:
    from . import constructions
    from .geometry import save_configuration

    if args.family == "grid":
        config = constructions.grid(args.dim, args.k)
    elif args.family == "random":
        config = constructions.random_config(
            args.dim, args.n, args.seed, args.coord_bound
        )
    elif args.family == "planar":
        config = constructions.planar_bundle(args.dim, args.n)
    else:
        config = constructions.grid_plus_orphan(args.dim, args.k)
    save_configuration(config, args.output)
    print(f"wrote {config.n} lines in dimension {config.dim} to {args.output}")
    return 0


def _cmd_joints(args) -> int:
    from .geometry import find_joints, find_s_joints, load_configuration

    config = load_configuration(args.file)
    if args.s is not None:
        joints = find_s_joints(config, args.s)
    else:
        joints = find_joints(config)
    print(len(joints))
    for point in joints.points:
        print(_point_str(point))
    return 0


def _cmd_fit(args) -> int:
    from .geometry import find_joints, load_configuration
    from .polynomial import (
        fit_vanishing,
        min_fit_degree,
        minimal_fit,
        polynomial_to_text,
    )

    config = load_configuration(args.file)
    joints = find_joints(config)
    m = len(joints)
    print(f"joints: {m}")
    if m == 0:
        print("nothing to fit")
        return 0
    b = min_fit_degree(m, config.dim)
    print(f"degree bound b: {b}")
    if args.minimal:
        poly = minimal_fit(joints.points, config.dim)
        print(f"minimal degree: {poly.degree()}")
    else:
        poly = fit_vanishing(joints.points, config.dim)
    print(f"polynomial: {polynomial_to_text(poly)}")
    print(f"degree: {poly.degree()}")
    return 0


def _cmd_trace(args) -> int:
    from .geometry import write_json
    from .pipeline import trace, trace_to_dict

    config = _load_lines(args.file)
    result = trace(config)
    for step in result.narrative:
        extras = ", ".join(f"{k}={v}" for k, v in step.detail.items())
        line = f"[{step.name}] {step.verdict}"
        if extras:
            line += f" ({extras})"
        print(line)
    if args.json:
        write_json(args.json, trace_to_dict(result))
        print(f"trace written to {args.json}")
    return 0


def _cmd_bound(args) -> int:
    from .geometry import bound_check, bound_constant, find_joints

    config = _load_lines(args.file)
    joints = find_joints(config)
    n, m, d = config.n, len(joints), config.dim
    chk = bound_check(n, m, d)
    print(f"n = {n}, m = {m}, d = {d}")
    print(f"m^(d-1) = {chk.lhs}")
    print(f"2^(d+1) * d! * n^d = {chk.rhs}")
    print(f"A({d}) = {bound_constant(d):.6g}")
    print("holds" if chk.holds else "VIOLATED")
    return 0 if chk.holds else 2


def _cmd_project(args) -> int:
    from .geometry import (
        load_configuration,
        project_to_generic_flat,
        save_configuration,
    )

    config = load_configuration(args.file)
    projection = project_to_generic_flat(config, args.s, args.seed)
    save_configuration(projection.config, args.output)
    print(
        f"projected {config.n} lines to dimension {args.s} "
        f"in {projection.attempts} attempt(s); wrote {args.output}"
    )
    for row in projection.matrix:
        print("  [" + " ".join(format_rational(c) for c in row) + "]")
    return 0


def _cmd_sweep(args) -> int:
    from . import harness

    if args.family == "grid":
        rows = [
            row
            for k in _parse_range(args.k)
            for row in harness.sweep_grids(args.dim, k, k, force=args.force)
        ]
    else:
        rows = harness.sweep_random(
            args.dim,
            _parse_range(args.n),
            _parse_range(args.seeds),
            coord_bound=args.coord_bound,
            force=args.force,
        )
    harness.write_csv(rows, args.csv)
    print(f"wrote {len(rows)} row(s) to {args.csv}")
    return 0


def _cmd_curve(args) -> int:
    from . import curves
    from .polynomial import polynomial_from_text, unipoly_to_text

    cfg = curves.load_curve_configuration(args.file)
    if args.action == "restrict":
        poly = polynomial_from_text(args.poly, cfg.dim)
        indices = [args.index] if args.index is not None else range(len(cfg.curves))
        for i in indices:
            if not 0 <= i < len(cfg.curves):
                raise ValueError(f"curve index {i} out of range")
            restriction = curves.restrict_to_curve(poly, cfg.curves[i])
            print(f"curve {i}: {unipoly_to_text(restriction)}")
        return 0
    indices = [integer(x) for x in args.curves.split(",")]
    params = [parse_rational(x) for x in args.params.split(",")]
    if len(indices) != len(params):
        raise ValueError("--curves and --params must have the same length")
    pairs = []
    for i, t in zip(indices, params):
        if not 0 <= i < len(cfg.curves):
            raise ValueError(f"curve index {i} out of range")
        pairs.append((cfg.curves[i], t))
    verdict = curves.curve_joint(pairs)
    print("joint" if verdict else "not a joint")
    return 0


class _Reparse(Exception):
    """A one-command parser met an error; the full parser reports it."""


class _CommandParser(argparse.ArgumentParser):
    """A parser that raises :class:`_Reparse` instead of printing an error
    and exiting; its subparsers are of this class as well."""

    def error(self, message):
        raise _Reparse(message)


def _add_gen(sub) -> None:
    gen = sub.add_parser("gen", help="generate a configuration file")
    gen_sub = gen.add_subparsers(dest="family", required=True)
    for family in ("grid", "random", "planar", "grid-orphan"):
        g = gen_sub.add_parser(family)
        g.add_argument("--dim", type=integer, required=True)
        if family in ("grid", "grid-orphan"):
            g.add_argument("--k", type=integer, required=True)
        else:
            g.add_argument("--n", type=integer, required=True)
        if family == "random":
            g.add_argument("--seed", type=integer, required=True)
            g.add_argument("--coord-bound", type=integer, default=10)
        g.add_argument("-o", "--output", required=True)
        g.set_defaults(handler=_cmd_gen)


def _add_joints(sub) -> None:
    joints = sub.add_parser("joints", help="count and list joints")
    joints.add_argument("file")
    joints.add_argument(
        "--s", type=integer, default=None, help="detect s-joints instead"
    )
    joints.set_defaults(handler=_cmd_joints)


def _add_fit(sub) -> None:
    fit = sub.add_parser("fit", help="fit a vanishing polynomial on the joints")
    fit.add_argument("file")
    fit.add_argument("--minimal", action="store_true")
    fit.set_defaults(handler=_cmd_fit)


def _add_trace(sub) -> None:
    tr = sub.add_parser("trace", help="run the proof pipeline and narrate it")
    tr.add_argument("file")
    tr.add_argument("--json", default=None, help="also write a JSON trace")
    tr.set_defaults(handler=_cmd_trace)


def _add_bound(sub) -> None:
    bound = sub.add_parser("bound", help="exact inequality check")
    bound.add_argument("file")
    bound.set_defaults(handler=_cmd_bound)


def _add_project(sub) -> None:
    project = sub.add_parser("project", help="generic projection to dimension s")
    project.add_argument("file")
    project.add_argument("--s", type=integer, required=True)
    project.add_argument("--seed", type=integer, required=True)
    project.add_argument("-o", "--output", required=True)
    project.set_defaults(handler=_cmd_project)


def _add_sweep(sub) -> None:
    sweep = sub.add_parser("sweep", help="sweep a family and emit CSV")
    sweep_sub = sweep.add_subparsers(dest="family", required=True)
    sg = sweep_sub.add_parser("grid")
    sg.add_argument("--dim", type=integer, required=True)
    sg.add_argument("--k", required=True, help='range like "2..6"')
    sg.add_argument("--csv", required=True)
    sg.add_argument("--force", action="store_true")
    sg.set_defaults(handler=_cmd_sweep)
    sr = sweep_sub.add_parser("random")
    sr.add_argument("--dim", type=integer, required=True)
    sr.add_argument("--n", required=True, help='list like "10,20" or range "5..8"')
    sr.add_argument("--seeds", required=True, help='list or range of seeds')
    sr.add_argument("--coord-bound", type=integer, default=10)
    sr.add_argument("--csv", required=True)
    sr.add_argument("--force", action="store_true")
    sr.set_defaults(handler=_cmd_sweep)


def _add_curve(sub) -> None:
    curve = sub.add_parser("curve", help="curve restriction and joint checks")
    curve_sub = curve.add_subparsers(dest="action", required=True)
    cr = curve_sub.add_parser("restrict")
    cr.add_argument("file")
    cr.add_argument("--poly", required=True, help='polynomial text, e.g. "x2^2 - x1*x3"')
    cr.add_argument("--index", type=integer, default=None)
    cr.set_defaults(handler=_cmd_curve)
    cj = curve_sub.add_parser("joint")
    cj.add_argument("file")
    cj.add_argument("--curves", required=True, help="comma list of curve indices")
    cj.add_argument("--params", required=True, help="comma list of parameters")
    cj.set_defaults(handler=_cmd_curve)


# command name -> the function adding its parsers, in the order help lists them
_COMMANDS = {
    "gen": _add_gen,
    "joints": _add_joints,
    "fit": _add_fit,
    "trace": _add_trace,
    "bound": _add_bound,
    "project": _add_project,
    "sweep": _add_sweep,
    "curve": _add_curve,
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The parser of every command; given a command name, the parsers of
    that command alone, which raise :class:`_Reparse` on any error."""
    cls = argparse.ArgumentParser if command is None else _CommandParser
    parser = cls(
        prog="jointlab",
        description="Exact-arithmetic toolkit for joints of line configurations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, add in _COMMANDS.items():
        if command is None or command == name:
            add(sub)
    return parser


def _parse(argv: list[str]) -> argparse.Namespace:
    """The arguments of argv, parsed by the invoked command's parsers only.

    When argv names no command, or that parse meets any error, the full
    parser parses argv again, so help, usage and error text are its own.
    """
    if argv and argv[0] in _COMMANDS:
        try:
            return build_parser(argv[0]).parse_args(argv)
        except _Reparse:
            pass
    return build_parser().parse_args(argv)


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
    try:
        args = _parse(_join_poly(sys.argv[1:] if argv is None else argv))
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
        return 0 if code == 0 else 1
    try:
        return args.handler(args)
    except InternalInvariantViolation as exc:
        # covers ContradictionBugError as well
        print(f"internal invariant violation: {exc}", file=sys.stderr)
        return 3
    except (GenericityFailureError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
