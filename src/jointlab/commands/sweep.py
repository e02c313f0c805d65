"""``jointlab sweep``: sweep a construction family and write CSV rows."""

from __future__ import annotations

from . import integer


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


def run(args) -> int:
    from .. import harness

    if args.family == "grid":
        rows = harness.sweep_grids(args.dim, parse_range(args.k), force=args.force)
    else:
        rows = harness.sweep_random(
            args.dim,
            parse_range(args.n),
            parse_range(args.seeds),
            coord_bound=args.coord_bound,
            force=args.force,
        )
    harness.write_csv(rows, args.csv)
    print(f"wrote {len(rows)} row(s) to {args.csv}")
    return 0


def add_parsers(parser) -> None:
    sweep_sub = parser.add_subparsers(dest="family", required=True)
    sg = sweep_sub.add_parser("grid")
    sg.add_argument("--dim", type=integer, required=True)
    sg.add_argument("--k", required=True, help='range like "2..6"')
    sg.add_argument("--csv", required=True)
    sg.add_argument("--force", action="store_true")
    sr = sweep_sub.add_parser("random")
    sr.add_argument("--dim", type=integer, required=True)
    sr.add_argument("--n", required=True, help='list like "10,20" or range "5..8"')
    sr.add_argument("--seeds", required=True, help='list or range of seeds')
    sr.add_argument("--coord-bound", type=integer, default=10)
    sr.add_argument("--csv", required=True)
    sr.add_argument("--force", action="store_true")
