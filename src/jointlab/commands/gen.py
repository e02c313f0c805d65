"""``jointlab gen``: write a configuration of one construction family."""

from __future__ import annotations

from . import integer


def run(args) -> int:
    from .. import constructions
    from ..geometry import save_configuration

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


def add_parsers(parser) -> None:
    gen_sub = parser.add_subparsers(dest="family", required=True)
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
