"""``jointlab project``: a verified generic projection to dimension s."""

from __future__ import annotations

from ..exact import format_rational
from . import integer


def run(args) -> int:
    from ..geometry import load_configuration, save_configuration
    from ..projection import project_to_generic_flat

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


def add_parsers(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--s", type=integer, required=True)
    parser.add_argument("--seed", type=integer, required=True)
    parser.add_argument("-o", "--output", required=True)
