"""``jointlab curve``: restrict a polynomial to curves, or check a curve
joint."""

from __future__ import annotations

from ..exact import parse_rational
from . import integer


def _curve(cfg, i: int):
    """The file's curve at index i, as ``--index`` and ``--curves`` name it."""
    if not 0 <= i < len(cfg.curves):
        raise ValueError(f"curve index {i} out of range")
    return cfg.curves[i]


def run(args) -> int:
    from .. import curves
    from ..polynomial import unipoly_to_text

    cfg = curves.load_curve_configuration(args.file)
    if args.action == "restrict":
        poly = curves.polynomial_from_text(args.poly, cfg.dim)
        indices = [args.index] if args.index is not None else range(len(cfg.curves))
        for i in indices:
            restriction = curves.restrict_to_curve(poly, _curve(cfg, i))
            print(f"curve {i}: {unipoly_to_text(restriction)}")
        return 0
    indices = [integer(x) for x in args.curves.split(",")]
    params = [parse_rational(x) for x in args.params.split(",")]
    if len(indices) != len(params):
        raise ValueError("--curves and --params must have the same length")
    pairs = [(_curve(cfg, i), t) for i, t in zip(indices, params)]
    print("joint" if curves.curve_joint(pairs) else "not a joint")
    return 0


def add_parsers(parser) -> None:
    curve_sub = parser.add_subparsers(dest="action", required=True)
    cr = curve_sub.add_parser("restrict")
    cr.add_argument("file")
    cr.add_argument("--poly", required=True, help='polynomial text, e.g. "x2^2 - x1*x3"')
    cr.add_argument("--index", type=integer, default=None)
    cj = curve_sub.add_parser("joint")
    cj.add_argument("file")
    cj.add_argument("--curves", required=True, help="comma list of curve indices")
    cj.add_argument("--params", required=True, help="comma list of parameters")
