"""``jointlab joints``: count and list the joints, or the s-joints."""

from __future__ import annotations

from ..exact import format_rational
from . import integer


def run(args) -> int:
    from ..geometry import find_joints, find_s_joints, load_configuration

    config = load_configuration(args.file)
    if args.s is not None:
        joints = find_s_joints(config, args.s)
    else:
        joints = find_joints(config)
    print(len(joints))
    for point in joints.points:
        print(" ".join(format_rational(c) for c in point))
    return 0


def add_parsers(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--s", type=integer, default=None, help="detect s-joints instead")
