"""``jointlab bound``: the exact inequality check on a configuration."""

from __future__ import annotations

from . import load_lines


def run(args) -> int:
    from ..geometry import bound_check, bound_constant, find_joints

    config = load_lines(args.file)
    joints = find_joints(config)
    n, m, d = config.n, len(joints), config.dim
    chk = bound_check(n, m, d)
    print(f"n = {n}, m = {m}, d = {d}")
    print(f"m^(d-1) = {chk.lhs}")
    print(f"2^(d+1) * d! * n^d = {chk.rhs}")
    print(f"A({d}) = {bound_constant(d):.6g}")
    print("holds" if chk.holds else "VIOLATED")
    return 0 if chk.holds else 2


def add_parsers(parser) -> None:
    parser.add_argument("file")
