"""``jointlab fit``: fit a vanishing polynomial on the joints."""

from __future__ import annotations


def run(args) -> int:
    from ..geometry import find_joints, load_configuration
    from ..polynomial import (
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


def add_parsers(parser) -> None:
    parser.add_argument("file")
    parser.add_argument("--minimal", action="store_true")
