"""Generators for extremal, random, and degenerate line configurations."""

from __future__ import annotations

import random
from itertools import product

from .errors import InternalInvariantViolation
from .exact import Point
from .geometry import Configuration, Line, incident

_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29)

# random_config gives up after 100 draws per line asked for, plus 1000: a
# small coordinate bound allows only finitely many distinct lines (16 at
# d = 2 and 193 at d = 3 for bound 1), and collecting all 193 takes ~2000.
DRAWS_PER_LINE = 100
EXTRA_DRAWS = 1000


def grid(d: int, k: int) -> Configuration:
    """Axis-parallel lines through the integer grid {0..k-1}^d.

    One line per axis and per choice of the other d-1 coordinates, so
    d * k^(d-1) lines in total; the joint set is exactly the k^d grid points.
    """
    if d < 3:
        raise ValueError("grid needs dimension >= 3")
    if k < 2:
        raise ValueError("grid needs k >= 2")
    lines = []
    for axis in range(d):
        unit = tuple(1 if i == axis else 0 for i in range(d))
        for rest in product(range(k), repeat=d - 1):
            lines.append(Line(rest[:axis] + (0,) + rest[axis:], unit))
    config = Configuration(d, lines)
    if config.n != d * k ** (d - 1):
        raise InternalInvariantViolation("grid produced duplicate lines")
    return config


def random_config(d: int, n: int, seed: int, coord_bound: int) -> Configuration:
    """n distinct random lines with small integer base and direction entries.

    Raises ValueError when the draw budget runs out first, which happens
    when n exceeds the number of distinct lines the bound allows.
    """
    if n < 1:
        raise ValueError("need n >= 1 lines")
    if d < 2:
        raise ValueError("need dimension >= 2")
    if coord_bound < 1:
        raise ValueError("coordinate bound must be >= 1")
    rng = random.Random(seed)
    lines: set[Line] = set()
    budget = DRAWS_PER_LINE * n + EXTRA_DRAWS
    for _ in range(budget):
        base = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))
        direction = tuple(rng.randint(-coord_bound, coord_bound) for _ in range(d))
        if all(c == 0 for c in direction):
            continue
        lines.add(Line(base, direction))
        if len(lines) == n:
            return Configuration(d, lines)
    raise ValueError(
        f"found only {len(lines)} distinct lines of n = {n} with coordinate "
        f"bound {coord_bound} in {budget} draws"
    )


def planar_bundle(d: int, n: int) -> Configuration:
    """n concurrent lines inside one 2-flat; joint-free for d >= 3."""
    if d < 3:
        raise ValueError("planar bundle needs dimension >= 3")
    if n < 1:
        raise ValueError("need n >= 1 lines")
    origin = (0,) * d
    lines = [Line(origin, (1, j) + (0,) * (d - 2)) for j in range(n)]
    return Configuration(d, lines)


def grid_plus_orphan(d: int, k: int) -> Configuration:
    """The grid plus one line that passes through none of its joints.

    The orphan runs along (1, 1, ..., 1) through a base whose coordinates are
    reciprocals of distinct primes; pairwise coordinate differences are then
    never integers, so no point of the orphan has two integer coordinates and
    the orphan misses every grid line entirely.  Non-incidence with the grid
    points is still verified exactly.
    """
    base_config = grid(d, k)
    if d > len(_PRIMES):
        raise ValueError(f"orphan construction supports dimension <= {len(_PRIMES)}")
    from fractions import Fraction

    orphan = Line(
        tuple(Fraction(1, p) for p in _PRIMES[:d]),
        (1,) * d,
    )
    for point in product(range(k), repeat=d):
        if incident(orphan, Point(point, 1)):
            raise InternalInvariantViolation(
                f"orphan line passes through grid point {point}"
            )
    return Configuration(d, set(base_config.lines) | {orphan})
