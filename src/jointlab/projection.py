"""Verified generic projections of a configuration to a lower dimension.

Only ``project`` runs this module, so no other command compiles it.
"""

from __future__ import annotations

import random
from operator import mul
from typing import NamedTuple, Sequence

from .errors import DimensionMismatchError, GenericityFailureError
from .exact import Point, rank
from .geometry import Configuration, Line, find_s_joints

PROJECTION_COEFF_BOUND = 1000
PROJECTION_MAX_ATTEMPTS = 16


def mat_vec(rows: Sequence[Sequence], x: Sequence) -> tuple:
    """The product of a matrix and a vector of ints or Fractions; with ints
    only, the entries are ints."""
    out = []
    for row in rows:
        if len(row) != len(x):
            raise DimensionMismatchError(
                f"vector dimensions differ: {len(row)} vs {len(x)}"
            )
        out.append(sum(map(mul, row, x)))
    return tuple(out)


class Projection(NamedTuple):
    """Result of a verified generic projection to a lower dimension."""

    config: Configuration
    matrix: tuple[tuple[int, ...], ...]
    attempts: int


def project_to_generic_flat(config: Configuration, s: int, seed: int) -> Projection:
    """Project lines (and their s-joints) to dimension s by a random map.

    Draws an s x d integer matrix from a seeded PRNG and verifies, exactly,
    that it is full rank, that no direction collapses to zero, that distinct
    lines stay distinct, and that distinct s-joints stay distinct; otherwise
    it redraws with a derived seed, up to a fixed retry budget.
    """
    if not 2 <= s < config.dim:
        raise ValueError(f"s must satisfy 2 <= s < {config.dim}, got {s}")
    s_joints = find_s_joints(config, s)
    lines = config.sorted_lines()
    for attempt in range(PROJECTION_MAX_ATTEMPTS):
        rng = random.Random(seed * PROJECTION_MAX_ATTEMPTS + attempt)
        matrix = tuple(
            tuple(
                rng.randint(-PROJECTION_COEFF_BOUND, PROJECTION_COEFF_BOUND)
                for _ in range(config.dim)
            )
            for _ in range(s)
        )
        if rank(matrix) < s:
            continue
        try:
            images = [
                Line(mat_vec(matrix, line.base), mat_vec(matrix, line.direction))
                for line in lines
            ]
        except ValueError:
            continue  # some direction mapped to zero
        if len(set(images)) != len(lines):
            continue
        projected_points = [
            Point(mat_vec(matrix, p.nums), p.den) for p in s_joints.points
        ]
        if len(set(projected_points)) != len(projected_points):
            continue
        return Projection(
            config=Configuration(s, images), matrix=matrix, attempts=attempt + 1
        )
    raise GenericityFailureError(
        f"no generic projection found in {PROJECTION_MAX_ATTEMPTS} attempts "
        f"(seed {seed}); the instance is degenerate or the luck absurd"
    )

