"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: rank by naive
Gauss-Jordan over Fractions (the package uses fraction-free Bareiss),
monomial counting by stars-and-bars recursion (the package filters a
product and uses math.comb), identically-zero decisions by sampling
more points than the degree (the package compares coefficients), joints
by Fraction pair intersections followed by a rescan of every line at each
candidate point (the package builds incidence from integer pair hits), and
pruning by recounting every line in every round (the package peels).
"""

from fractions import Fraction

from jointlab.exact import vec_sub
from jointlab.geometry import (
    JointSet,
    configuration,
    direction_rank,
    incident,
)
from jointlab.pipeline import PruneResult


def rank_naive(matrix) -> int:
    """Rank by plain rational Gauss-Jordan elimination."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    if not rows or not rows[0]:
        return 0
    m, cols = len(rows), len(rows[0])
    r = 0
    for col in range(cols):
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r]
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col] / lead[col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        r += 1
        if r == m:
            break
    return r


def nullspace_is_trivial_naive(matrix) -> bool:
    cols = len(matrix[0]) if matrix else 0
    return rank_naive(matrix) == cols


def monomial_count_recursive(d: int, b: int) -> int:
    """Monomials in d variables of total degree <= b, counted recursively."""
    if b < 0:
        return 0
    if d == 0:
        return 1
    return sum(monomial_count_recursive(d - 1, b - t) for t in range(b + 1))


def min_fit_degree_enum(m: int, d: int) -> int:
    b = 0
    while monomial_count_recursive(d, b) <= m:
        b += 1
    return b


def integer_root_ceiling(m: int, d: int) -> int:
    """Smallest integer c with c^d >= d! * m, found by exact search."""
    from math import factorial

    target = factorial(d) * m
    c = 0
    while c**d < target:
        c += 1
    return c


def vanishes_on_line_by_sampling(p, line, samples: int) -> bool:
    """Zero iff p(base + t dir) = 0 at `samples` distinct parameters.

    Sound whenever samples > deg of the restriction: a nonzero univariate
    polynomial cannot have that many roots.
    """
    return all(p.evaluate(line.point_at(t)) == 0 for t in range(samples))


def vanishes_on_curve_by_sampling(p, curve, samples: int) -> bool:
    return all(p.evaluate(curve.point_at(t)) == 0 for t in range(samples))


def line_line_intersection_fraction(l1, l2):
    """Common point of two distinct lines by Fraction Cramer's rule, or None."""
    v1, v2 = l1.direction, l2.direction
    rhs = vec_sub(l2.base, l1.base)
    solved = None
    for i in range(l1.dim):
        for j in range(i + 1, l1.dim):
            det = v2[i] * v1[j] - v1[i] * v2[j]
            if det != 0:
                t = (rhs[i] * (-v2[j]) + v2[i] * rhs[j]) / det
                s = (v1[i] * rhs[j] - rhs[i] * v1[j]) / det
                solved = (t, s)
                break
        if solved:
            break
    if solved is None:
        return None  # all 2x2 direction minors vanish: parallel
    t, s = solved
    point = tuple(b + t * v for b, v in zip(l1.base, v1))
    other = tuple(b + s * v for b, v in zip(l2.base, v2))
    return point if point == other else None


def _candidate_points(config):
    lines = config.sorted_lines()
    seen = set()
    for i in range(len(lines)):
        for j in range(i + 1, len(lines)):
            pt = line_line_intersection_fraction(lines[i], lines[j])
            if pt is not None:
                seen.add(pt)
    return sorted(seen)


def _incident_lines(config, point):
    return frozenset(l for l in config.lines if incident(l, point))


def find_joints_rescan(config):
    """Joints from every pair intersection, each point's lines by a rescan."""
    incidence = {}
    for pt in _candidate_points(config):
        through = _incident_lines(config, pt)
        if len(through) >= config.dim and direction_rank(through) == config.dim:
            incidence[pt] = through
    return JointSet(incidence)


def find_s_joints_rescan(config, s):
    incidence = {}
    for pt in _candidate_points(config):
        through = _incident_lines(config, pt)
        if len(through) >= 2 and direction_rank(through) >= s:
            incidence[pt] = through
    return JointSet(incidence)


def prune_recount(config, joints):
    """Remove the first eligible line in canonical order, recounting every
    surviving line's joints in every round, until no line is eligible."""
    threshold = Fraction(len(joints), 2 * config.n)
    alive_lines = config.sorted_lines()
    alive_points = {p: joints.lines_through(p) for p in joints.points}
    removed_lines = []
    removed_points = set()
    while True:
        counts = {line: 0 for line in alive_lines}
        for through in alive_points.values():
            for line in through:
                if line in counts:
                    counts[line] += 1
        victim = next((l for l in alive_lines if counts[l] < threshold), None)
        if victim is None:
            break
        alive_lines.remove(victim)
        removed_lines.append(victim)
        for p in [p for p, through in alive_points.items() if victim in through]:
            removed_points.add(p)
            del alive_points[p]
    return PruneResult(
        surviving=configuration(config.dim, alive_lines),
        survivors=JointSet(dict(alive_points)),
        removed_lines=tuple(removed_lines),
        removed_points=frozenset(removed_points),
        threshold=threshold,
    )
