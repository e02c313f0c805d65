"""Independent oracles used to freeze expected values.

These deliberately avoid the code paths they check: rank and nullspace by
naive Gauss-Jordan over Fractions and by fraction-free Bareiss elimination
over the integers (the package eliminates modulo a prime and checks the
answer exactly), vanishing fits from a Fraction evaluation matrix and the
minimal degree by one rank per degree (the package scales rows to integers
and eliminates once), integer evaluation rows by a product of coordinate
powers per entry (the package extends an earlier monomial by one factor),
monomial counting by stars-and-bars recursion (the package filters a
product and uses math.comb), polynomial values and derivatives in Fraction
arithmetic from each coefficient n/den (the package evaluates and
differentiates the integer numerators), identically-zero decisions on a line
by sampling more Fraction points than the degree with that evaluator (the
package evaluates in integers; its restriction compares coefficients),
curve points, tangents and restrictions by Horner's rule, the power rule
and term-by-term substitution in Fraction arithmetic (the package keeps a
curve's coordinates as integers over one denominator and computes in them),
canonical lines and
incidence in Fraction arithmetic (the package reduces integer forms),
joints by Fraction intersections of every pair followed by a rescan of every
line at each candidate point with a Gauss-Jordan rank of the Fraction
directions (the package meets in integers only the pairs an integer side
product admits, and builds incidence from the hits), and pruning by
recounting every line in every round (the package peels).
"""

from fractions import Fraction
from itertools import zip_longest
from math import gcd, prod

from jointlab.exact import integer_form
from jointlab.geometry import Configuration, JointSet
from jointlab.pipeline import PruneResult
from jointlab.polynomial import Polynomial, monomial_basis

from conftest import line_point


def reduced_row_echelon(matrix):
    """Plain rational Gauss-Jordan: (reduced rows, pivot columns)."""
    rows = [[Fraction(v) for v in row] for row in matrix]
    m, cols = len(rows), len(rows[0]) if rows else 0
    pivots = []
    for col in range(cols):
        r = len(pivots)
        if r == m:
            break
        piv = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = [v / rows[r][col] for v in rows[r]]
        rows[r] = lead
        for i in range(m):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [a - f * b for a, b in zip(rows[i], lead)]
        pivots.append(col)
    return rows, pivots


def rank_naive(matrix) -> int:
    """Rank by plain rational Gauss-Jordan elimination."""
    return len(reduced_row_echelon(matrix)[1])


def nullspace_vector_naive(matrix):
    """The kernel vector with the package's selection rule, from the reduced
    rows: the highest free column is 1, other free columns 0, and each pivot
    variable is minus its row's entry in that column."""
    rows, pivots = reduced_row_echelon(matrix)
    cols = len(rows[0]) if rows else 0
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    x = [Fraction(0)] * cols
    x[free[-1]] = Fraction(1)
    for row, col in zip(rows, pivots):
        x[col] = -row[free[-1]]
    return tuple(x)


def echelon(matrix):
    """Left-looking fraction-free column echelon walk of a rational matrix.

    Each row is scaled to integers.  Columns are walked left to right; a
    column is brought up to date only when the walk reaches it, by
    :func:`_replay` of every pivot step so far.  Its first nonzero entry at
    or below the next pivot row then becomes a pivot, and the step (row
    swap, pivot, the entries below it) is recorded.  The walk stops once
    every row holds a pivot.

    One-step Bareiss: each update divides by the previous pivot, an exact
    integer division because every entry is a minor of the input.

    Returns the integer columns, the pivot columns and the recorded steps.
    Columns the walk did not reach are scaled but not reduced.
    """
    rows = [integer_form([Fraction(v) for v in row])[0] for row in matrix]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    columns = [list(col) for col in zip(*rows)]
    m = len(rows)
    pivot_cols, steps = [], []
    prev = 1
    for j, col in enumerate(columns):
        r = len(pivot_cols)
        if r == m:
            break
        _replay(col, steps)
        sel = next((i for i in range(r, m) if col[i] != 0), None)
        if sel is None:
            continue
        col[r], col[sel] = col[sel], col[r]
        piv = col[r]
        steps.append((sel, piv, prev, col[r + 1 :]))
        col[r + 1 :] = [0] * (m - r - 1)
        prev = piv
        pivot_cols.append(j)
    return columns, pivot_cols, steps


def _replay(column, steps):
    """Apply the recorded pivot steps to one column, in order and in place:
    step r swaps rows r and sel, then each entry v below row r, beside the
    entry f of the pivot column, becomes (piv * v - f * column[r]) / prev."""
    for r, (sel, piv, prev, below) in enumerate(steps):
        column[r], column[sel] = column[sel], column[r]
        top = column[r]
        column[r + 1 :] = [
            (piv * v - f * top) // prev for v, f in zip(column[r + 1 :], below)
        ]


def rank_bareiss(matrix) -> int:
    return len(echelon(matrix)[1])


def nullspace_vector_bareiss(matrix):
    """The selection rule's kernel vector by back-substitution on the
    Bareiss columns; the selected column is reduced if the walk stopped
    before it."""
    columns, pivot_cols, steps = echelon(matrix)
    free = set(range(len(columns))).difference(pivot_cols)
    if not free:
        return None
    sel = max(free)
    if len(pivot_cols) == len(columns[sel]) and sel > pivot_cols[-1]:
        _replay(columns[sel], steps)
    x = [Fraction(0)] * len(columns)
    x[sel] = Fraction(1)
    for r, col in reversed(list(enumerate(pivot_cols))):
        acc = sum(
            (columns[j][r] * x[j] for j in range(col + 1, len(columns)) if x[j]),
            start=Fraction(0),
        )
        x[col] = -acc / columns[col][r]
    return tuple(x)


def evaluation_matrix_fraction(points, basis):
    """Rows of Fraction monomial values, one row per point."""
    rows = []
    for pt in points:
        row = []
        for exps in basis:
            value = Fraction(1)
            for x, e in zip(pt, exps):
                value *= Fraction(x) ** e
            row.append(value)
        rows.append(row)
    return rows


def evaluation_matrix_by_powers(points, basis):
    """The package's integer evaluation rows, each entry a product over the
    coordinate powers: a^e q^(b - |e|) for the point a/q, b the top degree
    (the package builds each a^e from an earlier basis monomial)."""
    b = sum(basis[-1])
    rows = []
    for pt in points:
        nums, q = integer_form(pt)
        pows = [[a**k for k in range(b + 1)] for a in nums]
        q_pows = [q**k for k in range(b + 1)]
        rows.append(
            [
                prod(pw[e] for pw, e in zip(pows, exps)) * q_pows[b - sum(exps)]
                for exps in basis
            ]
        )
    return rows


def _sorted_distinct(points):
    return sorted({tuple(Fraction(x) for x in pt) for pt in points})


def fit_at_degree_naive(points, d, b):
    """The package's fit at degree b, from a Fraction matrix and
    Gauss-Jordan; None when no nonzero polynomial of degree <= b vanishes."""
    pts = _sorted_distinct(points)
    basis = monomial_basis(d, b)
    if not pts:
        return Polynomial(d, {basis[0]: 1})
    x = nullspace_vector_naive(evaluation_matrix_fraction(pts, basis))
    return None if x is None else Polynomial(d, dict(zip(basis, x)))


def fit_naive(points, d):
    b = min_fit_degree_enum(len(_sorted_distinct(points)), d)
    return fit_at_degree_naive(points, d, b)


def minimal_degree_naive(points, d):
    """Smallest b whose evaluation matrix has a column outside the rank,
    trying b = 0, 1, 2, ... with a fresh matrix each time."""
    pts = _sorted_distinct(points)
    if not pts:
        return 0
    b = 0
    while True:
        basis = monomial_basis(d, b)
        if rank_naive(evaluation_matrix_fraction(pts, basis)) < len(basis):
            return b
        b += 1


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


def rational_terms(p) -> dict:
    """The polynomial's coefficients as Fractions: each numerator over the
    common denominator."""
    return {exps: Fraction(n, p.den) for exps, n in p.terms.items()}


def evaluate_fraction(p, point) -> Fraction:
    """p at a point given as a sequence of ints or Fractions, summed term by
    term in Fraction arithmetic."""
    return sum(
        (c * prod(Fraction(x) ** e for x, e in zip(point, exps))
         for exps, c in rational_terms(p).items()),
        Fraction(0),
    )


def partial_derivative_fraction(p, axis: int) -> dict:
    """The Fraction coefficients of the derivative along axis, term by term
    by the power rule, merging terms that land on one exponent."""
    out = {}
    for exps, c in rational_terms(p).items():
        if exps[axis]:
            lowered = tuple(e - (i == axis) for i, e in enumerate(exps))
            out[lowered] = out.get(lowered, 0) + c * exps[axis]
    return {exps: c for exps, c in out.items() if c}


def vanishes_on_line_by_sampling(p, line, samples: int) -> bool:
    """Zero iff p(base + t dir) = 0 at `samples` distinct parameters.

    Sound whenever samples > deg of the restriction: a nonzero univariate
    polynomial cannot have that many roots.
    """
    return all(evaluate_fraction(p, line_point(line, t)) == 0 for t in range(samples))


def vanishes_on_curve_by_sampling(p, curve, samples: int) -> bool:
    return all(evaluate_fraction(p, curve.point_at(t)) == 0 for t in range(samples))


def uni_eval_fraction(coeffs, t) -> Fraction:
    """The univariate polynomial with these coefficients, in ascending
    powers, at t, by Horner's rule in Fraction arithmetic."""
    value = Fraction(0)
    for c in reversed(coeffs):
        value = value * t + c
    return value


def uni_derivative_fraction(coeffs) -> list:
    """The derivative's coefficients by the power rule."""
    return [k * Fraction(c) for k, c in enumerate(coeffs)][1:]


def substitute_fraction(p, coords) -> tuple:
    """p(c_1(t), ..., c_d(t)) for coefficient lists c_i of ints or
    Fractions, term by term in Fraction arithmetic: each term's coefficient
    times each coordinate multiplied in e_i times, trailing zeros trimmed."""
    total = []
    for exps, c in rational_terms(p).items():
        term = [c]
        for coord, e in zip(coords, exps):
            for _ in range(e):
                product = [Fraction(0)] * (len(term) + len(coord) - 1)
                for i, a in enumerate(term):
                    for j, b in enumerate(coord):
                        product[i + j] += a * b
                term = product
        total = [a + b for a, b in zip_longest(total, term, fillvalue=0)]
    while total and total[-1] == 0:
        total.pop()
    return tuple(total)


def vector(values):
    """The entries as Fractions, in which these references compute."""
    return tuple(Fraction(v) for v in values)


def vec_sub(u, v):
    return tuple(a - b for a, b in zip(u, v))


def canonical_line_fraction(base, direction):
    """The canonical form of Line(base, direction) in Fraction arithmetic:
    (base, direction).  The direction is scaled to a primitive integer
    vector with positive first nonzero entry, and the base, a tuple of
    Fractions, is moved along it to the foot of the perpendicular from the
    origin (the package computes that foot over one integer denominator)."""
    base, direction = vector(base), vector(direction)
    nums, _ = integer_form(direction)
    g = gcd(*nums)
    ints = [c // g for c in nums]
    if next(c for c in ints if c) < 0:
        ints = [-c for c in ints]
    ints = tuple(ints)
    shift = sum(b * v for b, v in zip(base, ints)) / sum(v * v for v in ints)
    return vec_sub(base, tuple(shift * v for v in ints)), ints


def incident_fraction(line, point):
    """point - base is t * direction for the t one nonzero axis gives
    (the package cross-multiplies integer forms)."""
    delta = vec_sub(vector(point), line.base)
    axis = next(i for i, c in enumerate(line.direction) if c != 0)
    t = delta[axis] / line.direction[axis]
    return all(delta[i] == t * line.direction[i] for i in range(line.dim))


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


def _rank_of_directions(lines):
    return rank_naive([line.direction for line in lines])


def _incident_lines(config, point):
    return frozenset(l for l in config.lines if incident_fraction(l, point))


def fraction_joints(joints):
    """A JointSet converted at the edge, in the form of the rescans below:
    (point as a tuple of Fractions, its lines) in the set's point order."""
    return [(tuple(p), joints.lines_through(p)) for p in joints.points]


def find_joints_rescan(config):
    """Joints from every pair intersection, each point's lines by a rescan:
    (Fraction point, lines) pairs in sorted point order."""
    joints = []
    for pt in _candidate_points(config):
        through = _incident_lines(config, pt)
        if len(through) >= config.dim and _rank_of_directions(through) == config.dim:
            joints.append((pt, through))
    return joints


def find_s_joints_rescan(config, s):
    joints = []
    for pt in _candidate_points(config):
        through = _incident_lines(config, pt)
        if len(through) >= 2 and _rank_of_directions(through) >= s:
            joints.append((pt, through))
    return joints


def prune_recount(config, joints):
    """Remove the first eligible line in canonical order, recounting every
    surviving line's joints in every round, until no line is eligible.  The
    counts are those of the last round's recount."""
    threshold = Fraction(len(joints), 2 * config.n)
    alive_lines = list(config.sorted_lines())
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
        surviving=Configuration(config.dim, alive_lines),
        survivors=JointSet(dict(alive_points)),
        removed_lines=tuple(removed_lines),
        removed_points=frozenset(removed_points),
        threshold=threshold,
        counts=counts,
    )
