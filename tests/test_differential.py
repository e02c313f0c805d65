"""The integer pair kernel, the peeling prune and the integer fits against
their references.

Random lines almost never meet, so the strategies force concurrency:
pencils through shared points with non-integer coordinates, parallel
classes, near-parallel directions, the closed-form hyperplane family, and
spines carrying chains of tripods, which make pruning cascade.  In d >= 4
some lines have directions zero on the first three axes, where the pair
search's side filter projects.  On every instance, pruning the lines as
degree-1 curves must agree with line pruning.

The kernel vector under the selection rule does not depend on how the
system is eliminated, so the rank, the kernel vector and the fits must equal
the Gauss-Jordan reference exactly.  Matrix shapes are drawn to reach every
path of the left-looking walk: wide with a pivot in every row (the walk
stops early), rows that fill only at the last column, rank-deficient wide
and tall, mostly zero (some holding monomials at points with zero
coordinates, so that pivots need row swaps and steps record few rows), zero
rows and columns, and int and Fraction entries.  The
references take the rows as drawn; the kernel takes them scaled to
integers and returns the integer form of the reference's vector.
The kernel and fit tests run again with the primes 3, 5, 7, ..., which are
often unlucky and too small to hold an answer, so the modular kernel drops
unlucky primes and lifts its vectors p-adically all the time.  Blocks whose
determinant 3 divides, beside columns of 40-70-bit integers, make the
prime 3 unlucky and every answer a lift of many steps.
Point sets mix shared and coprime denominators, negative coordinates and
repeated points, and some lie on a plane, which lowers the minimal degree
below the fit bound.  Structured point sets (boxes, their images under
rational affine maps, points on a few lines or planes, subsets of a grid)
make the fit's walk skip the monomial multiples of its free columns, the
selected column among them, and points with 30-300-digit coordinates make
it lift for hundreds of steps.  The integer evaluation rows under the fits must equal
the per-entry products of coordinate powers.

Vanishing on a line is decided by integer evaluation at deg p + 1
parameters; it must agree with the full restriction and with Fraction
sampling.

Curve points, tangents and restrictions are computed in integers; they must
equal Horner's rule, the power rule and term-by-term substitution on the
coefficients as drawn, in Fraction arithmetic.  Coordinates include zero
polynomials and trailing zeros, parameters are rational, and polynomials
include zero and constants.  A line as a degree-1 curve passes through its
own points with its direction as tangent.  Lines have non-integer bases and directions off the axes, and
vanishing is forced by multiplying with powers of a linear form that is
zero on the line, whose partial derivatives below that power vanish too.
"""

from fractions import Fraction
from itertools import combinations, permutations, product
from math import lcm, prod
from operator import mul

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from jointlab import kernel
from jointlab.curves import (
    CurveConfiguration,
    ParamCurve,
    curve_joint_set,
    curve_prune,
    line_as_curve,
    restrict_to_curve,
    tangent_at,
)
from jointlab.constructions import grid
from jointlab.exact import Point, integer_form, nullspace_vector, rank, sort_points
from jointlab.geometry import (
    Configuration,
    Line,
    find_joints,
    find_s_joints,
    incident,
)
from jointlab.pipeline import cascade, prune
from jointlab.polynomial import (
    Polynomial,
    _evaluation_matrix,
    fit_vanishing,
    grlex_key,
    min_fit_degree,
    minimal_fit,
    monomial_basis,
    restrict_to_line,
    vanishes_on_line,
)

from conftest import (
    curve_joint_groups,
    fit_vanishing_at_degree,
    grid_with_tripods,
    integer_rows,
    line_point,
    logged_lifts,
    poly_product,
    prime_source,
    small_primes,
)
from oracles import (
    canonical_line_fraction,
    evaluation_matrix_by_powers,
    evaluation_matrix_fraction,
    find_joints_rescan,
    find_s_joints_rescan,
    fraction_joints,
    fit_at_degree_naive,
    fit_naive,
    incident_fraction,
    minimal_degree_naive,
    nullspace_vector_bareiss,
    nullspace_vector_naive,
    prune_recount,
    rank_bareiss,
    rank_naive,
    substitute_fraction,
    uni_derivative_fraction,
    uni_eval_fraction,
    vanishes_on_line_by_sampling,
)

offsets = st.integers(min_value=-3, max_value=3)
fractional = st.fractions(min_value=-5, max_value=5, max_denominator=7).filter(
    lambda f: f.denominator > 1
)


def directions(dim):
    return st.tuples(*[offsets] * dim).filter(any)


@st.composite
def centers(draw, dim):
    """A point with at least one non-integer rational coordinate."""
    point = [Fraction(draw(offsets)) for _ in range(dim)]
    point[draw(st.integers(0, dim - 1))] = draw(fractional)
    return tuple(point)


@st.composite
def pencils(draw, dim):
    center = draw(centers(dim))
    dirs = draw(st.lists(directions(dim), min_size=2, max_size=5))
    return [Line(center, v) for v in dirs]


@st.composite
def parallel_classes(draw, dim):
    v = draw(directions(dim))
    origin = draw(centers(dim))
    shifts = draw(st.lists(st.tuples(*[offsets] * dim), min_size=2, max_size=4))
    return [Line(tuple(o + s for o, s in zip(origin, shift)), v) for shift in shifts]


@st.composite
def near_parallel(draw, dim):
    """Directions like (1000,1,0) and (1000,1,1) through one or two centers."""
    tails = st.tuples(*[st.integers(0, 2)] * (dim - 1))
    dirs = draw(st.lists(tails, min_size=2, max_size=4, unique=True))
    points = draw(st.lists(centers(dim), min_size=1, max_size=2))
    return [
        Line(points[k % len(points)], (1000,) + tail) for k, tail in enumerate(dirs)
    ]


def hyperplane_lines(ts):
    """Lines of the hyperplanes x.(1,t,t^2) = t^3: line(a,b) is their meet."""
    return [
        Line((0, -a * b, a + b), (a * b, -(a + b), 1)) for a, b in combinations(ts, 2)
    ]


hyperplane_params = st.lists(
    st.fractions(min_value=-4, max_value=4, max_denominator=3),
    min_size=3,
    max_size=6,
    unique=True,
)


@st.composite
def off_axes(draw, dim):
    """Lines in d >= 4 through one or two centers, most with directions zero
    on the first three axes, so that their projections there are points,
    and one line in a general direction through the first center."""
    tails = st.tuples(*[offsets] * (dim - 3)).filter(any)
    points = draw(st.lists(centers(dim), min_size=1, max_size=2))
    dirs = draw(st.lists(tails, min_size=1, max_size=4))
    lines = [
        Line(points[k % len(points)], (0, 0, 0) + tail) for k, tail in enumerate(dirs)
    ]
    return lines + [Line(points[0], draw(directions(dim)))]


def mixed_configs(dim):
    parts = [pencils(dim), parallel_classes(dim), near_parallel(dim)]
    if dim >= 4:
        parts.append(off_axes(dim))
    return st.lists(st.one_of(*parts), min_size=1, max_size=4).map(
        lambda parts: Configuration(dim, [line for p in parts for line in p])
    )


@st.composite
def tripod_chains(draw):
    """Ten hyperplanes plus spines carrying tripods, with m/(2n) above 1.

    Each tripod's two branch lines carry one joint, so they fall first; a
    spine with two tripods then drops below the threshold and falls too,
    which is a cascade whose order the reference fixes.
    """
    lines = hyperplane_lines([Fraction(t) for t in range(1, 11)])
    for _ in range(draw(st.integers(1, 2))):
        spine = Line(draw(centers(3)), draw(directions(3)))
        lines.append(spine)
        params = draw(st.lists(st.integers(20, 40), min_size=2, max_size=3, unique=True))
        for t in params:
            foot = line_point(spine, t)
            lines.extend(Line(foot, draw(directions(3))) for _ in range(2))
    return Configuration(3, lines)


def assert_prune_matches(config, joints):
    """prune equals the recounting oracle, its survivors' counts included
    and in the oracle's order, the order trace prints them in.  Lines are
    degree-1 curves: curve_prune removes and keeps what prune does.

    The curves' removal order is not compared, since lines and curves sort
    differently.
    """
    lines = prune(config, joints)
    reference = prune_recount(config, joints)
    assert lines == reference
    assert list(lines.counts.items()) == list(reference.counts.items())
    curves = curve_prune(
        CurveConfiguration(config.dim, tuple(map(line_as_curve, config.lines))),
        curve_joint_set(curve_joint_groups(joints).values()),
    )
    assert set(curves.removed_curves) == set(map(line_as_curve, lines.removed_lines))
    assert curves.removed_points == lines.removed_points
    assert curves.survivors.incidence == {
        p: frozenset(map(line_as_curve, through))
        for p, through in lines.survivors.incidence.items()
    }


def assert_matches_reference(config):
    for s in range(2, config.dim + 1):
        assert fraction_joints(find_s_joints(config, s)) == find_s_joints_rescan(
            config, s
        ), s
    joints = find_joints(config)
    assert fraction_joints(joints) == find_joints_rescan(config)
    if config.n:
        assert_prune_matches(config, joints)


class TestAgainstReference:
    @given(mixed_configs(3))
    @settings(max_examples=80, deadline=None)
    def test_mixed_3d(self, config):
        assert_matches_reference(config)

    @given(mixed_configs(4))
    @settings(max_examples=40, deadline=None)
    def test_mixed_4d(self, config):
        assert_matches_reference(config)

    @given(hyperplane_params, st.lists(pencils(3), max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_hyperplane_family(self, ts, extra):
        config = Configuration(3, hyperplane_lines(ts) + [l for p in extra for l in p])
        if not extra:
            assert len(find_joints(config)) == len(list(combinations(ts, 3)))
        assert_matches_reference(config)

    @given(tripod_chains())
    @settings(max_examples=25, deadline=None)
    def test_prune_cascades(self, config):
        assert_prune_matches(config, find_joints(config))

    def test_corpus(self, corpus):
        for name, config in corpus:
            joints = find_joints(config)
            assert fraction_joints(joints) == find_joints_rescan(config), name
            assert_prune_matches(config, joints)

    def test_survivors_lose_the_removed_lines_joints(self):
        # One more line through the origin of grid(3,7) and no other grid
        # point: threshold 343/296 > 1, so it goes, the origin goes with it,
        # and the three axes keep 6 of their 7 joints.
        spoke = Line((0, 0, 0), (2, 3, 7))
        config = Configuration(3, grid(3, 7).lines | {spoke})
        joints = find_joints(config)
        result = prune(config, joints)
        assert result.removed_lines == (spoke,)
        assert result.removed_points == {Point.of((0, 0, 0))}
        assert sorted(result.counts.values()) == [6] * 3 + [7] * 144
        assert_prune_matches(config, joints)

    def test_lines_as_curves_cascade(self):
        config = grid_with_tripods()
        joints = find_joints(config)
        assert len(prune(config, joints).removed_lines) == 5
        assert_prune_matches(config, joints)


def rationals_in(dim, nonzero=False):
    coord = st.fractions(min_value=-9, max_value=9, max_denominator=12)
    vec = st.tuples(*[coord] * dim)
    return vec.filter(any) if nonzero else vec


@st.composite
def line_inputs(draw):
    """(base, direction) in d = 2..5, some directions zero on several axes."""
    dim = draw(st.integers(2, 5))
    base = draw(rationals_in(dim))
    direction = list(draw(rationals_in(dim, nonzero=True)))
    for axis in draw(st.lists(st.integers(0, dim - 1), max_size=dim - 1)):
        direction[axis] = Fraction(0)
    assume(any(direction))
    return base, tuple(direction)


class TestPairFilterAgainstReference:
    """The side filter may only skip pairs that miss: the s-joints equal
    the Fraction rescan's over every pair.  Lines are canonicalized and
    tested for incidence in integers: every field and verdict equals the
    Fraction reference's."""

    @pytest.mark.parametrize("dim", [2, 3, 4, 5])
    @given(data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_s_joints_in_each_dimension(self, dim, data):
        """Points in order and each point's lines, converted to Fractions
        at the edge, equal the rescan's for every s."""
        config = data.draw(mixed_configs(dim))
        for s in range(2, dim + 1):
            found = fraction_joints(find_s_joints(config, s))
            assert found == find_s_joints_rescan(config, s), s

    @given(line_inputs())
    @settings(max_examples=200, deadline=None)
    def test_line_fields_equal_the_fraction_canonical_form(self, drawn):
        base, direction = drawn
        line = Line(base, direction)
        ref_base, ref_direction = canonical_line_fraction(base, direction)
        assert line.base == Point.of(ref_base)
        assert line.direction == ref_direction
        assert all(type(c) is int for c in line.direction)
        assert hash(line) == hash((ref_direction, Point.of(ref_base)))

    @given(line_inputs(), st.fractions(max_denominator=12), rationals_in(5))
    @settings(max_examples=200, deadline=None)
    def test_incidence_equals_the_fraction_reference(self, drawn, t, shift):
        line = Line(*drawn)
        on = line_point(line, t)
        near = tuple(a + b for a, b in zip(on, shift))
        for point in (on, near):
            assert incident(line, Point.of(point)) == incident_fraction(line, point)
        assert incident(line, Point.of(on))


DENOMINATORS = ((1,), (2,), (6,), (2, 3), (5, 7), (1, 4, 9))


@st.composite
def point_sets(draw):
    """(d, points): rational points in d = 3 or 4, with repeats, and on a
    plane through rational coefficients when ``planar`` is drawn."""
    d = draw(st.sampled_from((3, 4)))
    dens = draw(st.sampled_from(DENOMINATORS))
    coord = st.builds(Fraction, st.integers(-4, 4), st.sampled_from(dens))
    points = draw(st.lists(st.tuples(*[coord] * d), max_size=12))
    if points and draw(st.booleans()):
        c = draw(st.tuples(coord, coord, coord))
        points = [p[:-1] + (c[0] + c[1] * p[0] + c[2] * p[1],) for p in points]
    repeats = draw(st.lists(st.sampled_from(points), max_size=3)) if points else []
    return d, points + repeats


def assert_fits_match(d, points):
    """The package fits the points as Points; the references take them as
    Fraction tuples."""
    pts = [Point.of(p) for p in points]
    distinct = len(set(points))
    if distinct:
        assert fit_vanishing(pts, d) == fit_naive(points, d)
    for b in range(min_fit_degree(distinct, d) + 2):
        assert fit_vanishing_at_degree(pts, d, b) == fit_at_degree_naive(
            points, d, b
        ), b
    b_star = minimal_degree_naive(points, d)
    assert minimal_fit(pts, d) == fit_at_degree_naive(points, d, b_star)


class TestFitsAgainstReference:
    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_fits_and_minimal_degree(self, drawn):
        assert_fits_match(*drawn)

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_evaluation_rows_equal_power_products(self, drawn):
        d, points = drawn
        pts = sorted(set(points))
        for b in range(5):
            basis = monomial_basis(d, b)
            rows = _evaluation_matrix([Point.of(p) for p in pts], basis)
            assert rows == evaluation_matrix_by_powers(pts, basis), b

    def test_evaluation_rows_on_the_families(self):
        families = {
            "grid(3,5)": grid(3, 5),
            "grid(4,3)": grid(4, 3),
            "hyperplanes": Configuration(
                3, hyperplane_lines([Fraction(t, 2) for t in (-7, -3, -1, 1, 2, 5, 9)])
            ),
        }
        for name, config in families.items():
            pts = prune(config, find_joints(config)).survivors.points
            basis = monomial_basis(config.dim, min_fit_degree(len(pts), config.dim))
            rows = _evaluation_matrix(pts, basis)
            assert len(rows) == len(pts) > 30, name
            fractions = [tuple(p) for p in pts]
            assert rows == evaluation_matrix_by_powers(fractions, basis), name

    @given(point_sets())
    @settings(max_examples=60, deadline=None)
    def test_fits_with_small_primes(self, drawn):
        with prime_source(small_primes):
            assert_fits_match(*drawn)


@st.composite
def slanted_lines(draw, dim):
    """A line with a non-integer base and at least two nonzero direction
    entries."""
    v = draw(directions(dim).filter(lambda v: sum(c != 0 for c in v) >= 2))
    line = Line(draw(centers(dim)), v)
    assume(any(c.denominator > 1 for c in line.base))
    return line


@st.composite
def polynomials(draw, dim, max_degree):
    """Sparse polynomials with rational coefficients: zero, constants and up
    to six terms of degree <= max_degree."""
    basis = monomial_basis(dim, draw(st.integers(0, max_degree)))
    terms = draw(st.dictionaries(st.sampled_from(basis), fractional | offsets, max_size=6))
    return Polynomial(dim, terms)


@st.composite
def polys_on_lines(draw):
    dim = draw(st.sampled_from((3, 4)))
    return draw(polynomials(dim, 4)), draw(slanted_lines(dim))


@st.composite
def polys_on_fixed_axes(draw):
    """A line whose direction v is zero on one or more axes, and a
    polynomial with terms on those fixed axes too: g times factors
    x_i - (c_i + k * v_i) for k = 0, 1, ..., j - 1, c the base point.  A
    factor is zero at t = k, and on the whole line when axis i is fixed.
    Half the time g keeps only its terms on the fixed axes, so it is
    constant along the line and p's restriction has degree j, with zeros at
    t = 0, ..., j - 1: the vanishing test must reach t = j."""
    dim = draw(st.sampled_from((3, 4)))
    fixed = draw(st.sets(st.integers(0, dim - 1), min_size=1, max_size=dim - 1))
    v = [0 if i in fixed else draw(offsets.filter(bool)) for i in range(dim)]
    line = Line(draw(centers(dim)), v)
    g = draw(polynomials(dim, 3))
    if draw(st.booleans()):
        on_fixed = {
            e: n for e, n in g.terms.items() if all(e[i] == 0 or i in fixed for i in range(dim))
        }
        g = Polynomial(dim, on_fixed or {(0,) * dim: 1}, g.den)
    factors = [g]
    for k in range(draw(st.integers(0, 3))):
        i = draw(st.integers(0, dim - 1))
        unit = tuple(int(j == i) for j in range(dim))
        c = Fraction(line.base.nums[i], line.base.den) + k * line.direction[i]
        factors.append(Polynomial(dim, {unit: 1, (0,) * dim: -c}))
    return poly_product(dim, factors), line


def zero_form(line, u):
    """w.(x - base) with w the part of u orthogonal to the line's direction:
    a linear form that is zero on the line, or None when u is parallel."""
    v = line.direction
    vv = sum(c * c for c in v)
    uv = sum(a * c for a, c in zip(u, v))
    w = [vv * a - uv * c for a, c in zip(u, v)]
    if not any(w):
        return None
    unit = [tuple(int(i == j) for j in range(line.dim)) for i in range(line.dim)]
    terms = dict(zip(unit, w))
    terms[(0,) * line.dim] = -sum(a * b for a, b in zip(w, line.base))
    return Polynomial(line.dim, terms)


def assert_vanishing_matches(p, line):
    got = vanishes_on_line(p, line)
    assert got == (restrict_to_line(p, line) == ())
    assert got == vanishes_on_line_by_sampling(p, line, max(p.degree(), 0) + 1)
    return got


def partials(p, order):
    """Every partial derivative of p of the given order."""
    current = [p]
    for _ in range(order):
        current = [q.partial_derivative(i) for q in current for i in range(p.dim)]
    return current


class TestVanishingAgainstReference:
    @given(polys_on_lines())
    @settings(max_examples=150, deadline=None)
    def test_drawn_polynomials(self, drawn):
        assert_vanishing_matches(*drawn)

    @given(polys_on_lines(), st.data())
    @settings(max_examples=40, deadline=None)
    def test_forced_by_a_linear_form_and_its_derivatives(self, drawn, data):
        g, line = drawn
        u = data.draw(st.tuples(*[offsets] * line.dim))
        form = zero_form(line, u)
        assume(form is not None and not g.is_zero())
        k = data.draw(st.integers(1, 3))
        p = poly_product(line.dim, [g] + [form] * k)
        # every partial of order < k keeps a factor of the form
        for order in range(k + 1):
            for q in partials(p, order):
                assert assert_vanishing_matches(q, line) or order == k
        assert cascade(p, [line]) >= k - 1

    @given(polys_on_fixed_axes())
    @settings(max_examples=60, deadline=None)
    def test_directions_with_zero_coordinates(self, drawn):
        # vanishes_on_line tests fewer than deg p + 1 parameters here
        assert_vanishing_matches(*drawn)

    def test_zero_and_constants(self):
        line = Line((Fraction(1, 2), 0, Fraction(-5, 3)), (2, -1, 3))
        assert assert_vanishing_matches(Polynomial(3, {}), line)
        for c in (1, -2, Fraction(3, 7)):
            assert not assert_vanishing_matches(Polynomial(3, {(0, 0, 0): c}), line)


parameters = offsets | st.fractions(min_value=-4, max_value=4, max_denominator=9)


@st.composite
def curves_and_polys(draw):
    """Coordinate coefficient lists as drawn, in d = 2..4: some are zero
    polynomials, some end in zeros, and one is nonconstant, and half the
    time the curve is singular at t = 0; and a polynomial of degree <= 3 in
    d variables, possibly zero or constant."""
    dim = draw(st.integers(2, 4))
    coefficient = fractional | offsets
    coords = []
    for _ in range(dim):
        coord = draw(st.lists(coefficient, max_size=4))
        if draw(st.booleans()):
            coord += [0] * draw(st.integers(1, 2))
        coords.append(coord)
    if draw(st.booleans()):
        coords = [coord[:1] + [0] + coord[2:] for coord in coords]
    assume(any(any(coord[1:]) for coord in coords))
    return coords, draw(polynomials(dim, 3))


class TestCurvesAgainstReference:
    @given(curves_and_polys(), parameters)
    @settings(max_examples=100, deadline=None)
    def test_points_tangents_and_restrictions(self, drawn, t):
        coords, p = drawn
        curve = ParamCurve(coords)
        for s in (t, 0):
            point = [uni_eval_fraction(c, s) for c in coords]
            assert curve.point_at(s) == Point.of(point)
            velocity = [uni_eval_fraction(uni_derivative_fraction(c), s) for c in coords]
            assert tangent_at(curve, s) == (Point.of(velocity) if any(velocity) else None)
        assert restrict_to_curve(p, curve) == substitute_fraction(p, coords)

    @given(line_inputs(), parameters)
    @settings(max_examples=60, deadline=None)
    def test_lines_are_degree_one_curves(self, drawn, t):
        line = Line(*drawn)
        curve = line_as_curve(line)
        assert curve.degree == 1
        assert incident(line, curve.point_at(t))
        assert tangent_at(curve, t) == Point(line.direction, 1)


entries = st.builds(Fraction, st.integers(-3, 3), st.sampled_from((1, 1, 2, 3)))


def matrices(m, c):
    return st.lists(st.lists(entries, min_size=c, max_size=c), min_size=m, max_size=m)


def times(left, right, c):
    """The product of an m x k and a k x c matrix; k may be 0."""
    return [
        [sum((a * r[j] for a, r in zip(row, right)), Fraction(0)) for j in range(c)]
        for row in left
    ]


def written(draw, rows):
    """The rows as ints (each row scaled by its common denominator),
    Fractions, or Fractions with some integral entries written as ints."""
    style = draw(st.sampled_from(("int", "fraction", "mixed")))
    if style == "int":
        dens = [lcm(*(v.denominator for v in row)) for row in rows]
        return [[int(v * den) for v in row] for row, den in zip(rows, dens)]
    out = []
    for row in rows:
        cells = []
        for v in row:
            whole = (int,) if style == "mixed" and v.denominator == 1 else ()
            cells.append(draw(st.sampled_from((Fraction,) + whole))(v))
        out.append(cells)
    return out


@st.composite
def monomial_blocks(draw):
    """Graded-lex monomials of degree <= 3 evaluated at a few integer points
    with many zero coordinates: many entries and multipliers are 0, and
    pivots need row swaps."""
    d = draw(st.integers(2, 3))
    basis = monomial_basis(d, 3)[: draw(st.integers(1, 8))]
    coords = st.sampled_from((0, 0, 0, 1, 2, -1))
    points = draw(st.lists(st.tuples(*[coords] * d), min_size=1, max_size=5))
    return [
        [Fraction(prod(x**e for x, e in zip(pt, exps))) for exps in basis]
        for pt in points
    ]


@st.composite
def sparse_matrices(draw):
    """Up to 10 x 14 with at least 70% zero entries: a monomial block, if
    drawn, at a drawn corner, and scattered nonzero entries."""
    block = draw(st.one_of(st.just([]), monomial_blocks()))
    width = len(block[0]) if block else 1
    m = draw(st.integers(max(len(block), 1), 10))
    c = draw(st.integers(width, 14))
    rows = [[Fraction(0)] * c for _ in range(m)]
    i0, j0 = draw(st.integers(0, m - len(block))), draw(st.integers(0, c - width))
    for i, row in enumerate(block):
        rows[i0 + i][j0 : j0 + width] = row
    cell = st.tuples(st.integers(0, m - 1), st.integers(0, c - 1), entries)
    for i, j, v in draw(st.lists(cell, max_size=3 * m * c // 10)):
        rows[i][j] = v
    assume(10 * sum(v == 0 for row in rows for v in row) >= 7 * m * c)
    return rows


@st.composite
def kernel_cases(draw, shapes=("wide", "last", "deficient", "sparse", "huge", "any")):
    """A matrix whose shape drives one path of the walk, with zero rows and
    zero columns inserted and its entries written in a drawn form."""
    shape = draw(st.sampled_from(shapes))
    m = draw(st.integers(1, 5))
    if shape == "wide":  # a pivot in every row before the last column
        c = draw(st.integers(m + 1, m + 4))
        rows = draw(matrices(m, c))
        assume(rank_naive(rows) == m)
    elif shape == "last":  # the last column completes the row rank
        c = draw(st.integers(m, m + 3))
        rows = times(draw(matrices(m, m - 1)), draw(matrices(m - 1, c - 1)), c - 1)
        rows = [row + [draw(entries)] for row in rows]
        assume(rank_naive(rows) == m)
    elif shape == "deficient":  # rank below both m and c, wide or tall
        c = draw(st.integers(1, 7))
        k = draw(st.integers(0, min(m, c) - 1))
        rows = times(draw(matrices(m, k)), draw(matrices(k, c)), c)
    elif shape == "sparse":
        rows = draw(sparse_matrices())
    elif shape == "huge":  # entries past 2^64 either way: reduced mod p before packing
        big = st.one_of(st.integers(2**64, 2**70), st.integers(-(2**70), -(2**64)))
        cell = st.one_of(entries, st.builds(Fraction, big))
        c = draw(st.integers(1, 7))
        rows = draw(st.lists(st.lists(cell, min_size=c, max_size=c), min_size=m, max_size=m))
    else:
        rows = draw(matrices(m, draw(st.integers(1, 7))))
    zeros = st.sampled_from((0, 0, 0, 1, 2))
    for _ in range(draw(zeros)):
        at = draw(st.integers(0, len(rows)))
        rows.insert(at, [Fraction(0)] * len(rows[0]))
    for _ in range(draw(zeros)):
        at = draw(st.integers(0, len(rows[0])))
        for row in rows:
            row.insert(at, Fraction(0))
    return written(draw, rows)


def determinant(a):
    """Leibniz's expansion, for the small blocks drawn here."""
    total = 0
    for perm in permutations(range(len(a))):
        inversions = sum(perm[i] > perm[j] for i, j in combinations(range(len(a)), 2))
        total += (-1) ** inversions * prod(row[j] for row, j in zip(a, perm))
    return total


@st.composite
def lifting_cases(draw):
    """[A | U]: A an integer m x m block, invertible over Q but not mod 3,
    and U one or two columns of integers of 40 to 70 bits.  Mod 3 a column
    of A is free but independent of the earlier ones over Q, so 3 is
    unlucky.  The selected vector -A^-1 u has numerators of at least 35 bits,
    so the next lucky small prime lifts it for many steps."""
    m = draw(st.integers(2, 4))
    block = draw(st.lists(st.lists(st.integers(-6, 6), min_size=m, max_size=m), min_size=m, max_size=m))
    det = determinant(block)
    assume(det != 0 and det % 3 == 0)
    wide = st.one_of(st.integers(2**40, 2**70), st.integers(-(2**70), -(2**40)))
    u = draw(st.lists(st.lists(wide, min_size=m, max_size=m), min_size=1, max_size=2))
    return [row + [col[i] for col in u] for i, row in enumerate(block)]


@st.composite
def past_one_prime_cases(draw):
    """[A | u]: A an integer m x m block, invertible over Q, and u a column
    of integers of 20 to 40 bits.  The selected vector (-A^-1 u, 1) is out
    of reach of any one prime below 2^30: it is not integral and has a
    numerator or its denominator past 2^15, while one prime reconstructs
    within isqrt(p // 2) < 2^15, or it is integral with a numerator past
    2^29, while an integral vector within p // 2 < 2^29 is its own digit."""
    m = draw(st.integers(1, 4))
    small = st.integers(-40, 40)
    block = draw(st.lists(st.lists(small, min_size=m, max_size=m), min_size=m, max_size=m))
    assume(determinant(block) != 0)
    wide = st.one_of(st.integers(2**20, 2**40), st.integers(-(2**40), -(2**20)))
    u = draw(st.lists(wide, min_size=m, max_size=m))
    matrix = [row + [c] for row, c in zip(block, u)]
    nums, den = integer_form(nullspace_vector_naive(matrix))
    assume(max(den, *map(abs, nums)) > (2**15 if den > 1 else 2**29))
    return matrix


def assert_kernel_matches(matrix):
    """The kernel, on the rows scaled to integers, against the reference on
    the rows as written."""
    rows = integer_rows(matrix)
    assert rank(rows) == rank_naive(matrix)
    reference = nullspace_vector_naive(matrix)
    expected = None if reference is None else integer_form(reference)
    assert nullspace_vector(rows) == expected


def assert_stopped_kernel_matches(matrix, ends, exps=None):
    """The kernel stopped at the column counts ends, on the rows scaled to
    integers and with the columns' monomials exps if given, against the
    reference on the first leading block, of a width in ends or the full
    width, with a nonzero kernel, padded with zeros."""
    n = len(matrix[0])
    for e in sorted({*ends, n}):
        reference = nullspace_vector_naive([row[:e] for row in matrix])
        if reference is not None:
            expected = integer_form(tuple(reference) + (0,) * (n - e))
            break
    else:
        expected = None
    assert nullspace_vector(integer_rows(matrix), ends, exps) == expected


class TestKernelAgainstReference:
    @given(kernel_cases(), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_stopped_walk_selects_within_the_first_block_with_a_free_column(
        self, matrix, data
    ):
        n = len(matrix[0])
        ends = data.draw(st.lists(st.integers(1, n), max_size=4))
        assert_stopped_kernel_matches(matrix, ends)
        with prime_source(small_primes):
            assert_stopped_kernel_matches(matrix, ends)

    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_rank_and_vector_equal_gauss_jordan(self, matrix):
        assert_kernel_matches(matrix)

    @given(kernel_cases())
    @settings(max_examples=300, deadline=None)
    def test_small_primes_give_the_same_answers(self, matrix):
        with prime_source(small_primes):
            assert_kernel_matches(matrix)

    @given(kernel_cases(shapes=("sparse",)))
    @settings(max_examples=300, deadline=None)
    def test_sparse_matrices(self, matrix):
        assert_kernel_matches(matrix)
        with prime_source(small_primes):
            assert_kernel_matches(matrix)

    @given(lifting_cases())
    @settings(max_examples=60, deadline=None)
    def test_unlucky_primes_and_long_lifts(self, matrix):
        drawn, lifts = [], []

        def source():
            for p in small_primes():
                drawn.append(p)
                yield p

        with prime_source(source):
            assert_kernel_matches(matrix)
        drawn.clear()
        with prime_source(source), logged_lifts(lifts):
            nullspace_vector(matrix)
        # 3 is dropped, and the prime that certifies lifts at least twice
        assert drawn[0] == 3 and len(drawn) >= 2
        assert lifts.count(drawn[-1]) >= 2

    @given(past_one_prime_cases())
    @settings(max_examples=100, deadline=None)
    def test_vectors_past_one_prime_lift_on_the_kernels_primes(self, matrix):
        lifts = []
        with logged_lifts(lifts):
            assert_kernel_matches(matrix)
        assert lifts and lifts[0] == next(kernel._primes())

    @given(kernel_cases())
    @settings(max_examples=100, deadline=None)
    def test_modular_bareiss_and_gauss_jordan_agree(self, matrix):
        rows = integer_rows(matrix)
        assert rank(rows) == rank_bareiss(matrix) == rank_naive(matrix)
        x = nullspace_vector_naive(matrix)
        assert x == nullspace_vector_bareiss(matrix)
        assert nullspace_vector(rows) == (None if x is None else integer_form(x))


# ---------------------------------------------------------------------------
# fits whose walk skips columns: the monomial multiples of a free column

small_fractions = st.fractions(min_value=-3, max_value=3, max_denominator=3)


def points_of(draw, d, strategy, size):
    return draw(st.lists(st.tuples(*[strategy] * d), min_size=size, max_size=size))


@st.composite
def structured_point_sets(draw):
    """(d, points): point sets with structure, whose fit matrices have free
    columns before every row holds a pivot, so that the fit's walk skips
    the monomial multiples of its free columns: boxes with rational steps,
    boxes under an invertible rational affine map, points on a few lines or
    on one or two planes, and subsets of a grid."""
    d = draw(st.sampled_from((2, 3)))
    kind = draw(st.sampled_from(("box", "affine box", "lines", "planes", "grid subset")))
    if kind in ("box", "affine box"):
        sizes = draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
        assume(prod(sizes) <= 24)
        [start] = points_of(draw, d, small_fractions, 1)
        [step] = points_of(draw, d, small_fractions.filter(bool), 1)
        points = [
            tuple(a + s * k for a, s, k in zip(start, step, ks))
            for ks in product(*map(range, sizes))
        ]
        if kind == "affine box":
            matrix = points_of(draw, d, small_fractions, d)
            assume(rank_naive(matrix) == d)
            [shift] = points_of(draw, d, small_fractions, 1)
            points = [
                tuple(sum(map(mul, row, x)) + c for row, c in zip(matrix, shift))
                for x in points
            ]
    elif kind == "lines":
        points = []
        for _ in range(draw(st.integers(1, 3))):
            [base, v] = points_of(draw, d, small_fractions, 2)
            assume(any(v))
            for t in draw(st.lists(small_fractions, min_size=1, max_size=5, unique=True)):
                points.append(tuple(b + t * c for b, c in zip(base, v)))
    elif kind == "planes":
        d, points = 3, []
        for _ in range(draw(st.integers(1, 2))):
            [base, u, v] = points_of(draw, 3, small_fractions, 3)
            assume(rank_naive([u, v]) == 2)
            for s, t in product(range(draw(st.integers(1, 3))), range(draw(st.integers(1, 3)))):
                points.append(tuple(b + s * x + t * y for b, x, y in zip(base, u, v)))
    else:
        cells = list(product(range(draw(st.integers(2, 4))), repeat=d))
        points = draw(st.lists(st.sampled_from(cells), min_size=1, max_size=20, unique=True))
    return d, points


def assert_staircase_fits_match(d, points, ends):
    """fit_vanishing, minimal_fit, and the kernel with the fit's basis and
    the column counts ends, against Gauss-Jordan."""
    pts = [Point.of(p) for p in points]
    assert fit_vanishing(pts, d) == fit_naive(points, d)
    b_star = minimal_degree_naive(points, d)
    assert minimal_fit(pts, d) == fit_at_degree_naive(points, d, b_star)
    distinct = [tuple(p) for p in sort_points(set(pts))]
    basis = monomial_basis(d, min_fit_degree(len(distinct), d))
    matrix = evaluation_matrix_fraction(distinct, basis)
    assert_stopped_kernel_matches(matrix, [e for e in ends if e <= len(basis)], basis)


def skipped_columns(d, points):
    """How many columns the fit's walk skipped, and whether it skipped the
    selected column or stopped before it."""
    walked, walk = [], kernel._walk

    def walk_spy(columns, m, p, ends, exps):
        walked.append((exps, walk(columns, m, p, ends, exps)))
        return walked[-1][1]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_walk", walk_spy)
        fit = fit_vanishing([Point.of(p) for p in points], d)
    exps, (_, reduced, _) = walked[-1]
    f = exps.index(max(fit.terms, key=grlex_key))
    return reduced.count(None), f >= len(reduced) or reduced[f] is None


class TestStaircaseAgainstReference:
    """The fit's walk skips the monomial multiples of its free columns and
    certifies only the corners and the selected column; the answers must
    stay those of Gauss-Jordan, on the kernel's primes and on the small
    ones, which are often unlucky for a corner."""

    @given(structured_point_sets(), st.lists(st.integers(1, 40), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_structured_point_sets(self, drawn, ends):
        assert_staircase_fits_match(*drawn, ends)

    @given(structured_point_sets(), st.lists(st.integers(1, 40), max_size=3))
    @settings(max_examples=80, deadline=None)
    def test_structured_point_sets_with_small_primes(self, drawn, ends):
        with prime_source(small_primes):
            assert_staircase_fits_match(*drawn, ends)

    @pytest.mark.parametrize(
        "d, points, skipped",
        [
            (3, list(product(range(1, 5), range(-1, 3), (2,))), 9),
            (
                3,
                [
                    (x + Fraction(y, 2) + 1, y + 2 * z + Fraction(2, 3), z - Fraction(x, 3) - 1)
                    for x, y, z in product(range(3), range(3), range(2))
                ],
                3,
            ),
            (3, [(s, t, 2 * s - t + 1) for s in range(3) for t in range(3)], 3),
        ],
        ids=["sub-box 4x4x1", "affine box 3x3x2", "plane"],
    )
    def test_the_selected_column_is_skipped(self, d, points, skipped):
        # The selected column is a monomial multiple of a corner here, and on
        # the sub-box it is not the last column: x1^2 x3, not x1^3.
        assert skipped_columns(d, points) == (skipped, True)
        for source in (kernel._primes, small_primes):
            with prime_source(source):
                assert_staircase_fits_match(d, points, [])


@st.composite
def big_point_sets(draw):
    """(d, points): one to six random points in d = 2 or 3, with
    coordinates of 30 to 300 digits, integers or over denominators of up to
    a third as many digits.  Their fits' vectors are far past one prime."""
    d = draw(st.sampled_from((2, 3)))
    digits = draw(st.integers(30, 300))
    num = st.builds(mul, st.sampled_from((1, -1)), st.integers(10 ** (digits - 1), 10**digits))
    den = st.integers(1, 10 ** (digits // 3)) if draw(st.booleans()) else st.just(1)
    coord = st.builds(Fraction, num, den)
    return d, draw(st.lists(st.tuples(*[coord] * d), min_size=1, max_size=6))


class TestBigCoordinatesAgainstReference:
    @given(big_point_sets())
    @settings(max_examples=25, deadline=None)
    def test_fits_lift_to_the_reference(self, drawn):
        d, points = drawn
        pts = [Point.of(p) for p in points]
        lifts = []
        with logged_lifts(lifts):
            assert fit_vanishing(pts, d) == fit_naive(points, d)
        assert lifts
        b_star = minimal_degree_naive(points, d)
        assert minimal_fit(pts, d) == fit_at_degree_naive(points, d, b_star)
