from fractions import Fraction
from itertools import combinations
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab import curves, kernel, polynomial
from jointlab.constructions import grid
from jointlab.errors import DimensionMismatchError
from jointlab.exact import Point, nullspace_vector
from jointlab.curves import polynomial_from_text
from jointlab.geometry import Configuration, Line, find_joints
from jointlab.pipeline import trace
from jointlab.polynomial import (
    Polynomial,
    fit_vanishing,
    grlex_key,
    min_fit_degree,
    minimal_fit,
    monomial_basis,
    polynomial_to_text,
    restrict_to_line,
    unipoly_to_text,
    vanishes_at,
    vanishes_on_line,
)

from conftest import (
    box,
    cube_points,
    fit_vanishing_at_degree,
    line_point,
    nine_hyperplanes,
    poly_product,
)
from oracles import (
    evaluate_fraction,
    integer_root_ceiling,
    min_fit_degree_enum,
    monomial_count_recursive,
    partial_derivative_fraction,
    rational_terms,
    vanishes_on_line_by_sampling,
)


def F(v):
    return Fraction(v)


def vec(*vals):
    return tuple(Fraction(v) for v in vals)


def pt(*vals):
    return Point.of(vec(*vals))


def poly(text, dim=3):
    return polynomial_from_text(text, dim)


def gradient(p, point):
    """The partial derivatives of p, each evaluated at the point."""
    return tuple(p.partial_derivative(axis).evaluate(point) for axis in range(p.dim))


rationals = st.fractions(min_value=-6, max_value=6, max_denominator=4)


@st.composite
def polynomials(draw, dim=3, max_degree=3):
    basis = monomial_basis(dim, max_degree)
    n_terms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(n_terms):
        exps = draw(st.sampled_from(basis))
        terms[exps] = draw(rationals)
    return Polynomial(dim, terms)


def random_lines(dim=3):
    coords = st.tuples(*([rationals] * dim))
    return st.builds(Line, coords, coords.filter(lambda v: any(c != 0 for c in v)))


class TestMonomialBasis:
    def test_degree_zero(self):
        assert monomial_basis(3, 0) == [(0, 0, 0)]

    def test_counts(self):
        assert len(monomial_basis(3, 2)) == 10 == comb(5, 3)
        assert len(monomial_basis(4, 3)) == 35 == comb(7, 4)

    def test_ascending_graded_lex(self):
        basis = monomial_basis(3, 2)
        assert basis == sorted(basis, key=grlex_key)
        assert basis[0] == (0, 0, 0)
        assert basis[-1] == (2, 0, 0)

    @pytest.mark.parametrize("d,b", [(1, 5), (2, 4), (3, 3), (4, 2)])
    def test_matches_recursive_counting_oracle(self, d, b):
        assert len(monomial_basis(d, b)) == monomial_count_recursive(d, b)
        assert len(monomial_basis(d, b)) == comb(b + d, d)


class TestMinFitDegree:
    def test_spot_values(self):
        assert min_fit_degree(8, 3) == 2
        assert min_fit_degree(0, 3) == 0
        # Frozen by the enumeration oracle: C(8,3)=56 <= 63 < 84=C(9,3).
        assert min_fit_degree(63, 3) == 6

    @pytest.mark.parametrize("d", [3, 4])
    def test_matches_enumeration_oracle(self, d):
        for m in range(0, 70, 7):
            assert min_fit_degree(m, d) == min_fit_degree_enum(m, d)

    @given(st.integers(min_value=0, max_value=300), st.integers(min_value=2, max_value=5))
    @settings(max_examples=80)
    def test_integer_ceiling_bound(self, m, d):
        assert min_fit_degree(m, d) <= integer_root_ceiling(m, d)


class TestIntegerForm:
    """Integer numerators over one positive, gcd-reduced denominator,
    checked against Fraction references that read ``terms`` and ``den``."""

    @given(polynomials(), st.integers(-6, 6).filter(bool))
    @settings(max_examples=80)
    def test_form_is_reduced_and_canonical(self, p, k):
        assert p.den > 0
        assert gcd(p.den, *p.terms.values()) == 1
        assert all(type(n) is int and n for n in p.terms.values())
        scaled = Polynomial(p.dim, {e: n * k for e, n in p.terms.items()}, p.den * k)
        assert (scaled.terms, scaled.den) == (p.terms, p.den)

    @given(polynomials(), polynomials())
    @settings(max_examples=80)
    def test_equal_iff_rational_coefficients_equal(self, p, q):
        assert (p == q) == (rational_terms(p) == rational_terms(q))
        assert p == Polynomial(p.dim, rational_terms(p))

    @given(polynomials(), st.integers(0, 2))
    @settings(max_examples=80)
    def test_partial_derivative_matches_fraction_reference(self, p, axis):
        assert rational_terms(p.partial_derivative(axis)) == partial_derivative_fraction(
            p, axis
        )

    @given(polynomials(), st.tuples(rationals, rationals, rationals))
    @settings(max_examples=80)
    def test_evaluation_matches_fraction_reference(self, p, x):
        value = evaluate_fraction(p, x)
        assert p.evaluate(x) == value
        assert p.evaluate(Point.of(x)) == value
        assert vanishes_at(p, Point.of(x)) == (value == 0)

    def test_zero_has_no_terms_over_one(self):
        for zero in (Polynomial(3, {}), Polynomial(3, {(1, 0, 0): 0}, 7), poly("x1 - x1")):
            assert (zero.terms, zero.den) == ({}, 1)
            assert zero.is_zero()

    def test_denominator_sign_and_gcd(self):
        p = Polynomial(2, {(1, 0): 4, (0, 0): F("-2/3")}, -6)
        assert (p.terms, p.den) == ({(1, 0): -6, (0, 0): 1}, 9)
        assert rational_terms(p) == {(1, 0): F("-2/3"), (0, 0): F("1/9")}


class TestEvaluation:
    def test_product_of_variables(self):
        assert poly("x1*x2*x3").evaluate(vec(1, 1, 1)) == 1

    def test_vanishing_on_cube(self):
        p = poly("x1^2 - x1")
        for pt in cube_points(2, 3):
            assert p.evaluate(pt) == 0

    def test_rational_point(self):
        p = poly("x1 + 2*x2 + 3*x3")
        assert p.evaluate(vec(F("1/2"), F("1/3"), F("1/6"))) == F("5/3")

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            poly("x1").evaluate(vec(1, 2))


class TestDerivatives:
    def test_product_rule_instance(self):
        assert poly("x1*x2*x3").partial_derivative(0) == poly("x2*x3")

    def test_constant(self):
        assert poly("5").partial_derivative(1).is_zero()

    def test_quadratic(self):
        assert poly("x1^2 - x1").partial_derivative(0) == poly("2*x1 - 1")

    def test_gradient_examples(self):
        assert gradient(poly("x1*x2*x3"), vec(1, 1, 1)) == vec(1, 1, 1)
        assert gradient(poly("x1^2 - x1"), vec(0, 0, 0)) == vec(-1, 0, 0)

    def test_gradient_of_cube_product_vanishes_on_cube(self):
        p = poly_product(3, [poly(f"x{i}^2 - x{i}") for i in range(1, 4)])
        for pt in cube_points(2, 3):
            assert gradient(p, pt) == vec(0, 0, 0)

    @given(polynomials(), st.integers(0, 2), st.integers(0, 2))
    @settings(max_examples=60)
    def test_mixed_partials_commute(self, p, i, j):
        a = p.partial_derivative(i).partial_derivative(j)
        b = p.partial_derivative(j).partial_derivative(i)
        assert a == b

    def test_degree_drops(self):
        p = poly("x1^3 + x2")
        assert p.partial_derivative(0).degree() == 2


class TestRestriction:
    def test_substitution(self):
        line = Line(vec(1, 1, 0), vec(0, 0, 1))
        assert restrict_to_line(poly("x1*x2*x3"), line) == (F(0), F(1))

    def test_identically_zero(self):
        line = Line(vec(0, 5, 0), vec(0, 1, 0))
        assert restrict_to_line(poly("x1^2 - x1"), line) == ()

    def test_circle_cylinder(self):
        line = Line(vec(1, 0, 0), vec(0, 1, 0))
        assert restrict_to_line(poly("x1^2 + x2^2 - 1"), line) == (F(0), F(0), F(1))

    def test_vanishes_on_line_verdicts(self):
        assert not vanishes_on_line(poly("x1*x2*x3"), Line(vec(1, 1, 0), vec(0, 0, 1)))
        assert vanishes_on_line(poly("x1^2 - x1"), Line(vec(0, 5, 0), vec(0, 1, 0)))
        assert not vanishes_on_line(
            poly("x1^2 + x2^2 - 1"), Line(vec(1, 0, 0), vec(0, 1, 0))
        )

    @given(polynomials(), random_lines())
    @settings(max_examples=60, deadline=None)
    def test_agrees_with_sampling_oracle(self, p, line):
        samples = max(p.degree(), 0) + 1
        assert vanishes_on_line(p, line) == vanishes_on_line_by_sampling(
            p, line, samples
        )

    @given(polynomials(), random_lines())
    @settings(max_examples=60, deadline=None)
    def test_linear_coefficient_is_directional_derivative(self, p, line):
        q = restrict_to_line(p, line)
        t1 = q[1] if len(q) > 1 else F(0)
        grad = gradient(p, line.base)
        assert t1 == sum(g * v for g, v in zip(grad, line.direction))

    @given(polynomials(), random_lines())
    @settings(max_examples=40, deadline=None)
    def test_degree_never_grows(self, p, line):
        q = restrict_to_line(p, line)
        assert len(q) - 1 <= max(p.degree(), 0)


def falling_factorial_on(line, degree):
    """prod_{k < degree} (v.x - k v.v): on the line base + t*v, whose base is
    orthogonal to v, it restricts to (v.v)^degree t(t-1)...(t-degree+1), zero
    at t = 0, ..., degree - 1 and nonzero at t = degree."""
    v = line.direction
    vv = sum(c * c for c in v)
    forms = []
    for k in range(degree):
        terms = {tuple(int(i == j) for j in range(line.dim)): c for i, c in enumerate(v)}
        terms[(0,) * line.dim] = -k * vv
        forms.append(Polynomial(line.dim, terms))
    return poly_product(line.dim, forms)


class TestVanishesOnLine:
    AXIS = Line(vec(0, 0, 0), vec(1, 0, 0))
    SLANTED = Line(vec(F(1) / 2, F(-1) / 3, 2), vec(1, 2, -1))

    @pytest.mark.parametrize("line", [AXIS, SLANTED], ids=["axis", "slanted"])
    @pytest.mark.parametrize("degree", range(1, 7))
    def test_needs_all_deg_plus_one_parameters(self, line, degree):
        # Zero at the first deg p parameters, so a test that stops one short
        # calls the line vanishing.  On the x1-axis p is prod_{k < deg} (x1 - k).
        p = falling_factorial_on(line, degree)
        assert p.degree() == degree
        assert all(p.evaluate(line_point(line, t)) == 0 for t in range(degree))
        assert p.evaluate(line_point(line, degree)) != 0
        assert not vanishes_on_line(p, line)
        assert restrict_to_line(p, line) != ()

    def test_rejects_wrong_dimension(self):
        with pytest.raises(DimensionMismatchError):
            vanishes_on_line(poly("x1", 4), self.SLANTED)

    def test_coefficients_are_scaled_to_integers_once(self, monkeypatch):
        # The constructor scales the coefficients once; the vanishing test
        # reads the integer numerators and their denominator as they are.
        calls = []
        integer_form = polynomial.integer_form

        def spy(values):
            calls.append(values)
            return integer_form(values)

        monkeypatch.setattr(polynomial, "integer_form", spy)
        p = poly("3/4*x1^2 - 2/3*x2*x3 + 5")
        assert list(p.terms.items()) == [((2, 0, 0), 9), ((0, 1, 1), -8), ((0, 0, 0), 60)]
        assert p.den == 12
        assert calls == [[Fraction(3, 4), Fraction(-2, 3), 5]]
        calls.clear()
        for line in (self.AXIS, self.SLANTED, Line(vec(0, 2, 0), vec(1, 0, 0))):
            assert not vanishes_on_line(p, line)
        assert calls == []

    def test_trace_never_restricts(self, monkeypatch):
        calls = []
        substitute = curves.substitute

        def spy(p, coords, den):
            calls.append(p)
            return substitute(p, coords, den)

        monkeypatch.setattr(curves, "substitute", spy)
        lines = [
            Line(vec(0, -a * b, a + b), vec(a * b, -(a + b), 1))
            for a, b in combinations(range(1, 8), 2)
        ]
        trace(Configuration(3, lines))
        assert calls == []
        restrict_to_line(poly("x1"), lines[0])
        assert len(calls) == 1


class TestFitVanishing:
    def test_cube_fit_is_deterministic(self):
        got = fit_vanishing(cube_points(2, 3), 3)
        assert got == poly("x1^2 - x1")

    def test_single_point(self):
        got = fit_vanishing([pt(0, 0, 0)], 3)
        assert got == poly("x1")
        assert got.degree() <= min_fit_degree(1, 3) == 1

    def test_collinear_points_drop_the_axis_coordinate(self):
        pts = [pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0)]
        got = fit_vanishing(pts, 3)
        assert got.degree() <= 1
        assert got.terms.get((1, 0, 0)) is None  # no x1 component
        for p in pts:
            assert got.evaluate(p) == 0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            fit_vanishing([], 3)

    def test_contract_on_random_point_sets(self):
        import random

        rng = random.Random(99)
        for _ in range(25):
            d = rng.choice([3, 4])
            m = rng.randint(1, 14)
            pts = {
                tuple(Fraction(rng.randint(-5, 5), rng.randint(1, 3)) for _ in range(d))
                for _ in range(m)
            }
            p = fit_vanishing([Point.of(x) for x in pts], d)
            assert not p.is_zero()
            assert p.degree() <= min_fit_degree(len(pts), d)
            for x in pts:
                assert p.evaluate(x) == 0

    def test_fit_matrix_reaches_kernel_as_integers(self, monkeypatch):
        pts = [pt(F(1) / 2, F(-2) / 3, 5), pt(0, F(1) / 7, 1), pt(3, 2, 1)]
        matrices = []

        def spy(matrix, ends, exps):
            matrices.append((matrix, exps))
            return nullspace_vector(matrix, ends, exps)

        monkeypatch.setattr(polynomial, "nullspace_vector", spy)
        fit_vanishing(pts, 3)
        assert len(matrices) == 1
        [(matrix, exps)] = matrices
        assert all(type(v) is int for row in matrix for v in row)
        # with the columns' monomials, the basis at the bound b = 1
        assert exps == monomial_basis(3, 1)

    def test_fit_at_degree_none_when_impossible(self):
        # No nonzero linear polynomial vanishes on an affinely spanning set.
        pts = [pt(0, 0, 0), pt(1, 0, 0), pt(0, 1, 0), pt(0, 0, 1)]
        assert fit_vanishing_at_degree(pts, 3, 0) is None
        assert fit_vanishing_at_degree(pts, 3, 1) is None
        assert fit_vanishing_at_degree(pts, 3, 2) is not None


class TestMinimalVanishingDegree:
    def test_cube_needs_degree_two(self):
        assert minimal_fit(cube_points(2, 3), 3).degree() == 2

    def test_single_point(self):
        assert minimal_fit([pt(0, 0, 0)], 3).degree() == 1

    def test_empty_set(self):
        assert minimal_fit([], 3).degree() == 0

    def test_never_exceeds_fit_bound(self):
        pts = cube_points(2, 3)
        assert minimal_fit(pts, 3).degree() <= min_fit_degree(len(pts), 3)

    def test_fits_integer_rows_in_one_walk(self, monkeypatch):
        # Half-integer cube corners: the rows reach the kernel scaled to ints,
        # as one matrix at the bound b = 2, whose walk may stop after the
        # blocks of degree 0 and 1.
        pts = [Point(corner.nums, 2) for corner in cube_points(2, 3)]
        calls = []

        def spy(matrix, ends, exps):
            calls.append((matrix, ends, exps))
            return nullspace_vector(matrix, ends, exps)

        monkeypatch.setattr(polynomial, "nullspace_vector", spy)
        assert minimal_fit(pts, 3).degree() == 2
        [(matrix, ends, exps)] = calls
        assert (len(matrix), len(matrix[0]), ends) == (8, 10, [1, 4])
        assert exps == monomial_basis(3, 2)
        assert all(type(v) is int for row in matrix for v in row)

    @pytest.mark.parametrize(
        "build, b_star",
        [(nine_hyperplanes, 7), (lambda: grid(3, 5), 5), (lambda: box((4, 4, 1)), 1)],
        ids=["9 hyperplanes", "grid(3,5)", "box(4,4,1)"],
    )
    def test_one_walk_stops_at_the_minimal_block(self, monkeypatch, build, b_star):
        # One matrix reaches the kernel and one prime walks it, and no column
        # of the matrix past the C(b* + d, d) columns of degree <= b* is ever
        # reduced: neither in the walk nor as a selected column.
        config = build()
        d, points = config.dim, find_joints(config).points
        matrices, drawn, walked, reduced = [], [], [], []
        spy_kernel, walk, reduce_, primes = (
            polynomial.nullspace_vector, kernel._walk, kernel._reduce, kernel._primes
        )

        def kernel_spy(matrix, ends, exps):
            matrices.append(matrix)
            return spy_kernel(matrix, ends, exps)

        def walk_spy(columns, m, p, ends, exps):
            walked.append(columns)
            return walk(columns, m, p, ends, exps)

        def reduce_spy(column, steps, p):
            reduced.append(column)
            return reduce_(column, steps, p)

        def primes_spy():
            for p in primes():
                drawn.append(p)
                yield p

        monkeypatch.setattr(polynomial, "nullspace_vector", kernel_spy)
        monkeypatch.setattr(kernel, "_walk", walk_spy)
        monkeypatch.setattr(kernel, "_reduce", reduce_spy)
        monkeypatch.setattr(kernel, "_primes", primes_spy)
        poly = minimal_fit(points, d)
        assert poly.degree() == b_star
        assert len(matrices) == len(drawn) == len(walked) == 1
        index = {id(column): j for j, column in enumerate(walked[0])}
        reached = [index[id(c)] for c in reduced if id(c) in index]
        assert max(reached) < comb(b_star + d, d)


class TestDimensionChecks:
    @pytest.mark.parametrize("bad", [(1, 2, 3, 4), (1, 2)])
    def test_every_fit_entry_point_rejects_wrong_dimension(self, bad):
        pts = [pt(*bad), pt(*(c + 1 for c in bad))]
        with pytest.raises(DimensionMismatchError):
            fit_vanishing(pts, 3)
        with pytest.raises(DimensionMismatchError):
            fit_vanishing_at_degree(pts, 3, 2)
        with pytest.raises(DimensionMismatchError):
            minimal_fit(pts, 3)


class TestTextForm:
    def test_examples(self):
        assert polynomial_to_text(poly("x1^2 - x1")) == "x1^2 - x1"
        assert polynomial_to_text(Polynomial(3, {})) == "0"
        assert polynomial_to_text(Polynomial(3, {(0, 0, 0): F("-7/2")})) == "-7/2"
        assert poly("+x1 - 2") == poly("- 2 + x1")

    def test_descending_graded_lex_order(self):
        p = poly("x3 + x1^2*x2 + 5")
        assert polynomial_to_text(p) == "x1^2*x2 + x3 + 5"

    def test_coefficient_rendering(self):
        p = Polynomial(3, {(1, 1, 0): F("3/2"), (0, 0, 1): F(-1)})
        assert polynomial_to_text(p) == "3/2*x1*x2 - x3"

    def test_out_of_range_variable(self):
        with pytest.raises(ValueError):
            polynomial_from_text("x4", 3)

    def test_non_ascii_digits_rejected(self):
        for bad in ("x\u0661", "x1^\u0662", "\uff13*x1"):
            with pytest.raises(ValueError):
                polynomial_from_text(bad, 3)

    @pytest.mark.parametrize("bad", ["x1 - - x2", "x1 + + x2", "+", "-", "x1 -", "--x1"])
    def test_sign_without_a_term_rejected(self, bad):
        with pytest.raises(ValueError, match="without a term") as err:
            polynomial_from_text(bad, 3)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize(
        "bad, kind", [("x1^-2", "negative"), ("3*x2 ^ -1", "negative"), ("x1^+2", "signed")]
    )
    def test_signed_exponent_rejected(self, bad, kind):
        with pytest.raises(ValueError, match=f"{kind} exponent") as err:
            polynomial_from_text(bad, 3)
        assert repr(bad) in str(err.value)

    @pytest.mark.parametrize(
        "bad, factor",
        [("x1**2", ""), ("x1^2^3", "x1^2^3"), ("2*", ""), ("x1*x", "x"), ("1/0*x1", "1/0")],
    )
    def test_malformed_factor_named_with_the_text(self, bad, factor):
        with pytest.raises(ValueError) as err:
            polynomial_from_text(bad, 3)
        assert str(err.value) == (
            f"malformed factor {factor!r} in polynomial text {bad!r}"
        )

    @given(polynomials())
    @settings(max_examples=80)
    def test_round_trip(self, p):
        assert polynomial_from_text(polynomial_to_text(p), p.dim) == p


class TestUniPoly:
    def test_text(self):
        assert unipoly_to_text((F(0), F(-1), F(1))) == "t^2 - t"
        assert unipoly_to_text(()) == "0"
