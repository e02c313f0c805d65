import random
from decimal import Decimal
from fractions import Fraction
from itertools import combinations, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab import exact
from jointlab.errors import DimensionMismatchError
from jointlab.exact import (
    dot,
    format_rational,
    integer_form,
    nullspace_vector,
    parse_rational,
    rank,
    vec_scale,
    vec_sub,
)
from jointlab.polynomial import fit_vanishing, monomial_basis

from oracles import fit_naive, nullspace_is_trivial_naive, rank_naive

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=6)


def cube_evaluation_matrix(b: int):
    basis = monomial_basis(3, b)
    rows = []
    for pt in sorted(product((0, 1), repeat=3)):
        row = []
        for exps in basis:
            v = Fraction(1)
            for x, e in zip(pt, exps):
                v *= Fraction(x) ** e
            row.append(v)
        rows.append(row)
    return rows


class TestRationalText:
    def test_plain_integer(self):
        assert parse_rational("3") == Fraction(3)
        assert format_rational(Fraction(3)) == "3"

    def test_fraction(self):
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert format_rational(Fraction(-7, 2)) == "-7/2"

    def test_normalizes_non_reduced(self):
        assert parse_rational("6/4") == Fraction(3, 2)

    def test_rejects_zero_denominator(self):
        with pytest.raises(ValueError):
            parse_rational("3/0")

    def test_rejects_decimals_and_junk(self):
        for bad in ("1.5", "x", "", "1/2/3", "2e3", "\u0663", "\uff13/\uff14"):
            with pytest.raises(ValueError):
                parse_rational(bad)

    @given(rationals)
    def test_round_trip(self, q):
        assert parse_rational(format_rational(q)) == q


class TestVectors:
    def test_dot(self):
        u = (Fraction(1), Fraction(2))
        v = (Fraction(3), Fraction(-1, 2))
        assert dot(u, v) == Fraction(2)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            dot((Fraction(1),), (Fraction(1), Fraction(2)))

    def test_add_sub_scale(self):
        u = (Fraction(1), Fraction(0))
        v = (Fraction(2), Fraction(5))
        assert vec_sub(v, u) == (Fraction(1), Fraction(5))
        assert vec_scale(v, Fraction(1, 2)) == (Fraction(1), Fraction(5, 2))


class TestIntegerForm:
    def test_numerators_over_least_common_denominator(self):
        assert integer_form([Fraction(1, 2), Fraction(-1, 3), 2]) == ([3, -2, 12], 6)
        assert integer_form([4, 0]) == ([4, 0], 1)


class TestRank:
    def test_identity(self):
        eye = [[1, 0, 0], [0, 1, 0], [0, 0, 1]]
        assert rank(eye) == 3

    def test_proportional_rows(self):
        assert rank([[1, 2], [2, 4]]) == 1

    def test_empty(self):
        assert rank([]) == 0
        assert rank([[]]) == 0

    def test_cube_evaluation_matrix_rank(self):
        # Frozen from the naive-elimination oracle: the three relations
        # x_i^2 = x_i on {0,1} leave 7 independent columns of the 10.
        matrix = cube_evaluation_matrix(2)
        assert rank_naive(matrix) == 7
        assert rank(matrix) == 7

    def test_rational_entries(self):
        # det = 1/2 - 1 = -1/2, so full rank despite the fractions.
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]) == 2
        # Scaled second row makes the rows proportional.
        assert rank([[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]) == 1

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [1]])

    def test_entries_that_fraction_accepts(self):
        # Strings, floats and Decimals are read as the rationals they denote.
        rows = [["1/2", 0.25], [Decimal("0.5"), Fraction(1, 4)]]
        assert rank(rows) == 1
        assert nullspace_vector(rows) == (Fraction(-1, 2), Fraction(1))


class TestNullspace:
    def test_single_equation(self):
        assert nullspace_vector([[1, 1]]) == (Fraction(-1), Fraction(1))

    def test_full_column_rank(self):
        assert nullspace_vector([[1, 0], [0, 1]]) is None

    def test_cube_matrix_gives_x1_squared_minus_x1(self):
        matrix = cube_evaluation_matrix(2)
        x = nullspace_vector(matrix)
        basis = monomial_basis(3, 2)
        expected = {(2, 0, 0): Fraction(1), (1, 0, 0): Fraction(-1)}
        got = {e: c for e, c in zip(basis, x) if c != 0}
        assert got == expected
        for row in matrix:
            assert sum(a * b for a, b in zip(row, x)) == 0

    def test_vacuous_system_selects_last_coordinate(self):
        # All columns free: the selection rule picks the highest-index one.
        x = nullspace_vector([[0, 0, 0]])
        assert x == (Fraction(0), Fraction(0), Fraction(1))


def random_matrix(rng, max_size=8, bound=9):
    m = rng.randint(1, max_size)
    c = rng.randint(1, max_size)
    return [[rng.randint(-bound, bound) for _ in range(c)] for _ in range(m)]


class TestEliminationProperties:
    def test_agrees_with_naive_oracle(self):
        rng = random.Random(20240901)
        for _ in range(60):
            matrix = random_matrix(rng)
            assert rank(matrix) == rank_naive(matrix)
            trivial = nullspace_vector(matrix) is None
            assert trivial == nullspace_is_trivial_naive(matrix)

    def test_nullspace_vectors_are_exact_kernel_elements(self):
        rng = random.Random(7)
        found = 0
        for _ in range(80):
            matrix = random_matrix(rng, max_size=6)
            x = nullspace_vector(matrix)
            if x is None:
                continue
            found += 1
            assert any(c != 0 for c in x)
            for row in matrix:
                assert sum(Fraction(a) * b for a, b in zip(row, x)) == 0
        assert found > 10

    @given(
        st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=3, max_size=3),
            min_size=2,
            max_size=5,
        ),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60, deadline=None)
    def test_rank_invariant_under_row_operations(self, rows, rnd):
        base = rank(rows)
        shuffled = rows[:]
        rnd.shuffle(shuffled)
        assert rank(shuffled) == base
        scale = Fraction(rnd.randint(1, 5), rnd.randint(1, 5))
        i = rnd.randrange(len(rows))
        scaled = [list(r) for r in rows]
        scaled[i] = [scale * v for v in scaled[i]]
        assert rank(scaled) == base


class TestEarlyStop:
    def test_hyperplane_fit_reduces_pivot_columns_and_the_last(self, monkeypatch):
        # Seven generic hyperplanes x.(1,t,t^2) = t^3, t = 1..7: the joint of
        # a, b, c is (abc, -(ab+ac+bc), a+b+c).  The 35 joints fill the rows of
        # the 35 x 56 fit matrix at b = 5 by column 34, so the walk stops there
        # and only the selected last column is reduced past it.
        points = [
            (a * b * c, -(a * b + a * c + b * c), a + b + c)
            for a, b, c in combinations(range(1, 8), 3)
        ]
        walks, replayed = [], []
        echelon, replay = exact.echelon, exact._replay

        def echelon_spy(matrix):
            walks.append(echelon(matrix))
            return walks[-1]

        def replay_spy(column, steps):
            replayed.append(column)
            replay(column, steps)

        monkeypatch.setattr(exact, "echelon", echelon_spy)
        monkeypatch.setattr(exact, "_replay", replay_spy)
        fit = fit_vanishing(points, 3)
        [(columns, pivot_cols, _)] = walks
        assert (len(columns[0]), len(columns)) == (35, 56)
        assert pivot_cols == list(range(35))
        reduced = [next(j for j, c in enumerate(columns) if c is col) for col in replayed]
        assert reduced == list(range(35)) + [55]
        assert fit == fit_naive(points, 3)
