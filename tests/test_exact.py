import copy
import pickle
import random
from fractions import Fraction
from itertools import combinations, islice, product
from math import gcd, isqrt, prod
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab import kernel
from jointlab.errors import DimensionMismatchError, InternalInvariantViolation
from jointlab.curves import CurveConfiguration, ParamCurve
from jointlab.exact import (
    Point,
    format_rational,
    integer_form,
    lowest_terms,
    nullspace_vector,
    parse_rational,
    rank,
    sort_points,
)
from jointlab.geometry import Configuration, JointSet, Line, find_joints
from jointlab.polynomial import (
    Polynomial,
    fit_vanishing,
    grlex_key,
    min_fit_degree,
    monomial_basis,
    vanishes_at,
)
from jointlab.projection import mat_vec

from conftest import (
    cube_points,
    fit_rows,
    integer_rows,
    logged_lifts,
    nine_hyperplanes,
    prime_source,
    small_primes,
    walk_updates,
)
from oracles import (
    evaluation_matrix_fraction,
    fit_naive,
    nullspace_is_trivial_naive,
    nullspace_vector_bareiss,
    nullspace_vector_naive,
    rank_bareiss,
    rank_naive,
)

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
        assert type(parse_rational("-3")) is int
        assert format_rational(Fraction(3)) == "3"

    def test_fraction(self):
        assert parse_rational("-7/2") == Fraction(-7, 2)
        assert format_rational(Fraction(-7, 2)) == "-7/2"

    def test_normalizes_non_reduced(self):
        assert parse_rational("6/4") == Fraction(3, 2)
        assert type(parse_rational("6/3")) is Fraction

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
    def test_mat_vec(self):
        rows = [(Fraction(1), Fraction(2)), (0, 4)]
        v = (Fraction(3), Fraction(-1, 2))
        assert mat_vec(rows, v) == (Fraction(2), Fraction(-2))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            mat_vec([(Fraction(1),)], (Fraction(1), Fraction(2)))


class TestIntegerForm:
    def test_numerators_over_least_common_denominator(self):
        assert integer_form([Fraction(1, 2), Fraction(-1, 3), 2]) == ([3, -2, 12], 6)
        assert integer_form([4, 0]) == ([4, 0], 1)

    @given(st.lists(st.integers(-60, 60), max_size=6), st.integers(-40, 40).filter(bool))
    @settings(max_examples=200, deadline=None)
    def test_lowest_terms_against_fractions(self, nums, den):
        reduced, q = lowest_terms(nums, den)
        assert q > 0 and gcd(q, *reduced) == 1
        assert [Fraction(n, q) for n in reduced] == [Fraction(n, den) for n in nums]
        if not any(nums):
            assert q == 1


coordinates = st.fractions(min_value=-5, max_value=5, max_denominator=7)


@st.composite
def fraction_points(draw):
    """Rational points as Fraction tuples in d = 2..5, signs and denominators
    mixed.  Each point keeps a drawn number of leading coordinates of the
    first one, so ties on leading coordinates are common."""
    d = draw(st.integers(2, 5))
    points = draw(st.lists(st.tuples(*[coordinates] * d), min_size=1, max_size=12))
    kept = draw(st.lists(st.integers(0, d), min_size=len(points), max_size=len(points)))
    return [points[0][:k] + p[k:] for p, k in zip(points, kept)]


class TestPoints:
    """A Point is a rational point in its canonical integer form."""

    @given(fraction_points())
    @settings(max_examples=100, deadline=None)
    def test_sort_points_orders_as_the_fraction_tuples(self, points):
        ordered = sort_points(Point.of(p) for p in points)
        assert [tuple(p) for p in ordered] == sorted(points)

    @given(fraction_points(), st.integers(-6, 6).filter(bool))
    @settings(max_examples=100, deadline=None)
    def test_equal_with_equal_hashes_exactly_when_the_values_are(self, points, k):
        """Also for a form scaled by k, which construction reduces."""
        forms = [Point.of(x) for x in points]
        for x, px in zip(points, forms):
            nums, den = integer_form(x)
            scaled = Point([n * k for n in nums], den * k)
            assert scaled == px and hash(scaled) == hash(px)
            assert (scaled.nums, scaled.den) == (tuple(nums), den)
            for y, py in zip(points, forms):
                assert (px == py) == (x == y)
                if px == py:
                    assert hash(px) == hash(py)

    def test_fractions_only_at_the_edges(self):
        point = Point([3, -2, 12], 6)
        assert tuple(point) == (Fraction(1, 2), Fraction(-1, 3), Fraction(2))
        assert len(point) == 3
        assert repr(point) == "Point(1/2, -1/3, 2)"

    def test_plain_tuple_order_would_be_wrong(self):
        third, half = Point([1], 3), Point([1], 2)
        assert (third.nums, third.den) > (half.nums, half.den)
        assert sort_points([half, third]) == [third, half]


X_AXIS = Line((0, 0, 0), (1, 0, 0))
Y_AXIS = Line((0, 0, 0), (0, 1, 0))
MOMENT = ParamCurve([[0, 1], [0, 0, 1], [0, 0, 0, 1]])

# class -> (value, an equal value built another way, a different value of
# the class, the first value's key)
VALUES = {
    Point: (
        Point([2, -4], 4),
        Point.of([Fraction(1, 2), -1]),
        Point([1, 1], 2),
        ((1, -2), 2),
    ),
    Line: (
        Line((0, 0, 1), (2, 0, 0)),
        Line((5, 0, 1), (Fraction(-1, 3), 0, 0)),
        X_AXIS,
        ((1, 0, 0), Point([0, 0, 1], 1)),
    ),
    ParamCurve: (
        MOMENT,
        ParamCurve([[0, 2], [0, 0, 2, 0], [0, 0, 0, 2]], 2),
        ParamCurve([[0, 1], [0, 0, 1]]),
        (((0, 1), (0, 0, 1), (0, 0, 0, 1)), 1),
    ),
    Polynomial: (
        Polynomial(2, {(1, 0): Fraction(1, 2), (0, 1): 0}),
        Polynomial(2, {(1, 0): -3}, -6),
        Polynomial(2, {(1, 0): 1}),
        (2, {(1, 0): 1}, 2),
    ),
    Configuration: (
        Configuration(3, [X_AXIS, Y_AXIS]),
        Configuration(3, [Y_AXIS, X_AXIS, Y_AXIS]),
        Configuration(3, [X_AXIS]),
        (3, frozenset([X_AXIS, Y_AXIS])),
    ),
    CurveConfiguration: (
        CurveConfiguration(3, (MOMENT,)),
        CurveConfiguration(3, (ParamCurve([[0, 3], [0, 0, 3], [0, 0, 0, 3]], 3),)),
        CurveConfiguration(3, (MOMENT, MOMENT)),
        (3, (MOMENT,)),
    ),
    JointSet: (
        JointSet({Point([0, 0, 0], 1): frozenset([X_AXIS, Y_AXIS])}),
        JointSet({Point([0, 0, 0], 5): frozenset([Y_AXIS, X_AXIS])}),
        JointSet({}),
        {Point([0, 0, 0], 1): frozenset([X_AXIS, Y_AXIS])},
    ),
}
UNHASHABLE = (Polynomial, JointSet)


@pytest.mark.parametrize("cls", list(VALUES), ids=lambda cls: cls.__name__)
def test_value_classes_share_one_value_form(cls):
    """Every value class is immutable, equal within its class exactly when
    the keys are, and hashed by its key, or unhashable.  A copy, a deep
    copy and a pickle round trip give an equal value of the class."""
    value, same, other, key = VALUES[cls]
    assert type(value) is type(same) is type(other) is cls
    for name in (*cls.__slots__, "_key", "_hash", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    assert value._key == key and same._key == key and other._key != key
    assert value == same and not value != same
    assert value != other and not value == other
    assert value.__eq__(key) is NotImplemented and value != key
    if cls in UNHASHABLE:
        for v in (value, same, other):
            with pytest.raises(TypeError):
                hash(v)
    else:
        assert hash(value) == hash(same) == hash(key)
    for twin in (
        copy.copy(value),
        copy.deepcopy(value),
        pickle.loads(pickle.dumps(value)),
    ):
        assert type(twin) is cls and twin == value and twin._key == key
        with pytest.raises(AttributeError):
            setattr(twin, cls.__slots__[0], None)
        if cls not in UNHASHABLE:
            assert hash(twin) == hash(value)


class Measured:
    """An integer entry that adds the size of every value computed from it
    to ``sizes``."""

    def __init__(self, value: int, sizes: list[int]):
        self.value, self.sizes = value, sizes
        sizes.append(abs(value))

    def __bool__(self):
        return bool(self.value)

    def __mul__(self, other):
        return Measured(self.value * other.value, self.sizes)

    def __sub__(self, other):
        return Measured(self.value - other.value, self.sizes)

    def __floordiv__(self, other):
        return Measured(self.value // getattr(other, "value", other), self.sizes)


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
        assert rank(integer_rows(matrix)) == 7

    def test_rational_entries(self):
        # det = 1/2 - 1 = -1/2, so full rank despite the fractions.
        full = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(1)]]
        assert rank(integer_rows(full)) == 2
        # Scaled second row makes the rows proportional.
        flat = [[Fraction(1, 2), Fraction(1, 3)], [Fraction(3), Fraction(2)]]
        assert rank(integer_rows(flat)) == 1

    def test_ragged_matrix_rejected(self):
        with pytest.raises(ValueError):
            rank([[1, 2], [1]])

    def test_every_value_stays_within_hadamards_bound(self):
        # Each update is divided by the previous pivot, so every entry is a
        # minor, and every product rank forms is two minors of at most k + 1
        # rows, k of them shared: within prod |row|^2 over the rows, which
        # are nonzero.  Left undivided, the entries of 8 rows outgrow it.
        rng = random.Random(5)
        matrix = [
            [rng.choice((-1, 1)) * rng.randint(1, 9) for _ in range(8)] for _ in range(8)
        ]
        sizes = []
        assert rank([[Measured(v, sizes) for v in row] for row in matrix]) == 8
        assert max(sizes) <= prod(sum(v * v for v in row) for row in matrix)


class TestNullspace:
    def test_single_equation(self):
        assert nullspace_vector([[1, 1]]) == integer_form((Fraction(-1), Fraction(1)))

    def test_full_column_rank(self):
        assert nullspace_vector([[1, 0], [0, 1]]) is None

    def test_cube_matrix_gives_x1_squared_minus_x1(self):
        matrix = cube_evaluation_matrix(2)
        nums, den = nullspace_vector(integer_rows(matrix))
        x = [Fraction(n, den) for n in nums]
        basis = monomial_basis(3, 2)
        expected = {(2, 0, 0): Fraction(1), (1, 0, 0): Fraction(-1)}
        got = {e: c for e, c in zip(basis, x) if c != 0}
        assert got == expected
        assert (nums, den) == integer_form(x)
        for row in matrix:
            assert sum(a * b for a, b in zip(row, x)) == 0

    def test_vacuous_system_selects_last_coordinate(self):
        # All columns free: the selection rule picks the highest-index one.
        x = nullspace_vector([[0, 0, 0]])
        assert x == integer_form((Fraction(0), Fraction(0), Fraction(1)))


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
            found_x = nullspace_vector(matrix)
            if found_x is None:
                continue
            found += 1
            nums, den = found_x
            x = [Fraction(n, den) for n in nums]
            assert any(c != 0 for c in x)
            assert (nums, den) == integer_form(x)
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
        assert rank(integer_rows(scaled)) == base


def hyperplane_joints(ts):
    """Joints of the generic hyperplanes x.(1,t,t^2) = t^3: the joint of
    a, b, c is (abc, -(ab+ac+bc), a+b+c)."""
    return [
        Point.of((a * b * c, -(a * b + a * c + b * c), a + b + c))
        for a, b, c in combinations(ts, 3)
    ]


def fit_matrix(points, d):
    """The Fraction evaluation matrix of the fit at the fit bound."""
    basis = monomial_basis(d, min_fit_degree(len(points), d))
    return evaluation_matrix_fraction(points, basis)


class TestEarlyStop:
    def test_hyperplane_fit_reduces_pivot_columns_and_the_last(self, monkeypatch):
        # Seven generic hyperplanes, t = 1..7.  The 35 joints fill the rows of
        # the 35 x 56 fit matrix at b = 5 by column 34, so the walk stops
        # before column 35.  Every free column past the stop is free over Q
        # as well, so the selected last column is the only one reduced past
        # the stop, back-substituted and checked, and the first prime does.
        # Its vector is integral, with numerators up to 26,136, above the
        # reconstruction bound isqrt(p // 2) = 23,170 of one prime but within
        # p // 2, so its digit is the vector itself: the exact check passes
        # the digit, and no lift step is taken.
        points = hyperplane_joints(range(1, 8))
        walks, reductions, substituted, checked, drawn, lifts = [], [], [], [], [], []
        walk, reduce_ = kernel._walk, kernel._reduce
        back_substitute, in_kernel = kernel._back_substitute, kernel._in_kernel

        def walk_spy(columns, m, p, ends, exps):
            pivots, reduced, steps = walk(columns, m, p, ends, exps)
            walks.append((columns, p, exps, list(pivots), reduced, steps))
            return pivots, reduced, steps

        def reduce_spy(column, steps, p):
            reductions.append(tuple(column))
            return reduce_(column, steps, p)

        def back_substitute_spy(y, *rest):
            substituted.append(list(y))
            return back_substitute(y, *rest)

        def in_kernel_spy(columns, f, support, nums, den):
            checked.append((f, den))
            return in_kernel(columns, f, support, nums, den)

        monkeypatch.setattr(kernel, "_walk", walk_spy)
        monkeypatch.setattr(kernel, "_reduce", reduce_spy)
        monkeypatch.setattr(kernel, "_back_substitute", back_substitute_spy)
        monkeypatch.setattr(kernel, "_in_kernel", in_kernel_spy)
        monkeypatch.setattr(kernel, "_primes", draws(kernel._primes, drawn))
        with logged_lifts(lifts):
            fit = fit_vanishing(points, 3)
        [(columns, p, exps, pivots, reduced, steps)] = walks
        assert (len(columns[0]), len(columns)) == (35, 56)
        # the fit passes its basis, but no column is free before the stop,
        # so none is skipped
        assert exps == monomial_basis(3, 5)
        assert pivots == list(range(35))
        assert len(reduced) == 35 and None not in reduced
        # the 35 pivot columns in the walk, then the last column alone
        assert reductions == columns[:35] + [columns[55]]
        last = reduce_(columns[55], steps, p)
        assert substituted == [[last[q] for q, *_ in steps]]
        assert checked == [(55, 1)]
        assert drawn == [p] and lifts == []
        assert fit == fit_naive(points, 3)


T13 = tuple(
    Fraction(t)
    for t in ("1", "-2", "3", "-1/2", "3/2", "-1/3", "5/3", "-1/4", "7/4", "-5/4", "2/5", "-7/5", "5/2")
)


def box_points(*sizes):
    """The points of {0..a-1} x {0..b-1} x ... for sizes (a, b, ...)."""
    return [Point(pt, 1) for pt in product(*map(range, sizes))]


class TestCorners:
    """Given the columns' monomials, a fit's walk reduces and checks only the
    corners, the free columns divisible by no earlier free column, and skips
    their monomial multiples unreduced.  The selected column, the fit's
    leading monomial, is reduced once: in the walk if it is a corner, else
    alone, with the steps of the pivots before it."""

    @pytest.mark.parametrize(
        "points, d, corners, skipped, selected",
        [
            (cube_points(5, 3), 3, 3, 57, (8, 0, 0)),
            (cube_points(3, 4), 4, 4, 56, (5, 0, 0, 0)),
            (cube_points(8, 3), 3, 3, 165, (13, 0, 0)),
            (box_points(20, 3, 3), 3, 2, 146, (6, 3, 0)),
            (box_points(4, 4, 1), 3, 1, 9, (2, 0, 1)),
            (list(find_joints(nine_hyperplanes()).points), 3, 0, 0, (7, 0, 0)),
            (hyperplane_joints(T13), 3, 0, 0, (11, 0, 0)),
        ],
        ids=[
            "grid(3,5)",
            "grid(4,3)",
            "grid(3,8)",
            "box(20,3,3)",
            "box(4,4,1)",
            "9 hyperplanes",
            "13 hyperplanes",
        ],
    )
    def test_the_walk_checks_the_corners_and_skips_their_multiples(
        self, monkeypatch, points, d, corners, skipped, selected
    ):
        walks, reductions, checked = [], [], []
        walk, reduce_, in_kernel = kernel._walk, kernel._reduce, kernel._in_kernel

        def walk_spy(columns, m, p, ends, exps):
            result = walk(columns, m, p, ends, exps)
            walks.append((columns, exps, result))
            return result

        def reduce_spy(column, steps, p):
            reductions.append((id(column), len(steps)))
            return reduce_(column, steps, p)

        def in_kernel_spy(columns, f, *rest):
            checked.append(f)
            return in_kernel(columns, f, *rest)

        monkeypatch.setattr(kernel, "_walk", walk_spy)
        monkeypatch.setattr(kernel, "_reduce", reduce_spy)
        monkeypatch.setattr(kernel, "_in_kernel", in_kernel_spy)
        fit = fit_vanishing(points, d)
        [(columns, exps, (pivots, reduced, steps))] = walks
        free = [j for j in range(len(reduced)) if j not in pivots]
        kept = [j for j in free if reduced[j] is not None]
        assert (len(kept), reduced.count(None)) == (corners, skipped)
        # the kept free columns are those divisible by no earlier free one
        assert kept == [
            j
            for t, j in enumerate(free)
            if not any(all(map(int.__le__, exps[i], exps[j])) for i in free[:t])
        ]
        assert max(fit.terms, key=grlex_key) == selected
        f = exps.index(selected)
        assert set(checked) == {*kept, f}
        # no skipped column is reduced but the selected one, and that once,
        # with the steps of the pivots before it
        skips = {id(columns[j]) for j, done in enumerate(reduced) if done is None}
        skips.discard(id(columns[f]))
        assert not skips.intersection(column for column, _ in reductions)
        assert [k for column, k in reductions if column == id(columns[f])] == [
            sum(j < f for j in pivots)
        ]


class TestSparseSteps:
    """A pivot step packs the multipliers of only the rows that hold no
    pivot yet and whose entry is nonzero, its mask marks just those rows,
    and a column whose entry in the pivot row is zero skips the step."""

    P = next(kernel._primes())  # the first prime of the kernel

    @pytest.mark.parametrize(
        "points, d", [(cube_points(5, 3), 3), (cube_points(3, 4), 4)], ids=["3,5", "4,3"]
    )
    def test_steps_list_the_nonzero_rows_below_the_pivot(self, points, d):
        rows = fit_rows(points, d)
        m, p = len(rows), self.P
        columns = list(zip(*rows))
        pivots, reduced, steps = kernel._walk(columns, m, p)
        assert len(steps) == len(pivots)
        taken = []  # the pivot rows of the steps so far
        for r, (q, inv, mults, mask) in enumerate(steps):
            pivot = kernel._reduce(columns[pivots[r]], steps[:r], p)
            assert reduced[pivots[r]] == [pivot[i] for i in taken]
            free = [i for i in range(m) if i not in taken and pivot[i]]
            assert q == free[0] and inv * pivot[q] % p == 1
            taken.append(q)
            lanes = kernel._unpack(mults, m).tolist()
            assert [i for i, f in enumerate(lanes) if f] == free[1:]
            assert mask == sum(1 << 8 * i for i in free[1:])
            for i in free[1:]:
                assert lanes[i] == -pivot[i] * inv % p

    def test_grid_fit_walk_updates(self):
        # The grid(3,5) fit is 125 x 165 at b = 8, the grid(4,3) fit 81 x 126
        # at b = 5.  A multiply-add updates a whole column; updating only
        # the listed entries, one scalar update each, took 59,830 and 9,339.
        # Given the basis, the walk skips the monomial multiples of its free
        # columns, and the updates of reducing them.
        grid35, grid43 = fit_rows(cube_points(5, 3), 3), fit_rows(cube_points(3, 4), 4)
        assert walk_updates(grid35) == 955
        assert walk_updates(grid43) == 230
        assert walk_updates(grid35, exps=monomial_basis(3, 8)) == 607
        assert walk_updates(grid43, exps=monomial_basis(4, 5)) == 94

    def test_zero_multipliers_are_not_recorded(self):
        p = self.P
        assert walk_updates([[1, 2], [3, 4]]) == 1
        assert walk_updates([[1, 0], [3, 4]]) == 0  # a zero top skips the step
        # column 0 has its pivot in row 0 and row 1 has a zero multiplier
        assert kernel._walk([(1, 0), (2, 4)], 2, p)[2][0][2:] == (0, 0)
        # column 0 takes its pivot in row 1 and lists row 3 only; column 1 is
        # then (1, 1, 1, 0), so its pivot is in row 0 and its step lists
        # row 2 only
        rows = [[0, 1], [2, 1], [0, 1], [4, 2]]
        _, _, steps = kernel._walk(list(zip(*rows)), 4, p)
        assert steps == [
            (1, pow(2, -1, p), kernel._pack([0, 0, 0, p - 2]), 1 << 24),
            (0, 1, kernel._pack([0, 0, p - 1, 0]), 1 << 16),
        ]
        assert walk_updates(rows) == 1


class TestPackedLanes:
    """A column's updates add up in one int of 64-bit lanes, one lane per
    row, and are reduced mod p before a lane could carry into the next."""

    P = next(kernel._primes())  # the first prime of the kernel

    def test_pack_and_unpack_round_trip(self):
        p = self.P
        residues = [0, 1, 2, p // 2, p - 2, p - 1, 0]
        residues += random.Random(7).choices(range(p), k=50)
        assert kernel._unpack(kernel._pack(residues), len(residues)).tolist() == residues
        # a lane holds up to 2^64 - 1 and a zero lane above it still counts
        lanes = [0, 2**64 - 1, 0]
        assert kernel._unpack(kernel._pack(lanes), 3).tolist() == lanes
        # lanes add and scale without carries while each stays below 2^64
        top = p - 1
        total = kernel._pack(residues) + top * kernel._pack(residues[::-1])
        expected = [a + top * b for a, b in zip(residues, residues[::-1])]
        assert kernel._unpack(total, len(residues)).tolist() == expected

    def test_lanes_are_reduced_before_they_carry(self):
        # 20 steps with pivot rows 0..19, each adding top * (p - 1) to row 20
        # alone, on a column with top p - 1 at every step: row 20 gains
        # (p - 1)^2, nearly 2^60, per step, so without a reduction after
        # every 15 its lane would pass 2^64 at the 17th
        p, m = self.P, 21
        mults = kernel._pack([0] * 20 + [p - 1])
        steps = [(q, 1, mults, 1 << 8 * 20) for q in range(20)]
        assert 16 * (p - 1) ** 2 < 2**64 < 17 * (p - 1) ** 2
        # each step adds -(p - 1) = 1 mod p to row 20
        assert kernel._reduce([-1] * 20 + [0], steps, p) == [p - 1] * 20 + [20]

    def test_a_dense_column_reduces_its_lanes_between_multiply_adds(self, monkeypatch):
        # 20 x 21, no entry zero: every step applies to every later column,
        # so the columns past the 16th take more than 2^64 // p^2 - 1 = 15
        # multiply-adds, and their lanes are reduced on the way
        rng = random.Random(20)
        matrix = [[rng.choice((-9, -5, -2, -1, 1, 3, 4, 8)) for _ in range(21)] for _ in range(20)]
        assert (1 << 64) // (self.P * self.P) - 1 == 15
        unpacks, reduce_, unpack = [], kernel._reduce, kernel._unpack

        def reduce_spy(*args):
            unpacks.append(0)
            return reduce_(*args)

        def unpack_spy(col, m):
            if unpacks:
                unpacks[-1] += 1
            return unpack(col, m)

        monkeypatch.setattr(kernel, "_reduce", reduce_spy)
        monkeypatch.setattr(kernel, "_unpack", unpack_spy)
        expected = integer_form(nullspace_vector_naive(matrix))
        assert rank(matrix) == rank_naive(matrix) == 20
        assert nullspace_vector(matrix) == expected
        # the final unpack of a reduced column, and one lane reduction
        assert max(unpacks) == 2
        with prime_source(small_primes):
            assert rank(matrix) == 20
            assert nullspace_vector(matrix) == expected


def draws(source, log):
    """A prime source that yields what source() yields and logs it."""

    def logged():
        for p in source():
            log.append(p)
            yield p

    return logged


class TestModularRarePaths:
    P = next(kernel._primes())  # the first prime of the kernel

    def assert_matches_reference(self, matrix):
        rows = integer_rows(matrix)
        assert rank(rows) == rank_naive(matrix)
        reference = nullspace_vector_naive(matrix)
        expected = None if reference is None else integer_form(reference)
        assert nullspace_vector(rows) == expected

    def assert_drops_the_first_prime(self, matrix):
        self.assert_matches_reference(matrix)
        drawn = []
        with prime_source(draws(kernel._primes, drawn)):
            nullspace_vector(integer_rows(matrix))
        assert drawn[0] == self.P and len(drawn) == 2, matrix

    def test_primes_descend_from_below_two_to_the_thirty(self):
        # descending from the largest prime below 2^30, every prime drawn
        # and every residue mod it is one 30-bit digit
        first = list(islice(kernel._primes(), 3))
        assert first[0] == self.P == 2**30 - 35
        assert not any(kernel._is_prime(n) for n in range(self.P + 2, 2**30, 2))
        assert first == sorted(first, reverse=True)
        assert all(p < 2**30 and pow(3, p - 1, p) == 1 for p in first)
        assert kernel._PRIMES[:3] == first

    def test_miller_rabin_against_trial_division(self):
        odd = range(3, 3000, 2)
        small = [n for n in odd if all(n % q for q in range(3, isqrt(n) + 1, 2))]
        assert [n for n in odd if kernel._is_prime(n)] == small
        # a strong pseudoprime to every base up to 23
        assert not kernel._is_prime(3825123056546413051)
        assert kernel._is_prime(self.P)

    def test_singular_mod_the_first_prime_but_not_over_q(self):
        p = self.P
        self.assert_drops_the_first_prime([[1, 0], [0, p]])
        self.assert_drops_the_first_prime([[1, 0, 1], [0, p, 1]])
        self.assert_drops_the_first_prime([[p, 1, 1]])

    def test_entries_all_multiples_of_the_prime(self):
        p = self.P
        self.assert_drops_the_first_prime([[p, 2 * p], [3 * p, p]])
        self.assert_drops_the_first_prime([[p, 2 * p, 5 * p], [3 * p, p, 4 * p]])
        self.assert_drops_the_first_prime([[Fraction(p, 7), p], [2 * p, Fraction(p, 3)]])

    def test_numerators_too_large_for_one_prime_are_lifted(self):
        big = ([[1, 2**40 + 1]], [[3**30, 2**40 + 1]], [[1, 0, 2**70], [0, 1, -(3**50)]])
        for matrix in big:
            expected = integer_form(nullspace_vector_naive(matrix))
            drawn, lifts = [], []
            with prime_source(draws(kernel._primes, drawn)), logged_lifts(lifts):
                assert nullspace_vector(integer_rows(matrix)) == expected
            assert drawn == [self.P] and len(lifts) >= 1, matrix

    def test_first_prime_with_fewer_pivots_restarts(self):
        walks = []
        walk = kernel._walk

        def walk_spy(columns, m, p, ends, exps):
            result = walk(columns, m, p, ends, exps)
            walks.append((p, exps, list(result[0])))
            return result

        with prime_source(small_primes), pytest.MonkeyPatch.context() as patch:
            patch.setattr(kernel, "_walk", walk_spy)
            self.assert_matches_reference([[3, 1], [0, 1]])
        # the kernel vector: 3 loses the pivot at column 0, whose check drops
        # it, and 5 finds both; a matrix with no monomials skips no column
        assert walks[:2] == [(3, None, [1]), (5, None, [0, 1])]

    def test_an_unlucky_prime_is_dropped_and_the_next_lifts(self):
        drawn, lifts, moduli = [], [], []
        reconstruct = kernel._rational_numerators

        def reconstruct_spy(residues, modulus):
            moduli.append(modulus)
            return reconstruct(residues, modulus)

        with prime_source(draws(small_primes, drawn)), logged_lifts(lifts):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(kernel, "_rational_numerators", reconstruct_spy)
                assert nullspace_vector([[3, 1, 1]]) == integer_form((Fraction(-1, 3), 0, 1))
        # 3 puts no pivot at column 0, whose vector (1, 0, 0) satisfies the
        # pivot rows (there are none) but not row 0: 3 is dropped.  5 puts
        # the pivot at column 0, cannot hold -1/3 alone and lifts it once,
        # to modulus 25
        assert drawn == [3, 5]
        assert lifts == [5]
        assert moduli == [3, 5, 25]

    def test_a_prime_that_lifts_draws_no_second_prime(self):
        def source():
            yield from (5, 3, 7)

        drawn = []
        with prime_source(draws(source, drawn)):
            assert nullspace_vector([[3, 1, 1]]) == integer_form((Fraction(-1, 3), 0, 1))
        # 5 puts the pivot at column 0 and lifts -1/3; no second walk
        assert drawn == [5]

    def test_an_unlucky_prime_is_dropped_before_the_hadamard_guard(self):
        # Column 2 is independent over Q only through row 2, which is 0 mod
        # 5.  Mod 5 it is free, and its vector (-1/3, 0, 1) satisfies the
        # two pivot rows after one lift step, to 25, so 5 is dropped then.
        # The guard 2 * (3^2 + 1^2) * 1000001^2 is first passed at 5^20,
        # 18 lift steps later.
        matrix = [[3, 0, 1], [0, 1000001, 0], [0, 0, 5]]
        self.assert_matches_reference(matrix)
        drawn, lifts = [], []
        with prime_source(draws(small_primes, drawn)), logged_lifts(lifts):
            assert nullspace_vector(matrix) is None
        assert drawn == [3, 5, 7]
        assert lifts == [5]
        assert 5**19 < 2 * (3**2 + 1**2) * 1000001**2 < 5**20

    def test_lifting_past_the_hadamard_bound_is_a_bug(self, monkeypatch):
        # a lift step that always returns the zero digit never converges
        def stuck(residual, digit, *rest):
            return residual, [0] * len(digit)

        monkeypatch.setattr(kernel, "_lift", stuck)
        with prime_source(small_primes), pytest.raises(InternalInvariantViolation):
            nullspace_vector([[3, 1, 1]])


class TestLiftWork:
    """The p-adic lift on the one-digit primes, counted.  One prime reaches
    numerators and denominators up to isqrt(p // 2) = 23,170 by
    reconstruction, and integral vectors within p // 2 as their own digits.
    The kernel vectors that the grid(3,7) fit (343 x 364 at b = 11) checks
    are integral, with numerators up to 2^26, so none of them lifts; the
    selected vector of the nine hyperplanes (84 x 120 at b = 7) is too large
    for one prime."""

    P = next(kernel._primes())  # the first prime of the kernel

    @pytest.mark.parametrize(
        "points, lifted_columns",
        [(cube_points(7, 3), 0), (list(find_joints(nine_hyperplanes())), 1)],
        ids=["grid(3,7)", "9 hyperplanes"],
    )
    def test_each_lifted_column_takes_one_step_on_one_block(
        self, monkeypatch, points, lifted_columns
    ):
        rows = fit_rows(points, 3)
        drawn, lifts, blocks, steps_per_column = [], [], [], []
        pivot_block, lifted = kernel._pivot_block, kernel._lifted

        def pivot_block_spy(*args):
            blocks.append(args)
            return pivot_block(*args)

        def lifted_spy(*args):
            before = len(lifts)
            found = lifted(*args)
            steps_per_column.append(len(lifts) - before)
            return found

        monkeypatch.setattr(kernel, "_pivot_block", pivot_block_spy)
        monkeypatch.setattr(kernel, "_lifted", lifted_spy)
        monkeypatch.setattr(kernel, "_primes", draws(kernel._primes, drawn))
        with logged_lifts(lifts):
            nums, den = nullspace_vector(rows)
        assert drawn == [self.P]
        assert steps_per_column == [1] * lifted_columns
        assert lifts == [self.P] * lifted_columns
        # one block, and so one guard, however many columns lift; none if
        # none does
        assert len(blocks) == min(lifted_columns, 1)
        assert not any(sum(map(mul, row, nums)) for row in rows)

    def test_the_pivot_block_is_built_once_per_prime(self, monkeypatch):
        # 3 is dropped after its pivot-free column 0 fails the exact check,
        # and 5 lifts the selected column (-1/3, 0, 1): each builds a block
        blocks, drawn = [], []
        pivot_block = kernel._pivot_block

        def pivot_block_spy(rows, pivots, steps):
            blocks.append(list(pivots))
            return pivot_block(rows, pivots, steps)

        monkeypatch.setattr(kernel, "_pivot_block", pivot_block_spy)
        with prime_source(draws(small_primes, drawn)):
            assert nullspace_vector([[3, 1, 1]]) == integer_form((Fraction(-1, 3), 0, 1))
        assert drawn == [3, 5]
        assert blocks == [[1], [0]]

    def test_a_lift_step_reads_only_the_block_columns_of_nonzero_digits(self, monkeypatch):
        # grid(3,8) (512 x 560 at b = 12) has kernel vectors with numerators
        # up to 2^33, past p // 2, so some columns lift
        rows = fit_rows(cube_points(8, 3), 3)
        reading, reads, expected, sizes = [None], [], [], []
        pivot_block, lift = kernel._pivot_block, kernel._lift

        class Column(tuple):
            """A block column that logs its index when it is read."""

            def __iter__(self):
                if reading[0] is not None:
                    reading[0].append(self.index)
                return super().__iter__()

        def pivot_block_spy(*args):
            order, block, guard = pivot_block(*args)
            marked = []
            for t, entries in enumerate(block):
                column = Column(entries)
                column.index = t
                marked.append(column)
            return order, marked, guard

        def lift_spy(residual, digit, *rest):
            expected.append([t for t, d in enumerate(digit) if d])
            sizes.append(len(digit))
            reading[0] = []
            try:
                return lift(residual, digit, *rest)
            finally:
                reads.append(reading[0])
                reading[0] = None

        monkeypatch.setattr(kernel, "_pivot_block", pivot_block_spy)
        monkeypatch.setattr(kernel, "_lift", lift_spy)
        nullspace_vector(rows)
        assert reads == expected
        # 12 columns lift two steps each: 24 steps of 8,496 digits in all, 117
        # of them nonzero
        assert (len(reads), sum(sizes), sum(map(len, reads))) == (24, 8_496, 117)


    def test_reconstructions_grow_with_the_logarithm_of_the_lift(self, monkeypatch):
        # Five points in 3-space with 100-digit integer coordinates: the fit
        # (5 x 10 at b = 2) lifts its selected column for 221 steps, to the
        # first power of p past the Hadamard guard.  It reconstructs after
        # 1, 2, 4, ..., 128 steps and at that last step: 9 times.  A
        # reconstruction after every step took 154 steps and 154 of them.
        rng = random.Random(100)
        points = [
            Point([rng.randrange(-(10**100), 10**100) for _ in range(3)], 1) for _ in range(5)
        ]
        per_column, counts, guards = [], [None], []
        pivot_block, lifted = kernel._pivot_block, kernel._lifted
        lift, reconstruct = kernel._lift, kernel._rational_numerators

        def pivot_block_spy(*args):
            guards.append(pivot_block(*args)[2])
            return pivot_block(*args)

        def lifted_spy(*args):
            counts[0] = [0, 0]
            try:
                return lifted(*args)
            finally:
                per_column.append(tuple(counts[0]))
                counts[0] = None

        def lift_spy(*args):
            counts[0][0] += 1
            return lift(*args)

        def reconstruct_spy(*args):
            if counts[0] is not None:
                counts[0][1] += 1
            return reconstruct(*args)

        monkeypatch.setattr(kernel, "_pivot_block", pivot_block_spy)
        monkeypatch.setattr(kernel, "_lifted", lifted_spy)
        monkeypatch.setattr(kernel, "_lift", lift_spy)
        monkeypatch.setattr(kernel, "_rational_numerators", reconstruct_spy)
        fit = fit_vanishing(points, 3)
        assert per_column == [(221, 9)]
        # the modulus after s steps is p^(s + 1): step 221 is the first past
        # the guard, and not a power of 2
        [guard] = guards
        assert self.P**221 <= guard < self.P**222
        assert all(vanishes_at(fit, pt) for pt in points)


class TestThreeReferences:
    """The modular kernel, fraction-free Bareiss and Gauss-Jordan agree on
    the benchmark's fit shapes."""

    @pytest.mark.parametrize(
        "points",
        [hyperplane_joints(range(1, 8)), cube_points(4, 3)],
        ids=["hyperplanes-1..7", "grid(3,4)"],
    )
    def test_fit_matrices(self, points):
        matrix = fit_matrix(points, 3)
        rows = integer_rows(matrix)
        assert rank(rows) == rank_bareiss(matrix) == rank_naive(matrix)
        x = nullspace_vector_naive(matrix)
        assert x is not None
        assert x == nullspace_vector_bareiss(matrix)
        assert nullspace_vector(rows) == integer_form(x)
