import random
import re
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab.constructions import grid, grid_plus_orphan, planar_bundle
from jointlab.curves import polynomial_from_text
from jointlab.errors import (
    ContradictionBugError,
    InternalInvariantViolation,
    ZeroPolynomialError,
)
from jointlab.exact import Point
from jointlab.files import line_to_dict
from jointlab.geometry import (
    Configuration,
    JointSet,
    Line,
    find_joints,
    find_s_joints,
    load_configuration,
    save_configuration,
)
from jointlab import geometry, pipeline, polynomial
from jointlab.pipeline import (
    ALL_PRUNED,
    BOUND_HOLDS,
    CONTRADICTION_BUG,
    DEGREE_NOT_DOMINATED,
    GRADIENT_ZERO,
    NOT_APPLICABLE,
    _check_prune_invariants,
    bound_check,
    bound_constant,
    cascade,
    gradient_at_joints_check,
    prune,
    trace,
    trace_to_dict,
)
from jointlab.polynomial import Polynomial, minimal_fit, monomial_basis, vanishes_on_line

from conftest import (
    box,
    grid_with_tripods,
    line_point,
    nine_hyperplanes,
    poly_product,
    walk_updates,
)


def F(v):
    return Fraction(v)


def vec(*vals):
    return tuple(Fraction(v) for v in vals)


def cube_product_poly(d=3, k=2):
    """Product over axes and grid levels of (x_i - j)."""
    factors = (f"x{i} - {j}" for i in range(1, d + 1) for j in range(k))
    return poly_product(d, [polynomial_from_text(f, d) for f in factors])


class TestBoundCheck:
    def test_grid_3_4(self):
        chk = bound_check(48, 64, 3)
        assert (chk.holds, chk.lhs, chk.rhs) == (True, 4096, 10616832)

    def test_trivial(self):
        chk = bound_check(1, 0, 3)
        assert chk.holds and chk.lhs == 0 and chk.rhs == 96

    def test_grid_4_2(self):
        chk = bound_check(32, 16, 4)
        assert (chk.holds, chk.lhs, chk.rhs) == (True, 4096, 805306368)

    def test_violation_is_representable(self):
        assert not bound_check(1, 100, 3).holds

    def test_validation(self):
        with pytest.raises(ValueError):
            bound_check(0, 1, 3)
        with pytest.raises(ValueError):
            bound_check(1, -1, 3)
        with pytest.raises(ValueError):
            bound_check(1, 1, 1)

    def test_display_constant(self):
        assert abs(bound_constant(3) - 96**0.5) < 1e-12
        for d in range(2, 151):
            power = float(2 ** (d + 1) * factorial(d)) ** (1 / (d - 1))
            assert f"{bound_constant(d):.6g}" == f"{power:.6g}", d
        assert f"{bound_constant(151):.6g}" == "117.837"


class TestPrune:
    def test_grid_untouched(self):
        config = grid(3, 2)
        result = prune(config, find_joints(config))
        assert result.threshold == F("1/3")
        assert result.removed_lines == ()
        assert result.removed_points == frozenset()
        assert len(result.survivors) == 8

    def test_orphan_removed(self):
        config = grid_plus_orphan(3, 2)
        result = prune(config, find_joints(config))
        assert result.threshold == F("4/13")
        assert len(result.removed_lines) == 1
        assert result.removed_lines[0].direction == vec(1, 1, 1)
        assert result.removed_points == frozenset()
        assert len(result.survivors) == 8
        assert result.surviving == grid(3, 2)

    def test_empty_joint_set_removes_nothing(self):
        config = planar_bundle(3, 5)
        result = prune(config, find_joints(config))
        assert result.threshold == 0
        assert result.removed_lines == ()
        assert len(result.survivors) == 0
        assert result.surviving == config

    def test_cascading_removal(self):
        config = grid_with_tripods()
        joints = find_joints(config)
        assert (config.n, len(joints)) == (152, 345)
        result = prune(config, joints)
        assert result.threshold == F("345/304")
        assert result.removed_lines == (
            Line(vec(10, 10, 0), vec(0, 0, 1)),
            Line(vec(20, 10, 0), vec(0, 0, 1)),
            Line(vec(10, 0, 10), vec(0, 1, 0)),
            Line(vec(20, 0, 10), vec(0, 1, 0)),
            Line(vec(0, 10, 10), vec(1, 0, 0)),
        )
        removed = {Point.of(vec(10, 10, 10)), Point.of(vec(20, 10, 10))}
        assert result.removed_points == removed
        assert result.surviving == grid(3, 7)

    def test_terminates_within_n_iterations(self, corpus):
        for name, config in corpus:
            result = prune(config, find_joints(config))
            assert len(result.removed_lines) <= config.n, name

    def test_joints_on_a_line_outside_the_configuration_are_bad_input(self):
        full = grid(3, 3)
        joints = find_joints(full)
        missing = full.sorted_lines()[4]
        config = Configuration(3, [line for line in full.lines if line != missing])
        first = next(p for p in joints.points if missing in joints.lines_through(p))
        with pytest.raises(ValueError, match=re.escape(f"joint {first} lies on")):
            prune(config, joints)


class TestPeelAtAnIntegralThreshold:
    """A hand-built joint set of 11 lines and 44 joints, m/(2n) = 2, so
    counts reach the threshold exactly while peeling: a line goes once it
    carries fewer than 2 joints, and stays with 2."""

    a, b, c, e, f, g, L, L2, h1, h2, h3 = (Line((i, 0, 0), (0, 0, 1)) for i in range(11))
    ITEMS = [a, b, c, e, f, g, L, L2, h1, h2, h3]
    J1, J2, J3 = (Point((i, 0, 0), 1) for i in (1, 2, 3))
    H = frozenset({h1, h2, h3})
    INCIDENCE = {
        J1: frozenset({L, a, b}),
        J2: frozenset({L, c, e}),
        J3: frozenset({L2, f, g}),
        # 41 joints on h1, h2 and h3, two of which also carry L2
        **dict.fromkeys((Point((0, k, 0), 1) for k in range(2)), H | {L2}),
        **dict.fromkeys((Point((0, k, 0), 1) for k in range(2, 41)), H),
    }

    def test_a_line_that_falls_below_the_threshold_goes(self):
        joints = JointSet(self.INCIDENCE)
        assert (len(self.ITEMS), len(joints)) == (11, 44)
        removed, removed_points, survivors, _ = pipeline.peel(self.ITEMS, joints)
        # L starts at 2 joints and falls to 1 when a goes
        assert removed == [self.a, self.b, self.c, self.e, self.f, self.g, self.L]
        assert removed_points == {self.J1, self.J2, self.J3}
        assert len(survivors) == 41

    def test_a_line_that_falls_to_the_threshold_stays(self):
        _, _, _, kept = pipeline.peel(self.ITEMS, JointSet(self.INCIDENCE))
        # L2 starts at 3 joints and falls to 2 when f goes
        assert kept == {self.L2: 2, self.h1: 41, self.h2: 41, self.h3: 41}


class TestPruneInvariantCheck:
    """Tampered survivors of grid(3,2) that the check must reject."""

    def check(self, surviving, survivors, threshold=F("1/3"), off_by=0):
        # the counts pruning would report, with the first one off by off_by
        counts = dict.fromkeys(surviving.sorted_lines(), 0)
        for p in survivors.points:
            for line in survivors.lines_through(p) & surviving.lines:
                counts[line] += 1
        counts[next(iter(counts))] += off_by
        _check_prune_invariants(surviving, survivors, threshold, counts)

    def tampered(self, point, through):
        incidence = dict(find_joints(grid(3, 2)).incidence)
        incidence[Point.of(point)] = frozenset(through)
        return JointSet(incidence)

    def test_untampered_passes(self):
        self.check(grid(3, 2), find_joints(grid(3, 2)))

    def test_stored_line_missing_its_point(self):
        off = Line(vec(1, 0, 0), vec(0, 1, 0))
        survivors = self.tampered(
            vec(0, 0, 0), [Line(vec(0, 0, 0), v) for v in (vec(1, 0, 0), vec(0, 0, 1))] + [off]
        )
        with pytest.raises(InternalInvariantViolation, match="misses it"):
            self.check(grid(3, 2), survivors)

    def test_stored_directions_below_full_rank(self):
        # three surviving lines through the origin, all in the plane z = 0
        coplanar = [Line(vec(0, 0, 0), v) for v in (vec(1, 0, 0), vec(0, 1, 0), vec(1, 1, 0))]
        surviving = Configuration(3, grid(3, 2).lines | set(coplanar))
        survivors = self.tampered(vec(0, 0, 0), coplanar)
        with pytest.raises(InternalInvariantViolation, match="no longer a joint"):
            self.check(surviving, survivors)

    def test_surviving_line_below_threshold(self):
        with pytest.raises(InternalInvariantViolation, match="< threshold"):
            self.check(grid(3, 2), find_joints(grid(3, 2)), threshold=F(3))

    @pytest.mark.parametrize("off_by", [1, -1])
    def test_counts_differ_from_the_recount(self, off_by):
        with pytest.raises(InternalInvariantViolation, match="differ from a recount"):
            self.check(grid(3, 2), find_joints(grid(3, 2)), off_by=off_by)

    def test_removed_line_still_referenced(self):
        removed = Line(vec(0, 0, 0), vec(1, 0, 0))
        surviving = Configuration(3, grid(3, 2).lines - {removed})
        with pytest.raises(InternalInvariantViolation, match="references a removed line"):
            self.check(surviving, find_joints(grid(3, 2)))


class TestCascade:
    def test_grid_product_poly(self):
        lines = grid(3, 2).lines
        assert cascade(cube_product_poly(), lines) == 1

    def test_poly_failing_on_its_own_line(self):
        x_axis = Line(vec(0, 0, 0), vec(1, 0, 0))
        assert cascade(polynomial_from_text("x1", 3), {x_axis}) == -1

    def test_poly_vanishing_but_derivative_failing(self):
        x_axis = Line(vec(0, 0, 0), vec(1, 0, 0))
        assert cascade(polynomial_from_text("x2", 3), {x_axis}) == 0

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            cascade(Polynomial(3, {}), grid(3, 2).lines)

    def test_empty_line_set_returns_degree_cap(self):
        p = polynomial_from_text("x1^2", 3)
        assert cascade(p, set()) == 2

    def test_second_mixed_partial_witness(self):
        # d^2/dx1 dx2 of the cube product restricted to a z-line is
        # (2a-1)(2b-1)(t^2 - t), nonzero; that is what stops the cascade.
        p = cube_product_poly()
        q = p.partial_derivative(0).partial_derivative(1)
        z_line = Line(vec(0, 0, 0), vec(0, 0, 1))
        restricted = q.evaluate(vec(0, 0, 2))
        assert restricted != 0
        assert not all(
            q.evaluate(line_point(z_line, t)) == 0 for t in range(4)
        )


class TestGradientCheck:
    def test_cube_product_all_applicable_and_zero(self):
        joints = find_joints(grid(3, 2))
        report = gradient_at_joints_check(cube_product_poly(), joints)
        assert report.count(GRADIENT_ZERO) == 8
        assert report.count(NOT_APPLICABLE) == 0

    def test_partial_vanishing_polynomial_not_applicable(self):
        joints = find_joints(grid(3, 2))
        report = gradient_at_joints_check(polynomial_from_text("x1^2 - x1", 3), joints)
        assert report.count(NOT_APPLICABLE) == 8

    def test_zero_polynomial_rejected(self):
        with pytest.raises(ZeroPolynomialError):
            gradient_at_joints_check(Polynomial(3, {}), find_joints(grid(3, 2)))

    def test_partials_derived_once_and_decided_in_integers(self, monkeypatch, built):
        # All 125 joints of grid(3,5) qualify for the product of x_i - k,
        # k = 0..4; its three partials are derived once, not at each joint,
        # and each gradient is decided zero without building a Fraction.
        p = cube_product_poly(3, 5)
        joints = find_joints(grid(3, 5))
        derive = Polynomial.partial_derivative
        axes = []

        def spy(q, axis):
            axes.append(axis)
            return derive(q, axis)

        monkeypatch.setattr(Polynomial, "partial_derivative", spy)
        built.clear()
        report = gradient_at_joints_check(p, joints)
        assert report.count(GRADIENT_ZERO) == 125
        assert axes == [0, 1, 2]
        assert built == []

    def test_nonzero_gradient_is_reported_as_fractions(self):
        # A point whose one incident line does not span: x2/2 vanishes on the
        # x1-axis, and its gradient (0, 1/2, 0) is not zero there.
        axis = Line(vec(0, 0, 0), vec(1, 0, 0))
        joints = JointSet({Point((0, 0, 0), 1): frozenset({axis})})
        with pytest.raises(InternalInvariantViolation) as err:
            gradient_at_joints_check(polynomial_from_text("1/2*x2", 3), joints)
        assert str(err.value).startswith(
            f"gradient {(F(0), F('1/2'), F(0))} nonzero at joint"
        )

    def test_random_spanning_products(self):
        # p = product over lines of a linear form vanishing on that line:
        # p vanishes on every line through the joint, so its gradient there
        # must be exactly zero.
        rng = random.Random(5)
        d = 3
        for _ in range(10):
            dirs = []
            while len(dirs) < 3:
                v = tuple(F(rng.randint(-4, 4)) for _ in range(d))
                if any(c != 0 for c in v):
                    dirs.append(v)
            lines = [Line(vec(0, 0, 0), v) for v in dirs]
            config = Configuration(d, set(lines))
            if len(config.lines) < 3:
                continue
            forms = []
            for line in config.sorted_lines():
                v = line.direction
                # a linear form with w . v = 0
                if v[0] != 0 or v[1] != 0:
                    w = (-v[1], v[0], F(0))
                else:
                    w = (F(1), F(0), F(0))
                form = Polynomial(
                    d, {tuple(1 if i == j else 0 for i in range(d)): w[j] for j in range(d)}
                )
                forms.append(form)
            p = poly_product(d, forms)
            if p.is_zero():
                continue
            joints = find_joints(config)
            report = gradient_at_joints_check(p, joints)
            for status in report.statuses.values():
                assert status == GRADIENT_ZERO


class TestTrace:
    def test_grid_3_2(self):
        result = trace(grid(3, 2))
        assert result.outcome == BOUND_HOLDS
        assert result.b == 2
        assert set(result.per_line_joint_counts.values()) == {2}
        degree_step = next(s for s in result.narrative if s.name == "degree")
        assert "2 <= 2" in degree_step.verdict

    def test_grid_3_4_records_counts_and_bound(self):
        result = trace(grid(3, 4))
        assert result.outcome == BOUND_HOLDS
        assert result.b == 6
        assert set(result.per_line_joint_counts.values()) == {4}
        assert len(result.per_line_joint_counts) == 48

    def test_fitted_line_pairs_are_decided_once(self, monkeypatch):
        """The fit step decides each of the 75 lines of grid(3,5); the
        cascade then starts at a line where the fit fails, and one more
        call settles order 0."""
        calls = []
        decide = pipeline.vanishes_on_line

        def counting(p, line):
            calls.append(line)
            return decide(p, line)

        monkeypatch.setattr(pipeline, "vanishes_on_line", counting)
        result = trace(grid(3, 5))
        assert result.cascade_order == -1
        assert len(calls) == 76
        assert calls[-1] in calls[:75] and not decide(result.fitted, calls[-1])

    def test_planar_bundle_all_pruned(self):
        result = trace(planar_bundle(3, 5))
        assert result.outcome == ALL_PRUNED
        assert result.b is None
        assert result.fitted is None

    def test_orphan_narrative(self):
        result = trace(grid_plus_orphan(3, 2))
        assert result.outcome == BOUND_HOLDS
        prune_step = next(s for s in result.narrative if s.name == "prune")
        assert "removed 1 line(s)" in prune_step.verdict

    def test_dimension_validation(self):
        with pytest.raises(ValueError):
            trace(Configuration(2, [Line(vec(0, 0), vec(1, 0))]))

    def test_never_contradiction_bug_on_corpus(self, corpus):
        for name, config in corpus:
            result = trace(config)
            assert result.outcome != CONTRADICTION_BUG, name
            assert result.outcome in (BOUND_HOLDS, ALL_PRUNED), name

    def test_box_forces_vanishing_on_its_long_lines(self):
        """box(4,4,1): 24 lines and 16 joints, b = deg p = 3, and the 8
        lines in the plane z = 0 carry 4 joints each, more than deg p."""
        result = trace(box((4, 4, 1)))
        assert result.outcome == BOUND_HOLDS
        assert (result.n, result.m, result.b, result.fitted.degree()) == (24, 16, 3, 3)
        counts = result.per_line_joint_counts
        forced = [line for line, count in counts.items() if count > 3]
        assert len(forced) == 8
        assert all(vanishes_on_line(result.fitted, line) for line in forced)

    def test_a_forced_line_the_fit_misses_is_a_bug(self, monkeypatch):
        forced = Line((0, 0, 0), (1, 0, 0))  # 4 joints of box(4,4,1)
        decide = pipeline.vanishes_on_line
        monkeypatch.setattr(
            pipeline, "vanishes_on_line", lambda p, line: line != forced and decide(p, line)
        )
        with pytest.raises(InternalInvariantViolation, match="4 zeros on"):
            trace(box((4, 4, 1)))


class TestOutcomeBranches:
    """The outcomes that no input reaches, since the bound holds and the
    cascade halts, driven by replacing what the trace calls."""

    @pytest.fixture
    def violated(self, monkeypatch):
        """The bound check reports every bound violated."""
        check = pipeline.bound_check
        monkeypatch.setattr(
            pipeline, "bound_check", lambda n, m, d: check(n, m, d)._replace(holds=False)
        )

    def test_a_violated_bound_and_a_short_line_are_not_dominated(self, violated):
        result = trace(grid(3, 5))  # 5 joints per line against b = 8
        assert result.outcome == DEGREE_NOT_DOMINATED
        bound_step = next(s for s in result.narrative if s.name == "bound")
        assert bound_step.verdict == "violated"

    def test_a_violated_bound_with_every_line_dominated_is_a_bug(
        self, violated, monkeypatch
    ):
        monkeypatch.setattr(pipeline, "min_fit_degree", lambda m, d: 4)
        with pytest.raises(InternalInvariantViolation, match="no failing step"):
            trace(grid(3, 5))

    def test_an_exhausted_cascade_raises_with_its_trace(self, monkeypatch):
        monkeypatch.setattr(pipeline, "cascade", lambda p, lines: p.degree())
        with pytest.raises(ContradictionBugError) as raised:
            trace(grid(3, 3))
        tr = raised.value.trace
        assert (tr.outcome, tr.cascade_order) == (CONTRADICTION_BUG, 4)
        assert [s.name for s in tr.narrative] == [
            "joints", "bound", "prune", "degree", "fit", "cascade", "outcome"
        ]


def affine_invariants(config: Configuration) -> dict:
    """What the trace's argument reads off a configuration that an
    invertible affine map keeps: the joints and the pruned lines (to be
    mapped), the 2-joint count, the minimal degree b* of a polynomial
    vanishing on the surviving joints, the trace's outcome, n, m and b, and
    the multiset of per-line counts."""
    joints = find_joints(config)
    pr = prune(config, joints)
    tr = trace(config)
    return {
        "joints": joints,
        "surviving": pr.surviving.lines,
        "2-joints": len(find_s_joints(config, 2)),
        "b*": minimal_fit(pr.survivors.points, config.dim).degree(),
        "trace": (tr.outcome, tr.n, tr.m, tr.b),
        "counts": sorted(tr.per_line_joint_counts.values()),
    }


@st.composite
def affine_maps(draw, d: int):
    """x -> M x + s with M = P L U: a permutation, a unit lower triangular
    and an invertible upper triangular matrix.  Unimodular maps take
    integer entries and a diagonal of 1 and -1; rational ones take rational
    entries and a nonzero rational diagonal.  The shift s is rational."""
    rational = draw(st.booleans())
    signs = st.sampled_from([1, -1])
    if rational:
        entry = st.builds(Fraction, st.integers(-3, 3), st.integers(1, 3))
        fractions = st.builds(Fraction, st.integers(1, 3), st.integers(1, 3))
        diagonal = st.builds(lambda sign, q: sign * q, signs, fractions)
    else:
        entry, diagonal = st.integers(-2, 2), signs
    lower = [[draw(entry) if j < i else int(i == j) for j in range(d)] for i in range(d)]
    upper = [
        [draw(entry) if j > i else draw(diagonal) if i == j else 0 for j in range(d)]
        for i in range(d)
    ]
    product = [
        [sum(lower[i][k] * upper[k][j] for k in range(d)) for j in range(d)]
        for i in range(d)
    ]
    rows = [product[i] for i in draw(st.permutations(range(d)))]
    shift = [
        draw(st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4))) for _ in range(d)
    ]
    return rows, shift


def apply_map(rows, shift, x) -> tuple:
    return tuple(sum(a * c for a, c in zip(row, x)) + s for row, s in zip(rows, shift))


class TestAffineInvariance:
    """Joints, incidences, the pruned set of lines and b* are affine notions,
    so an invertible rational affine map sends them to those of the image.

    The pruned set is order-free: it is the largest set in which each line
    keeps its frozen threshold of joints whose lines all survive.  The
    removal order, the fitted polynomial and the cascade order depend on
    coordinates and are not compared.  The images have off-axis directions
    and non-integer coordinates, which reach the pair filter's projection,
    the lines' canonical bases and the integer keys of points.
    """

    CONFIGS = {
        "grid(3,4)": lambda: grid(3, 4),
        "grid-orphan(3,3)": lambda: grid_plus_orphan(3, 3),
        "grid(4,2)": lambda: grid(4, 2),
        "hyperplanes": nine_hyperplanes,
    }

    @pytest.fixture(scope="class", params=list(CONFIGS))
    def source(self, request):
        config = self.CONFIGS[request.param]()
        return config, affine_invariants(config)

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_the_image_has_the_mapped_invariants(self, source, data):
        config, expected = source
        rows, shift = data.draw(affine_maps(config.dim))
        linear = [0] * config.dim

        def line_image(line):
            return Line(
                apply_map(rows, shift, line.base), apply_map(rows, linear, line.direction)
            )

        image = Configuration(config.dim, map(line_image, config.lines))
        got = affine_invariants(image)
        mapped = {
            Point.of(apply_map(rows, shift, p)): frozenset(map(line_image, lines))
            for p, lines in expected["joints"].incidence.items()
        }
        assert got.pop("joints") == JointSet(mapped)
        assert got.pop("surviving") == frozenset(map(line_image, expected["surviving"]))
        kept = {k: v for k, v in expected.items() if k not in ("joints", "surviving")}
        assert got == kept


class TestIntegerPoints:
    """Lines are read, built and sorted in integers, and joint points stay
    integers from the pair search through pruning."""

    FAMILIES = {
        "grid(3,5)": lambda: grid(3, 5),
        "grid-orphan(3,5)": lambda: grid_plus_orphan(3, 5),
        "hyperplanes": nine_hyperplanes,
    }

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_pair_search_and_prune_build_no_point_fractions(self, name, built):
        config = self.FAMILIES[name]()
        built.clear()
        for s in range(2, config.dim + 1):
            find_s_joints(config, s)
        assert built == []
        joints = find_joints(config)
        assert len(joints) in (125, 84)
        prune(config, joints)
        assert built == [(len(joints), 2 * config.n)]

    @pytest.mark.parametrize("config", [grid(3, 5), grid(4, 3)], ids=["3,5", "4,3"])
    def test_loading_an_all_integer_file_builds_no_fractions(
        self, config, tmp_path, built
    ):
        path = tmp_path / "grid.json"
        save_configuration(config, path)
        built.clear()
        assert load_configuration(path) == config
        assert built == []

    @pytest.mark.parametrize("form", ["int", "fraction"])
    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_building_and_sorting_lines_build_no_fractions(self, name, form, built):
        """Each line is given by another of its points and a non-primitive
        direction, as ints where integral or as Fractions throughout."""
        config = self.FAMILIES[name]()
        if form == "int":
            def entry(c):
                return int(c) if c.denominator == 1 else c
            scale = -2
        else:
            entry, scale = Fraction, Fraction(-3, 2)
        inputs = [
            (
                tuple(map(entry, line_point(line, 1))),
                tuple(entry(scale * c) for c in line.direction),
            )
            for line in reversed(config.sorted_lines())
        ]
        built.clear()
        rebuilt = Configuration(config.dim, [Line(*given) for given in inputs])
        order = rebuilt.sorted_lines()
        assert built == []
        assert rebuilt == config and order == config.sorted_lines()


class TestWorkCounts:
    """Deterministic work counters of a trace: the ranks its passes over the
    joints compute and the updates of its fit's walk."""

    FAMILIES = {
        "grid(3,5)": (lambda: grid(3, 5), 1),
        "grid(4,3)": (lambda: grid(4, 3), 1),
        "hyperplanes": (nine_hyperplanes, 84),
    }

    @pytest.fixture
    def ranked(self, monkeypatch):
        """The matrices geometry ranks from now on."""
        calls = []
        rank = geometry.rank

        def counting(rows):
            calls.append(rows)
            return rank(rows)

        monkeypatch.setattr(geometry, "rank", counting)
        return calls

    @pytest.mark.parametrize("name", list(FAMILIES))
    def test_each_direction_set_is_ranked_once_per_pass(self, name, ranked):
        # A grid's joints share one direction set, the axes; the 84 joints
        # of the hyperplanes have 84 distinct ones.
        build, sets = self.FAMILIES[name]
        config = build()
        joints = find_joints(config)
        assert len(ranked) == sets
        ranked.clear()
        prune(config, joints)
        assert len(ranked) == sets
        ranked.clear()
        trace(config)
        assert len(ranked) == 2 * sets

    @pytest.mark.parametrize(
        "build, evaluations",
        [
            (lambda: grid(3, 5), 206),
            (lambda: grid_plus_orphan(3, 5), 206),
            (lambda: grid(4, 3), 193),
            (nine_hyperplanes, 37),
        ],
        ids=["grid(3,5)", "grid-orphan(3,5)", "grid(4,3)", "hyperplanes"],
    )
    def test_vanishing_evaluations(self, monkeypatch, build, evaluations):
        # A grid line moves along one axis, so p's restriction to it has the
        # degree of p in that coordinate: 0 where the fit vanishes, and one
        # evaluation decides.  Testing at deg p + 1 parameters took 606,
        # 606 and 598.
        calls = []
        evaluator = polynomial._evaluator

        def counting(*args):
            value = evaluator(*args)

            def counted(nums):
                calls.append(nums)
                return value(nums)

            return counted

        monkeypatch.setattr(polynomial, "_evaluator", counting)
        trace(build())
        assert len(calls) == evaluations

    def test_grid_fit_walk_updates(self, monkeypatch):
        fitted = []
        nullspace_vector = polynomial.nullspace_vector

        def spy(rows, ends, exps):
            fitted.append((rows, ends, exps))
            return nullspace_vector(rows, ends, exps)

        monkeypatch.setattr(polynomial, "nullspace_vector", spy)
        trace(grid(3, 5))
        [(rows, ends, exps)] = fitted
        assert ends == ()  # the trace fits at the bound, with no early stop
        assert exps == monomial_basis(3, 8)
        assert (len(rows), len(rows[0])) == (125, 165)
        # the walk with the basis skips the 57 monomial multiples of the free
        # columns x_i^5; without it, it reduces all 60 free columns
        assert walk_updates(rows, exps=exps) == 607
        assert walk_updates(rows) == 955


class TestTraceJson:
    def test_counts_in_the_order_of_the_surviving_lines(self):
        """per_line_joint_counts is written in the survivors' sorted_lines()
        order, also when pruning removes a line from the middle of it."""
        extra = [Line(vec(0, 10, 0), vec(0, 1, 1)), Line(vec(20, 0, 0), vec(0, 1, -1))]
        config = Configuration(3, list(grid(3, 3).lines) + extra)
        survivors = prune(config, find_joints(config)).surviving
        assert survivors == grid(3, 3)
        order = config.sorted_lines()
        assert all(0 < order.index(line) < len(order) - 1 for line in extra)
        obj = trace_to_dict(trace(config))
        written = [entry["line"] for entry in obj["per_line_joint_counts"]]
        assert written == [line_to_dict(line) for line in survivors.sorted_lines()]

    def test_integers_serialized_as_strings(self):
        obj = trace_to_dict(trace(grid(3, 2)))
        assert obj["outcome"] == BOUND_HOLDS
        assert obj["n"] == "12"
        assert obj["m"] == "8"
        assert obj["b"] == "2"
        assert obj["threshold"] == "1/3"
        assert obj["fitted"] == "x1^2 - x1"
        assert obj["cascade_order"] == "-1"
        assert all(rec["count"] == "2" for rec in obj["per_line_joint_counts"])
        assert [s["step"] for s in obj["narrative"]] == [
            "joints",
            "bound",
            "prune",
            "degree",
            "fit",
            "cascade",
            "outcome",
        ]

    def test_all_pruned_serialization(self):
        obj = trace_to_dict(trace(planar_bundle(3, 5)))
        assert obj["outcome"] == ALL_PRUNED
        assert obj["b"] is None
        assert obj["fitted"] is None
        assert obj["per_line_joint_counts"] == []
