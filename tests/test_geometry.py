import json
import logging
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jointlab.constructions import grid, random_config
from jointlab.errors import (
    DimensionMismatchError,
    FileFormatError,
    IdenticalLinesError,
)
from jointlab import geometry
from jointlab.exact import Point
from jointlab.files import configuration_from_dict, configuration_to_dict
from jointlab.geometry import (
    Configuration,
    Line,
    direction_rank,
    find_joints,
    find_s_joints,
    incident,
    is_joint,
    line_line_intersection,
    load_configuration,
    save_configuration,
)
from jointlab.projection import mat_vec, project_to_generic_flat

from conftest import cube_points, line_point


def F(v):
    return Fraction(v)


def vec(*vals):
    return tuple(Fraction(v) for v in vals)


def pt(*vals):
    return Point.of(vec(*vals))


X_AXIS = Line(vec(0, 0, 0), vec(1, 0, 0))
Y_AXIS = Line(vec(0, 0, 0), vec(0, 1, 0))
Z_AXIS = Line(vec(0, 0, 0), vec(0, 0, 1))

rationals = st.fractions(min_value=-9, max_value=9, max_denominator=5)


def vectors(dim):
    return st.tuples(*([rationals] * dim))


def lines(dim=3):
    return st.builds(
        Line,
        vectors(dim),
        vectors(dim).filter(lambda v: any(c != 0 for c in v)),
    )


class TestLineCanonicalization:
    def test_direction_is_primitive_with_positive_leading_entry(self):
        line = Line(vec(0, 0, 0), vec(-2, 4, -6))
        assert line.direction == vec(1, -2, 3)

    def test_rational_direction_cleared(self):
        line = Line(vec(0, 0), vec(F("1/2"), F("1/3")))
        assert line.direction == vec(3, 2)

    def test_base_is_perpendicular_foot(self):
        line = Line(vec(5, 0, 0), vec(1, 0, 0))
        assert tuple(line.base) == vec(0, 0, 0)

    def test_same_line_from_different_representations(self):
        a = Line(vec(1, 2, 3), vec(2, 2, 2))
        b = Line(vec(4, 5, 6), vec(-1, -1, -1))
        assert a == b
        assert hash(a) == hash(b)

    def test_zero_direction_rejected(self):
        with pytest.raises(ValueError):
            Line(vec(0, 0, 0), vec(0, 0, 0))

    def test_mismatched_vectors_rejected(self):
        with pytest.raises(DimensionMismatchError):
            Line(vec(0, 0), vec(1, 0, 0))

    @given(lines())
    @settings(max_examples=80)
    def test_canonicalization_idempotent(self, line):
        assert Line(line.base, line.direction) == line
        assert dot_is_zero(line)


def hyperplane_lines(ts):
    """Lines of the hyperplanes x.(1,t,t^2) = t^3: line(a,b) is their meet."""
    return [
        Line((0, -a * b, a + b), (a * b, -(a + b), 1))
        for i, a in enumerate(ts)
        for b in ts[i + 1 :]
    ]


FAMILIES = {
    "grid": grid(3, 3).sorted_lines(),
    "random": random_config(4, 30, 5, 10).sorted_lines(),
    "hyperplanes": hyperplane_lines([F(0), F(1), F(-2), F("1/2"), F("-4/3"), F(3)]),
}


class TestLineIdentity:
    """Lines are set members and dict keys: the cached hash and the equality
    must agree with the (direction, base) pair of the canonical form."""

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_hash_is_that_of_base_and_direction(self, family):
        for line in FAMILIES[family]:
            assert hash(line) == hash((line.direction, line.base))

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_rewritten_lines_are_equal_and_hash_equal(self, family):
        for k, line in enumerate(FAMILIES[family]):
            scale = Fraction(-3, 2) if k % 2 else Fraction(5)
            shifted = line_point(line, Fraction(k + 1, 3))
            other = Line(shifted, tuple(scale * c for c in line.direction))
            assert other == line and not other != line
            assert hash(other) == hash(line)
            assert other in set(FAMILIES[family])

    @pytest.mark.parametrize("family", sorted(FAMILIES))
    def test_distinct_lines_are_unequal(self, family):
        lines = FAMILIES[family]
        assert len(set(lines)) == len(lines)
        assert all(a != b for i, a in enumerate(lines) for b in lines[i + 1 :])

    @given(lines(), lines())
    @settings(max_examples=80)
    def test_equality_matches_base_and_direction(self, a, b):
        assert (a == b) == ((a.base, a.direction) == (b.base, b.direction))

    def test_other_types_compare_unequal(self):
        pair = (X_AXIS.base, X_AXIS.direction)
        assert X_AXIS.__eq__(pair) is NotImplemented
        assert X_AXIS != pair and pair != X_AXIS
        assert X_AXIS != "x-axis" and X_AXIS != None  # noqa: E711
        config = Configuration(3, [X_AXIS])
        assert config.__eq__((3, frozenset([X_AXIS]))) is NotImplemented
        assert config != (3, frozenset([X_AXIS])) and config != X_AXIS

    def test_lines_are_immutable(self):
        line = Line(vec(1, 2, 3), vec(0, 0, 1))
        with pytest.raises(AttributeError):
            line.base = vec(0, 0, 0)
        with pytest.raises(AttributeError):
            line.direction = vec(1, 0, 0)
        assert tuple(line.base) == vec(1, 2, 0)

    def test_configuration_identity(self):
        empty = Configuration(3)
        assert empty.n == 0 and empty.lines == frozenset()
        assert empty == Configuration(3, frozenset()) != Configuration(4)
        same = Configuration(3, [Y_AXIS, X_AXIS])
        assert same == Configuration(3, iter([X_AXIS, Y_AXIS, X_AXIS]))
        assert same.sorted_lines() == (Y_AXIS, X_AXIS)
        assert hash(same) == hash((3, frozenset([X_AXIS, Y_AXIS])))
        with pytest.raises(AttributeError):
            same.dim = 4


@st.composite
def configurations(draw):
    """Lines in d = 2..5 on a few shared directions, with bases of mixed
    signs and denominators."""
    dim = draw(st.integers(2, 5))
    entries = st.integers(-3, 3)
    directions = draw(
        st.lists(st.tuples(*[entries] * dim).filter(any), min_size=1, max_size=3)
    )
    coordinate = st.builds(Fraction, st.integers(-9, 9), st.sampled_from((1, 2, 3, 4, 6, 7)))
    drawn = draw(
        st.lists(
            st.tuples(st.tuples(*[coordinate] * dim), st.sampled_from(directions)),
            max_size=20,
        )
    )
    return dim, [Line(base, direction) for base, direction in drawn]


class TestConfigurationOrder:
    @given(configurations())
    @settings(max_examples=150, deadline=None)
    def test_lines_sort_as_direction_then_fraction_base(self, drawn):
        dim, lines = drawn
        expected = sorted(set(lines), key=lambda l: (l.direction, tuple(l.base)))
        assert list(Configuration(dim, lines).sorted_lines()) == expected
        assert Configuration(dim, reversed(lines)).sorted_lines() == tuple(expected)


def dot_is_zero(line):
    return sum(b * v for b, v in zip(line.base, line.direction)) == 0


class TestIncidence:
    def test_point_on_x_axis(self):
        assert incident(X_AXIS, pt(5, 0, 0))

    def test_point_off_x_axis(self):
        assert not incident(X_AXIS, pt(5, 1, 0))

    def test_rational_parameter(self):
        line = Line(vec(0, 0, 0), vec(1, 2, 3))
        assert incident(line, pt(F("1/2"), 1, F("3/2")))

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            incident(X_AXIS, pt(1, 0))

    @given(lines(), rationals)
    @settings(max_examples=80)
    def test_incident_at_every_parameter(self, line, t):
        assert incident(line, Point.of(line_point(line, t)))


class TestIntersection:
    def test_axes_meet_at_origin(self):
        assert line_line_intersection(X_AXIS, Y_AXIS) == pt(0, 0, 0)

    def test_parallel_lines(self):
        shifted = Line(vec(0, 1, 0), vec(1, 0, 0))
        assert line_line_intersection(X_AXIS, shifted) is None

    def test_skew_lines(self):
        l1 = Line(vec(0, 0, 0), vec(1, 1, 0))
        l2 = Line(vec(1, 0, 0), vec(0, 1, 1))
        assert line_line_intersection(l1, l2) is None

    def test_identical_lines_rejected(self):
        with pytest.raises(IdenticalLinesError):
            line_line_intersection(X_AXIS, Line(vec(7, 0, 0), vec(2, 0, 0)))

    def test_generic_crossing(self):
        l1 = Line(vec(0, 0, 0), vec(1, 1, 1))
        l2 = Line(vec(2, 0, 0), vec(-1, 1, 1))
        assert line_line_intersection(l1, l2) == pt(1, 1, 1)

    @given(lines(), lines())
    @settings(max_examples=60)
    def test_symmetric(self, l1, l2):
        if l1 == l2:
            return
        assert line_line_intersection(l1, l2) == line_line_intersection(l2, l1)


class TestDirectionRank:
    def test_axes_span(self):
        assert direction_rank({X_AXIS, Y_AXIS, Z_AXIS}) == 3

    def test_parallel_directions_collapse(self):
        a = Line(vec(0, 0, 0), vec(1, 0, 0))
        b = Line(vec(0, 1, 0), vec(2, 0, 0))
        assert direction_rank({a, b}) == 1

    def test_three_diagonals(self):
        ls = {
            Line(vec(0, 0, 0), vec(1, 1, 0)),
            Line(vec(0, 0, 0), vec(1, 0, 1)),
            Line(vec(0, 0, 0), vec(0, 1, 1)),
        }
        assert direction_rank(ls) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            direction_rank(set())


class TestJointPredicates:
    def test_origin_of_axes_is_joint(self):
        config = Configuration(3, [X_AXIS, Y_AXIS, Z_AXIS])
        assert is_joint(config, pt(0, 0, 0))

    def test_coplanar_concurrent_lines_are_not_a_joint(self):
        config = Configuration(
            3,
            [
                Line(vec(0, 0, 0), vec(1, 0, 0)),
                Line(vec(0, 0, 0), vec(0, 1, 0)),
                Line(vec(0, 0, 0), vec(1, 1, 0)),
            ],
        )
        assert not is_joint(config, pt(0, 0, 0))

    def test_grid_point_is_joint(self):
        assert is_joint(grid(3, 2), pt(1, 0, 1))

    def test_s_joint_two_lines(self):
        config = Configuration(3, [X_AXIS, Y_AXIS])
        assert pt(0, 0, 0) in find_s_joints(config, 2)

    def test_single_line_never_an_s_joint(self):
        config = Configuration(3, [X_AXIS])
        assert pt(1, 0, 0) not in find_s_joints(config, 2)

    def test_grid_origin_is_3_joint(self):
        assert pt(0, 0, 0) in find_s_joints(grid(3, 2), 3)

    def test_s_out_of_range(self):
        config = Configuration(3, [X_AXIS])
        with pytest.raises(ValueError):
            find_s_joints(config, 1)
        with pytest.raises(ValueError):
            find_s_joints(config, 4)


class TestFindJoints:
    def test_grid_3_2(self):
        joints = find_joints(grid(3, 2))
        assert joints.points == tuple(cube_points(2, 3))

    def test_grid_4_2(self):
        assert len(find_joints(grid(4, 2))) == 16

    def test_lines_in_one_plane_have_no_joints(self):
        lines = [Line(vec(0, j, 0), vec(1, j + 1, 0)) for j in range(6)]
        assert len(find_joints(Configuration(3, lines))) == 0

    def test_incidence_invariants(self):
        config = grid(3, 3)
        joints = find_joints(config)
        for p in joints.points:
            through = joints.lines_through(p)
            assert len(through) >= config.dim
            assert direction_rank(through) == config.dim
            for line in through:
                assert incident(line, p)

    def test_empty_configuration(self):
        assert len(find_joints(Configuration(3))) == 0


def coplanar(a, b):
    """(base_b - base_a) . (v_a x v_b) = 0, in Fractions (3-space only)."""
    u, v = a.direction, b.direction
    cross = [u[i] * v[j] - u[j] * v[i] for i, j in ((1, 2), (2, 0), (0, 1))]
    return sum((p - q) * c for p, q, c in zip(b.base, a.base, cross)) == 0


class TestPairFilterWork:
    @pytest.fixture
    def met(self, monkeypatch):
        """The pairs that find_s_joints hands to the exact pair test."""
        calls = []
        meet = geometry._meet
        monkeypatch.setattr(
            geometry, "_meet", lambda a, b: calls.append(frozenset((a, b))) or meet(a, b)
        )
        return calls

    def test_meet_runs_only_on_the_coplanar_pairs(self, met):
        """In 3-space the side filter admits exactly the coplanar pairs, so
        the exact pair test runs on 68 of the 19,900 pairs here, of which
        60 meet and 8 are parallel."""
        config = random_config(3, 200, 653160, 10)
        lines = config.sorted_lines()
        expected = {
            frozenset((a, b))
            for i, a in enumerate(lines)
            for b in lines[i + 1 :]
            if coplanar(a, b)
        }
        find_joints(config)
        assert len(expected) == 68
        assert len(met) == len(expected) and set(met) == expected
        parallel = [pair for pair in met if len({l.direction for l in pair}) == 1]
        assert len(parallel) == 8

    def test_every_planar_pair_is_met(self, met):
        lines = [Line(vec(j, 0), vec(1, j + 1)) for j in range(6)]
        find_s_joints(Configuration(2, lines), 2)
        assert len(met) == 15


class TestFindSJoints:
    def test_grid_s2(self):
        assert len(find_s_joints(grid(3, 2), 2)) == 8

    def test_two_concurrent_lines(self):
        config = Configuration(3, [X_AXIS, Y_AXIS])
        s_joints = find_s_joints(config, 2)
        assert s_joints.points == (pt(0, 0, 0),)

    def test_parallel_family(self):
        lines = [Line(vec(0, j, 0), vec(1, 0, 0)) for j in range(5)]
        assert len(find_s_joints(Configuration(3, lines), 2)) == 0


class TestProjection:
    def test_grid_projection_preserves_incidences(self):
        config = grid(3, 2)
        joints = find_joints(config)
        projection = project_to_generic_flat(config, 2, 7)
        assert projection.config.dim == 2
        assert projection.config.n == 12
        projected_joints = find_joints(projection.config)
        for p in joints.points:
            image = Point.of(mat_vec(projection.matrix, p))
            # incident to the images of exactly its original three lines
            m = projection.matrix
            expected = frozenset(
                Line(mat_vec(m, l.base), mat_vec(m, l.direction))
                for l in joints.lines_through(p)
            )
            assert projected_joints.lines_through(image) == expected

    def test_every_s_joint_maps_to_a_joint(self):
        config = grid(3, 2)
        s_joints = find_s_joints(config, 2)
        projection = project_to_generic_flat(config, 2, 3)
        for p in s_joints.points:
            image = Point.of(mat_vec(projection.matrix, p))
            assert is_joint(projection.config, image)

    def test_s_equal_to_dim_rejected(self):
        with pytest.raises(ValueError):
            project_to_generic_flat(grid(3, 2), 3, 1)

    def test_single_line(self):
        config = Configuration(3, [X_AXIS])
        projection = project_to_generic_flat(config, 2, 5)
        assert projection.config.dim == 2
        assert projection.config.n == 1

    def test_deterministic_per_seed(self):
        config = grid(3, 2)
        a = project_to_generic_flat(config, 2, 11)
        b = project_to_generic_flat(config, 2, 11)
        assert a.matrix == b.matrix
        assert a.config == b.config


class TestConfigurationFiles:
    def test_round_trip(self, tmp_path):
        config = grid(3, 2)
        path = tmp_path / "g.json"
        save_configuration(config, path)
        assert load_configuration(path) == config

    def test_writer_sorts_lines(self, tmp_path):
        config = grid(3, 2)
        obj = configuration_to_dict(config)
        keys = [(tuple(l["dir"]), tuple(l["base"])) for l in obj["lines"]]
        assert keys == sorted(keys)

    def test_reader_deduplicates_with_warning(self, caplog):
        obj = {
            "dim": 3,
            "lines": [
                {"base": ["0", "0", "0"], "dir": ["1", "0", "0"]},
                {"base": ["0", "0", "0"], "dir": ["2", "0", "0"]},
            ],
        }
        with caplog.at_level(logging.WARNING, logger="jointlab.files"):
            config = configuration_from_dict(obj)
        assert config.n == 1
        assert "deduplicated 1" in caplog.text

    def test_reader_normalizes_to_canonical_form(self):
        obj = {"dim": 3, "lines": [{"base": ["5", "0", "0"], "dir": ["-3", "0", "0"]}]}
        config = configuration_from_dict(obj)
        (line,) = config.lines
        assert line == X_AXIS

    @pytest.mark.parametrize(
        "obj, fragment",
        [
            ({"dim": "3", "lines": []}, "dim"),
            ({"dim": 3, "lines": [{"base": ["0", "0"], "dir": ["1", "0", "0"]}]}, "lines[0].base"),
            ({"dim": 3, "lines": [{"base": ["0", "0", "0"], "dir": ["1", "0", "1/0"]}]}, "lines[0].dir[2]"),
            ({"dim": 3, "lines": [{"base": ["0", "0", "0"], "dir": ["0", "0", "0"]}]}, "lines[0]"),
            ({"dim": 3}, "lines"),
            ([{"dim": 3, "lines": []}], "top level: expected an object"),
            ({"dim": 1, "lines": []}, "dim: expected an integer >= 2"),
            ({"dim": True, "lines": []}, "dim: expected an integer >= 2"),
            ({"dim": 3, "lines": {}}, "lines: expected a list"),
            ({"dim": 3, "lines": [[]]}, "lines[0]: expected an object"),
            ({"dim": 3, "lines": [{"base": [0, "0", "0"], "dir": ["1", "0", "0"]}]},
             "lines[0].base[0]: rationals must be strings"),
            ({"dim": 3, "lines": [{"base": ["0", "0", "0"], "dir": ["1", "0", "1/"]}]},
             "lines[0].dir[2]: invalid rational literal '1/'"),
        ],
    )
    def test_malformed_inputs_name_the_field(self, obj, fragment):
        with pytest.raises(FileFormatError) as err:
            configuration_from_dict(obj)
        assert fragment in str(err.value)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        with pytest.raises(FileFormatError) as err:
            load_configuration(path)
        assert str(err.value) == (
            f"{path}: not valid JSON (Expecting property name enclosed in "
            "double quotes: line 1 column 2 (char 1))"
        )
