import random
import re
from fractions import Fraction

import pytest

from jointlab.curves import (
    CurveConfiguration,
    ParamCurve,
    curve_configuration_from_dict,
    curve_joint,
    curve_joint_set,
    curve_prune,
    line_as_curve,
    load_curve_configuration,
    polynomial_from_text,
    restrict_to_curve,
    substitute,
    tangent_at,
    uni_add,
    uni_mul,
)
from jointlab.constructions import grid
from jointlab.errors import DimensionMismatchError, FileFormatError
from jointlab.exact import Point
from jointlab.files import write_json
from jointlab.geometry import Line, find_joints
from jointlab.polynomial import Polynomial, monomial_basis, restrict_to_line

from conftest import curve_joint_groups, line_point
from oracles import vanishes_on_curve_by_sampling


def F(v):
    return Fraction(v)


def vec(*vals):
    return tuple(Fraction(v) for v in vals)


def uni(*coeffs):
    return tuple(Fraction(c) for c in coeffs)


MOMENT = ParamCurve((uni(0, 1), uni(0, 0, 1), uni(0, 0, 0, 1)))
AXES = [
    ParamCurve((uni(0, 1), uni(0), uni(0))),
    ParamCurve((uni(0), uni(0, 1), uni(0))),
    ParamCurve((uni(0), uni(0), uni(0, 1))),
]


def poly(text, dim=3):
    return polynomial_from_text(text, dim)


class TestParamCurve:
    def test_degree_is_max_coordinate_degree(self):
        assert MOMENT.degree == 3
        assert AXES[0].degree == 1

    def test_constant_curves_rejected(self):
        with pytest.raises(ValueError):
            ParamCurve((uni(1), uni(2), uni(3)))

    def test_point_at(self):
        assert MOMENT.point_at(2) == Point((2, 4, 8), 1)
        assert MOMENT.point_at(F("-1/2")) == Point((-4, 2, -1), 8)

    def test_coordinates_are_integers_over_one_denominator(self):
        # (1/2 + t, -3/4 t^2, 0) over the least common denominator 4; the
        # zero coordinate and the trailing zeros are trimmed
        curve = ParamCurve(((F("1/2"), 1, 0), (0, 0, F("-3/4")), (0, 0)))
        assert (curve.coords, curve.den) == (((2, 4), (0, 0, -3), ()), 4)
        assert curve == ParamCurve(((2, 4), (0, 0, -3), ()), 4)
        assert curve == ParamCurve(((-4, -8), (0, 0, 6), (0,)), -8)
        assert curve.point_at(F("1/2")) == Point((16, -3, 0), 16)


class TestCurveIdentity:
    """Curves are set members and dict keys, like lines: equality and hash
    follow the trimmed coordinate polynomials."""

    def test_hash_is_that_of_the_coordinates(self):
        for curve in [MOMENT, *AXES, line_as_curve(Line(vec(1, 2, 3), vec(1, -1, 2)))]:
            assert hash(curve) == hash((curve.coords, curve.den))

    def test_trailing_zeros_do_not_matter(self):
        padded = ParamCurve((uni(0, 1, 0), uni(0, 0, 1, 0, 0), uni(0, 0, 0, 1)))
        assert padded == MOMENT and hash(padded) == hash(MOMENT)
        assert padded.coords == MOMENT.coords
        assert len({padded, MOMENT, *AXES}) == 4

    def test_other_types_compare_unequal(self):
        assert MOMENT.__eq__(MOMENT.coords) is NotImplemented
        assert MOMENT != MOMENT.coords and MOMENT != AXES[0]
        cfg = CurveConfiguration(3, (MOMENT,))
        assert cfg.__eq__((3, (MOMENT,))) is NotImplemented
        assert cfg != (3, (MOMENT,)) and cfg != MOMENT
        assert cfg == CurveConfiguration(3, (MOMENT,)) != CurveConfiguration(3, ())
        assert hash(cfg) == hash((3, (MOMENT,)))

    def test_curves_are_immutable(self):
        with pytest.raises(AttributeError):
            MOMENT.coords = AXES[0].coords
        with pytest.raises(AttributeError):
            CurveConfiguration(3, ()).dim = 4
        assert MOMENT.degree == 3


class TestTangent:
    def test_moment_curve(self):
        assert tangent_at(MOMENT, 1) == Point((1, 2, 3), 1)

    def test_line_as_curve_gives_direction(self):
        line = Line(vec(0, 0, 0), vec(1, 2, 3))
        curve = line_as_curve(line)
        assert tangent_at(curve, 0) == Point(line.direction, 1)
        assert tangent_at(curve, F("5/7")) == Point(line.direction, 1)

    def test_power_rule(self):
        # (5 + t + 3t^2, t): the velocity (1 + 6t, 1)
        curve = ParamCurve((uni(5, 1, 3), uni(0, 1)))
        assert tangent_at(curve, 0) == Point((1, 1), 1)
        assert tangent_at(curve, 1) == Point((7, 1), 1)
        assert curve.point_at(3) == Point((35, 3), 1)

    def test_cusp_has_no_tangent(self):
        cusp = ParamCurve((uni(0, 0, 1), uni(0, 0, 0, 1), uni(0, 0, 0, 0, 1)))
        assert tangent_at(cusp, 0) is None


class TestCurveJoint:
    def test_axes_at_origin(self):
        assert curve_joint([(c, F(0)) for c in AXES])

    def test_two_curves_are_not_enough(self):
        assert not curve_joint([(AXES[0], F(0)), (AXES[1], F(0))])

    def test_moment_plus_two_lines(self):
        l1 = ParamCurve((uni(1, 1), uni(1), uni(1)))  # (1+t, 1, 1)
        l2 = ParamCurve((uni(1), uni(1, 1), uni(1)))  # (1, 1+t, 1)
        # moment curve passes (1,1,1) at t=1 with tangent (1,2,3); rank 3
        assert curve_joint([(MOMENT, F(1)), (l1, F(0)), (l2, F(0))])

    def test_disagreeing_points(self):
        assert not curve_joint([(AXES[0], F(1)), (AXES[1], F(0)), (AXES[2], F(0))])

    def test_coplanar_tangents_fail(self):
        l1 = line_as_curve(Line(vec(0, 0, 0), vec(1, 0, 0)))
        l2 = line_as_curve(Line(vec(0, 0, 0), vec(0, 1, 0)))
        l3 = line_as_curve(Line(vec(0, 0, 0), vec(1, 1, 0)))
        assert not curve_joint([(l1, F(0)), (l2, F(0)), (l3, F(0))])

    def test_rational_parameter_with_unlike_tangent_denominators(self):
        # The moment curve at t = 1/2 passes (1/2, 1/4, 1/8) with tangent
        # (1, 1, 3/4); the others pass there at t = 0 with tangents
        # (0, 1/3, 0), (0, 0, 1/5) and (2/3, 2/3, 1/2), the last parallel
        # to the moment curve's.  Each tangent reaches the rank as integers.
        half = F("1/2")
        side = ParamCurve((uni(half), uni(F("1/4"), F("1/3")), uni(F("1/8"))))
        up = ParamCurve((uni(half), uni(F("1/4")), uni(F("1/8"), F("1/5"))))
        along = ParamCurve(
            (uni(half, F("2/3")), uni(F("1/4"), F("2/3")), uni(F("1/8"), half))
        )
        assert tangent_at(MOMENT, half) == Point.of(vec(1, 1, F("3/4")))
        assert tangent_at(along, 0) == Point.of(vec(F("2/3"), F("2/3"), half))
        assert curve_joint([(MOMENT, half), (side, F(0)), (up, F(0))])
        assert not curve_joint([(MOMENT, half), (side, F(0)), (along, F(0))])


class TestRestriction:
    def test_moment_curve_identities(self):
        assert restrict_to_curve(poly("x3 - x1*x2"), MOMENT) == ()
        assert restrict_to_curve(poly("x1"), MOMENT) == uni(0, 1)
        assert restrict_to_curve(poly("x2^2 - x1*x3"), MOMENT) == ()

    def test_degree_bound(self):
        p = poly("x2^2 - x1*x3")
        q = restrict_to_curve(poly("x2^2"), MOMENT)
        assert len(q) - 1 <= p.degree() * MOMENT.degree == 6

    def test_line_as_curve_matches_line_restriction(self):
        # the restriction at t is p at the line's point base + t * direction,
        # which the line's curve passes through at t
        rng = random.Random(31)
        basis = monomial_basis(3, 3)
        for _ in range(25):
            terms = {
                basis[rng.randrange(len(basis))]: F(rng.randint(-5, 5))
                for _ in range(rng.randint(1, 4))
            }
            p = Polynomial(3, terms)
            base = vec(*(rng.randint(-4, 4) for _ in range(3)))
            direction = vec(*(rng.randint(-3, 3) for _ in range(3)))
            if all(c == 0 for c in direction):
                continue
            line = Line(base, direction)
            curve, restriction = line_as_curve(line), restrict_to_line(p, line)
            assert len(restriction) - 1 <= p.degree()
            for t in (F(0), F(1), F(-2), F("3/2")):
                point = line_point(line, t)
                assert curve.point_at(t) == Point.of(point)
                value = sum(c * t**k for k, c in enumerate(restriction))
                assert value == p.evaluate(point)

    def test_agrees_with_sampling_oracle(self):
        for p in (poly("x2^2 - x1*x3"), poly("x1 - x2"), poly("x3 - x1^3")):
            samples = max(p.degree(), 0) * MOMENT.degree + 1
            assert (restrict_to_curve(p, MOMENT) == ()) == vanishes_on_curve_by_sampling(
                p, MOMENT, samples
            )


class TestUniPoly:
    def test_arithmetic(self):
        a = (1, 2)
        b = (0, 0, 1)
        assert uni_add(a, b) == (1, 2, 1)
        assert uni_mul(a, a) == (1, 4, 4)

    def test_trailing_zeros_trimmed(self):
        assert uni_add((1, 1), (0, -1)) == (1,)
        assert uni_mul((2, 0), (0, 3)) == (0, 6)


class TestSubstitute:
    def test_integer_numerators_over_one_denominator(self):
        # 3/4 x1^2 - 2 at x1 = (1 + 2t)/3, x2 = t/3: 3/4 (1 + 2t)^2/9 - 2,
        # weighted over 4 * 3^2
        p = poly("3/4*x1^2 - 2", 2)
        assert substitute(p, [(1, 2), (0, 1)], 3) == ((3 - 72, 12, 12), 36)
        assert substitute(poly("0", 2), [(1, 2), (0, 1)], 3) == ((), 1)
        assert substitute(poly("5", 2), [(1, 2), (0, 1)], 3) == ((5,), 1)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatchError) as err:
            restrict_to_curve(poly("x1", 2), MOMENT)
        assert str(err.value) == "polynomial dimension 2 vs 3 coordinates"


class TestCurvePrune:
    def test_orphan_curve_removed(self):
        orphan = ParamCurve((uni(0, 1), uni(1, 0, 1), uni(5)))
        cfg = CurveConfiguration(3, tuple(AXES) + (orphan,))
        joints = curve_joint_set([[(c, F(0)) for c in AXES]])
        result = curve_prune(cfg, joints)
        assert result.removed_curves == (orphan,)
        assert result.removed_points == frozenset()
        assert len(result.survivors) == 1
        # m=1, n=5: axis threshold 1/10, orphan (degree 2) threshold 1/5
        assert result.thresholds[AXES[0]] == F("1/10")
        assert result.thresholds[orphan] == F("1/5")

    def test_thresholds_scale_with_degree(self):
        # The conic carries 2 joints: below its threshold 343 * 2/(2 * 149),
        # though a flat threshold m/(2n) = 343/298 would keep it.
        conic = ParamCurve((uni(0, 2), uni(0, 0, 3), uni(0)))
        lines = grid(3, 7)
        groups = curve_joint_groups(find_joints(lines))
        groups[Point.of(vec(0, 0, 0))].append((conic, F(0)))
        groups[Point.of(vec(2, 3, 0))].append((conic, F(1)))
        cfg = CurveConfiguration(3, tuple(map(line_as_curve, lines.lines)) + (conic,))
        joints = curve_joint_set(groups.values())
        assert (cfg.total_degree, len(joints)) == (149, 343)
        result = curve_prune(cfg, joints)
        assert result.thresholds[conic] == F("343/149")
        assert result.removed_curves == (conic,)
        assert result.removed_points == {Point.of(vec(0, 0, 0)), Point.of(vec(2, 3, 0))}
        assert len(result.survivors) == 341

    def test_curve_listed_twice_prunes_as_listed_once(self):
        # Configuration dedupes lines; n is the distinct curves' total degree.
        orphan = ParamCurve((uni(0, 1), uni(1, 0, 1), uni(5)))
        joints = curve_joint_set([[(c, F(0)) for c in AXES]])
        listed_once = CurveConfiguration(3, tuple(AXES) + (orphan,))
        listed_twice = CurveConfiguration(3, (orphan, AXES[1]) + tuple(AXES) + (orphan,))
        assert listed_twice.total_degree == listed_once.total_degree == 5
        once = curve_prune(listed_once, joints)
        twice = curve_prune(listed_twice, joints)
        assert twice.removed_curves == once.removed_curves == (orphan,)
        assert twice.thresholds == once.thresholds
        assert twice.thresholds[orphan] == F("1/5")
        assert twice.surviving == once.surviving
        assert twice.survivors == once.survivors
        assert twice.removed_points == once.removed_points

    def test_joints_on_a_curve_outside_the_configuration_are_bad_input(self):
        lines = grid(3, 3)
        missing = line_as_curve(lines.sorted_lines()[4])
        joints = curve_joint_set(curve_joint_groups(find_joints(lines)).values())
        cfg = CurveConfiguration(
            3, tuple(c for c in map(line_as_curve, lines.lines) if c != missing)
        )
        first = next(p for p in joints.points if missing in joints.lines_through(p))
        with pytest.raises(ValueError, match=re.escape(f"joint {first} lies on")):
            curve_prune(cfg, joints)

    def test_empty_joint_set_removes_nothing(self):
        cfg = CurveConfiguration(3, tuple(AXES))
        result = curve_prune(cfg, curve_joint_set([]))
        assert result.removed_curves == ()

    def test_removed_points_below_half(self):
        # Joint at origin (three axes) and a second bundle at (5,5,5); an
        # orphan quartic forces one removal, losing no verified joints.
        shifted = [
            ParamCurve((uni(5, 1), uni(5), uni(5))),
            ParamCurve((uni(5), uni(5, 1), uni(5))),
            ParamCurve((uni(5), uni(5), uni(5, 1))),
        ]
        orphan = ParamCurve((uni(1, 0, 0, 0, 1), uni(2), uni(3)))
        cfg = CurveConfiguration(3, tuple(AXES) + tuple(shifted) + (orphan,))
        joints = curve_joint_set(
            [
                [(c, F(0)) for c in AXES],
                [(shifted[0], F(0)), (shifted[1], F(0)), (shifted[2], F(0))],
            ]
        )
        m = len(joints)
        result = curve_prune(cfg, joints)
        assert orphan in result.removed_curves
        assert len(result.removed_points) < Fraction(m, 2)


class TestCurveFiles:
    def test_wire_shape(self, tmp_path):
        path = tmp_path / "c.json"
        coords = [["0", "1"], ["0", "0", "1"], ["0", "0", "0", "1"]]
        write_json(path, {"dim": 3, "curves": [{"coords": coords}]})
        assert load_curve_configuration(path) == CurveConfiguration(3, (MOMENT,))

    def test_malformed_named_fields(self):
        with pytest.raises(FileFormatError) as err:
            curve_configuration_from_dict(
                {"dim": 3, "curves": [{"coords": [["0", "1"], ["x"], ["0"]]}]}
            )
        assert "curves[0].coords[1]" in str(err.value)
        x = {"coords": [["0", "1"], ["0"], ["0"]]}
        for obj, message in [
            ([], "top level: expected an object"),
            ({"dim": 1, "curves": []}, "dim: expected an integer >= 2"),
            ({"dim": True, "curves": []}, "dim: expected an integer >= 2"),
            ({"dim": 3, "curves": {}}, "curves: expected a list"),
            ({"dim": 3, "curves": [x, 5]}, "curves[1]: expected an object with coords"),
            ({"dim": 3, "curves": [{}]}, "curves[0]: expected an object with coords"),
            ({"dim": 3, "curves": [{"coords": [["0", "1"], ["0"]]}]},
             "curves[0].coords: expected 3 coordinate polynomials"),
            ({"dim": 3, "curves": [{"coords": [["1"], ["2", "0"], []]}]},
             "curves[0]: curve must have a nonconstant coordinate"),
            ({"dim": 3, "curves": [{"coords": [["0", 1], ["0"], ["0"]]}]},
             "curves[0].coords[0][1]: rationals must be strings"),
            ({"dim": 3, "curves": [{"coords": [["0", "1/0"], ["0"], ["0"]]}]},
             "curves[0].coords[0][1]: zero denominator in rational literal '1/0'"),
        ]:
            with pytest.raises(FileFormatError) as err:
                curve_configuration_from_dict(obj)
            assert str(err.value) == message

    def test_verified_joint_set_rejects_bad_claims(self):
        with pytest.raises(ValueError):
            curve_joint_set([[(AXES[0], F(0)), (AXES[1], F(0))]])
