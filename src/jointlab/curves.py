"""Joints of polynomially parametrized curves.

Scope note: curves here are given by polynomial coordinate functions of one
parameter (lines, moment-type curves, and friends), not by implicit
equations.  Restricting a d-variate polynomial to such a curve is exact
substitution, and "vanishes identically on the curve" reduces to the
univariate root bound: a restriction of degree <= deg(p) * deg(curve) with
more distinct roots than that is the zero polynomial.

Curve joints are verified from claimed (curve, parameter) pairs rather than
searched for globally; curve-curve intersection solving is out of scope.
"""

from __future__ import annotations

from fractions import Fraction
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, FileFormatError
from .exact import Point, _Frozen, integer_form, rank
from .geometry import JointSet, Line, parse_coords, read_items, read_json
from .pipeline import peel
from .polynomial import (
    Polynomial,
    UniPoly,
    substitute,
    uni_derivative,
    uni_eval,
    uni_trim,
)

if TYPE_CHECKING:
    from .exact import Vector


class ParamCurve(_Frozen):
    """A curve t -> (c_1(t), ..., c_d(t)) with polynomial coordinates."""

    __slots__ = ("coords",)

    def __init__(self, coords: tuple[UniPoly, ...]):
        coords = tuple(uni_trim(c) for c in coords)
        if len(coords) < 2:
            raise ValueError("curves need ambient dimension >= 2")
        if max((len(c) - 1 for c in coords), default=-1) < 1:
            raise ValueError("curve must have a nonconstant coordinate")
        object.__setattr__(self, "coords", coords)

    def __eq__(self, other):
        if other.__class__ is not ParamCurve:
            return NotImplemented
        return self.coords == other.coords

    def __hash__(self):
        return hash((self.coords,))

    def __repr__(self):
        return f"ParamCurve(coords={self.coords!r})"

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def degree(self) -> int:
        return max(len(c) - 1 for c in self.coords)

    def point_at(self, t) -> Vector:
        return tuple(uni_eval(c, t) for c in self.coords)


def line_as_curve(line: Line) -> ParamCurve:
    """Degree-1 curve tracing base + t * direction, in Fraction coefficients."""
    return ParamCurve(tuple(zip(line.base, line.direction)))


class CurveConfiguration(_Frozen):
    """Curves sharing one ambient dimension; n is the total degree."""

    __slots__ = ("dim", "curves")

    def __init__(self, dim: int, curves: tuple[ParamCurve, ...]):
        for c in curves:
            if c.dim != dim:
                raise DimensionMismatchError(
                    f"curve of dimension {c.dim} in {dim}-dimensional configuration"
                )
        object.__setattr__(self, "dim", dim)
        object.__setattr__(self, "curves", curves)

    def __eq__(self, other):
        if other.__class__ is not CurveConfiguration:
            return NotImplemented
        return self.dim == other.dim and self.curves == other.curves

    def __hash__(self):
        return hash((self.dim, self.curves))

    @property
    def total_degree(self) -> int:
        return sum(c.degree for c in self.curves)


def tangent_at(curve: ParamCurve, t0) -> Vector | None:
    """Velocity vector at parameter t0; None at a singular (zero) velocity."""
    velocity = tuple(uni_eval(uni_derivative(c), t0) for c in curve.coords)
    if all(v == 0 for v in velocity):
        return None
    return velocity


def curve_joint(pairs: Sequence[tuple[ParamCurve, Fraction]]) -> bool:
    """True iff the (curve, parameter) pairs witness a joint.

    All evaluations must agree on one point, at least d distinct curves must
    appear, and the tangents there must span all of d-space (a singular
    tangent contributes nothing to the span).
    """
    if not pairs:
        return False
    d = pairs[0][0].dim
    for curve, _ in pairs:
        if curve.dim != d:
            raise DimensionMismatchError("curves live in different dimensions")
    points = {curve.point_at(t) for curve, t in pairs}
    if len(points) != 1:
        return False
    if len({curve for curve, _ in pairs}) < d:
        return False
    tangents = []
    for curve, t in pairs:
        tangent = tangent_at(curve, t)
        if tangent is not None:
            tangents.append(tangent)
    if not tangents:
        return False
    return rank([integer_form(tangent)[0] for tangent in tangents]) == d


def curve_joint_set(
    groups: Iterable[Sequence[tuple[ParamCurve, Fraction]]]
) -> JointSet:
    """Verify each claimed group of (curve, parameter) pairs and collect the
    resulting joints with their incident curves.  Each joint's Fraction
    point is made a Point once, so curve and line joints share one point
    type and one :func:`~jointlab.pipeline.peel`."""
    incidence: dict[Point, frozenset[ParamCurve]] = {}
    for group in groups:
        if not curve_joint(group):
            raise ValueError(f"claimed joint is not one: {group!r}")
        point = Point.of(group[0][0].point_at(group[0][1]))
        curves = frozenset(curve for curve, _ in group)
        incidence[point] = incidence.get(point, frozenset()) | curves
    return JointSet(incidence)


def restrict_to_curve(p: Polynomial, curve: ParamCurve) -> UniPoly:
    """Substitute the curve's coordinate polynomials into p.

    The result has degree <= deg(p) * curve.degree, and is identically zero
    exactly when p vanishes on the whole curve.
    """
    return substitute(p, curve.coords)


# ---------------------------------------------------------------------------
# JSON wire format: coefficient lists in ascending powers of t


def _curve_from_dict(raw, dim: int, where: str) -> ParamCurve:
    coords = raw.get("coords") if isinstance(raw, dict) else None
    if not isinstance(coords, list):
        raise ValueError("expected an object with coords")
    if len(coords) != dim:
        raise FileFormatError(f"{where}.coords: expected {dim} coordinate polynomials")
    return ParamCurve(
        tuple(parse_coords(c, f"{where}.coords[{j}]") for j, c in enumerate(coords))
    )


def curve_configuration_from_dict(obj) -> CurveConfiguration:
    dim, curves = read_items(obj, "curves", _curve_from_dict)
    return CurveConfiguration(dim, tuple(curves))


def load_curve_configuration(path) -> CurveConfiguration:
    return curve_configuration_from_dict(read_json(path))


class CurvePruneResult(NamedTuple):
    """Degree-weighted pruning fixpoint for curve configurations."""

    surviving: CurveConfiguration
    survivors: JointSet
    removed_curves: tuple[ParamCurve, ...]
    removed_points: frozenset[Point]
    thresholds: dict[ParamCurve, Fraction]


def curve_prune(cfg: CurveConfiguration, joints: JointSet) -> CurvePruneResult:
    """Remove curves carrying fewer than m * deg / (2n) surviving joints.

    The line fixpoint :func:`~jointlab.pipeline.peel`, which works each
    curve's threshold out from its degree; thresholds are frozen at the
    start, and fewer than m/2 joints are lost in total.  A curve listed more
    than once counts once, as a line does in a Configuration: n is the total
    degree of the distinct curves.  The result lists the thresholds as
    Fractions.
    """
    curves = sorted(set(cfg.curves), key=lambda c: (c.degree, c.coords))
    n = sum(c.degree for c in curves)
    if n < 1:
        raise ValueError("cannot prune an empty curve configuration")
    m = len(joints)
    thresholds = {c: Fraction(m * c.degree, 2 * n) for c in curves}
    removed, removed_points, survivors, kept = peel(curves, joints)
    return CurvePruneResult(
        surviving=CurveConfiguration(cfg.dim, tuple(kept)),
        survivors=survivors,
        removed_curves=tuple(removed),
        removed_points=frozenset(removed_points),
        thresholds=thresholds,
    )
