"""Joints of polynomially parametrized curves.

Scope note: curves here are given by polynomial coordinate functions of one
parameter (lines, moment-type curves, and friends), not by implicit
equations.  Restricting a d-variate polynomial to such a curve is exact
substitution, and "vanishes identically on the curve" reduces to the
univariate root bound: a restriction of degree <= deg(p) * deg(curve) with
more distinct roots than that is the zero polynomial.

A curve keeps its coordinates in integers, in the value form of
:mod:`jointlab.exact`: integer coefficient numerators over one
denominator.  Its points and tangents are Points, and a
polynomial is substituted into it in integers.  Univariate polynomials are
plain coefficient tuples in ascending powers of the parameter, trailing
zeros trimmed, with the zero polynomial equal to the empty tuple; the
restriction that :func:`restrict_to_curve` returns is the one made of
Fractions.

Curve joints are verified from claimed (curve, parameter) pairs rather than
searched for globally; curve-curve intersection solving is out of scope.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from operator import mul
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

from .errors import DimensionMismatchError, FileFormatError
from .exact import Point, _Frozen, integer_form, lowest_terms, parse_rational, rank
from .files import parse_coords, read_items, read_json
from .geometry import JointSet, Line
from .polynomial import Polynomial

if TYPE_CHECKING:
    from numbers import Rational

    from .polynomial import MultiIndex

UniPoly = tuple[int, ...]


def uni_trim(coeffs: Iterable[int]) -> UniPoly:
    out = list(coeffs)
    while out and not out[-1]:
        out.pop()
    return tuple(out)


def uni_add(a: UniPoly, b: UniPoly) -> UniPoly:
    return uni_trim(x + y for x, y in zip_longest(a, b, fillvalue=0))


def uni_mul(a: UniPoly, b: UniPoly) -> UniPoly:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return uni_trim(out)


def _values_at(polys: Sequence[UniPoly], den: int, t: Rational, top: int) -> Point:
    """The values of the polynomials c_i / den at t = a/b, for a ``top`` at
    least their degree, as the Point (b^top c_i(a/b))_i / (den b^top): the
    integer sums of c_ik a^k b^(top - k)."""
    a, b = t.numerator, t.denominator
    weights = [a**k * b ** (top - k) for k in range(top + 1)]
    return Point([sum(map(mul, p, weights)) for p in polys], den * b**top)


class ParamCurve(_Frozen):
    """A curve t -> (c_1(t), ..., c_d(t)) / den with integer polynomial
    coordinates.

    ``coords`` holds each coordinate's coefficient numerators in ascending
    powers of t, trailing zeros trimmed, over one positive denominator
    ``den``.  The form is canonical: the constructor takes ints or
    Fractions, over an optional common denominator, scales them to integers
    once and puts them in :func:`~jointlab.exact.lowest_terms`, so equal
    curves have equal keys ``(coords, den)``.
    """

    __slots__ = ("coords", "den")

    def __init__(self, coords: Sequence[Sequence[Rational]], den: int = 1):
        if len(coords) < 2:
            raise ValueError("curves need ambient dimension >= 2")
        nums, scale = integer_form([c for coord in coords for c in coord])
        nums, den = lowest_terms(nums, den * scale)
        reduced = iter(nums)
        coords = tuple(uni_trim([next(reduced) for _ in coord]) for coord in coords)
        if max(map(len, coords)) < 2:
            raise ValueError("curve must have a nonconstant coordinate")
        self._freeze((coords, den), coords=coords, den=den)

    def __repr__(self):
        return f"ParamCurve(coords={self.coords!r}, den={self.den})"

    @property
    def dim(self) -> int:
        return len(self.coords)

    @property
    def degree(self) -> int:
        return max(map(len, self.coords)) - 1

    def point_at(self, t: Rational) -> Point:
        """The point at the parameter t, an int or a Fraction, computed in
        integers."""
        return _values_at(self.coords, self.den, t, self.degree)


def line_as_curve(line: Line) -> ParamCurve:
    """The degree-1 curve tracing base + t * direction, from the line's
    integer form: with the base a/q and the primitive direction v, the
    coordinates are (a_i + q v_i t) / q."""
    q = line.base.den
    return ParamCurve([(a, q * v) for a, v in zip(line.base.nums, line.direction)], q)


class CurveConfiguration(_Frozen):
    """Curves sharing one ambient dimension, in the order given; n is the
    total degree.  The key is ``(dim, curves)``."""

    __slots__ = ("dim", "curves")

    def __init__(self, dim: int, curves: tuple[ParamCurve, ...]):
        for c in curves:
            if c.dim != dim:
                raise DimensionMismatchError(
                    f"curve of dimension {c.dim} in {dim}-dimensional configuration"
                )
        self._freeze((dim, curves), dim=dim, curves=curves)

    @property
    def total_degree(self) -> int:
        """The total degree of the distinct curves: a curve listed more than
        once counts once, as a line does in a Configuration."""
        return sum(c.degree for c in set(self.curves))


def tangent_at(curve: ParamCurve, t0: Rational) -> Point | None:
    """The velocity at parameter t0, in the integer form of a Point; None at
    a singular (zero) velocity."""
    derivatives = [[k * c for k, c in enumerate(coord)][1:] for coord in curve.coords]
    velocity = _values_at(derivatives, curve.den, t0, curve.degree - 1)
    return velocity if any(velocity.nums) else None


def curve_joint(pairs: Sequence[tuple[ParamCurve, Rational]]) -> bool:
    """True iff the (curve, parameter) pairs witness a joint.

    All evaluations must agree on one Point, at least d distinct curves must
    appear, and the tangents there must span all of d-space (a singular
    tangent contributes nothing to the span).  The rank is that of the
    tangents' integer numerators, each a positive multiple of its tangent.
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
    tangents = [tangent_at(curve, t) for curve, t in pairs]
    return rank([v.nums for v in tangents if v is not None]) == d


def curve_joint_set(
    groups: Iterable[Sequence[tuple[ParamCurve, Rational]]]
) -> JointSet:
    """Verify each claimed group of (curve, parameter) pairs and collect the
    resulting joints with their incident curves.  Curve points are Points,
    so curve and line joints share one point type and one
    :func:`~jointlab.pipeline.peel`."""
    incidence: dict[Point, frozenset[ParamCurve]] = {}
    for group in groups:
        if not curve_joint(group):
            raise ValueError(f"claimed joint is not one: {group!r}")
        point = group[0][0].point_at(group[0][1])
        curves = frozenset(curve for curve, _ in group)
        incidence[point] = incidence.get(point, frozenset()) | curves
    return JointSet(incidence)


def substitute(
    p: Polynomial, coords: Sequence[UniPoly], den: int
) -> tuple[UniPoly, int]:
    """p(c_1(t) / den, ..., c_d(t) / den) for integer coefficient tuples
    c_i, as integer coefficient numerators over one denominator,
    ``(nums, p.den * den^T)`` with T = max(deg p, 0).

    As ``polynomial._evaluator`` does at a point, each term n_e x^e is
    weighted n_e den^(T - |e|), so the sum stays in integers.  Each power
    c_i^e is computed once, by one multiplication from c_i^(e-1), and shared
    by every term that needs it.
    """
    if p.dim != len(coords):
        raise DimensionMismatchError(
            f"polynomial dimension {p.dim} vs {len(coords)} coordinates"
        )
    top = max(p.degree(), 0)
    powers: list[list[UniPoly]] = [[(1,)] for _ in coords]
    total: UniPoly = ()
    for exps, n in p.terms.items():
        term: UniPoly = (n * den ** (top - sum(exps)),)
        for c, cached, e in zip(coords, powers, exps):
            if e:
                while len(cached) <= e:
                    cached.append(uni_mul(cached[-1], c))
                term = uni_mul(term, cached[e])
        total = uni_add(total, term)
    return total, p.den * den**top


def restrict_to_curve(p: Polynomial, curve: ParamCurve) -> tuple[Fraction, ...]:
    """Substitute the curve's coordinate polynomials into p, in integers;
    the coefficients are made Fractions for the result.

    The result has degree <= deg(p) * curve.degree, and is identically zero
    exactly when p vanishes on the whole curve.
    """
    nums, den = substitute(p, curve.coords, curve.den)
    return tuple(Fraction(n, den) for n in nums)


# ---------------------------------------------------------------------------
# polynomial text, as fit and trace print it, read back for ``curve restrict``

_TERM_FACTOR_RE = re.compile(r"^x([0-9]+)(?:\^([0-9]+))?$")


def polynomial_from_text(text: str, dim: int) -> Polynomial:
    """Parse the report text form back into a polynomial.

    A leading sign is allowed; a sign with no term after it, or a sign on an
    exponent, is a ValueError.
    """
    compact = text.replace(" ", "")
    if compact in ("", "0"):
        return Polynomial(dim, {})
    signed = re.search(r"\^([+-])", compact)
    if signed:
        kind = "negative" if signed.group(1) == "-" else "signed"
        raise ValueError(f"{kind} exponent in polynomial text {text!r}")
    if compact[0] not in "+-":
        compact = "+" + compact
    # "+x1-2" splits into "", "+", "x1", "-", "2": signs and terms alternate
    _, *parts = re.split(r"([+-])", compact)
    terms: dict[MultiIndex, Fraction] = {}
    for sign, body in zip(parts[::2], parts[1::2]):
        if not body:
            raise ValueError(
                f"sign {sign!r} without a term in polynomial text {text!r}"
            )
        coeff = Fraction(-1 if sign == "-" else 1)
        exps = [0] * dim
        for factor in body.split("*"):
            m = _TERM_FACTOR_RE.match(factor)
            if m:
                index = int(m.group(1))
                if not 1 <= index <= dim:
                    raise ValueError(
                        f"variable x{index} out of range for dimension {dim}"
                    )
                exps[index - 1] += int(m.group(2) or 1)
            else:
                try:
                    coeff *= parse_rational(factor)
                except ValueError:
                    raise ValueError(
                        f"malformed factor {factor!r} in polynomial text {text!r}"
                    ) from None
        key = tuple(exps)
        terms[key] = terms.get(key, Fraction(0)) + coeff
    return Polynomial(dim, terms)


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
    than once counts once, as a line does in a Configuration: n is the
    configuration's total degree, that of the distinct curves, which are
    pruned in the order of their degree and integer form.  The result lists
    the thresholds as Fractions.
    """
    from .pipeline import peel

    curves = sorted(set(cfg.curves), key=lambda c: (c.degree, c.den, c.coords))
    n = cfg.total_degree
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
