"""Lines, configurations, joint detection, and the bound check.

A line is stored in a canonical integer form so that set membership and
equality are exact structural checks: the direction is a primitive integer
vector whose first nonzero entry is positive, and the base is the foot of the
perpendicular from the origin, a :class:`~jointlab.exact.Point`.
A joint of a configuration is a point incident to at least d of its lines
whose directions span all of d-space; concurrent lines lie in a common
hyperplane exactly when their directions fit in a (d-1)-subspace, so the
predicate is a rank test.  Joint points are :class:`~jointlab.exact.Point`s,
built from the integer pair solve and compared, hashed and sorted in
integers.

Generic projections live in :mod:`jointlab.projection` and the JSON file
format in :mod:`jointlab.files`.  :func:`load_configuration` and
:func:`save_configuration` import the format when called, so a command that
neither reads nor writes a line file, such as a sweep, does not compile it.
"""

from __future__ import annotations

from math import factorial, gcd
from typing import Collection, Iterable, Iterator, NamedTuple, Sequence

from .errors import DimensionMismatchError, IdenticalLinesError
from .exact import (
    Point,
    _common_key,
    _Frozen,
    format_rational,
    integer_form,
    rank,
    sort_points,
)


def _primitive(direction: Sequence) -> tuple[int, ...]:
    """Scale to an integer vector with entry gcd 1 and positive first nonzero."""
    ints, _ = integer_form(direction)
    g = gcd(*ints)
    ints = [c // g for c in ints]
    first = next(c for c in ints if c != 0)
    if first < 0:
        ints = [-c for c in ints]
    return tuple(ints)


class Line(_Frozen):
    """A line in rational d-space, canonicalized on construction.

    Base and direction are given as sequences of ints or Fractions.  The
    line keeps its canonical integer form: ``direction``, the primitive
    integer vector v, and ``base``, the foot of the perpendicular from the
    origin as a Point.  With the given base written P/q over one
    denominator, that foot is (P |v|^2 - (P.v) v) / (q |v|^2), which the
    Point reduces.  The key is ``(direction, base)``, so equal lines have
    equal fields.  As curves, lines have degree 1.
    """

    __slots__ = ("direction", "base")
    degree = 1

    def __init__(self, base: Sequence, direction: Sequence):
        if len(base) != len(direction):
            raise DimensionMismatchError(
                f"base has dimension {len(base)}, direction {len(direction)}"
            )
        if len(base) < 2:
            raise ValueError("lines need ambient dimension >= 2")
        if all(c == 0 for c in direction):
            raise ValueError("line direction must be nonzero")
        v = _primitive(direction)
        given, q = integer_form(base)
        norm = sum(c * c for c in v)
        along = sum(p * c for p, c in zip(given, v))
        base = Point([p * norm - along * c for p, c in zip(given, v)], q * norm)
        self._freeze((v, base), direction=v, base=base)

    @property
    def dim(self) -> int:
        return len(self.direction)

    def __repr__(self):
        base = ", ".join(format_rational(c) for c in self.base)
        direction = ", ".join(format_rational(c) for c in self.direction)
        return f"Line(({base}) + t*({direction}))"


class Configuration(_Frozen):
    """A dimension together with a deduplicated set of lines.

    Any iterable of lines is deduplicated, keeping first occurrences in
    order, and sorted once, at construction, into the canonical order:
    primitive direction first, then base, as their Fraction tuples order.
    Lines that arrive in that order are sorted in one linear pass.
    ``lines`` is the frozenset, for membership, and the key is
    ``(dim, lines)``.
    """

    __slots__ = ("dim", "lines", "_sorted")

    def __init__(self, dim: int, lines: Iterable[Line] = ()):
        if dim < 2:
            raise ValueError("configurations need dimension >= 2")
        unique = list(dict.fromkeys(lines))
        for line in unique:
            if line.dim != dim:
                raise DimensionMismatchError(
                    f"line of dimension {line.dim} in {dim}-dimensional configuration"
                )
        key = _common_key([line.base for line in unique])
        unique.sort(key=lambda line: (line.direction, key(line.base)))
        lines = frozenset(unique)
        self._freeze((dim, lines), dim=dim, lines=lines, _sorted=tuple(unique))

    @property
    def n(self) -> int:
        return len(self.lines)

    def sorted_lines(self) -> tuple[Line, ...]:
        return self._sorted


class JointSet(_Frozen):
    """Joints with their exact incidence sets, iterated in sorted point order.

    The keys are Points and the incident objects lines, or parametrized
    curves for curve joints.  The incidence is not changed after
    construction, so ``points`` holds the points sorted once, at
    construction, by :func:`~jointlab.exact.sort_points`.  The key is the
    incidence.
    """

    __slots__ = ("incidence", "points")

    def __init__(self, incidence: dict[Point, frozenset]):
        points = tuple(sort_points(incidence))
        self._freeze(incidence, incidence=incidence, points=points)

    __hash__ = None  # the incidence is a dict

    def lines_through(self, point: Point) -> frozenset:
        return self.incidence[point]

    def __len__(self) -> int:
        return len(self.incidence)

    def __contains__(self, point: Point) -> bool:
        return point in self.incidence

    def __iter__(self) -> Iterator[Point]:
        return iter(self.points)


def incident(line: Line, point: Point) -> bool:
    """True iff point - base is an exact rational multiple of the direction.

    Decided in integers: with the point a/r and the base Point p/q,
    w = a q - p r is a positive multiple of point - base, and it is parallel
    to the primitive direction v exactly when w_i v_k = w_k v_i at every i,
    for k the first axis where v is nonzero.
    """
    a, r = point.nums, point.den
    if len(a) != line.dim:
        raise DimensionMismatchError(
            f"point of dimension {len(a)} against line of dimension {line.dim}"
        )
    v, p, q = line.direction, line.base.nums, line.base.den
    w = [x * q - y * r for x, y in zip(a, p)]
    k = next(i for i, c in enumerate(v) if c)
    return all(wi * v[k] == w[k] * vi for wi, vi in zip(w, v))


def _meet(a: Line, b: Line) -> Point | None:
    """The common point of two distinct lines, or None if they miss.

    This is the exact decision for every pair that passes the side filter
    of :func:`find_s_joints`, and the only place a joint's point is built.
    Pure integer arithmetic on the primitive directions and the base Points:
    scaling base_a + t v_a = base_b + s v_b by the product of the base
    denominators leaves integer data, and Cramer's rule on the first
    coordinate pair with a nonzero direction minor gives t and s as
    numerators over that minor.  Every coordinate is then checked by cross
    multiplication, and on a hit the Point is made from the numerators of
    base_a + t v_a over their one denominator.  Canonical directions are
    primitive, so parallel lines have equal directions.
    """
    v1, p1, q1 = a.direction, a.base.nums, a.base.den
    v2, p2, q2 = b.direction, b.base.nums, b.base.den
    if v1 == v2:
        return None
    r = [y * q1 - x * q2 for x, y in zip(p1, p2)]
    dim = len(v1)
    # the first coordinate pair with a nonzero minor; distinct directions have one
    for i in range(dim - 1):
        for j in range(i + 1, dim):
            det = v2[i] * v1[j] - v1[i] * v2[j]
            if det:
                break
        else:
            continue
        break
    tn = v2[i] * r[j] - r[i] * v2[j]
    sn = v1[i] * r[j] - r[i] * v1[j]
    for k in range(dim):
        if tn * v1[k] - sn * v2[k] != r[k] * det:
            return None
    scale = q2 * det
    return Point([x * scale + tn * v for x, v in zip(p1, v1)], q1 * scale)


def line_line_intersection(l1: Line, l2: Line) -> Point | None:
    """The unique common point of two distinct lines, or None if they miss.

    Parallel and skew pairs both come back as None.
    """
    if l1.dim != l2.dim:
        raise DimensionMismatchError("lines live in different dimensions")
    if l1 == l2:
        raise IdenticalLinesError(f"identical lines: {l1!r}")
    return _meet(l1, l2)


def direction_rank(lines: Iterable[Line]) -> int:
    """Dimension of the linear span of the lines' primitive directions."""
    rows = [line.direction for line in lines]
    if not rows:
        raise ValueError("direction_rank needs at least one line")
    return rank(rows)


def _rank_once(ranks: dict[frozenset, int], lines: Collection[Line]) -> int:
    """The direction_rank of the lines, kept in ranks under their set of
    directions.  A pass over many points keeps one map, so each set of
    directions is ranked once: on a grid, the axes."""
    key = frozenset(line.direction for line in lines)
    if key not in ranks:
        ranks[key] = direction_rank(lines)
    return ranks[key]


def is_joint(config: Configuration, point: Point) -> bool:
    """At least d incident lines whose directions span all of d-space."""
    through = [l for l in config.lines if incident(l, point)]
    if len(through) < config.dim:
        return False
    return direction_rank(through) == config.dim


def find_joints(config: Configuration) -> JointSet:
    """All joints of the configuration with their full incidence sets."""
    return find_s_joints(config, config.dim)


def _side_form(line: Line) -> tuple[int, ...]:
    """Six integers (q v, m') for the line's projection onto the first three
    axes, zero-padded from the plane: v the primitive direction, P/q the
    base and m' = P x v, so (v, m'/q) are its Plücker coordinates.

    With B = (m', q v) the same six integers swapped, A_a . B_b is
    q_a q_b times the side product of the two projections, which is 0
    exactly when they are coplanar: they meet, are parallel, or one is a
    point (its direction projects to zero, and then A = 0).
    """
    v, p, q = line.direction, line.base.nums, line.base.den
    v1, v2, v3 = (v + (0,))[:3]
    p1, p2, p3 = (p + (0,))[:3]
    return (
        q * v1,
        q * v2,
        q * v3,
        p2 * v3 - p3 * v2,
        p3 * v1 - p1 * v3,
        p1 * v2 - p2 * v1,
    )


def find_s_joints(config: Configuration, s: int) -> JointSet:
    """All points on >= 2 lines whose incident directions have rank >= s.

    One pass over the pairs of lines builds every incidence set: a line
    through a point that lies on >= 2 lines meets another line there, so the
    pairs that meet at a point name all of its lines.  At s = d these points
    are exactly the joints, since rank d needs at least d lines.

    The pairs first pass an exact integer side filter (:func:`_side_form`):
    two lines that meet project onto the first three axes as coplanar lines,
    so their side product is 0, and a row of pairs is filtered in one
    comprehension.  :func:`_meet` decides each pair that passes; in d = 3
    these are the coplanar pairs, and in the plane every pair passes.
    """
    if not 2 <= s <= config.dim:
        raise ValueError(f"s must satisfy 2 <= s <= {config.dim}, got {s}")
    lines = config.sorted_lines()
    sides = [_side_form(line) for line in lines]
    meeting: dict[Point, set[Line]] = {}
    for i, a in enumerate(lines):
        a0, a1, a2, a3, a4, a5 = sides[i]
        candidates = [
            b
            for b, (b0, b1, b2, b3, b4, b5) in zip(lines[i + 1 :], sides[i + 1 :])
            if not a0 * b3 + a1 * b4 + a2 * b5 + a3 * b0 + a4 * b1 + a5 * b2
        ]
        for b in candidates:
            pt = _meet(a, b)
            if pt is not None:
                meeting.setdefault(pt, set()).update((a, b))
    # rank <= |through|, so small sets need no rank computation
    ranks: dict[frozenset, int] = {}
    return JointSet(
        {
            pt: frozenset(through)
            for pt, through in meeting.items()
            if len(through) >= s and _rank_once(ranks, through) >= s
        }
    )


class BoundCheck(NamedTuple):
    holds: bool
    lhs: int
    rhs: int


def bound_check(n: int, m: int, d: int) -> BoundCheck:
    """Decide m <= A(d) * n^(d/(d-1)) in exact integers.

    Raising both sides to the (d-1)-th power turns the irrational constant
    into the integer comparison m^(d-1) <= 2^(d+1) * d! * n^d.
    """
    if n < 1:
        raise ValueError("need n >= 1")
    if m < 0:
        raise ValueError("need m >= 0")
    if d < 2:
        raise ValueError("need dimension >= 2")
    lhs = m ** (d - 1)
    rhs = 2 ** (d + 1) * factorial(d) * n**d
    return BoundCheck(holds=lhs <= rhs, lhs=lhs, rhs=rhs)


def bound_constant(d: int) -> float:
    """Decimal approximation of (2^(d+1) d!)^(1/(d-1)), for display only.

    The logarithm of the exact integer keeps it finite where the integer
    itself is too large for a float (d >= 151).
    """
    from math import exp, log  # the package's only float functions

    return exp(log(2 ** (d + 1) * factorial(d)) / (d - 1))


def save_configuration(config: Configuration, path) -> None:
    from .files import configuration_to_dict, write_json

    write_json(path, configuration_to_dict(config))


def load_configuration(path) -> Configuration:
    from .files import configuration_from_dict, read_json

    return configuration_from_dict(read_json(path))
