"""Sparse multivariate polynomials over the rationals.

Exponent vectors are int tuples, and a polynomial keeps its coefficients as
integer numerators over one denominator, in the value form of
:mod:`jointlab.exact`; the zero polynomial has an empty term map.  Fits, derivatives, vanishing and evaluation work in those
integers.  A Fraction is made per coefficient only to print a polynomial,
and per value only for :meth:`Polynomial.evaluate` and
:func:`restrict_to_line` to return.  The monomial order everywhere is
graded lexicographic (total degree first, then lexicographic on exponent
tuples); fixing it globally makes evaluation matrices, nullspace selection,
and printed term order reproducible across runs.

Univariate polynomials, and substitution into them, belong to
``jointlab.curves``; only their text form is here, beside the polynomial's.
Reading the text form back is ``curves.polynomial_from_text``, since only
``curve restrict`` reads it.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, product, repeat
from math import comb
from operator import add, mul
from typing import TYPE_CHECKING, Iterable, Mapping, Sequence

from .errors import DimensionMismatchError, InternalInvariantViolation
from .exact import (
    Point,
    _Frozen,
    format_rational,
    integer_form,
    lowest_terms,
    nullspace_vector,
    sort_points,
)

if TYPE_CHECKING:
    from numbers import Rational

    from .exact import Vector
    from .geometry import Line

MultiIndex = tuple[int, ...]


def grlex_key(exponents: MultiIndex) -> tuple[int, MultiIndex]:
    """Ascending graded-lex sort key: total degree, then exponent tuple."""
    return (sum(exponents), exponents)


def monomial_basis(d: int, b: int) -> list[MultiIndex]:
    """All exponent vectors of total degree <= b, ascending graded-lex.

    The length is C(b + d, d).
    """
    if d < 1:
        raise ValueError("need at least one variable")
    if b < 0:
        raise ValueError("degree bound must be nonnegative")
    exps = [e for e in product(range(b + 1), repeat=d) if sum(e) <= b]
    exps.sort(key=grlex_key)
    return exps


def min_fit_degree(m: int, d: int) -> int:
    """Smallest b with C(b + d, d) > m.

    A polynomial of that degree has more monomials than there are vanishing
    constraints for m points, so a nontrivial fit always exists.
    """
    if m < 0:
        raise ValueError("point count must be nonnegative")
    if d < 1:
        raise ValueError("need at least one variable")
    b = 0
    while comb(b + d, d) <= m:
        b += 1
    return b


class Polynomial(_Frozen):
    """Immutable sparse polynomial in ``dim`` variables, kept in integers:
    ``terms`` maps exponent tuples to integer numerators over one positive
    denominator ``den``.

    The form is canonical: the constructor takes ints or Fractions, over an
    optional common denominator, scales them to integers once, puts them in
    :func:`~jointlab.exact.lowest_terms` and drops zero terms, so equal
    polynomials have equal keys ``(dim, terms, den)``.  The zero polynomial
    has no terms and ``den`` 1.
    """

    __slots__ = ("dim", "terms", "den")

    def __init__(
        self, dim: int, terms: Mapping[MultiIndex, Rational] | None = None, den: int = 1
    ):
        if dim < 1:
            raise ValueError("polynomial needs at least one variable")
        terms = terms or {}
        for exps in terms:
            if len(exps) != dim:
                raise DimensionMismatchError(
                    f"exponent vector {exps} has length != {dim}"
                )
            if min(exps) < 0:
                raise ValueError(f"negative exponent in {exps}")
        nums, scale = integer_form(list(terms.values()))
        nums, den = lowest_terms(nums, den * scale)
        terms = {e: n for e, n in zip(terms, nums) if n}
        self._freeze((dim, terms, den), dim=dim, terms=terms, den=den)

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max(map(sum, self.terms), default=-1)

    def evaluate(self, point: Point | Vector) -> Fraction:
        """The exact value at a point: a Point, or a sequence of ints or
        Fractions.  Computed in integers; the value is made a Fraction at
        the end."""
        if not isinstance(point, Point):
            point = Point.of(point)
        top = max(self.degree(), 0)
        value = _evaluator(self, top, point)(point.nums)
        return Fraction(value, self.den * point.den**top)

    def partial_derivative(self, axis: int) -> "Polynomial":
        """Exact formal derivative along a 0-based axis, over the same
        denominator.  Lowering the exponent is one-to-one on the terms that
        have it, so no two terms merge."""
        if not 0 <= axis < self.dim:
            raise ValueError(f"axis {axis} out of range for dimension {self.dim}")
        out = {}
        for exps, n in self.terms.items():
            e = exps[axis]
            if e:
                out[exps[:axis] + (e - 1,) + exps[axis + 1 :]] = n * e
        return Polynomial(self.dim, out, self.den)

    __hash__ = None  # the terms are a dict

    def __repr__(self):
        return f"Polynomial({self.dim}, {polynomial_to_text(self)!r})"


def _evaluator(p: Polynomial, top: int, base: Point):
    """p's integer evaluator at points over the denominator q of ``base``,
    for a ``top`` >= deg p: the function that takes the numerators a of a
    point a/q and returns den * q^top * p(a/q), which is the integer
    sum n_e a^e q^(top - |e|) over p's numerators n_e.

    Each term's weight n_e q^(top - |e|) and the highest power of each
    coordinate are worked out here, once per polynomial and denominator, and
    each call computes every coordinate's powers once for all terms.
    """
    if len(base) != p.dim:
        raise DimensionMismatchError(
            f"point has dimension {len(base)}, polynomial {p.dim}"
        )
    q = base.den
    q_pows = [q**k for k in range(top + 1)]
    # each term as its nonzero (coordinate, exponent) pairs and its weight
    terms = [
        ([(i, e) for i, e in enumerate(exps) if e], n * q_pows[top - sum(exps)])
        for exps, n in p.terms.items()
    ]
    reach = [max((exps[i] for exps in p.terms), default=0) for i in range(p.dim)]

    def value(nums: Sequence[int]) -> int:
        pows = [
            list(accumulate(repeat(a, k), mul, initial=1)) for a, k in zip(nums, reach)
        ]
        total = 0
        for factors, w in terms:
            for i, e in factors:
                w *= pows[i][e]
            total += w
        return total

    return value


# ---------------------------------------------------------------------------
# restriction and vanishing fits


def restrict_to_line(p: Polynomial, line: "Line") -> tuple[Fraction, ...]:
    """Substitute base + t * direction into p; exact, degree <= deg p.

    The line is the degree-1 curve of :func:`~jointlab.curves.line_as_curve`,
    and the restriction that curve's."""
    from .curves import line_as_curve, restrict_to_curve

    return restrict_to_curve(p, line_as_curve(line))


def vanishes_on_line(p: Polynomial, line: "Line") -> bool:
    """True iff p is identically zero along the line.

    Along the line only the coordinates i with v_i != 0, v the direction,
    move, so the restriction t -> p(base + t * v) has degree at most
    r = max over p's terms of the sum of e_i over those i.  A nonzero
    univariate polynomial of degree at most r has at most r roots, so p
    vanishes on the line exactly when it vanishes at the r + 1 parameters
    t = 0, 1, ..., r, and the first nonzero value decides.  Most lines that
    fail do so at t = 0, the base point, so r is worked out only after p is
    zero there.  The zero polynomial, of degree -1, is tested at no
    parameter.

    Each value is computed in integers, by :func:`_evaluator`: with the
    line's primitive direction v and its base Point a/q, the point at t is
    (a + t*q*v)/q, and den * q^D * p there, D = deg p, is a positive
    multiple of p's value.
    """
    top = p.degree()
    value = _evaluator(p, top, line.base)
    x = line.base.nums
    if top >= 0 and value(x):
        return False
    moving = [i for i, vi in enumerate(line.direction) if vi]
    r = max((sum(exps[i] for i in moving) for exps in p.terms), default=0)
    step = [line.base.den * vi for vi in line.direction]
    for _ in range(r):
        x = list(map(add, x, step))
        if value(x):
            return False
    return True


def vanishes_at(p: Polynomial, point: Point) -> bool:
    """True iff p is zero at the point, decided in integers by
    :func:`_evaluator`."""
    return not _evaluator(p, max(p.degree(), 0), point)(point.nums)


def _evaluation_matrix(points: list[Point], basis: list[MultiIndex]):
    """Integer rows: the point x = a/q, read from its integer form (a its
    numerators, q its denominator), evaluated at every basis monomial and
    scaled by q^b, b the top degree.

    The entry for exponents e is a^e * q^(b - |e|).  Each a^e is one
    multiplication from the value of an earlier basis monomial, e less one in
    its first nonzero exponent, and the powers of q are computed once per
    point.  Scaling a row keeps the nullspace, and q^b is the least common
    denominator of the row, so these are the rows that elimination would
    scale to anyway.
    """
    b = sum(basis[-1])
    index = {exps: k for k, exps in enumerate(basis)}
    steps = []  # (earlier basis index, coordinate) for every monomial but 1
    for exps in basis[1:]:
        i = next(i for i, e in enumerate(exps) if e)
        steps.append((index[exps[:i] + (exps[i] - 1,) + exps[i + 1 :]], i))
    scale = [b - sum(exps) for exps in basis]
    rows = []
    for pt in points:
        nums, q = pt.nums, pt.den
        q_pows = [q**k for k in range(b + 1)]
        values = [1]
        for k, i in steps:
            values.append(values[k] * nums[i])
        rows.append([x * q_pows[s] for x, s in zip(values, scale)])
    return rows


def _distinct_points(points: Iterable[Point], d: int) -> list[Point]:
    """The distinct points in sorted order.  Points are canonical, so a set
    deduplicates them by plain equality.  Each public fit prepares its
    points once."""
    pts = sort_points(set(points))
    for pt in pts:
        if len(pt.nums) != d:
            raise DimensionMismatchError(f"point {pt} is not {d}-dimensional")
    return pts


def _fit(pts: list[Point], d: int, ends: Sequence[int] = ()) -> Polynomial:
    """The fit of the points at the degree bound b = min_fit_degree, which
    always exists: one nonzero polynomial of degree <= b vanishing on them.

    The points are distinct, sorted and not empty, as
    :func:`_distinct_points` gives them.  Deterministic: rows are the points
    in that order, columns the graded-lex basis, and the nullspace selection
    rule of :func:`nullspace_vector`, stopped at the column counts ``ends``,
    picks the coefficient vector.
    """
    b = min_fit_degree(len(pts), d)
    basis = monomial_basis(d, b)
    matrix = _evaluation_matrix(pts, basis)
    found = nullspace_vector(matrix, ends, basis)
    if found is None:
        raise InternalInvariantViolation(
            f"no vanishing polynomial of degree <= {b} for {len(pts)} points"
        )
    nums, den = found
    poly = Polynomial(d, dict(zip(basis, nums)), den)
    if poly.is_zero():
        raise InternalInvariantViolation("nullspace vector produced zero polynomial")
    # Row i is the monomials at point i times a nonzero integer, so the fit
    # vanishes at every point exactly when the integer coefficients give M x = 0.
    for pt, row in zip(pts, matrix):
        if sum(map(mul, row, nums)):
            raise InternalInvariantViolation(
                f"fit does not vanish at {pt}: got {poly.evaluate(pt)}"
            )
    return poly


def fit_vanishing(points: Iterable[Point], d: int) -> Polynomial:
    """A nonzero polynomial vanishing at every point, degree <= min_fit_degree.

    The underdetermined evaluation system always has a nontrivial solution;
    failure to find one is an internal bug, never a caller error.
    """
    pts = _distinct_points(points, d)
    if not pts:
        raise ValueError("need at least one point")
    return _fit(pts, d)


def minimal_fit(points: Iterable[Point], d: int) -> Polynomial:
    """The fit at the smallest degree b* that admits one; the constant 1 for
    the empty set.

    One walk of the fit matrix at the bound b finds it.  The basis is in
    graded-lex order, so the matrix's first C(k + d, d) columns are the fit
    matrix at degree k with each row scaled by a power of its point's
    denominator, which changes no kernel.  The walk stops at the end of the
    first such block with a free column, the block of b*, and the selection
    rule picks the vector the fit at b* alone would pick.
    """
    pts = _distinct_points(points, d)
    if not pts:
        return Polynomial(d, {(0,) * d: 1})
    b = min_fit_degree(len(pts), d)
    return _fit(pts, d, [comb(k + d, d) for k in range(b)])


# ---------------------------------------------------------------------------
# text form: terms in descending graded-lex order, e.g. "x1^2 - x1"


def _power_text(var: str, e: int) -> str:
    return "" if e == 0 else var if e == 1 else f"{var}^{e}"


def _terms_text(terms: Iterable[tuple[Fraction, str]]) -> str:
    """Join nonzero (coefficient, monomial text) pairs in the given order,
    e.g. "-2*x1^2 + x2 - 1"; "0" when there are none."""
    parts = []
    for coeff, mono in terms:
        mag = abs(coeff)
        if not mono:
            body = format_rational(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{format_rational(mag)}*{mono}"
        if not parts:
            parts.append(body if coeff > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if coeff > 0 else f"- {body}")
    return " ".join(parts) or "0"


def _monomial_text(exps: MultiIndex) -> str:
    return "*".join(_power_text(f"x{i + 1}", e) for i, e in enumerate(exps) if e)


def polynomial_to_text(p: Polynomial) -> str:
    return _terms_text(
        (Fraction(p.terms[exps], p.den), _monomial_text(exps))
        for exps in sorted(p.terms, key=grlex_key, reverse=True)
    )


def unipoly_to_text(p: Sequence[Rational], var: str = "t") -> str:
    """A univariate polynomial, given by its coefficients in ascending powers
    of ``var``, in the report text form, e.g. "t^2 - t"."""
    return _terms_text(
        (p[e], _power_text(var, e)) for e in range(len(p) - 1, -1, -1) if p[e] != 0
    )
