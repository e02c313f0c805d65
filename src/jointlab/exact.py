"""Exact rational scalars and the package's one value form.

Scalars are exact rationals, so every comparison in the toolkit is an exact
decision rather than a tolerance check.  A rational literal is read as an
int when it is an integer and as a ``fractions.Fraction`` otherwise, and
:func:`integer_form` turns a vector of them into integer numerators over
one common denominator, the form in which the toolkit computes.

:func:`rank` and :func:`nullspace_vector` are the exact linear algebra:
integer rows in, integers out.  Both run the certified modular walk of
:mod:`jointlab.kernel`, which they import on their first call, so a run that
never ranks or fits, such as a sweep whose lines meet at most in pairs,
does not compile it.

The value form is defined here, once.  A rational result is integer
numerators over one positive denominator in lowest terms, as
:func:`lowest_terms` makes them: a kernel vector is ``(nums, den)``, a
:class:`Point` keeps a point's coordinates that way, a
``polynomial.Polynomial`` its coefficients and a ``curves.ParamCurve`` its
coordinate polynomials.  Those and the package's other values (lines,
configurations, joint sets) are :class:`_Frozen`: immutable, equal when
their classes and keys are equal, hashed once, by their key, and copied or
pickled slot by slot.  Matrices are sequences of integer rows.  Fractions
are made from values only at the edges: to print, to project, or to return
a polynomial's value or restriction.
"""

from __future__ import annotations

import re
from math import gcd, lcm
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    # ``fractions`` is imported where a Fraction is made: a run that makes
    # none, such as a sweep, loads neither it nor ``decimal``.
    from fractions import Fraction

    Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> int | Fraction:
    """Parse a rational literal: ``"3"`` gives the int 3, ``"-7/2"`` the
    Fraction -7/2.

    Non-reduced forms are normalized; a zero denominator is rejected.
    """
    literal = text.strip()
    if not _RATIONAL_RE.match(literal):
        raise ValueError(f"invalid rational literal {text!r}")
    if "/" in literal:
        num, den = literal.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        from fractions import Fraction

        return Fraction(int(num), int(den))
    return int(literal)


def format_rational(value: int | Fraction) -> str:
    """Render an int or a Fraction as ``"p/q"``, omitting the denominator
    when it is 1."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def integer_form(values: Sequence) -> tuple[list[int], int]:
    """Rationals (ints or Fractions) as integer numerators over their least
    common denominator: ``[1/2, 1/3]`` gives ``([3, 2], 6)``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def lowest_terms(nums: Sequence[int], den: int) -> tuple[list[int], int]:
    """Integer numerators over a nonzero denominator in lowest terms: the
    gcd of all of them divided out and the denominator made positive, so
    equal rational vectors give equal results.  All-zero numerators give
    den 1."""
    g = gcd(den, *nums)
    if den < 0:
        g = -g
    return [n // g for n in nums], den // g


class _Frozen:
    """An immutable value, equal to another of its class with an equal key.

    ``__init__`` fills the slots once, by :meth:`_freeze`, together with the
    key: the fields that define the value, such as ``(nums, den)``.  After
    that, assignment raises AttributeError.  Equality compares keys and
    holds only within one class; against any other class it is
    NotImplemented.  The hash is that of the key, computed once, at
    construction.  A class whose key holds a dict sets ``__hash__ = None``
    and stays unhashable.  A copy or an unpickled value gets its slots back
    by :meth:`__setstate__`, past the blocked assignment.
    """

    __slots__ = ("_key", "_hash")

    def _freeze(self, key, **fields):
        """Set each field, and the key, once."""
        for name, value in fields.items():
            object.__setattr__(self, name, value)
        object.__setattr__(self, "_key", key)
        if type(self).__hash__ is not None:
            object.__setattr__(self, "_hash", hash(key))

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __setstate__(self, state):
        """Fill the slots from the ``(None, slots)`` state that copy and
        pickle take of a slotted object."""
        for name, value in state[1].items():
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._key == other._key

    def __hash__(self):
        return self._hash


class Point(_Frozen):
    """A rational point as integer numerators over one positive denominator.

    The form is canonical, in :func:`lowest_terms`: the denominator is the
    least common denominator of the coordinates, and the key is
    ``(nums, den)``, so sets and dicts of points hash and compare integers
    only.  Iterating a point yields its coordinates as Fractions, for the
    edges that print, evaluate or project it; ``len`` is its dimension.
    Points have no order of their own: :func:`sort_points` orders a
    collection as its Fraction tuples order.
    """

    __slots__ = ("nums", "den")

    def __init__(self, nums: Sequence[int], den: int):
        nums, den = lowest_terms(nums, den)
        nums = tuple(nums)
        self._freeze((nums, den), nums=nums, den=den)

    @classmethod
    def of(cls, values: Sequence) -> "Point":
        """The point with these coordinates, ints or Fractions."""
        return cls(*integer_form(values))

    def __len__(self) -> int:
        return len(self.nums)

    def __iter__(self) -> Iterator[Fraction]:
        from fractions import Fraction

        return (Fraction(n, self.den) for n in self.nums)

    def __repr__(self):
        return f"Point({', '.join(map(format_rational, self))})"


def _common_key(points: Sequence[Point]):
    """A key that orders these points as their Fraction tuples order: the
    numerators scaled to the points' common denominator.  Tuples over
    different denominators would not do, since 1/3 < 1/2 but (1, 3) > (1, 2).
    """
    den = lcm(*(p.den for p in points))

    def key(p: Point):
        scale = den // p.den
        return p.nums if scale == 1 else tuple(n * scale for n in p.nums)

    return key


def sort_points(points: Iterable[Point]) -> list[Point]:
    """The points in the order of their Fraction tuples, by one integer key."""
    points = list(points)
    return sorted(points, key=_common_key(points))


def rank(rows: Sequence[Sequence[int]]) -> int:
    """Exact rank over the rationals of integer rows; an empty matrix has
    rank 0."""
    from .kernel import _certified_walk

    return len(_certified_walk(rows, select=False)[0])


def nullspace_vector(
    rows: Sequence[Sequence[int]],
    ends: Sequence[int] = (),
    exps: Sequence[Sequence[int]] | None = None,
) -> tuple[list[int], int] | None:
    """One exact nonzero solution x of M x = 0 for integer rows, as
    ``(nums, den)`` with x = nums / den in its :func:`integer_form`, or None
    if only x = 0 works.

    Selection rule, fixed for reproducibility: the block is the first
    leading block of columns, of a width in ``ends`` or of the full width,
    that has a free column.  A free column is one that takes no pivot, and
    every column is free once every row holds a pivot.  Within the block,
    the highest-index free column is set to 1, every other free column and
    every column past the block to 0, and the pivot variables are
    back-substituted.  When every row holds a pivot before the block ends,
    that column is the block's last.

    ``exps``, the exponent vectors of the columns' monomials in a monomial
    order, such as a fit's graded-lex basis, change no answer, only the
    work: the walk then skips every column whose monomial is a multiple of
    an earlier free column's, and certifies only the corners, the free
    columns divisible by no earlier one.  The selected column is reduced
    alone, with the pivots before it, when the walk skipped it or stopped
    before it.
    """
    from .kernel import _certified_walk

    return _certified_walk(rows, select=True, ends=ends, exps=exps)[1]
