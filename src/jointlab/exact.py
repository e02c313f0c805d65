"""Exact rational scalars, vectors, and matrices.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), so every
comparison in the toolkit is an exact decision rather than a tolerance check.
Elimination is fraction-free: rows are scaled to integers once, by
:func:`integer_form`, and each intermediate entry of :func:`echelon` stays an
integer minor of the input (Bareiss), which keeps coefficient growth
polynomial without ever rounding.

Vectors are plain tuples of Fractions and matrices are sequences of rows;
both are treated as immutable values throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
from numbers import Rational
from typing import Iterable, Sequence

from .errors import DimensionMismatchError

Vector = tuple[Fraction, ...]

_RATIONAL_RE = re.compile(r"^-?[0-9]+(?:/[0-9]+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational literal like ``"3"`` or ``"-7/2"``.

    Non-reduced forms are normalized; a zero denominator is rejected.
    """
    literal = text.strip()
    if not _RATIONAL_RE.match(literal):
        raise ValueError(f"invalid rational literal {text!r}")
    if "/" in literal:
        num, den = literal.split("/")
        if int(den) == 0:
            raise ValueError(f"zero denominator in rational literal {text!r}")
        return Fraction(int(num), int(den))
    return Fraction(int(literal))


def format_rational(value: Fraction) -> str:
    """Render as ``"p/q"``, omitting the denominator when it is 1."""
    value = Fraction(value)
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def vector(values: Iterable) -> Vector:
    return tuple(Fraction(v) for v in values)


def _check_same_dim(u: Sequence, v: Sequence) -> None:
    if len(u) != len(v):
        raise DimensionMismatchError(
            f"vector dimensions differ: {len(u)} vs {len(v)}"
        )


def dot(u: Vector, v: Vector) -> Fraction:
    _check_same_dim(u, v)
    return sum((a * b for a, b in zip(u, v)), start=Fraction(0))


def vec_sub(u: Vector, v: Vector) -> Vector:
    _check_same_dim(u, v)
    return tuple(a - b for a, b in zip(u, v))


def vec_scale(u: Vector, c) -> Vector:
    c = Fraction(c)
    return tuple(a * c for a in u)


def mat_vec(rows: Sequence[Vector], x: Vector) -> Vector:
    return tuple(dot(vector(row), x) for row in rows)


def integer_form(values: Sequence) -> tuple[list[int], int]:
    """Rationals (ints or Fractions) as integer numerators over their least
    common denominator: ``[1/2, 1/3]`` gives ``([3, 2], 6)``."""
    den = lcm(*(v.denominator for v in values))
    return [v.numerator * (den // v.denominator) for v in values], den


def echelon(
    matrix: Sequence[Sequence],
) -> tuple[list[list[int]], list[int], list[tuple]]:
    """Left-looking fraction-free column echelon walk of a rational matrix.

    Entries are ints or Fractions; anything else ``Fraction`` accepts (a
    string like ``"1/2"``, a float, a Decimal) is converted first.  Each row
    is scaled to integers, which changes neither rank nor nullspace.
    Columns are walked left to right.  A column is brought up to date only
    when the walk reaches it, by :func:`_replay` of every pivot step so far;
    its first nonzero entry at or below the next pivot row then becomes a
    pivot, and the step (row swap, pivot, the entries below it) is recorded.
    The walk stops once every row holds a pivot.

    One-step Bareiss: each update divides by the previous pivot, an exact
    integer division because every entry is a minor of the input.  An update
    of one column reads only that column and the pivot column, so every
    reduced column holds the integers a right-looking elimination would give.

    Returns the integer columns, the pivot columns and the recorded steps.
    Columns the walk did not reach (those after the last pivot, when every
    row holds one) are scaled but not reduced; ``_replay`` reduces one.
    """
    rows = [
        integer_form([v if isinstance(v, Rational) else Fraction(v) for v in row])[0]
        for row in matrix
    ]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    columns = [list(col) for col in zip(*rows)]
    m = len(rows)
    pivot_cols: list[int] = []
    steps: list[tuple] = []
    prev = 1
    for j, col in enumerate(columns):
        r = len(pivot_cols)
        if r == m:
            break
        _replay(col, steps)
        sel = next((i for i in range(r, m) if col[i] != 0), None)
        if sel is None:
            continue
        col[r], col[sel] = col[sel], col[r]
        piv = col[r]
        steps.append((sel, piv, prev, col[r + 1 :]))
        col[r + 1 :] = [0] * (m - r - 1)
        prev = piv
        pivot_cols.append(j)
    return columns, pivot_cols, steps


def _replay(column: list[int], steps: list[tuple]) -> None:
    """Apply the recorded pivot steps to one column, in order and in place:
    step r swaps rows r and sel, then each entry v below row r, beside the
    entry f of the pivot column, becomes (piv * v - f * column[r]) / prev.

    Zero operands skip the multiplications.  Fit matrices of grid points
    are sparse: there the pivot-row entry column[r] is zero in most steps.
    """
    for r, (sel, piv, prev, below) in enumerate(steps):
        column[r], column[sel] = column[sel], column[r]
        top = column[r]
        if top:
            column[r + 1 :] = [
                (piv * v - f * top) // prev if v or f else 0
                for v, f in zip(column[r + 1 :], below)
            ]
        else:
            column[r + 1 :] = [piv * v // prev if v else 0 for v in column[r + 1 :]]


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank over the rationals; an empty matrix has rank 0."""
    return len(echelon(matrix)[1])


def nullspace_vector(matrix: Sequence[Sequence]) -> Vector | None:
    """One exact nonzero solution of M x = 0, or None if only x = 0 works.

    Selection rule, fixed for reproducibility: the highest-index free column
    is set to 1, every other free column to 0, and the pivot variables are
    back-substituted.  When the walk stopped early, that column is the last
    one, and the only column past the last pivot that is ever reduced.
    """
    columns, pivot_cols, steps = echelon(matrix)
    free = set(range(len(columns))).difference(pivot_cols)
    if not free:
        return None
    sel = max(free)
    # With a pivot in every row the walk stopped at the last pivot, so a
    # column after it is not reduced yet.
    if len(pivot_cols) == len(columns[sel]) and sel > pivot_cols[-1]:
        _replay(columns[sel], steps)
    x = [Fraction(0)] * len(columns)
    x[sel] = Fraction(1)
    for r, col in reversed(list(enumerate(pivot_cols))):
        acc = sum(
            (columns[j][r] * x[j] for j in range(col + 1, len(columns)) if x[j]),
            start=Fraction(0),
        )
        x[col] = -acc / columns[col][r]
    return tuple(x)
