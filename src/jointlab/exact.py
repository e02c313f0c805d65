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

_RATIONAL_RE = re.compile(r"^-?\d+(?:/\d+)?$")


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


def echelon(matrix: Sequence[Sequence]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free row echelon form of a rational matrix.

    Entries are ints or Fractions; anything else ``Fraction`` accepts (a
    string like ``"1/2"``, a float, a Decimal) is converted first.  Each row
    is scaled to integers, which changes neither rank nor nullspace.
    One-step Bareiss then eliminates: after using pivot p the entries are
    divided by the previous pivot, an exact integer division because every
    entry is a minor of the input.  Pivots are found by scanning rows
    top-to-bottom per column, columns left-to-right.  Returns the reduced
    integer rows and the pivot columns.
    """
    rows = [
        integer_form([v if isinstance(v, Rational) else Fraction(v) for v in row])[0]
        for row in matrix
    ]
    if len({len(row) for row in rows}) > 1:
        raise ValueError("matrix rows have unequal lengths")
    m = len(rows)
    cols = len(rows[0]) if m else 0
    pivot_cols: list[int] = []
    prev = 1
    r = 0
    for col in range(cols):
        if r == m:
            break
        sel = next((i for i in range(r, m) if rows[i][col] != 0), None)
        if sel is None:
            continue
        if sel != r:
            rows[r], rows[sel] = rows[sel], rows[r]
        piv = rows[r][col]
        for i in range(r + 1, m):
            factor = rows[i][col]
            row_i, row_r = rows[i], rows[r]
            for j in range(col + 1, cols):
                row_i[j] = (piv * row_i[j] - factor * row_r[j]) // prev
            row_i[col] = 0
        prev = piv
        pivot_cols.append(col)
        r += 1
    return rows, pivot_cols


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank over the rationals; an empty matrix has rank 0."""
    return len(echelon(matrix)[1])


def nullspace_vector(matrix: Sequence[Sequence]) -> Vector | None:
    """One exact nonzero solution of M x = 0, or None if only x = 0 works.

    Selection rule, fixed for reproducibility: the highest-index free column
    is set to 1, every other free column to 0, and the pivot variables are
    back-substituted.
    """
    rows, pivot_cols = echelon(matrix)
    cols = len(rows[0]) if rows else 0
    free = set(range(cols)).difference(pivot_cols)
    if not free:
        return None
    x = [Fraction(0)] * cols
    x[max(free)] = Fraction(1)
    for row, col in reversed(list(zip(rows, pivot_cols))):
        acc = sum(
            (row[j] * x[j] for j in range(col + 1, cols) if x[j]), start=Fraction(0)
        )
        x[col] = -acc / row[col]
    return tuple(x)
