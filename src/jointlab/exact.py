"""Exact rational scalars, vectors, and matrices.

Scalars are arbitrary-precision rationals (``fractions.Fraction``), so every
comparison in the toolkit is an exact decision rather than a tolerance check.
Elimination is fraction-free: rows are scaled to integers and each
intermediate entry stays an integer minor of the input (Bareiss), which keeps
coefficient growth polynomial without ever rounding.

Vectors are plain tuples of Fractions and matrices are sequences of rows;
both are treated as immutable values throughout.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm
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


def _validated_rows(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    rows = [[Fraction(v) for v in row] for row in matrix]
    widths = {len(row) for row in rows}
    if len(widths) > 1:
        raise ValueError("matrix rows have unequal lengths")
    return rows


def _integer_rows(rows: list[list[Fraction]]) -> list[list[int]]:
    # Row scaling changes neither rank nor nullspace.
    out = []
    for row in rows:
        mult = lcm(*(f.denominator for f in row)) if row else 1
        out.append([int(f * mult) for f in row])
    return out


def _fraction_free_echelon(rows: list[list[int]]) -> list[int]:
    """Reduce integer rows to echelon form in place; return pivot columns.

    One-step Bareiss: after eliminating with pivot p the entries are divided
    by the previous pivot, an exact integer division because every entry is a
    minor of the input.  Pivots are found by scanning rows top-to-bottom per
    column, columns left-to-right, so the result is deterministic.
    """
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
    return pivot_cols


def rank(matrix: Sequence[Sequence]) -> int:
    """Exact rank over the rationals; an empty matrix has rank 0."""
    rows = _validated_rows(matrix)
    if not rows or not rows[0]:
        return 0
    return len(_fraction_free_echelon(_integer_rows(rows)))


def nullspace_vector(matrix: Sequence[Sequence]) -> Vector | None:
    """One exact nonzero solution of M x = 0, or None if only x = 0 works.

    Selection rule, fixed for reproducibility: the highest-index free column
    is set to 1, every other free column to 0, and the pivot variables are
    back-substituted.
    """
    rows = _validated_rows(matrix)
    cols = len(rows[0]) if rows else 0
    if cols == 0:
        return None
    ints = _integer_rows(rows)
    pivot_cols = _fraction_free_echelon(ints)
    pivots = set(pivot_cols)
    free = [c for c in range(cols) if c not in pivots]
    if not free:
        return None
    x = [Fraction(0)] * cols
    x[free[-1]] = Fraction(1)
    for idx in reversed(range(len(pivot_cols))):
        col = pivot_cols[idx]
        row = ints[idx]
        acc = sum(
            (Fraction(row[j]) * x[j] for j in range(col + 1, cols) if x[j]),
            start=Fraction(0),
        )
        x[col] = -acc / row[col]
    return tuple(x)
