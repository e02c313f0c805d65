"""Output checks for benchmark jobs, independent of the package under test.

Nothing here imports ``jointlab``: the checker has its own parser and exact
evaluator for the ``fitted`` polynomial text, so a defect in the package's
parser or evaluator cannot make a wrong output look right.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb, factorial


class CheckError(Exception):
    """A job's output is wrong."""


@dataclass(frozen=True)
class GridExpect:
    """Axis-parallel grid on {0..k-1}^d, plus one orphan line if asked."""

    dim: int
    k: int
    orphan: bool


@dataclass(frozen=True)
class HyperplaneExpect:
    """Lines of the hyperplane family x . (1, t, t^2) = t^3 at these t."""

    ts: tuple[Fraction, ...]

    def joints(self) -> list[tuple[Fraction, Fraction, Fraction]]:
        """The point (e3, -e2, e1) of every triple of parameters."""
        ts = self.ts
        out = []
        for i in range(len(ts)):
            for j in range(i + 1, len(ts)):
                for k in range(j + 1, len(ts)):
                    a, b, c = ts[i], ts[j], ts[k]
                    out.append((a * b * c, -(a * b + a * c + b * c), a + b + c))
        return out


@dataclass(frozen=True)
class SweepExpect:
    """One `sweep random` row for dimension dim, n lines and one seed."""

    dim: int
    n: int
    seed: int


# ---------------------------------------------------------------------------
# the fitted polynomial, as text

_RATIONAL = re.compile(r"^\d+(?:/\d+)?$")
_FACTOR = re.compile(r"^x([1-9]\d*)(?:\^([1-9]\d*))?$")


def _rational(text: str) -> Fraction:
    if not _RATIONAL.match(text):
        raise CheckError(f"bad coefficient {text!r}")
    num, _, den = text.partition("/")
    if den and int(den) == 0:
        raise CheckError(f"zero denominator in {text!r}")
    return Fraction(int(num), int(den or 1))


def parse_polynomial(text: str, dim: int) -> dict[tuple[int, ...], Fraction]:
    """Terms of a polynomial written as ``"x1^2*x3 - 3/2*x2 + 5"``.

    Terms are separated by ``" + "`` or ``" - "``; the first may carry a
    leading ``-``.  A term is an optional unsigned rational coefficient
    followed by ``*``-joined factors ``x<i>`` or ``x<i>^<e>``.  A monomial
    may appear only once and no coefficient may be zero.  ``"0"`` is the
    zero polynomial.
    """
    if text == "0":
        return {}
    tokens = text.split(" ")
    if len(tokens) % 2 == 0:
        raise CheckError(f"malformed polynomial {text!r}")
    terms: dict[tuple[int, ...], Fraction] = {}
    for pos in range(0, len(tokens), 2):
        body = tokens[pos]
        if pos == 0:
            sign = -1 if body.startswith("-") else 1
            body = body[1:] if sign < 0 else body
        else:
            op = tokens[pos - 1]
            if op not in ("+", "-"):
                raise CheckError(f"bad operator {op!r} in {text!r}")
            sign = 1 if op == "+" else -1
        factors = body.split("*")
        coeff = Fraction(1)
        if factors and not factors[0].startswith("x"):
            coeff = _rational(factors.pop(0))
        exps = [0] * dim
        for factor in factors:
            match = _FACTOR.match(factor)
            if not match or int(match.group(1)) > dim:
                raise CheckError(f"bad factor {factor!r} in {text!r}")
            exps[int(match.group(1)) - 1] += int(match.group(2) or 1)
        key = tuple(exps)
        if key in terms or coeff == 0:
            raise CheckError(f"repeated or zero term {body!r} in {text!r}")
        terms[key] = sign * coeff
    return terms


def evaluate(terms: dict[tuple[int, ...], Fraction], point) -> Fraction:
    total = Fraction(0)
    for exps, coeff in terms.items():
        value = coeff
        for x, e in zip(point, exps):
            if e:
                value *= Fraction(x) ** e
        total += value
    return total


def degree(terms: dict[tuple[int, ...], Fraction]) -> int:
    return max((sum(e) for e in terms), default=-1)


def min_fit_degree(m: int, dim: int) -> int:
    """Smallest b with C(b + d, d) > m."""
    b = 0
    while comb(b + dim, dim) <= m:
        b += 1
    return b


# ---------------------------------------------------------------------------
# per-workload checks


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


def _check_fit(report: dict, dim: int, m: int, points) -> None:
    terms = parse_polynomial(report.get("fitted") or "", dim)
    _require(bool(terms), "fitted polynomial is zero")
    bound = min_fit_degree(m, dim)
    _require(
        degree(terms) <= bound,
        f"fitted degree {degree(terms)} exceeds the bound {bound}",
    )
    for point in points:
        value = evaluate(terms, point)
        _require(value == 0, f"fitted polynomial is {value} at joint {point}")


def _trace_report(stdout: str, output: bytes, dim: int, n: int, m: int) -> dict:
    _require("[outcome] BOUND_HOLDS" in stdout, "stdout lacks the outcome line")
    _require("trace written to " in stdout, "stdout lacks the written-to line")
    try:
        report = json.loads(output)
    except ValueError as exc:
        raise CheckError(f"trace JSON does not parse: {exc}") from exc
    _require(isinstance(report, dict), "trace JSON is not an object")
    got = (report.get("dim"), report.get("n"), report.get("m"))
    _require(
        got == (str(dim), str(n), str(m)),
        f"(dim, n, m) = {got}, expected ({dim}, {n}, {m})",
    )
    _require(
        report.get("outcome") == "BOUND_HOLDS",
        f"outcome {report.get('outcome')!r}",
    )
    return report


def check_grid(expect: GridExpect, stdout: str, output: bytes) -> None:
    d, k = expect.dim, expect.k
    n = d * k ** (d - 1) + (1 if expect.orphan else 0)
    m = k**d
    report = _trace_report(stdout, output, d, n, m)
    _check_fit(report, d, m, product(range(k), repeat=d))


def check_hyperplanes(expect: HyperplaneExpect, stdout: str, output: bytes) -> None:
    k = len(expect.ts)
    report = _trace_report(stdout, output, 3, comb(k, 2), comb(k, 3))
    _check_fit(report, 3, comb(k, 3), expect.joints())


def check_sweep(expect: SweepExpect, stdout: str, output: bytes) -> None:
    _require("wrote 1 row(s) to " in stdout, "stdout lacks the written-to line")
    rows = list(csv.reader(io.StringIO(output.decode("utf-8", errors="replace"))))
    _require(
        rows[:1] == [["d", "k_or_n", "seed", "n", "m", "lhs", "rhs", "holds", "ratio"]],
        "CSV header differs",
    )
    _require(len(rows) == 2, f"{len(rows) - 1} CSV rows, expected 1")
    _require(len(rows[1]) == 9, f"CSV row has {len(rows[1])} fields, expected 9")
    d, k_or_n, seed, n, m, lhs, rhs, holds, _ratio = rows[1]
    got = (d, k_or_n, seed, n)
    want = (str(expect.dim), str(expect.n), str(expect.seed), str(expect.n))
    _require(got == want, f"(d, k_or_n, seed, n) = {got}, expected {want}")
    _require(m.isdigit(), f"m = {m!r} is not a count")
    _require(lhs == str(int(m) ** (expect.dim - 1)), f"lhs {lhs} != m^(d-1)")
    bound = 2 ** (expect.dim + 1) * factorial(expect.dim) * expect.n**expect.dim
    _require(rhs == str(bound), f"rhs {rhs} != {bound}")
    _require(holds == "true", f"holds = {holds!r}")


def check_job(expect, stdout: bytes, output: bytes) -> None:
    """Raise CheckError unless a job's stdout and output file are right."""
    text = stdout.decode("utf-8", errors="replace")
    if isinstance(expect, GridExpect):
        check_grid(expect, text, output)
    elif isinstance(expect, HyperplaneExpect):
        check_hyperplanes(expect, text, output)
    elif isinstance(expect, SweepExpect):
        check_sweep(expect, text, output)
    else:
        raise TypeError(f"no check for {expect!r}")
