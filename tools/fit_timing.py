"""Time the exact kernel on the scale fits that no benchmark workload reaches.

For each fit the script builds the integer evaluation matrix and the
graded-lex basis that ``fit_vanishing`` hands to
``exact.nullspace_vector``: the distinct points, sorted, against the basis
of the fit bound.  It runs ``nullspace_vector`` once to count the primes the
kernel draws, the corners its walk checks (free columns divisible by no
earlier free column), the free columns it skips as their monomial
multiples, its p-adic lift steps (calls of ``kernel._lift``) and the cyclic
collector's passes of generations 0, 1 and 2 with the time they took (from
``gc.callbacks``), then times it ``--repeat`` more times in-process.
Beside it, the script runs the kernel call of ``minimal_fit`` (``fit
--minimal``) on the same matrix: ``nullspace_vector`` with the walk free to
stop at the end of each lower degree's block of columns.  It prints one
line per fit: the matrix shape, the primes drawn, the corners checked and
the free columns skipped, the lift steps, the collector's passes and time
and the median time of the fit; then the minimal degree b*, the columns the
minimal fit's walk reached and its median time.

The fits are the grids {0..k-1}^3 for k = 5, 7 and 8, the box
{0..19} x {0..2} x {0..2}, and the joints of the 13 and 15 hyperplanes
x.(1, t, t^2) = t^3 at the parameters below, whose joints are (e3, -e2, e1)
of each three parameters.  A 15-hyperplane run takes a few seconds per
repeat.  Standard library only; run it from the repository root as
``python tools/fit_timing.py [--repeat N] [fit ...]``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from jointlab import kernel  # noqa: E402
from jointlab.exact import Point, nullspace_vector  # noqa: E402
from jointlab.polynomial import (  # noqa: E402
    _distinct_points,
    _evaluation_matrix,
    min_fit_degree,
    monomial_basis,
)

T13 = tuple(
    Fraction(t)
    for t in ("1", "-2", "3", "-1/2", "3/2", "-1/3", "5/3", "-1/4", "7/4", "-5/4", "2/5", "-7/5", "5/2")
)
T15 = T13 + (Fraction(4, 3), Fraction(-3, 4))


def box_points(*sizes: int) -> list[Point]:
    """The points of {0..a-1} x {0..b-1} x {0..c-1} for sizes (a, b, c)."""
    return [Point(pt, 1) for pt in product(*map(range, sizes))]


def hyperplane_joints(ts) -> list[Point]:
    """The joint of the hyperplanes at a, b and c is (abc, -(ab+ac+bc), a+b+c)."""
    return [
        Point.of((a * b * c, -(a * b + a * c + b * c), a + b + c))
        for a, b, c in combinations(ts, 3)
    ]


FITS = {
    "grid(3,5)": lambda: box_points(5, 5, 5),
    "grid(3,7)": lambda: box_points(7, 7, 7),
    "grid(3,8)": lambda: box_points(8, 8, 8),
    "box(20,3,3)": lambda: box_points(20, 3, 3),
    "hyperplanes-13": lambda: hyperplane_joints(T13),
    "hyperplanes-15": lambda: hyperplane_joints(T15),
}


def fit_rows(points: list[Point]) -> tuple[list[list[int]], list[tuple[int, ...]]]:
    """The fit's integer evaluation matrix and its graded-lex basis."""
    pts = _distinct_points(points, 3)
    basis = monomial_basis(3, min_fit_degree(len(pts), 3))
    return _evaluation_matrix(pts, basis), basis


def counted_run(rows, basis) -> tuple[int, int, int, int, list[int], float]:
    """Primes drawn, the corners the last walk checked and the free columns
    it skipped, lift steps, the collector's passes per generation and their
    time in seconds, of one nullspace_vector call."""
    primes, walk, lift = kernel._primes, kernel._walk, kernel._lift
    drawn, walked, lifts = [], [], []
    passes, spent, started = [0, 0, 0], [0.0], []

    def logged_primes():
        for p in primes():
            drawn.append(p)
            yield p

    def logged_walk(*args):
        result = walk(*args)
        walked.append(result)
        return result

    def logged_lift(*args):
        lifts.append(1)
        return lift(*args)

    def logged_collection(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            passes[info["generation"]] += 1
            spent[0] += time.perf_counter() - started.pop()

    kernel._primes, kernel._walk, kernel._lift = logged_primes, logged_walk, logged_lift
    gc.callbacks.append(logged_collection)
    try:
        nullspace_vector(rows, (), basis)
    finally:
        gc.callbacks.remove(logged_collection)
        kernel._primes, kernel._walk, kernel._lift = primes, walk, lift
    pivots, reduced, _ = walked[-1]
    free = len(reduced) - len(pivots)
    skipped = reduced.count(None)
    return len(drawn), free - skipped, skipped, len(lifts), passes, spent[0]


def median_time(call, repeat: int) -> float:
    """The median wall time in seconds of repeat calls."""
    times = []
    for _ in range(repeat):
        start = time.perf_counter()
        call()
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def minimal_run(rows, basis, repeat: int) -> tuple[int, int, float]:
    """The minimal degree b*, the columns the walk reached and the median
    time in seconds of the minimal fit's nullspace_vector call on the rows
    of the fit at the bound b, whose walk may stop at the C(k + 3, 3)
    columns of every degree k < b."""
    b = min_fit_degree(len(rows), 3)
    ends = [comb(k + 3, 3) for k in range(b)]
    walk, reached = kernel._walk, []

    def logged_walk(*args):
        result = walk(*args)
        reached.append(len(result[1]))
        return result

    kernel._walk = logged_walk
    try:
        nums, _ = nullspace_vector(rows, ends, basis)
    finally:
        kernel._walk = walk
    last = max(j for j, v in enumerate(nums) if v)
    b_star = sum(basis[last])
    return b_star, reached[-1], median_time(lambda: nullspace_vector(rows, ends, basis), repeat)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("fits", nargs="*", metavar="fit", help="any of " + ", ".join(FITS))
    parser.add_argument("--repeat", type=int, default=3, help="timed runs per fit (default 3)")
    args = parser.parse_args(argv)
    unknown = [name for name in args.fits if name not in FITS]
    if unknown:
        parser.error(f"unknown fit {unknown[0]!r}")
    if args.repeat < 1:
        parser.error("--repeat must be at least 1")
    for name in args.fits or FITS:
        rows, basis = fit_rows(FITS[name]())
        drawn, corners, skipped, lifts, passes, collecting = counted_run(rows, basis)
        fit = median_time(lambda: nullspace_vector(rows, (), basis), args.repeat)
        b_star, reached, minimal = minimal_run(rows, basis, args.repeat)
        print(
            f"{name}: {len(rows)} x {len(rows[0])}, primes {drawn}, "
            f"corners checked {corners}, free columns skipped {skipped}, lift steps {lifts}, "
            f"gc passes {'/'.join(map(str, passes))} in {1e3 * collecting:.1f} ms, "
            f"median {fit:.3f} s of {args.repeat}; minimal b* {b_star}, "
            f"{reached} of {len(rows[0])} columns walked, median {minimal:.3f} s"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
