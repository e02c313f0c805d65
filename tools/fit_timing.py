"""Time the exact kernel on the scale fits that no benchmark workload reaches.

For each fit the script builds the integer evaluation matrix that
``fit_vanishing`` hands to ``exact.nullspace_vector``: the distinct joints,
sorted, against the graded-lex basis of the fit bound.  It runs
``nullspace_vector`` once to count the primes the kernel draws, its p-adic
lift steps (calls of ``kernel._lift``) and the cyclic collector's passes of
generations 0, 1 and 2 with the time they took (from ``gc.callbacks``),
then times it ``--repeat`` more times in-process and prints one line per
fit: the matrix shape, the primes drawn, the lift steps, the collector's
passes and time, and the median time.

The fits are the grids {0..k-1}^3 for k = 7 and 8, and the joints of the 13
and 15 hyperplanes x.(1, t, t^2) = t^3 at the parameters below, whose
joints are (e3, -e2, e1) of each three parameters.  A 15-hyperplane run
takes a few seconds per repeat.  Standard library only; run it from the
repository root as ``python tools/fit_timing.py [--repeat N] [fit ...]``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
import time
from fractions import Fraction
from itertools import combinations, product
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


def grid_points(k: int) -> list[Point]:
    return [Point(pt, 1) for pt in product(range(k), repeat=3)]


def hyperplane_joints(ts) -> list[Point]:
    """The joint of the hyperplanes at a, b and c is (abc, -(ab+ac+bc), a+b+c)."""
    return [
        Point.of((a * b * c, -(a * b + a * c + b * c), a + b + c))
        for a, b, c in combinations(ts, 3)
    ]


FITS = {
    "grid(3,7)": lambda: grid_points(7),
    "grid(3,8)": lambda: grid_points(8),
    "hyperplanes-13": lambda: hyperplane_joints(T13),
    "hyperplanes-15": lambda: hyperplane_joints(T15),
}


def fit_rows(points: list[Point]) -> list[list[int]]:
    pts = _distinct_points(points, 3)
    return _evaluation_matrix(pts, monomial_basis(3, min_fit_degree(len(pts), 3)))


def counted_run(rows) -> tuple[int, int, list[int], float]:
    """Primes drawn, lift steps, the collector's passes per generation and
    their time in seconds, of one nullspace_vector call."""
    primes, lift = kernel._primes, kernel._lift
    drawn, lifts = [], []
    passes, spent, started = [0, 0, 0], [0.0], []

    def logged_primes():
        for p in primes():
            drawn.append(p)
            yield p

    def logged_lift(*args):
        lifts.append(1)
        return lift(*args)

    def logged_collection(phase, info):
        if phase == "start":
            started.append(time.perf_counter())
        else:
            passes[info["generation"]] += 1
            spent[0] += time.perf_counter() - started.pop()

    kernel._primes, kernel._lift = logged_primes, logged_lift
    gc.callbacks.append(logged_collection)
    try:
        nullspace_vector(rows)
    finally:
        gc.callbacks.remove(logged_collection)
        kernel._primes, kernel._lift = primes, lift
    return len(drawn), len(lifts), passes, spent[0]


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
        rows = fit_rows(FITS[name]())
        drawn, lifts, passes, collecting = counted_run(rows)
        times = []
        for _ in range(args.repeat):
            start = time.perf_counter()
            nullspace_vector(rows)
            times.append(time.perf_counter() - start)
        print(
            f"{name}: {len(rows)} x {len(rows[0])}, primes {drawn}, lift steps {lifts}, "
            f"gc passes {'/'.join(map(str, passes))} in {1e3 * collecting:.1f} ms, "
            f"median {statistics.median(times):.3f} s of {args.repeat}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
