from contextlib import contextmanager
from fractions import Fraction
from itertools import combinations, count, product
from math import isqrt

import pytest

from jointlab import kernel
from jointlab.exact import Point, integer_form
from jointlab.constructions import grid, grid_plus_orphan, planar_bundle, random_config
from jointlab.curves import line_as_curve
from jointlab.geometry import Configuration, Line
from jointlab.polynomial import (
    Polynomial,
    _distinct_points,
    _evaluation_matrix,
    _fit_at_degree,
    min_fit_degree,
    monomial_basis,
)


def cube_points(k: int, d: int):
    """The points of {0..k-1}^d, in sorted order."""
    return [Point(pt, 1) for pt in product(range(k), repeat=d)]


def fit_vanishing_at_degree(points, d: int, b: int):
    """The fit at degree b, with the points prepared as fit_vanishing and
    minimal_fit prepare them: deduplicated and sorted."""
    return _fit_at_degree(_distinct_points(points, d), d, b)


def line_point(line, t):
    """The point base + t * direction of the line, as Fractions."""
    t = Fraction(t)
    return tuple(b + t * v for b, v in zip(line.base, line.direction))


def fit_rows(points, d: int):
    """The integer evaluation matrix that the fit at the fit bound hands to
    the kernel: the distinct points, sorted, against the graded-lex basis."""
    pts = _distinct_points(points, d)
    return _evaluation_matrix(pts, monomial_basis(d, min_fit_degree(len(pts), d)))


def walk_updates(rows, p: int | None = None) -> int:
    """The multiply-adds of the kernel's walk of integer rows mod p, by
    default the kernel's first prime: each column the walk reduced is
    reduced again here, in a plain list of residues, by the steps recorded
    before it, counting one multiply-add for each step whose entry in its
    pivot row is nonzero.  The replay must give the walk's own reduced
    columns, so the count is that of the walk."""
    if p is None:
        p = next(kernel._primes())
    columns, m = list(zip(*rows)), len(rows)
    pivots, reduced, steps = kernel._walk(columns, m, p)
    lanes = [kernel._unpack(mults, m).tolist() for _, _, mults, _ in steps]
    updates = 0
    for j, done in enumerate(reduced):
        k = len(done)  # the steps recorded before column j
        col = [v % p for v in columns[j]]
        for (q, *_), mults in zip(steps[:k], lanes):
            top = col[q]
            if top:
                updates += 1
                col = [(v + top * f) % p for v, f in zip(col, mults)]
        assert [col[q] for q, *_ in steps[:k]] == done, j
    return updates


def integer_rows(matrix):
    """Each row scaled to integers by integer_form, as the exact kernel
    takes them; scaling a row changes neither rank nor nullspace."""
    return [integer_form(row)[0] for row in matrix]


def poly_product(dim: int, factors) -> Polynomial:
    """The product of the given polynomials in dim variables; 1 for none.
    Numerators multiply as the terms do, and the denominators multiply."""
    terms, den = {(0,) * dim: 1}, 1
    for factor in factors:
        out = {}
        for e1, c1 in terms.items():
            for e2, c2 in factor.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0) + c1 * c2
        terms, den = out, den * factor.den
    return Polynomial(dim, terms, den)


def small_primes():
    """3, 5, 7, 11, ...: primes so small that the modular kernel takes its
    rare paths (unlucky primes, failed reconstructions, p-adic lifting) all
    the time."""
    for n in count(3, 2):
        if all(n % q for q in range(3, isqrt(n) + 1, 2)):
            yield n


@contextmanager
def prime_source(source):
    """Run the exact kernel with its primes drawn from source()."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_primes", source)
        yield


@contextmanager
def logged_lifts(log):
    """Run the exact kernel with the prime of each p-adic lift step logged."""
    lift = kernel._lift

    def logged(residual, digit, block, order, walk, p):
        log.append(p)
        return lift(residual, digit, block, order, walk, p)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(kernel, "_lift", logged)
        yield


def curve_joint_groups(joints):
    """Point -> claimed curve joint: each incident line as a degree-1 curve,
    with the t where base + t * dir reaches the point (first nonzero axis)."""
    groups = {}
    for p in joints.points:
        group = []
        for line in joints.lines_through(p):
            axis = next(i for i, v in enumerate(line.direction) if v != 0)
            t = (tuple(p)[axis] - tuple(line.base)[axis]) / line.direction[axis]
            group.append((line_as_curve(line), t))
        groups[p] = group
    return groups


def grid_with_tripods():
    """grid(3,7) plus two tripods sharing an x-line: pruning cascades.

    The threshold m/(2n) = 345/304 is above 1.  The x-line starts with 2
    joints and becomes eligible only after a branch line's removal kills one
    of them.
    """
    x_line = Line((0, 10, 10), (1, 0, 0))
    branches = [
        Line((x, 10, 10), v) for x in (10, 20) for v in ((0, 1, 0), (0, 0, 1))
    ]
    return Configuration(3, list(grid(3, 7).lines) + [x_line] + branches)


def box(sizes) -> Configuration:
    """The axis-parallel lines through {0..a-1} x {0..b-1} x ... for sizes
    (a, b, ...): per axis, one line per point of the other axes, in product
    order, as grid(d, k) is box((k,) * d)."""
    d = len(sizes)
    lines = []
    for axis in range(d):
        unit = tuple(int(i == axis) for i in range(d))
        for rest in product(*(range(k) for i, k in enumerate(sizes) if i != axis)):
            lines.append(Line(rest[:axis] + (0,) + rest[axis:], unit))
    return Configuration(d, lines)


def nine_hyperplanes():
    """36 lines and 84 rational joints: the hyperplanes x.(1,t,t^2) = t^3 at
    nine t of mixed signs and denominators; line(a,b) is their meet."""
    ts = [
        Fraction(t)
        for t in ("-7/4", "-5/3", "-3/2", "-1", "-1/3", "1/4", "1/2", "2", "3")
    ]
    lines = [
        Line((0, -a * b, a + b), (a * b, -(a + b), 1)) for a, b in combinations(ts, 2)
    ]
    return Configuration(3, lines)


def affine_grid():
    """grid(4,2) under x -> M x + s for a unimodular integer M: 32 lines in
    four direction classes that are off the axes, and 16 joints.  Its trace
    holds the bound and reaches the fit (b = 3), where random d = 4
    configurations have no joints at all."""
    rows = ((1, 1, 0, 0), (0, 1, 1, 0), (0, 0, 1, 1), (1, 0, 0, 2))  # det 1
    shift = (1, -2, 3, 5)

    def linear(x):
        return tuple(sum(m * c for m, c in zip(row, x)) for row in rows)

    return Configuration(
        4,
        [
            Line(tuple(map(sum, zip(linear(line.base), shift))), linear(line.direction))
            for line in grid(4, 2).lines
        ],
    )


@pytest.fixture
def built(monkeypatch):
    """The arguments of every Fraction constructed from now on."""
    calls = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        calls.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    return calls


@pytest.fixture(scope="session")
def corpus():
    """The shared test corpus: grids, random configs, bundles, orphans, and
    an affine image of a grid."""
    entries = []
    for d, k in [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)]:
        entries.append((f"grid({d},{k})", grid(d, k)))
    for d in (3, 4):
        for n in (5, 10, 15, 20, 25):
            for seed in (1, 2, 3, 4, 5):
                entries.append(
                    (f"random(d={d},n={n},seed={seed})", random_config(d, n, seed, 10))
                )
    entries.append(("planar(3,5)", planar_bundle(3, 5)))
    entries.append(("planar(4,2)", planar_bundle(4, 2)))
    entries.append(("planar(3,50)", planar_bundle(3, 50)))
    entries.append(("orphan(3,2)", grid_plus_orphan(3, 2)))
    entries.append(("orphan(3,3)", grid_plus_orphan(3, 3)))
    entries.append(("orphan(4,2)", grid_plus_orphan(4, 2)))
    entries.append(("affine grid(4,2)", affine_grid()))
    return entries
