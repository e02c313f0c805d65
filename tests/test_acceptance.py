"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
All comparisons are exact (integers and rationals); the only tolerances are
the two the criteria state, both about decimal display and projection luck.
"""

import functools
import random
import time
from fractions import Fraction
from math import comb, factorial

from jointlab.cli import main
from jointlab.constructions import grid, grid_plus_orphan
from jointlab.curves import (
    CurveConfiguration,
    ParamCurve,
    curve_joint_set,
    curve_prune,
    line_as_curve,
    polynomial_from_text,
    restrict_to_curve,
)
from jointlab.errors import GenericityFailureError
from jointlab.exact import Point
from jointlab.geometry import Line, find_joints, is_joint, save_configuration
from jointlab.harness import sweep_grids
from jointlab.pipeline import (
    CONTRADICTION_BUG,
    GRADIENT_ZERO,
    bound_check,
    cascade,
    gradient_at_joints_check,
    prune,
    trace,
)
from jointlab.polynomial import (
    Polynomial,
    fit_vanishing,
    min_fit_degree,
    restrict_to_line,
    vanishes_on_line,
)
from jointlab.projection import mat_vec, project_to_generic_flat

from conftest import poly_product
from oracles import nullspace_is_trivial_naive, rank_naive


def criterion(num, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num} ({name}): FAIL")
                raise
            print(f"\nACCEPTANCE {num} ({name}): PASS")

        return wrapper

    return deco


def F(v):
    return Fraction(v)


def vec(*vals):
    return tuple(Fraction(v) for v in vals)


def grid_product_poly(d, k):
    """Product over axes and grid levels of (x_i - j)."""
    factors = (f"x{i} - {j}" for i in range(1, d + 1) for j in range(k))
    return poly_product(d, [polynomial_from_text(f, d) for f in factors])


@criterion(1, "grid exactness via CLI")
def test_criterion_1_grid_exactness(tmp_path, capsys):
    for d, k in [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3)]:
        path = str(tmp_path / f"grid_{d}_{k}.json")
        start = time.perf_counter()
        assert main(["gen", "grid", "--dim", str(d), "--k", str(k), "-o", path]) == 0
        gen_out = capsys.readouterr().out
        assert f"wrote {d * k ** (d - 1)} lines" in gen_out
        assert main(["joints", path]) == 0
        joints_out = capsys.readouterr().out
        elapsed = time.perf_counter() - start
        assert int(joints_out.splitlines()[0]) == k**d, (d, k)
        assert elapsed <= 10.0, f"grid({d},{k}) took {elapsed:.1f}s"


@criterion(2, "theorem inequality over the corpus")
def test_criterion_2_bound_everywhere(tmp_path, capsys, corpus):
    for i, (name, config) in enumerate(corpus):
        m = len(find_joints(config))
        chk = bound_check(config.n, m, config.dim)
        assert chk.holds, name
        assert chk.lhs == m ** (config.dim - 1)
        assert chk.rhs == 2 ** (config.dim + 1) * factorial(config.dim) * config.n ** config.dim
        path = str(tmp_path / f"corpus_{i}.json")
        save_configuration(config, path)
        assert main(["bound", path]) == 0, name
        capsys.readouterr()


@criterion(3, "tightness of the grid family")
def test_criterion_3_tightness():
    rows = sweep_grids(3, range(2, 7))
    assert [r.k_or_n for r in rows] == [2, 3, 4, 5, 6]
    ratios = [float(r.ratio) for r in rows]
    expected = 3 ** -1.5
    for a in ratios:
        assert abs(a - expected) < 1e-6
    for a in ratios:
        for b in ratios:
            assert abs(a - b) < 1e-6


@criterion(4, "vanishing-fit contract on random point sets")
def test_criterion_4_fit_contract():
    rng = random.Random(4242)
    for trial in range(100):
        d = 3 if trial % 2 == 0 else 4
        target = rng.randint(1, 40)
        points = {
            tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(d))
            for _ in range(target)
        }
        m = len(points)
        p = fit_vanishing([Point.of(x) for x in points], d)
        b = min_fit_degree(m, d)
        assert not p.is_zero()
        assert p.degree() <= b
        for pt in points:
            assert p.evaluate(pt) == 0
        # integer form of the ceiling bound: smallest c with c^d >= d! * m
        c = 0
        while c**d < factorial(d) * m:
            c += 1
        assert b <= c, (m, d, b, c)


@criterion(5, "pruning invariants")
def test_criterion_5_pruning(corpus):
    for d, k in [(3, 2), (3, 3), (4, 2)]:
        config = grid_plus_orphan(d, k)
        result = prune(config, find_joints(config))
        assert len(result.removed_lines) == 1, (d, k)
        assert result.removed_lines[0].direction == tuple(F(1) for _ in range(d))
        assert result.surviving == grid(d, k)
        assert result.removed_points == frozenset()
    for name, config in corpus:
        joints = find_joints(config)
        m = len(joints)
        result = prune(config, joints)
        removed = len(result.removed_points)
        if m > 0:
            assert Fraction(removed) < Fraction(m, 2), name
        else:
            assert removed == 0, name
        counts = {line: 0 for line in result.surviving.lines}
        for p in result.survivors.points:
            for line in result.survivors.lines_through(p):
                counts[line] += 1
        for line, count in counts.items():
            assert Fraction(count) >= result.threshold, name
        for p in result.survivors.points:
            assert is_joint(result.surviving, p), name


@criterion(6, "gradient lemma on grid product polynomials")
def test_criterion_6_gradient_lemma():
    for d, k in [(3, 2), (3, 3)]:
        config = grid(d, k)
        p = grid_product_poly(d, k)
        for line in config.sorted_lines():
            assert vanishes_on_line(p, line), (d, k)
        joints = find_joints(config)
        assert len(joints) == k**d
        report = gradient_at_joints_check(p, joints)
        assert report.count(GRADIENT_ZERO) == k**d
    assert cascade(grid_product_poly(3, 2), grid(3, 2).lines) == 1


@criterion(7, "trace soundness and faithful recording")
def test_criterion_7_trace(corpus):
    for name, config in corpus:
        result = trace(config)
        assert result.outcome != CONTRADICTION_BUG, name
    result = trace(grid(3, 4))
    # b cross-checked by direct binomial enumeration: smallest b with
    # C(b+3,3) > 64 is 6 (C(8,3)=56 <= 64 < 84=C(9,3)).
    enumerated = next(b for b in range(100) if comb(b + 3, 3) > 64)
    assert enumerated == 6
    assert result.b == enumerated
    # every grid(3,4) line carries exactly k = 4 joints; the trace must
    # record that count for each of the 48 lines, verified independently
    joints = find_joints(grid(3, 4))
    for line, recorded in result.per_line_joint_counts.items():
        brute = sum(1 for p in joints.points if line in joints.lines_through(p))
        assert recorded == brute == 4
    assert len(result.per_line_joint_counts) == 48


@criterion(8, "generic projection of s-joints")
def test_criterion_8_projection():
    for k in (2, 3):
        config = grid(3, k)
        joints = find_joints(config)
        successes = 0
        for seed in range(1, 21):
            try:
                projection = project_to_generic_flat(config, 2, seed)
            except GenericityFailureError:
                continue
            successes += 1
            for p in joints.points:
                image = Point.of(mat_vec(projection.matrix, p))
                assert is_joint(projection.config, image), (k, seed)
            projected_joints = find_joints(projection.config)
            chk = bound_check(projection.config.n, len(projected_joints), 2)
            assert chk.holds, (k, seed)
        assert successes >= 19, f"k={k}: only {successes}/20 seeds succeeded"


@criterion(9, "curve restrictions and curve pruning")
def test_criterion_9_curves():
    moment = ParamCurve(
        ((F(0), F(1)), (F(0), F(0), F(1)), (F(0), F(0), F(0), F(1)))
    )
    p = Polynomial(3, {(0, 2, 0): F(1), (1, 0, 1): F(-1)})  # x2^2 - x1*x3
    assert restrict_to_curve(p, moment) == ()

    from jointlab.polynomial import monomial_basis

    rng = random.Random(909)
    basis = monomial_basis(3, 3)
    checked = 0
    while checked < 50:
        terms = {
            basis[rng.randrange(len(basis))]: F(rng.randint(-6, 6))
            for _ in range(rng.randint(1, 5))
        }
        poly = Polynomial(3, terms)
        direction = tuple(F(rng.randint(-4, 4)) for _ in range(3))
        if all(c == 0 for c in direction):
            continue
        base = tuple(F(rng.randint(-4, 4)) for _ in range(3))
        line = Line(base, direction)
        assert restrict_to_curve(poly, line_as_curve(line)) == restrict_to_line(
            poly, line
        )
        checked += 1

    axes = [
        ParamCurve(((F(0), F(1)), (F(0),), (F(0),))),
        ParamCurve(((F(0),), (F(0), F(1)), (F(0),))),
        ParamCurve(((F(0),), (F(0),), (F(0), F(1)))),
    ]
    shifted = [
        ParamCurve(((F(5), F(1)), (F(5),), (F(5),))),
        ParamCurve(((F(5),), (F(5), F(1)), (F(5),))),
        ParamCurve(((F(5),), (F(5),), (F(5), F(1)))),
    ]
    orphan = ParamCurve(((F(1), F(0), F(0), F(1)), (F(2),), (F(3),)))
    cfg = CurveConfiguration(3, tuple(axes) + tuple(shifted) + (orphan,))
    joints = curve_joint_set(
        [
            [(c, F(0)) for c in axes],
            [(c, F(0)) for c in shifted],
        ]
    )
    m = len(joints)
    result = curve_prune(cfg, joints)
    assert orphan in result.removed_curves
    assert Fraction(len(result.removed_points)) < Fraction(m, 2)


@criterion(10, "modular vs naive elimination")
def test_criterion_10_oracle_equivalence():
    from jointlab.exact import nullspace_vector, rank

    rng = random.Random(777)
    for _ in range(200):
        rows = rng.randint(1, 8)
        cols = rng.randint(1, 8)
        matrix = [
            [rng.randint(-9, 9) for _ in range(cols)] for _ in range(rows)
        ]
        assert rank(matrix) == rank_naive(matrix)
        assert (nullspace_vector(matrix) is None) == nullspace_is_trivial_naive(
            matrix
        )
