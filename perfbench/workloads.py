"""The benchmark's workloads: input files made from a seed, and the jobs on them.

Each workload writes its inputs into a work directory and returns one
rotation cycle of jobs.  A job is the argv of one ``python -m jointlab``
command, run with the work directory as its current directory, so paths in
argv and in the program's output are short and the same in every checkout.
The program under test receives only these files and argv; the seed never
reaches it.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, product
from math import comb
from pathlib import Path
from typing import Callable

from check import GridExpect, HyperplaneExpect, SweepExpect


@dataclass(frozen=True)
class Job:
    key: str  # names the job's input; repeats of a key must print the same bytes
    argv: tuple[str, ...]
    output: str  # file the job writes, relative to the work directory
    expect: object  # what check.check_job needs


def fmt(value: Fraction) -> str:
    """The wire form "p/q", or "p" for an integer."""
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def write_config(path: Path, dim: int, lines) -> None:
    """Write (base, direction) pairs of Fractions as a configuration file."""
    obj = {
        "dim": dim,
        "lines": [
            {"base": [fmt(c) for c in base], "dir": [fmt(c) for c in direction]}
            for base, direction in lines
        ],
    }
    path.write_text(json.dumps(obj, indent=1) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# axis-parallel grids


ORPHAN_BASE = (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7))


def grid_lines(dim: int, k: int, orphan: bool) -> list[tuple[tuple, tuple]]:
    """Lines through {0..k-1}^dim along each axis, and optionally one line
    along (1, ..., 1) through reciprocals of distinct primes, which meets no
    grid line."""
    zero, one = Fraction(0), Fraction(1)
    lines = []
    for axis in range(dim):
        direction = tuple(one if i == axis else zero for i in range(dim))
        for rest in product(range(k), repeat=dim - 1):
            base = list(map(Fraction, rest))
            base.insert(axis, zero)
            lines.append((tuple(base), direction))
    if orphan:
        lines.append((ORPHAN_BASE[:dim], (one,) * dim))
    return lines


GRID_INSTANCES = (
    ("grid-3-5", 3, 5, False),
    ("grid-orphan-3-5", 3, 5, True),
    ("grid-4-3", 4, 3, False),
)


def make_trace_grid(work: Path, seed: int) -> list[Job]:
    """grid(3,5), grid-orphan(3,5) and grid(4,3); the seed fixes their order."""
    instances = list(GRID_INSTANCES)
    random.Random(seed).shuffle(instances)
    jobs = []
    for key, dim, k, orphan in instances:
        write_config(work / f"{key}.json", dim, grid_lines(dim, k, orphan))
        out = f"out-{key}.json"
        argv = ("trace", f"{key}.json", "--json", out)
        jobs.append(Job(key, argv, out, GridExpect(dim, k, orphan)))
    return jobs


# ---------------------------------------------------------------------------
# generic hyperplanes x . (1, t, t^2) = t^3 (Yu-Zhao, "Joints tightened")

# Nine distinct magnitudes with denominators <= 4; the seed picks the signs.
# Fixing the magnitudes, not only bounding them, keeps the operand sizes, and
# so the cost of a job, within a few percent across seeds.
HYPERPLANE_MAGNITUDES = tuple(
    Fraction(p, q)
    for p, q in ((1, 1), (2, 1), (3, 1), (1, 2), (3, 2), (1, 3), (5, 3), (1, 4), (7, 4))
)
HYPERPLANE_FAMILIES = 4


def hyperplane_parameters(rng: random.Random) -> tuple[Fraction, ...]:
    """Nine distinct t = +-m over HYPERPLANE_MAGNITUDES, signs from rng."""
    return tuple(sorted(m if rng.random() < 0.5 else -m for m in HYPERPLANE_MAGNITUDES))


def hyperplane_line(a: Fraction, b: Fraction) -> tuple[tuple, tuple]:
    """The line where the hyperplanes at a and b meet: base + s * direction."""
    base = (Fraction(0), -a * b, a + b)
    direction = (a * b, -(a + b), Fraction(1))
    return base, direction


def hyperplane_family(ts: tuple[Fraction, ...]) -> tuple[list, list]:
    """C(k,2) lines and C(k,3) joints in closed form, verified exactly.

    The joint of hyperplanes a, b, c is (e3, -e2, e1) of {a, b, c}; it lies
    on line(a, b) at s = c.  Raises ValueError if the family is not generic.
    """
    lines = [hyperplane_line(a, b) for a, b in combinations(ts, 2)]
    joints = HyperplaneExpect(ts).joints()
    for (a, b, c), joint in zip(combinations(ts, 3), joints):
        for (u, v), s in (((a, b), c), ((a, c), b), ((b, c), a)):
            base, direction = hyperplane_line(u, v)
            if tuple(x + s * y for x, y in zip(base, direction)) != joint:
                raise ValueError(f"joint of {a}, {b}, {c} is not on line({u}, {v})")
    k = len(ts)
    if len({d for _, d in lines}) != comb(k, 2):
        raise ValueError("two hyperplane lines share a direction")
    if len(set(joints)) != comb(k, 3):
        raise ValueError("two triples of hyperplanes share a joint")
    return lines, joints


def make_trace_hyperplanes(work: Path, seed: int) -> list[Job]:
    """Four families of nine hyperplanes: 36 lines and 84 joints each."""
    rng = random.Random(seed)
    jobs = []
    for i in range(HYPERPLANE_FAMILIES):
        ts = hyperplane_parameters(rng)
        lines, _ = hyperplane_family(ts)
        key = f"hyperplanes-{i}"
        write_config(work / f"{key}.json", 3, lines)
        out = f"out-{key}.json"
        argv = ("trace", f"{key}.json", "--json", out)
        jobs.append(Job(key, argv, out, HyperplaneExpect(ts)))
    return jobs


# ---------------------------------------------------------------------------
# random sweeps

SWEEP_N = 200
SWEEP_JOBS = 3


def make_sweep_random(work: Path, seed: int) -> list[Job]:
    """Three `sweep random` jobs at n = 200, one seeded configuration each."""
    jobs = []
    for config_seed in random.Random(seed).sample(range(1, 1_000_000), SWEEP_JOBS):
        key = f"random-{config_seed}"
        out = f"out-{key}.csv"
        argv = (
            "sweep", "random", "--dim", "3", "--n", str(SWEEP_N),
            "--seeds", str(config_seed), "--csv", out,
        )
        jobs.append(Job(key, argv, out, SweepExpect(3, SWEEP_N, config_seed)))
    return jobs


# Why each workload was chosen is recorded in BENCHMARK.json and README.md.
WORKLOADS: dict[str, Callable[[Path, int], list[Job]]] = {
    "trace-grid": make_trace_grid,
    "trace-hyperplanes": make_trace_hyperplanes,
    "sweep-random": make_sweep_random,
}
