"""Experiment sweeps over configuration families, with CSV persistence.

Each row records the exact integer inequality check m^(d-1) <= 2^(d+1) d! n^d
plus the decimal ratio m / n^(d/(d-1)) for human reading; assertions use only
the integers, the decimal is 6-significant-digit display.
"""

from __future__ import annotations

import csv
from typing import Iterable, NamedTuple, Sequence

from .constructions import grid, random_config
from .errors import InternalInvariantViolation
from .geometry import bound_check, find_joints

PAIR_GUARD = 1_000_000


class SweepRow(NamedTuple):
    d: int
    k_or_n: int
    seed: int | None
    n: int
    m: int
    lhs: int
    rhs: int
    holds: bool
    ratio: str


def _guard_pairs(n: int, force: bool) -> None:
    if n * n > PAIR_GUARD and not force:
        raise ValueError(
            f"{n} lines mean {n * n} candidate pairs > {PAIR_GUARD}; "
            "pass force=True (--force) to run anyway"
        )


def _make_row(d: int, k_or_n: int, seed: int | None, n: int, m: int) -> SweepRow:
    chk = bound_check(n, m, d)
    if not chk.holds:
        raise InternalInvariantViolation(
            f"inequality violated at d={d}, n={n}, m={m}: this would be a "
            "counterexample and is an implementation bug"
        )
    ratio = m / n ** (d / (d - 1))
    return SweepRow(
        d=d,
        k_or_n=k_or_n,
        seed=seed,
        n=n,
        m=m,
        lhs=chk.lhs,
        rhs=chk.rhs,
        holds=chk.holds,
        ratio=f"{ratio:.6g}",
    )


def sweep_grids(d: int, k_min: int, k_max: int, force: bool = False) -> list[SweepRow]:
    """One row per grid size k in [k_min, k_max]; empty range gives no rows.

    The pair budget is checked on the grid's d * k^(d-1) lines before the
    grid is built; arguments that grid refuses are left to it.
    """
    rows = []
    for k in range(k_min, k_max + 1):
        if d >= 3 and k >= 2:
            _guard_pairs(d * k ** (d - 1), force)
        config = grid(d, k)
        m = len(find_joints(config))
        rows.append(_make_row(d, k, None, config.n, m))
    return rows


def sweep_random(
    d: int,
    n_list: Sequence[int],
    seeds: Sequence[int],
    coord_bound: int = 10,
    force: bool = False,
) -> list[SweepRow]:
    """One row per (line count, seed) pair, in deterministic order."""
    rows = []
    for n in n_list:
        _guard_pairs(n, force)
        for seed in seeds:
            config = random_config(d, n, seed, coord_bound)
            m = len(find_joints(config))
            rows.append(_make_row(d, n, seed, config.n, m))
    return rows


CSV_COLUMNS = list(SweepRow._fields)


def write_csv(rows: Iterable[SweepRow], path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for row in rows:
            writer.writerow(
                [
                    row.d,
                    row.k_or_n,
                    "" if row.seed is None else row.seed,
                    row.n,
                    row.m,
                    row.lhs,
                    row.rhs,
                    "true" if row.holds else "false",
                    row.ratio,
                ]
            )
