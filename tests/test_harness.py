import csv

import pytest

from jointlab import harness
from jointlab.harness import CSV_COLUMNS, sweep_grids, sweep_random, write_csv


class TestSweepGrids:
    def test_d3_rows(self):
        rows = sweep_grids(3, range(2, 5))
        assert [(r.n, r.m) for r in rows] == [(12, 8), (27, 27), (48, 64)]
        assert all(r.holds for r in rows)
        assert all(r.lhs <= r.rhs for r in rows)

    def test_ratio_constant_for_grids(self):
        rows = sweep_grids(3, range(2, 6))
        ratios = {r.ratio for r in rows}
        assert ratios == {"0.19245"}

    def test_d4_row(self):
        (row,) = sweep_grids(4, [2])
        assert (row.n, row.m) == (32, 16)

    def test_empty_range(self):
        assert sweep_grids(3, range(4, 4)) == []

    def test_pair_guard(self):
        with pytest.raises(ValueError, match="force"):
            sweep_grids(3, [19])

    def test_guard_fires_before_building(self, monkeypatch):
        built = []
        monkeypatch.setattr(harness, "grid", lambda d, k: built.append(k))
        with pytest.raises(ValueError, match="force"):
            sweep_grids(3, [150])
        assert built == []


class TestSweepRandom:
    def test_rows_and_determinism(self):
        rows = sweep_random(3, [10, 20], [1, 2, 3, 4, 5])
        assert len(rows) == 10
        assert all(r.holds for r in rows)
        assert rows == sweep_random(3, [10, 20], [1, 2, 3, 4, 5])

    def test_single_line(self):
        (row,) = sweep_random(3, [1], [9])
        assert row.m == 0

    def test_guard_fires_before_generation(self):
        with pytest.raises(ValueError, match="force"):
            sweep_random(3, [1001], [1])


class TestCsv:
    def test_round_trip(self, tmp_path):
        rows = sweep_grids(3, range(2, 5)) + sweep_random(3, [5], [1, 2])
        path = tmp_path / "sweep.csv"
        write_csv(rows, path)
        header, *records = csv.reader(path.read_text().splitlines())
        assert header == CSV_COLUMNS
        assert records == [
            [str(r.d), str(r.k_or_n), "" if r.seed is None else str(r.seed)]
            + [str(v) for v in (r.n, r.m, r.lhs, r.rhs)]
            + ["true" if r.holds else "false", r.ratio]
            for r in rows
        ]

    def test_header(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv([], path)
        header = path.read_text().splitlines()[0]
        assert header == "d,k_or_n,seed,n,m,lhs,rhs,holds,ratio"

    def test_seed_column_empty_for_grids(self, tmp_path):
        path = tmp_path / "sweep.csv"
        write_csv(sweep_grids(3, [2]), path)
        line = path.read_text().splitlines()[1]
        assert line.split(",")[2] == ""
