import pytest

from jointlab.constructions import grid, grid_plus_orphan, planar_bundle, random_config
from jointlab.files import configuration_from_dict, configuration_to_dict
from jointlab.geometry import find_joints, incident

from conftest import cube_points


class TestGrid:
    @pytest.mark.parametrize("d,k", [(3, 2), (3, 3), (3, 4), (4, 2), (4, 3), (4, 4)])
    def test_line_and_joint_counts(self, d, k):
        config = grid(d, k)
        assert config.n == d * k ** (d - 1)
        joints = find_joints(config)
        assert len(joints) == k**d
        assert joints.points == tuple(cube_points(k, d))

    def test_validation(self):
        with pytest.raises(ValueError):
            grid(2, 2)
        with pytest.raises(ValueError):
            grid(3, 1)


class TestRandomConfig:
    def test_exact_line_count(self):
        config = random_config(3, 10, seed=1, coord_bound=10)
        assert config.n == 10
        assert config.dim == 3

    def test_single_line_has_no_joints(self):
        config = random_config(3, 1, seed=4, coord_bound=5)
        assert len(find_joints(config)) == 0

    def test_every_line_a_small_bound_allows(self):
        # bound 1 allows 16 distinct lines in the plane and 193 in space
        assert random_config(2, 16, seed=1, coord_bound=1).n == 16
        assert random_config(3, 193, seed=1, coord_bound=1).n == 193
        with pytest.raises(ValueError, match="only 16 distinct lines of n = 17 with"):
            random_config(2, 17, seed=1, coord_bound=1)

    def test_deterministic(self):
        a = random_config(3, 12, seed=42, coord_bound=10)
        b = random_config(3, 12, seed=42, coord_bound=10)
        assert a == b

    def test_different_seeds_differ(self):
        a = random_config(3, 12, seed=1, coord_bound=10)
        b = random_config(3, 12, seed=2, coord_bound=10)
        assert a != b

    def test_generic_lines_rarely_meet(self):
        # Not a theorem, but frozen for these seeds: few or no joints.
        for seed in range(1, 6):
            config = random_config(3, 10, seed=seed, coord_bound=10)
            assert len(find_joints(config)) <= 2


class TestPlanarBundle:
    @pytest.mark.parametrize("d,n", [(3, 5), (4, 2), (3, 50)])
    def test_joint_free(self, d, n):
        config = planar_bundle(d, n)
        assert config.n == n
        assert len(find_joints(config)) == 0


class TestGridPlusOrphan:
    def test_counts(self):
        config = grid_plus_orphan(3, 2)
        assert config.n == 13

    def test_joints_equal_plain_grid_joints(self):
        with_orphan = find_joints(grid_plus_orphan(3, 2))
        plain = find_joints(grid(3, 2))
        assert with_orphan.points == plain.points

    def test_orphan_carries_no_joints(self):
        config = grid_plus_orphan(3, 2)
        orphan = next(iter(config.lines - grid(3, 2).lines))
        joints = find_joints(config)
        assert all(not incident(orphan, p) for p in joints.points)


class TestRoundTrips:
    @pytest.mark.parametrize(
        "config",
        [
            grid(3, 2),
            random_config(3, 8, seed=3, coord_bound=7),
            planar_bundle(3, 5),
            grid_plus_orphan(3, 2),
        ],
        ids=["grid", "random", "planar", "orphan"],
    )
    def test_file_format_round_trip(self, config):
        assert configuration_from_dict(configuration_to_dict(config)) == config
