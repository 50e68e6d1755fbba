import pytest

from crysalign import energetics
from crysalign.toytask import A_GRID, U_GRID, build_lattice_task


@pytest.fixture(scope="module")
def task():
    return build_lattice_task()


class TestGrids:
    def test_shapes(self, task):
        assert task.policy_shape == (2, 16)
        assert len(A_GRID) == 16 and len(U_GRID) == 16

    def test_grid_ranges(self):
        assert A_GRID[0] == pytest.approx(2.4)
        assert A_GRID[-1] == pytest.approx(5.4)
        assert U_GRID[0] == pytest.approx(0.125)
        assert U_GRID[-1] == pytest.approx(0.5)


class TestDecoding:
    def test_structure_from_tokens(self, task):
        s = task.structure((0, 15))
        assert s.num_sites == 2
        assert s.lattice.a == pytest.approx(2.4)
        assert s.sites[1].frac_coords == pytest.approx((0.5, 0.5, 0.5))

    def test_reward_at_optimum_is_max(self, task):
        best = task.reward(task.optimum)
        assert best == pytest.approx(13.0)
        for tokens in [(0, 0), (15, 15), (5, 8)]:
            assert task.reward(tokens) <= best + 1e-12

    def test_energy_table_matches_pointwise(self, task):
        # The cached table must agree with direct decoding.
        ia, iu = 4, 7
        backend = energetics.PairPotentialBackend.load_default()
        direct = backend.energy_per_atom(task.structure((ia, iu)))
        assert task.energy_table[ia, iu] == pytest.approx(direct, rel=1e-12)

    def test_reward_deterministic(self, task):
        assert task.reward((3, 3)) == task.reward((3, 3))
