import math

import numpy as np
import pytest

from oscbath import (banded_blocks, build_generator, centered_bipartition,
                     evolve_exact, excitation_profile, normalize_superposition,
                     spectral_solution, verify_overlap_factorization)


class TestExcitationProfile:
    def test_initial_condition(self, small_grid):
        traj = evolve_exact(build_generator(small_grid), [0.0])
        part = centered_bipartition(small_grid, 10)
        profile = excitation_profile(traj, part)
        assert profile.xi[0] == pytest.approx(1.0, abs=1e-12)
        assert profile.theta[0] == pytest.approx(0.0, abs=1e-12)
        assert np.abs(profile.theta_blocks[:, 0]).max() < 1e-12

    def test_late_time_transfer_at_scale(self, reference_traj):
        profile = excitation_profile(reference_traj)
        assert profile.xi[-1] < 0.01
        assert profile.theta[-1] > 0.99

    def test_two_mode_rabi(self, two_mode_grid):
        t = np.linspace(0.0, 5 * math.pi, 41)
        traj = evolve_exact(build_generator(two_mode_grid), t)
        profile = excitation_profile(traj)
        assert profile.xi[-1] == pytest.approx(0.0, abs=1e-12)
        assert profile.theta[-1] == pytest.approx(1.0, abs=1e-12)

    def test_conservation(self, reference_traj):
        profile = excitation_profile(reference_traj)
        assert np.abs(profile.xi + profile.theta - 1.0).max() < 1e-9

    def test_blocks_sum_to_theta(self, reference_traj, reference_grid):
        part = banded_blocks(reference_grid, 10)
        profile = excitation_profile(reference_traj, part)
        assert profile.theta_blocks.shape == (10, len(reference_traj.times))
        recombined = profile.theta_blocks.sum(axis=0)
        assert np.abs(recombined - profile.theta).max() < 1e-12

    def test_rejects_out_of_range_partition(self, small_grid):
        from oscbath import PartitionSpec
        traj = evolve_exact(build_generator(small_grid), [0.0, 1.0])
        bad = PartitionSpec(("B",), np.zeros(99))  # mode 99 of a bath of 40
        with pytest.raises(ValueError):
            excitation_profile(traj, bad)


    def test_rejects_partition_of_another_bath_size(self, small_grid):
        from oscbath import SystemConfig, build_bath_grid
        grid = build_bath_grid(SystemConfig(n_bath=20))
        assert small_grid.n == 40
        part = centered_bipartition(small_grid, 10)
        for source in (spectral_solution(build_generator(grid), [0.0, 1.0]),
                       evolve_exact(build_generator(grid), [0.0, 1.0])):
            with pytest.raises(ValueError, match="partition of 40 modes on a bath of 20"):
                excitation_profile(source, part)
            with pytest.raises(ValueError, match="partition of 40 modes on a bath of 20"):
                verify_overlap_factorization(source, normalize_superposition(1, -1, 3, -3), part)


class TestOverlapFactorization:
    def test_zero_at_t0(self, small_grid, cat_init):
        traj = evolve_exact(build_generator(small_grid), [0.0])
        part = centered_bipartition(small_grid, 10)
        assert verify_overlap_factorization(traj, cat_init, part) < 1e-14

    def test_identity_at_scale(self, reference_traj, reference_grid, cat_init):
        part = centered_bipartition(reference_grid, 100)
        assert verify_overlap_factorization(reference_traj, cat_init, part) < 1e-10

    def test_full_transfer_single_mode(self, two_mode_grid, cat_init):
        traj = evolve_exact(build_generator(two_mode_grid), [0.0, 5 * math.pi])
        from oscbath import explicit_partition
        part = explicit_partition(two_mode_grid, ((1,),), ("B",))
        assert verify_overlap_factorization(traj, cat_init, part) < 1e-12
        # at full transfer the block overlap equals the initial one
        g2 = abs(traj.states[-1, 1]) ** 2
        assert g2 == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("solve", [evolve_exact, spectral_solution])
    def test_holds_for_complex_amplitudes(self, small_grid, solve):
        init = normalize_superposition(0.7 + 0.2j, -0.5j, 1.0 + 2.0j, -0.5 - 1.0j)
        gen = build_generator(small_grid)
        source = solve(gen, np.linspace(0.0, 30.0, 60))
        part = centered_bipartition(small_grid, 13)
        assert verify_overlap_factorization(source, init, part) < 1e-10
