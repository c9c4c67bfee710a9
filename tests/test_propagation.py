import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import dense_matrix

from oscbath import (AmplitudeTrajectory, Arrowhead, BathGrid, IntegrationFailure,
                     SystemConfig, build_bath_grid, build_generator, centered_bipartition,
                     evolve_exact, evolve_rk4, excitation_profile, gershgorin_bound,
                     normalize_superposition, norm_residual, spectral_solution,
                     verify_overlap_factorization)


class TestGenerator:
    def test_two_mode_resonant(self, two_mode_grid):
        gen = build_generator(two_mode_grid)
        assert isinstance(gen, Arrowhead)
        assert np.array_equal(dense_matrix(gen), [[0.0, 0.1], [0.1, 0.0]])

    def test_three_by_three_entries(self):
        grid = BathGrid(1.0, [0.5, 1.5], [0.1, 0.1])
        gen = build_generator(grid)
        expected = [[0.0, 0.1, 0.1],
                    [0.1, -0.5, 0.0],
                    [0.1, 0.0, 0.5]]
        assert np.allclose(dense_matrix(gen), expected, atol=0)

    def test_reference_generator_shape(self, reference_gen):
        gamma = 0.1 / math.sqrt(1000)
        assert reference_gen.a00 == 0.0
        assert np.all(reference_gen.row == gamma)
        assert np.all(reference_gen.col == gamma)
        assert reference_gen.diag.shape == (1000,)
        # three length-N arrays and a00: no (N+1)^2 matrix
        assert reference_gen.nbytes == 3 * 1000 * 8 + 8
        assert not any(a.flags.writeable for a in reference_gen[1:])

    def test_gershgorin_bound(self, reference_gen):
        bound = gershgorin_bound(reference_gen)
        dense = dense_matrix(reference_gen)
        # the O(N) bound is the dense row-sum bound, summed the same way
        assert bound == float(np.max(np.sum(np.abs(dense), axis=1)))
        eigmax = np.abs(np.linalg.eigvalsh(dense)).max()
        assert bound >= eigmax


def _off_arrow(gen):
    # a dense matrix, which may carry entries off the arrow, is refused as such
    dense = dense_matrix(gen)
    dense[3, 2] = dense[2, 3] = 1e-3
    return dense


def _equal_poles(gen):
    diag = np.array(gen.diag)
    diag[2] = diag[1]
    return gen._replace(diag=diag)


def _zero_coupling(gen):
    row = np.array(gen.row)
    row[4] = 0.0
    return gen._replace(row=row, col=row)


class TestEvolveExact:
    def test_identity_at_t0(self, small_grid):
        traj = evolve_exact(build_generator(small_grid), [0.0])
        unit = np.zeros(small_grid.n + 1)
        unit[0] = 1.0
        assert np.abs(traj.states[0] - unit).max() < 1e-12

    def test_two_mode_full_transfer(self, two_mode_grid):
        # analytic solution: f = cos(gamma t), g = -i sin(gamma t)
        gen = build_generator(two_mode_grid)
        t = np.linspace(0.0, 5 * math.pi, 101)
        traj = evolve_exact(gen, t)
        assert np.abs(traj.f - np.cos(0.1 * t)).max() < 1e-12
        assert np.abs(traj.states[:, 1] + 1j * np.sin(0.1 * t)).max() < 1e-12
        assert abs(traj.f[-1]) < 1e-12
        assert abs(abs(traj.states[-1, 1]) - 1.0) < 1e-12

    def test_norm_conserved_at_scale(self, reference_traj):
        assert norm_residual(reference_traj) < 1e-9

    def test_near_complete_transfer_at_t100(self, reference_traj):
        assert abs(reference_traj.f[-1]) ** 2 < 0.01

    def test_time_reversal(self, small_grid):
        # for a real A, exp(iAt) e_0 = conj(exp(-iAt) e_0): the negated generator
        # runs the same state backwards in time
        gen = build_generator(small_grid)
        times = np.linspace(0.0, 40.0, 50)
        forward = evolve_exact(gen, times)
        back = evolve_exact(Arrowhead(-gen.a00, -gen.row, -gen.col, -gen.diag), times)
        assert np.abs(back.states - forward.states.conj()).max() < 1e-14

    def test_rejects_asymmetric_generator(self, small_grid):
        gen = build_generator(small_grid)
        row = np.array(gen.row)
        row[0] *= 2.0
        with pytest.raises(ValueError, match="symmetric"):
            evolve_exact(gen._replace(row=row), [0.0, 1.0])

    @pytest.mark.parametrize("solve", [evolve_exact, spectral_solution])
    @pytest.mark.parametrize("corrupt, message", [
        (_off_arrow, "not an arrowhead"),
        (_equal_poles, "equal bath diagonal"),
        (_zero_coupling, "zero coupling"),
    ])
    def test_rejects_degenerate_or_non_arrowhead(self, small_grid, solve, corrupt, message):
        gen = corrupt(build_generator(small_grid))
        with pytest.raises(ValueError, match=message):
            solve(gen, [0.0, 1.0])

    @pytest.mark.parametrize("step, bound", [("evolve_exact", 1.75),
                                              ("verify_overlap_factorization", 0.25),
                                              ("excitation_profile", 0.25)])
    def test_materialised_state_is_held_once(self, step, bound):
        # the traced peak of the step, in state bytes: evolve_exact holds the state once
        # beside one chunk's work, and the overlap check and the share reducer add only
        # tiles of rows and the per-row sums
        grid = build_bath_grid(SystemConfig(n_bath=400))
        gen = build_generator(grid)
        times = np.linspace(0.0, 100.0, 4000)
        state_bytes = times.size * 401 * np.dtype(complex).itemsize  # 24.5 MiB
        traj = None if step == "evolve_exact" else evolve_exact(gen, times)
        tracemalloc.start()
        try:
            if traj is None:
                traj = evolve_exact(gen, times)
            elif step == "excitation_profile":
                excitation_profile(traj, centered_bipartition(grid, 40))
            else:
                verify_overlap_factorization(traj, normalize_superposition(1, -1, 3, -3),
                                             centered_bipartition(grid, 40))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.nbytes == state_bytes
        assert peak < bound * state_bytes, f"peak {peak / 2**20:.1f} MiB"

    def test_rejects_bad_times(self, two_mode_grid):
        gen = build_generator(two_mode_grid)
        with pytest.raises(ValueError):
            evolve_exact(gen, [1.0, 0.5])
        with pytest.raises(ValueError):
            evolve_exact(gen, [-1.0, 0.5])
        with pytest.raises(ValueError):
            evolve_exact(gen, [])


def _dense_rk4(gen, t_end, dt):
    """Reference RK4 with the dense matvec A @ [re, im] at every stage."""
    a = dense_matrix(gen)

    def rhs(u):
        w = a @ np.column_stack((u.real, u.imag))
        return w[:, 1] - 1j * w[:, 0]

    u = np.zeros(a.shape[0], dtype=complex)
    u[0] = 1.0
    states = [u]
    for _ in range(int(math.ceil(t_end / dt - 1e-9))):
        k1 = rhs(u)
        k2 = rhs(u + (0.5 * dt) * k1)
        k3 = rhs(u + (0.5 * dt) * k2)
        k4 = rhs(u + dt * k3)
        u = u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        states.append(u)
    return np.array(states)


class TestEvolveRK4:
    # row_scale 1.5 makes the first row differ from the first column; the
    # norm then grows, past RK4_NORM_LIMIT near t = 0.9 on this grid.  a00 = 0.37
    # puts the term a f of the first row into every step.  At N = 40 a block holds up
    # to 79 steps: sample_every 7 and 20 take one block an interval, and a shorter last
    # one where they do not divide the 500 or 50 steps; 100 takes 79 + 21 an interval,
    # and one block of 50 at t_end = 0.5
    @pytest.mark.parametrize("sample_every, bound", [(1, 1e-15), (7, 4e-15), (20, 4e-15),
                                                     (100, 4e-15)])
    @pytest.mark.parametrize("a00, row_scale, t_end", [
        (0.0, 1.0, 5.0), (0.0, 1.5, 0.5), (0.37, 1.0, 5.0), (0.37, 1.5, 0.5)])
    def test_arrowhead_matches_dense_reference(self, small_grid, a00, row_scale, t_end,
                                               sample_every, bound):
        gen = build_generator(small_grid)
        row = np.array(gen.row)
        row[0] *= row_scale
        gen = gen._replace(a00=a00, row=row)
        traj = evolve_rk4(gen, t_end, 0.01, sample_every)
        reference = _dense_rk4(gen, t_end, 0.01)
        rows = np.unique(np.append(np.arange(0, len(reference), sample_every), len(reference) - 1))
        assert traj.states.shape == reference[rows].shape
        assert np.abs(traj.states - reference[rows]).max() <= bound

    def test_blocks_match_single_steps_at_scale(self):
        # at N = 1000 a block holds 3 steps: 16 blocks and a block of 2 per sample interval,
        # then 4 blocks and a block of 1 for the last 13 steps of 1013
        gen = build_generator(build_bath_grid(SystemConfig(n_bath=1000)))
        steps = evolve_rk4(gen, 10.13, 0.01)
        blocks = evolve_rk4(gen, 10.13, 0.01, sample_every=50)
        rows = np.append(np.arange(0, 1001, 50), 1013)
        assert np.array_equal(blocks.times, steps.times[rows])
        assert np.abs(blocks.states - steps.states[rows]).max() <= 4e-15

    @pytest.mark.parametrize("sample_every", [1, 20])
    def test_state_bytes_do_not_depend_on_blas_threads(self, sample_every):
        # the step's matrix products run in one thread whatever OPENBLAS_NUM_THREADS says
        script = ("import hashlib; from oscbath import *; "
                  "gen = build_generator(build_bath_grid(SystemConfig(n_bath=1000))); "
                  f"traj = evolve_rk4(gen, 10.0, 0.01, sample_every={sample_every}); "
                  "print(hashlib.sha256(traj.states.tobytes()).hexdigest())")
        src = str(Path(__file__).resolve().parents[1] / "src")
        digests = set()
        for threads in ("1", "2"):
            env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
            done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert done.returncode == 0, done.stderr
            digests.add(done.stdout.strip())
        assert len(digests) == 1

    def test_rejects_entry_off_the_arrow(self, small_grid):
        # only an Arrowhead is integrated: a dense matrix could carry this entry
        gen = dense_matrix(build_generator(small_grid))
        gen[3, 2] = 1e-3
        with pytest.raises(ValueError, match="not an arrowhead"):
            evolve_rk4(gen, 1.0, 0.01)

    def test_two_mode_matches_analytic(self, two_mode_grid):
        gen = build_generator(two_mode_grid)
        traj = evolve_rk4(gen, 5 * math.pi, 0.01, sample_every=10)
        assert np.abs(traj.f - np.cos(0.1 * traj.times)).max() < 1e-8

    def test_zero_horizon_single_sample(self, two_mode_grid):
        traj = evolve_rk4(build_generator(two_mode_grid), 0.0, 0.01)
        assert traj.times.tolist() == [0.0]
        assert traj.states[0, 0] == 1.0 + 0j

    def test_matches_exact_on_small_bath(self, small_grid):
        gen = build_generator(small_grid)
        rk4 = evolve_rk4(gen, 20.0, 0.01, sample_every=100)
        exact = evolve_exact(gen, rk4.times)
        assert np.abs(rk4.states - exact.states).max() < 1e-6

    def test_includes_final_partial_block(self, two_mode_grid):
        gen = build_generator(two_mode_grid)
        traj = evolve_rk4(gen, 0.25, 0.1, sample_every=2)
        # steps land at 0.1, 0.2, 0.3; samples at every 2nd step plus the last
        assert np.allclose(traj.times, [0.0, 0.2, 0.3])

    def test_rejects_nonpositive_dt(self, two_mode_grid):
        with pytest.raises(ValueError):
            evolve_rk4(build_generator(two_mode_grid), 1.0, 0.0)
        with pytest.raises(ValueError):
            evolve_rk4(build_generator(two_mode_grid), 1.0, -0.1)

    def test_unstable_step_raises(self, small_grid):
        gen = build_generator(small_grid)
        with pytest.raises(IntegrationFailure):
            evolve_rk4(gen, 50.0, 1.0)

    def test_overflowing_step_raises(self, small_grid):
        # the state overflows to inf and NaN between two samples; a NaN drift fails too
        gen = build_generator(small_grid)
        with np.errstate(all="ignore"), pytest.raises(IntegrationFailure, match="drift nan"):
            evolve_rk4(gen, 5000.0, 10.0, sample_every=500)

    def test_norm_drift_small_for_recommended_step(self, small_grid):
        gen = build_generator(small_grid)
        traj = evolve_rk4(gen, 50.0, 0.01, sample_every=100)
        assert norm_residual(traj) < 1e-6

    def test_samples_are_held_once(self):
        gen = build_generator(build_bath_grid(SystemConfig(n_bath=400)))
        tracemalloc.start()
        try:
            traj = evolve_rk4(gen, 20.0, 0.01)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert traj.states.shape == (2001, 401)  # 12.2 MiB
        assert peak <= 1.25 * traj.states.nbytes, f"peak {peak / 2**20:.1f} MiB"


class TestAmplitudeTrajectory:
    def test_states_are_a_read_only_view(self):
        states = np.zeros((2, 3), dtype=complex)
        states[:, 0] = 1.0
        traj = AmplitudeTrajectory(np.array([0.0, 1.0]), states)
        assert np.shares_memory(traj.states, states)
        assert not traj.states.flags.writeable
        assert states.flags.writeable
        with pytest.raises(ValueError):
            traj.states[0, 0] = 0.0


class TestNormResidual:
    def test_exactly_zero_for_unit_sample(self):
        traj = AmplitudeTrajectory([0.0], [[1.0 + 0j, 0.0, 0.0]])
        assert norm_residual(traj) == 0.0

    def test_roundoff_at_t0_evolution(self, two_mode_grid):
        traj = evolve_exact(build_generator(two_mode_grid), [0.0])
        assert norm_residual(traj) < 1e-14

    def test_one_reduction_matches_the_abs_square_sum(self, reference_traj):
        # bound fixed before the first run: the two sums round differently by about
        # eps per term
        old = float(np.max(np.abs(1.0 - np.sum(np.abs(reference_traj.states) ** 2, axis=-1))))
        assert abs(norm_residual(reference_traj) - old) <= 1e-15

    def test_nan_state_gives_nan(self):
        traj = AmplitudeTrajectory([0.0], [[complex(math.nan, 0.0), 0.0]])
        assert math.isnan(norm_residual(traj))
