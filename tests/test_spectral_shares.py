"""The arrowhead spectral path against the dense-state path it replaced.

The reference keeps the old arithmetic: one dense `eigh` of the densified
generator, the full phase matrix exp(-i t lam), a complex product with V^T,
|u|^2 and block sums by fancy indexing.  The spectral path solves the
secular equation of the arrowhead, never forms V and rounds differently
(Cauchy products in row blocks, the Duhamel rows of the uniform prefix, one
indicator product for the sums), so the bound is 1e-14 rather than
equality.
"""

import dataclasses
import functools
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from conftest import block_modes, dense_matrix
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbath import (AmplitudeTrajectory, Arrowhead, BathGrid, PartitionSpec, SystemConfig,
                     banded_blocks, build_bath_grid, build_generator, centered_bipartition,
                     evolve_exact, evolve_rk4, excitation_profile, explicit_partition,
                     interleaved_bipartition, normalize_superposition, preset_document,
                     run_scenario, run_verification, scenario_from_dict, spectral_solution,
                     verify_overlap_factorization)
from oscbath import checks, observables, preset, preset_names, propagation, scenarios
from oscbath.observables import _excitation_profiles

TOL = 1e-14


def _dense_reference(gen, times, groups=()):
    """xi, theta, the group sums and the states of the old dense-state path, from e_0."""
    lam, vec = np.linalg.eigh(dense_matrix(gen))
    states = (np.exp(-1j * np.outer(times, lam)) * vec[0]) @ vec.T
    u2 = np.abs(states) ** 2
    # 1-based mode k is column k of the state
    sums = [u2[:, np.array(g, dtype=int)].sum(axis=1) for g in groups]
    return u2[:, 0], u2[:, 1:].sum(axis=1), sums, states


def _assert_shares(profile, reference):
    xi, theta, sums, _ = reference
    assert np.abs(profile.xi - xi).max() <= TOL
    assert np.abs(profile.theta - theta).max() <= TOL
    if sums:
        assert np.abs(profile.theta_blocks - np.array(sums)).max() <= TOL


@pytest.fixture(params=["default", "7 rows"])
def chunking(request, monkeypatch):
    """The default tiles (one at N = 40 and up to 64 rows) or share tiles of 7 rows."""
    if request.param == "7 rows":
        monkeypatch.setattr(propagation, "_TILE_ROWS", 7)
    return request.param


@pytest.mark.parametrize("scheme", ["centered", "banded", "interleaved"])
def test_partition_shares_match_dense_path(small_grid, chunking, scheme):
    gen = build_generator(small_grid)
    times = np.linspace(0.0, 40.0, 50)  # not a multiple of 7
    part = {"centered": centered_bipartition(small_grid, 10),
            "banded": banded_blocks(small_grid, 4),
            "interleaved": interleaved_bipartition(small_grid)}[scheme]
    chunked = excitation_profile(spectral_solution(gen, times), part)
    reference = _dense_reference(gen, times, groups=block_modes(part))
    _assert_shares(chunked, reference)
    traj = evolve_exact(gen, times)
    assert np.abs(traj.states - reference[3]).max() <= TOL
    materialised = excitation_profile(traj, part)
    for name in ("xi", "theta", "theta_blocks"):
        assert np.abs(getattr(chunked, name) - getattr(materialised, name)).max() <= TOL


def test_uncovered_modes_still_enter_theta(small_grid, chunking):
    gen = build_generator(small_grid)
    times = np.linspace(0.0, 40.0, 50)
    part = explicit_partition(small_grid, ((18, 19, 20), (21, 22)), ("B", "C"))
    profile = excitation_profile(spectral_solution(gen, times), part)
    _assert_shares(profile, _dense_reference(gen, times, groups=block_modes(part)))
    # the 35 modes outside both blocks carry a third of the share at t = 40,
    # and the norm counts them
    outside = profile.theta - profile.theta_blocks.sum(axis=0)
    assert outside[-1] > 0.3
    assert np.abs(profile.xi + profile.theta - 1.0).max() < 1e-13


def _assert_profiles(gen, times, partitions):
    """Profiles of several partitions from one pass against the dense path."""
    profiles = _excitation_profiles(spectral_solution(gen, times), partitions)
    for partition, profile in zip(partitions, profiles):
        assert profile.partition is partition
        _assert_shares(profile, _dense_reference(gen, times, groups=block_modes(partition)))


def test_overlapping_groups_in_one_call(small_grid, chunking):
    times = np.linspace(0.0, 40.0, 50)
    # mode 20 lies in both B blocks as well
    partitions = [centered_bipartition(small_grid, 10), centered_bipartition(small_grid, 30),
                  explicit_partition(small_grid, ((20,),), ("X",))]
    _assert_profiles(build_generator(small_grid), times, partitions)


@pytest.mark.parametrize("times", [[0.0], [3.7]])
def test_single_sample(small_grid, chunking, times):
    gen = build_generator(small_grid)
    part = centered_bipartition(small_grid, 10)
    profile = excitation_profile(spectral_solution(gen, times), part)
    assert profile.xi.shape == (1,)
    _assert_shares(profile, _dense_reference(gen, np.array(times), groups=block_modes(part)))


@pytest.mark.parametrize("grid", ["linspace", "drifting", "two spacings"])
def test_tiles_cut_modes_and_rows(small_grid, monkeypatch, grid):
    # bound fixed before the first run: TOL.  4 panels of 10 modes by tiles of 7 rows,
    # across the end of the uniform prefix and Cauchy rows (_IRREGULAR_GRIDS), for partitions whose
    # blocks overlap and for the overlap identity, whose product and sum run over the panels
    monkeypatch.setattr(propagation, "_MODE_PANEL", 10)
    monkeypatch.setattr(propagation, "_TILE_ROWS", 7)
    gen = build_generator(small_grid)
    times = np.linspace(0.0, 40.0, 50) if grid == "linspace" else _IRREGULAR_GRIDS[grid]()
    partitions = [centered_bipartition(small_grid, 10), banded_blocks(small_grid, 4),
                  explicit_partition(small_grid, ((9, 10, 11, 20), (21, 31)), ("X", "Y")),
                  centered_bipartition(small_grid, 30)]
    _assert_profiles(gen, times, partitions)
    init = normalize_superposition(1.0, -1.0, 3.0, -3.0)
    dense = AmplitudeTrajectory(times, _dense_reference(gen, times)[3])
    for source in (spectral_solution(gen, times), dense):
        assert verify_overlap_factorization(source, init, partitions[1]) <= TOL


def test_reference_scale_sweep_groups(reference_gen, reference_grid):
    # 2000 rows are 31 full share tiles of 64 rows and one of 16, all 1000 modes
    # in one panel
    assert (propagation._TILE_ROWS, propagation._MODE_PANEL) == (64, 1024)
    times = np.linspace(0.0, 100.0, 2000)
    partitions = [centered_bipartition(reference_grid, size) for size in (100, 500, 900)]
    _assert_profiles(reference_gen, times, partitions)


def test_shares_at_t0_are_computed_not_derived(reference_gen, reference_grid):
    # theta_c(0) is ~4e-30, so it must be summed, not taken as 1 - xi - theta_b
    part = centered_bipartition(reference_grid, 100)
    profile = excitation_profile(spectral_solution(reference_gen, [0.0]), part)
    assert 0.0 <= profile.theta_blocks[1, 0] < 1e-28
    assert abs(profile.xi[0] - 1.0) < 1e-14


def test_finite_bath_revival(reference_gen):
    # The bath diagonal of the N = 1000 generator has spacing 1/999, so the
    # emitted excitation returns to the central oscillator near
    # 2 pi * 999 + 32.2 = 6309.1 (bounds fixed from the dense-state path).
    times = np.linspace(6269.1, 6349.1, 8001)
    xi = excitation_profile(spectral_solution(reference_gen, times)).xi
    peak = int(np.argmax(xi))
    assert abs(times[peak] - 6309.1) <= 0.05
    assert abs(xi[peak] - 0.588) <= 1e-3
    assert 0 < peak < times.size - 1


@pytest.fixture()
def panel_calls(monkeypatch, small_grid):
    """A byte budget of 4 panels of 10 modes at N = 40 (row chunks of _PANEL_ROWS), and
    the rows of each block of scaled phases and the (roots, modes) of each Cauchy block."""
    monkeypatch.setattr(propagation, "_CHUNK_BYTES", 8 * (small_grid.n + 1) * 10)
    calls = {"phases": [], "blocks": []}
    scaled, cauchy = propagation._scaled_phases, propagation._cauchy
    monkeypatch.setattr(propagation, "_scaled_phases", lambda times, lam, c: calls[
        "phases"].append(times.size) or scaled(times, lam, c))
    monkeypatch.setattr(propagation, "_cauchy", lambda pole, tau, d, out=None: calls[
        "blocks"].append((pole.size, d.size)) or cauchy(pole, tau, d, out))
    return calls


def test_trajectory_by_panels_and_row_chunks(small_grid, panel_calls):
    # bound fixed before the first run: TOL.  600 rows take chunks of 256, 256 and 88
    # rows, each of them four panel products over all 41 roots
    gen = build_generator(small_grid)
    times = np.linspace(0.0, 40.0, 600)
    solution = spectral_solution(gen, times)
    panel_calls["blocks"].clear()  # the solver's passes
    traj = solution.trajectory()
    assert np.abs(traj.states - _dense_reference(gen, times)[3]).max() <= TOL
    assert panel_calls["phases"] == [256, 256, 88]
    assert panel_calls["blocks"] == [(41, 10)] * 4 * 3


def test_trajectory_with_panels_narrower_than_a_mode(monkeypatch):
    # bound fixed before the first run: TOL.  At N = 60 one mode's column of 61 roots
    # takes more than the 50-root budget, so each panel is one mode wide and its Cauchy
    # block must still hold every root
    grid = build_bath_grid(SystemConfig(n_bath=60, coupling_amplitude=0.1, band=(0.5, 1.5)))
    solution = spectral_solution(build_generator(grid), np.linspace(0.0, 40.0, 300))
    reference = solution.trajectory()
    monkeypatch.setattr(propagation, "_CHUNK_BYTES", 8 * 50)
    assert np.abs(solution.trajectory().states - reference.states).max() <= TOL


@pytest.mark.parametrize("budget", ["default", "panels"])
def test_chunk_rows_are_trajectory_rows(small_grid, request, budget):
    if budget == "panels":
        request.getfixturevalue("panel_calls")
    solution = spectral_solution(build_generator(small_grid), np.linspace(0.0, 40.0, 600))
    traj = solution.trajectory()
    covered = 0
    for rows, u in solution.chunks():  # one buffer, refilled per chunk
        assert np.array_equal(u, traj.states[rows])
        covered += u.shape[0]
    assert covered == 600


def _direct_scaled_phases(times, lam, c):
    """exp(-i lam t) c from cos and sin of the whole t lam block."""
    phase = np.outer(times, lam)
    sin, cos = np.sin(phase), np.cos(phase)
    return cos * c.real + sin * c.imag, cos * c.imag - sin * c.real


def _short_last_step_times(gen):
    # 501 steps of 0.1 sampled every 4: the last sample step is one step long
    times = evolve_rk4(gen, 50.05, 0.1, sample_every=4).times
    assert np.diff(times)[-1] < np.diff(times)[-2]
    return times


_PHASE_GRIDS = {
    "linspace": lambda gen: np.linspace(0.0, 100.0, 2000),
    # a uniform prefix over [0, 50], then an irregular tail of Cauchy rows
    "non-uniform": lambda gen: np.concatenate([np.linspace(0.0, 50.0, 1001), 50.0 + np.cumsum(
        np.random.default_rng(11).uniform(0.01, 0.1, 400))]),
    "rk4 samples": _short_last_step_times,
    # the rows of test_finite_bath_revival's grid around the peak at 6309.1
    "revival window": lambda gen: np.linspace(6269.1, 6349.1, 8001)[3500:4501],
}


def _reach(solution, h):
    """h max|d_k - lam_j|: the largest phase an interval of length h integrates."""
    return h * max(solution.diag.max() - solution.lam[0], solution.lam[-1] - solution.diag.min())


@functools.cache
def _small_solution():
    """The modes of the N = 40 generator of the small_grid fixture."""
    return spectral_solution(build_generator(build_bath_grid(SystemConfig(n_bath=40))), [0.0])


# the uniform prefix of each phase grid: rows 1 .. rows - 1 are integrated
_PREFIX_ROWS = {"linspace": 2000, "non-uniform": 1001, "rk4 samples": 126, "revival window": 1001}


@pytest.mark.parametrize("grid", list(_PHASE_GRIDS))
def test_phase_recurrence_against_direct_phases(reference_gen, grid):
    # bound fixed before the first run: the direct phases round t lam to
    # eps |lam t| / 2.  Row n of a tile from row first takes exp(-i lam t_n) as
    # exp(-i lam r h) [exp(-i lam t_b) exp(-i lam h)], r < _TILE_ROWS,
    # t_b = t_0 + (first - 1) h, as share_chunks does; each factor rounds its
    # phase as the direct formula does, and t_b + (r + 1) h lies within _SLACK = 4
    # ulp of max|t| of t_n; 8 eps max|lam t| covers both while max|lam t| >= 25, as
    # on every grid here.  Cauchy rows take the direct phases.
    times = _PHASE_GRIDS[grid](reference_gen)
    solution = spectral_solution(reference_gen, [0.0])
    lam = solution.lam
    c = np.exp(2j * np.pi * np.random.default_rng(5).random(lam.size))  # |c_j| = 1
    lam_t = np.abs(lam).max() * np.abs(times).max()
    assert lam_t >= 25.0
    rows, h, _ = propagation._spacing(times, lam, solution.diag)
    assert rows == _PREFIX_ROWS[grid]
    worst = 0.0
    s = propagation._TILE_ROWS
    fine = propagation._phases(np.arange(s) * h, -lam)
    for lo in range(1, rows, s):
        k = min(s, rows - lo)
        lead = propagation._phases([times[0] + (lo - 1) * h], -lam) * propagation._phases(
            [h], -lam) * c
        re, im = _direct_scaled_phases(times[lo:lo + k], lam, c)
        worst = max(worst, np.abs(fine[:k] * lead - (re + 1j * im)).max())
    assert worst <= 8 * np.finfo(float).eps * lam_t


@pytest.fixture()
def product_rows(monkeypatch):
    """Row counts of the phases scaled for a Cauchy product (share_chunks: its Cauchy rows)."""
    rows = []
    scaled = propagation._scaled_phases
    monkeypatch.setattr(propagation, "_scaled_phases",
                        lambda times, lam, c: rows.append(times.size) or scaled(times, lam, c))
    return rows


def test_coarse_grid_takes_many_nodes(small_grid, chunking, product_rows):
    gen = build_generator(small_grid)
    times = np.linspace(0.0, 200.0, 41)  # h = 5
    solution = spectral_solution(gen, times)
    nodes = propagation._node_counts(np.array([_reach(solution, 5.0)]))[0]
    assert _reach(solution, 5.0) >= 5 and 8 <= nodes <= propagation._MAX_NODES
    part = centered_bipartition(small_grid, 10)
    _assert_shares(excitation_profile(solution, part),
                   _dense_reference(gen, times, groups=block_modes(part)))
    assert sum(product_rows) < times.size // 2  # most rows come from the integral


def test_all_distinct_increments_are_anchor_rows(small_grid, chunking, product_rows):
    gen = build_generator(small_grid)
    times = np.cumsum(np.random.default_rng(2).uniform(0.5, 1.5, 50))
    assert np.unique(np.diff(times)).size == times.size - 1
    part = centered_bipartition(small_grid, 10)
    _assert_shares(excitation_profile(spectral_solution(gen, times), part),
                   _dense_reference(gen, times, groups=block_modes(part)))
    assert sum(product_rows) == times.size  # one Cauchy product row per sample, as before


def test_window_far_from_zero(small_grid, product_rows):
    gen = build_generator(small_grid)
    part = centered_bipartition(small_grid, 10)
    costs = []
    for start in (0.0, 400.0):
        times = np.linspace(start, start + 40.0, 50)
        _assert_shares(excitation_profile(spectral_solution(gen, times), part),
                       _dense_reference(gen, times, groups=block_modes(part)))
        costs.append(sum(product_rows))
        product_rows.clear()
    # Cauchy rows: none from t = 0 (row 0 is e_0), the first row of the far window
    assert costs == [0, 1]


def test_node_rule_integrates_exponentials():
    # bound fixed before the first run: the remainder of the chosen rule is
    # below eps h in each of the real and imaginary parts, and the sum of at
    # most _MAX_NODES positive weights rounds to a few eps h more
    eps = np.finfo(float).eps
    reach = np.linspace(0.0, 20.0, 4001)
    nodes = propagation._node_counts(reach)
    served = reach[nodes > 0].max()
    assert served > 10 and np.all(nodes[reach > served] == 0)
    assert np.all(np.diff(nodes[nodes > 0]) >= 0)
    for h in (0.05, 1.0, 5.0):
        for m in np.unique(nodes[nodes > 0]):
            x, q = propagation._interval_nodes(h, m)
            omega = np.concatenate((reach[nodes == m], -reach[nodes == m])) / h
            rule = np.exp(1j * np.outer(omega, x)) @ q
            # (exp(i omega h) - 1) / (i omega), without its cancellation near 0
            exact = h * np.exp(0.5j * omega * h) * np.sinc(omega * h / (2 * np.pi))
            assert np.abs(rule - exact).max() <= 4 * eps * h, (h, m)


def test_finite_bath_revival_at_4000_modes():
    # ROADMAP item 1: at N = 4000 the bath diagonal has spacing 1/3999 and xi
    # returns near 2 pi * 3999 + 32.2 = 25158.7 (bounds fixed from ROADMAP)
    gen = build_generator(build_bath_grid(SystemConfig(n_bath=4000, coupling_amplitude=0.1,
                                                       band=(0.5, 1.5))))
    times = np.linspace(25118.7, 25198.7, 801)
    xi = excitation_profile(spectral_solution(gen, times)).xi
    peak = int(np.argmax(xi))
    assert abs(times[peak] - 25158.6) <= 0.05
    assert abs(xi[peak] - 0.588) <= 1e-3
    assert 0 < peak < times.size - 1


def test_share_drift_at_the_anchor_spacing(reference_gen, reference_grid, chunking,
                                           product_rows):
    # every increment is exactly 2^-4, so every row after e_0 follows from the row
    # before by the Duhamel integral, across tile ends and past four times the
    # 256-row spacing at which Cauchy rows were once taken
    times = np.arange(4 * 256 + 1) / 16.0
    part = centered_bipartition(reference_grid, 100)
    _assert_shares(excitation_profile(spectral_solution(reference_gen, times), part),
                   _dense_reference(reference_gen, times, groups=block_modes(part)))
    assert sum(product_rows) == 0


def test_presets_grid_takes_one_spacing(reference_gen, reference_grid, product_rows):
    # the 13 bitwise-distinct increments of the presets' grid lie within a few ulp
    # of one spacing, so every row after e_0 is integrated and none is a Cauchy row
    times = np.linspace(0.0, 100.0, 2000)
    assert np.unique(np.diff(times)).size == 13
    solution = spectral_solution(reference_gen, times)
    excitation_profile(solution, centered_bipartition(reference_grid, 100))
    assert sum(product_rows) == solution.cauchy_rows == 0
    rows, _, m = propagation._spacing(times, solution.lam, solution.diag)
    assert m == 4
    assert rows == times.size  # one uniform prefix


@settings(max_examples=200, deadline=None)
@given(t0=st.floats(0.0, 1e4), t_end=st.floats(1e-3, 1e3), size=st.integers(2, 3000))
def test_linspace_grids_take_one_spacing(t0, t_end, size):
    # a linspace grid fine enough to integrate takes one spacing: no row strays from
    # t_0 + n h, so only row 0 at t_0 > 0 is a Cauchy row
    times = np.linspace(t0, t0 + t_end, size)
    solution = dataclasses.replace(_small_solution(), times=times)
    rows, _, m = propagation._spacing(times, solution.lam, solution.diag)
    if m > 0:
        assert rows == times.size
        assert solution.cauchy_rows == (1 if times[0] > 0 else 0)


def test_cauchy_rows_of_the_program_grids(reference_gen, small_grid):
    # every grid the program builds, with the Cauchy rows it takes: the presets, the README
    # sweep and verify sample linspace grids from t = 0 and take none; 1 to 3 samples take
    # 0, 1 and 2 (2 and 3 are too coarse to integrate); the RK4 sample times of a fig10a
    # `method: both` run take none, and a short last RK4 step takes one
    reference = SystemConfig(n_bath=1000, coupling_amplitude=0.1, band=(0.5, 1.5))
    assert all(preset(name).system == reference for name in preset_names())
    readme_sweep = {"name": "scan", "preset": "fig10a", "sizes_b": [100, 500, 900],
                    "overlaps": [1.523e-8, 0.5]}
    base = scenarios._section("sweep", readme_sweep, scenarios._SWEEP)["preset"]
    grids = [(preset(name).exact_times(), 0) for name in preset_names()]
    grids += [(base.exact_times(), 0), (np.linspace(
        0.0, checks._DEFAULTS["t_end"], checks._DEFAULTS["samples"]), 0)]
    for samples, cauchy in ((1, 0), (2, 1), (3, 2)):
        doc = preset_document("fig10a")
        doc["time"] = {"samples": samples}
        grids.append((scenario_from_dict(doc).exact_times(), cauchy))
    both = scenario_from_dict({**preset_document("fig10a"), "method": "both"})
    small = build_generator(small_grid)  # sample times depend on t_end, dt and sampling alone
    grids += [(evolve_rk4(small, both.t_end, both.dt, both.rk4_sample_every()).times, 0),
              (_short_last_step_times(small), 1)]
    solution = spectral_solution(reference_gen, [0.0])
    assert ([dataclasses.replace(solution, times=times).cauchy_rows for times, _ in grids]
            == [cauchy for _, cauchy in grids])


_IRREGULAR_GRIDS = {
    # the sums drift off t_0 + n h by accumulated rounding
    "drifting": lambda: np.cumsum(np.full(400, 0.1)),
    "two spacings": lambda: np.concatenate((np.linspace(0.0, 20.0, 101),
                                            20.0 + 0.05 * np.arange(1, 151))),
}


def test_plan_keeps_the_tile_rows_it_was_cut_by(small_grid, monkeypatch):
    # the kept solution's plan, cut by 64-row tiles, still serves after _TILE_ROWS changes, with
    # the same bytes; a plan cut afterwards takes the new rows (bound fixed before the first
    # run: TOL).  The grid has integrated and Cauchy rows.
    gen, part = build_generator(small_grid), centered_bipartition(small_grid, 10)
    times = _IRREGULAR_GRIDS["drifting"]()
    cut = excitation_profile(spectral_solution(gen, times), part)
    monkeypatch.setattr(propagation, "_TILE_ROWS", 7)
    kept = spectral_solution(gen, times)
    assert kept._plan[-1] == 64
    del observables._PROFILES[kept]  # so a share pass runs, not a read of cut's kept shares
    passes, share_chunks = [], propagation.SpectralSolution.share_chunks
    monkeypatch.setattr(propagation.SpectralSolution, "share_chunks",
                        lambda self: passes.append(self._plan[-1]) or share_chunks(self))
    again = _excitation_profiles(kept, [part])[0]
    assert passes == [64] and again.xi is not cut.xi
    for name in ("xi", "theta", "theta_blocks"):
        assert np.array_equal(getattr(again, name), getattr(cut, name))
    propagation._solution.cache_clear()
    fresh = spectral_solution(gen, times)
    assert fresh is not kept and fresh._plan[-1] == 7
    _assert_shares(excitation_profile(fresh, part),
                   (cut.xi, cut.theta, list(cut.theta_blocks), None))
    assert passes == [64, 7]


@pytest.mark.parametrize("grid", list(_IRREGULAR_GRIDS))
def test_rows_off_the_uniform_prefix_are_cauchy_rows(small_grid, chunking, product_rows, grid):
    gen = build_generator(small_grid)
    times = _IRREGULAR_GRIDS[grid]()
    solution = spectral_solution(gen, times)
    part = centered_bipartition(small_grid, 10)
    _assert_shares(excitation_profile(solution, part),
                   _dense_reference(gen, times, groups=block_modes(part)))
    rows, h, _ = propagation._spacing(times, solution.lam, solution.diag)
    if grid == "drifting":
        # row 41 is the first whose summed time lies more than 4 ulp off t_0 + n h; it,
        # the rows after it and row 0, at t = 0.1, are Cauchy rows
        assert rows == 41
        assert sum(product_rows) == solution.cauchy_rows == times.size - rows + 1
    else:
        # the 150 increments of 0.05 set the spacing, so row 1, at 0.2, is off it and
        # every row but e_0 is a Cauchy row
        assert abs(h - 0.05) < 1e-14
        assert rows == 1
        assert sum(product_rows) == solution.cauchy_rows == times.size - rows


def test_no_drift_over_10000_one_row_chunks(small_grid, monkeypatch):
    # bound fixed before the first run: 5e-14.  Each row is its own tile, so every
    # increment takes a phase row of its own and the carry is never rotated
    monkeypatch.setattr(propagation, "_TILE_ROWS", 1)
    gen = build_generator(small_grid)
    times = np.linspace(0.0, 500.0, 10001)
    part = centered_bipartition(small_grid, 10)
    profile = excitation_profile(spectral_solution(gen, times), part)
    xi, theta, sums, _ = _dense_reference(gen, times, groups=block_modes(part))
    assert np.abs(profile.xi - xi).max() <= 5e-14
    assert np.abs(profile.theta - theta).max() <= 5e-14
    assert np.abs(profile.theta_blocks - np.array(sums)).max() <= 5e-14


def test_many_spacings_hold_bounded_memory(reference_gen, reference_grid):
    # 200 distinct increments, each three times in a row, all multiples of
    # 2^-12 so that the differences of the sampled times are exact; the rows from
    # the first off the one spacing on are Cauchy rows, a batch at a time
    steps = np.repeat((64.0 + np.arange(200)) / 4096.0, 3)
    times = np.concatenate(([0.0], np.cumsum(steps)))
    assert np.unique(np.diff(times)).size == 200
    solution = spectral_solution(reference_gen, times)
    bound = 20 * 2 ** 20  # fixed before the first run
    part = centered_bipartition(reference_grid, 100)
    tracemalloc.start()
    try:
        profile = excitation_profile(solution, part)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, f"peak {peak / 2**20:.1f} MiB"
    _assert_shares(profile, _dense_reference(reference_gen, times, groups=block_modes(part)))


def test_fig10a_style_run_at_4000_modes_holds_no_square_array(tmp_path):
    # ROADMAP item 1: no (N+1)^2 array on the run path; bound fixed before the
    # first run: 32 MiB, a quarter of one V (128 MB at N = 4000)
    doc = preset_document("fig10a")
    doc["system"]["n_bath"] = 4000
    doc["partition"]["size_b"] = 400
    scenario = scenario_from_dict(doc)
    assert scenario.exact_times().size == 2000
    tracemalloc.start()
    try:
        manifest = run_scenario(scenario, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest.status == "ok"
    assert peak <= 32 * 2 ** 20, f"peak {peak / 2**20:.1f} MiB"


def test_verify_checks_the_kernel_against_the_state():
    results = {r.name: r for r in run_verification({"n_bath": 100, "samples": 21,
                                                     "rk4_t_end": 1.0})}
    assert results["shares_vs_state"].passed
    assert results["shares_vs_state"].threshold == 1e-13
    faulty = {r.name: r for r in run_verification({"n_bath": 100, "samples": 21,
                                                    "rk4_t_end": 1.0},
                                                   inject_fault="generator-asymmetry")}
    result = faulty["shares_vs_state"]
    assert not result.passed and result.residual == math.inf
    assert "norm_conservation_exact" in result.note


def test_run_never_holds_the_full_state(tmp_path):
    doc = preset_document("fig10a")
    doc["system"]["n_bath"] = 400
    doc["partition"]["size_b"] = 40
    doc["time"] = {"samples": 4000}
    scenario = scenario_from_dict(doc)
    state_bytes = 4000 * 401 * np.dtype(complex).itemsize  # 24.5 MiB
    tracemalloc.start()
    try:
        manifest = run_scenario(scenario, tmp_path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert manifest.status == "ok"
    assert peak < state_bytes, f"peak {peak / 2**20:.1f} MiB"
    assert manifest.checks["norm_residual_exact"] < 1e-12


def _clustered_grid():
    """A coarse comb plus modes at 1 + 1e-8 * 2^k, k = 0..24: poles spaced
    geometrically down to 1e-8 around resonance."""
    freqs = np.concatenate((np.linspace(0.5, 0.99, 40), 1.0 + 1e-8 * 2.0 ** np.arange(25)))
    couplings = np.full(freqs.size, 0.1 / math.sqrt(freqs.size))
    return BathGrid(1.0, freqs, couplings)


def _with_corner(gen, a00):
    return gen._replace(a00=a00)


def _negated(gen):
    return Arrowhead(-gen.a00, -gen.row, -gen.col, -gen.diag)


def _eigenvectors(solution):
    """V (eigenvectors as columns) from lam and v0 by the closed form
    v_kj = gamma_k v0_j / (lam_j - d_k), lam_j - d_k as (pole_j - d_k) + tau_j."""
    gap = (solution.pole[:, None] - solution.diag) + solution.tau[:, None]
    return np.vstack((solution.v0, solution.gamma[:, None] * solution.v0 / gap.T))


def _irregular(seed):
    """500 uniformly random bath diagonal entries in [-1, 1] and couplings in [1e-3, 1e-2]."""
    rng = np.random.default_rng(seed)
    diag, couplings = np.sort(rng.uniform(-1, 1, 500)), rng.uniform(1e-3, 1e-2, 500)
    return Arrowhead(0.0, couplings, couplings, diag)


_ORACLE_CASES = {
    "reference N=1000": lambda request: request.getfixturevalue("reference_gen"),
    "explicit couplings": lambda request: build_generator(build_bath_grid(SystemConfig(
        n_bath=200, couplings=tuple(np.random.default_rng(3).uniform(1e-3, 2e-2, 200))))),
    "clustered poles": lambda request: build_generator(_clustered_grid()),
    "clustered poles, a00 in the cluster": lambda request: _with_corner(
        build_generator(_clustered_grid()), 3e-8),
    "force_resonant": lambda request: build_generator(build_bath_grid(
        SystemConfig(n_bath=200, force_resonant=True))),
    "negated": lambda request: _negated(request.getfixturevalue("reference_gen")),
    "N=1": lambda request: build_generator(request.getfixturevalue("two_mode_grid")),
    "N=2": lambda request: build_generator(build_bath_grid(SystemConfig(n_bath=2))),
    "a00 = 0.25": lambda request: _with_corner(
        build_generator(request.getfixturevalue("small_grid")), 0.25),
    # a Newton step past hi from an iterate on hi once stalled the solver on these
    "irregular diagonal, seed 1": lambda request: _irregular(1),
    "irregular diagonal, seed 3": lambda request: _irregular(3),
}


@pytest.mark.parametrize("case", list(_ORACLE_CASES))
def test_solver_against_dense_eigh(request, case):
    # bounds fixed before the first run: eigenvalues within
    # 1e-14 max(1, ||A||), a unit first row of V and max|V^T V - I| within
    # 1e-13, shares within TOL of the dense path
    gen = _ORACLE_CASES[case](request)
    lam, _ = np.linalg.eigh(dense_matrix(gen))
    times = np.linspace(0.0, 100.0, 201)
    solution = spectral_solution(gen, times)
    assert np.abs(solution.lam - lam).max() <= 1e-14 * max(1.0, np.abs(lam).max())
    vec = _eigenvectors(solution)
    assert abs(np.sum(vec[0] ** 2) - 1.0) <= 1e-13
    assert np.abs(vec.T @ vec - np.eye(lam.size)).max() <= 1e-13
    n = lam.size - 1
    half = max(1, n // 2)
    member = (np.arange(n) >= half).astype(int)  # modes 1..half, then half + 1..n if any
    part = PartitionSpec(("B", "C")[:member.max() + 1], member)
    _assert_shares(excitation_profile(solution, part),
                   _dense_reference(gen, times, groups=block_modes(part)))


def test_solver_pass_count_on_the_reference_generator(reference_gen, monkeypatch):
    # the centre root of the symmetric band sits on the midpoint end of its
    # bracket, where F >= 0; a Newton step past that end lands on it rather
    # than being bisected, which would halve the bracket once per pass
    # bound on the evaluations fixed before the first run: the comb's starting guess
    # takes fewer than 7 a root (the midpoint start took 8.44)
    calls = []
    sums = propagation._secular_sums

    def counted(poles, index, tau):
        calls.append(tau.size)
        return sums(poles, index, tau)

    monkeypatch.setattr(propagation, "_secular_sums", counted)
    spectral_solution(reference_gen, [0.0])
    assert len(calls) <= 12, calls
    assert sum(calls) <= 7 * 1001, calls


def test_solver_holds_no_square_array():
    # bound fixed before the first run: the solver keeps O(N) arrays and one
    # _CHUNK_BYTES block of secular sums, so a quarter of one (N+1)^2 V
    # (32 MB at N = 2000) is ample
    gen = build_generator(build_bath_grid(SystemConfig(n_bath=2000)))
    tracemalloc.start()
    try:
        solution = spectral_solution(gen, [0.0])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert not hasattr(solution, "vec")
    assert peak <= 2001 * 2001 * 8 / 4, f"peak {peak / 2**20:.1f} MiB"


def _sorted_poles(gen):
    order = np.argsort(gen.diag, kind="stable")
    return gen.diag[order], gen.row[order] ** 2


_COMB_CASES = {
    "reference N=1000": lambda request: request.getfixturevalue("reference_gen"),
    "reference N=4000": lambda request: build_generator(build_bath_grid(SystemConfig(
        n_bath=4000, coupling_amplitude=0.1, band=(0.5, 1.5)))),
    "explicit couplings": lambda request: build_generator(build_bath_grid(SystemConfig(
        n_bath=1000, couplings=tuple(np.random.default_rng(3).uniform(1e-3, 2e-2, 1000))))),
    "force_resonant": lambda request: build_generator(build_bath_grid(
        SystemConfig(n_bath=1000, force_resonant=True))),
    "negated": lambda request: _negated(request.getfixturevalue("reference_gen")),
    "a00 in the band": lambda request: _with_corner(request.getfixturevalue("reference_gen"),
                                                    0.25),
    "N = 2 _NEAR + 2": lambda request: build_generator(build_bath_grid(
        SystemConfig(n_bath=2 * propagation._NEAR + 2))),
}


@pytest.mark.parametrize("case", list(_COMB_CASES))
def test_far_field_against_the_dense_pass(request, monkeypatch, case):
    # bounds fixed before the first run: at every root the two passes agree within
    # 5e-15 in s1 and 5e-15 relative in s2; the solvers' eigenvalues within
    # 1e-15 max(1, |lam|) and v0 within 2e-14 relative
    gen = _COMB_CASES[case](request)
    d, g2 = _sorted_poles(gen)
    poles = propagation._poles(d, g2)
    assert poles.far is not None
    pole, tau, v0 = propagation._arrowhead_eigh(gen.a00, gen.row, gen.diag)
    index = np.searchsorted(d, pole)
    assert np.array_equal(d[index], pole)
    far = propagation._secular_sums(poles, index, tau)
    dense = propagation._secular_sums(propagation._Poles(d, g2), index, tau)
    assert np.abs(far[0] - dense[0]).max() <= 5e-15
    assert (np.abs(far[1] - dense[1]) / dense[1]).max() <= 5e-15

    monkeypatch.setattr(propagation, "_NEAR", 10 ** 9)  # no comb: the dense pass alone
    pole_d, tau_d, v0_d = propagation._arrowhead_eigh(gen.a00, gen.row, gen.diag)
    lam, lam_d = pole + tau, pole_d + tau_d
    assert np.abs(lam - lam_d).max() <= 1e-15 * max(1.0, np.abs(lam_d).max())
    assert (np.abs(v0 - v0_d) / v0_d).max() <= 2e-14


def _long_double_sums(d, g2, index, tau):
    """The secular sums in long double, lam - d_k as (d[index] - d_k) + tau."""
    wide = np.longdouble
    q = 1 / ((d.astype(wide)[index, None] - d.astype(wide)) + tau.astype(wide)[:, None])
    return np.array([-(q * g2.astype(wide)).sum(axis=1), (q * q * g2.astype(wide)).sum(axis=1)])


@pytest.mark.skipif(np.finfo(np.longdouble).eps >= np.finfo(float).eps,
                    reason="long double is no wider than double here")
@pytest.mark.parametrize("case", [c for c in _COMB_CASES if c != "N = 2 _NEAR + 2"])
def test_far_field_is_as_accurate_as_the_dense_pass(request, case):
    # at 40 inner roots, against long double sums: the far field's largest error in
    # s1 and relative error in s2 are no larger than the dense pass's
    gen = _COMB_CASES[case](request)
    d, g2 = _sorted_poles(gen)
    pole, tau, _ = propagation._arrowhead_eigh(gen.a00, gen.row, gen.diag)
    roots = np.linspace(1, d.size - 1, 40).astype(int)
    index, tau = np.searchsorted(d, pole[roots]), tau[roots]
    exact = _long_double_sums(d, g2, index, tau)
    errors = []
    for poles in (propagation._poles(d, g2), propagation._Poles(d, g2)):
        s1, s2 = propagation._secular_sums(poles, index, tau)
        errors.append((float(np.abs(s1 - exact[0]).max()),
                       float((np.abs(s2 - exact[1]) / exact[1]).max())))
    (far_s1, far_s2), (dense_s1, dense_s2) = errors
    assert far_s1 <= dense_s1 and far_s2 <= dense_s2, errors


def _dense_rows(monkeypatch):
    """Row counts of the Cauchy blocks against every pole (one row d) each _secular_sums
    call takes, beside its size."""
    passes = []
    cauchy, sums = propagation._cauchy, propagation._secular_sums

    def counted_blocks(pole, tau, d, out=None):
        passes[-1][1] += pole.size if d.ndim == 1 else 0
        return cauchy(pole, tau, d, out)

    def counted_sums(poles, index, tau):
        passes.append([tau.size, 0])
        return sums(poles, index, tau)

    monkeypatch.setattr(propagation, "_cauchy", counted_blocks)
    monkeypatch.setattr(propagation, "_secular_sums", counted_sums)
    return passes


def _moved_pole_grid(reference_grid):
    """The reference comb with one mode 100 ulp off its place."""
    freqs = reference_grid.frequencies.copy()
    freqs[500] += 100 * np.spacing(freqs[500])
    return BathGrid(1.0, freqs, reference_grid.couplings)


@pytest.mark.parametrize("grid", ["clustered", "small", "moved pole"])
def test_grids_off_the_comb_take_the_dense_pass(request, monkeypatch, grid):
    gen = build_generator({
        "clustered": _clustered_grid,
        "small": lambda: request.getfixturevalue("small_grid"),
        "moved pole": lambda: _moved_pole_grid(request.getfixturevalue("reference_grid")),
    }[grid]())
    assert propagation._poles(*_sorted_poles(gen)).far is None
    passes = _dense_rows(monkeypatch)
    propagation._arrowhead_eigh(gen.a00, gen.row, gen.diag)
    assert passes and all(rows == size for size, rows in passes), passes


def test_comb_takes_the_dense_pass_at_the_outer_roots(reference_gen, monkeypatch):
    # an outer root takes the far field too once its tau is within one step of its pole
    passes = _dense_rows(monkeypatch)
    propagation._arrowhead_eigh(reference_gen.a00, reference_gen.row, reference_gen.diag)
    assert passes[0] == [999, 0]  # the inner midpoints
    assert passes[1] == [1001, 2]  # the outer roots start a bracket's midpoint away
    assert all(rows <= 2 for _, rows in passes[2:]), passes


def test_solution_bytes_do_not_depend_on_blas_threads(tmp_path):
    # the eigensolution of the reference generator, then the CSVs of fig10a, fig3 and fig5
    # on 200 samples: the reducer's indicator has 3, 1 and 11 columns
    script = ("import hashlib, sys; from oscbath import *; from oscbath import propagation; "
              "gen = build_generator(build_bath_grid(SystemConfig(n_bath=1000))); "
              "parts = propagation._arrowhead_eigh(gen.a00, gen.row, gen.diag); "
              "print(hashlib.sha256(b''.join(p.tobytes() for p in parts)).hexdigest())\n"
              "for name in ('fig10a', 'fig3', 'fig5'):\n"
              "    doc = preset_document(name); doc['time'] = {'samples': 200}\n"
              "    manifest = run_scenario(scenario_from_dict(doc), sys.argv[1])\n"
              "    print(manifest.outputs[0]['sha256'])")
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = set()
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": threads}
        done = subprocess.run([sys.executable, "-c", script, str(tmp_path / threads)], env=env,
                              capture_output=True, text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        digests.add(done.stdout.strip())
    assert len(digests) == 1
