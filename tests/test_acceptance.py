"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Runs at full scale (N = 1000).  Heavy artifacts (the reference trajectory
and the RK4 cross-integration) are shared through module/session fixtures.
"""

import math
import time

import numpy as np
import pytest

from oscbath import (asymptotic_concurrence, banded_blocks, build_generator,
                     centered_bipartition, concurrence_series, evolve_exact,
                     evolve_rk4, excitation_profile, interleaved_bipartition,
                     normalize_superposition, preset, run_scenario,
                     verify_overlap_factorization)
from oscbath.wootters import crosscheck, oracle_residuals

GOLDEN_RULE_RATE = 2.0 * math.pi * 0.01  # perturbative decay estimate


def _report(num, label, detail, ok):
    state = "PASS" if ok else "FAIL"
    print(f"[criterion {num:2d}] {label}: {detail} -> {state}")
    return ok


@pytest.fixture(scope="module")
def fig10_series(reference_traj, reference_grid, cat_init):
    sizes = {"fig10a": 100, "fig10b": 500, "fig10c": 900}
    return {name: concurrence_series(excitation_profile(
                reference_traj, centered_bipartition(reference_grid, size)), cat_init)
            for name, size in sizes.items()}


@pytest.fixture(scope="module")
def rk4_paper(reference_gen):
    # 10^4 RK4 steps at N = 1000, O(N) each with the arrowhead product
    return evolve_rk4(reference_gen, 100.0, 0.01, sample_every=50)


def test_criterion_1_conservation(tmp_path):
    start = time.perf_counter()
    manifest = run_scenario(preset("fig3"), out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    residual = manifest.checks["norm_residual_exact"]
    rows = (tmp_path / "fig3.csv").read_text().count("\n") - 1
    ok = residual <= 1e-9 and elapsed <= 60.0 and rows == 2000
    assert _report(1, "conservation", f"max |xi+theta-1| = {residual:.3e} "
                   f"(<= 1e-9), runtime {elapsed:.1f}s (<= 60s), {rows} rows", ok)


def test_criterion_2_decay_shape(reference_traj):
    profile = excitation_profile(reference_traj)
    window = (profile.xi <= 0.9) & (profile.xi >= 0.1)
    t = reference_traj.times[window]
    log_xi = np.log(profile.xi[window])
    design = np.vstack([t, np.ones_like(t)]).T
    (slope, intercept), *_ = np.linalg.lstsq(design, log_xi, rcond=None)
    gamma = -slope
    model = np.exp(intercept + slope * t)
    max_rel_dev = np.abs(profile.xi[window] / model - 1.0).max()
    gamma_err = abs(gamma - GOLDEN_RULE_RATE) / GOLDEN_RULE_RATE
    ok = max_rel_dev <= 0.10 and gamma_err <= 0.15
    assert _report(2, "decay shape",
                   f"max rel dev {max_rel_dev:.3f} (<= 0.10), fitted rate "
                   f"{gamma:.5f} vs {GOLDEN_RULE_RATE:.5f} ({gamma_err:.1%} <= 15%)",
                   ok)


def test_criterion_3_two_mode_analytic():
    from oscbath import SystemConfig, build_bath_grid
    grid = build_bath_grid(SystemConfig(n_bath=1, band=(1.0, 1.0),
                                        coupling_amplitude=0.1))
    gen = build_generator(grid)
    gamma = grid.couplings[0]
    t = np.linspace(0.0, 10 * math.pi, 631)
    err_exact = np.abs(evolve_exact(gen, t).f - np.cos(gamma * t)).max()
    rk4 = evolve_rk4(gen, 10 * math.pi, 0.01)
    err_rk4 = np.abs(rk4.f - np.cos(gamma * rk4.times)).max()
    ok = err_exact <= 1e-8 and err_rk4 <= 1e-6
    assert _report(3, "two-mode analytic",
                   f"exact err {err_exact:.2e} (<= 1e-8), "
                   f"rk4 err {err_rk4:.2e} (<= 1e-6)", ok)


def test_criterion_4_method_agreement(reference_gen, rk4_paper):
    reference = evolve_exact(reference_gen, rk4_paper.times)
    deviation = np.abs(reference.states - rk4_paper.states).max()
    ok = deviation <= 1e-6
    assert _report(4, "method agreement",
                   f"componentwise max |exact - rk4| = {deviation:.2e} (<= 1e-6)",
                   ok)


def test_criterion_5_oracle_equivalence(fig10_series, cat_init):
    worst = 0.0
    for series in fig10_series.values():
        worst = max(worst, float(oracle_residuals(
            cat_init, series.xi, series.theta_b, series.theta_c).max()))
    rng = np.random.default_rng(20260810)
    draws = 0
    while draws < 1000:
        a = complex(rng.normal(), rng.normal())
        b = complex(rng.normal(), rng.normal())
        if abs(a) < 1e-6 or abs(b) < 1e-6:
            continue
        init = normalize_superposition(
            a, b, complex(rng.normal(scale=2), rng.normal(scale=2)),
            complex(rng.normal(scale=2), rng.normal(scale=2)))
        shares = rng.dirichlet([1.0, 1.0, 1.0])
        worst = max(worst, crosscheck(init, *map(float, shares)))
        draws += 1
    ok = worst <= 1e-10
    assert _report(5, "oracle equivalence",
                   f"max |closed - spin-flip| = {worst:.2e} over 3 series + "
                   f"1000 draws (<= 1e-10)", ok)


def test_criterion_6_balanced_maximal_entanglement(reference_gen, reference_grid, cat_init):
    traj = evolve_exact(reference_gen, np.array([0.0, 200.0]))
    partition = interleaved_bipartition(reference_grid)
    series = concurrence_series(excitation_profile(traj, partition), cat_init)
    imbalance = abs(series.theta_b[-1] - series.theta_c[-1])
    c_final = series.c_closed[-1]
    ok = imbalance <= 1e-3 and c_final >= 0.99
    assert _report(6, "balanced maximal entanglement",
                   f"|theta_B - theta_C| = {imbalance:.2e} (<= 1e-3), "
                   f"C(200) = {c_final:.5f} (>= 0.99)", ok)


def test_criterion_7_partition_size_ordering(fig10_series):
    c_100 = fig10_series["fig10a"].c_closed[-1]
    c_500 = fig10_series["fig10b"].c_closed[-1]
    c_900 = fig10_series["fig10c"].c_closed[-1]
    ok = c_100 > c_500 > c_900
    assert _report(7, "partition-size ordering",
                   f"C(B=100) = {c_100:.4f} > C(B=500) = {c_500:.4f} "
                   f"> C(B=900) = {c_900:.4f}", ok)


def test_criterion_8_block_ordering_and_plateau(reference_traj, reference_grid):
    partition = banded_blocks(reference_grid, 10)
    profile = excitation_profile(reference_traj, partition)
    final = profile.theta_blocks[:, -1]
    ordered = bool(np.all(np.diff(final) < 0))
    late = reference_traj.times >= 80.0
    window = profile.theta_blocks[:, late]
    band = float((window.max(axis=1) - window.min(axis=1)).max())
    ok = ordered and band < 2e-2
    assert _report(8, "block ordering and plateau",
                   f"theta_1..10(100) strictly decreasing: {ordered}, "
                   f"max late-time band {band:.2e} (< 2e-2)", ok)


def test_criterion_9_late_time_concurrence_constancy(reference_gen, reference_grid,
                                                     cat_init):
    # On the fig10a bipartition (centered B of 100 modes) d_B and d_C are 1
    # to within ~3e-6, so C ~ 2|ab| N^2 o0^xi = const * exp(ln(o0) xi(t)) and a
    # residual central share xi(t0) moves C by about |ln o0| * xi(t0) * C.
    # With |ln o0| = 18 and the golden-rule decay xi ~ exp(-Gamma t), a window
    # starting at t0 = 150 drifts by at most 18 * exp(-150 Gamma) * C ~ 1.5e-3,
    # inside the 5e-3 band with margin for a Gamma error as large as
    # criterion 2 allows.  The earlier window [80, 100] is too early: xi falls
    # from 5.9e-3 to 1.6e-3 there and C drifts by 7.35e-2.
    t0, t1 = 150.0, 250.0
    traj = evolve_exact(reference_gen, np.linspace(t0, t1, 2000))
    series = concurrence_series(excitation_profile(
        traj, centered_bipartition(reference_grid, 100)), cat_init)
    c_end = series.c_closed[-1]
    predicted = (abs(cat_init.log_overlap.real)
                 * math.exp(-GOLDEN_RULE_RATE * t0) * c_end)
    drift = float(np.abs(series.c_closed - c_end).max())
    # The plateau must be the xi = 0 limit, or a propagator whose xi stalls
    # would pass the constancy check with the wrong value.
    asymptote = asymptotic_concurrence(cat_init, series.theta_b[-1],
                                       series.theta_c[-1])
    gap = abs(c_end - asymptote)
    ok = drift < 5e-3 and gap < 5e-3
    assert _report(9, "late-time concurrence constancy",
                   f"xi({t0:g}) = {series.xi[0]:.2e}, max |C(t) - C({t1:g})| on "
                   f"[{t0:g},{t1:g}] = {drift:.2e} (< 5e-3, golden-rule estimate "
                   f"{predicted:.1e}), |C({t1:g}) - C_asym| = {gap:.1e} (< 5e-3)", ok)


def test_criterion_10_overlap_factorization(reference_traj, reference_grid):
    scenario = preset("fig7")
    partition = scenario.partition_spec(reference_grid)
    residual = verify_overlap_factorization(reference_traj, scenario.superposition,
                                            partition)
    ok = residual <= 1e-10
    assert _report(10, "overlap factorization",
                   f"max product-form residual = {residual:.2e} (<= 1e-10)", ok)


def test_criterion_11_reproducibility(tmp_path):
    identical = True
    for name in ("fig3", "fig10a"):
        scenario = preset(name)
        run_scenario(scenario, out_dir=tmp_path / "one" / name)
        run_scenario(scenario, out_dir=tmp_path / "two" / name)
        first = (tmp_path / "one" / name / f"{name}.csv").read_bytes()
        second = (tmp_path / "two" / name / f"{name}.csv").read_bytes()
        identical = identical and first == second
    assert _report(11, "reproducibility",
                   f"byte-identical CSVs across reruns: {identical}", identical)
