import math
import warnings

import numpy as np
import pytest

from oscbath import (asymptotic_concurrence, build_generator,
                     centered_bipartition, concurrence_closed_form,
                     concurrence_series, distinguishability, evolve_exact,
                     excitation_profile, interleaved_bipartition,
                     normalize_superposition)


def _init_with_overlap(o0, a=1.0, b=-1.0):
    half = math.sqrt(-2.0 * math.log(o0)) / 2.0
    return normalize_superposition(a, b, half, -half)


class TestDistinguishability:
    def test_zero_share_indistinguishable(self):
        assert distinguishability(0.7, 0.0) == 0.0
        assert distinguishability(0.0, 0.0) == 0.0

    def test_tiny_overlap_half_share(self):
        expected = math.sqrt(1.0 - math.exp(-18.0))
        assert distinguishability(math.exp(-18.0), 0.5) == pytest.approx(
            expected, rel=1e-14)

    def test_half_overlap_full_share(self):
        assert distinguishability(0.5, 1.0) == pytest.approx(math.sqrt(0.75),
                                                             rel=1e-14)

    def test_orthogonal_branches(self):
        assert distinguishability(0.0, 0.3) == 1.0

    def test_identical_branches(self):
        assert distinguishability(1.0, 0.8) == 0.0

    def test_range_checks(self):
        with pytest.raises(ValueError):
            distinguishability(1.5, 0.5)
        with pytest.raises(ValueError):
            distinguishability(-0.1, 0.5)
        with pytest.raises(ValueError):
            distinguishability(0.5, 1.5)
        with pytest.raises(ValueError):
            distinguishability(0.5, -0.2)


class TestClosedForm:
    def test_balanced_tiny_overlap_reaches_one(self, cat_init):
        c = concurrence_closed_form(cat_init, 0.0, 0.5, 0.5)
        assert c == pytest.approx(1.0, abs=1e-12)

    def test_vanishes_with_empty_block(self, cat_init):
        assert concurrence_closed_form(cat_init, 0.3, 0.0, 0.7) == 0.0

    def test_half_overlap_mixed_shares(self):
        # frozen: 2 * N^2 * 0.5^{1/4} * sqrt(1-0.5) * sqrt(1-0.5^{1/2}) with
        # N^2 = 1 collapses to 2^{1/4} sqrt(1 - 2^{-1/2})
        init = _init_with_overlap(0.5)
        expected = 2.0 ** 0.25 * math.sqrt(1.0 - 2.0 ** -0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            c = concurrence_closed_form(init, 0.25, 0.5, 0.25)
        assert c == pytest.approx(expected, rel=1e-13)

    def test_warns_off_the_physical_set(self, cat_init):
        with pytest.warns(UserWarning, match="what-if"):
            concurrence_closed_form(cat_init, 0.5, 0.5, 0.5)

    def test_no_warning_on_physical_inputs(self, cat_init):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            concurrence_closed_form(cat_init, 0.2, 0.5, 0.3)

    def test_range_rejection(self, cat_init):
        with pytest.raises(ValueError):
            concurrence_closed_form(cat_init, 1.2, 0.0, 0.0)
        with pytest.raises(ValueError):
            concurrence_closed_form(cat_init, 0.0, -0.2, 0.5)

    def test_symmetry_in_blocks(self):
        rng = np.random.default_rng(3)
        init = _init_with_overlap(0.3, a=0.8, b=-1.1)
        for _ in range(25):
            shares = rng.dirichlet([1, 1, 1])
            c1 = concurrence_closed_form(init, *map(float, shares))
            c2 = concurrence_closed_form(init, float(shares[0]),
                                         float(shares[2]), float(shares[1]))
            assert c1 == pytest.approx(c2, rel=1e-14)

    def test_monotone_in_block_share(self):
        # larger share on one block raises C while the rest is held fixed
        init = _init_with_overlap(0.4)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            values = [concurrence_closed_form(init, 0.1, tb, 0.3)
                      for tb in np.linspace(0.05, 0.6, 12)]
        assert np.all(np.diff(values) > 0)

    def test_balanced_split_is_maximal(self):
        init = _init_with_overlap(0.2)
        for total in (1.0, 0.8):
            xi = 1.0 - total
            grid = np.linspace(0.01, total - 0.01, 41)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                values = [concurrence_closed_form(init, xi, tb, total - tb)
                          for tb in grid]
            best = grid[int(np.argmax(values))]
            assert best == pytest.approx(total / 2.0, abs=total / 40.0)

    def test_arrays_match_scalars(self, cat_init):
        rng = np.random.default_rng(4)
        xi, tb, tc = rng.dirichlet([1, 1, 1], size=30).T
        values = concurrence_closed_form(cat_init, xi, tb, tc)
        assert values.shape == (30,)
        for i in range(30):
            assert values[i] == pytest.approx(concurrence_closed_form(
                cat_init, float(xi[i]), float(tb[i]), float(tc[i])), abs=1e-15)

    def test_array_checks_every_element(self, cat_init):
        with pytest.raises(ValueError, match="theta_b"):
            concurrence_closed_form(cat_init, np.array([0.2, 0.2]),
                                    np.array([0.5, 1.3]), np.array([0.3, 0.0]))
        with pytest.warns(UserWarning, match="what-if"):
            concurrence_closed_form(cat_init, np.array([0.2, 0.5]),
                                    np.array([0.5, 0.5]), np.array([0.3, 0.5]))

    def test_range_on_random_physical_inputs(self):
        rng = np.random.default_rng(11)
        for _ in range(1000):
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            if abs(a) < 1e-6 or abs(b) < 1e-6:
                continue
            alpha0 = complex(rng.normal(scale=2), rng.normal(scale=2))
            beta0 = complex(rng.normal(scale=2), rng.normal(scale=2))
            init = normalize_superposition(a, b, alpha0, beta0)
            shares = rng.dirichlet([1, 1, 1])
            c = concurrence_closed_form(init, *map(float, shares))
            assert -1e-12 <= c <= 1.0 + 1e-12


class TestAsymptotic:
    def test_balanced_halves(self, cat_init):
        assert asymptotic_concurrence(cat_init, 0.5, 0.5) == pytest.approx(
            1.0, abs=1e-12)

    def test_all_in_one_block(self, cat_init):
        assert asymptotic_concurrence(cat_init, 1.0, 0.0) == 0.0

    def test_unbalanced_below_balanced(self, cat_init):
        lopsided = asymptotic_concurrence(cat_init, 0.9, 0.1)
        balanced = asymptotic_concurrence(cat_init, 0.5, 0.5)
        assert 0.0 < lopsided < balanced

    def test_rejects_excess_total(self, cat_init):
        with pytest.raises(ValueError):
            asymptotic_concurrence(cat_init, 0.7, 0.7)


class TestSeries:
    def test_starts_at_zero(self, small_grid, cat_init):
        gen = build_generator(small_grid)
        traj = evolve_exact(gen, np.linspace(0.0, 40.0, 81))
        part = centered_bipartition(small_grid, 10)
        series = concurrence_series(excitation_profile(traj, part), cat_init)
        assert series.c_closed[0] == pytest.approx(0.0, abs=1e-12)
        assert series.theta_b[0] == pytest.approx(0.0, abs=1e-14)

    def test_pieces_recombine(self, small_grid, cat_init):
        gen = build_generator(small_grid)
        traj = evolve_exact(gen, np.linspace(0.0, 40.0, 81))
        part = centered_bipartition(small_grid, 10)
        series = concurrence_series(excitation_profile(traj, part), cat_init)
        prefactor = 2.0 * abs(cat_init.a * cat_init.b) * cat_init.norm_const ** 2
        rebuilt = (prefactor * cat_init.o0 ** series.xi
                   * series.d_b * series.d_c)
        assert np.abs(rebuilt - series.c_closed).max() < 1e-12

    def test_matches_scalar_evaluation(self, small_grid, cat_init):
        gen = build_generator(small_grid)
        traj = evolve_exact(gen, np.linspace(0.0, 40.0, 17))
        part = centered_bipartition(small_grid, 14)
        series = concurrence_series(excitation_profile(traj, part), cat_init)
        for i in range(len(series.times)):
            scalar = concurrence_closed_form(
                cat_init, min(float(series.xi[i]), 1.0),
                float(series.theta_b[i]), float(series.theta_c[i]))
            assert series.c_closed[i] == pytest.approx(scalar, abs=1e-14)

    def test_interleaved_small_bath_balanced(self, small_grid, cat_init):
        # symmetric comb: odd and even modes mirror about resonance
        gen = build_generator(small_grid)
        traj = evolve_exact(gen, [0.0, 150.0])
        part = interleaved_bipartition(small_grid)
        series = concurrence_series(excitation_profile(traj, part), cat_init)
        assert abs(series.theta_b[-1] - series.theta_c[-1]) < 1e-6

    def test_identical_branches_give_positive_zero(self, small_grid):
        init = normalize_superposition(1, 1, 0.5, 0.5)  # o0 = 1
        traj = evolve_exact(build_generator(small_grid), np.linspace(0.0, 20.0, 11))
        series = concurrence_series(
            excitation_profile(traj, centered_bipartition(small_grid, 10)), init)
        for column in (series.d_b, series.d_c, series.c_closed):
            assert np.all(column == 0.0) and not np.signbit(column).any()

    def test_rejects_partial_bipartition(self, small_grid, cat_init):
        from oscbath import explicit_partition
        gen = build_generator(small_grid)
        part = explicit_partition(small_grid, ((1, 2), (3, 4)), ("B", "C"))
        # at t = 0 alone every bath share is 0, so no share sum can tell
        for times in ([0.0, 1.0], [0.0]):
            traj = evolve_exact(gen, times)
            with pytest.raises(ValueError, match="full bath"):
                concurrence_series(excitation_profile(traj, part), cat_init)
