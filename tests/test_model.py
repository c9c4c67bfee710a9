import cmath
import decimal
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbath import (PartitionSpec, SystemConfig, banded_blocks,
                     build_bath_grid, centered_bipartition,
                     coherent_log_overlap, explicit_partition,
                     interleaved_bipartition, normalize_superposition)

finite_complex = st.complex_numbers(allow_nan=False, allow_infinity=False,
                                    max_magnitude=15.0)


class TestBathGrid:
    def test_reference_grid(self):
        grid = build_bath_grid(SystemConfig(n_bath=1000, coupling_amplitude=0.1,
                                            band=(0.5, 1.5)))
        assert grid.frequencies[0] == 0.5
        assert grid.frequencies[-1] == 1.5
        assert np.allclose(np.diff(grid.frequencies), 1.0 / 999.0, rtol=1e-12)
        assert np.all(grid.couplings == 0.1 / math.sqrt(1000))
        assert grid.couplings[0] == pytest.approx(0.0031623, abs=5e-8)

    def test_single_resonant_mode(self):
        grid = build_bath_grid(SystemConfig(n_bath=1, band=(1.0, 1.0)))
        assert grid.frequencies.tolist() == [1.0]
        assert grid.detunings.tolist() == [0.0]
        assert grid.couplings.tolist() == [0.1]

    def test_three_mode_grid(self):
        grid = build_bath_grid(SystemConfig(n_bath=3, band=(0.5, 1.5)))
        assert grid.frequencies.tolist() == [0.5, 1.0, 1.5]
        assert grid.detunings.tolist() == [0.25, 0.0, -0.25]

    def test_rejects_zero_modes(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bath=0)

    def test_rejects_degenerate_band_for_many_modes(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bath=2, band=(1.0, 1.0))

    def test_rejects_bad_band_order(self):
        with pytest.raises(ValueError):
            SystemConfig(n_bath=3, band=(1.5, 0.5))

    @pytest.mark.parametrize("kwargs, message", [
        ({"omega0": math.inf}, "omega0 must be finite"),
        ({"omega0": math.nan}, "omega0 must be finite"),
        ({"coupling_amplitude": math.inf}, "coupling_amplitude must be finite"),
        ({"coupling_amplitude": math.nan}, "coupling_amplitude must be finite"),
        ({"band": (0.5, math.inf)}, "band must be finite"),
        ({"band": (math.nan, 1.5)}, "band must be finite"),
        ({"couplings": (0.1, math.inf)}, "couplings must be positive and finite"),
        ({"couplings": (math.nan, 0.1)}, "couplings must be positive and finite")])
    def test_rejects_non_finite_values(self, kwargs, message):
        # the document readers refuse these too; through the API an infinite coupling got
        # as far as the secular solver, which failed with roots that did not converge
        with pytest.raises(ValueError, match=message):
            SystemConfig(n_bath=2, **kwargs)

    def test_coupling_override(self):
        grid = build_bath_grid(SystemConfig(n_bath=2, couplings=(0.1, 0.1)))
        assert grid.couplings.tolist() == [0.1, 0.1]
        with pytest.raises(ValueError):
            SystemConfig(n_bath=3, couplings=(0.1, 0.1))

    def test_force_resonant_shifts_comb_onto_omega0(self):
        cfg = SystemConfig(n_bath=1000, band=(0.5, 1.5), force_resonant=True)
        grid = build_bath_grid(cfg)
        assert np.abs(grid.frequencies - 1.0).min() == 0.0
        # even inclusive grid has no mode exactly on resonance
        plain = build_bath_grid(SystemConfig(n_bath=1000, band=(0.5, 1.5)))
        assert np.abs(plain.frequencies - 1.0).min() > 0.0

    def test_detuning_antisymmetry_on_symmetric_band(self):
        grid = build_bath_grid(SystemConfig(n_bath=1000, band=(0.5, 1.5)))
        paired = grid.detunings + grid.detunings[::-1]
        assert np.abs(paired).max() < 1e-12


class TestPartitions:
    def test_centered_paper_block(self, reference_grid):
        part = centered_bipartition(reference_grid, 100)
        assert part.labels == ("B", "C")
        modes = np.arange(1, 1001)
        assert set(modes[part.member == 0]) == set(range(451, 551))
        assert set(modes[part.member == 1]) == set(range(1, 1001)) - set(range(451, 551))
        assert part.is_bipartition_of(1000)

    def test_centered_single_resonant_index(self):
        grid = build_bath_grid(SystemConfig(n_bath=3, band=(0.5, 1.5)))
        part = centered_bipartition(grid, 1)
        assert part.member.tolist() == [1, 0, 1]  # blocks (2,) and (1, 3)

    def test_centered_tie_breaks_toward_lower_index(self):
        # frequencies 0.5, 0.75, 1.0, 1.25, 1.5 give exact detuning ties
        grid = build_bath_grid(SystemConfig(n_bath=5, band=(0.5, 1.5)))
        assert centered_bipartition(grid, 2).member.tolist() == [1, 0, 0, 1, 1]  # B = (2, 3)
        assert centered_bipartition(grid, 4).member.tolist() == [0, 0, 0, 0, 1]

    def test_centered_middle_pair(self):
        grid = build_bath_grid(SystemConfig(n_bath=4, band=(0.5, 1.5)))
        assert set(np.flatnonzero(centered_bipartition(grid, 2).member == 0) + 1) == {2, 3}

    def test_centered_size_out_of_range(self, small_grid):
        with pytest.raises(ValueError):
            centered_bipartition(small_grid, 0)
        with pytest.raises(ValueError):
            centered_bipartition(small_grid, small_grid.n + 1)

    def test_banded_paper_blocks(self, reference_grid):
        part = banded_blocks(reference_grid, 10)
        assert part.n_blocks == 10
        assert np.bincount(part.member).tolist() == [100] * 10
        assert part.member.size == 1000 and part.member.min() == 0  # covers the bath
        # first block is exactly the 100-mode centered block
        assert np.array_equal(part.member == 0,
                              centered_bipartition(reference_grid, 100).member == 0)
        assert part.labels == tuple(str(i) for i in range(1, 11))

    def test_banded_whole_bath(self):
        grid = build_bath_grid(SystemConfig(n_bath=2, band=(0.5, 1.5)))
        part = banded_blocks(grid, 1)
        assert part.member.tolist() == [0, 0]  # one block (1, 2)

    def test_banded_half_above_half_below(self):
        grid = build_bath_grid(SystemConfig(n_bath=6, band=(0.5, 1.5)))
        part = banded_blocks(grid, 3)
        modes = np.arange(1, 7)
        assert set(modes[part.member == 0]) == {3, 4}
        assert set(modes[part.member == 1]) == {2, 5}
        assert set(modes[part.member == 2]) == {1, 6}
        for j in range(3):
            block = modes[part.member == j]
            above = sum(grid.frequencies[k - 1] > 1.0 for k in block)
            assert above == len(block) // 2

    def test_banded_rejects_non_divisor(self, reference_grid):
        with pytest.raises(ValueError):
            banded_blocks(reference_grid, 7)

    def test_interleaved(self, small_grid):
        part = interleaved_bipartition(small_grid)
        assert tuple(np.flatnonzero(part.member == 0)[:3] + 1) == (1, 3, 5)
        assert tuple(np.flatnonzero(part.member == 1)[:3] + 1) == (2, 4, 6)
        assert part.is_bipartition_of(small_grid.n)

    def test_partition_validation(self):
        grid = build_bath_grid(SystemConfig(n_bath=4, band=(0.5, 1.5)))
        with pytest.raises(ValueError):
            explicit_partition(grid, ((1, 2), (2, 3)), ("B", "C"))  # overlapping
        with pytest.raises(ValueError):
            explicit_partition(grid, ((0, 1),), ("B",))  # indices are 1-based
        with pytest.raises(ValueError):
            explicit_partition(grid, ((1,),), ("B", "C"))  # label count mismatch
        with pytest.raises(ValueError):
            explicit_partition(build_bath_grid(SystemConfig(n_bath=3)), ((1, 2), (4,)), "BC")
        part = explicit_partition(grid, ((1, 2), (4,)), ("B", "C"))
        assert part.member.tolist() == [0, 0, -1, 1]
        assert not part.is_bipartition_of(4)  # mode 3 is in no block


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_member_of_every_builder(data):
    n = data.draw(st.integers(1, 60), label="n_bath")
    grid = build_bath_grid(SystemConfig(n_bath=n, band=(0.5, 1.5)))
    # disjoint blocks: a shuffle of the modes, its first `kept` cut at sorted points; a
    # repeated cut makes an empty block, and the modes past `kept` are in none
    order = data.draw(st.permutations(range(1, n + 1)))
    kept = data.draw(st.integers(0, n))
    cuts = sorted(data.draw(st.lists(st.integers(0, kept), max_size=5)))
    blocks = [order[lo:hi] for lo, hi in zip([0, *cuts], [*cuts, kept])]
    part = explicit_partition(grid, blocks, [f"L{j}" for j in range(len(blocks))])
    expected = np.full(n, -1)
    for j, block in enumerate(blocks):
        for k in block:
            expected[k - 1] = j
    assert np.array_equal(part.member, expected)

    size_b = data.draw(st.integers(1, n), label="size_b")
    n_blocks = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))
    centered = centered_bipartition(grid, size_b)
    banded = banded_blocks(grid, n_blocks)
    interleaved = interleaved_bipartition(grid)
    assert np.bincount(centered.member, minlength=2).tolist() == [size_b, n - size_b]
    assert np.bincount(banded.member, minlength=n_blocks).tolist() == [n // n_blocks] * n_blocks
    assert np.bincount(interleaved.member, minlength=2).tolist() == [(n + 1) // 2, n // 2]
    for tiling in (centered, banded, interleaved):  # each tiles the bath
        assert tiling.member.size == n and tiling.member.min() >= 0
    assert centered.is_bipartition_of(n) and interleaved.is_bipartition_of(n)


class TestSuperposition:
    def test_single_branch_is_normalized(self):
        init = normalize_superposition(1.0, 0.0, 0.3 + 1j, -2.0)
        assert init.norm_const == pytest.approx(1.0, rel=1e-12)

    def test_cat_state_overlap_and_norm(self):
        init = normalize_superposition(1.0, -1.0, 3.0, -3.0)
        assert init.log_overlap == -18.0
        assert init.o0 == pytest.approx(math.exp(-18.0), rel=1e-12)
        assert init.norm_const ** 2 == pytest.approx(
            1.0 / (2.0 * (1.0 - math.exp(-18.0))), rel=1e-12)

    def test_identical_branches(self):
        init = normalize_superposition(1.0, 1.0, 2.0, 2.0)
        assert init.o0 == pytest.approx(1.0, rel=1e-12)
        assert init.norm_const ** 2 == pytest.approx(0.25, rel=1e-12)

    def test_rejects_zero_weights(self):
        with pytest.raises(ValueError):
            normalize_superposition(0.0, 0.0, 1.0, 2.0)

    def test_rejects_cancelling_branches(self):
        with pytest.raises(ValueError):
            normalize_superposition(1.0, -1.0, 2.0, 2.0)

    def test_stored_norm_is_recomputable(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            a, b = rng.normal(size=2) + 1j * rng.normal(size=2)
            alpha0, beta0 = rng.normal(size=2) + 1j * rng.normal(size=2)
            if a == 0 and b == 0:
                continue
            init = normalize_superposition(a, b, alpha0, beta0)
            n2inv = (abs(a) ** 2 + abs(b) ** 2
                     + 2 * (np.conj(a) * b * cmath.exp(init.log_overlap)).real)
            assert init.norm_const == pytest.approx(1 / math.sqrt(n2inv), rel=1e-12)

    def test_norm_of_near_identical_branches(self):
        # bound fixed before the first run: 2 eps.  The odd cat a = 1, b = -1 with
        # alpha0 = -beta0 = x has N^2 = 1 / (2 - 2 exp(-2 x^2)), which loses every digit to
        # cancellation as x -> 0 unless e^w - 1 is formed directly; the reference takes
        # 60 digits
        worst = 0.0
        with decimal.localcontext() as context:
            context.prec = 60
            for x in np.geomspace(1e-7, 1e-2, 2000):
                init = normalize_superposition(1.0, -1.0, x, -x)
                exact = 1 / (2 - 2 * (-2 * decimal.Decimal(x) ** 2).exp())
                error = (decimal.Decimal(init.norm_const) ** 2 - exact) / exact
                worst = max(worst, abs(float(error)))
        assert worst <= 2 * np.finfo(float).eps, worst

    @given(alpha=finite_complex, beta=finite_complex)
    def test_overlap_magnitude_identity(self, alpha, beta):
        # |<alpha|beta>| = exp(Re w) = exp(-|alpha - beta|^2 / 2)
        magnitude = math.exp(coherent_log_overlap(alpha, beta).real)
        expected = math.exp(-abs(alpha - beta) ** 2 / 2.0)
        assert math.isclose(magnitude, expected, rel_tol=1e-9, abs_tol=1e-300)
