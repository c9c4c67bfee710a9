import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from spin_flip_oracles import factored_product_eigenvalues, product_eigenvalues, spin_flip

from oscbath import (QubitEmbedding, build_density_matrix, build_generator,
                     centered_bipartition, concurrence_closed_form, concurrence_series,
                     crosscheck, evolve_exact, excitation_profile, normalize_superposition,
                     oracle_residuals, qubit_embedding, wootters_concurrence)

BELL_VECTOR = np.array([1.0, 0.0, 0.0, 1.0]) / math.sqrt(2.0)


def _random_state_params(rng, normalized=True):
    """Draw a physical parameter set for the two-branch density matrix."""
    p = rng.uniform(0.05, 1.0)
    q = 1.0 - p if normalized else rng.uniform(0.05, 1.0)
    weight = 1.0 if normalized else rng.uniform(0.2, 2.0)
    z = rng.uniform(0.0, math.sqrt(p * q)) * cmath.exp(2j * math.pi * rng.uniform())
    emb_sys = qubit_embedding(math.log(rng.uniform(0.0, 0.98))
                              + 2j * math.pi * rng.uniform())
    emb_env = qubit_embedding(math.log(rng.uniform(0.0, 0.98))
                              + 2j * math.pi * rng.uniform())
    return weight, p, q, z, emb_sys, emb_env


def _build(params):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # raw scans trip the trace warning
        return build_density_matrix(*params)


class TestQubitEmbedding:
    def test_orthogonal_branches(self):
        emb = qubit_embedding(-math.inf)
        assert emb.s_plus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert emb.s_minus == pytest.approx(1.0 / math.sqrt(2.0), rel=1e-15)
        assert emb.phase == 1.0

    def test_tiny_overlap(self):
        o = math.exp(-18.0)
        emb = qubit_embedding(math.log(o))
        assert emb.s_plus == pytest.approx(math.sqrt((1 + o) / 2), rel=1e-15)
        assert emb.s_minus == pytest.approx(math.sqrt((1 - o) / 2), rel=1e-15)

    def test_identical_branches_degenerate(self):
        emb = qubit_embedding(0.0)
        assert emb.s_plus == 1.0
        assert emb.s_minus == 0.0

    def test_phase_from_argument(self):
        emb = qubit_embedding(math.log(0.5) + 0.5j * math.pi)
        assert emb.phase == pytest.approx(1j)

    def test_rejects_excess_magnitude(self):
        with pytest.raises(ValueError):
            qubit_embedding(math.log(1.0 + 1e-6))

    @given(o=st.floats(min_value=0.0, max_value=1.0),
           angle=st.floats(min_value=0.0, max_value=2 * math.pi))
    def test_weights_normalized(self, o, angle):
        emb = qubit_embedding((math.log(o) if o else -math.inf) + 1j * angle)
        assert emb.s_plus ** 2 + emb.s_minus ** 2 == pytest.approx(1.0, abs=1e-12)
        assert emb.s_plus >= emb.s_minus >= 0.0


class TestDensityMatrix:
    def test_bell_state_projector(self):
        rho = build_density_matrix(1.0, 0.5, 0.5, 0.5,
                                   qubit_embedding(-math.inf), qubit_embedding(-math.inf))
        # equal-weight branches with orthogonal states and full coherence
        # give the projector onto (|1 up> + |0 down>)/sqrt(2)
        expected = np.outer(BELL_VECTOR, BELL_VECTOR)
        assert np.allclose(rho, expected, atol=1e-15)
        assert rho[0, 0] == pytest.approx(0.5)
        assert rho[0, 3] == pytest.approx(0.5)
        assert not rho.flags.writeable

    def test_no_coherence_is_product_mixture(self):
        rho = build_density_matrix(1.0, 0.5, 0.5, 0.0,
                                   qubit_embedding(-math.inf), qubit_embedding(-math.inf))
        # z = 0 leaves an equal classical mixture of the two embedded
        # product states; every asymmetry (u) entry vanishes for p = q
        v_first = np.array([1.0, -1.0, -1.0, 1.0]) / 2.0
        v_second = np.array([1.0, 1.0, 1.0, 1.0]) / 2.0
        expected = 0.5 * (np.outer(v_first, v_first) + np.outer(v_second, v_second))
        assert np.allclose(rho, expected, atol=1e-15)
        # u = q - p + 2i Im z' sits at entries (0, 1), (0, 2), (3, 1), (3, 2)
        assert np.all(rho[[0, 0, 3, 3], [1, 2, 1, 2]] == 0.0)
        assert wootters_concurrence(rho) == 0.0

    def test_degenerate_embedding_is_diagonal(self):
        # identical branches on both sides collapse to a single product
        # state: a diagonal matrix with no corner coherence
        rho = build_density_matrix(1.0, 0.5, 0.5, 0.0,
                                   qubit_embedding(0.0), qubit_embedding(0.0))
        assert np.allclose(rho, np.diag([1.0, 0.0, 0.0, 0.0]), atol=1e-15)
        assert rho[0, 3] == 0.0

    def test_hermitian_and_unit_trace_for_state_params(self, cat_init):
        # parameters of the evolved two-branch state at a sampled instant
        xi, tb, tc = 0.2, 0.5, 0.3
        wc = cat_init.log_overlap.conjugate()
        z = cat_init.a * cat_init.b.conjugate() * cmath.exp(xi * wc)
        rho = build_density_matrix(cat_init.norm_const ** 2,
                                   abs(cat_init.a) ** 2, abs(cat_init.b) ** 2, z,
                                   qubit_embedding(tb * wc), qubit_embedding(tc * wc))
        assert np.array_equal(rho, rho.conj().T)
        assert rho.trace().real == pytest.approx(1.0, abs=1e-10)
        assert np.linalg.eigvalsh(rho).min() > -1e-10

    def test_warns_on_inconsistent_trace(self):
        with pytest.warns(UserWarning, match="trace"):
            build_density_matrix(2.0, 0.5, 0.5, 0.1,
                                 qubit_embedding(-math.inf), qubit_embedding(-math.inf))

    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            build_density_matrix(-1.0, 0.5, 0.5, 0.0,
                                 qubit_embedding(-math.inf), qubit_embedding(-math.inf))


class TestSpinFlip:
    def test_bell_state_invariant(self):
        rho = np.outer(BELL_VECTOR, BELL_VECTOR)
        assert np.allclose(spin_flip(rho), rho, atol=1e-15)

    def test_diagonal_reverses(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.allclose(spin_flip(rho), np.diag([0.4, 0.3, 0.2, 0.1]),
                           atol=0.0)

    def test_matches_entrywise_form(self):
        # the flipped matrix written out entry by entry in terms of the
        # embedding weights and the dressed parameters r, u, v
        rng = np.random.default_rng(5)
        for _ in range(20):
            params = _random_state_params(rng, normalized=False)
            rho = _build(params)
            sp, sm = params[4].s_plus, params[4].s_minus
            tp, tm = params[5].s_plus, params[5].s_minus
            g, p, q, z = params[:4]
            zp = z * params[4].phase * params[5].phase
            r, u, v = p + q + 2 * zp.real, q - p + 2j * zp.imag, p + q - 2 * zp.real
            uc = np.conj(u)
            expected = g * np.array([
                [sm*sm*tm*tm*r, -sm*sm*tp*tm*uc, -sp*sm*tm*tm*uc, sp*sm*tp*tm*r],
                [-sm*sm*tp*tm*u, sm*sm*tp*tp*v,  sp*sm*tp*tm*v, -sp*sm*tp*tp*u],
                [-sp*sm*tm*tm*u, sp*sm*tp*tm*v,  sp*sp*tm*tm*v, -sp*sp*tp*tm*u],
                [sp*sm*tp*tm*r, -sp*sm*tp*tp*uc, -sp*sp*tp*tm*uc, sp*sp*tp*tp*r],
            ], dtype=complex)
            assert np.allclose(spin_flip(rho), expected, atol=1e-14)

    def test_involution_is_exact(self):
        rng = np.random.default_rng(6)
        for _ in range(20):
            rho = _build(_random_state_params(rng, normalized=False))
            twice = spin_flip(spin_flip(rho))
            assert np.array_equal(twice, rho)


class TestWoottersConcurrence:
    def test_bell_state(self):
        rho = np.outer(BELL_VECTOR, BELL_VECTOR)
        assert wootters_concurrence(rho) == pytest.approx(1.0, abs=1e-12)

    def test_diagonal_mixture(self):
        rho = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert wootters_concurrence(rho) == 0.0

    def test_product_state(self):
        v = np.array([1.0, 0.0, 0.0, 0.0])
        assert wootters_concurrence(np.outer(v, v)) == 0.0

    def test_matches_factored_closed_form(self):
        rng = np.random.default_rng(8)
        for _ in range(300):
            params = _random_state_params(rng, normalized=False)
            weight, p, q, z, emb_sys, emb_env = params
            rho = _build(params)
            expected = (8.0 * weight * emb_sys.s_plus * emb_sys.s_minus
                        * emb_env.s_plus * emb_env.s_minus * abs(z))
            assert wootters_concurrence(rho) == pytest.approx(expected, abs=1e-10)

    def test_rejects_non_hermitian(self):
        bad = np.arange(16, dtype=complex).reshape(4, 4)
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(bad)

    def test_rejects_significantly_negative(self):
        bad = np.diag([0.6, 0.5, -0.1, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            wootters_concurrence(bad)


class TestProductSpectrum:
    def test_two_vanishing_eigenvalues(self):
        rng = np.random.default_rng(9)
        for _ in range(100):
            rho = _build(_random_state_params(rng, normalized=False))
            m = product_eigenvalues(rho)
            assert m.shape == (4,)
            assert abs(m[2]) < 1e-10
            assert abs(m[3]) < 1e-10

    def test_matches_factored_eigenvalues(self):
        rng = np.random.default_rng(10)
        for _ in range(200):
            params = _random_state_params(rng, normalized=False)
            rho = _build(params)
            m = product_eigenvalues(rho)
            m1, m2 = factored_product_eigenvalues(*params)
            assert m[0] == pytest.approx(m2, abs=1e-10)
            assert m[1] == pytest.approx(m1, abs=1e-10)

    def test_no_coherence_degenerate_pair(self):
        params = (1.0, 0.5, 0.5, 0.0, qubit_embedding(-math.inf), qubit_embedding(-math.inf))
        m1, m2 = factored_product_eigenvalues(*params)
        # scale 16 (s+s-s+'s-')^2 = 1 here, so both roots equal pq
        assert m1 == m2 == pytest.approx(0.25, rel=1e-12)
        m = product_eigenvalues(_build(params))
        assert m[0] == pytest.approx(m1, abs=1e-12)
        assert m[1] == pytest.approx(m1, abs=1e-12)

    def test_bell_eigenvalues(self):
        params = (1.0, 0.5, 0.5, 0.5, qubit_embedding(-math.inf), qubit_embedding(-math.inf))
        m1, m2 = factored_product_eigenvalues(*params)
        assert m1 == 0.0
        assert m2 == pytest.approx(1.0, rel=1e-12)
        # l2 - l1 = 1 recovers the Bell concurrence
        assert math.sqrt(m2) - math.sqrt(m1) == pytest.approx(1.0, rel=1e-12)

    def test_concurrence_is_gap_of_two_roots(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            params = _random_state_params(rng)
            if abs(params[3]) >= math.sqrt(params[1] * params[2]):
                continue
            rho = _build(params)
            m = product_eigenvalues(rho)
            gap = math.sqrt(m[0]) - math.sqrt(m[1])
            assert wootters_concurrence(rho) == pytest.approx(gap, abs=1e-7)

    def test_trace_identity(self):
        # sum of sqrt eigenvalues of rho rho~ equals the trace of
        # sqrt(sqrt(rho) rho~ sqrt(rho)) on physical states; eigenvalues at
        # the roundoff floor are dropped on both sides, since square roots
        # of noise-level values only agree to ~sqrt(eps)
        rng = np.random.default_rng(13)

        def rooted_sum(values):
            values = np.clip(values, 0.0, None)
            values[values <= 1e-12 * values.max()] = 0.0
            return np.sqrt(values).sum()

        for _ in range(100):
            mat = _build(_random_state_params(rng))
            flipped = spin_flip(mat)
            lhs = rooted_sum(product_eigenvalues(mat))
            ev, basis = np.linalg.eigh(mat)
            root = (basis * np.sqrt(np.clip(ev, 0.0, None))) @ basis.conj().T
            inner = np.linalg.eigvalsh(root @ flipped @ root)
            rhs = rooted_sum(inner)
            assert lhs == pytest.approx(rhs, abs=1e-8)

    def test_rejects_malformed_input(self):
        # an indefinite Hermitian input drives the product spectrum negative
        bad = np.diag([0.7, 0.5, -0.2, 0.0]).astype(complex)
        with pytest.raises(ValueError, match="negative"):
            product_eigenvalues(bad)


class TestCrosscheck:
    def test_balanced_late_time(self, cat_init):
        assert crosscheck(cat_init, 0.0, 0.5, 0.5) < 1e-10

    def test_empty_block_both_zero(self, cat_init):
        assert crosscheck(cat_init, 0.3, 0.0, 0.7) == 0.0

    def test_thousand_random_draws(self):
        rng = np.random.default_rng(20260810)
        worst = 0.0
        count = 0
        while count < 1000:
            a = complex(rng.normal(), rng.normal())
            b = complex(rng.normal(), rng.normal())
            if abs(a) < 1e-6 or abs(b) < 1e-6:
                continue
            alpha0 = complex(rng.normal(scale=2), rng.normal(scale=2))
            beta0 = complex(rng.normal(scale=2), rng.normal(scale=2))
            init = normalize_superposition(a, b, alpha0, beta0)
            shares = rng.dirichlet([1.0, 1.0, 1.0])
            worst = max(worst, crosscheck(init, *map(float, shares)))
            count += 1
        assert worst < 1e-10


def _oracle_draws(seed, count=200):
    """Initial states and shares drawn as verify's closed_form_vs_oracle draws
    them: the same rng calls in the same order, tiny weights left out."""
    rng = np.random.default_rng(seed)
    parts = rng.normal(0.0, [1.0, 1.0, 2.0, 2.0], size=(count, 2, 4))
    draws = parts[:, 0] + 1j * parts[:, 1]
    shares = rng.dirichlet([1.0, 1.0, 1.0], size=count)
    kept = (np.abs(draws[:, 0]) >= 1e-6) & (np.abs(draws[:, 1]) >= 1e-6)
    return [normalize_superposition(*draw) for draw in draws[kept]], shares[kept]


def _stacked_embedding(embeddings):
    return QubitEmbedding(*(np.array([getattr(e, name) for e in embeddings])
                            for name in ("s_plus", "s_minus", "phase")))


class TestStackedPipeline:
    def test_embedding_of_an_array_matches_scalars(self):
        exponents = np.array([-math.inf, math.log(0.5) + 0.5j * math.pi, -18.0, 0.0,
                              cmath.log(0.3 - 0.4j)])
        stacked = qubit_embedding(exponents)
        for i, exponent in enumerate(exponents):
            single = qubit_embedding(exponent)
            assert stacked.s_plus[i] == single.s_plus
            assert stacked.s_minus[i] == single.s_minus
            assert stacked.phase[i] == single.phase

    def test_embedding_rejects_one_excess_magnitude(self):
        with pytest.raises(ValueError, match="exceeds 1"):
            qubit_embedding(np.log([0.5, 1.0 + 1e-6]))

    def test_stacked_assembly_matches_rows(self):
        rng = np.random.default_rng(14)
        params = [_random_state_params(rng, normalized=False) for _ in range(50)]
        weight, p, q, z = (np.array([prm[i] for prm in params]) for i in range(4))
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")  # raw scans trip the trace warning
            stacked = build_density_matrix(
                weight, p, q, z, _stacked_embedding([prm[4] for prm in params]),
                _stacked_embedding([prm[5] for prm in params]))
        assert stacked.shape == (50, 4, 4)
        assert np.array_equal(stacked, stacked.conj().swapaxes(1, 2))
        for i, prm in enumerate(params):
            # vectorised complex products may round differently in the last bit
            np.testing.assert_allclose(stacked[i], _build(prm),
                                       rtol=0.0, atol=1e-15)

    def test_stack_rejects_one_negative_weight(self):
        with pytest.raises(ValueError, match="positive"):
            build_density_matrix(np.array([1.0, -1.0]), 0.5, 0.5, 0.0,
                                 qubit_embedding(-math.inf), qubit_embedding(-math.inf))

    def test_stack_matches_product_gap_per_row(self):
        rng = np.random.default_rng(12)
        params = [prm for prm in (_random_state_params(rng) for _ in range(100))
                  if abs(prm[3]) < math.sqrt(prm[1] * prm[2])]
        rhos = [_build(prm) for prm in params]
        stacked = wootters_concurrence(np.stack(rhos))
        assert stacked.shape == (len(rhos),)
        for rho, c in zip(rhos, stacked):
            m = product_eigenvalues(rho)
            assert c == pytest.approx(math.sqrt(m[0]) - math.sqrt(m[1]), abs=1e-7)

    def test_rank_cutoff_is_per_matrix(self):
        # the 1e-7 admixture lowers C by 2e-7; in the scaled copy its
        # eigenvalue 1e-13 sits below a cutoff taken over the whole stack
        phi_minus = np.array([1.0, 0.0, 0.0, -1.0]) / math.sqrt(2.0)
        eps = 1e-7
        rho = ((1.0 - eps) * np.outer(BELL_VECTOR, BELL_VECTOR)
               + eps * np.outer(phi_minus, phi_minus))
        c = wootters_concurrence(rho)
        assert c == pytest.approx(1.0 - 2.0 * eps, abs=1e-14)
        stacked = wootters_concurrence(np.stack([rho, 1e-6 * rho]))
        np.testing.assert_allclose(stacked, [c, 1e-6 * c], rtol=1e-12, atol=0.0)

    def test_stack_with_one_non_hermitian_matrix_raises(self):
        # a 1e-9 skew passes at the scale 1e6 of the other matrix, but not
        # at its own scale of 1
        bell = np.outer(BELL_VECTOR, BELL_VECTOR).astype(complex)
        skewed = bell.copy()
        skewed[0, 3] += 1e-9
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(np.stack([1e6 * bell, skewed]))
        with pytest.raises(ValueError, match="Hermitian"):
            wootters_concurrence(np.stack([bell, np.arange(16.0).reshape(4, 4)]))

    @pytest.mark.parametrize("overlap, a, b, shift", [
        (math.exp(-18.0), 0.8 + 0.3j, -1.1, 0.2j), (0.5, 0.8 + 0.3j, -1.1, 0.2j),
        # the odd cat near 1, where 1 - o0^theta cancels unless taken from the exponent
        (1 - 1e-8, 1, -1, 0), (1 - 1e-12, 1, -1, 0), (1 - 1e-15, 1, -1, 0)])
    def test_oracle_residuals_match_crosscheck(self, small_grid, overlap, a, b, shift):
        half = math.sqrt(-2.0 * math.log(overlap)) / 2.0
        init = normalize_superposition(a, b, half + shift, -half)
        traj = evolve_exact(build_generator(small_grid), np.linspace(0.0, 40.0, 41))
        series = concurrence_series(
            excitation_profile(traj, centered_bipartition(small_grid, 10)), init)
        stacked = oracle_residuals(init, series.xi, series.theta_b, series.theta_c)
        rows = [crosscheck(init, float(x), float(b), float(c))
                for x, b, c in zip(series.xi, series.theta_b, series.theta_c)]
        assert stacked.shape == (41,)
        assert np.abs(stacked - rows).max() <= 1e-15
        assert stacked.max() < 1e-10

    @pytest.mark.parametrize("seed", [20260810, 1, 2, 3])
    def test_stacked_inits_match_crosscheck(self, seed):
        inits, shares = _oracle_draws(seed)
        stacked = oracle_residuals(inits, *shares.T)
        rows = [crosscheck(init, *map(float, row)) for init, row in zip(inits, shares)]
        assert stacked.shape == (len(inits),)
        assert np.abs(stacked - rows).max() <= 1e-15
        assert stacked.max() < 1e-10

    @staticmethod
    def _reference_shares(traj, grid, init, copies):
        """fig10a's concurrence shares (xi, theta_b, theta_c), repeated copies times."""
        series = concurrence_series(excitation_profile(traj, centered_bipartition(grid, 100)),
                                    init)
        return [np.tile(v, copies) for v in (series.xi, series.theta_b, series.theta_c)]

    def test_tiles_match_one_stack(self, reference_traj, reference_grid, cat_init,
                                   monkeypatch):
        from oscbath import wootters
        shares = self._reference_shares(reference_traj, reference_grid, cat_init, 2)
        inits, drawn = _oracle_draws(1, count=1500)
        results = {}
        for rows in (wootters._ORACLE_ROWS, 64, 10 ** 6):  # 10^6: one stack
            monkeypatch.setattr(wootters, "_ORACLE_ROWS", rows)
            results[rows] = (oracle_residuals(cat_init, *shares),
                             oracle_residuals(inits, *drawn.T))
        assert results[10 ** 6][0].shape == (4000,)
        for rows in (1024, 64):
            for tiled, stack in zip(results[rows], results[10 ** 6]):
                assert np.array_equal(tiled, stack)

    def test_memory_does_not_grow_with_the_rows(self, reference_traj, reference_grid,
                                                cat_init):
        # bound fixed before the first run: 6 MiB at 20000 rows, where one stack of every row
        # peaked at 30.7 MiB
        import tracemalloc
        shares = self._reference_shares(reference_traj, reference_grid, cat_init, 10)
        tracemalloc.start()
        try:
            residuals = oracle_residuals(cat_init, *shares)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert residuals.shape == (20000,) and residuals.max() < 1e-10
        assert peak <= 6 * 2 ** 20

    def test_empty_stacks_give_empty_arrays(self, cat_init):
        for init in ([], cat_init):
            for residuals in (concurrence_closed_form(init, [], [], []),
                              oracle_residuals(init, [], [], [])):
                assert isinstance(residuals, np.ndarray) and residuals.shape == (0,)

    def test_stacked_inits_warn_off_the_physical_set(self):
        inits, shares = _oracle_draws(1, count=5)
        shares[2] = (0.3, 0.3, 0.3)

        def messages(init, *row):
            with warnings.catch_warnings(record=True) as record:
                warnings.simplefilter("always")
                oracle_residuals(init, *row)
            return [str(w.message) for w in record]

        stacked = messages(inits, *shares.T)
        assert stacked == messages(inits[2], *shares[2])
        assert ("xi + theta_b + theta_c = 0.9 differs from 1; treating inputs as a "
                "what-if scan") in stacked
