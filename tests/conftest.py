import numpy as np
import pytest

from oscbath import (SystemConfig, build_bath_grid, build_generator,
                     evolve_exact, normalize_superposition)

REFERENCE_T_END = 100.0
REFERENCE_SAMPLES = 2000


def dense_matrix(gen):
    """The (N+1) x (N+1) matrix of an Arrowhead generator, for dense oracles."""
    a = np.diag(np.concatenate(([gen.a00], gen.diag)))
    a[0, 1:], a[1:, 0] = gen.row, gen.col
    return a


def block_modes(partition):
    """The 1-based modes of each block of partition, ascending, for dense oracles."""
    return [np.flatnonzero(partition.member == j) + 1 for j in range(partition.n_blocks)]


@pytest.fixture(autouse=True)
def _no_kept_solution():
    """Each test starts with no spectral solution and no profiles kept from an earlier one
    (session trajectories such as reference_traj live on), so that what it counts
    (decompositions, node tables, share passes) is its own."""
    from oscbath import observables, propagation
    propagation._solution.cache_clear()
    observables._PROFILES.clear()


@pytest.fixture(scope="session")
def reference_grid():
    return build_bath_grid(SystemConfig(n_bath=1000, coupling_amplitude=0.1,
                                        band=(0.5, 1.5)))


@pytest.fixture(scope="session")
def reference_gen(reference_grid):
    return build_generator(reference_grid)


@pytest.fixture(scope="session")
def reference_traj(reference_gen):
    """Full-scale reference trajectory, 2000 samples over [0, 100]."""
    times = np.linspace(0.0, REFERENCE_T_END, REFERENCE_SAMPLES)
    return evolve_exact(reference_gen, times)


@pytest.fixture(scope="session")
def cat_init():
    """The standard two-branch initial state: b = -a, overlap exp(-18)."""
    return normalize_superposition(1.0, -1.0, 3.0, -3.0)


@pytest.fixture()
def small_grid():
    return build_bath_grid(SystemConfig(n_bath=40, coupling_amplitude=0.1,
                                        band=(0.5, 1.5)))


@pytest.fixture()
def two_mode_grid():
    return build_bath_grid(SystemConfig(n_bath=1, coupling_amplitude=0.1,
                                        band=(1.0, 1.0)))
