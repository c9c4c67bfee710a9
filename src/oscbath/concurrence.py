"""Closed-form concurrence between two bath partitions.

C = 2|ab| N^2 o0^xi sqrt(1 - o0^(2 theta_b)) sqrt(1 - o0^(2 theta_c)),
with o0 the initial branch-overlap magnitude and theta_b/theta_c the
excitation shares of the two blocks.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .model import SuperpositionInit
from .observables import ExcitationProfile

__all__ = [
    "ConcurrenceSeries", "distinguishability", "concurrence_closed_form",
    "asymptotic_concurrence", "concurrence_series",
]

# physical trajectories satisfy xi + theta_b + theta_c = 1 far below this;
# larger deviations mean the caller is running a what-if scan
PHYSICAL_SUM_TOL = 1e-3


def _check_unit_range(name: str, value):
    # tolerate sub-roundoff excursions from trajectory arithmetic
    value = np.asarray(value, dtype=float)
    bad = ~((value >= -1e-12) & (value <= 1.0 + 1e-12))
    if bad.any():
        raise ValueError(f"{name} must lie in [0, 1], got {np.extract(bad, value)[0]}")
    return np.clip(value, 0.0, 1.0)


def _kernel(lo: float, prefactor: float, xi, theta_b, theta_c):
    """d_b, d_c and C = prefactor * o0^xi * d_b * d_c, elementwise, with
    lo = ln o0 and d = sqrt(1 - o0^(2 theta)).

    Subtracting from 0.0 rather than negating gives d = +0.0 at o0 = 1.
    """
    d_b, d_c = np.sqrt(0.0 - np.expm1(2.0 * lo * np.stack(
        np.broadcast_arrays(theta_b, theta_c))))
    return d_b, d_c, prefactor * np.exp(xi * lo) * d_b * d_c


def _per_row(init, *terms):
    """Each term(init), or for a sequence of inits (none: empty) an array of each taken row
    by row in Python: numpy's complex abs and product can round otherwise in the last bit."""
    if isinstance(init, SuperpositionInit):
        return tuple(term(init) for term in terms)
    return tuple(np.array([term(i) for i in init]) for term in terms)


def _init_kernel(init, xi, theta_b, theta_c):
    prefactor, lo = _per_row(init, lambda i: 2.0 * abs(i.a * i.b) * i.norm_const ** 2,
                             lambda i: i.log_overlap.real)
    return _kernel(lo, prefactor, xi, theta_b, theta_c)


def distinguishability(o0: float, theta_p: float) -> float:
    """sqrt(1 - o0^(2*theta_p)): how well the two branch states can be told
    apart on a block carrying excitation share theta_p.

    Conventions at the edges: theta_p = 0 gives 0 (identical states) even
    for o0 = 0, and o0 = 0 with theta_p > 0 gives 1 (orthogonal branches).
    """
    o0 = float(_check_unit_range("o0", o0))
    theta_p = float(_check_unit_range("theta_p", theta_p))
    if theta_p == 0.0:
        return 0.0
    if o0 == 0.0:
        return 1.0
    return float(_kernel(math.log(o0), 0.0, 0.0, theta_p, 0.0)[0])


def concurrence_closed_form(init: SuperpositionInit, xi, theta_b, theta_c):
    """Concurrence between two bath blocks from their excitation shares.

    Takes scalars (returns a float) or arrays (returns an array), and one
    init or a sequence with one per row; range checks and the physical-sum
    warning apply to every element.  Physically consistent inputs satisfy
    xi + theta_b + theta_c = 1; other combinations are accepted for what-if
    scans but trigger a warning since the in-range guarantee C <= 1 only
    holds on the physical set.
    """
    xi = _check_unit_range("xi", xi)
    theta_b = _check_unit_range("theta_b", theta_b)
    theta_c = _check_unit_range("theta_c", theta_c)
    total = xi + theta_b + theta_c
    off = np.abs(total - 1.0) > PHYSICAL_SUM_TOL
    if off.any():
        warnings.warn(f"xi + theta_b + theta_c = {np.extract(off, total)[0]:g} "
                      "differs from 1; treating inputs as a what-if scan", stacklevel=2)
    c = _init_kernel(init, xi, theta_b, theta_c)[2]
    return float(c) if c.ndim == 0 else c


def asymptotic_concurrence(init: SuperpositionInit,
                           theta_b: float, theta_c: float) -> float:
    """Long-time limit: the closed form with the central share xi = 0."""
    theta_b = _check_unit_range("theta_b", theta_b)
    theta_c = _check_unit_range("theta_c", theta_c)
    if theta_b + theta_c > 1.0 + 1e-9:
        raise ValueError("theta_b + theta_c must not exceed 1")
    return float(_init_kernel(init, 0.0, theta_b, theta_c)[2])


@dataclass(frozen=True, eq=False)
class ConcurrenceSeries:
    """Closed-form concurrence over a trajectory, with its ingredients."""

    times: np.ndarray
    xi: np.ndarray
    theta_b: np.ndarray
    theta_c: np.ndarray
    d_b: np.ndarray
    d_c: np.ndarray
    c_closed: np.ndarray


def _require_bipartition(partition, n_bath: int) -> None:
    """Raise unless partition splits the whole bath of n_bath modes in two."""
    if partition is None or not partition.is_bipartition_of(n_bath):
        raise ValueError("partition must split the full bath into exactly two blocks")


def concurrence_series(profile: ExcitationProfile,
                       init: SuperpositionInit) -> ConcurrenceSeries:
    """Closed-form concurrence per sample from the excitation profile of a
    bipartition of the whole bath."""
    _require_bipartition(profile.partition, profile.n_bath)
    theta_b, theta_c = profile.theta_blocks
    d_b, d_c, c = _init_kernel(init, profile.xi, theta_b, theta_c)
    return ConcurrenceSeries(profile.times, profile.xi, theta_b, theta_c, d_b, d_c, c)
