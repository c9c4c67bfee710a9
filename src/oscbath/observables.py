"""Excitation shares, per-partition sums and the per-block overlap identity."""

from __future__ import annotations

import weakref
from dataclasses import dataclass, replace

import numpy as np

from .model import PartitionSpec, SuperpositionInit, _readonly
from .propagation import SpectralSolution

__all__ = ["ExcitationProfile", "excitation_profile", "verify_overlap_factorization"]

# indicator columns per product: too few for OpenBLAS to thread it (and vary its sums)
_COLUMNS = 4
_PROFILES: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()  # solution -> {key: profile}
_KEPT = 8  # partitions a solution keeps, the oldest dropped first


@dataclass(frozen=True, eq=False)
class ExcitationProfile:
    """xi(t) = |f|^2, theta(t) = sum_k |g_k|^2 over the n_bath modes and,
    with a partition, one sum per block."""

    times: np.ndarray
    xi: np.ndarray
    theta: np.ndarray
    n_bath: int
    partition: PartitionSpec | None = None
    theta_blocks: np.ndarray | None = None

    def norm_residual(self) -> float:
        """max_t |1 - xi - theta|; the two are summed independently."""
        return float(np.abs(1.0 - self.xi - self.theta).max())


def _sized(partitions: list[PartitionSpec], n_bath: int) -> list[PartitionSpec]:
    """partitions; ValueError if one is of another bath size than n_bath."""
    for partition in partitions:
        if partition.member.size != n_bath:
            raise ValueError(f"partition of {partition.member.size} modes on a bath of {n_bath}")
    return partitions


def _excitation_profiles(source, partitions) -> list[ExcitationProfile]:
    """Excitation profiles of source for each partition (None: no blocks),
    from one pass over its share tiles.

    source is an AmplitudeTrajectory or a SpectralSolution.  The blocks of
    different partitions may overlap and a partition need not cover the
    bath, whose every mode enters theta; a partition of another bath size
    raises ValueError.  Each tile's squared real and imaginary parts of the g_k
    are added to theta and every block sum by products, _COLUMNS columns each,
    with its modes' rows of a 0/1 indicator that holds each mode's row twice.
    """
    given = _sized([p for p in partitions if p is not None], source.n_bath)
    # theta, then each block; mode k: rows 2k - 2 and 2k - 1
    indicator = np.repeat(np.column_stack([np.ones(source.n_bath), *(
        p.member[:, None] == np.arange(p.n_blocks) for p in given)]), 2, axis=0)
    shares = np.zeros((source.times.size, 1 + indicator.shape[1]))
    for rows, modes, xi, pairs in source.share_chunks():  # the panels of modes in order
        shares[rows, 0], panel = xi, indicator[2 * modes.start:2 * modes.stop]
        for c in range(0, panel.shape[1], _COLUMNS):
            shares[rows, 1 + c:1 + c + _COLUMNS] += pairs @ panel[:, c:c + _COLUMNS]
    xi, theta = _readonly(shares)[:, 0], shares[:, 1]
    sums = iter(np.split(shares[:, 2:].T, np.cumsum([p.n_blocks for p in given])[:-1]))
    return [ExcitationProfile(source.times, xi, theta, source.n_bath, partition,
                              None if partition is None else next(sums))
            for partition in partitions]


def excitation_profile(source, partition: PartitionSpec | None = None) -> ExcitationProfile:
    """Excitation shares of a trajectory or spectral solution, optionally per block; a solution
    keeps the shares of its last _KEPT partitions, by block count and member, not labels."""
    kept = _PROFILES.setdefault(source, {}) if isinstance(source, SpectralSolution) else {}
    key = None if partition is None else (partition.n_blocks, partition.member.tobytes())
    if key not in kept:  # kept without its partition, so with no labels
        kept[key] = replace(_excitation_profiles(source, [partition])[0], partition=None)
        if len(kept) > _KEPT:
            del kept[next(iter(kept))]
    return replace(kept[key], partition=partition)


def verify_overlap_factorization(source, init: SuperpositionInit,
                                 partition: PartitionSpec) -> float:
    """Residual of the per-block overlap identity.

    Multiplies the per-mode coherent overlaps of the two branch amplitudes lambda_k =
    alpha0*g_k and chi_k = beta0*g_k directly, and compares the product against
    <alpha0|beta0>^theta_block.  The comparison uses the stored log-overlap exponent, so the
    identity is exact for arbitrary complex amplitudes; returns the max absolute deviation
    over all samples and blocks, from running products and sums over the share tiles of a
    trajectory or a spectral solution.  A partition of another bath size raises ValueError.
    """
    _sized([partition], source.n_bath)
    w, product = init.log_overlap, np.ones((source.times.size, partition.n_blocks), complex)
    total = np.zeros(product.shape)
    for rows, modes, _, pairs in source.share_chunks():
        u2 = pairs[:, 0::2] + pairs[:, 1::2]  # |g_k|^2 of the modes 1 + modes
        for j in range(partition.n_blocks):
            shares = u2[:, partition.member[modes] == j]
            factors = w * shares  # exponentiated in place
            product[rows, j] *= np.prod(np.exp(factors, out=factors), axis=1)
            total[rows, j] += shares.sum(axis=1)
    return float(np.max(np.abs(product - np.exp(total * w)), initial=0.0))
