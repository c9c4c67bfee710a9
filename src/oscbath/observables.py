"""Excitation shares, per-partition sums and the per-block overlap identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PartitionSpec, SuperpositionInit
from .propagation import AmplitudeTrajectory

__all__ = ["ExcitationProfile", "excitation_profile", "verify_overlap_factorization"]


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


def _excitation_profiles(source, partitions) -> list[ExcitationProfile]:
    """Excitation profiles of source for each partition (None: no blocks),
    from one pass over its share chunks.

    source is an AmplitudeTrajectory or a SpectralSolution.  The blocks of
    different partitions may overlap and a partition need not cover the
    bath, whose every mode enters theta.  Each chunk's squared real and
    imaginary parts of the g_k are reduced to theta and every block sum by one
    product with a 0/1 indicator that holds each mode's row twice; xi is |f|^2.
    """
    blocks = []
    for partition in partitions:
        if partition is not None:
            partition.validate_range(source.n_bath)
            blocks.extend(partition.blocks)
    indicator = np.zeros((source.n_bath + 1, 1 + len(blocks)))  # theta, then each block
    indicator[:, 0] = 1.0
    for j, block in enumerate(blocks):
        indicator[list(block), 1 + j] = 1.0
    indicator = np.repeat(indicator[1:], 2, axis=0)  # mode k: rows 2k - 2 and 2k - 1
    shares = np.empty((source.times.size, 1 + indicator.shape[1]))
    for rows, xi, pairs in source.share_chunks():
        shares[rows, 0] = xi
        shares[rows, 1:] = pairs @ indicator
    xi, theta, sums = shares[:, 0], shares[:, 1], shares[:, 2:].T
    profiles, at = [], 0
    for partition in partitions:
        size = 0 if partition is None else partition.n_blocks
        profiles.append(ExcitationProfile(source.times, xi, theta, source.n_bath, partition,
                                          None if partition is None else sums[at:at + size]))
        at += size
    return profiles


def excitation_profile(source, partition: PartitionSpec | None = None) -> ExcitationProfile:
    """Excitation shares of a trajectory or spectral solution, optionally per block."""
    return _excitation_profiles(source, [partition])[0]


def verify_overlap_factorization(traj: AmplitudeTrajectory, init: SuperpositionInit,
                                 partition: PartitionSpec) -> float:
    """Residual of the per-block overlap identity.

    Multiplies the per-mode coherent overlaps of the two branch amplitudes
    lambda_k = alpha0*g_k and chi_k = beta0*g_k directly, and compares the
    product against <alpha0|beta0>^theta_block.  The comparison uses the
    stored log-overlap exponent, so the identity is exact for arbitrary
    complex amplitudes; returns the max absolute deviation over all samples
    and blocks.
    """
    w = init.log_overlap
    re, im = traj.states.real, traj.states.imag
    u2 = re * re + im * im  # 1-based mode k is column k
    worst = 0.0
    for block in partition.blocks:
        shares = u2[:, list(block)]
        factors = w * shares  # exponentiated in place: one complex block at a time
        product = np.prod(np.exp(factors, out=factors), axis=1)
        worst = max(worst, float(np.max(np.abs(product - np.exp(shares.sum(axis=1) * w)))))
    return worst
