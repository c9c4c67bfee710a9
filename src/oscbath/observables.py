"""Excitation shares, per-partition sums and the per-block overlap identity."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import PartitionSpec, SuperpositionInit
from .propagation import AmplitudeTrajectory

__all__ = ["ExcitationProfile", "excitation_profile", "verify_overlap_factorization"]


@dataclass(frozen=True, eq=False)
class ExcitationProfile:
    """xi(t) = |f|^2, theta(t) = sum_k |g_k|^2 and optional per-block sums."""

    times: np.ndarray
    xi: np.ndarray
    theta: np.ndarray
    theta_blocks: np.ndarray | None = None
    block_labels: tuple[str, ...] | None = None


def _block_columns(partition: PartitionSpec, n_bath: int) -> list[np.ndarray]:
    partition.validate_range(n_bath)
    # 1-based mode k lives in column k-1 of the bath block
    return [np.array(blk, dtype=int) - 1 for blk in partition.blocks]


def excitation_profile(traj: AmplitudeTrajectory,
                       partition: PartitionSpec | None = None) -> ExcitationProfile:
    """Squared-magnitude excitation shares, optionally summed per block."""
    xi = np.abs(traj.f) ** 2
    g2 = np.abs(traj.g) ** 2
    theta = g2.sum(axis=1)
    blocks = None
    labels = None
    if partition is not None:
        cols = _block_columns(partition, traj.n_bath)
        blocks = np.stack([g2[:, c].sum(axis=1) if c.size else np.zeros(len(traj.times))
                           for c in cols])
        labels = partition.labels
    return ExcitationProfile(traj.times, xi, theta, blocks, labels)


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
    g2 = np.abs(traj.g) ** 2
    worst = 0.0
    for cols in _block_columns(partition, traj.n_bath):
        if cols.size:
            product = np.prod(np.exp(w * g2[:, cols]), axis=1)
            theta_p = g2[:, cols].sum(axis=1)
        else:
            product = np.ones(len(traj.times), dtype=complex)
            theta_p = np.zeros(len(traj.times))
        powered = np.exp(theta_p * w)
        worst = max(worst, float(np.max(np.abs(product - powered))))
    return worst
