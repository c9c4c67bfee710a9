"""Independent concurrence pipeline via the Wootters spin-flip construction.

Two nonorthogonal branch states on each side of a bipartition span a qubit;
in the resulting orthonormal basis the state is an explicit 4x4 density
matrix.  Its Wootters concurrence C = max(0, l1 - l2 - l3 - l4) is computed
from the spectrum of R = sqrt(sqrt(rho) rho~ sqrt(rho)) and validates the
closed form to near machine precision.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .concurrence import _per_row, concurrence_closed_form
from .model import SuperpositionInit

__all__ = [
    "QubitEmbedding", "qubit_embedding", "build_density_matrix", "wootters_concurrence",
    "oracle_residuals", "crosscheck",
]

# sigma_y (x) sigma_y in the ordered basis (1 up, 1 down, 0 up, 0 down)
_SY = np.array([[0.0, -1j], [1j, 0.0]])
_SY2 = np.kron(_SY, _SY).real
# system and environment weight index (0: s_plus, 1: s_minus) of each
# basis state, and which of r, u, u*, v sits at each matrix entry
_SYS, _ENV = np.divmod(np.arange(4), 2)
_ENTRY = np.array([[0, 1, 1, 0], [2, 3, 3, 2], [2, 3, 3, 2], [0, 1, 1, 0]])
_ORACLE_ROWS = 1024  # oracle_residuals' rows at a time: O(1) memory in the rows; 64 ran slower


@dataclass(frozen=True)
class QubitEmbedding:
    """Orthonormal-basis weights for two branch states whose overlap is exp(z).

    s_plus/s_minus = sqrt((1 +- o)/2) with o = exp(Re z); phase = exp(i Im z)
    is the unit complex argument of the overlap.  Fields are scalars, or
    arrays for a stack of overlaps.
    """

    s_plus: float | np.ndarray
    s_minus: float | np.ndarray
    phase: complex | np.ndarray

    def __post_init__(self):
        sp, sm = np.asarray(self.s_plus), np.asarray(self.s_minus)
        if not np.all((sp >= sm) & (sm >= 0.0)):
            raise ValueError("embedding weights must satisfy s_plus >= s_minus >= 0")
        if np.any(np.abs(sp ** 2 + sm ** 2 - 1.0) > 1e-12):
            raise ValueError("embedding weights must satisfy s_plus^2 + s_minus^2 = 1")
        if np.any(np.abs(np.abs(self.phase) - 1.0) > 1e-12):
            raise ValueError("phase must be a unit complex number")


def qubit_embedding(exponent) -> QubitEmbedding:
    """Embedding weights and phase for a (reversed-order) branch overlap exp(z),
    or for each entry of an array of them, from its exponent z.

    Pass z of <second branch | first branch>, theta conj(w) for a block; its
    imaginary part fixes the relative phase of the basis states, and -inf is
    orthogonal branches.  s_minus takes 1 - o as -expm1(Re z), accurate as o -> 1.
    """
    z = np.asarray(exponent, dtype=complex)
    if np.any(z.real > 1e-12):
        raise ValueError(f"overlap magnitude exp({z.real.max()}) exceeds 1")
    r = np.minimum(z.real, 0.0)
    return QubitEmbedding(np.sqrt((1.0 + np.exp(r)) / 2.0)[()],
                          np.sqrt(-np.expm1(r) / 2.0)[()], np.exp(1j * z.imag)[()])


def build_density_matrix(weight, p, q, z, emb_sys: QubitEmbedding,
                         emb_env: QubitEmbedding) -> np.ndarray:
    """Assemble weight*(p|1><1| + q|2><2| + z|1><2| + z*|2><1|) in the
    embedded two-qubit basis as a read-only 4x4 matrix; array arguments give
    a (..., 4, 4) stack.

    Entry (i, j) is weight * s_a s_a' t_b t_b' * x_ij, where basis state i
    pairs system weight s_a with environment weight t_b, and x_ij is one of
    r = p + q + 2 Re z', u = q - p + 2i Im z', u* and v = p + q - 2 Re z',
    with z' = z times both embedding phases.  Traces differing from 1 by more than 1e-8 flag
    physically inconsistent parameters with a warning; raw parameter scans
    are still allowed.
    """
    weight, p, q = (np.asarray(v, dtype=float) for v in (weight, p, q))
    if np.any(weight <= 0) or np.any(p < 0) or np.any(q < 0):
        raise ValueError("weight must be positive and p, q nonnegative")
    z = np.asarray(z, dtype=complex)
    zp = z * emb_sys.phase * emb_env.phase
    r = p + q + 2.0 * zp.real
    u = -p + q + 2j * zp.imag
    v = p + q - 2.0 * zp.real
    x = np.stack(np.broadcast_arrays(r, u, u.conj(), v), axis=-1)[..., _ENTRY]
    s = np.stack([emb_sys.s_plus, emb_sys.s_minus], axis=-1)
    t = np.stack([emb_env.s_plus, emb_env.s_minus], axis=-1)
    lo, hi = np.minimum.outer(_ENV, _ENV), np.maximum.outer(_ENV, _ENV)
    coeff = s[..., _SYS[:, None]] * s[..., _SYS[None, :]] * t[..., lo] * t[..., hi]
    mat = weight[..., None, None] * (coeff * x)
    mat.flags.writeable = False
    trace = np.trace(mat, axis1=-2, axis2=-1).real
    off = np.abs(trace - 1.0) > 1e-8
    if off.any():
        warnings.warn(f"density matrix trace {np.extract(off, trace)[0]:.6g} differs "
                      "from 1; parameters are not a normalized physical state",
                      stacklevel=2)
    return mat


def _as_matrix(rho) -> np.ndarray:
    mat = np.asarray(rho, complex)
    if mat.shape[-2:] != (4, 4):
        raise ValueError("expected a 4x4 matrix or a stack of them")
    return mat


def wootters_concurrence(rho):
    """C = max(0, l1 - l2 - l3 - l4) with l_i the eigenvalues of
    R = sqrt(sqrt(rho) rho~ sqrt(rho)), in decreasing order.

    Takes one matrix (returns a float) or a (..., 4, 4) stack (returns an
    array); every check and the rank cutoff apply to each matrix on its
    own.  The l_i are evaluated as the singular values of
    sqrt(rho) (sigma_y x sigma_y) sqrt(rho)^T, an exact rewriting of the
    spectrum of R that stays accurate to roundoff where squaring into
    rho rho~ and re-rooting would lose half the digits.  Directions of rho
    below its numerical rank are discarded before the root.
    """
    mat = _as_matrix(rho)
    shape = mat.shape[:-2]
    mat = mat.reshape(-1, 4, 4)  # one matrix is a stack of one
    adjoint = mat.conj().swapaxes(-2, -1)
    scale = np.maximum(1.0, np.abs(mat).max(axis=(-2, -1), keepdims=True))
    if not np.all(np.abs(mat - adjoint) <= 1e-12 * scale):
        raise ValueError("density matrix must be Hermitian")
    ev, basis = np.linalg.eigh(mat)
    if (low := np.min(ev, initial=0.0)) < -1e-8:
        raise ValueError(f"density matrix eigenvalue {low:.3e} is significantly negative")
    ev = np.clip(ev, 0.0, None)
    ev[ev <= 1e-12 * ev.max(axis=-1, keepdims=True)] = 0.0
    root = (basis * np.sqrt(ev)[..., None, :]) @ basis.conj().swapaxes(-2, -1)
    flip_kernel = root @ _SY2 @ root.swapaxes(-2, -1)
    l = np.linalg.svd(flip_kernel, compute_uv=False)
    c = np.maximum(0.0, l[:, 0] - l[:, 1] - l[:, 2] - l[:, 3]).reshape(shape)
    return float(c) if c.ndim == 0 else c


def oracle_residuals(init, xi, theta_b, theta_c) -> np.ndarray:
    """|closed-form C - spin-flip numeric C| per set of excitation shares.

    init is one SuperpositionInit, or a sequence with one per row.  Clips the
    shares to [0, 1] (roundoff can push them past by up to the norm drift),
    embeds the block overlaps by their exponents theta conj(w) and builds the
    branch factor from the stored log-overlap w, runs the stacked numeric
    pipeline (density matrix, spin flip, spectrum) by tiles of _ORACLE_ROWS
    rows, and compares against the closed form.
    """
    xi, theta_b, theta_c = (np.clip(np.atleast_1d(np.asarray(v, dtype=float)), 0.0, 1.0)
                            for v in (xi, theta_b, theta_c))
    weight, p, q, ab, wc = _per_row(
        init, lambda i: i.norm_const ** 2, lambda i: abs(i.a) ** 2, lambda i: abs(i.b) ** 2,
        lambda i: i.a * i.b.conjugate(), lambda i: i.log_overlap.conjugate())
    terms = np.broadcast_arrays(weight, p, q, ab, wc, xi, theta_b, theta_c)
    numeric = np.empty(terms[0].shape)
    for rows in (slice(lo, lo + _ORACLE_ROWS) for lo in range(0, len(numeric), _ORACLE_ROWS)):
        weight, p, q, ab, wc, x, b, c = (term[rows] for term in terms)
        numeric[rows] = wootters_concurrence(build_density_matrix(
            weight, p, q, ab * np.exp(x * wc), qubit_embedding(b * wc), qubit_embedding(c * wc)))
    return np.abs(numeric - concurrence_closed_form(init, xi, theta_b, theta_c))


def crosscheck(init: SuperpositionInit, xi: float,
               theta_b: float, theta_c: float) -> float:
    """oracle_residuals for one set of excitation shares, as a float."""
    return float(oracle_residuals(init, xi, theta_b, theta_c)[0])
