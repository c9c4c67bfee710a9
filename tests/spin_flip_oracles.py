"""Spin-flip oracles of the Wootters construction, for the tests.

The spin-flipped matrix rho~ = (sigma_y x sigma_y) rho* (sigma_y x sigma_y)
and the spectrum of rho rho~, by a general eigensolver and in the factored
form of the two-branch state.  wootters_concurrence never forms either; the
tests check it, and the closed form, against them.
"""

import math

import numpy as np

from oscbath.wootters import _SY2, QubitEmbedding, _as_matrix


def spin_flip(rho) -> np.ndarray:
    """(sigma_y x sigma_y) rho* (sigma_y x sigma_y) in the embedded basis."""
    mat = _as_matrix(rho)
    return _SY2 @ mat.conj() @ _SY2


def product_eigenvalues(rho) -> np.ndarray:
    """Eigenvalues of rho @ spin_flip(rho), descending, via a general solver.

    Roundoff makes the two rank-deficient eigenvalues come out as noise of
    order eps, so square roots of these are only good to ~1e-8; use
    wootters_concurrence for full-precision concurrences.  Raises when an
    eigenvalue has imaginary part above 1e-8 or real part below -1e-8
    (malformed input); smaller negatives are clipped to zero.
    """
    mat = _as_matrix(rho)
    m = np.linalg.eigvals(mat @ spin_flip(mat))
    if np.abs(m.imag).max() > 1e-8:
        raise ValueError("product spectrum is not real; input is not a valid density matrix")
    m = m.real
    if m.min() < -1e-8:
        raise ValueError(f"product eigenvalue {m.min():.3e} is significantly negative")
    return np.sort(np.clip(m, 0.0, None))[..., ::-1]


def factored_product_eigenvalues(weight: float, p: float, q: float, z: complex,
                                 emb_sys: QubitEmbedding,
                                 emb_env: QubitEmbedding) -> tuple[float, float]:
    """The two nonzero eigenvalues of rho @ spin_flip(rho) in factored form:

    m1 = 16 w^2 (s+ s- s+' s-')^2 (|z| - sqrt(pq))^2 and m2 likewise with
    (|z| + sqrt(pq))^2; the other two eigenvalues vanish identically.
    """
    scale = 16.0 * weight ** 2 * (emb_sys.s_plus * emb_sys.s_minus
                                  * emb_env.s_plus * emb_env.s_minus) ** 2
    root_pq = math.sqrt(p * q)
    return (scale * (abs(z) - root_pq) ** 2,
            scale * (abs(z) + root_pq) ** 2)
