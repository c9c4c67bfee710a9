"""Amplitude dynamics of the coupled system.

The state vector u = (f, g_1, ..., g_N) obeys i du/dt = A u with a real
symmetric arrowhead generator A.  Two independent solvers are provided: a
spectral propagator (normal modes from the secular equation, exact unitary
evolution in chunks of time rows) and a fixed-step classical RK4 integrator
(O(N) arrowhead product) to cross-check it.

Only the slowly varying amplitudes are stored; the pure phase prefactors
exp(-i*omega0*t) / exp(-i*omega_k*t) of the lab-frame coherent amplitudes
cancel in every observable built here and are left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import BathGrid, _readonly

__all__ = [
    "IntegrationFailure", "AmplitudeTrajectory", "SpectralSolution", "build_generator",
    "spectral_solution", "evolve_exact", "evolve_rk4", "norm_residual",
    "gershgorin_bound", "RK4_NORM_LIMIT",
]

# norm drift beyond this flags the fixed-step integration as failed
RK4_NORM_LIMIT = 1e-4
# each real (rows, N+1) array of a spectral chunk, and each complex one of a share
# chunk, takes about this many bytes
_CHUNK_BYTES = 2 ** 21
# exp(-i lam t) is evaluated directly on every this-many-th row of a chunk
_PHASE_ANCHOR = 16
# a sample interval that needs more Gauss-Legendre nodes than this is not integrated;
# its end row takes the V product instead
_MAX_NODES = 16


class IntegrationFailure(RuntimeError):
    """Fixed-step integration lost norm beyond the accepted tolerance."""


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Sampled amplitude vectors u(t) = (f(t), g_1(t), ..., g_N(t)).

    method is "exact" (spectral) or "rk4".
    """

    times: np.ndarray
    states: np.ndarray
    method: str

    def __post_init__(self):
        times = _readonly(np.asarray(self.times, dtype=float).view())  # views, no copy
        states = _readonly(np.asarray(self.states, dtype=complex).view())
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)
        if times.ndim != 1 or times.size == 0:
            raise ValueError("times must be a non-empty 1-d array")
        if states.ndim != 2 or states.shape[0] != times.size:
            raise ValueError("states must be (n_times, n_modes+1)")

    @property
    def n_bath(self) -> int:
        return self.states.shape[1] - 1

    @property
    def f(self) -> np.ndarray:
        """Central-oscillator amplitude series."""
        return self.states[:, 0]

    @property
    def g(self) -> np.ndarray:
        """Bath amplitude series, column k-1 for mode k."""
        return self.states[:, 1:]

    def share_chunks(self):
        """|u|^2 of the whole state as one chunk (rows, u2), as SpectralSolution.share_chunks."""
        re, im = self.states.real, self.states.imag
        yield slice(None), re * re + im * im


def _row_blocks(n_rows: int, n_cols: int):
    """Row slices whose real (rows, n_cols) blocks fit in _CHUNK_BYTES."""
    step = max(1, _CHUNK_BYTES // (8 * n_cols))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _phase_rows(times: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """exp(i freq t), one row per time.

    cos and sin of t freq give every _PHASE_ANCHOR-th row and each row whose
    increment t_n - t_{n-1} occurs once among times; every other row is the
    previous one times exp(i freq (t_n - t_{n-1})), from one exp row per
    repeated increment."""
    k = _PHASE_ANCHOR
    steps, which, counts = np.unique(np.diff(times), return_inverse=True, return_counts=True)
    direct = np.arange(times.size) % k == 0
    direct[1:] |= counts[which] == 1
    rows = np.flatnonzero(direct)
    angles = np.outer(times[rows], freq)
    block = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=block.real)
    np.sin(angles, out=block.imag)
    if rows.size == times.size:
        return block
    phases = np.empty((times.size, freq.size), dtype=complex)
    phases[::k] = block[rows % k == 0]
    repeated = counts > 1
    turns = np.exp(1j * np.outer(steps[repeated], freq))
    slot = (np.cumsum(repeated) - 1)[which]  # any slot for a once-only increment
    for j in range(1, min(k, times.size)):  # rows j, j + k, ... from rows j - 1, j - 1 + k, ...
        turn = turns[slot[j - 1::k]]
        np.multiply(phases[j - 1::k][:len(turn)], turn, out=phases[j::k])
        again = rows % k == j  # direct rows among them
        phases[rows[again]] = block[again]
    return phases


def _scaled_phases(times: np.ndarray, lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Real and imaginary parts of exp(-i lam t) c, stacked as (2, times, lam):
    (cos c_r + sin c_i) + i (cos c_i - sin c_r), with cos + i sin = exp(i lam t)
    from _phase_rows."""
    phases = _phase_rows(times, lam)
    # c enters after the recurrence by separate real products, so scaling u0 by a power
    # of two scales the result exactly; no temporaries
    cos, sin = phases.real, phases.imag
    c_r, c_i = np.ascontiguousarray(c.real), np.ascontiguousarray(c.imag)
    parts = np.empty((2, *phases.shape))
    re, im = parts
    np.multiply(cos, c_r, out=re)
    re += np.multiply(sin, c_i, out=im)
    np.multiply(cos, c_i, out=im)
    im -= np.multiply(sin, c_r, out=sin)
    return parts


def _node_counts(reach: np.ndarray) -> np.ndarray:
    """Gauss-Legendre nodes that integrate exp(i omega s) over [0, h] to within
    eps h whenever |omega| h <= reach, from the remainder
    h (omega h)^2m (m!)^4 / ((2m + 1) ((2m)!)^3) of the m-node rule;
    0 where more than _MAX_NODES would be needed."""
    m = np.arange(1, _MAX_NODES + 1)
    log_rest = np.array([4 * math.lgamma(k + 1) - math.log(2 * k + 1) - 3 * math.lgamma(2 * k + 1)
                         for k in m])
    with np.errstate(divide="ignore"):  # reach 0 needs one node
        enough = log_rest + 2 * m * np.log(reach)[:, None] < math.log(np.finfo(float).eps)
    return np.where(enough.any(axis=1), enough.argmax(axis=1) + 1, 0)


def _legendre(x: np.ndarray, m: int):
    """P_m(x) and its derivative, by the three-term recurrence."""
    p, q = np.ones_like(x), x
    for n in range(1, m):
        p, q = q, ((2 * n + 1) * x * q - n * p) / (n + 1)
    return q, m * (p - x * q) / ((1.0 - x) * (1.0 + x))


def _interval_nodes(h: float, m: int):
    """The m Gauss-Legendre nodes in [0, h] and their weights: the roots of P_m
    from its Jacobi matrix, one Newton step, weights 2 / ((1 - x^2) P_m'(x)^2).
    (numpy.polynomial.legendre.leggauss would import a package that adds about
    2 MB to the resident size of a process that otherwise never loads it.)"""
    k = np.arange(1.0, m)
    x = np.linalg.eigvalsh(np.diag(k / np.sqrt(4.0 * k * k - 1.0), -1))
    p, slope = _legendre(x, m)
    x -= p / slope
    slope = _legendre(x, m)[1]
    return 0.5 * h * (x + 1.0), h / ((1.0 - x) * (1.0 + x) * slope * slope)


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """u(t) = V exp(-i Lambda t) c with c = V^T u(0) at `times`, from one
    eigendecomposition A = V diag(lam) V^T, lam ascending, of the arrowhead with
    couplings gamma and bath diagonal diag.  `chunks` evaluates blocks of time
    rows and `share_chunks` their |u|^2; only evolve_exact keeps the full
    T x (N+1) state."""

    times: np.ndarray
    lam: np.ndarray
    vec: np.ndarray
    coeff: np.ndarray
    gamma: np.ndarray
    diag: np.ndarray

    @property
    def n_bath(self) -> int:
        return self.lam.size - 1

    def chunks(self):
        """Yield (rows, re, im): real and imaginary parts of u(times[rows]),
        from two real products with V^T per chunk."""
        for rows in _row_blocks(self.times.size, self.lam.size):
            re, im = _scaled_phases(self.times[rows], self.lam, self.coeff)
            re, im = re @ self.vec.T, im @ self.vec.T  # drops the phase buffers
            yield rows, re, im

    def trajectory(self) -> AmplitudeTrajectory:
        """The materialised T x (N+1) state."""
        states = np.empty((self.times.size, self.lam.size), dtype=complex)
        for rows, re, im in self.chunks():
            states[rows].real, states[rows].imag = re, im
        return AmplitudeTrajectory(self.times, states, "exact")

    def share_chunks(self):
        """Yield (rows, u2): |u(times[rows])|^2, O(N m) per row between anchor rows.

        The first row of each chunk is an anchor, from the V product, and so is
        every row whose increment t_n - t_{n-1} occurs once in its chunk or needs
        more than _MAX_NODES nodes.  Any other row follows from the row before
        by the Duhamel integral of f(s) = sum_j w_j exp(-i lam_j s), by
        Gauss-Legendre nodes: with h = t_n - t_{n-1},
        g_k(t_n) = exp(-i d_k h) [g_k(t_{n-1}) - i gamma_k int_0^h exp(i d_k s)
        f(t_{n-1} + s) ds]."""
        lam, gamma, diag, times = self.lam, self.gamma, self.diag, self.times
        w = self.vec[0] * self.coeff  # f(t) = sum_j w_j exp(-i lam_j t)
        steps, which = np.unique(np.diff(times), return_inverse=True)
        nodes = _node_counts(steps * max(diag.max() - lam[0], lam[-1] - diag.min()))
        # increment -> (w exp(-i lam x) at the nodes x and at h, the weighted
        # -i gamma_k exp(i d_k x) of the nodes, exp(-i d h)), built once for the grid
        rules = {}
        for rows in _row_blocks(times.size, 2 * lam.size):  # complex (rows, N+1) blocks
            t = times[rows]
            step = which[rows.start:rows.start + t.size - 1]  # increment into rows 1, 2, ...
            integrable = (np.bincount(step, minlength=steps.size) > 1) & (nodes > 0)
            integrated = np.zeros(t.size, dtype=bool)
            integrated[1:] = integrable[step]
            later, anchors = np.flatnonzero(integrated), np.flatnonzero(~integrated)
            parts = _scaled_phases(t[anchors], lam, self.coeff)
            re, im = (parts.reshape(-1, lam.size) @ self.vec.T).reshape(parts.shape)  # one V pass
            u2 = np.empty((t.size, lam.size))
            if later.size:
                phases = _phase_rows(t, -lam)  # exp(-i lam t)
                sums = []  # f at the nodes and the end of each interval, by increment
                for s in np.flatnonzero(integrable):
                    if s not in rules:
                        h = steps[s]
                        x, q = _interval_nodes(h, nodes[s])
                        rules[s] = (w[:, None] * np.exp(-1j * np.outer(lam, np.append(x, h))),
                                    -1j * gamma * (q[:, None] * np.exp(1j * np.outer(x, diag))),
                                    np.exp(-1j * h * diag))
                    into = later[step[later - 1] == s]
                    sums.append((into, phases[into - 1] @ rules[s][0], rules[s][1]))
                del phases
                g = np.empty((t.size, gamma.size), dtype=complex)
                g[anchors] = re[:, 1:] + 1j * im[:, 1:]
                for into, f, quad in sums:  # -i gamma_k times the integrals
                    u2[into, 0] = f[:, -1].real ** 2 + f[:, -1].imag ** 2
                    g[into] = f[:, :-1] @ quad
                for n in later:
                    g[n] += g[n - 1]
                    g[n] *= rules[step[n - 1]][2]
                pairs = g.view(float)
                np.square(pairs, out=pairs)
                np.add(pairs[:, ::2], pairs[:, 1::2], out=u2[:, 1:])
                del g, pairs
            u2[anchors] = re * re + im * im
            yield rows, u2


def build_generator(grid: BathGrid) -> np.ndarray:
    """Dense real symmetric generator of i du/dt = A u.

    First row/column carry the couplings gamma_k, the bath diagonal holds
    -2*delta_k, and A[0, 0] = 0.
    """
    n = grid.n + 1
    a = np.zeros((n, n))
    a[0, 1:] = grid.couplings
    a[1:, 0] = grid.couplings
    a[np.arange(1, n), np.arange(1, n)] = -2.0 * grid.detunings
    return _readonly(a)


def gershgorin_bound(gen: np.ndarray) -> float:
    """Upper bound on the spectral radius (row sums of absolute values)."""
    a = np.asarray(gen, dtype=float)
    return float(np.max(np.sum(np.abs(a), axis=1)))


def _read_arrow(gen, symmetric: bool) -> tuple:
    """(a00, row, col, diag) of an arrowhead generator; symmetric requires row == col."""
    a = np.asarray(gen, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1] or a.shape[0] < 2:
        raise ValueError("generator must be a square matrix of dimension >= 2")
    arrow = (float(a[0, 0]), a[0, 1:].copy(), a[1:, 0].copy(), np.diagonal(a)[1:].copy())
    if np.count_nonzero(a[1:, 1:]) != np.count_nonzero(arrow[3]):
        raise ValueError("generator is not an arrowhead (nonzero entry off the arrow)")
    if symmetric and not np.array_equal(arrow[1], arrow[2]):
        raise ValueError("generator is not symmetric; refusing to eigendecompose")
    return arrow


def _secular_sums(poles, gamma2, origin, tau):
    """sum_k gamma_k^2 / (d_k - lam)^p, p = 1, 2, at lam = origin + tau."""
    sums = np.empty((2, tau.size))
    for rows in _row_blocks(tau.size, poles.size):
        q = poles - origin[rows, None]  # d_k - lam, accurate near origin
        q -= tau[rows, None]
        np.reciprocal(q, out=q)
        sums[0, rows] = q @ gamma2
        sums[1, rows] = np.square(q, out=q) @ gamma2
    return sums


def _arrowhead_eigh(a00: float, gamma: np.ndarray, diag: np.ndarray):
    """Ascending eigenvalues lam_j and eigenvectors (rows) v_0j (1, gamma_k / (lam_j - d_k))
    of the symmetric arrowhead [[a00, gamma^T], [gamma, diag]].  lam_j, a root of
    F = lam - a00 + sum_k gamma_k^2 / (d_k - lam), is held as its nearer pole plus tau and
    found by safeguarded Newton steps on F tau (tau - delta), free of both bracketing
    poles (delta: the other one, infinite at the ends)."""
    order = np.argsort(diag, kind="stable")
    d, g = diag[order], gamma[order]
    if np.any(np.diff(d) == 0):
        raise ValueError("two equal bath diagonal entries; the arrowhead is degenerate")
    if np.any(g == 0):
        raise ValueError("a zero coupling decouples a bath mode; the arrowhead is degenerate")
    n, g2 = d.size, g * g
    reach = 2.0 * math.sqrt(float(g2.sum()))
    # root j lies between left[j] and right[j]: its poles, or an open outer bound
    left = np.concatenate(([min(d[0], a00) - reach], d))
    right = np.concatenate((d, [max(d[-1], a00) + reach]))
    # an inner root is held from its left pole iff F(midpoint) >= 0, an outer one from its pole
    half = 0.5 * (right - left)
    from_left = (left - a00) + half + _secular_sums(d, g2, left, half)[0] >= 0
    from_left[[0, n]], half[[0, n]] = (False, True), 2.0 * half[[0, n]]
    origin = np.where(from_left, left, right)
    lo, hi = np.where(from_left, 0.0, -half), np.where(from_left, half, 0.0)
    other = np.where(from_left, right - left, left - right)
    other[[0, n]] = -math.inf, math.inf

    tau, active = 0.5 * (lo + hi), np.arange(n + 1)
    for _ in range(100):  # about 7 passes leave under 1% of the roots active
        if active.size == 0:
            break
        t, base = tau[active], origin[active]
        s1, s2 = _secular_sums(d, g2, base, t)
        f = (base - a00) + t + s1
        below = f < 0  # F increases with tau
        lo[active[below]], hi[active[~below]] = t[below], t[~below]
        step = -f / ((1.0 + s2) + f / t + f / (t - other[active]))
        new, a_lo, a_hi = t + step, lo[active], hi[active]
        # keep a converged step (F = 0 steps by 0), land one past hi on it (F >= 0 there
        # unless hi is the pole tau = 0), bisect any other leaving the bracket
        converged = np.abs(step) <= 2.0 * np.finfo(float).eps * np.abs(t)
        past_hi = (new >= a_hi) & (a_hi != 0)
        new[past_hi] = a_hi[past_hi]
        bisect = ~(converged | past_hi | ((new > a_lo) & (new < a_hi)))
        new[bisect] = 0.5 * (a_lo + a_hi)[bisect]
        tau[active] = new
        active = active[~(converged | (np.nextafter(a_lo, a_hi) >= a_hi))]
    else:
        raise RuntimeError(f"secular equation: {active.size} roots did not converge")

    # in place and in the generator's column order: v_0j gamma_k / (lam_j - d_k)
    vecs = np.empty((n + 1, n + 1))
    q = np.subtract(diag, origin[:, None], out=vecs[:, 1:])
    q -= tau[:, None]
    np.divide(gamma, q, out=q)
    vecs[:, 0] = 1.0 / np.sqrt(1.0 + np.einsum("ij,ij->i", q, q))
    q *= -vecs[:, :1]
    return origin + tau, vecs


def _initial_state(n: int, u0) -> np.ndarray:
    if u0 is None:
        u = np.zeros(n, dtype=complex)
        u[0] = 1.0
        return u
    u = np.array(u0, dtype=complex)
    if u.shape != (n,):
        raise ValueError(f"u0 must have length {n}")
    return u


def spectral_solution(gen: np.ndarray, times, u0=None) -> SpectralSolution:
    """One eigendecomposition of the symmetric arrowhead gen, sampled at times;
    raises ValueError for a degenerate or non-arrowhead gen."""
    a00, row, _, diag = _read_arrow(gen, symmetric=True)
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0:
        raise ValueError("times must start at t >= 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    lam, vecs = _arrowhead_eigh(a00, row, diag)
    u = _initial_state(lam.size, u0)
    return SpectralSolution(times, lam, vecs.T, vecs @ u.real + 1j * (vecs @ u.imag), row, diag)


def evolve_exact(gen: np.ndarray, times, u0=None) -> AmplitudeTrajectory:
    """Unitary evolution u(t) = V exp(-i Lambda t) V^T u(0): the materialised
    state of spectral_solution(gen, times, u0).  Norm is conserved to roundoff."""
    return spectral_solution(gen, times, u0).trajectory()


def _rk4_rhs(arrow: tuple, u: np.ndarray) -> np.ndarray:
    a00, row, col, diag = arrow
    return -1j * np.concatenate(([a00 * u[0] + row @ u[1:]], col * u[0] + diag * u[1:]))


def _rk4_step(arrow: tuple, u: np.ndarray, dt: float) -> np.ndarray:
    k1 = _rk4_rhs(arrow, u)
    k2 = _rk4_rhs(arrow, u + (0.5 * dt) * k1)
    k3 = _rk4_rhs(arrow, u + (0.5 * dt) * k2)
    k4 = _rk4_rhs(arrow, u + dt * k3)
    return u + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def evolve_rk4(gen: np.ndarray, t_end: float, dt: float,
               sample_every: int = 1, u0=None) -> AmplitudeTrajectory:
    """Classical fixed-step RK4 integration of du/dt = -iAu, O(N) per stage.

    gen must be an arrowhead matrix; its first row and column apply as given.
    Steps dt until t >= t_end; samples every sample_every steps plus the
    final step.  Stability guideline: dt <= 0.05 / gershgorin_bound(gen).
    Raises IntegrationFailure once the sampled norm drifts from its initial
    value by more than RK4_NORM_LIMIT.
    """
    arrow = _read_arrow(gen, symmetric=False)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    n_steps = 0 if t_end == 0 else int(math.ceil(t_end / dt - 1e-9))
    u = _initial_state(arrow[1].size + 1, u0)
    norm0 = float(np.sum(np.abs(u) ** 2))
    sample_times = [0.0]
    samples = [u.copy()]
    for step in range(1, n_steps + 1):
        u = _rk4_step(arrow, u, dt)
        if step % sample_every == 0 or step == n_steps:
            drift = abs(norm0 - float(np.sum(np.abs(u) ** 2)))
            if drift > RK4_NORM_LIMIT:
                raise IntegrationFailure(
                    f"norm drift {drift:.3e} at t={step * dt:g} exceeds {RK4_NORM_LIMIT:g}; "
                    f"reduce dt (guideline dt <= {0.05 / gershgorin_bound(gen):.3g})")
            sample_times.append(step * dt)
            samples.append(u.copy())
    return AmplitudeTrajectory(np.array(sample_times), np.array(samples), "rk4")


def norm_residual(traj: AmplitudeTrajectory) -> float:
    """max_t |1 - sum_i |u_i(t)|^2| over the sampled trajectory."""
    norms = np.sum(np.abs(traj.states) ** 2, axis=1)
    return float(np.max(np.abs(1.0 - norms)))
