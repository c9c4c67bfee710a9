"""Amplitude dynamics of the coupled system.

The state vector u = (f, g_1, ..., g_N) obeys i du/dt = A u from u(0) = e_0 with a real
symmetric arrowhead generator A, held as its arrow (Arrowhead).  Two independent solvers
are provided: a spectral propagator (normal modes from the secular equation, exact unitary
evolution in chunks of time rows) and a fixed-step classical RK4 integrator to cross-check
it.  For du/dt = Zu, Z = -i dt A, its step u + sum_{k<=4} Z^k u / k! is built once from the
arrow as u plus a diagonal and a rank-5 map, q u + (M L u) R with L and R 5 x (N+1), and a
block of k steps as u plus a diagonal and a rank-5k map.  Neither solver forms an (N+1)^2
array: the eigenvectors enter through their closed form v_kj = gamma_k v_0j / (lam_j - d_k),
one panel of modes k at a time.

Only the slowly varying amplitudes are stored; the pure phase prefactors
exp(-i*omega0*t) / exp(-i*omega_k*t) of the lab-frame coherent amplitudes
cancel in every observable built here and are left to the caller.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import NamedTuple

import numpy as np

from .model import BathGrid, _readonly

__all__ = [
    "IntegrationFailure", "AmplitudeTrajectory", "Arrowhead", "SpectralSolution",
    "build_generator", "spectral_solution", "evolve_exact", "evolve_rk4", "norm_residual",
    "gershgorin_bound", "RK4_NORM_LIMIT",
]

# norm drift beyond this flags the fixed-step integration as failed
RK4_NORM_LIMIT = 1e-4
# each real (rows, N+1) array of a spectral chunk takes about this many bytes, and a share
# chunk's complex (rows, N+1) amplitudes and phase table together
_CHUNK_BYTES = 2 ** 21
# a Cauchy chunk takes at least this many time rows: fewer run slower (BENCH_cauchy_panels.json)
_PANEL_ROWS = 256
# a sample interval that needs more Gauss-Legendre nodes than this is not integrated;
# its end row is an anchor instead
_MAX_NODES = 16
# a row takes the spacing h, and stays in the stretch started at row o, while its
# increment and time stay within this many ulp of max|t| of h and t_o + (n - o) h
_SLACK = 4
# on a comb the secular sums take the _NEAR poles on each side of a root's pole exactly and
# the rest from _MOMENTS + 1 Taylor moments (truncated at (_NEAR + 1)^-(_MOMENTS + 1) of the
# first); d is a comb while it stays within _COMB_ULP ulp of max|d| of d_0 + k step
_NEAR = 64
_MOMENTS = 10
_COMB_ULP = 8
# each real block of a near field, or stack of an RK4 block, takes about this many bytes,
# which stays in cache: in blocks of _CHUNK_BYTES the solver took 1.5 times as long at N = 1000
_NEAR_BYTES = 2 ** 18


class IntegrationFailure(RuntimeError):
    """Fixed-step integration lost norm beyond the accepted tolerance."""


@dataclass(frozen=True, eq=False)
class AmplitudeTrajectory:
    """Sampled amplitude vectors u(t) = (f(t), g_1(t), ..., g_N(t))."""

    times: np.ndarray
    states: np.ndarray

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

    def share_chunks(self):
        """The whole state as one chunk (rows, xi, pairs), as SpectralSolution.share_chunks."""
        parts = self.states.view(float)
        yield slice(None), parts[:, 0] ** 2 + parts[:, 1] ** 2, np.square(parts[:, 2:])


class Arrowhead(NamedTuple):
    """The generator A of i du/dt = A u as its arrow: A[0, 0] = a00, first row
    `row`, first column `col` and bath diagonal `diag`; every other entry is 0."""

    a00: float
    row: np.ndarray
    col: np.ndarray
    diag: np.ndarray

    @property
    def nbytes(self) -> int:
        """Bytes held: a00 and the three length-N arrays."""
        return 8 + self.row.nbytes + self.col.nbytes + self.diag.nbytes


def _arrow(gen) -> Arrowhead:
    if not isinstance(gen, Arrowhead):
        raise ValueError("generator is not an arrowhead: build it with build_generator, "
                         "not as a matrix")
    return gen


def _row_blocks(n_rows: int, n_cols: int, size: int | None = None):
    """Row slices whose real (rows, n_cols) blocks fit in size bytes, or _CHUNK_BYTES."""
    step = max(1, (size or _CHUNK_BYTES) // (8 * n_cols))
    return (slice(lo, lo + step) for lo in range(0, n_rows, step))


def _phases(times: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """exp(i freq t), one row per time, from cos and sin of t freq."""
    angles = np.outer(times, freq)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    return phases


def _phase_table(h: float, rows: int, freq: np.ndarray) -> np.ndarray:
    """exp(i freq r h), r < rows, as exp(i freq (r - b) h) exp(i freq b h), b = r mod s,
    s = ceil(sqrt(rows)): 2 s rows of cos and sin instead of rows."""
    s = math.isqrt(max(rows - 1, 0)) + 1
    coarse, fine = _phases(np.arange(0, rows, s) * h, freq), _phases(np.arange(s) * h, freq)
    return (coarse[:, None] * fine).reshape(-1, freq.size)[:rows]


def _scaled_phases(times: np.ndarray, lam: np.ndarray, c: np.ndarray) -> np.ndarray:
    """exp(-i lam t) c for a real c as its stacked (2, times, lam) cos c and -sin c of t lam."""
    parts = np.empty((2, times.size, lam.size))
    np.sin(np.multiply.outer(times, lam, out=parts[0]), out=parts[1])
    np.cos(parts[0], out=parts[0])
    parts *= np.array([c, -c])[:, None]
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


def _spacing(times: np.ndarray, lam: np.ndarray, diag: np.ndarray):
    """(anchor, h, m, tol): h is the mean of the increments t_n - t_{n-1} that lie
    within tol of their median (the upper one of an even count), m its node count for
    |omega| <= max|d_k - lam_j|, 0 unless two increments take h.  anchor[n] marks the rows whose
    state is not integrated from the row before: row 0 and, while m > 0, a row whose
    increment is off h by more than tol; with m = 0, every row."""
    tol = _SLACK * np.spacing(times[-1])
    steps = np.diff(times)
    # not np.median, which imports numpy.ma: about 1.8 MB more resident size
    median = np.partition(steps, steps.size // 2)[steps.size // 2] if steps.size else 0.0
    near = steps[np.abs(steps - median) <= tol]
    anchor = np.ones(times.size, dtype=bool)
    if near.size < 2:
        return anchor, 0.0, 0, tol
    base = near.min()
    h = base + (near - base).mean()  # the mean as an offset, which the sum cannot round away
    reach = h * max(diag.max() - lam[0], lam[-1] - diag.min())
    m = int(_node_counts(np.array([reach]))[0])
    anchor[1:] = (np.abs(steps - h) > tol) | (m == 0)
    return anchor, h, m, tol


def _blocks(times: np.ndarray, anchor: np.ndarray, h: float, tol: float, limit: int):
    """(first, size, origin) rows: runs of rows n that are no anchors (row 0 is one), each
    within one chunk [j limit, (j + 1) limit), along which t_n stays within tol of
    t_o + (n - o) h.  A stretch of runs starts at an anchor o, and at the row o before
    one that strays, so that the next stretch starts at that row's exact time."""
    runs = []
    for lo, hi in np.flatnonzero(np.diff(anchor, prepend=True, append=True)).reshape(-1, 2):
        o = lo - 1
        while lo < hi:
            stop = min(hi, (lo // limit + 1) * limit)
            stray = np.abs(times[lo:stop] - (times[o] + np.arange(lo - o, stop - o) * h)) > tol
            k = int(stray.argmax()) if stray.any() else stop - lo
            o = lo - 1 if k == 0 else o  # row lo strays: restart before it
            runs.append((lo, max(k, 1), o))
            lo += max(k, 1)
            o = lo - 1 if lo < stop else o
    return np.array(runs, dtype=int).reshape(-1, 3).T


def _cauchy_blocks(pole: np.ndarray, tau: np.ndarray, diag: np.ndarray):
    """Yield (rows, block): block = 1/(lam_j - d_k) for lam_j = pole_j + tau_j,
    j in rows, with lam_j - d_k taken as (pole_j - d_k) + tau_j so that it stays
    accurate next to the pole; one buffer serves every block."""
    buf = None
    for rows in _row_blocks(pole.size, diag.size):
        size = min(rows.stop, pole.size) - rows.start
        buf = np.empty((size, diag.size)) if buf is None else buf  # the first block is the largest
        block = np.subtract(pole[rows, None], diag, out=buf[:size])
        block += tau[rows, None]
        yield rows, np.reciprocal(block, out=block)


@dataclass(frozen=True, eq=False)
class SpectralSolution:
    """u(t) = V exp(-i Lambda t) V^T e_0 at `times`, from the paper's u(0) = e_0,
    for the arrowhead A = V diag(lam) V^T with couplings gamma and bath diagonal diag.
    Each eigenvalue lam_j = pole_j + tau_j (ascending) is held as its nearer
    pole plus tau; V is never formed, only its first row v0 = V^T e_0 is kept:
    v_kj = gamma_k v0_j / (lam_j - d_k).  `chunks` evaluates blocks of time
    rows and `share_chunks` their |u|^2; only evolve_exact keeps the full
    T x (N+1) state."""

    times: np.ndarray
    pole: np.ndarray
    tau: np.ndarray
    v0: np.ndarray
    gamma: np.ndarray
    diag: np.ndarray

    @property
    def lam(self) -> np.ndarray:
        return self.pole + self.tau

    @property
    def n_bath(self) -> int:
        return self.v0.size - 1

    def _amplitudes(self, times: np.ndarray, out: np.ndarray) -> np.ndarray:
        """u(times) written into the complex rows out: with p = exp(-i lam t) v0^2, f = sum_j p_j
        and, for each panel of modes k whose Cauchy block takes _CHUNK_BYTES, g_k = gamma_k
        sum_j p_j / (lam_j - d_k) from one real product of the stacked parts of p."""
        parts = _scaled_phases(times, self.lam, self.v0 * self.v0)
        pairs = out.view(float).reshape(times.size, -1, 2).transpose(2, 0, 1)  # re, im of out
        np.sum(parts, axis=2, out=pairs[:, :, 0])
        for panel in _row_blocks(self.diag.size, self.v0.size):  # (N+1) x panel: _CHUNK_BYTES
            _, block = next(_cauchy_blocks(self.pole, self.tau, self.diag[panel]))  # every root
            product = (parts.reshape(2 * times.size, -1) @ block).reshape(2, times.size, -1)
            np.multiply(product, self.gamma[panel], out=pairs[:, :, 1:][:, :, panel])
            del block, product  # so that the next panel's are not made beside them
        return out

    def chunks(self, out=None):
        """Yield (rows, u): the complex u(times[rows]), written into out[rows], or else into one
        buffer; a chunk takes _PANEL_ROWS rows, or a real (rows, N+1) _CHUNK_BYTES if more."""
        n, buf = self.v0.size, out
        for rows in _row_blocks(self.times.size, n, max(_CHUNK_BYTES, 8 * _PANEL_ROWS * n)):
            times = self.times[rows]  # the first chunk is the largest
            buf = np.empty((times.size, n), dtype=complex) if buf is None else buf
            yield rows, self._amplitudes(times, buf[:times.size] if out is None else out[rows])

    def trajectory(self) -> AmplitudeTrajectory:
        """The materialised T x (N+1) state, each chunk written into its rows."""
        states = np.empty((self.times.size, self.v0.size), dtype=complex)
        for _ in self.chunks(states):
            pass
        return AmplitudeTrajectory(self.times, states)

    @property
    def cauchy_rows(self) -> int:
        """The rows share_chunks takes from the Cauchy product."""
        return int(np.count_nonzero(_spacing(self.times, self.lam, self.diag)[0])
                   - (self.times[0] == 0))

    def share_chunks(self):
        """Yield (rows, xi, pairs): |f|^2 and (re_1^2, im_1^2, re_2^2, ...) of the g_k at
        times[rows], O(N m) a row off the anchors of _spacing, in reused buffers.  Row 0 at
        t = 0 is e_0, any other anchor a Cauchy row.  Each anchor o, and the row o before
        one that strays (_blocks), starts a stretch, along which row n holds G_k =
        exp(i d_k (n - o) h) g_k (|G| = |g|): the row before plus exp(i d_k (n - 1 - o) h)
        (-i gamma_k) int_0^h exp(i d_k s) f(t_{n-1} + s) ds, f(s) = sum_j v0_j^2 exp(-i lam_j s)
        at Gauss-Legendre nodes x.  A block's rotation, the phase row exp(i d (first - 1 - o) h)
        folded into the rule's weights times a table exp(i d r h), never touches the carry,
        which takes a rounded phase only where a stray row restarts the stretch."""
        lam, gamma, diag, times = self.lam, self.gamma, self.diag, self.times
        n = lam.size
        anchor, h, m, tol = _spacing(times, lam, diag)
        # the amplitudes and the phase table of a chunk each take half of _CHUNK_BYTES
        size = min(times.size, max(1, _CHUNK_BYTES // (32 * n)))  # rows per chunk
        firsts, sizes, origins = _blocks(times, anchor, h, tol, size)
        x, q = _interval_nodes(h, m) if m else (np.empty(0), np.empty(0))
        # v0^2 exp(-i lam (h, x)), the rule -i gamma q exp(i d x), exp(-i lam r h), exp(i d r h)
        weighted = _phases(np.append(h, x), -lam).T * (self.v0 * self.v0)[:, None]
        quad = -1j * gamma * (q[:, None] * np.exp(1j * np.outer(x, diag)))
        steps, table = (_phase_table(h, sizes.max(initial=0), c) for c in (-lam, diag))
        cauchy = replace(self, times=times[anchor][int(times[0] == 0):])  # the Cauchy rows
        anchors = ((u[0], u[1:]) for _, chunk in cauchy.chunks() for u in chunk)

        # f[i] and g[1 + i] hold row lo + i of the chunk, g[0] the row before, carried over;
        # g is contiguous, which halves the time of each operation on a block of it
        f, g = np.empty(size, dtype=complex), np.empty((size + 1, n - 1), dtype=complex)
        g_rows = list(g)
        for rows in _row_blocks(times.size, 4 * n):
            lo, k = rows.start, min(rows.stop, times.size) - rows.start
            for i in np.flatnonzero(anchor[rows]):  # e_0 at row 0 and t = 0
                f[i], g[1 + i] = next(anchors) if lo + i or times[0] else (1.0, 0.0)
            for b in range(*np.searchsorted(firsts, (lo, lo + k))):  # the chunk's blocks
                a, z, o = firsts[b] - lo, firsts[b] + sizes[b] - lo, origins[b]
                if b and o > origins[b - 1] and not anchor[o]:  # a stray row restarts at o
                    g[o - lo + 1] *= _phases([(o - origins[b - 1]) * h], -diag)[0]
                shift = lo + a - 1 - o
                # f at t_b + r h + (h, x), t_b = t_o + shift h, by exp(-i lam t_b) exp(-i lam r h)
                nodes = steps[:z - a] @ (_phases([times[o] + shift * h], -lam).T * weighted)
                f[a:z] = nodes[:, 0]  # f(t_n)
                weights = quad * _phases([shift * h], diag)[0] if shift else quad
                np.matmul(nodes[:, 1:], weights, out=g[1 + a:1 + z])
                g[1 + a:1 + z] *= table[:z - a]
                for i in range(a, z):
                    np.add(g_rows[i], g_rows[i + 1], out=g_rows[i + 1])
            g[0] = g[k]
            pairs = g[1:k + 1].view(float)
            yield rows, f[:k].real ** 2 + f[:k].imag ** 2, np.square(pairs, out=pairs)


def build_generator(grid: BathGrid) -> Arrowhead:
    """The arrowhead generator of i du/dt = A u: its first row and column carry
    the couplings gamma_k, the bath diagonal holds -2*delta_k, and A[0, 0] = 0."""
    return Arrowhead(0.0, grid.couplings, grid.couplings, _readonly(-2.0 * grid.detunings))


def gershgorin_bound(gen: Arrowhead) -> float:
    """Upper bound on the spectral radius: the largest row sum of absolute
    values, O(N) from the arrow."""
    gen = _arrow(gen)
    first = np.abs(np.append(gen.a00, gen.row)).sum()
    return float(max(first, (np.abs(gen.col) + np.abs(gen.diag)).max()))


class _Poles(NamedTuple):
    """The ascending bath diagonal d and gamma^2 in its order.  On a comb, d_k = d_0 + k step
    + off_k with off within _COMB_ULP ulp of max|d| and more than 2 _NEAR + 1 poles, also the
    near and the far field of each pole p: `near` views d and g2 at p - _NEAR .. p + _NEAR
    (padded by -inf, inf and 0), and far[i, m, p], m <= _MOMENTS, are the Taylor moments of
    sum_{|n| > _NEAR} g2_{p+n} / (d_{p+n} - lam)^(i+1) in x = (lam - d_0 - p step) / step;
    else step is 0."""

    d: np.ndarray
    g2: np.ndarray
    step: float = 0.0
    off: np.ndarray | None = None
    near: tuple = ()
    far: np.ndarray | None = None


def _poles(d: np.ndarray, g2: np.ndarray) -> _Poles:
    """_Poles of the ascending d, with the far field on a comb from one batched FFT
    convolution: with d_k - lam = (n - x) step + off_k, n = k - p, 1 / (d_k - lam) =
    sum_m x^m n^-(m+1) / step up to off_k / (n step)^2, so the moments are
    sum_{|n| > _NEAR} g2_{p+n} n^-(m+1) / step.  x takes the pole's own offset exactly."""
    n = d.size
    if n <= 2 * _NEAR + 1:
        return _Poles(d, g2)
    step = (d[-1] - d[0]) / (n - 1)
    # long double keeps the offsets exact to about 1e-19 where it is wider than double
    wide = np.longdouble
    off = ((d.astype(wide) - d[0]) - np.arange(n) * wide(step)).astype(float)
    if np.abs(off).max() > _COMB_ULP * np.spacing(np.abs(d).max()):
        return _Poles(d, g2)
    size = 1 << (2 * n - 2).bit_length()  # 2 n - 1 or more: the convolution does not wrap
    shift = np.arange(size)
    shift[size // 2:] -= size  # at j: sum_k g2_k h(k - p) = (g2 * h(-.))_p
    inv = np.zeros(size)
    kept = (np.abs(shift) > _NEAR) & (np.abs(shift) < n)
    inv[kept] = -1.0 / shift[kept]
    kernels = np.cumprod(np.broadcast_to(inv, (_MOMENTS + 1, size)), axis=0)  # inv^(m+1)
    moments = np.fft.irfft(np.fft.rfft(kernels) * np.fft.rfft(g2, size), size)[:, :n]
    far = np.zeros((2, _MOMENTS + 1, n))
    far[0] = moments / step
    far[1, :-1] = far[0, 1:] * (np.arange(1, _MOMENTS + 1)[:, None] / step)  # d/dlam
    pad, zeros = np.full(_NEAR, np.inf), np.zeros(_NEAR)
    window = np.lib.stride_tricks.sliding_window_view
    near = (window(np.concatenate((-pad, d, pad)), 2 * _NEAR + 1),
            window(np.concatenate((zeros, g2, zeros)), 2 * _NEAR + 1))
    return _Poles(d, g2, step, off, near, far)


def _comb_sums(poles: _Poles, index: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """_secular_sums on a comb for |tau| <= step, O(_NEAR + _MOMENTS) a root: the far
    field from its moments, the near field exactly."""
    moments, x = poles.far[:, :, index], (tau + poles.off[index]) / poles.step
    sums = moments[:, -1]
    for m in range(_MOMENTS - 1, -1, -1):  # Horner in x
        sums = sums * x + moments[:, m]
    for rows in _row_blocks(index.size, 2 * _NEAR + 1, _NEAR_BYTES):
        p = index[rows]
        q = poles.near[0][p]
        np.subtract(poles.d[p, None], q, out=q)
        q += tau[rows, None]
        w = poles.near[1][p]
        w *= np.reciprocal(q, out=q)  # q = 1 / (lam - d_k)
        sums[0, rows] -= w.sum(axis=1)
        sums[1, rows] += np.einsum("ij,ij->i", w, q)
    return sums


def _secular_sums(poles: _Poles, index: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_k gamma_k^2 / (d_k - lam)^p, p = 1, 2, at lam = d[index] + tau, with d_k - lam
    taken as (d[index] - d_k) - tau: by _comb_sums on a comb for |tau| <= step, else
    from the Cauchy blocks, O(N) a root."""
    sums = np.empty((2, tau.size))
    fast = np.zeros(tau.size, dtype=bool) if poles.far is None else np.abs(tau) <= poles.step
    dense = np.flatnonzero(~fast)
    for rows, q in _cauchy_blocks(poles.d[index[dense]], tau[dense], poles.d):
        # q = 1 / (lam - d_k)
        sums[0, dense[rows]] = -(q @ poles.g2)
        sums[1, dense[rows]] = np.square(q, out=q) @ poles.g2
    if fast.any():
        sums[:, fast] = _comb_sums(poles, index[fast], tau[fast])
    return sums


def _arrowhead_eigh(a00: float, gamma: np.ndarray, diag: np.ndarray):
    """(pole, tau, v0) of the symmetric arrowhead [[a00, gamma^T], [gamma, diag]]:
    its ascending eigenvalues lam_j = pole_j + tau_j and the first entries v0_j of
    the eigenvectors v_0j (1, gamma_k / (lam_j - d_k)).  lam_j, a root of
    F = lam - a00 + sum_k gamma_k^2 / (d_k - lam), is held as its nearer pole plus tau and
    found by safeguarded Newton steps on F tau (tau - delta), free of both bracketing
    poles (delta: the other one, infinite at the ends), from the root of the comb's F
    (Gu & Eisenstat); v0_j = (1 + sum_k gamma_k^2 / (lam_j - d_k)^2)^(-1/2) takes one
    more secular-sum pass."""
    order = np.argsort(diag, kind="stable")
    d, g = diag[order], gamma[order]
    if np.any(np.diff(d) == 0):
        raise ValueError("two equal bath diagonal entries; the arrowhead is degenerate")
    if np.any(g == 0):
        raise ValueError("a zero coupling decouples a bath mode; the arrowhead is degenerate")
    n, g2 = d.size, g * g
    poles = _poles(d, g2)
    reach = 2.0 * math.sqrt(float(g2.sum()))
    # root j lies between left[j] and right[j]: its poles, or an open outer bound
    left = np.concatenate(([min(d[0], a00) - reach], d))
    right = np.concatenate((d, [max(d[-1], a00) + reach]))
    # an inner root is held from its left pole iff F(midpoint) >= 0, an outer one from its pole
    half = 0.5 * (right - left)
    inner = slice(1, n)
    from_left = np.zeros(n + 1, dtype=bool)
    from_left[inner] = (d[:-1] - a00) + half[inner] + _secular_sums(
        poles, np.arange(n - 1), half[inner])[0] >= 0
    from_left[n], half[[0, n]] = True, 2.0 * half[[0, n]]
    index = np.arange(n + 1) - from_left  # the pole each root is held from
    lo, hi = np.where(from_left, 0.0, -half), np.where(from_left, half, 0.0)
    other = np.where(from_left, right - left, left - right)
    other[[0, n]] = -math.inf, math.inf

    tau, active = 0.5 * (lo + hi), np.arange(n + 1)
    if n > 1:
        # inner roots start at the root s = lam - left of the comb's F (Gu & Eisenstat):
        # cot(pi s / w) = (lam - a00 + L) D / (pi c), L = (c / D) ln((d_N + D/2 - lam) /
        # (lam - d_1 + D/2)) for the mean c of g2, the mean spacing D and the interval's
        # width w, with lam at its midpoint; clipped into the bracket, never on the pole
        c, spacing = g2.mean(), (d[-1] - d[0]) / (n - 1)
        w, mid = 2.0 * half[inner], left[inner] + half[inner]
        log = c / spacing * np.log((d[-1] + 0.5 * spacing - mid) / (mid - d[0] + 0.5 * spacing))
        s = w * (0.5 - np.arctan((mid - a00 + log) * spacing / (math.pi * c)) / math.pi)
        start = np.clip(np.where(from_left[inner], s, s - w), lo[inner], hi[inner])
        tau[inner] = np.where(start != 0.0, start, tau[inner])
    for _ in range(100):  # about 4 passes leave under 2% of the roots active
        if active.size == 0:
            break
        t, base = tau[active], d[index[active]]
        s1, s2 = _secular_sums(poles, index[active], t)
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

    return d[index], tau, 1.0 / np.sqrt(1.0 + _secular_sums(poles, index, tau)[1])


def spectral_solution(gen: Arrowhead, times) -> SpectralSolution:
    """The normal modes of the symmetric arrowhead gen, sampled at times, from
    u(0) = e_0; raises ValueError for a degenerate or asymmetric gen."""
    gen = _arrow(gen)
    if not np.array_equal(gen.row, gen.col):
        raise ValueError("generator is not symmetric; refusing to eigendecompose")
    times = np.asarray(times, dtype=float)
    if times.ndim != 1 or times.size == 0:
        raise ValueError("times must be a non-empty 1-d array")
    if times[0] < 0:
        raise ValueError("times must start at t >= 0")
    if times.size > 1 and np.any(np.diff(times) <= 0):
        raise ValueError("times must be strictly increasing")
    return SpectralSolution(times, *_arrowhead_eigh(gen.a00, gen.row, gen.diag),
                            gen.row, gen.diag)


def evolve_exact(gen: Arrowhead, times) -> AmplitudeTrajectory:
    """Unitary evolution u(t) = V exp(-i Lambda t) V^T e_0: the materialised
    state of spectral_solution(gen, times).  Norm is conserved to roundoff."""
    return spectral_solution(gen, times).trajectory()


def _step_count(t_end: float, dt: float) -> int:
    """The RK4 steps of dt until t >= t_end: a ratio 1e-9 over an integer is rounding."""
    return int(math.ceil(t_end / dt - 1e-9))


def _row_count(n_steps: int, sample_every: int) -> int:
    """The states evolve_rk4 holds: t = 0, every sample_every-th step and the last step."""
    return 1 - (-n_steps // sample_every)


def evolve_rk4(gen: Arrowhead, t_end: float, dt: float,
               sample_every: int = 1) -> AmplitudeTrajectory:
    """Classical fixed-step RK4 integration of du/dt = -iAu from e_0, O(N) per step.

    The first row and column of the arrowhead gen apply as given.  With a, r, c, d the arrow of
    Z = -i dt A, a step S adds sum_{k=1..4} Z^k u / k! = q u + (M L u) R to u:
    Z (0, g) = (r.g) e_0 + (0, d g), and to degree 4 Z maps the rows e_0 and (0, d^m c),
    m < 4, of R among themselves by a 5 x 5 H.  So q = (0, sum_k d^k / k!), L u = (u_0, r.g,
    r.(d g), r.(d^2 g), r.(d^3 g)) enters e_0 at degrees 0..4, M_nj = sum_i (H^i)_n0 / (i + j)!
    (0 < i + j <= 4).  With D = 1 + q, S^k = D^k + sum_{j<k} S^(k-1-j) R^T M L D^j, so a block
    of k steps adds (D^k - 1) u + sum_j S^(k-1-j) R^T M L D^j u, a diagonal and a rank-5k map;
    k stops at sample_every and before a real (10 k, N+1) stack of the L D^j or the S^j R^T
    outgrows _NEAR_BYTES (at 1.6 MB, no faster than single steps).  The products run in reals:
    OpenBLAS threads a complex matrix-vector product from 4096 entries, which can stall for ms.
    Steps dt until t >= t_end; samples every sample_every steps plus the final step.  Stability
    guideline: dt <= 0.05 / gershgorin_bound(gen).  Raises IntegrationFailure once the sampled
    norm drifts from 1 by more than RK4_NORM_LIMIT, or is NaN.
    """
    gen = _arrow(gen)
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if t_end < 0:
        raise ValueError("t_end must be nonnegative")
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")

    n_steps = _step_count(t_end, dt)
    times = np.zeros(_row_count(n_steps, sample_every))
    states = np.zeros((times.size, gen.diag.size + 1), dtype=complex)
    a, r, c, d = (-1j * dt * np.asarray(piece) for piece in gen)
    powers = d ** np.arange(4)[:, None]  # d^m, m < 4
    left, right = np.zeros((2, 5, d.size + 1), dtype=complex)
    left[0, 0] = right[0, 0] = 1.0
    left[1:, 1:], right[1:, 1:] = r * powers, powers * c
    h = np.eye(5, k=-1, dtype=complex)
    h[0, :4] = a, *np.sum(right[1:4, 1:] * r, axis=1)  # a, r.(d^m c)
    weights = np.array([0, 1, 1 / 2, 1 / 6, 1 / 24, 0, 0, 0, 0])[np.add.outer(range(5), range(5))]
    q = np.append(0.0, d * (1 + d / 2 * (1 + d / 3 * (1 + d / 4))))
    mat = np.array([np.linalg.matrix_power(h, i)[:, 0] for i in range(5)]).T @ weights  # M
    # groups j < k: D^j - 1 in increments (1 + q would round q away), L D^j and S^j R^T
    k = max(1, min(sample_every, n_steps, _NEAR_BYTES // (80 * q.size)))
    grow, pre, post = [np.zeros_like(q), q], [left], [right.T]
    for _ in range(k - 1):
        grow.append(grow[-1] + q * (1 + grow[-1]))
        pre.append(pre[-1] + pre[-1] * q)
        post.append(post[-1] + (q[:, None] * post[-1] + right.T @ (mat @ (left @ post[-1]))))
    # in reals: (Vr; Vi) u = (Vr u, Vi u) per group, which mix takes to (M V u, i M V u),
    # whose (re, im) pairs (Ur | Ui) takes to those of the increment; b < k steps read
    # the first b groups of V = (L D^j) and the last b of U = (S^(k-1-j) R^T)
    mix = np.kron([[1, 1j], [1j, -1]], mat).T
    left = np.array([np.vstack((x.real, x.imag)) for x in pre]).reshape(10 * k, -1)
    right = np.hstack([np.hstack((x.real, x.imag)) for x in post[::-1]])
    u, v, w = np.zeros((3, d.size + 1), dtype=complex)
    p, m = np.empty((2, k, 10), dtype=complex)
    pairs_u, pairs_p, pairs_m, pairs_w = (x.view(float).reshape(-1, 2) for x in (u, p, m, w))
    u[0] = states[0, 0] = 1.0  # e_0
    step, products = 0, {}
    while step < n_steps:
        b = min(k, sample_every - step % sample_every, n_steps - step)
        if b not in products:  # the operands and outputs of a block of b steps, sliced once
            products[b] = ((left[:10 * b], pairs_u, pairs_p[:10 * b]), (p[:b], mix, m[:b]),
                           (right[:, 10 * (k - b):], pairs_m[:10 * b], pairs_w))
        for x, y, out in products[b]:
            np.dot(x, y, out=out)
        w += np.multiply(grow[b], u, out=v)
        u += w
        step += b
        if step % sample_every == 0 or step == n_steps:
            i = -(-step // sample_every)
            times[i], states[i] = step * dt, u
            drift = float(_norm_drift(states[i]))
            if not drift <= RK4_NORM_LIMIT:  # NaN too, once the state overflows
                raise IntegrationFailure(
                    f"norm drift {drift:.3e} at t={step * dt:g} exceeds {RK4_NORM_LIMIT:g}; "
                    f"reduce dt (guideline dt <= {0.05 / gershgorin_bound(gen):.3g})")
    return AmplitudeTrajectory(times, states)


def _norm_drift(states: np.ndarray) -> np.ndarray:
    """|1 - sum_i |u_i|^2| of each state along the last axis (NaN for a NaN state) as one
    product of the real view with itself (np.einsum, which sums in order, was 4e-15 off)."""
    pairs = states.view(float)
    return np.abs(1.0 - (pairs[..., None, :] @ pairs[..., :, None])[..., 0, 0])


def norm_residual(traj: AmplitudeTrajectory) -> float:
    """max_t |1 - sum_i |u_i(t)|^2| over the sampled trajectory."""
    return float(np.max(_norm_drift(traj.states)))
