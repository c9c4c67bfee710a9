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

import functools
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
# each real (rows, N+1) array of a spectral chunk takes about this many bytes
_CHUNK_BYTES = 2 ** 21
# the share pass: tiles of _TILE_ROWS rows by _MODE_PANEL modes, f summed by _ROOT_PANEL roots
_TILE_ROWS, _MODE_PANEL, _ROOT_PANEL = 64, 1024, 256  # BENCH_share_panels.json
# a Cauchy chunk takes at least this many time rows: fewer run slower (BENCH_cauchy_panels.json)
_PANEL_ROWS = 256
# a spacing that needs more Gauss-Legendre nodes than this is not integrated; every row
# but e_0 is a Cauchy row instead
_MAX_NODES = 16
# the increments within this many ulp of max|t| of their median set the spacing h, and the
# share pass integrates the rows whose times stay within it of t_0 + n h from row 0 on
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
    """Sampled amplitude vectors u(t) = (f(t), g_1(t), ..., g_N(t)): read-only views of the
    arrays given, which must not be written once its shares are kept (excitation_profile)."""

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
        """As SpectralSolution.share_chunks, by its tiles: one tile is squared at a time."""
        parts = self.states.view(float)
        for modes in _slices(self.n_bath, _MODE_PANEL):
            for rows in _slices(self.times.size, _TILE_ROWS):
                yield (rows, modes, parts[rows, 0] ** 2 + parts[rows, 1] ** 2,
                       np.square(parts[rows, 2 + 2 * modes.start:2 + 2 * modes.stop]))


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


def _slices(n: int, step: int):
    """Consecutive slices of range(n), step long but the last."""
    return (slice(lo, min(lo + step, n)) for lo in range(0, n, step))


def _phases(times: np.ndarray, freq: np.ndarray) -> np.ndarray:
    """exp(i freq t), one row per time, from cos and sin of t freq."""
    angles = np.outer(times, freq)
    phases = np.empty(angles.shape, dtype=complex)
    np.cos(angles, out=phases.real)
    np.sin(angles, out=phases.imag)
    return phases


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
    """(rows, h, m): h is the mean of the increments t_n - t_{n-1} that lie within tol of
    their median (the upper one of an even count), m its node count for |omega| <=
    max|d_k - lam_j|, 0 unless two increments take h.  Rows 1 .. rows - 1 are the grid's
    uniform prefix, along which t_n stays within tol of t_0 + n h; none with m = 0."""
    tol = _SLACK * np.spacing(times[-1])
    steps = np.diff(times)
    # not np.median, which imports numpy.ma: about 1.8 MB more resident size
    median = np.partition(steps, steps.size // 2)[steps.size // 2] if steps.size else 0.0
    near = steps[np.abs(steps - median) <= tol]
    if near.size < 2:
        return 1, 0.0, 0
    base = near.min()
    h = base + (near - base).mean()  # the mean as an offset, which the sum cannot round away
    reach = h * max(diag.max() - lam[0], lam[-1] - diag.min())
    m = int(_node_counts(np.array([reach]))[0])
    off = np.abs(times - (times[0] + np.arange(times.size) * h)) > tol
    return int(np.append(off, True).argmax()) if m else 1, h, m


def _cauchy(pole: np.ndarray, tau: np.ndarray, d: np.ndarray, out=None) -> np.ndarray:
    """1/(lam_j - d_k) for lam_j = pole_j + tau_j, against one row d or one row of d per root,
    taken as (pole_j - d_k) + tau_j so that it stays accurate next to the pole; written into
    out if given."""
    out = np.subtract(pole[:, None], d, out=out)
    out += tau[:, None]
    return np.reciprocal(out, out=out)


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
        for panel in _slices(self.diag.size, max(1, _CHUNK_BYTES // (8 * self.v0.size))):
            block = _cauchy(self.pole, self.tau, self.diag[panel])  # all N+1 roots in one block
            product = (parts.reshape(2 * times.size, -1) @ block).reshape(2, times.size, -1)
            np.multiply(product, self.gamma[panel], out=pairs[:, :, 1:][:, :, panel])
            del block, product  # so that the next panel's are not made beside them
        return out

    def chunks(self, out=None):
        """Yield (rows, u): the complex u(times[rows]), written into out[rows], or else into one
        buffer; a chunk takes _PANEL_ROWS rows, or a real (rows, N+1) _CHUNK_BYTES if more."""
        n, buf = self.v0.size, out
        for rows in _slices(self.times.size, max(_CHUNK_BYTES // (8 * n), _PANEL_ROWS)):
            times = self.times[rows]  # the first chunk is the largest
            buf = np.empty((times.size, 1 + self.diag.size), complex) if buf is None else buf
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
        return self.times.size - self._plan[0] + int(self.times[0] > 0)

    @functools.cached_property
    def _plan(self):
        """What share_chunks reads of the solution alone, cut by tiles of s = _TILE_ROWS rows:
        the tiles of row 0, of the uniform prefix 1 .. rows - 1 of _spacing and of the rest."""
        lam, times, s = self.lam, self.times, _TILE_ROWS
        rows, h, m = _spacing(times, lam, self.diag)
        x, q = _interval_nodes(h, m) if m else (np.empty(0), np.empty(0))
        tiles = tuple((lo, min(s, hi - lo)) for a, hi in ((0, 1), (1, rows), (rows, times.size))
                      for lo in range(a, hi, s))
        integrated = [(lo, k) for lo, k in tiles if 0 < lo < rows]
        # nodes[first + r] = f(t_b + r h + (h, x)), t_b = t_0 + (first - 1) h: exp(-i lam r h)
        # times exp(-i lam (t_b + (h, x))) v0^2 by root panels, the last padded, so that each
        # product has one shape and its sums do not depend on the BLAS thread count
        lam, c = (np.pad(a, (0, -a.size % _ROOT_PANEL)) for a in (lam, self.v0 * self.v0))
        nodes = np.zeros((times.size, m + 1), dtype=complex)
        for roots in _slices(lam.size, _ROOT_PANEL):
            fine = _phases(np.arange(s) * h, -lam[roots])
            weighted = _phases(np.append(h, x), -lam[roots]).T * c[roots, None]
            leads = _phases([times[0] + (lo - 1) * h for lo, _ in integrated], -lam[roots])
            for (lo, k), lead in zip(integrated, leads[:, :, None]):
                nodes[lo:lo + k] += (fine @ (lead * weighted))[:k]
        return rows, h, x, q, tiles, _readonly(nodes), s

    def share_chunks(self):
        """Yield (rows, modes, xi, pairs) tiles: |f|^2 at times[rows] and (re_1^2, im_1^2, ...) of
        the g_{1+k}, k in modes, in reused buffers.  Row 0 at t = 0 is e_0.  The rows 1 .. P - 1
        of the grid's uniform prefix (_spacing) cost O(m) a mode and row: row n holds G_k =
        exp(i d_k n h) g_k (|G| = |g|), the row before plus exp(i d_k (n - 1) h) (-i gamma_k)
        int_0^h exp(i d_k s) f(t_{n-1} + s) ds, f(s) = sum_j v0_j^2 exp(-i lam_j s) at
        Gauss-Legendre nodes x.  A tile's rotation exp(i d (first - 1) h), folded into the
        rule's weights times a table exp(i d r h), never touches the carry.  Every other row
        is a Cauchy row; _plan holds the tiles and f."""
        (rows, h, x, q, tiles, nodes, s), gamma, diag = self._plan, self.gamma, self.diag
        times, f0 = self.times, nodes[:, 0].copy()  # f at the Cauchy rows is written in below
        cauchy = replace(self, times=np.delete(times, slice(int(times[0] > 0), rows)))
        for modes in _slices(diag.size, _MODE_PANEL):
            # the panel's Cauchy rows, rule -i gamma q exp(i d x) and table exp(i d r h); g[1 + i]
            # holds row lo + i of a tile, g[0] the row before, contiguous: twice as fast
            d, panel = diag[modes], replace(cauchy, diag=diag[modes], gamma=gamma[modes])
            direct = ((u[0], u[1:]) for _, chunk in panel.chunks() for u in chunk)
            quad = -1j * panel.gamma * (q[:, None] * np.exp(1j * np.outer(x, d)))
            table, g = _phases(np.arange(s) * h, d), np.empty((s + 1, d.size), complex)
            views = list(g)  # the adds below take 2/3 as long on row views as on g[i]
            for lo, k in tiles:
                if 0 < lo < rows:
                    np.matmul(nodes[lo:lo + k, 1:], quad * _phases([(lo - 1) * h], d)[0],
                              out=g[1:k + 1])
                    g[1:k + 1] *= table[:k]
                    for i in range(k):
                        np.add(views[i], views[i + 1], out=views[i + 1])
                else:  # e_0 at row 0 and t = 0, else Cauchy rows
                    for i in range(k):
                        f0[lo + i], g[1 + i] = next(direct) if lo + i or times[0] else (1, 0)
                g[0] = g[k]
                f, pairs = f0[lo:lo + k], g[1:k + 1].view(float)
                yield slice(lo, lo + k), modes, f.real ** 2 + f.imag ** 2, np.square(pairs, pairs)


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
    for rows in _slices(index.size, _NEAR_BYTES // (8 * (2 * _NEAR + 1))):
        p = index[rows]
        window = poles.near[0][p]
        q = _cauchy(poles.d[p], tau[rows], window, out=window)  # q = 1 / (lam - d_k)
        w = poles.near[1][p]
        w *= q
        sums[0, rows] -= w.sum(axis=1)
        sums[1, rows] += np.einsum("ij,ij->i", w, q)
    return sums


def _secular_sums(poles: _Poles, index: np.ndarray, tau: np.ndarray) -> np.ndarray:
    """sum_k gamma_k^2 / (d_k - lam)^p, p = 1, 2, at lam = d[index] + tau, with d_k - lam
    taken as (d[index] - d_k) - tau: by _comb_sums on a comb for |tau| <= step, else
    from the Cauchy blocks, O(N) a root."""
    sums = np.empty((2, tau.size))
    fast = np.zeros(tau.size, dtype=bool) if poles.far is None else np.abs(tau) <= poles.step
    dense, buf = np.flatnonzero(~fast), None
    for rows in _slices(dense.size, max(1, _CHUNK_BYTES // (8 * poles.d.size))):
        j = dense[rows]  # the first block is the largest
        buf = np.empty((j.size, poles.d.size)) if buf is None else buf
        q = _cauchy(poles.d[index[j]], tau[j], poles.d, out=buf[:j.size])  # 1 / (lam - d_k)
        sums[0, j] = -(q @ poles.g2)
        sums[1, j] = np.square(q, out=q) @ poles.g2
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
        # unless hi is the pole tau = 0) unless it is there, bisect any other leaving the bracket
        converged = np.abs(step) <= 2.0 * np.finfo(float).eps * np.abs(t)
        past_hi = (new >= a_hi) & (a_hi != 0) & (t < a_hi)
        new[past_hi] = a_hi[past_hi]
        bisect = ~(converged | past_hi | ((new > a_lo) & (new < a_hi)))
        new[bisect] = 0.5 * (a_lo + a_hi)[bisect]
        tau[active] = new
        active = active[~(converged | (np.nextafter(a_lo, a_hi) >= a_hi))]
    else:
        raise RuntimeError(f"secular equation: {active.size} roots did not converge")

    return d[index], tau, 1.0 / np.sqrt(1.0 + _secular_sums(poles, index, tau)[1])


def spectral_solution(gen: Arrowhead, times) -> SpectralSolution:
    """The normal modes of the symmetric arrowhead gen at times, from u(0) = e_0, read-only and
    kept for the next call on the same arrays; ValueError for a degenerate or asymmetric gen."""
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
    return _solution(float(gen.a00), *(np.asarray(a, float).tobytes()
                                       for a in (gen.row, gen.diag, times)))


@functools.lru_cache(maxsize=1)  # the last solution, for the next run on its system and grid
def _solution(a00: float, row: bytes, diag: bytes, times: bytes) -> SpectralSolution:
    row, diag, times = (np.frombuffer(b) for b in (row, diag, times))  # read-only copies
    return SpectralSolution(times, *map(_readonly, _arrowhead_eigh(a00, row, diag)), row, diag)


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
