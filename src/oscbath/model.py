"""Physical configuration: bath spectrum, couplings, initial states, partitions.

Units follow the convention omega0 = 1 (all frequencies are multiples of the
central oscillator frequency, times are multiples of 1/omega0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "SystemConfig", "BathGrid", "PartitionSpec", "SuperpositionInit", "coherent_log_overlap",
    "build_bath_grid", "centered_bipartition", "banded_blocks", "interleaved_bipartition",
    "explicit_partition", "normalize_superposition",
]


def coherent_log_overlap(alpha: complex, beta: complex) -> complex:
    """Exponent w with <alpha|beta> = exp(w) for two coherent amplitudes.

    w = -|alpha|^2/2 - |beta|^2/2 + conj(alpha)*beta.  Working with w instead
    of exp(w) keeps powers of the overlap well defined even when exp(w)
    underflows (|alpha - beta| large).
    """
    alpha = complex(alpha)
    beta = complex(beta)
    return -abs(alpha) ** 2 / 2.0 - abs(beta) ** 2 / 2.0 + alpha.conjugate() * beta


@dataclass(frozen=True)
class SystemConfig:
    """Central oscillator frequency plus the uniform bath band.

    Couplings default to gamma_k = coupling_amplitude / sqrt(n_bath) for
    every mode; pass an explicit `couplings` tuple to override per mode.
    `force_resonant` shifts the frequency comb so the mode nearest omega0
    lands exactly on resonance (an even, inclusive grid otherwise has none).
    """

    n_bath: int
    coupling_amplitude: float = 0.1
    band: tuple[float, float] = (0.5, 1.5)
    omega0: float = 1.0
    couplings: tuple[float, ...] | None = None
    force_resonant: bool = False

    def __post_init__(self):
        if self.n_bath < 1:
            raise ValueError(f"n_bath must be >= 1, got {self.n_bath}")
        for name in ("omega0", "coupling_amplitude", "band"):  # inf or NaN fails late or never
            if not np.all(np.isfinite(getattr(self, name))):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)!r}")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if self.coupling_amplitude <= 0:
            raise ValueError("coupling_amplitude must be positive")
        low, high = self.band
        if not (0 < low <= high):
            raise ValueError(f"band must satisfy 0 < low <= high, got {self.band}")
        if self.n_bath > 1 and low == high:
            raise ValueError("degenerate band (low == high) is only valid for n_bath == 1")
        if not isinstance(self.force_resonant, bool):  # bool() would read "false" as True
            raise ValueError(f"force_resonant must be true or false, got {self.force_resonant!r}")
        if self.couplings is not None:
            object.__setattr__(self, "couplings", tuple(float(g) for g in self.couplings))
            if len(self.couplings) != self.n_bath:
                raise ValueError("couplings override must have one entry per bath mode")
            if not all(0 < g < math.inf for g in self.couplings):
                raise ValueError(f"couplings must be positive and finite, got {self.couplings}")


def _readonly(arr: np.ndarray) -> np.ndarray:
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True, eq=False)
class BathGrid:
    """Frequencies, couplings and detunings of the bath modes, k = 1..N.

    detunings[k-1] = (omega0 - frequencies[k-1]) / 2.
    """

    omega0: float
    frequencies: np.ndarray
    couplings: np.ndarray
    detunings: np.ndarray = field(init=False)

    def __post_init__(self):
        freqs = _readonly(np.array(self.frequencies, dtype=float))
        gams = _readonly(np.array(self.couplings, dtype=float))
        object.__setattr__(self, "frequencies", freqs)
        object.__setattr__(self, "couplings", gams)
        object.__setattr__(self, "detunings", _readonly((self.omega0 - freqs) / 2.0))
        if freqs.ndim != 1 or freqs.size < 1:
            raise ValueError("frequencies must be a non-empty 1-d sequence")
        if gams.shape != freqs.shape:
            raise ValueError("frequencies and couplings must have equal length")
        if self.omega0 <= 0:
            raise ValueError("omega0 must be positive")
        if freqs.size > 1 and np.any(np.diff(freqs) <= 0):
            raise ValueError("frequencies must be strictly increasing")
        if np.any(gams <= 0):
            raise ValueError("couplings must be positive")

    @property
    def n(self) -> int:
        return self.frequencies.size


def build_bath_grid(config: SystemConfig) -> BathGrid:
    """Equally spaced frequency comb over the configured band.

    omega_k = low*omega0 + (k-1)*(high-low)*omega0/(N-1), endpoints inclusive;
    a single mode sits at the band midpoint.
    """
    w0 = config.omega0
    low, high = config.band
    if config.n_bath == 1:
        freqs = np.array([0.5 * (low + high) * w0])
    else:
        freqs = np.linspace(low * w0, high * w0, config.n_bath)
    if config.force_resonant:
        nearest = int(np.argmin(np.abs(freqs - w0)))
        freqs = freqs + (w0 - freqs[nearest])
    if config.couplings is not None:
        gams = np.array(config.couplings, dtype=float)
    else:
        gams = np.full(config.n_bath, config.coupling_amplitude / math.sqrt(config.n_bath))
    return BathGrid(w0, freqs, gams)


@dataclass(frozen=True, eq=False)
class PartitionSpec:
    """Labelled blocks of bath modes: member[k - 1] is the block of mode k, or -1 for a
    mode in no block.  A label heads the CSV column theta_<label, lower-cased>, so it is
    non-empty text without ',', '\n' or '\r', and no two labels lower-case alike."""

    labels: tuple[str, ...]
    member: np.ndarray

    def __post_init__(self):
        labels = tuple(str(lbl) for lbl in self.labels)
        member = _readonly(np.array(self.member, dtype=int))
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "member", member)
        if member.ndim != 1 or not np.all((-1 <= member) & (member < len(labels))):
            raise ValueError(f"member must be a vector of blocks -1..{len(labels) - 1}")
        first: dict[str, int] = {}  # lower-cased label -> the index of its first label
        for j, lbl in enumerate(labels):
            if not lbl or any(c in lbl for c in ",\n\r"):
                raise ValueError(f"label {lbl!r} must be non-empty, without ',', '\\n' or '\\r'")
            if first.setdefault(lbl.lower(), j) != j:
                raise ValueError(f"labels {labels[first[lbl.lower()]]!r} and {lbl!r} are equal "
                                 "after lower-casing")

    @property
    def n_blocks(self) -> int:
        return len(self.labels)

    def is_bipartition_of(self, n_bath: int) -> bool:
        """True when the two blocks exactly tile {1..n_bath}."""
        return self.n_blocks == 2 and self.member.size == n_bath and bool(np.all(self.member >= 0))


def explicit_partition(grid: BathGrid, blocks, labels) -> PartitionSpec:
    """Blocks of 1-based bath indices, one label per block.  A block may be empty and the
    blocks need not cover the bath.  A label count other than the block count, an index
    below 1 or in two blocks, and an index above grid.n raise ValueError, in that order,
    each naming its first offender."""
    if len(labels) != len(blocks):
        raise ValueError("need exactly one label per block")
    flat = np.array([i for block in blocks for i in block], dtype=object)  # ints of any size
    first = np.zeros(flat.size, dtype=bool)
    first[np.unique(flat, return_index=True)[1]] = True
    bad = (flat < 1) | ~first  # an index below 1, or one seen before
    if bad.any():
        idx = flat[bad.argmax()]
        raise ValueError(f"bath indices are 1-based, got {idx}" if idx < 1
                         else f"blocks overlap at index {idx}")
    if np.any(flat > grid.n):
        raise ValueError(f"index {flat[(flat > grid.n).argmax()]} exceeds bath size {grid.n}")
    member = np.full(grid.n, -1)
    member[flat.astype(int) - 1] = np.repeat(np.arange(len(blocks)), [len(block) for block in blocks])
    return PartitionSpec(labels, member)


def _resonance_order(grid: BathGrid) -> np.ndarray:
    # stable sort: exact detuning ties resolve toward the lower index
    return np.argsort(np.abs(grid.frequencies - grid.omega0), kind="stable")


def centered_bipartition(grid: BathGrid, size_b: int) -> PartitionSpec:
    """Block B = the size_b modes nearest resonance, block C = the rest."""
    if not 1 <= size_b <= grid.n:
        raise ValueError(f"size_b must be in [1, {grid.n}], got {size_b}")
    member = np.empty(grid.n, dtype=int)
    member[_resonance_order(grid)] = np.arange(grid.n) >= size_b
    return PartitionSpec(("B", "C"), member)


def banded_blocks(grid: BathGrid, n_blocks: int) -> PartitionSpec:
    """Equal-size blocks ranked by distance from resonance.

    Block 1 holds the modes nearest omega0; on a band symmetric about
    omega0 each block ends up with half its members above and half below
    resonance.
    """
    if n_blocks < 1 or grid.n % n_blocks != 0:
        raise ValueError(f"n_blocks must divide the bath size {grid.n}, got {n_blocks}")
    member = np.empty(grid.n, dtype=int)
    member[_resonance_order(grid)] = np.arange(grid.n) // (grid.n // n_blocks)
    return PartitionSpec(tuple(str(j + 1) for j in range(n_blocks)), member)


def interleaved_bipartition(grid: BathGrid) -> PartitionSpec:
    """Odd-index modes vs even-index modes.

    On a symmetric band the two combs mirror each other about resonance, so
    both halves absorb the same excitation share.
    """
    return PartitionSpec(("B", "C"), np.arange(grid.n) % 2)


@dataclass(frozen=True)
class SuperpositionInit:
    """Two-branch coherent superposition of the central oscillator at t = 0.

    State = norm_const * (a|alpha0> + b|beta0>), bath in vacuum.
    log_overlap is w with <alpha0|beta0> = exp(w).  Raises when both weights
    vanish or the two branches cancel exactly (zero-norm state).
    """

    a: complex
    b: complex
    alpha0: complex
    beta0: complex
    norm_const: float = field(init=False)
    log_overlap: complex = field(init=False)

    def __post_init__(self):
        for name in ("a", "b", "alpha0", "beta0"):
            object.__setattr__(self, name, complex(getattr(self, name)))
        a, b = self.a, self.b
        if a == 0 and b == 0:
            raise ValueError("at least one branch weight must be nonzero")
        w = coherent_log_overlap(self.alpha0, self.beta0)
        # |a|^2 + |b|^2 + 2 Re(a* b e^w), without its cancellation as o0 -> 1
        n2inv = abs(a + b) ** 2 + 2.0 * float((a.conjugate() * b * np.expm1(w)).real)
        if n2inv <= 0:
            raise ValueError(f"nonpositive squared inverse norm ({n2inv}); branches cancel")
        object.__setattr__(self, "log_overlap", w)
        object.__setattr__(self, "norm_const", 1.0 / math.sqrt(n2inv))

    @property
    def o0(self) -> float:
        """|<alpha0|beta0>| = exp(-|alpha0 - beta0|^2 / 2)."""
        return math.exp(self.log_overlap.real)


def normalize_superposition(a: complex, b: complex,
                            alpha0: complex, beta0: complex) -> SuperpositionInit:
    """The normalised state a|alpha0> + b|beta0>: SuperpositionInit(a, b, alpha0, beta0)."""
    return SuperpositionInit(a, b, alpha0, beta0)
