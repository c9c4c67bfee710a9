"""Named cross-module verification checks with residuals and thresholds.

Each check reports its worst residual against a fixed bound; an exception
inside a check counts as a failure of that check rather than aborting the
suite (that is how injected faults surface).
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass

import numpy as np

from .model import (SystemConfig, build_bath_grid, centered_bipartition,
                    normalize_superposition)
from .observables import excitation_profile, verify_overlap_factorization
from .propagation import (build_generator, evolve_exact, evolve_rk4, norm_residual,
                          spectral_solution)
from .scenarios import (_REFERENCE_SYSTEM, _SYSTEM, _concurrence_table, _integer, _real, _section,
                        _superposition)
from .wootters import oracle_residuals

__all__ = ["CheckResult", "run_verification", "FAULT_MODES"]

FAULT_MODES = ("generator-asymmetry",)


def _at_least(read, low, strict=False):
    """read, which then refuses a value below low, or at low if strict."""
    def reader(key, value):
        if (value := read(key, value)) < low or strict and value == low:
            raise ValueError(f"{key} must be {'>' if strict else '>='} {low}, got {value!r}")
        return value
    return reader


# a config's keys and the reader of each: the reference system's keys and the superposition
# are read as in a scenario, then come the parameters of the checks
_READERS = {**{key: _SYSTEM[key] for key in _REFERENCE_SYSTEM}, "superposition": _superposition,
            "t_end": _at_least(_real, 0, strict=True), "samples": _at_least(_integer, 1),
            "dt": _at_least(_real, 0, strict=True), "rk4_t_end": _at_least(_real, 0),
            "size_b": _integer, "draws": _at_least(_integer, 0), "seed": _at_least(_integer, 0)}
# the default of each key but size_b, a tenth of the bath
_DEFAULTS = {**_REFERENCE_SYSTEM, "superposition": _superposition("superposition", {}),
             "t_end": 100.0, "samples": 201, "dt": 0.01, "rk4_t_end": 10.0, "draws": 200,
             "seed": 20260810}


@dataclass
class CheckResult:
    name: str
    residual: float
    threshold: float
    passed: bool
    note: str = ""
    seconds: float = 0.0  # wall time the check took

    def line(self) -> str:
        state = "PASS" if self.passed else "FAIL"
        msg = f"  ({self.note})" if self.note else ""
        return f"{self.name:28s} residual {self.residual:.3e}  <= {self.threshold:.1e}  {state}{msg}"


def _guarded(results: list[CheckResult], name: str, threshold: float, fn) -> None:
    start = time.perf_counter()
    try:
        residual = float(fn())
        note = ""
    except Exception as exc:  # failed check, not a crashed suite
        residual = math.inf
        note = f"{type(exc).__name__}: {exc}"
    results.append(CheckResult(name, residual, threshold, residual <= threshold, note,
                               time.perf_counter() - start))


def run_verification(config: dict | None = None,
                     inject_fault: str | None = None) -> list[CheckResult]:
    """Run the full residual suite; returns one CheckResult per check.

    config overrides keys of the default configuration; a config that is not
    an object, an unknown key and a value its reader refuses raise ValueError.
    inject_fault="generator-asymmetry" corrupts the bath generator before
    the propagation checks, which must then fail.
    """
    cfg = {**_DEFAULTS, **_section("verify config", {} if config is None else config, _READERS)}
    if inject_fault is not None and inject_fault not in FAULT_MODES:
        raise ValueError(f"unknown fault mode {inject_fault!r}; known: {FAULT_MODES}")

    grid = build_bath_grid(SystemConfig(**{key: cfg[key] for key in _REFERENCE_SYSTEM}))
    gen = build_generator(grid)
    if inject_fault == "generator-asymmetry":
        row = np.array(gen.row)
        row[0] *= 1.5  # breaks the symmetry that unitarity rests on
        gen = gen._replace(row=row)
    init = cfg["superposition"]
    partition = centered_bipartition(grid, cfg.get("size_b", max(1, grid.n // 10)))
    times = np.linspace(0.0, cfg["t_end"], cfg["samples"])

    results: list[CheckResult] = []
    state: dict = {}

    def norm_conservation():
        state["traj"] = spectral_solution(gen, times).trajectory()
        return norm_residual(state["traj"])

    _guarded(results, "norm_conservation_exact", 1e-9, norm_conservation)

    def trajectory():
        if "traj" not in state:
            raise RuntimeError("needs the trajectory of failed check norm_conservation_exact")
        return state["traj"]

    # the one reduction of the reference state, which three checks read; theta sums every
    # mode, whatever the partition
    profile = functools.cache(lambda: excitation_profile(trajectory(), partition))
    _guarded(results, "excitation_conservation", 1e-9, lambda: profile().norm_residual())

    def shares_vs_state():
        # the share kernel integrates from e_0 (or Cauchy rows), the state takes eigenvector rows
        direct = profile()
        kernel = excitation_profile(spectral_solution(gen, times), partition)
        return max(float(np.abs(getattr(kernel, name) - getattr(direct, name)).max())
                   for name in ("xi", "theta", "theta_blocks"))

    _guarded(results, "shares_vs_state", 1e-13, shares_vs_state)
    _guarded(results, "rk4_norm_drift", 1e-6, lambda: norm_residual(
        evolve_rk4(gen, cfg["rk4_t_end"], cfg["dt"], sample_every=20)))
    _guarded(results, "overlap_factorization", 1e-10,
             lambda: verify_overlap_factorization(trajectory(), init, partition))

    def oracle():
        # the concurrence table simulate writes, then one stacked call over the draws of
        # (a, b, alpha0, beta0), kept unless |a| or |b| is below 1e-6, and of the shares
        table = _concurrence_table(init, profile())[2]
        rng = np.random.default_rng(cfg["seed"])
        parts = rng.normal(0.0, [1.0, 1.0, 2.0, 2.0], size=(cfg["draws"], 2, 4))
        draws = parts[:, 0] + 1j * parts[:, 1]
        shares = rng.dirichlet([1.0, 1.0, 1.0], size=cfg["draws"])
        kept = (np.abs(draws[:, 0]) >= 1e-6) & (np.abs(draws[:, 1]) >= 1e-6)
        inits = [normalize_superposition(*draw) for draw in draws[kept]]
        return np.max(oracle_residuals(inits, *shares[kept].T), initial=table)

    _guarded(results, "closed_form_vs_oracle", 1e-10, oracle)

    # resonant two-mode system with the analytic solution f = cos(gamma t)
    two_mode = build_bath_grid(SystemConfig(n_bath=1, band=(1.0, 1.0),
                                            coupling_amplitude=0.1))
    gen2 = build_generator(two_mode)

    def analytic_error(traj):
        return np.abs(traj.f - np.cos(two_mode.couplings[0] * traj.times)).max()

    _guarded(results, "two_mode_analytic_exact", 1e-8, lambda: analytic_error(
        evolve_exact(gen2, np.linspace(0.0, 10 * math.pi, 401))))
    _guarded(results, "two_mode_analytic_rk4", 1e-6, lambda: analytic_error(
        evolve_rk4(gen2, 10 * math.pi, cfg["dt"], sample_every=10)))

    return results
