"""Scenario presets, runs, CSV emission and reproducible run manifests.

A scenario is a JSON-compatible document naming the system, the optional
superposition, a partition scheme, the time grid and the solver method.
Runs write CSV files (17 significant digits, LF line endings, so reruns of
an identical configuration are byte-identical) plus a manifest with content
hashes.
"""

from __future__ import annotations

import hashlib
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from pathlib import Path

import numpy as np

from .concurrence import _require_bipartition, concurrence_series
from .model import (BathGrid, PartitionSpec, SuperpositionInit, SystemConfig,
                    banded_blocks, build_bath_grid, centered_bipartition,
                    interleaved_bipartition, normalize_superposition)
from .observables import ExcitationProfile, _excitation_profiles, excitation_profile
from .propagation import (_row_count, _step_count, build_generator, evolve_rk4, gershgorin_bound,
                          spectral_solution)
from .wootters import oracle_residuals

__all__ = [
    "TOOL_VERSION", "ORACLE_RESIDUAL_LIMIT", "Scenario", "RunManifest", "preset",
    "preset_names", "preset_document", "scenario_from_dict", "scenario_to_dict",
    "run_scenario", "run_sweep", "write_csv",
]

TOOL_VERSION = "0.1.0"

# every emitted concurrence row must agree with the spin-flip pipeline to
# this bound, otherwise the run is marked failed
ORACLE_RESIDUAL_LIMIT = 1e-10

_EMITS = ("excitation", "blocks", "bipartition", "concurrence")
_METHODS = ("exact", "rk4", "both")
# an rk4 or both run that would hold more bytes of sampled RK4 states than this is refused
_MAX_STATE_BYTES = 2 ** 30


@dataclass(frozen=True)
class Scenario:
    """Fully resolved run description."""

    name: str
    system: SystemConfig
    superposition: SuperpositionInit | None
    partition_scheme: str
    partition_params: dict
    emit: str
    method: str = "exact"
    t_end: float = 100.0
    dt: float = 0.01
    samples: int = 2000
    out_dir: str | None = None
    svg: bool = False

    def __post_init__(self):
        if not _text("name", self.name):
            raise ValueError("scenario needs a name")
        if self.out_dir is not None:
            _text("out_dir", self.out_dir)
        if self.partition_scheme not in _SCHEMES:
            raise ValueError(f"unknown partition scheme {self.partition_scheme!r}")
        readers = _SCHEMES[self.partition_scheme][0]
        object.__setattr__(self, "partition_params", _section(
            f"partition ({self.partition_scheme})", self.partition_params, readers, needs=readers))
        if self.method not in _METHODS:
            raise ValueError(f"method must be one of {_METHODS}")
        if self.emit not in _EMITS:
            raise ValueError(f"emit must be one of {_EMITS}")
        if not 0 <= self.t_end < math.inf:
            raise ValueError(f"t_end must be nonnegative and finite, got {self.t_end}")
        if not 0 < self.dt < math.inf:
            raise ValueError(f"dt must be positive and finite, got {self.dt}")
        if self.samples < 1:
            raise ValueError("samples must be >= 1")
        if self.emit != "excitation" and self.partition_scheme == "none":
            raise ValueError(f"emit {self.emit!r} needs a partition scheme")
        if self.emit == "concurrence" and self.superposition is None:
            raise ValueError("emit 'concurrence' needs superposition parameters")
        if not isinstance(self.svg, bool):  # bool() would read "no" as True
            raise ValueError(f"svg must be true or false, got {self.svg!r}")

    def partition_spec(self, grid: BathGrid) -> PartitionSpec | None:
        return _SCHEMES[self.partition_scheme][1](grid, **self.partition_params)

    def exact_times(self) -> np.ndarray:
        if self.t_end == 0 or self.samples == 1:
            return np.array([0.0])
        return np.linspace(0.0, self.t_end, self.samples)

    def rk4_sample_every(self) -> int:
        n_steps = max(1, _step_count(self.t_end, self.dt))
        return n_steps if self.samples <= 1 else max(1, round(n_steps / (self.samples - 1)))


def _text(key: str, value) -> str:
    """value, which must be text; anything else raises ValueError."""
    if not isinstance(value, str):
        raise ValueError(f"{key} must be text, got {value!r}")
    return value


def _as_given(key: str, value):
    """value as it is, for a key whose dataclass checks it."""
    return value


def _integer(key: str, value) -> int:
    """value as an int: a bool, a fraction, null or a list raises ValueError, where int()
    reads 1, 0 or cuts it and float() raises TypeError."""
    try:
        whole = not isinstance(value, bool) and float(value).is_integer()
    except TypeError:
        whole = False
    if not whole:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value) -> float:
    """value as a finite float: a bool, null, a list, NaN, an infinity or other text than
    a number raises ValueError, where float() reads 1.0, raises TypeError or passes it."""
    try:
        if not isinstance(value, bool) and math.isfinite(float(value)):
            return float(value)
    except (TypeError, ValueError):
        pass
    raise ValueError(f"{key} must be a number (finite), got {value!r}")


def _reals(key: str, value) -> tuple[float, ...]:
    """value, a list of numbers, as a tuple of floats; anything else raises ValueError."""
    return tuple(_real(key, v) for v in _listed(key, value))


def _listed(key: str, value) -> list:
    """value, a list or tuple, as a list; anything else raises ValueError."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{key} must be a list, got {value!r}")
    return list(value)


def _as_complex(key: str, value) -> complex:
    """value, a number, a [re, im] pair of numbers or text like "1+0.5j", as a complex
    whose parts _real reads; anything else raises ValueError."""
    if isinstance(value, str):
        try:
            z = complex(value.replace(" ", ""))
        except ValueError:  # malformed text, which complex()'s message does not name
            raise ValueError(f"{key} must be a complex number, got {value!r}") from None
        value = [z.real, z.imag]
    if isinstance(value, (list, tuple)) and len(value) == 2:
        return complex(_real(key, value[0]), _real(key, value[1]))
    return complex(_real(key, value))


def _section(name: str, doc, readers: dict, needs=()) -> dict:
    """doc, an object, with each value read as readers[key](key, value): a doc that is not
    an object, an unknown key, a key of needs left out and a refused value raise ValueError."""
    if not isinstance(doc, dict):
        raise ValueError(f"{name} must be an object, got {doc!r}")
    unknown = sorted(set(doc) - set(readers))
    if unknown:
        raise ValueError(f"unknown {name} key(s) {', '.join(unknown)}; "
                         f"allowed: {', '.join(readers) or 'none'}")
    missing = [key for key in needs if key not in doc]
    if missing:
        raise ValueError(f"{name} needs {', '.join(missing)}")
    return {key: readers[key](key, value) for key, value in doc.items()}


def _unwrapped(doc) -> dict:
    """doc, or the scenario a run's manifest embeds; anything but an object raises ValueError."""
    if isinstance(doc, dict) and "scenario" in doc:
        doc = doc["scenario"]
    if not isinstance(doc, dict):
        raise ValueError(f"a document must be an object, got {doc!r}")
    return doc


def _system(key: str, value) -> SystemConfig:
    """The system section; a key left out but n_bath takes SystemConfig's default."""
    return SystemConfig(**_section(key, value, _SYSTEM, needs=("n_bath",)))


def _superposition(key: str, value) -> SuperpositionInit:
    """The superposition section; a key left out takes its value in _CAT_INIT."""
    return SuperpositionInit(**{**_CAT_INIT, **_section(key, value, _SUPERPOSITION)})


_REFERENCE_SYSTEM = {"n_bath": 1000, "coupling_amplitude": 0.1, "band": (0.5, 1.5)}
_CAT_INIT = {"a": 1, "b": -1, "alpha0": 3, "beta0": -3}

# each section's keys and the reader of each
_SYSTEM = {"n_bath": _integer, "coupling_amplitude": _real, "band": _reals, "omega0": _real,
           "couplings": _reals, "force_resonant": _as_given}
_SUPERPOSITION = dict.fromkeys(_CAT_INIT, _as_complex)
_TIME = {"t_end": _real, "dt": _real, "samples": _integer}


def _explicit(grid: BathGrid, blocks: list, labels: list) -> PartitionSpec:
    spec = PartitionSpec(blocks, labels)
    spec.validate_range(grid.n)
    return spec


# partition scheme -> the reader of each key it takes, every one required, and the builder of
# its PartitionSpec from the grid and those keys.  Integers and text, as the run reads them,
# so that the manifest echoes what ran
_SCHEMES = {"none": ({}, lambda grid: None),
            "centered": ({"size_b": _integer}, centered_bipartition),
            "banded": ({"n_blocks": _integer}, banded_blocks),
            "interleaved": ({}, interleaved_bipartition),
            "explicit": ({"blocks": lambda key, value: [[_integer("block index", i)
                                                         for i in _listed("each block", block)]
                                                        for block in _listed(key, value)],
                          "labels": lambda key, value: [_text("each label", label)
                                                        for label in _listed(key, value)]},
                         _explicit)}
_PARTITION = {"scheme": _text, **{key: read for readers, _ in _SCHEMES.values()
                                  for key, read in readers.items()}}
_SCENARIO = {"name": _text, "system": _system, "superposition": _superposition,
             "partition": lambda key, value: _section(key, value, _PARTITION),
             "time": lambda key, value: _section(key, value, _TIME),
             "method": _text, "emit": _text, "out_dir": _text, "svg": _as_given}
# the grid of a sweep, which no scenario takes
_GRID = {"sizes_b": lambda key, value: [_integer(key, v) for v in _listed(key, value)],
         "overlaps": lambda key, value: list(_reals(key, value))}
_SWEEP = {"name": _text, "preset": lambda key, value: preset(_text(key, value)),
          "base": lambda key, value: scenario_from_dict(value), **_GRID}


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a JSON-compatible document or the manifest of a run; a
    section that is not an object, an unknown key, a key the partition scheme needs left
    out or a value its reader refuses raises ValueError."""
    doc = _unwrapped(doc)
    sweep_keys = [k for k in ("base", "preset", *_GRID) if k in doc]
    if sweep_keys:
        raise ValueError(f"sweep key(s) {', '.join(sweep_keys)} in a scenario; "
                         "run a sweep document or its manifest with `oscbath sweep`")
    doc = _section("top-level", {"system": {}, **doc}, _SCENARIO)
    params = doc.get("partition", {})
    scheme = params.pop("scheme", "none")
    # by default the richest output the partition and superposition allow
    emit = doc["emit"] if "emit" in doc else {"none": "excitation", "banded": "blocks"}.get(
        scheme, "concurrence" if "superposition" in doc else "bipartition")
    return Scenario(  # a key left out takes Scenario's default
        name=doc.get("name", "run"), system=doc["system"], superposition=doc.get("superposition"),
        partition_scheme=scheme, partition_params=params, emit=emit, **doc.get("time", {}),
        **{key: doc[key] for key in ("method", "out_dir", "svg") if key in doc})


def _echo(obj, keys) -> dict:
    """obj's value of each key that is not None, as a document holds it: a sequence as a
    list, a complex number as a number or a [re, im] pair."""
    values = {key: getattr(obj, key) for key in keys}
    return {key: ([v.real, v.imag] if v.imag else v.real) if isinstance(v, complex)
            else list(v) if np.ndim(v) else v for key, v in values.items() if v is not None}


def scenario_to_dict(s: Scenario) -> dict:
    """The document scenario_from_dict reads back as s."""
    doc = {**_echo(s, ("name", "method", "emit", "svg", "out_dir")),
           "system": _echo(s.system, _SYSTEM), "time": _echo(s, _TIME),
           "partition": {"scheme": s.partition_scheme, **s.partition_params}}
    if s.superposition is not None:
        doc["superposition"] = _echo(s.superposition, _SUPERPOSITION)
    return doc


def _centered_preset(name: str, size_b: int, emit: str) -> dict:
    return {"name": name, "system": _REFERENCE_SYSTEM, "superposition": _CAT_INIT,
            "partition": {"scheme": "centered", "size_b": size_b}, "emit": emit}


_PRESETS: dict[str, dict] = {
    "fig3": {
        "name": "fig3", "system": _REFERENCE_SYSTEM,
        "partition": {"scheme": "none"}, "emit": "excitation",
    },
    "fig5": {
        "name": "fig5", "system": _REFERENCE_SYSTEM,
        "partition": {"scheme": "banded", "n_blocks": 10}, "emit": "blocks",
    },
    # B the 100, 500 or 900 modes nearest resonance
    **{name: _centered_preset(name, size_b, emit) for name, size_b, emit in (
        ("fig7", 100, "bipartition"), ("fig8", 500, "bipartition"),
        ("fig9", 900, "bipartition"), ("fig10a", 100, "concurrence"),
        ("fig10b", 500, "concurrence"), ("fig10c", 900, "concurrence"))},
}


def preset_names() -> tuple[str, ...]:
    return tuple(_PRESETS)


def preset_document(name: str) -> dict:
    """The raw JSON-compatible document behind a preset."""
    if name not in _PRESETS:
        raise KeyError(f"unknown preset {name!r}; known: {', '.join(_PRESETS)}")
    return json.loads(json.dumps(_PRESETS[name]))


def preset(name: str) -> Scenario:
    return scenario_from_dict(preset_document(name))


def write_csv(path, header: list[str], columns: list[np.ndarray]) -> None:
    """CSV with LF endings for byte reproducibility: floats to 17 significant
    digits, integer and text columns as they are."""
    formats = {"i": "%d", "u": "%d", "U": "%s"}  # by dtype kind; any other is a float
    line = ",".join(formats.get(c.dtype.kind, "%.17g") for c in columns) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(line % row for row in zip(*map(np.ndarray.tolist, columns)))


@dataclass
class RunManifest:
    """Echo of a run: resolved scenario, hashes of every output, status."""

    scenario: dict
    config_hash: str
    tool_version: str
    duration_s: float
    outputs: list[dict]
    status: str
    checks: dict = field(default_factory=dict)

    def save(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            json.dump(asdict(self), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _concurrence_table(init: SuperpositionInit, profile: ExcitationProfile):
    """The concurrence schema: header, column arrays and max oracle residual."""
    series = concurrence_series(profile, init)
    residual = oracle_residuals(init, series.xi, series.theta_b, series.theta_c)
    header = ["t", "xi", "theta_b", "theta_c", "d_b", "d_c",
              "concurrence", "oracle_residual"]
    columns = [series.times, series.xi, series.theta_b, series.theta_c,
               series.d_b, series.d_c, series.c_closed, residual]
    return header, columns, float(residual.max())


def _emit_table(s: Scenario, profile: ExcitationProfile):
    """Column headers, column arrays and the max oracle residual (or None)."""
    if s.emit == "excitation":
        return ["t", "xi", "theta"], [profile.times, profile.xi, profile.theta], None
    blocks = [f"theta_{lbl.lower()}" for lbl in profile.partition.labels]
    if s.emit == "blocks":
        return ["t", *blocks], [profile.times, *profile.theta_blocks], None
    if s.emit == "bipartition":
        return ["t", "xi", *blocks], [profile.times, profile.xi, *profile.theta_blocks], None
    return _concurrence_table(s.superposition, profile)


def _setup(s: Scenario, out_dir, sizes_b=None):
    """Output directory, generator and partitions (the scenario's own, or one
    centered bipartition per size_b).  RK4 states over _MAX_STATE_BYTES, a bad
    partition and emit 'concurrence' on a partition that is not a bipartition
    raise before the mkdir."""
    if s.method != "exact":  # evolve_rk4 keeps every sample of the (N+1)-mode state
        rows = _row_count(_step_count(s.t_end, s.dt), s.rk4_sample_every())
        held = rows * (s.system.n_bath + 1) * 16
        if held > _MAX_STATE_BYTES:
            raise ValueError(f"method {s.method!r} would hold {held / 2 ** 30:.2f} GiB of RK4 "
                             f"samples, over the {_MAX_STATE_BYTES / 2 ** 30:g} GiB budget; "
                             "use method 'exact' or fewer samples")
    grid = build_bath_grid(s.system)
    gen = build_generator(grid)
    partitions = ([s.partition_spec(grid)] if sizes_b is None
                  else [centered_bipartition(grid, size_b) for size_b in sizes_b])
    if sizes_b is None and s.emit == "concurrence":
        _require_bipartition(partitions[0], grid.n)
    out = Path(out_dir if out_dir is not None else (s.out_dir or "."))
    out.mkdir(parents=True, exist_ok=True)
    return out, gen, partitions


def _emit(out: Path, name: str, doc: dict, tables, checks: dict, start: float,
          svg: bool = False) -> RunManifest:
    """Write each (file stem, header, columns) table as a CSV (plus, with svg,
    an SVG titled name of each time series), hash every file and save the
    manifest; the run fails when a max oracle residual in checks exceeds
    ORACLE_RESIDUAL_LIMIT."""
    outputs: list[dict] = []
    for stem, header, columns in tables:
        paths = [out / f"{stem}.csv"]
        write_csv(paths[0], header, columns)
        if svg and header[0] == "t":  # a sweep index is no time series
            from .svgplot import write_line_svg
            paths.append(out / f"{stem}.svg")
            write_line_svg(paths[1], columns[0], dict(zip(header[1:], columns[1:])), title=name)
        outputs.extend({"path": path.name, "sha256": hashlib.sha256(path.read_bytes()).hexdigest()}
                       for path in paths)
    failed = any(value > ORACLE_RESIDUAL_LIMIT for key, value in checks.items()
                 if key.startswith("max_oracle_residual"))
    payload = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    manifest = RunManifest(scenario=doc, config_hash=hashlib.sha256(payload).hexdigest(),
                           tool_version=TOOL_VERSION, duration_s=time.perf_counter() - start,
                           outputs=outputs, status="failed" if failed else "ok", checks=checks)
    manifest.save(out / f"{name}_manifest.json")
    return manifest


def run_scenario(s: Scenario, out_dir=None) -> RunManifest:
    """Propagate, emit CSV (and optional SVG), write the manifest.

    The run is marked failed when any concurrence row disagrees with the
    spin-flip oracle beyond ORACLE_RESIDUAL_LIMIT.
    """
    start = time.perf_counter()
    out, gen, (partition,) = _setup(s, out_dir)
    methods = ("exact", "rk4") if s.method == "both" else (s.method,)
    # one decomposition serves the exact run and the method comparison
    exact = spectral_solution(gen, s.exact_times()) if s.method != "rk4" else None
    checks: dict = {} if exact is None else {"exact_cauchy_rows": exact.cauchy_rows}
    tables = []
    for method in methods:
        if method == "rk4":  # rk4_sample_every rounds, so this can differ from samples
            rk4 = evolve_rk4(gen, s.t_end, s.dt, s.rk4_sample_every())
            checks["rk4_samples"] = rk4.times.size
            checks["rk4_dt_guideline"] = 0.05 / gershgorin_bound(gen)
        profile = excitation_profile(exact if method == "exact" else rk4, partition)
        checks[f"norm_residual_{method}"] = profile.norm_residual()
        header, columns, max_resid = _emit_table(s, profile)
        if max_resid is not None:
            checks[f"max_oracle_residual_{method}"] = max_resid
        tables.append((s.name if len(methods) == 1 else f"{s.name}_{method}", header, columns))

    if s.method == "both":  # the same decomposition, at the RK4 sample times
        checks["max_method_deviation"] = float(max(
            np.abs(u - rk4.states[rows]).max()
            for rows, u in replace(exact, times=rk4.times).chunks()))
    return _emit(out, s.name, scenario_to_dict(s), tables, checks, start, s.svg)


def run_sweep(doc: dict, out_dir=None) -> RunManifest:
    """Grid over centered-partition size and initial overlap magnitude.

    Propagates the base system once, then writes one concurrence CSV per
    (size_b, o0) point plus an index CSV summarizing the grid.  Overlaps are
    realized by symmetric real amplitudes +-d/2 with d = sqrt(-2 ln o0).
    doc is {"name", "base" or "preset", "sizes_b", "overlaps"}, a flat
    scenario document plus the grid keys, or a sweep manifest (its
    "scenario"); what a section reader refuses, a base method other than "exact",
    an empty grid axis and a repeated size_b raise ValueError before any output.
    """
    start = time.perf_counter()
    doc = _unwrapped(doc)
    if "base" not in doc and "preset" not in doc:  # flat: the base scenario plus the grid
        doc = {**{k: doc[k] for k in ("name", *_GRID) if k in doc},
               "base": {k: v for k, v in doc.items() if k not in _GRID}}
    sweep = _section("sweep", doc, _SWEEP)
    if "preset" in sweep and "base" in sweep:
        raise ValueError("a sweep takes 'base' or 'preset', not both")
    base = sweep["base"] if "base" in sweep else sweep["preset"]
    if base.method != "exact":
        raise ValueError(f"a sweep propagates with method 'exact'; the base has {base.method!r}")
    name = sweep.get("name", f"{base.name}_sweep")
    sizes = sweep.get("sizes_b", [100, 500, 900])
    overlaps = sweep.get("overlaps", [math.exp(-18.0)])
    if not sizes or not overlaps:
        raise ValueError("a sweep needs at least one entry in sizes_b and in overlaps")
    if len(set(sizes)) < len(sizes):
        raise ValueError(f"sizes_b repeats an entry: {sizes}")
    for o0 in overlaps:
        if not 0.0 < o0 < 1.0:
            raise ValueError(f"overlaps must lie strictly inside (0, 1), got {o0}")
    sup = base.superposition or _superposition("superposition", {})

    out, gen, partitions = _setup(base, out_dir, sizes)
    # one propagation and one reduction feed every grid point
    solution = spectral_solution(gen, base.exact_times())
    profiles = _excitation_profiles(solution, partitions)
    tables, index = [], []
    for size_b, profile in zip(sizes, profiles):
        for j, o0 in enumerate(overlaps):
            half = math.sqrt(-2.0 * math.log(o0)) / 2.0
            init = normalize_superposition(sup.a, sup.b, half, -half)
            header, columns, residual = _concurrence_table(init, profile)
            stem = f"{name}_b{size_b}_o{j}"
            tables.append((stem, header, columns))
            col = dict(zip(header, columns))
            index.append((size_b, o0, f"{stem}.csv", col["concurrence"][-1],
                          col["theta_b"][-1], col["theta_c"][-1], residual))
    tables.append((f"{name}_index", ["size_b", "o0", "file", "c_end", "theta_b_end",
                                     "theta_c_end", "max_oracle_residual"],
                   [np.array(column) for column in zip(*index)]))

    sweep_doc = {"name": name, "base": scenario_to_dict(base),
                 "sizes_b": sizes, "overlaps": overlaps}
    checks = {"max_oracle_residual": max(row[-1] for row in index),
              "exact_cauchy_rows": solution.cauchy_rows}
    return _emit(out, name, sweep_doc, tables, checks, start, base.svg)
