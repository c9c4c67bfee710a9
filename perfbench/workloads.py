"""Benchmark workloads: the inputs of one pass, and the checks on its outputs.

Each workload drives one public entry point of oscbath (`run_scenario`,
`run_sweep` or `run_verification`) with inputs fixed by the workload name
and the seed.  A pass returns the run manifests or check results; the
checks then count operations and failures:

- one operation per scenario run, per sweep and per verify check: it fails
  when the manifest status is not "ok", when a recorded oracle residual
  exceeds ORACLE_LIMIT, or when the verify check failed;
- one operation per emitted CSV: it fails when a value is not finite, when
  an oracle residual column exceeds ORACLE_LIMIT, or when another column
  deviates from the stored reference by more than the workload's
  tolerance.

The oscbath sources are imported from `src/` of the checkout this file
lives in, never from an installed copy.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
if not (SRC / "oscbath" / "__init__.py").is_file():
    raise ImportError(f"no oscbath sources under {SRC}")
sys.path.insert(0, str(SRC))

import oscbath  # noqa: E402

if Path(oscbath.__file__).resolve().parent != SRC / "oscbath":
    raise ImportError(f"oscbath imported from {oscbath.__file__}, not from {SRC}")

WORKLOADS = ("reference_presets", "sweep_grid", "large_bath", "verify_suite")
REFERENCE_DIR = BENCH_DIR / "reference"
OUT_DIR = BENCH_DIR / "out"  # scratch outputs, spans and result records

# the seed that reproduces the README sweep and the default verify seed;
# only this seed is compared column by column against the stored reference
DEFAULT_SEED = 0
PRESETS = ("fig3", "fig5", "fig7", "fig8", "fig9", "fig10a", "fig10b", "fig10c")
SWEEP_SIZES_B = (100, 500, 900)
README_OVERLAPS = (1.523e-8, 0.5)
VERIFY_SEED = 20260810  # run_verification's default seed, used at DEFAULT_SEED

ORACLE_LIMIT = 1e-10      # scenarios.ORACLE_RESIDUAL_LIMIT, restated so a change to it shows
REFERENCE_TOL = 1e-13     # ROADMAP item 2: preset CSVs stay within 1e-13 at N = 1000
LARGE_BATH_TOL = 1e-12    # N = 4000; thread-count changes of the seed move columns by ~6e-15
# residual columns are gated by ORACLE_LIMIT, not compared with the reference
ORACLE_COLUMNS = {"oracle_residual", "max_oracle_residual"}


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def op(self, problem: str | None = None) -> None:
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            self.problems.append(problem)

    def merge(self, other: "Tally") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        self.problems.extend(other.problems)


@dataclass
class Workload:
    """One workload at one seed.

    mode_samples is the number of amplitude samples the pass requests:
    the sum over its propagations of time points x (N + 1), where the time
    points of an RK4 propagation are its steps.
    """

    name: str
    run_pass: Callable[[Path], list]
    mode_samples: int
    tolerance: float | None  # None: no column comparison at this seed


def rk4_steps(t_end: float, dt: float) -> int:
    """Step count of propagation.evolve_rk4 for a horizon and step."""
    return 0 if t_end == 0 else int(math.ceil(t_end / dt - 1e-9))


def _scenario(preset: str, tiny: bool, n_bath: int | None = None,
              size_b: int | None = None):
    """A preset, optionally resized; tiny divides N, B and the samples by 10."""
    doc = oscbath.preset_document(preset)
    if n_bath is not None:
        doc["system"]["n_bath"] = n_bath
    if size_b is not None:
        doc["partition"]["size_b"] = size_b
    if tiny:
        doc["system"]["n_bath"] //= 10
        doc["time"] = {"samples": 200}
        if "size_b" in doc["partition"]:
            doc["partition"]["size_b"] //= 10
    return oscbath.scenario_from_dict(doc)


def _exact_samples(scenario) -> int:
    return len(scenario.exact_times()) * (scenario.system.n_bath + 1)


def sweep_overlaps(seed: int) -> list[float]:
    """The two sweep overlaps: the README pair at DEFAULT_SEED, else one
    small (o0 in [e^-25, e^-9]) and one large (o0 in [e^-2, e^-0.1])."""
    if seed == DEFAULT_SEED:
        return list(README_OVERLAPS)
    rng = np.random.default_rng(seed)
    return [math.exp(-rng.uniform(9.0, 25.0)), math.exp(-rng.uniform(0.1, 2.0))]


def build(name: str, seed: int, tiny: bool = False) -> Workload:
    """The workload `name` at `seed`; tiny gives test-size inputs."""
    if name == "reference_presets":
        scenarios = [_scenario(p, tiny) for p in PRESETS]
        return Workload(
            name, lambda out: [oscbath.run_scenario(s, out) for s in scenarios],
            sum(_exact_samples(s) for s in scenarios), REFERENCE_TOL)

    if name == "sweep_grid":
        base = _scenario("fig10a", tiny)
        doc = {"name": "scan", "base": oscbath.scenario_to_dict(base),
               "sizes_b": [s // 10 if tiny else s for s in SWEEP_SIZES_B],
               "overlaps": sweep_overlaps(seed)}
        return Workload(
            name, lambda out: [oscbath.run_sweep(doc, out)],
            _exact_samples(base),
            REFERENCE_TOL if seed == DEFAULT_SEED else None)

    if name == "large_bath":
        scenario = _scenario("fig10a", tiny, n_bath=4000, size_b=400)
        return Workload(
            name, lambda out: [oscbath.run_scenario(scenario, out)],
            _exact_samples(scenario), LARGE_BATH_TOL)

    if name == "verify_suite":
        # the default verify configuration, spelled out so the sample count
        # can be derived from it; only the seed of the oracle draws varies
        cfg = {"n_bath": 1000, "t_end": 100.0, "samples": 201, "dt": 0.01,
               "rk4_t_end": 10.0, "seed": VERIFY_SEED + seed - DEFAULT_SEED}
        if tiny:
            cfg.update(n_bath=100, samples=21, rk4_t_end=1.0)
        # run_verification also propagates a resonant two-mode system to
        # t = 10 pi on 401 points, exactly and by RK4
        two_mode = 2 * (401 + rk4_steps(10 * math.pi, cfg["dt"]))
        requested = ((cfg["n_bath"] + 1)
                     * (cfg["samples"] + rk4_steps(cfg["rk4_t_end"], cfg["dt"]))
                     + two_mode)
        return Workload(name, lambda out: oscbath.run_verification(cfg),
                        requested, None)

    raise ValueError(f"unknown workload {name!r}; known: {', '.join(WORKLOADS)}")


def read_csv(path: Path) -> dict[str, np.ndarray]:
    """Columns of an emitted CSV: floats where every entry parses, else str."""
    with open(path) as fh:
        header = fh.readline().rstrip("\n").split(",")
        rows = [line.rstrip("\n").split(",") for line in fh]
    columns = {}
    for j, name in enumerate(header):
        raw = [row[j] for row in rows]
        try:
            columns[name] = np.array(raw, dtype=float)
        except ValueError:
            columns[name] = np.array(raw)
    return columns


def reference_path(reference_dir: Path, workload: str) -> Path:
    return Path(reference_dir) / f"{workload}.npz"


def load_reference(reference_dir: Path, workload: str) -> dict[str, dict[str, np.ndarray]]:
    """{csv name: {column: values}} plus "__spans__": {"names": ...}."""
    table: dict[str, dict[str, np.ndarray]] = {}
    with np.load(reference_path(reference_dir, workload), allow_pickle=False) as npz:
        for key in npz.files:
            fname, column = key.split("::", 1)
            table.setdefault(fname, {})[column] = npz[key]
    return table


def _check_csv(path: Path, reference: dict[str, np.ndarray] | None,
               tolerance: float | None) -> str | None:
    columns = read_csv(path)
    for name, values in columns.items():
        if values.dtype.kind == "f" and not np.all(np.isfinite(values)):
            return f"{path.name}: non-finite values in {name}"
    for name in ORACLE_COLUMNS & set(columns):
        worst = np.max(columns[name], initial=0.0)
        if not worst <= ORACLE_LIMIT:
            return f"{path.name}: {name} {worst:.3e} > {ORACLE_LIMIT:g}"
    if tolerance is None:
        return None
    if reference is None:
        return f"{path.name}: no reference for this output"
    compared = [name for name in columns if name not in ORACLE_COLUMNS]
    if compared != list(reference):
        return f"{path.name}: columns {compared} differ from reference {list(reference)}"
    for name, want in reference.items():
        got = columns[name]
        if got.shape != want.shape:
            return f"{path.name}: {name} has {got.shape} values, reference {want.shape}"
        if want.dtype.kind != "f":
            if not np.array_equal(got, want):
                return f"{path.name}: {name} differs from reference"
            continue
        deviation = float(np.max(np.abs(got - want), initial=0.0))
        if not deviation <= tolerance:
            return f"{path.name}: {name} deviates {deviation:.3e} > {tolerance:g} from reference"
    return None


def check_pass(results: list, out: Path, reference: dict | None,
               tolerance: float | None) -> Tally:
    """Count the operations of one pass and the ones that failed."""
    tally = Tally()
    emitted = set()
    for result in results:
        if hasattr(result, "passed"):  # a verify CheckResult
            tally.op(None if result.passed else f"verify check failed: {result.line()}")
            continue
        name = result.scenario.get("name", "?")
        worst = max((v for k, v in result.checks.items()
                     if k.startswith("max_oracle_residual")), default=0.0)
        if result.status != "ok":
            tally.op(f"{name}: manifest status {result.status!r}")
        elif not worst <= ORACLE_LIMIT:
            tally.op(f"{name}: max oracle residual {worst:.3e} > {ORACLE_LIMIT:g}")
        else:
            tally.op()
        for output in result.outputs:
            if output["path"].endswith(".csv"):
                emitted.add(output["path"])
                ref = reference.get(output["path"]) if reference else None
                tally.op(_check_csv(out / output["path"], ref, tolerance))
    if tolerance is not None and reference:
        for missing in sorted(set(reference) - emitted - {"__spans__"}):
            tally.op(f"{missing}: reference output was not emitted")
    return tally
