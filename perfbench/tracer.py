"""Outside-in tracing of oscbath: one span per call of a public function.

`Tracer.install` wraps every function listed in the `__all__` of a layer
module and rebinds the wrapper in every `oscbath*` namespace that holds the
function, the defining module included.  Calls made inside `run_scenario`,
`run_sweep` and `run_verification` are therefore caught without touching
the package; time spent in private helpers (`_oracle_residuals`,
`_rk4_step`, ...) counts as self time of the public caller.

Each span is (name, start, end, parent) in flat arrays kept in memory and
written out by `save`.  A few wrappers also record counts taken from the
call's arguments or result, such as the bytes of a returned state array.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import os
import statistics
import sys
import time
from array import array
from pathlib import Path

import numpy as np

from workloads import rk4_steps

PACKAGE = "oscbath"
LAYERS = ("model", "propagation", "observables", "concurrence", "wootters",
          "scenarios", "checks")
PASS_SPAN = "bench.pass"


# qualname -> (counter, how to merge, value from (arguments, result)); the
# arguments come as a callable that binds them, so only counters that read
# them pay for binding
COUNTERS = {
    "propagation.evolve_exact":
        ("propagation.state_bytes", max, lambda a, r: r.states.nbytes),
    "propagation.evolve_rk4":
        ("propagation.rk4_steps", sum,
         lambda a, r: rk4_steps(float(a()["t_end"]), float(a()["dt"]))),
    "propagation.build_generator":
        ("propagation.generator_bytes", max, lambda a, r: r.nbytes),
    "wootters.crosscheck":
        ("wootters.max_residual", max, lambda a, r: r),
    "concurrence.concurrence_series":
        ("concurrence.rows", sum, lambda a, r: len(r.times)),
    "scenarios.write_csv":
        ("scenarios.csv_bytes", sum, lambda a, r: os.path.getsize(a()["path"])),
}

# per-layer metric -> (unit, function whose spans it reads, what it reads)
SPAN_METRICS = {
    "propagation.exact_s": ("s", "propagation.evolve_exact", "time"),
    "propagation.exact_calls": ("count", "propagation.evolve_exact", "calls"),
    "propagation.rk4_s": ("s", "propagation.evolve_rk4", "time"),
    "propagation.generator_s": ("s", "propagation.build_generator", "time"),
    "propagation.norm_residual_s": ("s", "propagation.norm_residual", "time"),
    "wootters.crosscheck_calls": ("count", "wootters.crosscheck", "calls"),
    "wootters.us_per_crosscheck": ("us", "wootters.crosscheck", "us_per_call"),
    "scenarios.csv_s": ("s", "scenarios.write_csv", "time"),
    "observables.calls": ("count", "observables", "calls"),
    **{f"{layer}.self_s": ("s", layer, "self")
       for layer in ("model", "observables", "concurrence", "wootters",
                     "scenarios", "checks")},
}
COUNTER_UNITS = {"propagation.state_bytes": "B", "propagation.rk4_steps": "count",
                 "propagation.generator_bytes": "B", "wootters.max_residual": "1",
                 "concurrence.rows": "count", "scenarios.csv_bytes": "B"}


class Tracer:
    """Spans of traced passes, recorded by wrappers around oscbath."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("q")
        self.parent = array("q")
        self._stack = [-1]
        self.counters: dict[str, float] = {}
        self.passes: list[tuple[int, int, dict[str, float]]] = []
        self._patched: list[tuple[object, str, object]] = []

    def _name_id(self, qualname: str) -> int:
        if qualname not in self._name_ids:
            self._name_ids[qualname] = len(self.names)
            self.names.append(qualname)
        return self._name_ids[qualname]

    def _wrap(self, qualname: str, fn):
        nid = self._name_id(qualname)
        counter = COUNTERS.get(qualname)
        signature = inspect.signature(fn)
        counters = self.counters
        # bound locally: the oracle makes ~10^5 traced calls a pass
        start, end, stack = self.start, self.end, self._stack
        name_append, parent_append = self.name.append, self.parent.append
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(start)
            name_append(nid)
            parent_append(stack[-1])
            end.append(0.0)
            stack.append(idx)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                stack.pop()
            if counter is not None:
                key, merge, value = counter
                count = value(lambda: signature.bind(*args, **kwargs).arguments, result)
                counters[key] = merge((counters.get(key, 0.0), float(count)))
            return result

        return traced

    def install(self) -> None:
        """Wrap the public functions of every layer and rebind the wrappers."""
        wrappers = {}
        for layer in LAYERS:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
            for attr in module.__all__:
                fn = getattr(module, attr)
                if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                    wrappers[fn] = self._wrap(f"{layer}.{attr}", fn)
        for modname, module in list(sys.modules.items()):
            if modname != PACKAGE and not modname.startswith(PACKAGE + "."):
                continue
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patched.append((module, attr, value))
                    setattr(module, attr, wrappers[value])

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._patched):
            setattr(module, attr, original)
        self._patched.clear()

    def traced_pass(self, run):
        """Run `run()` traced as one pass and return its result."""
        self.counters.clear()
        first = len(self.start)
        self.install()
        try:
            return self._wrap(PASS_SPAN, run)()
        finally:
            self.uninstall()
            self.passes.append((first, len(self.start), dict(self.counters)))

    def observed(self) -> set[str]:
        return {self.names[i] for i in set(self.name)} - {PASS_SPAN}

    def pass_metrics(self, first: int, stop: int, counters: dict) -> dict[str, float]:
        """Per-layer metrics of the pass whose spans are [first, stop)."""
        # slicing copies, so the span arrays export no buffer and can grow
        name = np.asarray(self.name[first:stop], dtype=np.int64)
        start = np.asarray(self.start[first:stop])
        dur = np.asarray(self.end[first:stop]) - start
        parent = np.asarray(self.parent[first:stop], dtype=np.int64) - first
        child = np.zeros_like(dur)
        inside = parent >= 0
        np.add.at(child, parent[inside], dur[inside])
        own = dur - child
        qual = np.array(self.names, dtype=object)[name]
        layer = np.array([q.split(".", 1)[0] for q in qual], dtype=object)

        metrics = {}
        for metric, (_, source, kind) in SPAN_METRICS.items():
            match = (qual == source) if "." in source else (layer == source)
            if kind == "self":
                metrics[metric] = float(own[match].sum())
            elif kind == "time":
                metrics[metric] = float(dur[match].sum())
            elif kind == "calls":
                metrics[metric] = float(match.sum())
            else:  # mean microseconds per call
                calls = int(match.sum())
                metrics[metric] = float(dur[match].sum()) / calls * 1e6 if calls else 0.0
        for key in COUNTER_UNITS:
            metrics[key] = float(counters.get(key, 0.0))
        return metrics

    def layer_metrics(self) -> dict[str, float]:
        """Median over traced passes (max for the oracle residual)."""
        per_pass = [self.pass_metrics(*p) for p in self.passes]
        return {key: (max if key == "wootters.max_residual" else statistics.median)(
                    [m[key] for m in per_pass])
                for key in per_pass[0]}

    def save(self, path: Path) -> None:
        """Write every span: names[name[i]], start[i], end[i], parent[i]."""
        np.savez(path, names=np.array(self.names),
                 name=np.array(self.name, dtype=np.int64),
                 start=np.array(self.start), end=np.array(self.end),
                 parent=np.array(self.parent, dtype=np.int64))


def units() -> dict[str, str]:
    """Unit of every metric `Tracer.layer_metrics` returns."""
    return {**{k: v[0] for k, v in SPAN_METRICS.items()}, **COUNTER_UNITS}
