"""The public surface: oscbath re-exports exactly its layer modules' __all__."""

import importlib
import inspect
from pathlib import Path

import numpy as np
import pytest

import oscbath

LAYERS = ("model", "propagation", "observables", "concurrence", "wootters",
          "scenarios", "checks")
REFERENCE = Path(__file__).resolve().parents[1] / "perfbench" / "reference"


def _layer(name):
    return importlib.import_module(f"oscbath.{name}")


def test_all_is_the_union_of_the_layers():
    union = [name for layer in LAYERS for name in _layer(layer).__all__]
    assert len(union) == len(set(union))
    assert sorted(oscbath.__all__) == sorted(union)
    for layer in LAYERS:
        module = _layer(layer)
        for name in module.__all__:
            assert getattr(oscbath, name) is getattr(module, name)


@pytest.mark.parametrize("name", ["mean_excitations", "OverlapSeries",
                                  "branch_overlap_series", "coherent_overlap",
                                  "TwoQubitDensityMatrix", "spin_flip", "product_eigenvalues",
                                  "factored_product_eigenvalues"])
def test_deleted_names_are_gone(name):
    with pytest.raises(ImportError):
        exec(f"from oscbath import {name}")
    assert not any(hasattr(_layer(layer), name) for layer in LAYERS)


@pytest.mark.parametrize("call", [
    lambda gen: oscbath.spectral_solution(gen, [0.0], u0=None),
    lambda gen: oscbath.evolve_exact(gen, [0.0], u0=None),
    lambda gen: oscbath.evolve_rk4(gen, 0.1, 0.01, u0=None)])
def test_propagators_take_no_initial_state(call):
    # every propagation starts from the paper's u(0) = e_0
    gen = oscbath.build_generator(oscbath.build_bath_grid(oscbath.SystemConfig(n_bath=4)))
    with pytest.raises(TypeError, match="u0"):
        call(gen)


def test_superposition_has_no_overlap_property():
    assert not hasattr(oscbath.normalize_superposition(1, -1, 3, -3), "overlap")


@pytest.mark.parametrize("workload", ["reference_presets", "verify_suite"])
def test_traced_spans_stay_public_functions(workload):
    # the benchmark tracer wraps the functions named in a layer's __all__;
    # a span recorded in a reference must keep a function to wrap
    with np.load(REFERENCE / f"{workload}.npz", allow_pickle=False) as npz:
        spans = [str(name) for name in npz["__spans__::names"]]
    assert spans
    for span in spans:
        layer, name = span.split(".")
        module = _layer(layer)
        assert name in module.__all__, span
        fn = getattr(module, name)
        assert inspect.isfunction(fn) and fn.__module__ == module.__name__, span
