"""The benchmark harness on test-size inputs (N / 10, --tiny)."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
SPEC = json.loads((BENCH.parent / "BENCHMARK.json").read_text())

sys.path.insert(0, str(BENCH))
try:
    import workloads
finally:
    sys.path.remove(str(BENCH))


def _run(workload, reference, trace=0, seed=0, cwd=None):
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--tiny",
           "--reference-dir", str(reference)]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120,
                          cwd=cwd or BENCH.parent)
    return proc


def _result(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def tiny_reference(tmp_path_factory):
    out = tmp_path_factory.mktemp("reference")
    subprocess.run([sys.executable, str(BENCH / "make_reference.py"), "--tiny",
                    "--out", str(out)], check=True, capture_output=True, timeout=120)
    return out


def _corrupt(reference, tmp_path, workload, edit):
    copy = tmp_path / "reference"
    shutil.copytree(reference, copy)
    path = copy / f"{workload}.npz"
    with np.load(path) as npz:
        arrays = dict(npz)
    edit(arrays)
    np.savez(path, **arrays)
    return copy


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_prints_every_metric(tiny_reference, workload, trace):
    assert {w["name"] for w in SPEC["workloads"]} <= set(workloads.WORKLOADS)
    proc = _run(workload, tiny_reference, trace)
    result = _result(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    lines = proc.stdout.splitlines()
    for metric in expected:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
        assert any(line.startswith(metric["name"] + " ")
                   and line.endswith(" " + metric["unit"]) for line in lines)
    assert "failed_frac 0 " in proc.stdout
    assert "layer not observed" not in proc.stdout


def test_corrupted_reference_raises_failed_frac(tiny_reference, tmp_path):
    def nudge(arrays):
        arrays["fig10a.csv::concurrence"][100] += 1e-9

    reference = _corrupt(tiny_reference, tmp_path, "reference_presets", nudge)
    result = _result(_run("reference_presets", reference, trace=1))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert result["metrics"]["failed_frac"]["value"] > 0


def test_renamed_layer_reads_not_observed(tiny_reference, tmp_path):
    def expect_more(arrays):
        names = list(arrays["__spans__::names"]) + ["propagation.evolve_renamed"]
        arrays["__spans__::names"] = np.array(names)

    reference = _corrupt(tiny_reference, tmp_path, "large_bath", expect_more)
    proc = _run("large_bath", reference, trace=1)
    result = _result(proc)
    assert "layer not observed: propagation.evolve_renamed" in proc.stdout
    assert result["metrics"]["trace.layers_missing"]["value"] == 1


def test_other_seed_changes_sweep_overlaps_and_passes_gates(tiny_reference):
    assert workloads.sweep_overlaps(0) == [1.523e-8, 0.5]
    assert workloads.sweep_overlaps(7) == workloads.sweep_overlaps(7)
    assert workloads.sweep_overlaps(7) != workloads.sweep_overlaps(8)
    result = _result(_run("sweep_grid", tiny_reference, seed=7))
    assert result["correct"] and result["attempted"] >= 1


def test_without_program_sources_exits_nonzero_without_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(BENCH.parent / "BENCHMARK.json", tmp_path)
    cmd = [sys.executable, "perfbench/run.py", "--workload", workloads.WORKLOADS[0],
           "--seed", "0", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
