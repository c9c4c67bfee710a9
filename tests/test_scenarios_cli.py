import json
import math
import os
import re
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oscbath import (Scenario, preset, preset_document, preset_names,
                     run_scenario, run_sweep, run_verification,
                     scenario_from_dict, scenario_to_dict, write_csv)
from oscbath.cli import main

SMALL_DOC = {
    "name": "small",
    "system": {"n_bath": 40, "coupling_amplitude": 0.1, "band": [0.5, 1.5]},
    "superposition": {"a": 1, "b": -1, "alpha0": 3, "beta0": -3},
    "partition": {"scheme": "centered", "size_b": 10},
    "time": {"t_end": 20.0, "samples": 50, "dt": 0.01},
    "method": "exact",
}


@pytest.fixture()
def decompositions(monkeypatch):
    """Bath sizes of the arrowhead eigendecompositions made during a test."""
    from oscbath import propagation
    calls = []
    solve = propagation._arrowhead_eigh
    monkeypatch.setattr(propagation, "_arrowhead_eigh",
                        lambda a00, gamma, diag: calls.append(diag.size)
                        or solve(a00, gamma, diag))
    return calls


def _read_csv(path):
    lines = Path(path).read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    return header, rows


class TestPresets:
    def test_names(self):
        assert preset_names() == ("fig3", "fig5", "fig7", "fig8", "fig9",
                                  "fig10a", "fig10b", "fig10c")

    def test_fig3_resolution(self):
        s = preset("fig3")
        assert s.system.n_bath == 1000
        assert s.system.band == (0.5, 1.5)
        assert s.partition_scheme == "none"
        assert s.emit == "excitation"
        assert s.superposition is None
        assert s.method == "exact"
        assert s.t_end == 100.0 and s.samples == 2000

    def test_fig5_blocks(self):
        s = preset("fig5")
        assert s.partition_scheme == "banded"
        assert s.partition_params["n_blocks"] == 10
        assert s.emit == "blocks"

    def test_fig10a_concurrence(self):
        s = preset("fig10a")
        assert s.partition_params["size_b"] == 100
        assert s.emit == "concurrence"
        assert s.superposition is not None
        assert s.superposition.b == -s.superposition.a
        assert s.superposition.o0 == pytest.approx(math.exp(-18.0), rel=1e-12)

    def test_fig7_carries_superposition(self):
        s = preset("fig7")
        assert s.emit == "bipartition"
        assert s.superposition is not None

    def test_unknown_preset(self):
        with pytest.raises(KeyError):
            preset("fig99")

    def test_documents_round_trip(self):
        for name in preset_names():
            doc = preset_document(name)
            json.dumps(doc)  # JSON-compatible
            rebuilt = scenario_to_dict(scenario_from_dict(doc))
            assert scenario_to_dict(scenario_from_dict(rebuilt)) == rebuilt


# config_hash of each preset's manifest and of the README sweep's: a change to how a
# manifest echoes its scenario that moves one byte of it moves the hash
README_SWEEP = {"name": "scan", "preset": "fig10a", "sizes_b": [100, 500, 900],
                "overlaps": [1.523e-8, 0.5]}
CONFIG_HASHES = {
    "fig3": "a531b2e07f0a50f175b4c53ab02e62ed87af0c89e7809e0fcf0148e06ae057d8",
    "fig5": "14794c889b5844946b95b2d5b09705144fb50fbc0513713c4bd2682a120d7d8f",
    "fig7": "232b137e97da10182afdc0cfc3279ec0e9ec17b9fee397d14619021a1cb859b0",
    "fig8": "7247664d7c714be1a172a55112627811747282074a96eae4fad41e4c9d125544",
    "fig9": "295c9f2a5f7891f50dcc876a9cc7a31efa39bf339e02324bfb64d11d0c9b7b03",
    "fig10a": "f3489f6c360e2f88adec4d4d4375a554825e40edde9a156c751da3e8dac0a33a",
    "fig10b": "b1d95689a606fc21217d21ee4b0c25c8aa42e9388963bbab5d75b23c3277378c",
    "fig10c": "45ace4390bd2053dc7c5b4459c17427861acc1e18d66cbdeb9bc2e54e7ca1606",
    "readme sweep": "903af83925dfff19fab40c720481d5d9890a7d071b79f5d56416d01ce74e966e"}


@pytest.mark.parametrize("name", CONFIG_HASHES)
def test_manifest_config_hash_stays(tmp_path, name):
    manifest = (run_sweep(README_SWEEP, tmp_path) if name == "readme sweep"
                else run_scenario(preset(name), tmp_path))
    assert manifest.config_hash == CONFIG_HASHES[name]
    saved = json.loads((tmp_path / f"{manifest.scenario['name']}_manifest.json").read_text())
    assert saved["config_hash"] == CONFIG_HASHES[name]


_PARTITIONS = st.one_of(
    st.just(("none", {})),
    st.integers(1, 999).map(lambda k: ("centered", {"size_b": k})),
    st.integers(1, 100).map(lambda k: ("banded", {"n_blocks": k})),
    st.just(("interleaved", {})),
    st.just(("explicit", {"blocks": [[1, 2, 3], [4, 5]], "labels": ["B", "C"]})))


@st.composite
def _varied_presets(draw):
    s = preset(draw(st.sampled_from(preset_names())))
    scheme, params = draw(_PARTITIONS)
    emits = ["excitation"]
    if scheme != "none":
        emits += ["blocks", "bipartition"] + (["concurrence"] if s.superposition else [])
    return replace(s, method=draw(st.sampled_from(["exact", "rk4", "both"])),
                   samples=draw(st.integers(1, 100_000)),
                   dt=draw(st.floats(min_value=1e-6, max_value=10.0)),
                   partition_scheme=scheme, partition_params=params,
                   emit=draw(st.sampled_from(emits)))


@settings(max_examples=100, deadline=None)
@given(_varied_presets())
def test_scenario_round_trip_property(s):
    doc = scenario_to_dict(s)
    assert scenario_from_dict(doc) == s
    assert scenario_from_dict(json.loads(json.dumps(doc))) == s


class TestScenarioParsing:
    def test_complex_entry_forms(self):
        doc = dict(SMALL_DOC)
        doc["superposition"] = {"a": [0.5, 0.5], "b": "-1+0.5j",
                                "alpha0": 2, "beta0": [-2, 0]}
        s = scenario_from_dict(doc)
        assert s.superposition.a == 0.5 + 0.5j
        assert s.superposition.b == -1 + 0.5j

    def test_missing_system_rejected(self):
        with pytest.raises(ValueError):
            scenario_from_dict({"name": "x"})

    def test_bad_method_rejected(self):
        doc = dict(SMALL_DOC)
        doc["method"] = "magic"
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    def test_concurrence_needs_superposition(self):
        doc = dict(SMALL_DOC)
        doc.pop("superposition")
        doc["emit"] = "concurrence"
        with pytest.raises(ValueError):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section, key", [
        (None, "sampels"), (None, "methd"), ("system", "nbath"),
        ("superposition", "alpha"), ("time", "t_max"), ("partition", "n_blocks")])
    def test_unknown_key_rejected(self, section, key):
        doc = json.loads(json.dumps(SMALL_DOC))
        (doc if section is None else doc[section])[key] = 5
        with pytest.raises(ValueError, match=key):
            scenario_from_dict(doc)

    def test_typo_exits_bad_input(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_DOC, "sampels": 5, "methd": "rk4"}))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out" / "small.csv").exists()

    # changes made through the Python API, and the error each raises or None: the API
    # reads partition values as a document does, so every manifest it writes reruns
    @pytest.mark.parametrize("changes, error", [
        ({}, None),
        ({"partition_scheme": "centered", "partition_params": {"size_b": 5.0}}, None),
        ({"partition_scheme": "centered", "partition_params": {"size_b": 5, "n_blocks": 3}},
         "unknown partition (centered) key(s) n_blocks"),
        ({"partition_scheme": "centered", "partition_params": {}},
         "partition (centered) needs size_b"),
        ({"name": 5}, "name must be text, got 5"),
        ({"out_dir": 5}, "out_dir must be text, got 5")])
    def test_manifest_round_trip_with_every_key(self, tmp_path, changes, error):
        doc = {**SMALL_DOC, "name": "full", "emit": "concurrence", "svg": True,
               "out_dir": str(tmp_path), "time": {"t_end": 2.0, "samples": 5, "dt": 0.01},
               "system": {**SMALL_DOC["system"], "omega0": 1.0, "force_resonant": True,
                          "couplings": [0.01] * 40},
               "partition": {"scheme": "explicit", "labels": ["B", "C"],
                             "blocks": [list(range(1, 11)), list(range(11, 41))]}}
        if error is not None:
            with pytest.raises(ValueError, match=re.escape(error)):
                replace(scenario_from_dict(doc), **changes)
            return
        s = replace(scenario_from_dict(doc), **changes)
        manifest = run_scenario(s)
        saved = json.loads((tmp_path / "full_manifest.json").read_text())
        assert manifest.status == "ok"
        assert scenario_from_dict(saved) == s
        # the rerun echoes the same scenario: a size_b of 5.0 is saved as 5
        assert run_scenario(scenario_from_dict(saved), tmp_path / "again").config_hash \
            == manifest.config_hash

    @pytest.mark.parametrize("section, key, value, message", [
        ("system", "n_bath", 40.7, "n_bath must be an integer"),
        ("system", "n_bath", True, "n_bath must be an integer"),
        ("time", "samples", 50.5, "samples must be an integer"),
        ("partition", "size_b", 10.9, "size_b must be an integer"),
        ("partition", None, {"scheme": "banded", "n_blocks": 4.5}, "n_blocks must be an integer"),
        # int() would cut 1.5 and True to 1, and the run would go ahead on blocks it was not given
        ("partition", None, {"scheme": "explicit", "labels": ["B", "C"],
                             "blocks": [[1.5, *range(2, 11)], list(range(11, 41))]},
         "block index must be an integer"),
        ("partition", None, {"scheme": "explicit", "labels": ["B", "C"],
                             "blocks": [[True, *range(2, 11)], list(range(11, 41))]},
         "block index must be an integer"),
        ("system", "force_resonant", "false", "force_resonant must be true or false"),
        (None, "svg", "no", "svg must be true or false"),
        # float() raises TypeError for these, and iterating a number does too
        ("system", "n_bath", None, "n_bath must be an integer"),
        ("partition", "size_b", None, "size_b must be an integer"),
        ("partition", "size_b", [10], "size_b must be an integer"),
        # a key the scheme takes, left out
        ("partition", None, {"scheme": "centered"}, "partition (centered) needs size_b"),
        ("partition", None, {"scheme": "explicit", "labels": ["B", "C"], "blocks": 5},
         "blocks must be a list"),
        ("partition", None, {"scheme": "explicit", "labels": 5,
                             "blocks": [list(range(1, 11)), list(range(11, 41))]},
         "labels must be a list"),
        # float() raises TypeError for null and lists, and reads true as 1.0
        ("system", "coupling_amplitude", None, "coupling_amplitude must be a number"),
        ("system", "coupling_amplitude", True, "coupling_amplitude must be a number"),
        ("system", "omega0", [1.0], "omega0 must be a number"),
        ("system", "band", 5, "band must be a list"),
        ("system", "band", [0.5, None], "band must be a number"),
        ("time", "t_end", None, "t_end must be a number"),
        ("time", "dt", [0.01], "dt must be a number"),
        # float() passes NaN and infinities, which the run would carry into every row
        ("time", "t_end", math.nan, "t_end must be a number"),
        ("system", "coupling_amplitude", math.inf, "coupling_amplitude must be a number"),
        # complex() reads true as 1 and raises TypeError for null
        ("superposition", "a", True, "a must be a number"),
        ("superposition", "a", [True, 0], "a must be a number"),
        ("superposition", "a", [None, 1], "a must be a number"),
        # complex() names no key in its message for malformed text
        ("superposition", "a", "1+xj", "a must be a complex number, got '1+xj'"),
        ("superposition", "b", "j1", "b must be a complex number, got 'j1'"),
        # str() would read null as the label None
        ("partition", None, {"scheme": "explicit", "labels": [None, None],
                             "blocks": [list(range(1, 11)), list(range(11, 41))]},
         "each label must be text, got None"),
        # a section or a whole document that is not an object
        # a scheme that takes no key names none as allowed
        ("partition", None, {"scheme": "interleaved", "size_b": 5}, "size_b; allowed: none"),
        ("partition", None, {"scheme": "none", "size_b": 5}, "size_b; allowed: none"),
        ("superposition", None, 5, "superposition must be an object"),
        ("time", None, [1], "time must be an object"),
        ("system", None, None, "system must be an object"),
        (None, None, [1], "must be an object"),
        (None, None, 5, "must be an object"),
        (None, None, None, "must be an object")])
    def test_values_the_run_would_change_exit_bad_input(self, tmp_path, capsys, section, key,
                                                        value, message):
        doc = json.loads(json.dumps(SMALL_DOC))
        if section is None and key is None:
            doc = value
        elif key is None:
            doc[section] = value
        else:
            (doc if section is None else doc[section])[key] = value
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        # a flat sweep document is a scenario document plus the grid
        for command in ("simulate", "sweep"):
            assert main([command, str(cfg), "--out", str(tmp_path / "out")]) == 2
            assert message in capsys.readouterr().err
            assert not (tmp_path / "out").exists()

    def test_integral_floats_are_integers(self):
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["system"]["n_bath"], doc["time"]["samples"] = 40.0, 50.0
        doc["partition"]["size_b"] = 10.0
        s = scenario_from_dict(doc)
        assert (s.system.n_bath, s.samples) == (40, 50)
        from oscbath import build_bath_grid
        member = s.partition_spec(build_bath_grid(s.system)).member
        assert tuple(np.flatnonzero(member == 0) + 1) == tuple(range(16, 26))

    def test_integral_floats_save_the_config_hash_of_integers(self, tmp_path):
        doc = json.loads(json.dumps(SMALL_DOC))
        hashes = set()
        for size_b in (10, 10.0):
            doc["partition"]["size_b"] = size_b
            manifest = run_scenario(scenario_from_dict(doc), out_dir=tmp_path / repr(size_b))
            hashes.add(manifest.config_hash)
        assert len(hashes) == 1

    def test_explicit_partition(self):
        doc = dict(SMALL_DOC)
        doc["partition"] = {"scheme": "explicit",
                            "blocks": [[1, 2, 3], [4, 5]], "labels": ["B", "C"]}
        doc["emit"] = "bipartition"
        s = scenario_from_dict(doc)
        from oscbath import build_bath_grid
        part = s.partition_spec(build_bath_grid(s.system))
        assert part.member.tolist() == [0, 0, 0, 1, 1] + [-1] * 35  # (1, 2, 3), (4, 5)


class TestRunScenario:
    def test_concurrence_schema_and_manifest(self, tmp_path):
        s = scenario_from_dict(SMALL_DOC)
        manifest = run_scenario(s, out_dir=tmp_path)
        assert manifest.status == "ok"
        header, rows = _read_csv(tmp_path / "small.csv")
        assert header == ["t", "xi", "theta_b", "theta_c", "d_b", "d_c",
                          "concurrence", "oracle_residual"]
        assert rows.shape == (50, 8)
        assert np.all(np.diff(rows[:, 0]) > 0)
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)
        assert np.all(rows[:, 7] <= 1e-10)
        # manifest checksums match recomputation
        import hashlib
        for entry in manifest.outputs:
            digest = hashlib.sha256((tmp_path / entry["path"]).read_bytes()).hexdigest()
            assert digest == entry["sha256"]
        saved = json.loads((tmp_path / "small_manifest.json").read_text())
        assert saved["status"] == "ok"
        assert saved["tool_version"] == manifest.tool_version

    def test_excitation_schema(self, tmp_path):
        doc = dict(SMALL_DOC)
        doc.update(name="exc", partition={"scheme": "none"}, emit="excitation")
        doc.pop("superposition")
        manifest = run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        header, rows = _read_csv(tmp_path / "exc.csv")
        assert header == ["t", "xi", "theta"]
        assert rows.shape == (50, 3)
        assert manifest.checks["norm_residual_exact"] < 1e-9

    def test_blocks_schema(self, tmp_path):
        doc = dict(SMALL_DOC)
        doc.update(name="blk", partition={"scheme": "banded", "n_blocks": 4},
                   emit="blocks")
        doc.pop("superposition")
        run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        header, rows = _read_csv(tmp_path / "blk.csv")
        assert header == ["t", "theta_1", "theta_2", "theta_3", "theta_4"]

    def test_zero_horizon_single_row(self, tmp_path):
        doc = dict(SMALL_DOC)
        doc["name"] = "zero"
        doc["time"] = {"t_end": 0.0, "samples": 50, "dt": 0.01}
        run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        header, rows = _read_csv(tmp_path / "zero.csv")
        assert rows.shape[0] == 1
        assert rows[0, 0] == 0.0
        assert rows[0, 1] == pytest.approx(1.0, abs=1e-12)

    def test_rk4_sample_count_in_manifest(self, tmp_path):
        # samples = 7 over 2000 steps rounds to every 333rd step: six
        # multiples, the last step and t = 0 make 8 rows, not 7
        doc = {**SMALL_DOC, "name": "rk", "method": "rk4",
               "time": {"t_end": 20.0, "samples": 7, "dt": 0.01}}
        manifest = run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        _, rows = _read_csv(tmp_path / "rk.csv")
        assert manifest.checks["rk4_samples"] == rows.shape[0] == 8
        saved = json.loads((tmp_path / "rk_manifest.json").read_text())
        assert saved["checks"]["rk4_samples"] == 8
        exact = run_scenario(scenario_from_dict(SMALL_DOC), out_dir=tmp_path)
        assert "rk4_samples" not in exact.checks

    def test_exact_cauchy_rows_in_manifest(self, tmp_path, monkeypatch):
        # every preset integrates each row after e_0, so none comes from the Cauchy product
        for name in preset_names():
            assert run_scenario(preset(name), out_dir=tmp_path).checks["exact_cauchy_rows"] == 0
        saved = json.loads((tmp_path / "fig10c_manifest.json").read_text())
        assert saved["checks"]["exact_cauchy_rows"] == 0
        # a grid from t_0 > 0 takes its first row from it; the count stays out of the CSV
        monkeypatch.setattr(Scenario, "exact_times",
                            lambda s: 5.0 + np.linspace(0.0, s.t_end, s.samples))
        manifest = run_scenario(scenario_from_dict(SMALL_DOC), out_dir=tmp_path)
        assert manifest.checks["exact_cauchy_rows"] == 1
        assert "cauchy" not in (tmp_path / "small.csv").read_text()
        sweep = run_sweep({"name": "scan", "base": SMALL_DOC, "sizes_b": [10],
                           "overlaps": [0.5]}, out_dir=tmp_path)
        assert sweep.checks["exact_cauchy_rows"] == 1

    @pytest.mark.parametrize("method", ["rk4", "both"])
    def test_rk4_dt_guideline_in_manifest(self, tmp_path, method):
        from oscbath import build_bath_grid, build_generator, gershgorin_bound
        doc = {**SMALL_DOC, "name": method, "method": method,
               "time": {"t_end": 2.0, "samples": 5, "dt": 0.01}}
        s = scenario_from_dict(doc)
        manifest = run_scenario(s, out_dir=tmp_path)
        gen = build_generator(build_bath_grid(s.system))
        assert manifest.checks["rk4_dt_guideline"] == 0.05 / gershgorin_bound(gen)
        saved = json.loads((tmp_path / f"{method}_manifest.json").read_text())
        assert saved["checks"]["rk4_dt_guideline"] == manifest.checks["rk4_dt_guideline"]
        exact = run_scenario(scenario_from_dict(SMALL_DOC), out_dir=tmp_path)
        assert "rk4_dt_guideline" not in exact.checks

    def test_byte_identical_reruns(self, tmp_path):
        s = scenario_from_dict(SMALL_DOC)
        run_scenario(s, out_dir=tmp_path / "one")
        run_scenario(s, out_dir=tmp_path / "two")
        first = (tmp_path / "one" / "small.csv").read_bytes()
        second = (tmp_path / "two" / "small.csv").read_bytes()
        assert first == second

    def test_both_methods(self, tmp_path):
        doc = dict(SMALL_DOC)
        doc.update(name="dual", method="both")
        manifest = run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        assert (tmp_path / "dual_exact.csv").exists()
        assert (tmp_path / "dual_rk4.csv").exists()
        assert manifest.checks["max_method_deviation"] < 1e-6
        assert manifest.checks["norm_residual_rk4"] < 1e-6

    def test_both_methods_decompose_once(self, tmp_path, decompositions):
        doc = {**SMALL_DOC, "name": "dual", "method": "both", "emit": "bipartition"}
        manifest = run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        assert decompositions == [40]
        assert manifest.checks["max_method_deviation"] < 1e-6

    def test_concurrence_needs_a_bipartition_of_the_bath(self, tmp_path):
        doc = {**SMALL_DOC, "partition": {"scheme": "explicit", "blocks": [[1, 2], [3, 4]],
                                          "labels": ["B", "C"]}}
        with pytest.raises(ValueError, match="full bath"):
            run_scenario(scenario_from_dict(doc), out_dir=tmp_path)

    def test_svg_output(self, tmp_path):
        doc = dict(SMALL_DOC)
        doc.update(name="plotted", svg=True)
        run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        svg = (tmp_path / "plotted.svg").read_text()
        assert svg.startswith("<svg")
        assert "polyline" in svg

    def test_identical_branches_write_no_negative_zero(self, tmp_path):
        doc = {**SMALL_DOC, "name": "same",
               "superposition": {"a": 1, "b": 1, "alpha0": 0.5, "beta0": 0.5}}
        run_scenario(scenario_from_dict(doc), out_dir=tmp_path)
        rows = (tmp_path / "same.csv").read_text().splitlines()[1:]
        fields = {field for row in rows for field in row.split(",")}
        assert "-0" not in fields

    def test_rerun_from_manifest(self, tmp_path):
        s = scenario_from_dict(SMALL_DOC)
        run_scenario(s, out_dir=tmp_path / "one")
        manifest_doc = json.loads((tmp_path / "one" / "small_manifest.json").read_text())
        rebuilt = scenario_from_dict(manifest_doc)
        run_scenario(rebuilt, out_dir=tmp_path / "two")
        assert ((tmp_path / "one" / "small.csv").read_bytes()
                == (tmp_path / "two" / "small.csv").read_bytes())


def test_csv_rows_match_per_value_format(tmp_path):
    edge = np.array([-0.0, np.inf, -np.inf, np.nan, 5e-324, 1.2e17, 1 / 3, 0.1, 2.0])
    columns = [edge, edge[::-1].copy(), np.arange(edge.size, dtype=float)]
    write_csv(tmp_path / "edge.csv", ["a", "b", "c"], columns)
    # the former writer: one format call per value, joined per row
    rows = ["a,b,c"] + [",".join(format(float(v), ".17g") for v in row)
                        for row in zip(*columns)]
    assert (tmp_path / "edge.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


def test_csv_text_and_integer_columns(tmp_path):
    # an integer column is written whole, a text column as it is
    columns = [np.array([1, 10**18, -7]), np.array(["a.csv", "b_o1.csv", "c"]),
               np.array([0.1, -0.0, 2.0])]
    write_csv(tmp_path / "mixed.csv", ["n", "file", "x"], columns)
    assert (tmp_path / "mixed.csv").read_bytes() == (
        b"n,file,x\n1,a.csv,0.10000000000000001\n"
        b"1000000000000000000,b_o1.csv,-0\n-7,c,2\n")


def test_index_rows_match_former_format(tmp_path):
    values = [np.array([1, 100, 999]), np.array([5e-324, 1.523e-8, 0.5]),
              np.array(["s_b1_o0.csv", "s_b100_o1.csv", "s_b999_o2.csv"])]
    values += [np.array([-0.0, 1 / 3, 1.2e17]) * k for k in (1, 2, 3, 4)]
    write_csv(tmp_path / "index.csv", ["size_b", "o0", "file", "c_end", "theta_b_end",
                                      "theta_c_end", "max_oracle_residual"], values)
    # the former index writer: one hand-written format per row
    rows = ["size_b,o0,file,c_end,theta_b_end,theta_c_end,max_oracle_residual"]
    rows += ["%d,%.17g,%s,%.17g,%.17g,%.17g,%.17g" % row
             for row in zip(*map(np.ndarray.tolist, values))]
    assert (tmp_path / "index.csv").read_bytes() == ("\n".join(rows) + "\n").encode()


class TestSweep:
    def test_grid_outputs(self, tmp_path):
        cfg = {"name": "scan", "base": SMALL_DOC,
               "sizes_b": [10, 20], "overlaps": [0.5, 0.1]}
        manifest = run_sweep(cfg, out_dir=tmp_path)
        assert manifest.status == "ok"
        index = (tmp_path / "scan_index.csv").read_text().splitlines()
        assert index[0] == "size_b,o0,file,c_end,theta_b_end,theta_c_end,max_oracle_residual"
        assert len(index) == 5
        for row in index[1:]:
            fname = row.split(",")[2]
            assert (tmp_path / fname).exists()

    def test_one_propagation_feeds_every_grid_point(self, tmp_path, monkeypatch,
                                                    decompositions):
        from oscbath.propagation import SpectralSolution
        calls = []
        share_chunks = SpectralSolution.share_chunks
        monkeypatch.setattr(SpectralSolution, "share_chunks",
                            lambda self: calls.append(self.times.size) or share_chunks(self))
        cfg = {"name": "scan", "base": SMALL_DOC, "sizes_b": [10, 20, 30], "overlaps": [0.5]}
        assert run_sweep(cfg, out_dir=tmp_path).status == "ok"
        assert calls == [50]
        assert decompositions == [40]

    def test_base_svg_writes_plots(self, tmp_path):
        import hashlib
        cfg = {"name": "scan", "base": {**SMALL_DOC, "svg": True},
               "sizes_b": [10, 20], "overlaps": [0.5]}
        manifest = run_sweep(cfg, out_dir=tmp_path)
        assert manifest.scenario["base"]["svg"] is True
        digests = {entry["path"]: entry["sha256"] for entry in manifest.outputs}
        for stem in ("scan_b10_o0", "scan_b20_o0"):
            svg = tmp_path / f"{stem}.svg"
            assert svg.read_text().startswith("<svg")
            assert digests[svg.name] == hashlib.sha256(svg.read_bytes()).hexdigest()
        # the index is no time series: a CSV only
        assert "scan_index.csv" in digests and not (tmp_path / "scan_index.svg").exists()

    def test_flat_document(self, tmp_path):
        cfg = {**SMALL_DOC, "sizes_b": [10], "overlaps": [0.5]}
        manifest = run_sweep(cfg, out_dir=tmp_path)
        assert manifest.status == "ok"
        assert (tmp_path / "small_b10_o0.csv").exists()
        with pytest.raises(ValueError, match="sampels"):
            run_sweep({**cfg, "sampels": 5}, out_dir=tmp_path)

    def test_header_matches_scenario_concurrence_header(self, tmp_path):
        run_scenario(scenario_from_dict(SMALL_DOC), out_dir=tmp_path)
        run_sweep({"name": "scan", "base": SMALL_DOC, "sizes_b": [10],
                   "overlaps": [0.5]}, out_dir=tmp_path)
        header = (tmp_path / "small.csv").read_text().splitlines()[0]
        assert (tmp_path / "scan_b10_o0.csv").read_text().splitlines()[0] == header

    @pytest.mark.parametrize("extra, key", [
        ({"sizes": [10]}, "sizes"), ({"overlap": [0.5]}, "overlap"),
        ({"preset": "fig10a"}, "not both")])
    def test_rejects_unknown_sweep_keys(self, tmp_path, extra, key):
        cfg = {"name": "scan", "base": SMALL_DOC, **extra}
        with pytest.raises(ValueError, match=key):
            run_sweep(cfg, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_rejects_bad_overlap(self, tmp_path):
        cfg = {"name": "scan", "base": SMALL_DOC, "sizes_b": [10],
               "overlaps": [1.0]}
        with pytest.raises(ValueError):
            run_sweep(cfg, out_dir=tmp_path)

    @pytest.mark.parametrize("method", ["rk4", "both"])
    def test_rejects_non_exact_base(self, tmp_path, method):
        # a sweep propagates exactly, so any other base method would be
        # recorded in the manifest without having been used
        cfg = {"name": "scan", "base": {**SMALL_DOC, "method": method},
               "sizes_b": [10], "overlaps": [0.5]}
        with pytest.raises(ValueError, match="exact"):
            run_sweep(cfg, out_dir=tmp_path)
        assert not any(tmp_path.iterdir())

    def test_rerun_from_manifest(self, tmp_path):
        cfg = {"name": "scan", "base": SMALL_DOC,
               "sizes_b": [10, 20], "overlaps": [0.5, 0.1]}
        first = run_sweep(cfg, out_dir=tmp_path / "one")
        manifest_doc = json.loads((tmp_path / "one" / "scan_manifest.json").read_text())
        again = run_sweep(manifest_doc, out_dir=tmp_path / "two")
        assert again.config_hash == first.config_hash
        assert again.outputs == first.outputs
        for entry in first.outputs:
            assert ((tmp_path / "one" / entry["path"]).read_bytes()
                    == (tmp_path / "two" / entry["path"]).read_bytes())

    def test_index_lists_each_grid_point_in_the_former_format(self, tmp_path):
        cfg = {"name": "scan", "base": SMALL_DOC, "sizes_b": [10, 30], "overlaps": [0.5, 0.1]}
        manifest = run_sweep(cfg, out_dir=tmp_path)
        expected = ["size_b,o0,file,c_end,theta_b_end,theta_c_end,max_oracle_residual"]
        for size_b in cfg["sizes_b"]:
            for j, o0 in enumerate(cfg["overlaps"]):
                fname = f"scan_b{size_b}_o{j}.csv"
                # 17 significant digits round-trip, so the parsed values reformat exactly
                _, rows = _read_csv(tmp_path / fname)
                ends = (rows[-1, 6], rows[-1, 2], rows[-1, 3], rows[:, 7].max())
                expected.append("%d,%.17g,%s,%.17g,%.17g,%.17g,%.17g"
                                % (size_b, o0, fname, *ends))
        assert (tmp_path / "scan_index.csv").read_text().splitlines() == expected
        assert [entry["path"] for entry in manifest.outputs] == [
            "scan_b10_o0.csv", "scan_b10_o1.csv", "scan_b30_o0.csv", "scan_b30_o1.csv",
            "scan_index.csv"]


class TestCli:
    def test_simulate_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_DOC))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "small.csv").exists()

    def test_simulate_needs_exactly_one_source(self, tmp_path):
        assert main(["simulate"]) == 2
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_DOC))
        assert main(["simulate", str(cfg), "--preset", "fig3"]) == 2

    def test_simulate_missing_file(self):
        assert main(["simulate", "/nonexistent/config.json"]) == 2

    def test_simulate_override_flags(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_DOC))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out"),
                     "--t-end", "5", "--samples", "11", "--svg"]) == 0
        header, rows = _read_csv(tmp_path / "out" / "small.csv")
        assert rows.shape[0] == 11
        assert rows[-1, 0] == pytest.approx(5.0)
        assert (tmp_path / "out" / "small.svg").exists()

    def test_preset_list_and_dump(self, capsys):
        assert main(["preset", "--list"]) == 0
        out = capsys.readouterr().out
        assert "fig3" in out and "fig10c" in out
        assert main(["preset", "--dump", "fig3"]) == 0
        dumped = json.loads(capsys.readouterr().out)
        assert dumped["system"]["n_bath"] == 1000

    def test_preset_unknown_name(self):
        assert main(["preset", "--dump", "fig99"]) == 2

    def test_verify_small_config_passes(self, tmp_path, capsys):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 50,
                                   "rk4_t_end": 5.0}))
        assert main(["verify", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "all checks passed" in out
        assert "norm_conservation_exact" in out

    def test_verify_injected_fault_fails(self, tmp_path, capsys):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 10,
                                   "rk4_t_end": 5.0}))
        assert main(["verify", "--config", str(cfg),
                     "--inject-fault", "generator-asymmetry"]) == 1
        out = capsys.readouterr().out
        assert "FAILED checks" in out
        failed = out.splitlines()[-1]
        assert "norm_conservation_exact" in failed
        assert "rk4_norm_drift" in failed

    @pytest.mark.parametrize("fault", [None, "generator-asymmetry"])
    def test_verify_json(self, tmp_path, capsys, fault):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 10,
                                   "rk4_t_end": 5.0}))
        argv = ["verify", "--config", str(cfg), "--json"]
        assert main(argv + (["--inject-fault", fault] if fault else [])) == (1 if fault else 0)
        out = capsys.readouterr().out

        def strict(token):
            raise ValueError(f"not strict JSON: {token}")

        results = json.loads(out, parse_constant=strict)  # the whole of stdout
        assert [r["name"] for r in results] == [r.name for r in run_verification(
            {"n_bath": 60, "samples": 41, "draws": 10, "rk4_t_end": 5.0})]
        for r in results:
            assert set(r) == {"name", "residual", "threshold", "passed", "note", "seconds"}
            assert r["passed"] == (r["residual"] is not None
                                   and r["residual"] <= r["threshold"])
            assert math.isfinite(r["seconds"]) and r["seconds"] >= 0
        failed = {r["name"]: r for r in results if not r["passed"]}
        if fault is None:
            assert not failed
        else:
            # the check that raised has no residual, and its note says why
            check = failed["norm_conservation_exact"]
            assert check["residual"] is None and "not symmetric" in check["note"]
            assert "rk4_norm_drift" in failed

    def test_python_m_oscbath(self):
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-m", "oscbath", "preset", "--list"], cwd=root,
                              env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == list(preset_names())

    @pytest.mark.parametrize("cfg_doc, key", [
        ({"n_bath": 60, "rk4_tend": 5.0}, "rk4_tend"),
        ({"n_bath": 60, "superposition": {"a": 1, "b": -1, "alpha0": 3,
                                          "beta0": -3, "beta": 1}}, "beta")])
    def test_verify_unknown_config_key_exits_bad_input(self, tmp_path, capsys,
                                                      cfg_doc, key):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"key(s) {key};" in captured.err
        assert "residual" not in captured.out

    @pytest.mark.parametrize("key, value", [
        ("n_bath", 60.5), ("samples", 41.2), ("size_b", 6.5), ("draws", 10.5), ("seed", True)])
    def test_verify_non_integer_config_exits_bad_input(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 10, key: value}))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert f"{key} must be an integer" in captured.err
        assert "residual" not in captured.out

    @pytest.mark.parametrize("key, value, message", [
        ("t_end", None, "t_end must be a number"), ("dt", [0.01], "dt must be a number"),
        ("coupling_amplitude", True, "coupling_amplitude must be a number"),
        ("band", 5, "band must be a list"), ("band", [0.5, "x"], "band must be a number"),
        ("t_end", math.nan, "t_end must be a number"),
        ("superposition", {"a": None}, "a must be a number"),
        ("superposition", 5, "superposition must be an object"),
        # out of range: no time rows, or a check that would fail or do nothing for it
        ("t_end", 0, "t_end must be > 0, got 0.0"), ("t_end", -5, "t_end must be > 0"),
        ("samples", 0, "samples must be >= 1, got 0"), ("samples", -3, "samples must be >= 1"),
        ("dt", 0, "dt must be > 0"), ("rk4_t_end", -1, "rk4_t_end must be >= 0, got -1.0"),
        ("draws", -1, "draws must be >= 0"), ("seed", -1, "seed must be >= 0")])
    def test_verify_non_number_config_exits_bad_input(self, tmp_path, capsys, key, value,
                                                     message):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 10, key: value}))
        assert main(["verify", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert "residual" not in captured.out

    @pytest.mark.parametrize("flag, value", [
        ("--t-end", "nan"), ("--t-end", "inf"), ("--dt", "nan"), ("--dt", "inf")])
    def test_non_finite_time_flag_exits_bad_input(self, tmp_path, capsys, flag, value):
        assert main(["simulate", "--preset", "fig3", flag, value,
                     "--out", str(tmp_path / "out")]) == 2
        assert f"{flag[2:].replace('-', '_')} must be" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_verify_and_simulate_read_one_superposition(self, tmp_path, monkeypatch):
        from oscbath import SuperpositionInit, checks
        sup = {"a": [1, 0.5], "b": "-1+0.5j", "alpha0": 2, "beta0": [-2, 0]}
        expected = SuperpositionInit(1 + 0.5j, -1 + 0.5j, 2, -2)
        read = []
        factorization = checks.verify_overlap_factorization
        monkeypatch.setattr(checks, "verify_overlap_factorization", lambda traj, init, part:
                            read.append(init) or factorization(traj, init, part))
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 10,
                                   "superposition": sup}))
        assert main(["verify", "--config", str(cfg)]) == 0
        assert read == [expected]
        cfg.write_text(json.dumps({**SMALL_DOC, "superposition": sup}))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 0
        saved = json.loads((tmp_path / "out" / "small_manifest.json").read_text())
        assert scenario_from_dict(saved).superposition == expected

    def test_verify_coarse_step_fails(self, tmp_path, capsys):
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"n_bath": 60, "samples": 41, "draws": 10,
                                   "dt": 1.0, "rk4_t_end": 20.0}))
        assert main(["verify", "--config", str(cfg)]) == 1
        out = capsys.readouterr().out
        assert "rk4_norm_drift" in out and "FAIL" in out

    def test_sweep_cli(self, tmp_path):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"name": "scan", "base": SMALL_DOC,
                                   "sizes_b": [10], "overlaps": [0.5, 0.99999999]}))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 0
        assert (tmp_path / "out" / "scan_index.csv").exists()

    def test_sweep_manifest_reruns_with_sweep_not_simulate(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"name": "scan", "base": SMALL_DOC,
                                   "sizes_b": [10], "overlaps": [0.5]}))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "one")]) == 0
        capsys.readouterr()
        manifest = tmp_path / "one" / "scan_manifest.json"
        assert main(["simulate", str(manifest), "--out", str(tmp_path / "two")]) == 2
        assert "oscbath sweep" in capsys.readouterr().err
        assert not (tmp_path / "two").exists()
        assert main(["sweep", str(manifest), "--out", str(tmp_path / "two")]) == 0
        for name in ("scan_b10_o0.csv", "scan_index.csv"):
            assert ((tmp_path / "one" / name).read_bytes()
                    == (tmp_path / "two" / name).read_bytes())

    def test_verify_fault_names_the_failed_dependency(self, tmp_path, capsys):
        cfg_doc = {"n_bath": 100, "samples": 21, "rk4_t_end": 1.0}
        results = {r.name: r for r in run_verification(
            cfg_doc, inject_fault="generator-asymmetry")}
        assert not results["norm_conservation_exact"].passed
        for name in ("excitation_conservation", "overlap_factorization",
                     "closed_form_vs_oracle"):
            result = results[name]
            assert not result.passed
            assert result.residual == math.inf
            assert "norm_conservation_exact" in result.note
            assert "KeyError" not in result.note
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps(cfg_doc))
        assert main(["verify", "--config", str(cfg),
                     "--inject-fault", "generator-asymmetry"]) == 1
        failed = capsys.readouterr().out.splitlines()[-1]
        assert failed.startswith("FAILED checks: norm_conservation_exact, "
                                 "excitation_conservation, ")
        assert "overlap_factorization, closed_form_vs_oracle" in failed

    def test_sweep_preset_typo_exits_bad_input(self, tmp_path, capsys):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"preset": "fig10a", "sizes": [100]}))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "sizes" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("grid, message", [
        ({"sizes_b": [], "overlaps": [0.5]}, "at least one"),
        ({"sizes_b": [10], "overlaps": []}, "at least one"),
        ({"sizes_b": [10, 20, 10], "overlaps": [0.5]}, "repeats"),
        ({"sizes_b": [0], "overlaps": [0.5]}, "size_b must be in"),
        ({"sizes_b": [10, 41], "overlaps": [0.5]}, "size_b must be in"),
        ({"sizes_b": [10.5], "overlaps": [0.5]}, "sizes_b must be an integer"),
        ({"sizes_b": [True], "overlaps": [0.5]}, "sizes_b must be an integer")])
    def test_sweep_bad_grid_exits_bad_input_before_output(self, tmp_path, capsys,
                                                          grid, message):
        cfg = tmp_path / "sweep.json"
        cfg.write_text(json.dumps({"name": "scan", "base": SMALL_DOC, **grid}))
        assert main(["sweep", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("partition, message", [
        ({"scheme": "centered", "size_b": 0}, "size_b must be in"),
        ({"scheme": "centered", "size_b": 41}, "size_b must be in"),
        ({"scheme": "explicit", "blocks": [[1, 41], list(range(2, 41))],
          "labels": ["B", "C"]}, "exceeds bath size"),
        ({"scheme": "explicit", "blocks": [[1, 10 ** 20]], "labels": ["B"]}, "exceeds bath size"),
        # each label heads a CSV column theta_<label, lower-cased>
        *(({"scheme": "explicit", "blocks": [list(range(1, 21)), list(range(21, 41))],
            "labels": labels}, message) for labels, message in [
            (["B", "b"], "labels 'B' and 'b'"), (["x,y", "z"], "label 'x,y'"),
            (["a\nb", "c"], "label 'a\\nb'"), (["", "c"], "label ''")])])
    def test_simulate_partition_out_of_range_exits_before_output(self, tmp_path, capsys,
                                                                 partition, message):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_DOC, "partition": partition}))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert message in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_concurrence_on_a_partial_partition_exits_before_output(self, tmp_path, capsys,
                                                                    decompositions):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**SMALL_DOC, "partition": {
            "scheme": "explicit", "blocks": [[1, 2], [3, 4]], "labels": ["B", "C"]}}))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "full bath" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()
        assert decompositions == []  # refused before the propagation

    @pytest.mark.parametrize("method", ["rk4", "both"])
    def test_rk4_states_over_budget_exit_before_anything(self, tmp_path, capsys, method):
        import tracemalloc
        from oscbath.scenarios import _MAX_STATE_BYTES
        # 2001 samples of 10^5 + 1 modes: 3.2 GB of complex states
        doc = {**SMALL_DOC, "system": {**SMALL_DOC["system"], "n_bath": 100_000},
               "time": {"t_end": 20.0, "samples": 2001, "dt": 0.01}, "method": method}
        assert 2001 * 100_001 * 16 > _MAX_STATE_BYTES
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="budget"):
                run_scenario(scenario_from_dict(doc), out_dir=tmp_path / "out")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the bath grid alone would take 2.4 MB (three arrays of 10^5 floats)
        assert peak < 2 ** 20, f"peak {peak / 2**20:.1f} MiB"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert main(["simulate", str(cfg), "--out", str(tmp_path / "out")]) == 2
        assert "budget" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rk4_budget_counts_the_rows_evolve_rk4_holds(self, tmp_path):
        from oscbath.scenarios import _MAX_STATE_BYTES, _setup
        # 1023 steps, each one sampled, are 1024 rows of 2^16 modes: 2^30 bytes,
        # the budget itself; one step more is over it
        doc = {**SMALL_DOC, "system": {**SMALL_DOC["system"], "n_bath": 2 ** 16 - 1},
               "time": {"t_end": 1023.0, "samples": 1024, "dt": 1.0}, "method": "rk4"}
        assert 1024 * 2 ** 16 * 16 == _MAX_STATE_BYTES
        _setup(scenario_from_dict(doc), tmp_path / "fits")
        doc["time"] = {"t_end": 1024.0, "samples": 1025, "dt": 1.0}
        with pytest.raises(ValueError, match="budget"):
            _setup(scenario_from_dict(doc), tmp_path / "over")
        assert not (tmp_path / "over").exists()

    def test_simulate_and_sweep_print_the_same_report(self, tmp_path, capsys):
        import hashlib
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(SMALL_DOC))
        sweep = tmp_path / "sweep.json"
        sweep.write_text(json.dumps({"name": "scan", "base": SMALL_DOC,
                                     "sizes_b": [10], "overlaps": [0.5]}))
        for argv, out, names in (
                (["simulate", str(cfg)], tmp_path / "sim", ["small.csv"]),
                (["sweep", str(sweep)], tmp_path / "swp", ["scan_b10_o0.csv", "scan_index.csv"])):
            assert main([*argv, "--out", str(out)]) == 0
            lines = capsys.readouterr().out.splitlines()
            assert len(lines) == len(names) + 1
            for line, name in zip(lines, names):
                digest = hashlib.sha256((out / name).read_bytes()).hexdigest()
                assert line == f"wrote {name}  sha256 {digest[:16]}"
            assert re.fullmatch(r"status: ok  \(\d+\.\d\ds\)", lines[-1])


def _bad_values_of_every_key():
    """(command, section, key, value): null, true, a list and NaN for every key of every
    section reader, but true for a flag."""
    from oscbath.checks import _READERS
    from oscbath.scenarios import (_PARTITION, _SCENARIO, _SUPERPOSITION, _SWEEP, _SYSTEM,
                                   _TIME)
    tables = [("simulate", None, _SCENARIO), ("simulate", "system", _SYSTEM),
              ("simulate", "superposition", _SUPERPOSITION), ("simulate", "time", _TIME),
              ("simulate", "partition", _PARTITION), ("sweep", None, _SWEEP),
              ("verify", None, _READERS), ("verify", "superposition", _SUPERPOSITION)]
    return [pytest.param(command, section, key, value, id=f"{command}-{section}-{key}-{value}")
            for command, section, readers in tables for key in readers
            for value in (None, True, [None], math.nan)
            if not (value is True and key in ("svg", "force_resonant"))]


# the partition each partition key is fed into: one of a scheme that takes it
_PARTITION_OF = {"n_blocks": {"scheme": "banded", "n_blocks": 4},
                 **dict.fromkeys(("blocks", "labels"), {
                     "scheme": "explicit", "labels": ["B", "C"],
                     "blocks": [list(range(1, 11)), list(range(11, 41))]})}


@pytest.mark.parametrize("command, section, key, value", _bad_values_of_every_key())
def test_every_reader_refuses_null_true_lists_and_nan(tmp_path, capsys, command, section, key,
                                                      value):
    # a key whose reader lets one of these through fails here
    if command == "verify":
        doc = {"n_bath": 60, "samples": 41, "draws": 10}
    elif command == "sweep":
        doc = {"name": "scan", "base": SMALL_DOC, "sizes_b": [10], "overlaps": [0.5]}
        if key == "preset":
            del doc["base"]
    else:
        doc = json.loads(json.dumps(SMALL_DOC))
        doc["partition"] = _PARTITION_OF.get(key, doc["partition"])
    if section is not None:
        doc[section] = {**doc.get(section, {})}
    (doc if section is None else doc[section])[key] = value
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    argv = (["verify", "--config", str(cfg)] if command == "verify"
            else [command, str(cfg), "--out", str(tmp_path / "out")])
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and "residual" not in captured.out
    assert not (tmp_path / "out").exists()


@pytest.fixture()
def node_tables(monkeypatch):
    """Row counts of the share plans (node tables) cut during a test."""
    from oscbath import propagation
    calls = []
    spacing = propagation._spacing
    monkeypatch.setattr(propagation, "_spacing", lambda times, lam, diag: calls.append(
        times.size) or spacing(times, lam, diag))
    return calls


class TestSolutionMemo:
    """Runs on one system and time grid share one decomposition and one node table."""

    def test_presets_share_one_solution_and_write_fresh_bytes(self, tmp_path, decompositions,
                                                             node_tables):
        run_scenario(preset("fig7"), out_dir=tmp_path / "fig7")
        manifest = run_scenario(preset("fig10a"), out_dir=tmp_path / "fig10a")
        assert decompositions == [1000] and node_tables == [2000]
        # fig10a in a fresh process, which solves its own
        root = Path(__file__).resolve().parents[1]
        env = {**os.environ, "PYTHONPATH": str(root / "src")}
        done = subprocess.run([sys.executable, "-m", "oscbath", "simulate", "--preset", "fig10a",
                               "--out", str(tmp_path / "fresh")], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == 0, done.stderr
        fresh = json.loads((tmp_path / "fresh" / "fig10a_manifest.json").read_text())
        assert fresh["outputs"] == manifest.outputs

    def test_other_times_or_system_solve_again(self, decompositions):
        from oscbath import SystemConfig, build_bath_grid, build_generator, spectral_solution
        gen = build_generator(build_bath_grid(SystemConfig(n_bath=40)))
        other = build_generator(build_bath_grid(SystemConfig(n_bath=41)))
        times = np.linspace(0.0, 20.0, 50)
        first = spectral_solution(gen, times)
        assert spectral_solution(gen, list(times)) is first  # the same bytes
        assert decompositions == [40]
        spectral_solution(gen, times[:-1])
        spectral_solution(other, times[:-1])
        spectral_solution(gen._replace(a00=0.01), times[:-1])
        again = spectral_solution(gen, times)  # only the last solution is kept
        assert decompositions == [40, 40, 41, 40, 40]
        assert again is not first and np.array_equal(again.tau, first.tau)


@pytest.fixture()
def share_passes(monkeypatch):
    """Row counts of the spectral share passes run during a test."""
    from oscbath.propagation import SpectralSolution
    calls = []
    share_chunks = SpectralSolution.share_chunks
    monkeypatch.setattr(SpectralSolution, "share_chunks",
                        lambda self: calls.append(self.times.size) or share_chunks(self))
    return calls


def _explicit_doc(labels, blocks=((1, 2, 3), (4, 5))) -> dict:
    return {**SMALL_DOC, "emit": "bipartition" if len(blocks) == 2 else "blocks",
            "partition": {"scheme": "explicit", "blocks": [list(b) for b in blocks],
                          "labels": list(labels)}}


class TestProfileMemo:
    """A spectral solution keeps the shares of the partitions it was reduced for."""

    def test_fig10a_after_fig7_reads_its_shares(self, tmp_path, share_passes):
        run_scenario(preset("fig7"), out_dir=tmp_path)
        assert run_scenario(preset("fig10a"), out_dir=tmp_path).status == "ok"
        assert share_passes == [2000]

    def test_kept_shares_are_read_only(self, small_grid):
        from oscbath import (build_generator, centered_bipartition, excitation_profile,
                             spectral_solution)
        solution = spectral_solution(build_generator(small_grid), np.linspace(0.0, 20.0, 50))
        for partition in (None, centered_bipartition(small_grid, 10)):
            for _ in range(2):  # reduced, then read from the solution
                profile = excitation_profile(solution, partition)
                for name in ("xi", "theta", "theta_blocks")[:2 + (partition is not None)]:
                    with pytest.raises(ValueError, match="read-only"):
                        getattr(profile, name)[...] = 0.0

    def test_callers_labels_head_the_csv(self, tmp_path, share_passes):
        run_scenario(scenario_from_dict(_explicit_doc(["B", "C"])), out_dir=tmp_path / "bc")
        run_scenario(scenario_from_dict(_explicit_doc(["Left", "right"])), out_dir=tmp_path / "lr")
        (bc, bc_rows), (lr, lr_rows) = (_read_csv(tmp_path / d / "small.csv") for d in ("bc", "lr"))
        assert bc == ["t", "xi", "theta_b", "theta_c"]
        assert lr == ["t", "xi", "theta_left", "theta_right"]
        assert np.array_equal(bc_rows, lr_rows) and share_passes == [50]
        # the same member with one more (empty) block is another partition
        run_scenario(scenario_from_dict(_explicit_doc("BCD", ((1, 2, 3), (4, 5), ()))),
                     out_dir=tmp_path / "bcd")
        header, rows = _read_csv(tmp_path / "bcd" / "small.csv")
        assert header == ["t", "theta_b", "theta_c", "theta_d"] and not rows[:, 3].any()
        assert share_passes == [50, 50]

    def test_a_ninth_partition_drops_the_oldest(self, small_grid, share_passes):
        from oscbath import (build_generator, centered_bipartition, excitation_profile,
                             observables, spectral_solution)
        solution = spectral_solution(build_generator(small_grid), np.linspace(0.0, 20.0, 50))
        partitions = [centered_bipartition(small_grid, k) for k in range(1, 10)]
        assert observables._KEPT == 8
        for partition in partitions:
            excitation_profile(solution, partition)
        assert len(observables._PROFILES[solution]) == 8 and len(share_passes) == 9
        for partition in partitions[1:]:  # kept
            excitation_profile(solution, partition)
        assert len(share_passes) == 9
        excitation_profile(solution, partitions[0])  # dropped, so reduced again
        assert len(share_passes) == 10

    def test_dropping_the_solution_drops_its_shares(self, tmp_path):
        from oscbath import observables, propagation
        run_scenario(scenario_from_dict(SMALL_DOC), out_dir=tmp_path)
        kept = len(observables._PROFILES)
        assert kept >= 1
        propagation._solution.cache_clear()
        assert len(observables._PROFILES) == kept - 1


def test_bytes_do_not_depend_on_run_order(tmp_path):
    # every preset and README-sweep output against its sha256 from a run right after the kept
    # solution is dropped: forward, in reverse, and fig7 after the sweep's joint pass
    from oscbath import propagation

    def hashes(name):
        manifest = (run_sweep(README_SWEEP, tmp_path) if name == "sweep"
                    else run_scenario(preset(name), tmp_path))
        return {out["path"]: out["sha256"] for out in manifest.outputs}

    fresh = {}
    for name in [*preset_names(), "sweep"]:
        propagation._solution.cache_clear()
        fresh[name] = hashes(name)
    for name in [*preset_names(), *reversed(preset_names()), "sweep", "fig7"]:
        assert hashes(name) == fresh[name], name


class TestVerifyReferenceState:
    """verify reduces the reference state once and checks the table simulate writes."""

    def test_reference_state_is_reduced_once(self, monkeypatch):
        from oscbath.propagation import AmplitudeTrajectory
        calls = []
        share_chunks = AmplitudeTrajectory.share_chunks
        monkeypatch.setattr(AmplitudeTrajectory, "share_chunks", lambda self: calls.append(
            self.states.shape) or share_chunks(self))
        assert all(r.passed for r in run_verification())
        # the shared profile, then overlap_factorization
        assert calls == [(201, 1001)] * 2

    def test_no_draws_checks_the_trajectory_table(self, tmp_path, capsys, reference_grid,
                                                  reference_gen, cat_init):
        from oscbath import centered_bipartition, evolve_exact, excitation_profile
        from oscbath.scenarios import _concurrence_table
        cfg = tmp_path / "verify.json"
        cfg.write_text(json.dumps({"draws": 0}))
        assert main(["verify", "--config", str(cfg), "--json"]) == 0
        results = {r["name"]: r for r in json.loads(capsys.readouterr().out)}
        traj = evolve_exact(reference_gen, np.linspace(0.0, 100.0, 201))
        profile = excitation_profile(traj, centered_bipartition(reference_grid, 100))
        assert results["closed_form_vs_oracle"]["residual"] == _concurrence_table(
            cat_init, profile)[2]

    @staticmethod
    def _draws(monkeypatch, rng=None):
        """The inits and shares of verify's drawn oracle rows, from rng(seed) if given."""
        from oscbath import checks, oracle_residuals
        seen = []
        monkeypatch.setattr(checks, "oracle_residuals", lambda init, *shares: seen.append(
            (init, np.array(shares))) or oracle_residuals(init, *shares))
        if rng is not None:
            monkeypatch.setattr(np.random, "default_rng", rng)
        results = run_verification({"n_bath": 60, "samples": 41, "draws": 20,
                                    "rk4_t_end": 1.0})
        assert all(r.passed for r in results)
        (inits, shares), = seen
        return inits, shares.T, {r.name: r.residual for r in results}

    def test_same_seed_same_residuals(self, monkeypatch):
        inits, shares, residuals = self._draws(monkeypatch)
        again, again_shares, again_residuals = self._draws(monkeypatch)
        assert len(inits) == 20 and again == inits
        assert np.array_equal(again_shares, shares)
        assert again_residuals == residuals

    def test_draw_with_tiny_a_is_left_out(self, monkeypatch):
        default_rng = np.random.default_rng

        class TinyFirstA:
            """default_rng(seed), but the first draw has a = 1e-7 (1 + i)."""

            def __init__(self, seed):
                self.rng = default_rng(seed)

            def normal(self, *args, **kwargs):
                parts = self.rng.normal(*args, **kwargs)  # draw, (re, im), (a, b, alpha0, beta0)
                parts[0, :, 0] = 1e-7
                return parts

            def dirichlet(self, *args, **kwargs):
                return self.rng.dirichlet(*args, **kwargs)

        inits, shares, _ = self._draws(monkeypatch)
        kept, kept_shares, _ = self._draws(monkeypatch, TinyFirstA)
        assert kept == inits[1:]
        assert np.array_equal(kept_shares, shares[1:])
