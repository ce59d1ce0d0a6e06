import csv
import hashlib
import importlib
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

import bellrm
import bellrm.source
from bellrm import BtagFile, BtagWriter, ConfigError, ModelKind, OutcomeModel, RunConfig
from bellrm.cli import main
from bellrm.rundir import atomic_open

BASE_CONFIG = {
    "run": {
        "seed": 77,
        "run_duration_s": 12.0,
        "detection_prob_per_pulse": 0.0,
        "coincidence_prob_per_pulse": 0.05,
        "dark_rate_hz": 0.0,
    },
    "model": {"kind": "SCENARIO_LOCALITY_FALSE"},
    "analysis": {"n_slices": 2, "sequence_length": 10000},
}


def write_config(tmp_path, obj=None, name="config.json"):
    path = tmp_path / name
    with open(path, "w") as fh:
        json.dump(obj if obj is not None else BASE_CONFIG, fh)
    return path


def sha256(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


def config_digest(manifest):
    """SHA-256 of the canonical JSON of what fixes the bytes of events.btag."""
    bound = {
        "generator_version": manifest["generator_version"], "seed": manifest["seed"],
        "run": manifest["config"]["run"], "model": manifest["config"]["model"],
    }
    text = json.dumps(bound, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def fail_generation_after_one_block(monkeypatch):
    generate = bellrm.source.iter_event_chunks

    def fails_part_way(*args, **kwargs):
        chunks = generate(*args, **kwargs)
        yield next(chunks)
        raise RuntimeError("generator failed")

    monkeypatch.setattr(bellrm.source, "iter_event_chunks", fails_part_way)


@pytest.fixture
def sim_dir(tmp_path):
    cfg = write_config(tmp_path)
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    return out


# each bad model parameter and a part of the message that refuses it
BAD_MODEL_PARAMETERS = pytest.mark.parametrize(
    "kind, parameters, message",
    [
        ("SCENARIO_LOCALITY_FALSE", {"period": "x"}, "period must be an even integer >= 2"),
        ("SCENARIO_LOCALITY_FALSE", {"period": 2.5}, "period must be an even integer >= 2"),
        ("SCENARIO_LOCALITY_FALSE", {"period": True}, "period must be an even integer >= 2"),
        ("SCENARIO_LOCALITY_FALSE", {"period": 3}, "period must be an even integer >= 2"),
        ("SCENARIO_LOCALITY_FALSE", {"period": 0}, "period must be an even integer >= 2"),
        ("SCENARIO_LOCALITY_FALSE", {"period": 2**24 + 2}, "period must be at most 16777216"),
        ("SCENARIO_ERGODICITY_FALSE", {"period": 10**15}, "period must be at most 16777216"),
        ("NONERGODIC", {"drift_period_s": "x"}, "drift_period_s must be a finite number"),
        ("NONERGODIC", {"drift_period_s": float("nan")}, "drift_period_s must be a finite number"),
        ("NONERGODIC", {"drift_period_s": 0}, "drift_period_s must be > 0"),
        ("NONERGODIC", {"drift_period_s": -1}, "drift_period_s must be > 0"),
        ("SCENARIO_LOCALITY_FALSE", {"drift_period_s": 1}, "takes no parameters ['drift_period_s']"),
        ("QM_NONLOCAL", {"perod": 4}, "takes no parameters ['perod']"),
    ],
    ids=[
        "period-string", "period-float", "period-bool", "period-odd", "period-zero",
        "period-past-cap", "period-1e15",
        "drift-string", "drift-nan", "drift-zero", "drift-negative", "drift-on-scenario",
        "misspelt-parameter",
    ],
)


class TestSimulate:
    def test_produces_btag_and_manifest(self, sim_dir):
        with BtagFile(sim_dir / "events.btag") as events:
            assert len(events) > 0
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["seed"] == 77
        assert manifest["stats"]["n_events"] == len(events)
        # the digest covers the records, byte 32 on; the header is checked
        # byte by byte when the file is opened
        recorded = manifest["artifacts"]["events.btag"]
        data = (sim_dir / "events.btag").read_bytes()
        assert recorded == {
            "bytes": len(data), "records_sha256": hashlib.sha256(data[32:]).hexdigest()
        }

    def test_byte_identical_replay(self, tmp_path):
        cfg = write_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["simulate", "--config", str(cfg), "--out", str(out1)])
        main(["simulate", "--config", str(cfg), "--out", str(out2)])
        assert sha256(out1 / "events.btag") == sha256(out2 / "events.btag")

    def test_a_manifest_with_a_whole_file_digest_replays_but_does_not_analyze(
        self, sim_dir, tmp_path, capsys
    ):
        # manifests written before the record-region digest recorded the
        # SHA-256 of the whole file, and none recorded config_sha256
        manifest_path = sim_dir / "manifest.json"
        manifest = json.loads(manifest_path.read_text())
        del manifest["config_sha256"]
        manifest["artifacts"]["events.btag"] = {
            "bytes": (sim_dir / "events.btag").stat().st_size,
            "sha256": sha256(sim_dir / "events.btag"),
        }
        manifest_path.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main(["simulate", "--config", str(manifest_path), "--out", str(out)]) == 0
        assert sha256(out / "events.btag") == sha256(sim_dir / "events.btag")
        capsys.readouterr()
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        err = capsys.readouterr().err
        assert err.splitlines() == [
            f"data error: {manifest_path} records no config_sha256 to bind its config to "
            f"events.btag; replay the run with `bellrm simulate --config {manifest_path}` "
            "and analyze that"
        ]
        assert sorted(p.name for p in sim_dir.iterdir()) == ["events.btag", "manifest.json"]
        assert main(["analyze", "--in", str(out)]) == 0

    def test_manifest_is_a_valid_config(self, sim_dir, tmp_path):
        # re-running from the manifest reproduces the file bit for bit
        out = tmp_path / "replay"
        code = main(
            ["simulate", "--config", str(sim_dir / "manifest.json"), "--out", str(out)]
        )
        assert code == 0
        assert sha256(out / "events.btag") == sha256(sim_dir / "events.btag")

    def test_manifest_binds_the_config_that_fixes_the_events(self, sim_dir):
        # the analysis section is left out: overrides change it on purpose
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["config_sha256"] == config_digest(manifest)
        manifest["config"]["analysis"]["n_slices"] = 9
        assert manifest["config_sha256"] == config_digest(manifest)

    def test_config_round_trip_through_manifest(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        echoed = manifest["config"]["run"]
        assert RunConfig.from_dict(echoed).to_dict() == echoed

    def test_seed_flag_overrides(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "seeded"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", "123"])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 123

    def test_env_override(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLRM_SEED", "4242")
        monkeypatch.setenv("BELLRM_RUN_DURATION_S", "0.5")
        cfg = write_config(tmp_path)
        out = tmp_path / "env"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seed"] == 4242
        assert manifest["config"]["run"]["run_duration_s"] == 0.5

    def test_zero_duration_yields_empty_valid_file(self, tmp_path):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["run_duration_s"] = 0.0
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "empty"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        with BtagFile(out / "events.btag") as events:
            assert len(events) == 0 and events[:].size == 0

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["detection_prob_per_pulse"] = 0.9
        cfg = write_config(tmp_path, obj)
        code = main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")])
        assert code == 2
        assert "detection_prob_per_pulse" in capsys.readouterr().err

    def test_menu_beyond_its_settings_table_exits_2(self, tmp_path, capsys):
        menu = [[0.001 * k, 0.0] for k in range(4097)]
        run = {**BASE_CONFIG["run"], "run_duration_s": 0.01}
        out = tmp_path / "x"
        for entries, code in ((4096, 0), (4097, 2)):
            obj = {**BASE_CONFIG, "run": {**run, "settings_menu": menu[:entries]}}
            cfg = write_config(tmp_path, obj)
            assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == code
        assert "n^2 table of cross-pulse settings" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "config, menu_env, message",
        [
            (5, None, "does not hold a JSON object"),
            ({**BASE_CONFIG, "run": [1, 2]}, None, "section 'run' must be a JSON object"),
            ({**BASE_CONFIG, "analysis": "x"}, None, "section 'analysis' must be a JSON object"),
            ({**BASE_CONFIG, "model": 5}, None, "section 'model' must be a JSON object"),
            (
                {**BASE_CONFIG, "run": {**BASE_CONFIG["run"], "settings_menu": [[1]]}},
                None,
                "settings_menu[0] must be an [alpha, beta] pair",
            ),
            (BASE_CONFIG, "5", "settings_menu must be a list of [alpha, beta] pairs"),
            (BASE_CONFIG, '[[0, "x"]]', "settings_menu[0] angle must be a finite number"),
            (
                {**BASE_CONFIG, "model": {"kind": "QM_NONLOCAL", "parameters": 5}},
                None,
                "model parameters must be a JSON object",
            ),
        ],
        ids=[
            "top-level-number", "run-list", "analysis-string", "model-number",
            "menu-entry-of-one", "menu-env-number", "menu-angle-string", "parameters-number",
        ],
    )
    def test_malformed_config_shape_exits_2(
        self, tmp_path, monkeypatch, capsys, config, menu_env, message
    ):
        if menu_env is not None:
            monkeypatch.setenv("BELLRM_SETTINGS_MENU", menu_env)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(write_config(tmp_path, config)), "--out", str(out)]) == 2
        assert message in capsys.readouterr().err
        assert not (out / "events.btag").exists()

    @BAD_MODEL_PARAMETERS
    def test_bad_model_parameter_exits_2(
        self, tmp_path, capsys, kind, parameters, message
    ):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["run_duration_s"] = 0.01
        obj["model"] = {"kind": kind, "parameters": parameters}
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(write_config(tmp_path, obj)), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert message in err
        assert "Traceback" not in err
        assert not (out / "events.btag").exists()

    @BAD_MODEL_PARAMETERS
    def test_a_model_built_directly_refuses_a_bad_parameter(self, kind, parameters, message):
        with pytest.raises(ConfigError) as refused:
            OutcomeModel(ModelKind(kind), parameters)
        assert message in str(refused.value)

    def test_good_model_parameters_are_kept(self, tmp_path):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["run_duration_s"] = 0.01
        for model in (
            {"kind": "SCENARIO_LOCALITY_FALSE", "parameters": {"period": 2}},
            {"kind": "SCENARIO_ERGODICITY_FALSE", "parameters": {"period": 2**24}},
            {"kind": "NONERGODIC", "parameters": {"drift_period_s": 0.5}},
        ):
            obj["model"] = model
            out = tmp_path / model["kind"]
            assert main(["simulate", "--config", str(write_config(tmp_path, obj)), "--out", str(out)]) == 0
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["config"]["model"] == model

    def test_missing_config_exits_2(self, tmp_path):
        assert (
            main(["simulate", "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path / "x")])
            == 2
        )

    @pytest.mark.parametrize(
        "data, message",
        [(b"{", "Expecting property name"), (b"\xff\xfe{}", "can't decode byte 0xff")],
        ids=["not-json", "not-utf-8"],
    )
    def test_unreadable_config_exits_2(self, tmp_path, capsys, data, message):
        cfg = tmp_path / "config.json"
        cfg.write_bytes(data)
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith(f"configuration error: {cfg} is not a bellrm config: ")
        assert message in line

    def test_csv_mirror_flag(self, tmp_path):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["run_duration_s"] = 0.05
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "csv"
        main(["simulate", "--config", str(cfg), "--out", str(out), "--csv"])
        assert (out / "events.csv").exists()
        # the CSV has no header to patch: its digest covers the whole file
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"]["events.csv"] == {
            "bytes": (out / "events.csv").stat().st_size, "sha256": sha256(out / "events.csv")
        }

    def test_manifest_records_generator_version(self, sim_dir):
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        assert manifest["generator_version"] == 2

    @pytest.mark.parametrize("version", [None, 1])
    def test_manifest_of_another_generator_version_exits_2(
        self, sim_dir, tmp_path, capsys, version
    ):
        # a manifest without the field predates it: version 1
        manifest = json.loads((sim_dir / "manifest.json").read_text())
        del manifest["generator_version"]
        if version is not None:
            manifest["generator_version"] = version
        old = tmp_path / "old_manifest.json"
        old.write_text(json.dumps(manifest))
        out = tmp_path / "replay"
        assert main(["simulate", "--config", str(old), "--out", str(out)]) == 2
        assert "generator version 1" in capsys.readouterr().err
        assert not (out / "events.btag").exists()

    @pytest.mark.parametrize(
        "key, value, field",
        [
            ("BELLRM_DARK_RATE_HZ", "abc", "dark_rate_hz"),
            ("BELLRM_DARK_RATE_HZ", "NaN", "dark_rate_hz"),
            ("BELLRM_RUN_DURATION_S", "Infinity", "run_duration_s"),
            ("BELLRM_REP_RATE_HZ", "true", "rep_rate_hz"),
        ],
    )
    def test_non_finite_float_override_exits_2(
        self, tmp_path, monkeypatch, capsys, key, value, field
    ):
        monkeypatch.setenv(key, value)
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)]) == 2
        assert f"{field} must be a finite number" in capsys.readouterr().err
        assert not (out / "events.btag").exists()

    def test_failed_simulate_leaves_no_partial_file(self, tmp_path, monkeypatch):
        fail_generation_after_one_block(monkeypatch)
        out = tmp_path / "failed"
        with pytest.raises(RuntimeError, match="generator failed"):
            main(["simulate", "--config", str(write_config(tmp_path)), "--out", str(out)])
        assert list(out.iterdir()) == []

    def test_failed_simulate_keeps_the_earlier_events_file(self, sim_dir, monkeypatch):
        before = (sim_dir / "events.btag").read_bytes()
        fail_generation_after_one_block(monkeypatch)
        cfg = write_config(sim_dir.parent, name="again.json")
        with pytest.raises(RuntimeError, match="generator failed"):
            main(["simulate", "--config", str(cfg), "--out", str(sim_dir), "--seed", "78"])
        assert (sim_dir / "events.btag").read_bytes() == before
        assert sorted(p.name for p in sim_dir.iterdir()) == ["events.btag", "manifest.json"]

    def test_simulate_removes_outputs_of_the_previous_run(self, sim_dir, capsys):
        cfg = write_config(sim_dir.parent, name="csv_config.json")
        main(["simulate", "--config", str(cfg), "--out", str(sim_dir), "--csv"])
        main(["analyze", "--in", str(sim_dir)])
        main(["report", "--in", str(sim_dir)])
        derived = (
            "events.csv", "chsh_per_slice.csv", "sequences.csv", "curve.csv",
            "verdict.json", "summary.txt", "combined_curves.csv",
        )
        assert all((sim_dir / name).exists() for name in derived)
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_dir), "--seed", "78"]) == 0
        assert sorted(p.name for p in sim_dir.iterdir()) == ["events.btag", "manifest.json"]
        capsys.readouterr()
        assert main(["report", "--in", str(sim_dir)]) == 3
        assert "verdict.json" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field, value",
        [("serial_m", -5), ("serial_m", 0), ("serial_m", 1), ("block_size", 0), ("block_size", 1)],
    )
    def test_battery_parameter_below_two_exits_2(
        self, tmp_path, capsys, field, value
    ):
        # a run too short to fill a block would never reach the battery
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["run_duration_s"] = 0.01
        obj["analysis"][field] = value
        out = tmp_path / "x"
        assert main(["simulate", "--config", str(write_config(tmp_path, obj)), "--out", str(out)]) == 2
        assert f"analysis.{field} must be >= 2" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_pulse_duration_exits_2_before_touching_the_directory(self, sim_dir, capsys):
        assert main(["analyze", "--in", str(sim_dir)]) == 0
        before = {p.name: p.read_bytes() for p in sim_dir.iterdir()}
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["pulse_duration_s"] = 0.0
        cfg = write_config(sim_dir.parent, obj, name="zero_pulse.json")
        capsys.readouterr()
        assert main(["simulate", "--config", str(cfg), "--out", str(sim_dir)]) == 2
        assert "pulse_duration_s must be positive" in capsys.readouterr().err
        assert {"chsh_per_slice.csv", "sequences.csv", "curve.csv", "verdict.json"} <= set(before)
        assert {p.name: p.read_bytes() for p in sim_dir.iterdir()} == before

    def test_locked_directory_exits_3(self, tmp_path):
        cfg = write_config(tmp_path)
        out = tmp_path / "locked"
        out.mkdir()
        (out / ".lock").touch()
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 3


class TestAnalyze:
    def test_outputs_and_verdict(self, sim_dir):
        assert main(["analyze", "--in", str(sim_dir)]) == 0
        for name in ("chsh_per_slice.csv", "curve.csv", "sequences.csv", "verdict.json"):
            assert (sim_dir / name).exists(), name
        verdict = json.loads((sim_dir / "verdict.json").read_text())
        assert verdict["label"] == "LOCALITY_FALSE"
        assert verdict["r_first_half"] < verdict["r_second_half"]
        assert all(s > 2.7 for s in verdict["per_slice_S"])

    def test_a_pulse_that_ends_before_the_light_time_is_inconclusive(self, tmp_path):
        # a 30 ns pulse at 20 m ends before L/c = 66.71 ns: every slice lies
        # in the first half, so there is no second half to contrast it with
        run = {"seed": 3, "run_duration_s": 0.05, "pulse_duration_s": 3e-8}
        config = write_config(tmp_path, {"run": run})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert main(["analyze", "--in", str(out)]) == 0
        assert main(["report", "--in", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert (verdict["label"], verdict["reason"]) == (
            "INCONCLUSIVE", "slices do not cover both pulse halves"
        )
        summary = (out / "summary.txt").read_text()
        assert "verdict: INCONCLUSIVE (slices do not cover both pulse halves)" in summary

    def test_sequences_csv_shape(self, sim_dir):
        main(["analyze", "--in", str(sim_dir)])
        with open(sim_dir / "sequences.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert rows, "no per-sequence rows"
        assert list(rows[0]) == [
            "sequence_id", "slice_index", "station", "p_monobit", "p_runs",
            "p_block_frequency", "p_serial", "p_cusum", "overall_rejected", "compression_ratio",
        ]

    def test_slice_refinement_consistency(self, sim_dir):
        main(["analyze", "--in", str(sim_dir), "--slices", "2"])
        with open(sim_dir / "chsh_per_slice.csv") as fh:
            coarse = {r["slice_index"]: int(r["n_records"]) for r in csv.DictReader(fh)}
        main(["analyze", "--in", str(sim_dir), "--slices", "4"])
        with open(sim_dir / "chsh_per_slice.csv") as fh:
            fine = {r["slice_index"]: int(r["n_records"]) for r in csv.DictReader(fh)}
        assert coarse["0"] == fine["0"] + fine["1"]
        assert coarse["1"] == fine["2"] + fine["3"]

    def test_empty_run_is_inconclusive(self, tmp_path):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"]["run_duration_s"] = 0.0
        cfg = write_config(tmp_path, obj)
        out = tmp_path / "empty"
        main(["simulate", "--config", str(cfg), "--out", str(out)])
        assert main(["analyze", "--in", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["label"] == "INCONCLUSIVE"
        assert "no data" in verdict["reason"]

    def test_run_without_coincidences_is_inconclusive(self, tmp_path):
        obj = json.loads(json.dumps(BASE_CONFIG))
        obj["run"].update(run_duration_s=1.0, coincidence_prob_per_pulse=0.0, dark_rate_hz=1000.0)
        out = tmp_path / "darks"
        main(["simulate", "--config", str(write_config(tmp_path, obj)), "--out", str(out)])
        with BtagFile(out / "events.btag") as events:
            assert len(events) > 0
        assert main(["analyze", "--in", str(out)]) == 0
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["label"] == "INCONCLUSIVE"
        assert verdict["reason"] == "no data: no coincidences matched"

    def test_run_with_every_coincidence_outside_the_pulse_is_inconclusive(
        self, tmp_path, capsys
    ):
        # every event moved 500 ns later: past the end of its 133 ns pulse,
        # but before the next pulse starts, where a dark of its pulse may lie
        cfg = write_config(
            tmp_path, {"run": {"seed": 1, "run_duration_s": 0.5, "dark_rate_hz": 0.0}}
        )
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        with BtagFile(out / "events.btag") as btag_file:
            events = btag_file[:].copy()
        events["timestamp_ns"] += 500
        with BtagWriter(out / "events.btag") as writer:
            writer.write(events)
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["artifacts"]["events.btag"]["records_sha256"] = hashlib.sha256(
            (out / "events.btag").read_bytes()[32:]
        ).hexdigest()
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 0
        assert "analyze: 10002 coincidences, 0 sequences" in capsys.readouterr().out
        verdict = json.loads((out / "verdict.json").read_text())
        assert verdict["label"] == "INCONCLUSIVE"
        assert verdict["reason"] == (
            "no data in any slice: all 10002 matched coincidences fall outside the pulse"
        )

    def test_a_manifest_of_another_rep_rate_exits_3(self, tmp_path, capsys):
        # twice the run's rep rate: each pulse index then starts half as
        # late, and every event lies past the start of its pulse's successor
        cfg = write_config(tmp_path, {"run": {"seed": 1, "run_duration_s": 0.5}})
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        manifest["config"]["run"]["rep_rate_hz"] = 2e6
        # a digest that matches the edit, so the pulse-window check is reached
        manifest["config_sha256"] = config_digest(manifest)
        (out / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert main(["analyze", "--in", str(out)]) == 3
        assert "lies outside its pulse" in capsys.readouterr().err
        assert not (out / "verdict.json").exists()

    def test_overrides_take_the_file_then_the_environment_then_the_flag(
        self, tmp_path, monkeypatch, capsys
    ):
        def curve_rows(run):
            return len((run / "curve.csv").read_text().splitlines()) - 1

        cfg = write_config(
            tmp_path, {**DAMAGE_CONFIG, "analysis": {**DAMAGE_CONFIG["analysis"], "n_slices": 3}}
        )
        run = tmp_path / "run"
        # simulate records the file's analysis section, then BELLRM_SLICES
        for env, recorded in ((None, 3), ("5", 5)):
            if env is not None:
                monkeypatch.setenv("BELLRM_SLICES", env)
            assert main(["simulate", "--config", str(cfg), "--out", str(run)]) == 0
            manifest = json.loads((run / "manifest.json").read_text())
            assert manifest["config"]["analysis"]["n_slices"] == recorded
        # analyze takes the manifest's section, then BELLRM_SLICES, then --slices
        for env, flags, slices in ((None, [], 5), ("4", [], 4), ("4", ["--slices", "6"], 6)):
            monkeypatch.delenv("BELLRM_SLICES", raising=False)
            if env is not None:
                monkeypatch.setenv("BELLRM_SLICES", env)
            assert main(["analyze", "--in", str(run), *flags]) == 0
            assert curve_rows(run) == slices
        monkeypatch.setenv("BELLRM_SLICES", "null")
        capsys.readouterr()
        assert main(["analyze", "--in", str(run)]) == 2
        assert main(["simulate", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "n_slices" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["abc", "NaN", "Infinity"])
    def test_non_finite_alpha_sig_exits_2(self, sim_dir, capsys, monkeypatch, value):
        monkeypatch.setenv("BELLRM_ALPHA_SIG", value)
        assert main(["analyze", "--in", str(sim_dir)]) == 2
        assert "analysis.alpha_sig must be a finite number" in capsys.readouterr().err

    def test_corrupt_btag_exits_3_with_offset(self, sim_dir, capsys):
        data = (sim_dir / "events.btag").read_bytes()
        (sim_dir / "events.btag").write_bytes(data[:-5])
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        assert "byte offset" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "field_offset, value, message",
        [(12, 7, "station 7"), (13, 5, "port_bit 5")],
    )
    def test_out_of_range_field_exits_3(self, sim_dir, capsys, field_offset, value, message):
        path = sim_dir / "events.btag"
        data = bytearray(path.read_bytes())
        data[32 + 3 * 16 + field_offset] = value
        path.write_bytes(bytes(data))
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        err = capsys.readouterr().err
        assert message in err and f"byte offset {32 + 3 * 16}" in err
        assert not (sim_dir / "verdict.json").exists()

    def test_setting_outside_menu_exits_3(self, sim_dir, capsys):
        path = sim_dir / "events.btag"
        data = bytearray(path.read_bytes())
        data[32 + 5 * 16 + 14 : 32 + 5 * 16 + 16] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        assert "record 5 has setting_index 99" in capsys.readouterr().err
        assert not (sim_dir / "verdict.json").exists()

    def test_matched_record_outside_its_pulse_exits_3(self, sim_dir, capsys):
        # every event of this run is matched; record 3 keeps its time, port
        # and setting, but names the last pulse a u32 can hold
        path = sim_dir / "events.btag"
        data = bytearray(path.read_bytes())
        data[32 + 3 * 16 + 8 : 32 + 3 * 16 + 12] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: record 3 at ")
        assert "lies outside its pulse 4294967295" in err
        assert not (sim_dir / "verdict.json").exists()

    def test_records_out_of_order_exit_3(self, sim_dir, capsys):
        path = sim_dir / "events.btag"
        data = bytearray(path.read_bytes())
        first, second = slice(32, 48), slice(48, 64)
        data[first], data[second] = data[second], data[first]
        path.write_bytes(bytes(data))
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        assert "record 1 is not after record 0" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "fault, message",
        [
            ("swap", "record 200004 is not after record 200003"),
            ("station", "record 200003 has station 7 and port_bit"),
            ("setting", "record 200003 has setting_index 99"),
        ],
    )
    def test_fault_past_the_first_piece_names_its_place_in_the_file(
        self, sim_dir, capsys, fault, message
    ):
        # the file is read in pieces of 65,536 records; record 200,003 lies
        # in the fourth, and the error must still give its index in the file
        path = sim_dir / "events.btag"
        data = bytearray(path.read_bytes())
        assert len(data) > 32 + 16 * 300_000
        at = 32 + 16 * 200_003
        if fault == "swap":
            data[at : at + 16], data[at + 16 : at + 32] = data[at + 16 : at + 32], data[at : at + 16]
        elif fault == "station":
            data[at + 12] = 7
        else:
            data[at + 14 : at + 16] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        err = capsys.readouterr().err
        assert message in err
        if fault == "station":
            assert f"byte offset {at}" in err
        assert not (sim_dir / "verdict.json").exists()

    @pytest.mark.parametrize("key", ["BELLRM_SLICES", "BELLRM_WINDOW_NS"])
    def test_fractional_integer_override_exits_2(self, sim_dir, capsys, monkeypatch, key):
        monkeypatch.setenv(key, "2.5")
        assert main(["analyze", "--in", str(sim_dir)]) == 2
        assert "must be an integer, got 2.5" in capsys.readouterr().err

    def test_btag_of_another_size_than_the_manifest_exits_3(self, sim_dir, capsys):
        # a valid BTAG file, one record short of the one the manifest describes
        path = sim_dir / "events.btag"
        with BtagFile(path) as events, BtagWriter(path) as writer:
            writer.write(events[:-1])
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        err = capsys.readouterr().err
        assert "manifest.json records" in err and str(path.stat().st_size + 16) in err
        assert not (sim_dir / "verdict.json").exists()

    @pytest.mark.parametrize(
        "text",
        ["{", "[]", '{"config": {}}', '{"config": {"run": {}}}']
        + [
            '{"config": {"run": {}}, "artifacts": {"events.btag": {"bytes": %s}}}' % size
            for size in ('"abc"', "null", "-1", "true", "1.5")
        ],
    )
    def test_unusable_manifest_exits_3(self, sim_dir, capsys, text):
        (sim_dir / "manifest.json").write_text(text)
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        assert "is not a bellrm manifest" in capsys.readouterr().err

    def test_missing_btag_exits_3(self, sim_dir, capsys):
        (sim_dir / "events.btag").unlink()
        assert main(["analyze", "--in", str(sim_dir)]) == 3
        assert "missing" in capsys.readouterr().err
        assert not (sim_dir / ".lock").exists()

    def test_missing_manifest_exits_3(self, tmp_path):
        empty = tmp_path / "nothing"
        empty.mkdir()
        assert main(["analyze", "--in", str(empty)]) == 3


class TestReport:
    def test_single_run_summary(self, sim_dir):
        main(["analyze", "--in", str(sim_dir)])
        assert main(["report", "--in", str(sim_dir)]) == 0
        summary = (sim_dir / "summary.txt").read_text()
        verdict_lines = [l for l in summary.splitlines() if l.strip().startswith("verdict:")]
        assert verdict_lines == ["  verdict: LOCALITY_FALSE"]  # a classified run gives no reason
        assert (sim_dir / "combined_curves.csv").exists()

    def test_missing_inputs_listed(self, tmp_path, capsys):
        bare = tmp_path / "bare"
        bare.mkdir()
        assert main(["report", "--in", str(bare)]) == 3
        err = capsys.readouterr().err
        assert "verdict.json" in err and "curve.csv" in err

    @pytest.mark.parametrize(
        "name, damage",
        [
            ("verdict.json", lambda text: "{"),
            ("manifest.json", lambda text: text[: len(text) // 2]),
            ("chsh_per_slice.csv", lambda text: text[:-12]),
            ("curve.csv", lambda text: text[:20]),
            ("curve.csv", lambda text: text.splitlines(keepends=True)[0]),
            # the seed no longer matches config_sha256, as analyze finds
            ("manifest.json", lambda text: json.dumps({**json.loads(text), "seed": 999})),
        ],
        ids=[
            "verdict-not-json", "manifest-cut", "chsh-cut", "curve-cut", "curve-no-rows",
            "edited-seed",
        ],
    )
    def test_malformed_input_exits_3(self, sim_dir, capsys, name, damage):
        assert main(["analyze", "--in", str(sim_dir)]) == 0
        path = sim_dir / name
        path.write_text(damage(path.read_text()))
        assert main(["report", "--in", str(sim_dir)]) == 3
        assert str(path) in capsys.readouterr().err
        assert not (sim_dir / "summary.txt").exists()

    def test_two_runs_merge_in_order(self, tmp_path):
        cfg = write_config(tmp_path)
        dirs = []
        for name, seed in (("alpha", 5), ("beta", 6)):
            out = tmp_path / name
            main(["simulate", "--config", str(cfg), "--out", str(out), "--seed", str(seed)])
            main(["analyze", "--in", str(out)])
            dirs.append(out)
        out_dir = tmp_path / "merged"
        assert (
            main(["report", "--in", str(dirs[0]), str(dirs[1]), "--out", str(out_dir)]) == 0
        )
        summary = (out_dir / "summary.txt").read_text()
        assert summary.index("run: alpha") < summary.index("run: beta")
        verdicts = [l for l in summary.splitlines() if l.strip().startswith("verdict:")]
        assert len(verdicts) == 2

    def test_a_slice_without_sequences_reads_n_a(self, sim_dir, tmp_path):
        # 0.05 s of the default run: about 1,000 coincidences, no full sequence
        short = tmp_path / "short"
        cfg = write_config(tmp_path, {"run": {"seed": 1, "run_duration_s": 0.05}}, "short.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(short)]) == 0
        for run in (sim_dir, short):
            assert main(["analyze", "--in", str(run)]) == 0
        out = tmp_path / "merged"
        assert main(["report", "--in", str(sim_dir), str(short), "--out", str(out)]) == 0
        summary = (out / "summary.txt").read_text()
        assert "nan" not in summary
        slice_lines = [line for line in summary.splitlines() if line.startswith("  slice ")]
        assert len(slice_lines) == 4
        for line in slice_lines[:2]:  # a run with sequences keeps its numbers
            assert "R = 0." in line and "n/a" not in line
        for line in slice_lines[2:]:
            assert line.endswith(", R = n/a, compression n/a") and "S = 2." in line
        rows = list(csv.DictReader(open(out / "combined_curves.csv", newline="")))
        assert [row["run"] for row in rows] == ["run", "run", "short", "short"]
        numbers = ("rejection_rate", "ci_low", "ci_high", "mean_compression_ratio", "randomness_level")
        for row in rows[:2]:
            assert all(float(row[name]) >= 0 for name in numbers)
        for row in rows[2:]:
            assert [row[name] for name in numbers] == [""] * 5 and float(row["S"]) > 2

    def test_the_verdict_line_gives_an_inconclusive_runs_reason(self, tmp_path, capsys):
        # 0.05 s of the default run: INCONCLUSIVE, no full sequence in slice 0
        short = tmp_path / "short"
        cfg = write_config(tmp_path, {"run": {"seed": 1, "run_duration_s": 0.05}}, "short.json")
        assert main(["simulate", "--config", str(cfg), "--out", str(short)]) == 0
        assert main(["analyze", "--in", str(short)]) == 0
        assert main(["report", "--in", str(short)]) == 0
        summary = (short / "summary.txt").read_text()
        assert [line for line in summary.splitlines() if "verdict:" in line] == [
            "  verdict: INCONCLUSIVE (slice 0 has too few sequences)"
        ]
        capsys.readouterr()
        (short / "verdict.json").write_text(json.dumps({"label": "INCONCLUSIVE", "reason": 5}))
        assert main(["report", "--in", str(short)]) == 3
        assert "has a reason that is not text" in capsys.readouterr().err


def _run_python(code: str, *args: str) -> str:
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.strip()


SCIPY_MODULES = "sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')"


def test_importing_the_cli_leaves_scipy_out():
    # scipy is a test dependency only: it gives the reference values
    assert _run_python(f"import sys, bellrm, bellrm.cli; print({SCIPY_MODULES})") == "[]"


def test_analyze_runs_without_scipy(sim_dir):
    code = (
        "import sys; from bellrm.cli import main; "
        f"code = main(['analyze', '--in', {str(sim_dir)!r}]); "
        f"print(code, {SCIPY_MODULES})"
    )
    assert _run_python(code).splitlines()[-1] == "0 []"
    assert json.loads((sim_dir / "verdict.json").read_text())["label"] == "LOCALITY_FALSE"


# main on the arguments in a fresh process; prints its exit code and
# whether numpy was loaded before and after it ran
NUMPY_AROUND_MAIN = """
import sys
from bellrm.cli import main
before = 'numpy' in sys.modules
try:
    code = main(sys.argv[1:])
except SystemExit as exc:  # --version, --help and argument errors
    code = exc.code
print(code, before, 'numpy' in sys.modules)
"""


@pytest.mark.parametrize(
    "command, loads_numpy",
    [
        ("--version", False),
        ("--help", False),
        ("no-such-command", False),
        ("report", False),
        ("simulate", True),  # shows that the check sees numpy
    ],
)
def test_only_simulate_and_analyze_load_numpy(
    analyzed_run, tmp_path, command, loads_numpy
):
    args = {
        "report": ["report", "--in", str(analyzed_run), "--out", str(tmp_path / "report")],
        "simulate": [
            "simulate", "--config", str(write_config(tmp_path, DAMAGE_CONFIG)),
            "--out", str(tmp_path / "run"),
        ],
    }.get(command, [command])
    code, before, after = _run_python(NUMPY_AROUND_MAIN, *args).splitlines()[-1].split()
    assert code == ("2" if command == "no-such-command" else "0")
    assert (before, after) == ("False", str(loads_numpy))


def test_every_export_is_the_object_its_submodule_defines():
    for name in bellrm.__all__:
        module = importlib.import_module(f"bellrm.{bellrm._EXPORTS[name]}")
        assert getattr(bellrm, name) is getattr(module, name), name
    namespace = {}
    exec("from bellrm import *", namespace)
    assert set(bellrm.__all__) <= set(namespace)


def test_an_unknown_name_of_the_package_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        getattr(bellrm, "no_such_name")


# Started from a small Python process: a child forked from the test
# process would count the test process's own pages in its ru_maxrss.
PEAK_RSS_OF_CHILD = """
import os, subprocess, sys
child = subprocess.Popen([sys.executable, *sys.argv[1:]], stdout=subprocess.DEVNULL)
_, status, usage = os.wait4(child.pid, 0)
print(os.waitstatus_to_exitcode(status), usage.ru_maxrss * 1024)
"""


def _peak_rss_bytes(args: list[str]) -> int:
    """ru_maxrss of a Python child run with ``args``, in bytes."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", PEAK_RSS_OF_CHILD, *args],
        env=env, capture_output=True, text=True, check=True,
    )
    code, peak = proc.stdout.split()
    assert code == "0", proc.stderr
    return int(peak)


def test_analyze_memory_does_not_grow_with_the_file(tmp_path):
    # a 10 s default run: about 38 MB of events.btag; analyze reads it in
    # pieces, so it needs well under half of that above the bare start-up,
    # which loads the modules (and numpy) that analyze loads
    cfg = write_config(tmp_path, {"run": {"seed": 5, "run_duration_s": 10.0}})
    out = tmp_path / "run"
    assert main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    size = (out / "events.btag").stat().st_size
    assert size > 30e6
    start_up = _peak_rss_bytes(["-c", "import bellrm.cli, bellrm.pipeline"])
    analyze = _peak_rss_bytes(["-m", "bellrm.cli", "analyze", "--in", str(out)])
    assert analyze - start_up < size / 2


@pytest.mark.parametrize(
    "name",
    ["events.btag", "manifest.json", "chsh_per_slice.csv", "sequences.csv", "curve.csv", "verdict.json"],
)
def test_output_is_renamed_into_place(sim_dir, monkeypatch, name):
    # each output is written to a hidden temporary file beside it, then renamed
    renames = []
    replace = os.replace

    def recording(src, dst):
        renames.append((Path(src), Path(dst)))
        replace(src, dst)

    monkeypatch.setattr(os, "replace", recording)
    cfg = write_config(sim_dir.parent, name="again.json")
    main(["simulate", "--config", str(cfg), "--out", str(sim_dir)])
    main(["analyze", "--in", str(sim_dir)])
    (src, dst), = [(s, d) for s, d in renames if d.name == name]
    assert dst == sim_dir / name
    assert src.parent == sim_dir and src.name.startswith(f".{name}.")
    assert not src.exists()


def test_failed_write_leaves_the_old_file(tmp_path):
    path = tmp_path / "verdict.json"
    path.write_text("old")
    with pytest.raises(RuntimeError):
        with atomic_open(path, "w") as fh:
            fh.write("partial")
            raise RuntimeError("writer failed")
    assert path.read_text() == "old"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["verdict.json"]


def _run_cli(args: list[str], bellrm_env: dict | None = None) -> subprocess.CompletedProcess:
    """``python -m bellrm.cli`` in a child, whose stderr shows any traceback,
    with ``bellrm_env`` added to its environment."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, **(bellrm_env or {})}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "bellrm.cli", *args], env=env, capture_output=True, text=True
    )


@pytest.mark.parametrize("command", ["simulate", "analyze", "report"])
def test_an_output_path_that_cannot_be_written_exits_2(sim_dir, command):
    a_file = sim_dir.parent / "a-file"
    a_file.write_text("")
    if command == "simulate":
        path = a_file  # mkdir finds a file
        args = ["--config", str(write_config(sim_dir.parent)), "--out", str(path)]
    elif command == "analyze":
        path = sim_dir / "verdict.json"  # the write finds a directory
        path.mkdir()
        args = ["--in", str(sim_dir)]
    else:
        assert main(["analyze", "--in", str(sim_dir)]) == 0
        path = a_file / "x"  # mkdir finds a file on the way
        args = ["--in", str(sim_dir), "--out", str(path)]
    proc = _run_cli([command, *args])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert "configuration error: cannot write" in proc.stderr and str(path) in proc.stderr


@pytest.mark.parametrize(
    "run, env",
    [
        ({"seed": 1, "run_duration_s": 5, "dark_rate_hz": 1e10}, {}),
        ({"seed": 1, "rep_rate_hz": 0.001, "run_duration_s": 1e6, "pulse_duration_s": 1e-7}, {}),
        ({"seed": 1, "run_duration_s": 5}, {"BELLRM_DARK_RATE_HZ": "1e10"}),
    ],
)
def test_darks_beyond_the_block_cap_exit_2_before_touching_the_directory(tmp_path, run, env):
    # drawn at once, these darks would not fit in memory
    out = tmp_path / "out"
    proc = _run_cli(
        ["simulate", "--config", str(write_config(tmp_path, {"run": run})), "--out", str(out)],
        env,
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "more than 4194304: a block's darks are drawn at once" in proc.stderr
    assert not out.exists()


def test_darks_just_under_the_block_cap_simulate(tmp_path):
    run = {
        "seed": 1, "run_duration_s": 4.194304, "dark_rate_hz": 0.999e6,
        "detection_prob_per_pulse": 0.0, "coincidence_prob_per_pulse": 0.0,
    }
    out = tmp_path / "out"
    proc = _run_cli(
        ["simulate", "--config", str(write_config(tmp_path, {"run": run})), "--out", str(out)]
    )
    assert proc.returncode == 0, proc.stderr
    n_events = json.loads((out / "manifest.json").read_text())["stats"]["n_events"]
    assert abs(n_events - 2 * 0.999 * 2**22) < 10_000


@pytest.mark.parametrize(
    "run",
    [
        # 100 and 9 periods of 1e18 ns: a time past 2^62 ns overflows the
        # merge's int64 key, and came out with 2^63 added, out of time order
        {"seed": 1, "rep_rate_hz": 1e-9, "run_duration_s": 1e11, "dark_rate_hz": 0,
         "coincidence_prob_per_pulse": 0.5},
        {"seed": 1, "rep_rate_hz": 1e-9, "run_duration_s": 9.2e9, "dark_rate_hz": 0,
         "coincidence_prob_per_pulse": 0.5},
        # one period of 1e310 ns, infinite as a float
        {"seed": 1, "rep_rate_hz": 1e-301, "pulse_duration_s": 1e300,
         "run_duration_s": 1e301, "dark_rate_hz": 0},
    ],
)
def test_pulse_times_past_2_to_62_ns_exit_2_before_touching_the_directory(tmp_path, run):
    out = tmp_path / "out"
    proc = _run_cli(
        ["simulate", "--config", str(write_config(tmp_path, {"run": run})), "--out", str(out)]
    )
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert "ends past 2^62 ns (about 146 years)" in proc.stderr
    assert not out.exists()


def test_pulse_times_just_under_2_to_62_ns_simulate_and_analyze(tmp_path):
    # 4 pulses filling their 1e18 ns periods: events up to 4e18 ns
    run = {
        "seed": 1, "rep_rate_hz": 1e-9, "run_duration_s": 4.4e9, "pulse_duration_s": 1e9,
        "dark_rate_hz": 0, "coincidence_prob_per_pulse": 0.9,
    }
    out = tmp_path / "out"
    config = str(write_config(tmp_path, {"run": run}))
    proc = _run_cli(["simulate", "--config", config, "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    with BtagFile(out / "events.btag") as events:
        events = events[:]
    t, pulse = events["timestamp_ns"], events["pulse_index"].astype(np.uint64)
    assert np.all(t[1:] >= t[:-1])
    assert np.all((pulse * 10**18 <= t) & (t < (pulse + 1) * 10**18))
    assert t.max() > 3 * 10**18
    # 10 slices of the 1e18 ns pulse would pass 2^63 in the per-record multiply
    proc = _run_cli(["analyze", "--in", str(out), "--slices", "10"])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr and proc.stderr.count("\n") == 1
    assert "times the 1000000000000000000 ns pulse reaches 2^63" in proc.stderr
    assert sorted(p.name for p in out.iterdir()) == ["events.btag", "manifest.json"]
    proc = _run_cli(["analyze", "--in", str(out)])
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "run, analysis, message",
    [
        # one 4e18 ns pulse: 4 slices of it pass 2^63 in the per-record multiply
        ({"seed": 8, "rep_rate_hz": 2.5e-10, "run_duration_s": 4e9, "pulse_duration_s": 4e9,
          "dark_rate_hz": 0, "coincidence_prob_per_pulse": 0.9}, {"n_slices": 4},
         "analysis.n_slices 4 times the 4000000000000000000 ns pulse reaches 2^63"),
        # a 0.3 ns pulse at 3 GHz, and a 0.4 ns one, are 1 whole ns: slice 1
        # would hold none, and the 0.3 ns pulses share their integer starts
        ({"seed": 1, "rep_rate_hz": 3e9, "pulse_duration_s": 0.3e-9, "run_duration_s": 0.002,
          "coincidence_prob_per_pulse": 0.1, "detection_prob_per_pulse": 0.1,
          "dark_rate_hz": 0}, {},
         "analysis.n_slices 2 is more than the 1 whole ns of the pulse"),
        ({"seed": 1, "pulse_duration_s": 0.4e-9, "run_duration_s": 2}, {"n_slices": 2},
         "analysis.n_slices 2 is more than the 1 whole ns of the pulse"),
    ],
    ids=["4e18-ns-at-4-slices", "0.3-ns-at-3-GHz", "0.4-ns-at-2-slices"],
)
def test_a_pulse_the_analysis_cannot_slice_exits_2_before_touching_the_directory(
    tmp_path, run, analysis, message
):
    out = tmp_path / "out"
    config = write_config(tmp_path, {"run": run, "analysis": analysis})
    proc = _run_cli(["simulate", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 2, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.count("\n") == 1
    assert message in proc.stderr
    assert not out.exists()


def test_two_slices_of_a_2_ns_pulse_at_500_mhz_simulate_and_analyze(tmp_path):
    run = {"seed": 1, "rep_rate_hz": 5e8, "pulse_duration_s": 2e-9, "run_duration_s": 0.002}
    out = tmp_path / "out"
    config = write_config(tmp_path, {"run": run, "analysis": {"n_slices": 2}})
    proc = _run_cli(["simulate", "--config", str(config), "--out", str(out)])
    assert proc.returncode == 0, proc.stderr
    proc = _run_cli(["analyze", "--in", str(out)])
    assert proc.returncode == 0, proc.stderr
    with open(out / "chsh_per_slice.csv") as fh:
        records = {r["slice_index"]: int(r["n_records"]) for r in csv.DictReader(fh)}
    assert records.keys() == {"0", "1"} and min(records.values()) > 1000


def test_a_failed_analysis_write_leaves_no_new_output_beside_an_old_one(sim_dir, capsys):
    assert main(["analyze", "--in", str(sim_dir)]) == 0
    assert main(["report", "--in", str(sim_dir)]) == 0
    (sim_dir / "verdict.json").unlink()
    (sim_dir / "verdict.json").mkdir()
    # four slices: every new output would differ from the old one
    assert main(["analyze", "--in", str(sim_dir), "--slices", "4"]) == 2
    assert "verdict.json" in capsys.readouterr().err
    assert sorted(p.name for p in sim_dir.iterdir()) == [
        "events.btag", "manifest.json", "verdict.json"
    ]


@pytest.mark.parametrize(
    "fault", ["setting-in-fourth-piece", "pulse-in-fourth-piece", "window-zero"]
)
def test_a_refused_analysis_keeps_the_earlier_outputs(sim_dir, monkeypatch, fault):
    assert main(["analyze", "--in", str(sim_dir)]) == 0
    assert main(["report", "--in", str(sim_dir)]) == 0
    path = sim_dir / "events.btag"
    if fault == "window-zero":
        monkeypatch.setenv("BELLRM_WINDOW_NS", "0")
        expected = 2
    else:
        # a DataError after three pieces were matched and their blocks tested:
        # a setting outside the menu, or a matched event outside its pulse
        data = bytearray(path.read_bytes())
        at = 32 + 16 * 200_003
        if fault == "setting-in-fourth-piece":
            data[at + 14 : at + 16] = (99).to_bytes(2, "little")
        else:
            data[at + 8 : at + 12] = (2**32 - 1).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        expected = 3
    before = {p.name: p.read_bytes() for p in sim_dir.iterdir()}
    assert len(before) == 8
    assert main(["analyze", "--in", str(sim_dir)]) == expected
    assert {p.name: p.read_bytes() for p in sim_dir.iterdir()} == before


# --- one damaged byte or manifest field -----------------------------------

DAMAGE_CONFIG = {
    "run": {
        "seed": 5, "run_duration_s": 0.12, "detection_prob_per_pulse": 0.0,
        "coincidence_prob_per_pulse": 0.05, "dark_rate_hz": 0.0,
    },
    "model": {"kind": "SCENARIO_LOCALITY_FALSE"},
    "analysis": {"sequence_length": 2560},  # the shortest the battery takes
}
MANIFEST_FIELDS = [
    ("config", "run", name)
    for name in (
        "seed", "rep_rate_hz", "pulse_duration_s", "run_duration_s", "station_separation_m",
        "settings_menu", "dark_rate_hz",
    )
] + [
    ("config", "analysis", name)
    for name in ("n_slices", "window_ns", "sequence_length", "alpha_sig", "block_size")
] + [("config", "run"), ("config", "analysis"), ("artifacts", "events.btag", "bytes")]
JSON_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-(10**6), 10**6), st.text(max_size=3),
    st.floats(allow_nan=True, allow_infinity=True),
    st.lists(st.lists(st.floats(-4, 4), min_size=2, max_size=2), max_size=3),
)


@pytest.fixture(scope="module")
def analyzed_run(tmp_path_factory):
    """A small run where every event is matched, analyzed and reported once."""
    root = tmp_path_factory.mktemp("damage")
    run = root / "run"
    config = write_config(root, DAMAGE_CONFIG)
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    assert main(["analyze", "--in", str(run)]) == 0
    assert main(["report", "--in", str(run)]) == 0
    return run


@settings(
    max_examples=40, derandomize=True, deadline=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)
@given(
    damage=st.one_of(
        st.tuples(st.just("events.btag"), st.integers(0, 2**31), st.integers(0, 255)),
        st.tuples(st.just("manifest.json"), st.sampled_from(MANIFEST_FIELDS), JSON_VALUES),
    )
)
@example(damage=("events.btag", 32 + 3 * 16 + 11, 255))  # record 3's pulse past the run
@example(damage=("manifest.json", ("config", "run", "rep_rate_hz"), 2e6))
def test_one_damaged_byte_or_field_ends_in_an_exit_code(
    analyzed_run, capsys, damage
):
    # exit 0 stays legal: no check yet compares events.btag with its
    # digest, and an edited analysis section is legal
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(analyzed_run, run)
        name, where, value = damage
        if name == "events.btag":
            data = bytearray((run / name).read_bytes())
            data[where % len(data)] = value
            (run / name).write_bytes(bytes(data))
        else:
            manifest = json.loads((run / name).read_text())
            run_section = json.dumps(manifest["config"]["run"])
            *parents, key = where
            obj = manifest
            for parent in parents:
                obj = obj[parent]
            obj[key] = value
            (run / name).write_text(json.dumps(manifest))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        code = main(["analyze", "--in", str(run)])
        err = capsys.readouterr().err
        assert code in (0, 2, 3), err
        assert "Traceback" not in err
        if code:
            assert len(err.splitlines()) == 1
            assert {p.name: p.read_bytes() for p in run.iterdir()} == before
        if name == "manifest.json" and json.dumps(manifest["config"]["run"]) != run_section:
            assert code == 3, err  # the config digest no longer matches


def _edited_copy(analyzed_run, tmp, edit):
    """A copy of ``analyzed_run`` whose manifest ``edit`` changed."""
    run = Path(tmp) / "run"
    shutil.copytree(analyzed_run, run)
    manifest = json.loads((run / "manifest.json").read_text())
    edit(manifest["config"])
    (run / "manifest.json").write_text(json.dumps(manifest))
    return run


def _swap_menu_entries_1_and_3(config):
    menu = config["run"]["settings_menu"]
    menu[1], menu[3] = menu[3], menu[1]


@pytest.mark.parametrize(
    "edit",
    [
        _swap_menu_entries_1_and_3,
        lambda config: config["run"].update(station_separation_m=19.0),
        lambda config: config["run"].update(station_separation_m=21.0),
        lambda config: config["model"].update(kind="QM_NONLOCAL"),
    ],
    ids=["menu-1-3-swapped", "separation-19", "separation-21", "model-kind"],
)
def test_an_edited_run_or_model_section_exits_3(analyzed_run, capsys, edit):
    # each edit leaves every event inside its pulse's window; only the
    # config digest tells that the events were generated with another config
    with tempfile.TemporaryDirectory() as tmp:
        run = _edited_copy(analyzed_run, tmp, edit)
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert main(["analyze", "--in", str(run)]) == 3
        assert capsys.readouterr().err.splitlines() == [
            f"data error: {run / 'manifest.json'}: the generator version, seed, run or model "
            "section differs from the one events.btag was generated with "
            "(config_sha256 does not match)"
        ]
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before


def test_an_edited_analysis_section_still_analyzes(analyzed_run):
    with tempfile.TemporaryDirectory() as tmp:
        run = _edited_copy(analyzed_run, tmp, lambda config: config["analysis"].update(n_slices=4))
        assert main(["analyze", "--in", str(run)]) == 0
        assert len((run / "curve.csv").read_text().splitlines()) == 1 + 4


@pytest.mark.parametrize("offset", range(16, 32))
def test_a_damaged_reserved_header_byte_exits_3(analyzed_run, capsys, offset):
    # the manifest's digest covers the records only, so the header is
    # checked byte by byte
    with tempfile.TemporaryDirectory() as tmp:
        run = Path(tmp) / "run"
        shutil.copytree(analyzed_run, run)
        data = bytearray((run / "events.btag").read_bytes())
        data[offset] = 1
        (run / "events.btag").write_bytes(bytes(data))
        before = {p.name: p.read_bytes() for p in run.iterdir()}
        capsys.readouterr()
        assert main(["analyze", "--in", str(run)]) == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert "reserved header byte holds 1" in err and f"byte offset {offset})" in err
        assert {p.name: p.read_bytes() for p in run.iterdir()} == before
