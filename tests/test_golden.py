"""Golden digests: runs of the benchmark workloads keep their bytes.

Each short case simulates and analyzes a 0.5 s version of one workload
and checks the SHA-256 of ``events.btag`` and of the four analysis
outputs against digests recorded before the matcher and the count table
were last rewritten.  ``test_the_paper_default_run_keeps_its_bytes``
runs the paper's default 300 s, 1 MHz experiment (seed 808) through
``simulate``, ``analyze`` and ``report`` and checks the verdict, its
counts and the digests of all seven outputs, recorded before the
matcher was split from the coincidence builder.  A change that claims
byte-identical outputs must keep these; a deliberate output change
updates them and says so.
"""

import hashlib
import json
import os

import pytest

from bellrm.cli import main

PAPER_RUN = {
    "seed": 101,
    "station_separation_m": 20.0,
    "rep_rate_hz": 1.0e6,
    "pulse_duration_s": None,
    "run_duration_s": 0.5,
    "detection_prob_per_pulse": 0.1,
    "coincidence_prob_per_pulse": 0.02,
    "dark_rate_hz": 100.0,
}
PAPER_ANALYSIS = {
    "n_slices": 2,
    "window_ns": 2,
    "alpha_sig": 0.01,
    "sequence_length": 10000,
    "block_size": 128,
    "serial_m": 4,
}
WORKLOADS = {
    "default_qm": ({}, "QM_NONLOCAL", {}),
    "dense_scenario": (
        {"detection_prob_per_pulse": 0.0, "coincidence_prob_per_pulse": 0.1, "dark_rate_hz": 0.0},
        "SCENARIO_LOCALITY_FALSE",
        {},
    ),
    "wide_window": ({}, "QM_NONLOCAL", {"window_ns": 100}),
}
OUTPUTS = ("events.btag", "chsh_per_slice.csv", "sequences.csv", "curve.csv", "verdict.json")

GOLDEN = {
    "default_qm": {
        "events.btag": "53f66acbaf12ca77eb241994029f1c845eacc79d2255773ab5c771b4784fa433",
        "chsh_per_slice.csv": "e70f132d68fd7db56fd29fe49024f6ac3b0d3f60092a9e6730589499ffdddf4f",
        "sequences.csv": "88b841d60e42787ea406deb4cc12b5219a94b4d9f0596c792fd701005d0af22b",
        "curve.csv": "2fe6474c8400978d204326c6b836004f9ccced74f2d128cee57c1a81e48a6dcc",
        "verdict.json": "2ba3930d4b4800cb5c63d62e9544d4aa12496301d8475c62f32d11706a3f7a14",
    },
    "dense_scenario": {
        "events.btag": "f584daa905122613022103d9c8d23923369e291f98f45a1ee041a2918517a884",
        "chsh_per_slice.csv": "0a205ff5024ac3bbbbfc8f6e8998cd8e3be569414e1cb7a9f512eea3320ea018",
        "sequences.csv": "083aa9fcb416859d02a1b418e2ce43b7dcd80b6c4e898ad58cafe65bbd51dc59",
        "curve.csv": "e1deabd3dcb6ec734cfbcead122931f6c35687ac81a6e3eb37f2b1b1ef275191",
        "verdict.json": "695d3af21558fa07a582248153bb66e450889d2f137abf00f9f333ce91e9bc2b",
    },
    "wide_window": {
        "events.btag": "53f66acbaf12ca77eb241994029f1c845eacc79d2255773ab5c771b4784fa433",
        "chsh_per_slice.csv": "1caad842d43d3ce8c5eb11f38861327c3177eeb6b5551047548e3797a5ef7f7e",
        "sequences.csv": "88b841d60e42787ea406deb4cc12b5219a94b4d9f0596c792fd701005d0af22b",
        "curve.csv": "2fe6474c8400978d204326c6b836004f9ccced74f2d128cee57c1a81e48a6dcc",
        "verdict.json": "e0f56c3c101886c74dd8982b3a0c2644505ec2935b53cfd47d6afe8eadac1764",
    },
}


PAPER_DEFAULT_GOLDEN = {
    "events.btag": "15ab0ae1b9bc060e2a0aa58098a43b950e141e244d40b6d18eec6ef34fee1030",
    "chsh_per_slice.csv": "ea65136298f8757213b0713a3b2fd5d3ec76eb68e78f3b2fcd013fc51270cad3",
    "sequences.csv": "ec9dd19a616010fc92ac8eb59a123fa9ee0f17b91acab10e1badcdddad2b18d1",
    "curve.csv": "7890b2b333dc18ffe882ba1ccd6d38a655515352d03a7a8a4e26e4dc64103c44",
    "verdict.json": "ac4f924071891103613993defcef4d4a36ecccb74f3bd1b43f446a3ec1a7e82c",
    "summary.txt": "ed18a069c0565c02c3c5a8c068cf41616599fb47b8f852d6f1479f9987f667fd",
    "combined_curves.csv": "62bb5c3904211b45e688d147ea3306292e0b3ebf955bdbad25dd9ce08df02939",
}


def _digests(run_dir, names=OUTPUTS):
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in names}


def _clear_bellrm_env(monkeypatch):
    for key in list(os.environ):
        if key.startswith("BELLRM_"):
            monkeypatch.delenv(key)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_workload_keeps_its_bytes(workload, tmp_path, monkeypatch):
    _clear_bellrm_env(monkeypatch)
    run, kind, analysis = WORKLOADS[workload]
    config = {
        "run": {**PAPER_RUN, **run},
        "model": {"kind": kind, "parameters": {}},
        "analysis": {**PAPER_ANALYSIS, **analysis},
    }
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps(config))
    run_dir = tmp_path / "run"
    assert main(["simulate", "--config", str(config_path), "--out", str(run_dir)]) == 0
    assert main(["analyze", "--in", str(run_dir)]) == 0
    assert _digests(run_dir) == GOLDEN[workload]


def test_the_paper_default_run_keeps_its_bytes(tmp_path, monkeypatch, capsys):
    _clear_bellrm_env(monkeypatch)
    config_path = tmp_path / "config.json"
    config_path.write_text(json.dumps({"run": {"seed": 808}, "model": {"kind": "QM_NONLOCAL"}}))
    run_dir = tmp_path / "run808"  # report writes the directory's name into its outputs
    assert main(["simulate", "--config", str(config_path), "--out", str(run_dir)]) == 0
    capsys.readouterr()
    assert main(["analyze", "--in", str(run_dir)]) == 0
    assert capsys.readouterr().out == (
        "analyze: 6110174 coincidences, 1220 sequences, verdict REALISM_FALSE\n"
    )
    assert main(["report", "--in", str(run_dir)]) == 0
    assert json.loads((run_dir / "verdict.json").read_text())["label"] == "REALISM_FALSE"
    assert _digests(run_dir, PAPER_DEFAULT_GOLDEN) == PAPER_DEFAULT_GOLDEN
    (run_dir / "events.btag").unlink()  # 1.15 GB; pytest keeps recent temporary directories
