"""Golden digests: short runs of the three benchmark workloads keep their bytes.

Each case simulates and analyzes a 0.5 s version of one workload and
checks the SHA-256 of ``events.btag`` and of the four analysis outputs
against digests recorded before the matcher and the count table were
last rewritten.  A change that claims byte-identical outputs must keep
these; a deliberate output change updates them and says so.
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


def _digests(run_dir):
    return {name: hashlib.sha256((run_dir / name).read_bytes()).hexdigest() for name in OUTPUTS}


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_workload_keeps_its_bytes(workload, tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("BELLRM_"):
            monkeypatch.delenv(key)
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
