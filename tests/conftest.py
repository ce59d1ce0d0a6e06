import json
import os
import time

# Before numpy loads OpenBLAS: its worker threads would count as threads
# alive at every fork (see filterwarnings in pyproject.toml).
os.environ["OPENBLAS_NUM_THREADS"] = "1"
# A BELLRM_* variable of the calling shell would override the configs the
# tests write; a test that needs one sets it with monkeypatch.
for key in [key for key in os.environ if key.startswith("BELLRM_")]:
    del os.environ[key]

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bellrm import STATION_A, STATION_B  # noqa: E402
from bellrm.cli import main  # noqa: E402


@pytest.fixture(scope="session")
def paper_default_run(tmp_path_factory):
    """The paper's default 300 s, 1 MHz run (seed 808), simulated once for the
    session: (run directory, simulate's exit code, its wall time in s).  The
    directory is named ``run808``, as ``report`` writes it into its outputs;
    its 1.15 GB ``events.btag`` is removed at teardown, since pytest keeps
    recent temporary directories."""
    base = tmp_path_factory.mktemp("paper_default")
    config_path = base / "config.json"
    config_path.write_text(json.dumps({"run": {"seed": 808}, "model": {"kind": "QM_NONLOCAL"}}))
    run_dir = base / "run808"
    t0 = time.perf_counter()
    code = main(["simulate", "--config", str(config_path), "--out", str(run_dir)])
    elapsed = time.perf_counter() - t0
    yield run_dir, code, elapsed
    (run_dir / "events.btag").unlink(missing_ok=True)


@pytest.fixture
def rng():
    return np.random.default_rng(20260808)


def merge_stations(events_a, events_b):
    """One stream in (timestamp, station) order, the order ``match_events``
    reads, from two per-station event arrays; the station field is set from
    the argument position."""
    events = np.concatenate([events_a, events_b])
    events["station"][: events_a.size] = STATION_A
    events["station"][events_a.size :] = STATION_B
    return events[np.lexsort((events["station"], events["timestamp_ns"]))]
