import os

# Before numpy loads OpenBLAS: its worker threads would count as threads
# alive at every fork (see filterwarnings in pyproject.toml).
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import numpy as np  # noqa: E402
import pytest  # noqa: E402

from bellrm import STATION_A, STATION_B  # noqa: E402


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
