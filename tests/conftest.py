import numpy as np
import pytest

from bellrm import STATION_A, STATION_B


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
