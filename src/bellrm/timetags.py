"""Coincidence matching, the coincidence records, and per-slice sequences.

:func:`match_events` is the one matcher.  It reads the merged stream in
the (timestamp, station) order a BTAG file is written in, checks that
order, and pairs events greedily, earliest pair first and one-to-one,
which attains maximum cardinality for interval matching on a line.  It
returns the positions of the matched events, nothing else.  It runs as a
vectorized cluster decomposition on the *near steps*: the indices k where
event k + 1 lies within the window of event k.  One pass over the
timestamps finds them; at the paper's rates about 17 % of events have
such a neighbour, and everything after that pass reads the near steps
only.  Since the window is > 0, every step back or tie is a near step, so
the order check reads them too.  A run of consecutive near steps is a
chain, and chains are isolated from each other.  The overwhelmingly
common chain (one A plus one B event) pairs as it stands; every longer
chain runs the two-pointer rule in lockstep with the others, one numpy
step per pass, so no chain is resolved by a Python loop over its events.
No chain crosses a gap wider than the window, so a stream cut at such gaps
can be matched piece by piece with the same result (``bellrm.pipeline``
does so).

:func:`coincidences` turns matched positions into the records everything
downstream reads, ``COINC_DTYPE``: pulse slice, effective setting and the
two bits, six bytes each.  It is the one place that checks that both
events lie in their own pulse's window, and that gives a coincidence its
slice (through :func:`slice_index_of`, the boundary rule) and its
setting.  :func:`slice_sequences` splits the records into one bit
sequence per (slice, station) in a single sort, and
:func:`sequence_partition` cuts a sequence into the bit blocks the
randomness battery tests.
"""

from __future__ import annotations

import functools

import numpy as np

from .btag import STATION_A, STATION_B
from .errors import ConfigError, DataError, StreamOrderError
from .models import same_angle
from .source import RunConfig, pulse_geometry, pulse_start_ns

#: one coincidence: its pulse slice (-1 outside the pulse), its effective
#: setting (-1 for a cross-pulse pair the menu lacks) and both bits
COINC_DTYPE = np.dtype(
    [("slice_index", "<i2"), ("setting_index", "<i2"), ("bit_a", "u1"), ("bit_b", "u1")]
)


def _check_merged_order(
    near: np.ndarray, dt_near: np.ndarray, is_b: np.ndarray, first_record: int
) -> None:
    """Check (timestamp, station) order on the near steps ``near``, whose
    time steps are ``dt_near``.

    Every step <= 0 is a near step, since the window is > 0.  A step of
    zero is allowed only from an A record to a B record.  ``first_record``
    is the index of the first event in the whole stream.
    """
    tie = dt_near <= 0
    ties = near[tie]
    bad = ties[(dt_near[tie] < 0) | ~is_b[ties + 1] | is_b[ties]]
    if bad.size:
        i = first_record + int(bad[0]) + 1
        raise StreamOrderError(
            f"events out of (timestamp, station) order: record {i} is not after record {i - 1}"
        )


def _greedy_pairs_lockstep(
    ts: np.ndarray,
    is_b: np.ndarray,
    lo: np.ndarray,
    sizes: np.ndarray,
    n_b: np.ndarray,
    window: int,
) -> tuple[np.ndarray, np.ndarray]:
    """Two-pointer greedy matching inside every chain at once; returns (a_pos, b_pos).

    Chain ``c`` holds the events ``lo[c] : lo[c] + sizes[c]``, ``n_b[c]`` of
    them at station B, and has both stations.  Each pass moves every
    unfinished chain one step: with ``d = t_b[j] - t_a[i]`` the events pair
    when ``|d| <= window``, ``i`` advances when ``d > window`` or they
    paired, ``j`` when ``d < -window`` or they paired, and a chain is done
    once either pointer runs out.  So ``i`` steps when ``d >= -window`` and
    ``j`` when ``d <= window``.  The passes number the steps of the longest
    chain.
    """
    pos = np.repeat(lo - np.cumsum(sizes) + sizes, sizes) + np.arange(sizes.sum())
    on_b = is_b[pos]
    a_pos, b_pos = pos[~on_b], pos[on_b]
    del pos, on_b
    t_a = ts[a_pos].astype(np.int64)
    t_b = ts[b_pos].astype(np.int64)
    # each chain's [start, end) in the A and in the B events, both in time order
    a_end = np.cumsum(sizes - n_b)
    b_end = np.cumsum(n_b)
    i = a_end - (sizes - n_b)
    j = b_end - n_b
    # partner[k]: the B event (an index into b_pos) paired with A event k, or -1
    partner = np.full(a_pos.size, -1, dtype=np.int64)
    while i.size:
        d = t_b[j] - t_a[i]
        step_i = d >= -window
        step_j = d <= window
        paired = step_i & step_j
        partner[i[paired]] = j[paired]
        i += step_i
        j += step_j
        going = (i < a_end) & (j < b_end)
        if not going.all():
            i, j, a_end, b_end = i[going], j[going], a_end[going], b_end[going]
    a = np.flatnonzero(partner >= 0)
    return a_pos[a], b_pos[partner[a]]


@functools.lru_cache(maxsize=8)
def _effective_setting_table(settings_menu: tuple[tuple[float, float], ...]) -> np.ndarray:
    """eff[sa, sb] = menu index of (alpha of sa, beta of sb), or -1.

    Built once per menu, a tuple of (alpha, beta) tuples; shared, so read-only.
    """
    menu = np.array(settings_menu, dtype=np.float64).reshape(-1, 2)
    eff = np.full((len(menu), len(menu)), -1, dtype=np.int16)
    for k, (a, b) in enumerate(menu):  # a later duplicate entry wins
        eff[np.ix_(same_angle(menu[:, 0], a), same_angle(menu[:, 1], b))] = k
    eff.flags.writeable = False
    return eff


def match_events(
    events: np.ndarray, window_ns: int, *, first_record: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """Pair up detections of a merged stream across stations within ``window_ns``.

    ``events`` must be strictly ordered by (timestamp, station), the order a
    BTAG file is written in; a station other than B counts as A.  Greedy
    earliest-pair one-to-one matching in time order; ties go to the earlier
    candidate partner.  Returns ``(a_pos, b_pos)``, the positions in
    ``events`` of each pair's A and B event, in time order of the A event;
    :func:`coincidences` builds the records from them.  ``first_record`` is
    the index of ``events[0]`` in a longer stream, for the record numbers a
    ``StreamOrderError`` names.
    """
    if window_ns <= 0:
        raise ConfigError("coincidence window must be > 0 ns")
    window = int(window_ns)
    ts = events["timestamp_ns"]
    # time steps as int64 differences, without an int64 copy of the timestamps
    dt = np.subtract(ts[1:], ts[:-1], dtype=np.int64, casting="unsafe")
    # Near steps: step k is near when events k and k + 1 lie within the
    # window.  Only they can join events into chains, and every step <= 0
    # is one, so the order check and all later work read them alone.
    near = np.flatnonzero(dt <= window)
    dt_near = dt[near]
    del dt
    is_b = events["station"] == STATION_B
    _check_merged_order(near, dt_near, is_b, first_record)
    del dt_near

    # Chains: runs of consecutive near steps.  A chain of s steps holds the
    # s + 1 events from its first step on; an event in no near step is lone.
    starts = np.flatnonzero(np.diff(near, prepend=-2) != 1)
    steps = np.diff(starts, append=near.size)
    chain_pos = near[starts]
    n_b = np.add.reduceat(is_b[near], starts, dtype=np.int64)
    del near, starts
    n_b += is_b[chain_pos + steps]

    # Fast path: isolated A+B pair, guaranteed inside the window.
    # (Via the lockstep pass instead, dense_scenario matching took 0.185 -> 0.288 s.)
    f0 = chain_pos[(steps == 1) & (n_b == 1)]
    first_is_b = is_b[f0]
    a_pos = np.where(first_is_b, f0 + 1, f0)
    b_pos = np.where(first_is_b, f0, f0 + 1)
    del f0, first_is_b

    # Slow path: chains of three or more with both stations present.
    slow = (steps >= 2) & (n_b >= 1) & (n_b <= steps)
    if slow.any():
        slow_a, slow_b = _greedy_pairs_lockstep(
            ts, is_b, chain_pos[slow], steps[slow] + 1, n_b[slow], window
        )
        a_pos = np.concatenate([a_pos, slow_a])
        b_pos = np.concatenate([b_pos, slow_b])
        time_order = np.argsort(a_pos)
        a_pos, b_pos = a_pos[time_order], b_pos[time_order]
    return a_pos, b_pos


def _pulse_offsets(events, pos, rep_rate_hz, pulse_duration_ns):
    """(pulse, t - pulse_start_ns(pulse), outside) of the events at ``pos``.

    The generator puts an event of pulse k at 0 <= t - pulse_start_ns(k) <
    max(pulse_duration_ns, pulse_start_ns(k + 1) - pulse_start_ns(k)): a
    detection inside the pulse, or a dark before the next pulse starts.
    ``outside`` marks the events that break this rule.
    """
    pulse = events["pulse_index"][pos].astype(np.int64)
    t = events["timestamp_ns"][pos].astype(np.int64)
    offset = t - pulse_start_ns(pulse, rep_rate_hz)
    outside = offset < 0
    late = np.flatnonzero(offset >= pulse_duration_ns)  # past the pulse: a dark at most
    outside[late] = t[late] >= pulse_start_ns(pulse[late] + 1, rep_rate_hz)
    return pulse, offset, outside


def coincidences(
    events: np.ndarray, a_pos: np.ndarray, b_pos: np.ndarray, run: RunConfig, n_slices: int,
    first_record: int = 0,
) -> np.ndarray:
    """``COINC_DTYPE`` records of the pairs ``match_events`` found, in its order.

    Each record holds the pulse slice of the A event (:func:`slice_index_of`
    of its time since its pulse's start, -1 outside the pulse), the
    effective setting and both port bits.  A pair within one pulse keeps
    that pulse's setting.  A pair spanning two pulses (an accidental) gets
    the entry of ``run.settings_menu`` matching (alpha of A's pulse, beta of
    B's pulse) when the menu holds it, else -1, which per-setting estimators
    skip.  An event of either station outside its own pulse's window (see
    :func:`_pulse_offsets`) is a ``DataError`` naming its record,
    ``first_record`` being the index of ``events[0]`` in the whole stream.
    """
    duration_ns = pulse_geometry(run).pulse_duration_ns
    pulse_a, offset_a, outside_a = _pulse_offsets(events, a_pos, run.rep_rate_hz, duration_ns)
    pulse_b, _, outside_b = _pulse_offsets(events, b_pos, run.rep_rate_hz, duration_ns)
    bad = np.concatenate([a_pos[outside_a], b_pos[outside_b]])
    if bad.size:
        i = int(bad.min())
        pulse = int(events["pulse_index"][i])
        raise DataError(
            f"record {first_record + i} at {events['timestamp_ns'][i]} ns lies outside "
            f"its pulse {pulse}, which starts at {pulse_start_ns(pulse, run.rep_rate_hz)} ns"
        )

    records = np.empty(a_pos.size, dtype=COINC_DTYPE)
    records["slice_index"] = slice_index_of(offset_a, n_slices, duration_ns)
    setting_a = events["setting_index"][a_pos]
    # a RunConfig holds its menu as a tuple of (alpha, beta) float tuples
    cross = _effective_setting_table(run.settings_menu)[setting_a, events["setting_index"][b_pos]]
    records["setting_index"] = np.where(pulse_a == pulse_b, setting_a, cross)
    records["bit_a"] = events["port_bit"][a_pos]
    records["bit_b"] = events["port_bit"][b_pos]
    return records


def slice_index_of(
    within_pulse_ns: np.ndarray, n_slices: int, pulse_duration_ns: int
) -> np.ndarray:
    """Equal-width pulse slice of each within-pulse time, as int16.

    Slice k covers [k*D/n, (k+1)*D/n); a time exactly on a boundary goes
    to the later slice.  Times outside the pulse window get the sentinel
    slice -1 and are excluded from per-slice sequences.
    """
    if n_slices < 2:
        raise ConfigError("n_slices must be >= 2 (first/second pulse half)")
    if n_slices > 32767:
        raise ConfigError("n_slices too large")
    idx = (n_slices * within_pulse_ns) // pulse_duration_ns
    idx[(within_pulse_ns < 0) | (within_pulse_ns >= pulse_duration_ns)] = -1
    return idx.astype(np.int16)


def slice_sequences(records: np.ndarray, n_slices: int) -> dict[tuple[int, int], np.ndarray]:
    """``{(slice, station): bits}`` for every slice in [0, n_slices), as uint8.

    Bits stay in time order.  One stable sort by slice groups them: slice
    -1 (outside every slice) sorts first and is dropped, and an empty slice
    gives empty sequences.  Every slice index must lie in [-1, n_slices).
    """
    slices = records["slice_index"]
    order = np.argsort(slices, kind="stable")
    bounds = np.cumsum(np.bincount(slices + 1, minlength=n_slices + 1)).tolist()
    bits = {STATION_A: records["bit_a"][order], STATION_B: records["bit_b"][order]}
    return {
        (s, station): bits[station][bounds[s] : bounds[s + 1]]
        for s in range(n_slices)
        for station in (STATION_A, STATION_B)
    }


def sequence_partition(bits: np.ndarray, target_length: int) -> list[np.ndarray]:
    """Split into consecutive non-overlapping blocks; remainder discarded."""
    if target_length < 100:
        raise ConfigError("target_length must be >= 100")
    bits = np.asarray(bits)
    n_blocks = bits.size // target_length
    return [
        bits[k * target_length : (k + 1) * target_length] for k in range(n_blocks)
    ]
