"""Coincidence extraction and per-slice sequence building.

The matcher is a greedy earliest-pair, one-to-one pass over the two
sorted streams, which attains maximum cardinality for interval matching
on a line.  It runs as a vectorized cluster decomposition: events closer
than the window form chains, chains are isolated from each other, and
the overwhelmingly common chain (one A plus one B event) is resolved
without Python-level looping.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .btag import STATION_A, STATION_B
from .errors import ConfigError, StreamOrderError
from .models import same_angle
from .source import pulse_start_ns

COINC_DTYPE = np.dtype(
    [
        ("t_a_ns", "<i8"),
        ("t_b_ns", "<i8"),
        ("pulse_index", "<i8"),
        ("within_pulse_ns", "<i8"),
        ("bit_a", "u1"),
        ("bit_b", "u1"),
        ("setting_index", "<i4"),
        ("slice_index", "<i2"),
    ]
)


def _check_sorted(times: np.ndarray, label: str) -> None:
    if times.size > 1 and not np.all(np.diff(times) > 0):
        raise StreamOrderError(f"station {label} events are not strictly time-ordered")


def _greedy_pairs_cluster(ta: np.ndarray, tb: np.ndarray, ia, ib, window: int):
    """Two-pointer greedy matching inside one chain; returns index pairs."""
    out = []
    i = j = 0
    while i < ta.size and j < tb.size:
        dt = tb[j] - ta[i]
        if dt < -window:
            j += 1
        elif dt > window:
            i += 1
        else:
            out.append((ia[i], ib[j]))
            i += 1
            j += 1
    return out


def _effective_setting_table(settings_menu) -> np.ndarray:
    """eff[sa, sb] = menu index of (alpha of sa, beta of sb), or -1."""
    menu = np.asarray(settings_menu, dtype=np.float64).reshape(-1, 2)
    eff = np.full((len(menu), len(menu)), -1, dtype=np.int32)
    for k, (a, b) in enumerate(menu):  # a later duplicate entry wins
        eff[np.ix_(same_angle(menu[:, 0], a), same_angle(menu[:, 1], b))] = k
    return eff


def match_coincidences(
    events_a: np.ndarray,
    events_b: np.ndarray,
    window_ns: int,
    *,
    rep_rate_hz: float,
    settings_menu=None,
) -> np.ndarray:
    """Pair up detections across stations within ``window_ns``.

    Greedy earliest-pair one-to-one matching in time order; ties go to the
    earlier candidate partner.  Returns COINC_DTYPE records in coincidence
    time order with slice_index unset (-1); run :func:`slice_records` next.

    For pairs spanning two pulses (accidentals) the pulse and within-pulse
    time come from the station-A event, and the setting is the menu entry
    matching (alpha of A's pulse, beta of B's pulse) when the menu contains
    it, else -1 (such records are skipped by per-setting estimators).
    """
    if window_ns <= 0:
        raise ConfigError("coincidence window must be > 0 ns")
    window = int(window_ns)
    ta = events_a["timestamp_ns"].astype(np.int64)
    tb = events_b["timestamp_ns"].astype(np.int64)
    _check_sorted(ta, "A")
    _check_sorted(tb, "B")

    if ta.size == 0 or tb.size == 0:
        return np.empty(0, dtype=COINC_DTYPE)

    t = np.concatenate([ta, tb])
    from_b = np.zeros(t.size, dtype=bool)
    from_b[ta.size :] = True
    src = np.concatenate([np.arange(ta.size), np.arange(tb.size)])

    order = np.lexsort((from_b, t))
    ts = t[order]
    bs = from_b[order]
    si = src[order]

    new_cluster = np.empty(ts.size, dtype=bool)
    new_cluster[0] = True
    np.greater(ts[1:] - ts[:-1], window, out=new_cluster[1:])
    cid = np.cumsum(new_cluster) - 1
    n_clusters = int(cid[-1]) + 1
    sizes = np.bincount(cid, minlength=n_clusters)
    n_b = np.bincount(cid, weights=bs, minlength=n_clusters).astype(np.int64)
    n_a = sizes - n_b
    starts = np.zeros(n_clusters + 1, dtype=np.int64)
    np.cumsum(sizes, out=starts[1:])

    # Fast path: isolated A+B pair, guaranteed inside the window.
    fast = (n_a == 1) & (n_b == 1)
    f0 = starts[:-1][fast]
    f1 = f0 + 1
    first_is_b = bs[f0]
    a_pos = np.where(first_is_b, f1, f0)
    b_pos = np.where(first_is_b, f0, f1)
    ia = si[a_pos]
    ib = si[b_pos]

    # Slow path: chains of three or more with both stations present.
    slow = (n_a >= 1) & (n_b >= 1) & (sizes >= 3)
    if np.any(slow):
        extra_a = []
        extra_b = []
        for c in np.flatnonzero(slow):
            lo, hi = starts[c], starts[c + 1]
            seg_b = bs[lo:hi]
            seg_t = ts[lo:hi]
            seg_i = si[lo:hi]
            pairs = _greedy_pairs_cluster(
                seg_t[~seg_b], seg_t[seg_b], seg_i[~seg_b], seg_i[seg_b], window
            )
            for pa, pb in pairs:
                extra_a.append(pa)
                extra_b.append(pb)
        if extra_a:
            ia = np.concatenate([ia, np.asarray(extra_a, dtype=ia.dtype)])
            ib = np.concatenate([ib, np.asarray(extra_b, dtype=ib.dtype)])

    if ia.size == 0:
        return np.empty(0, dtype=COINC_DTYPE)

    time_order = np.argsort(ta[ia], kind="stable")
    ia = ia[time_order]
    ib = ib[time_order]

    records = np.empty(ia.size, dtype=COINC_DTYPE)
    records["t_a_ns"] = ta[ia]
    records["t_b_ns"] = tb[ib]
    pulse_a = events_a["pulse_index"][ia].astype(np.int64)
    pulse_b = events_b["pulse_index"][ib].astype(np.int64)
    records["pulse_index"] = pulse_a
    records["within_pulse_ns"] = ta[ia] - pulse_start_ns(pulse_a, rep_rate_hz)
    records["bit_a"] = events_a["port_bit"][ia]
    records["bit_b"] = events_b["port_bit"][ib]
    records["slice_index"] = -1

    setting_a = events_a["setting_index"][ia].astype(np.int64)
    setting_b = events_b["setting_index"][ib].astype(np.int64)
    same_pulse = pulse_a == pulse_b
    if settings_menu is None:
        records["setting_index"] = np.where(same_pulse, setting_a, -1)
    else:
        eff = _effective_setting_table(settings_menu)
        records["setting_index"] = np.where(
            same_pulse, setting_a, eff[setting_a, setting_b]
        )
    return records


def slice_records(records: np.ndarray, n_slices: int, pulse_duration_ns: int) -> np.ndarray:
    """Assign equal-width pulse slices (copy returned).

    Slice k covers [k*D/n, (k+1)*D/n); a record exactly on a boundary goes
    to the later slice.  Records outside the pulse window get the sentinel
    slice -1 and are excluded from per-slice sequences.
    """
    if n_slices < 2:
        raise ConfigError("n_slices must be >= 2 (first/second pulse half)")
    if n_slices > 32767:
        raise ConfigError("n_slices too large")
    out = records.copy()
    within = out["within_pulse_ns"]
    idx = (n_slices * within) // pulse_duration_ns
    idx[(within < 0) | (within >= pulse_duration_ns)] = -1
    out["slice_index"] = idx.astype(np.int16)
    return out


@dataclass
class BinarySequence:
    """Ordered outcome bits of one station, one slice, optional setting."""

    station: int
    slice_index: int
    bits: np.ndarray
    setting_index: int | None = None

    def __len__(self) -> int:
        return int(self.bits.size)


def extract_sequence(
    records: np.ndarray,
    station: int,
    slice_index: int,
    setting_index: int | None = None,
) -> BinarySequence:
    """Bits of one station's coincidences in time order, filtered by slice.

    An empty selection is a valid empty sequence, not an error.
    """
    if station not in (STATION_A, STATION_B):
        raise ConfigError("station must be 0 (A) or 1 (B)")
    mask = records["slice_index"] == slice_index
    if setting_index is not None:
        mask &= records["setting_index"] == setting_index
    column = "bit_a" if station == STATION_A else "bit_b"
    bits = records[column][mask].astype(np.uint8)
    return BinarySequence(station, slice_index, bits, setting_index)


def sequence_partition(bits: np.ndarray, target_length: int) -> list[np.ndarray]:
    """Split into consecutive non-overlapping blocks; remainder discarded."""
    if target_length < 100:
        raise ConfigError("target_length must be >= 100")
    bits = np.asarray(bits)
    n_blocks = bits.size // target_length
    return [
        bits[k * target_length : (k + 1) * target_length] for k in range(n_blocks)
    ]
