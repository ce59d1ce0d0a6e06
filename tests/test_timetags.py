import math
import os
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from bellrm import (
    BtagFile,
    BtagWriter,
    CHSH_MENU,
    COINC_DTYPE,
    ConfigError,
    DataError,
    EVENT_DTYPE,
    IntegrityError,
    ModelKind,
    OutcomeModel,
    RunConfig,
    STATION_A,
    STATION_B,
    StreamOrderError,
    chsh_from_table,
    coincidences,
    count_table,
    iter_event_chunks,
    match_events,
    pulse_geometry,
    same_angle,
    sequence_partition,
    slice_index_of,
    slice_sequences,
    write_csv,
)
from bellrm import btag
from bellrm.btag import PIECE_RECORDS
from bellrm.pipeline import cut_at_gaps

REP = 1e6  # Hz; 1000 ns period in these tests


def make_events(times_ns, station, ports=None, settings=None, rep_rate_hz=REP):
    times_ns = np.asarray(times_ns, dtype=np.int64)
    ev = np.zeros(times_ns.size, dtype=EVENT_DTYPE)
    ev["timestamp_ns"] = times_ns
    ev["pulse_index"] = times_ns // int(1e9 / rep_rate_hz)
    ev["station"] = station
    ev["port_bit"] = 0 if ports is None else ports
    ev["setting_index"] = 0 if settings is None else settings
    return ev


from conftest import merge_stations
from matching_oracle import max_matching_count
from bellrm.source import pulse_start_ns

# Four entries with distinct alphas and distinct betas: (alpha of i, beta
# of j) is an entry only for i == j, so every cross-pulse pair between
# different settings gets -1.
DIAGONAL_MENU = ((0.1, 0.2), (0.3, 0.4), (0.5, 0.6), (0.7, 0.8))


def run_config(settings_menu=CHSH_MENU, pulse_duration_ns=None, rep_rate_hz=REP):
    """The run a test stream belongs to: its rep rate, pulse and menu."""
    return RunConfig(
        seed=0, run_duration_s=0.0, rep_rate_hz=rep_rate_hz, settings_menu=settings_menu,
        pulse_duration_s=None if pulse_duration_ns is None else pulse_duration_ns * 1e-9,
    )


def match_stations(events_a, events_b, window_ns):
    """(merged stream, a_pos, b_pos): match_events on the merged stream of
    two per-station event arrays."""
    events = merge_stations(events_a, events_b)
    return (events, *match_events(events, window_ns))


def stations_records(events_a, events_b, window_ns, settings_menu=CHSH_MENU, n_slices=2):
    """The coincidence records of two per-station event arrays."""
    events, a_pos, b_pos = match_stations(events_a, events_b, window_ns)
    return coincidences(events, a_pos, b_pos, run_config(settings_menu), n_slices)


class TestMatchEventsOnTwoStations:
    def test_exact_simultaneity_matches(self):
        ev, a_pos, b_pos = match_stations(
            make_events([1000], STATION_A), make_events([1000], STATION_B), 2
        )
        assert a_pos.size == b_pos.size == 1
        assert ev["timestamp_ns"][a_pos[0]] == ev["timestamp_ns"][b_pos[0]] == 1000
        assert (ev["station"][a_pos[0]], ev["station"][b_pos[0]]) == (STATION_A, STATION_B)

    def test_outside_window_does_not_match(self):
        _, a_pos, _ = match_stations(
            make_events([1000], STATION_A), make_events([1004], STATION_B), 2
        )
        assert a_pos.size == 0

    def test_tie_goes_to_earlier_candidate(self):
        ev, a_pos, b_pos = match_stations(
            make_events([100], STATION_A), make_events([98, 102], STATION_B), 5
        )
        assert a_pos.size == 1
        assert ev["timestamp_ns"][b_pos[0]] == 98

    def test_unsorted_stream_rejected(self):
        ev = make_events([1, 5, 3], STATION_A)
        ev["station"] = [STATION_B, STATION_A, STATION_A]
        with pytest.raises(StreamOrderError, match="record 2 is not after record 1"):
            match_events(ev, 2)

    def test_nonpositive_window_rejected(self):
        with pytest.raises(ConfigError):
            match_stations(make_events([1], STATION_A), make_events([1], STATION_B), 0)

    def test_greedy_equals_max_matching_on_random_streams(self, rng):
        for trial in range(30):
            na, nb = rng.integers(1, 60, 2)
            ta = np.sort(rng.choice(np.arange(2000), na, replace=False))
            tb = np.sort(rng.choice(np.arange(2000), nb, replace=False))
            window = int(rng.integers(1, 40))
            _, a_pos, _ = match_stations(
                make_events(ta, STATION_A), make_events(tb, STATION_B), window
            )
            assert a_pos.size == max_matching_count(ta, tb, window), (
                trial, window, ta.tolist(), tb.tolist()
            )

    def test_swap_symmetry(self, rng):
        ta = np.sort(rng.choice(np.arange(5000), 80, replace=False))
        tb = np.sort(rng.choice(np.arange(5000), 70, replace=False))
        bits_a = rng.integers(0, 2, ta.size)
        bits_b = rng.integers(0, 2, tb.size)
        ea = make_events(ta, STATION_A, ports=bits_a)
        eb = make_events(tb, STATION_B, ports=bits_b)
        ea_sw = make_events(tb, STATION_A, ports=bits_b)
        eb_sw = make_events(ta, STATION_B, ports=bits_a)

        def pairs(events_a, events_b):
            """{(t_a, t_b): (bit_a, bit_b)}: each pair's times from its positions
            and its bits from the records built from them."""
            ev, a_pos, b_pos = match_stations(events_a, events_b, 8)
            rec = coincidences(ev, a_pos, b_pos, run_config(), 2)
            t = ev["timestamp_ns"].tolist()
            return {
                (t[a], t[b]): (bit_a, bit_b)
                for a, b, bit_a, bit_b in zip(a_pos, b_pos, rec["bit_a"], rec["bit_b"])
            }

        fwd, rev = pairs(ea, eb), pairs(ea_sw, eb_sw)
        assert len(fwd) > 10
        assert fwd == {(tb_, ta_): (bit_b, bit_a) for (ta_, tb_), (bit_a, bit_b) in rev.items()}

    def test_window_monotonicity(self, rng):
        ta = np.sort(rng.choice(np.arange(3000), 50, replace=False))
        tb = np.sort(rng.choice(np.arange(3000), 50, replace=False))
        ea, eb = make_events(ta, STATION_A), make_events(tb, STATION_B)
        counts = [match_stations(ea, eb, w)[1].size for w in (1, 2, 5, 10, 30, 100)]
        assert counts == sorted(counts)

    def test_planted_pairs_plus_accidentals(self, rng):
        # oracle: accidental pairs from two Poisson streams within +/-W is
        # 2 rA rB W T; cross-checked against brute-force pair counting
        t_run_s = 10.0
        rate = 1000.0
        window = 1000
        n_planted = 500
        planted = np.sort(
            rng.choice(np.arange(1, int(t_run_s * 1e9), 10_000), n_planted, replace=False)
        )
        darks_a = np.sort(rng.integers(0, int(t_run_s * 1e9), int(rate * t_run_s)))
        darks_b = np.sort(rng.integers(0, int(t_run_s * 1e9), int(rate * t_run_s)))
        darks_a = np.unique(darks_a)
        darks_b = np.unique(darks_b)
        ta = np.unique(np.concatenate([planted, darks_a]))
        tb = np.unique(np.concatenate([planted, darks_b]))
        _, a_pos, _ = match_stations(make_events(ta, STATION_A), make_events(tb, STATION_B), window)
        accidental = 2 * rate * rate * (window * 1e-9) * t_run_s
        expected = n_planted + accidental
        assert abs(a_pos.size - expected) < 3 * math.sqrt(accidental + n_planted * 0.01) + 3

        # brute-force pair counting on a short sub-stream confirms the rate formula
        short = int(1e9)  # 1 s
        sa = darks_a[darks_a < short]
        sb = darks_b[darks_b < short]
        brute = sum(int(np.sum(np.abs(sb - t) <= window)) for t in sa)
        assert abs(brute - 2 * rate * rate * (window * 1e-9) * 1.0) < 5 * math.sqrt(brute + 1)

    def test_effective_setting_for_cross_pulse_pairs(self):
        # A in pulse 0 with setting 0 = (a, b); B in pulse 1 with setting 3 = (a', b')
        ea = make_events([900], STATION_A, settings=[0])
        eb = make_events([1100], STATION_B, settings=[3])
        rec = stations_records(ea, eb, 500)
        # effective pair (alpha of 0, beta of 3) = (a, b') = menu entry 1
        assert rec.size == 1
        assert rec["setting_index"][0] == 1
        # a menu without (alpha of 0, beta of 3) leaves the setting unset
        rec2 = stations_records(ea, eb, 500, settings_menu=DIAGONAL_MENU)
        assert rec2.size == 1
        assert rec2["setting_index"][0] == -1

    def test_angle_identity_shared_with_chsh(self):
        # entry 3 is (a' + 1e-11, b'); the CHSH estimator reads it as (a', b')
        menu = list(CHSH_MENU)
        menu[3] = (menu[3][0] + 1e-11, menu[3][1])
        rec = np.zeros(400, dtype=COINC_DTYPE)
        rec["setting_index"] = np.repeat(np.arange(4), 100)
        rec["bit_a"] = rec["bit_b"] = np.tile([0, 1], 200)
        table = count_table(rec, 4, 1)
        assert chsh_from_table(table, menu).S == chsh_from_table(table, CHSH_MENU).S
        # so the cross-pulse table reads its alpha as a': (alpha of 3, beta
        # of 0) = (a', b) = menu entry 2
        ea = make_events([900], STATION_A, settings=[3])
        eb = make_events([1100], STATION_B, settings=[0])
        rec = stations_records(ea, eb, 500, settings_menu=menu)
        assert rec["setting_index"][0] == 2


class TestMatchEvents:
    def merged(self, times_ns, stations):
        ev = make_events(times_ns, STATION_A)
        ev["station"] = stations
        return ev

    def test_b_before_a_on_one_ns_rejected(self):
        ev = self.merged([100, 100, 200], [STATION_B, STATION_A, STATION_A])
        with pytest.raises(StreamOrderError, match="record 1 is not after record 0"):
            match_events(ev, 2)

    def test_duplicate_ns_within_one_station_rejected(self):
        ev = self.merged([100, 150, 150], [STATION_A, STATION_B, STATION_B])
        with pytest.raises(StreamOrderError, match="record 2 is not after record 1"):
            match_events(ev, 2)

    def test_same_ns_pair_in_station_order_matches(self):
        a_pos, b_pos = match_events(self.merged([100, 100], [STATION_A, STATION_B]), 2)
        assert (a_pos.tolist(), b_pos.tolist()) == ([0], [1])

    def test_equals_the_oracle_on_a_simulated_run(self):
        # W = 100 ns with 100 kHz darks: many chains of three or more events
        # (slow path) and pairs whose A and B events sit in different pulses
        cfg = RunConfig(seed=41, run_duration_s=0.5, dark_rate_hz=1e5)
        events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
        t = events["timestamp_ns"].astype(np.int64)
        chain = np.cumsum(np.diff(t, prepend=t[0]) > 100)
        n_b = np.bincount(chain, weights=events["station"])
        n_a = np.bincount(chain) - n_b
        assert np.count_nonzero((n_a >= 1) & (n_b >= 1) & (n_a + n_b >= 3)) > 1000

        a_pos, b_pos = match_events(events, 100)
        oracle = match_events_before(events, 100)
        assert (a_pos.tolist(), b_pos.tolist()) == (oracle[0].tolist(), oracle[1].tolist())
        # cross-pulse accidentals: accepted by the pulse check, and given a setting
        records = coincidences(events, a_pos, b_pos, cfg, 2)
        assert records.tobytes() == coincidences_before(events, *oracle, cfg, 2).tobytes()
        cross = events["pulse_index"][a_pos] != events["pulse_index"][b_pos]
        assert np.count_nonzero(cross) > 100
        assert np.all(records["setting_index"] >= 0)


# Oracle for the order check: the full-stream rule as it stood before the
# check was folded into the near steps.


def order_error_before(events, first_record):
    """The ``StreamOrderError`` message the full-stream rule gives, or None."""
    dt = np.diff(events["timestamp_ns"].astype(np.int64))
    is_b = events["station"] == STATION_B
    ties = np.flatnonzero(dt <= 0)
    bad = ties[(dt[ties] < 0) | ~is_b[ties + 1] | is_b[ties]]
    if not bad.size:
        return None
    i = first_record + int(bad[0]) + 1
    return f"events out of (timestamp, station) order: record {i} is not after record {i - 1}"


ORDER_FAULTS = ("tie B->A", "tie A->A", "tie B->B", "back short", "back long", None)


@settings(max_examples=300, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3000), st.booleans()), min_size=2, max_size=40),
    st.sampled_from((2, 5, 40)),
    st.sampled_from(ORDER_FAULTS),
    st.sampled_from(("first", "last")),
    st.integers(1, 10**9),
    st.data(),
)
def test_order_check_on_near_steps_names_the_record_the_full_rule_names(
    tagged, window, fault, where, first_record, data
):
    # a valid stream: distinct (t, station) keys in order, clear of t = 0
    keys = sorted({2 * t + int(b) for t, b in tagged})
    assume(len(keys) >= 2)
    ev = make_events([10_000 + (k >> 1) for k in keys], STATION_A)
    ev["station"] = [k & 1 for k in keys]
    # the faulty step joins records (mine, other): the first two or the last two
    mine, other = (0, 1) if where == "first" else (-1, -2)
    t_other = int(ev["timestamp_ns"][other])
    if fault is not None and fault.startswith("tie"):
        left, right = fault[4], fault[7]  # stations before and after the step
        ev["timestamp_ns"][mine] = t_other
        ev["station"][min(mine, other)] = STATION_A if left == "A" else STATION_B
        ev["station"][max(mine, other)] = STATION_A if right == "A" else STATION_B
    elif fault is not None:
        size = (
            data.draw(st.integers(1, window - 1)) if fault == "back short"
            else data.draw(st.integers(window + 1, window + 5000))
        )
        # the later record of the step lies `size` ns before the earlier one
        ev["timestamp_ns"][mine] = t_other + size if where == "first" else t_other - size
    expected = order_error_before(ev, first_record)
    assert (expected is None) == (fault is None)
    if expected is None:
        match_events(ev, window, first_record=first_record)
    else:
        with pytest.raises(StreamOrderError) as raised:
            match_events(ev, window, first_record=first_record)
        assert str(raised.value) == expected


class TestMatcherMemory:
    """``tracemalloc`` peak of ``match_events`` and ``coincidences`` on a
    65,536-record part, and of ``match_events`` on one long chain.

    The bounds are the peaks of the matcher before it was rewritten on near
    steps (722,424 and 2,688,224 bytes with numpy 2.4), when it also built
    40-byte records, so matching and building hold no more memory than it did.
    """

    def peak(self, cfg, kind):
        events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(kind))))
        assert events.size >= PIECE_RECORDS
        part = events[:PIECE_RECORDS].copy()
        del events

        def match_and_build():
            coincidences(part, *match_events(part, 2), cfg, 2)

        match_and_build()  # the settings table is cached from here on
        tracemalloc.start()
        try:
            match_and_build()
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    def test_default_rates(self):
        cfg = RunConfig(seed=5, run_duration_s=0.3)
        assert self.peak(cfg, ModelKind.QM_NONLOCAL) <= 722_424

    def test_dense_scenario(self):
        cfg = RunConfig(
            seed=5, run_duration_s=0.4, detection_prob_per_pulse=0.0,
            coincidence_prob_per_pulse=0.1, dark_rate_hz=0.0,
        )
        assert self.peak(cfg, ModelKind.SCENARIO_LOCALITY_FALSE) <= 2_688_224

    def test_one_long_chain(self):
        # A and B alternate 1 ns apart: one chain of 2^14 events, which
        # the lockstep pass resolves in 2^13 passes.  Keeping two arrays per
        # pass peaked at 2.7 MB, about ten times the input
        n = 1 << 14
        events = np.zeros(n, dtype=EVENT_DTYPE)
        events["timestamp_ns"] = np.arange(n)
        events["station"] = np.arange(n) % 2
        tracemalloc.start()
        try:
            a_pos, b_pos = match_events(events, 2)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert a_pos.tolist() == list(range(0, n, 2))
        assert b_pos.tolist() == list(range(1, n, 2))
        assert peak <= 4 * events.nbytes


# Oracle: the matcher as it was before lone events were set aside, with the
# chain decomposition over every event and whole-record gathers.


def _greedy_pairs_before(ta, tb, ia, ib, window):
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


def match_events_before(events, window_ns):
    """(a_pos, b_pos) as the matcher found them before."""
    window = int(window_ns)
    t = events["timestamp_ns"].astype(np.int64)
    is_b = events["station"] == STATION_B
    keys = (t << 1) | is_b
    assert np.all(keys[1:] > keys[:-1])
    if t.size == 0:
        return np.empty(0, dtype=np.intp), np.empty(0, dtype=np.intp)

    starts = np.concatenate(([0], np.flatnonzero(np.diff(t) > window) + 1, [t.size]))
    sizes = np.diff(starts)
    n_b = np.add.reduceat(is_b, starts[:-1], dtype=np.int64)
    n_a = sizes - n_b

    f0 = starts[:-1][(n_a == 1) & (n_b == 1)]
    first_is_b = is_b[f0]
    a_pos = np.where(first_is_b, f0 + 1, f0)
    b_pos = np.where(first_is_b, f0, f0 + 1)

    pairs = []
    for c in np.flatnonzero((n_a >= 1) & (n_b >= 1) & (sizes >= 3)):
        lo, hi = starts[c], starts[c + 1]
        seg_b = is_b[lo:hi]
        seg_t = t[lo:hi]
        pos = np.arange(lo, hi)
        pairs += _greedy_pairs_before(
            seg_t[~seg_b], seg_t[seg_b], pos[~seg_b], pos[seg_b], window
        )
    if pairs:
        a_pos = np.concatenate([a_pos, [p for p, _ in pairs]])
        b_pos = np.concatenate([b_pos, [q for _, q in pairs]])
        time_order = np.argsort(a_pos)
        a_pos, b_pos = a_pos[time_order], b_pos[time_order]
    return a_pos, b_pos


def coincidences_before(events, a_pos, b_pos, run, n_slices):
    """Oracle for ``coincidences`` on a valid stream: whole-record gathers,
    the slice by its defining inequality, the setting by a menu search."""
    duration = pulse_geometry(run).pulse_duration_ns
    menu = np.array(run.settings_menu)
    records = np.zeros(len(a_pos), dtype=COINC_DTYPE)
    for r, (a, b) in enumerate(zip(events[a_pos], events[b_pos])):
        within = int(a["timestamp_ns"]) - int(pulse_start_ns(a["pulse_index"], run.rep_rate_hz))
        in_slice = [
            k for k in range(n_slices) if k * duration <= n_slices * within < (k + 1) * duration
        ]
        setting = int(a["setting_index"])
        if a["pulse_index"] != b["pulse_index"]:
            alpha, beta = menu[setting, 0], menu[int(b["setting_index"]), 1]
            hits = np.flatnonzero(same_angle(menu[:, 0], alpha) & same_angle(menu[:, 1], beta))
            setting = int(hits[-1]) if hits.size else -1  # a later duplicate entry wins
        records[r] = (in_slice[0] if in_slice else -1, setting, a["port_bit"], b["port_bit"])
    return records


def has_neighbour(events, window):
    near = np.diff(events["timestamp_ns"].astype(np.int64)) <= window
    kept = np.zeros(events.size, dtype=bool)
    kept[1:] = near
    kept[:-1] |= near
    return kept


class TestMatcherOracle:
    def assert_same(self, events, window, run=None):
        """Positions and records equal the oracles'; returns the records."""
        run = run_config() if run is None else run
        a_pos, b_pos = match_events(events, window)
        old_a, old_b = match_events_before(events, window)
        assert (a_pos.tolist(), b_pos.tolist()) == (old_a.tolist(), old_b.tolist())
        new = coincidences(events, a_pos, b_pos, run, 3)
        assert new.dtype == COINC_DTYPE
        assert new.tobytes() == coincidences_before(events, a_pos, b_pos, run, 3).tobytes()
        return new

    @pytest.mark.parametrize("window", [2, 100, 1000, 5000])
    def test_simulated_stream(self, window):
        cfg = RunConfig(seed=43, run_duration_s=0.5, dark_rate_hz=1e5)
        events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
        if window <= 100:
            # most events are lone ones and get set aside
            assert np.count_nonzero(has_neighbour(events, window)) < 0.5 * events.size
        else:
            # chains of many lengths, which finish on different lockstep passes
            near = np.diff(events["timestamp_ns"].astype(np.int64)) <= window
            sizes = np.diff(np.flatnonzero(np.concatenate(([True], ~near, [True]))))
            assert np.unique(sizes[sizes >= 3]).size >= 8
        records = self.assert_same(events, window, cfg)
        assert records.size > 1000

    def test_dense_stream_keeps_every_event(self):
        cfg = RunConfig(
            seed=44, run_duration_s=0.2, detection_prob_per_pulse=0.0,
            coincidence_prob_per_pulse=0.3, dark_rate_hz=0.0,
        )
        model = OutcomeModel(ModelKind.SCENARIO_LOCALITY_FALSE)
        events = np.concatenate(list(iter_event_chunks(cfg, model)))
        assert has_neighbour(events, 2).all()
        assert self.assert_same(events, 2, cfg).size == events.size // 2

    def test_empty_stream_and_single_event(self):
        empty = np.empty(0, dtype=EVENT_DTYPE)
        assert self.assert_same(empty, 2).size == 0
        assert self.assert_same(make_events([100], STATION_B), 2).size == 0

    def test_no_event_within_the_window_of_another(self):
        ev = make_events(np.arange(20) * 10, STATION_A)
        ev["station"] = np.arange(20) % 2
        assert not has_neighbour(ev, 2).any()
        assert self.assert_same(ev, 2).size == 0

    def test_one_long_chain(self, rng):
        n = 3000
        ev = make_events(np.cumsum(rng.integers(1, 3, n)), STATION_A)
        ev["station"] = rng.integers(0, 2, n)
        ev["port_bit"] = rng.integers(0, 2, n)
        ev["setting_index"] = rng.integers(0, 4, n)
        records = self.assert_same(ev, 2)
        assert records.size > n // 4

    @given(st.lists(st.tuples(st.integers(0, 3000), st.booleans()), max_size=60))
    def test_random_streams(self, tagged):
        # distinct (t, station) keys in order: a stream the matcher accepts
        keys = sorted({2 * t + int(b) for t, b in tagged})
        ev = make_events([k >> 1 for k in keys], STATION_A)
        ev["station"] = [k & 1 for k in keys]
        ev["setting_index"] = [k % 4 for k in keys]
        for window in (1, 5, 40):
            for menu in (DIAGONAL_MENU, CHSH_MENU):
                self.assert_same(ev, window, run_config(menu))


class TestPulseWindow:
    """Both events of a coincidence must lie where the generator puts an
    event of their own pulse k: 0 <= t - start(k) < max(D, start(k + 1) - start(k))."""

    def records(self, times, pulses, run=None, first_record=0):
        """Records of a stream of same-ns A+B pairs at ``times``; ``pulses``
        gives each event's pulse index (A, B, A, B, ...)."""
        ev = make_events(np.repeat(times, 2), STATION_A)
        ev["station"] = np.tile([STATION_A, STATION_B], len(times))
        ev["pulse_index"] = pulses
        a_pos, b_pos = match_events(ev, 2, first_record=first_record)
        assert a_pos.size == len(times)
        run = run_config() if run is None else run
        return coincidences(ev, a_pos, b_pos, run, 2, first_record=first_record)

    def test_in_pulse_and_dark_events_are_accepted(self):
        # 1 MHz, a 133 ns pulse: 10 ns in is slice 0, 999 ns in is a dark
        rec = self.records([5_010, 6_999], [5, 5, 6, 6])
        assert rec["slice_index"].tolist() == [0, -1]

    @pytest.mark.parametrize(
        "times, pulses, bad",
        [
            ([5_010], [2**32 - 1, 5], 0),  # the A event's pulse is out of range
            ([6_000], [5, 5], 0),  # on the next pulse's start
            ([4_999], [5, 5], 0),  # before its pulse's start
            ([5_010, 9_010], [5, 5, 9, 8], 3),  # only the second B event
            ([5_010, 9_010], [5, 4, 10, 9], 1),  # the first record of three bad ones
        ],
    )
    def test_an_event_outside_its_pulse_is_a_data_error(self, times, pulses, bad):
        with pytest.raises(DataError, match=f"^record {1000 + bad} at "):
            self.records(times, pulses, first_record=1000)

    def test_a_pulse_that_fills_a_non_integer_period_keeps_its_last_ns(self):
        # 2.6 ns period: pulses 1 and 2 start at 3 and 5 ns, and the 3 ns pulse
        # 1 owns 3, 4 and 5 ns; 5 ns is also pulse 2's first
        run = run_config(rep_rate_hz=1e9 / 2.6, pulse_duration_ns=2.6)
        assert pulse_start_ns([1, 2], run.rep_rate_hz).tolist() == [3, 5]
        rec = self.records([3, 5, 7], [1, 1, 1, 1, 2, 2], run)
        assert rec["slice_index"].tolist() == [0, 1, 1]
        with pytest.raises(DataError, match="^record 0 at 6 ns lies outside its pulse 1"):
            self.records([6], [1, 1], run)

    @settings(max_examples=300, derandomize=True, deadline=None)
    @given(
        period_ns=st.sampled_from([1000.0, 2.6, 7.3, 1e3 / 3]),
        duty=st.floats(0.01, 1.0),
        pulse=st.integers(0, 2**32 - 2),
        offset=st.integers(-3, 1002),
    )
    def test_the_check_accepts_exactly_the_generator_window(self, period_ns, duty, pulse, offset):
        run = run_config(rep_rate_hz=1e9 / period_ns, pulse_duration_ns=duty * period_ns)
        duration = pulse_geometry(run).pulse_duration_ns
        start, next_start = pulse_start_ns([pulse, pulse + 1], run.rep_rate_hz).tolist()
        assume(start + offset >= 0)
        if 0 <= offset < max(duration, next_start - start):
            rec = self.records([start + offset], [pulse, pulse], run)
            assert (rec["slice_index"][0] >= 0) == (offset < duration)
        else:
            with pytest.raises(DataError, match="^record 0 at "):
                self.records([start + offset], [pulse, pulse], run)


class TestSliceIndexOf:
    DURATION = 100

    def matched_slices(self, withins, n_slices):
        """Slice of each matched pair at the given within-pulse times."""
        ea = make_events([int(w) for w in withins], STATION_A)
        eb = make_events([int(w) for w in withins], STATION_B)
        events, a_pos, b_pos = match_stations(ea, eb, 1)
        run = run_config(pulse_duration_ns=self.DURATION)
        return coincidences(events, a_pos, b_pos, run, n_slices)["slice_index"]

    def test_boundaries(self):
        assert self.matched_slices([0, 49, 50, 99], 2).tolist() == [0, 0, 1, 1]

    def test_outside_pulse_gets_sentinel(self):
        assert self.matched_slices([120, 500], 2).tolist() == [-1, -1]

    def test_requires_at_least_two_slices(self):
        with pytest.raises(ConfigError):
            self.matched_slices([1], 1)

    def test_refinement_consistency(self):
        two = self.matched_slices(range(100), 2)
        four = self.matched_slices(range(100), 4)
        coarse0 = np.count_nonzero(two == 0)
        fine01 = np.count_nonzero((four == 0) | (four == 1))
        assert coarse0 == fine01 == 50

    def test_slice_counts_partition_in_pulse_records(self):
        sliced = self.matched_slices(range(0, 130, 3), 4)
        in_pulse = np.count_nonzero(sliced >= 0)
        total_by_slice = sum(int(np.count_nonzero(sliced == k)) for k in range(4))
        assert total_by_slice == in_pulse

    @given(
        duration=st.integers(1, 10**4),
        n_slices=st.integers(2, 64),
        within=st.integers(-10**4, 2 * 10**4),
    )
    def test_slices_partition_the_pulse(self, duration, n_slices, within):
        k = int(slice_index_of(np.array([within]), n_slices, duration)[0])
        if 0 <= within < duration:
            assert 0 <= k < n_slices
            assert k * duration <= n_slices * within < (k + 1) * duration
        else:
            assert k == -1

    @given(n_slices=st.integers(2, 64), q=st.integers(1, 200), data=st.data())
    def test_record_on_a_boundary_goes_to_the_later_slice(self, n_slices, q, data):
        k = data.draw(st.integers(1, n_slices - 1))
        duration = q * n_slices // math.gcd(k, n_slices)  # boundary k is a whole ns
        on_boundary = k * duration // n_slices
        sliced = slice_index_of(np.array([on_boundary - 1, on_boundary]), n_slices, duration)
        assert sliced.tolist()[1] == k
        assert sliced.tolist()[0] < k

    def test_loophole_free_boundary_is_light_time(self):
        # first half of a 2L/c pulse ends at L/c
        cfg = RunConfig(seed=1, run_duration_s=0.0)
        geo = pulse_geometry(cfg)
        half_ns = geo.pulse_duration_ns / 2
        assert abs(half_ns - geo.light_time_s * 1e9) <= 1.0


class TestSequences:
    def qm_records(self, menu, seed=7):
        cfg = RunConfig(
            seed=seed,
            run_duration_s=0.5,
            detection_prob_per_pulse=0.0,
            coincidence_prob_per_pulse=0.05,
            dark_rate_hz=0.0,
            settings_menu=menu,
        )
        events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
        return coincidences(events, *match_events(events, 2), cfg, 2)

    def test_aligned_settings_give_identical_sequences(self):
        sequences = slice_sequences(self.qm_records([(0.3, 0.3)]), 2)
        for s in (0, 1):
            seq_a, seq_b = sequences[s, STATION_A], sequences[s, STATION_B]
            assert seq_a.size > 100
            assert np.array_equal(seq_a, seq_b)

    def test_orthogonal_settings_give_complementary_sequences(self):
        sequences = slice_sequences(self.qm_records([(0.3, 0.3 + math.pi / 2)]), 2)
        for s in (0, 1):
            assert np.array_equal(sequences[s, STATION_A], 1 - sequences[s, STATION_B])

    def test_bits_follow_record_time_order(self):
        ea = make_events(np.arange(10) * 1000, STATION_A, ports=[0, 1] * 5)
        eb = make_events(np.arange(10) * 1000, STATION_B, ports=[1, 0] * 5)
        events, a_pos, b_pos = match_stations(ea, eb, 2)
        rec = coincidences(events, a_pos, b_pos, run_config(pulse_duration_ns=100), 2)
        sequences = slice_sequences(rec, 2)
        assert list(sequences) == [(0, STATION_A), (0, STATION_B), (1, STATION_A), (1, STATION_B)]
        seq = sequences[0, STATION_A]
        assert seq.dtype == np.uint8
        assert seq.tolist() == [0, 1] * 5
        empty = sequences[1, STATION_B]  # empty, not an error
        assert empty.dtype == np.uint8 and empty.size == 0

    def test_records_outside_every_slice_are_dropped(self):
        rec = np.zeros(5, dtype=COINC_DTYPE)
        rec["slice_index"] = [-1, 1, -1, 0, 1]
        rec["bit_a"] = [1, 0, 1, 1, 1]
        rec["bit_b"] = [0, 1, 0, 0, 0]
        sequences = slice_sequences(rec, 2)
        assert sequences[0, STATION_A].tolist() == [1]
        assert sequences[1, STATION_A].tolist() == [0, 1]
        assert sequences[1, STATION_B].tolist() == [1, 0]
        assert sum(bits.size for bits in sequences.values()) == 2 * 3

    def test_no_records_give_empty_sequences(self):
        sequences = slice_sequences(np.empty(0, dtype=COINC_DTYPE), 3)
        assert len(sequences) == 6
        assert all(bits.dtype == np.uint8 and bits.size == 0 for bits in sequences.values())


def extract_sequence(records, station, slice_index):
    """Oracle: one station's bits in one slice, by a boolean mask."""
    column = "bit_a" if station == STATION_A else "bit_b"
    return records[column][records["slice_index"] == slice_index]


@given(
    st.integers(2, 5).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(-1, n - 1), st.integers(0, 1), st.integers(0, 1))),
        )
    )
)
@example((3, [(-1, 1, 0), (0, 0, 1), (2, 1, 1), (-1, 0, 0), (0, 1, 0)]))  # slice -1, empty slice 1
def test_slice_sequences_equal_one_mask_per_key(case):
    n_slices, rows = case
    records = np.zeros(len(rows), dtype=COINC_DTYPE)
    if rows:
        records["slice_index"], records["bit_a"], records["bit_b"] = zip(*rows)
    sequences = slice_sequences(records, n_slices)
    assert list(sequences) == [
        (s, station) for s in range(n_slices) for station in (STATION_A, STATION_B)
    ]
    for (s, station), bits in sequences.items():
        assert bits.dtype == np.uint8
        assert bits.tolist() == extract_sequence(records, station, s).tolist()


class TestSequencePartition:
    def test_six_megabit_run_yields_600_blocks(self):
        bits = np.zeros(6 * 10**6, dtype=np.uint8)
        assert len(sequence_partition(bits, 10**4)) == 600

    def test_remainder_discarded(self):
        assert sequence_partition(np.zeros(9999, dtype=np.uint8), 10**4) == []

    def test_partition_reproduces_prefix(self):
        bits = (np.arange(2 * 10**4) % 3 == 0).astype(np.uint8)
        blocks = sequence_partition(bits, 10**4)
        assert len(blocks) == 2
        assert np.array_equal(np.concatenate(blocks), bits[: 2 * 10**4])

    def test_minimum_length_enforced(self):
        with pytest.raises(ConfigError):
            sequence_partition(np.zeros(1000, dtype=np.uint8), 99)


class TestBtagFormat:
    def events(self, rng):
        ev = np.zeros(100, dtype=EVENT_DTYPE)
        ev["timestamp_ns"] = np.sort(rng.choice(np.arange(10**6), 100, replace=False))
        ev["pulse_index"] = ev["timestamp_ns"] // 1000
        ev["station"] = rng.integers(0, 2, 100)
        ev["port_bit"] = rng.integers(0, 2, 100)
        ev["setting_index"] = rng.integers(0, 4, 100)
        return ev

    def test_round_trip(self, tmp_path, rng):
        ev = self.events(rng)
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(ev)
        assert path.stat().st_size == 32 + 16 * ev.size
        with BtagFile(path) as events:
            assert len(events) == ev.size
            back = events[:]
        assert np.array_equal(ev, back)

    def test_failed_count_patch_leaves_the_old_file(self, tmp_path, rng, monkeypatch):
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(self.events(rng))
        before = path.read_bytes()
        pack = btag._pack_header

        def fails_on_the_count(count):
            if count:
                raise OSError("no space left on device")
            return pack(count)

        monkeypatch.setattr(btag, "_pack_header", fails_on_the_count)
        writer = btag.BtagWriter(path)  # alive after the failure
        with pytest.raises(OSError, match="no space left"):
            with writer:
                writer.write(self.events(rng)[:50])
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["events.btag"]

    def test_empty_file_is_valid(self, tmp_path):
        path = tmp_path / "empty.btag"
        with BtagWriter(path) as writer:
            writer.write(np.empty(0, dtype=EVENT_DTYPE))
        with BtagFile(path) as events:
            assert len(events) == 0 and events[:].size == 0
            assert list(cut_at_gaps(events, 2)) == []

    def test_truncated_record_region_reports_offset(self, tmp_path, rng):
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(self.events(rng))
        data = path.read_bytes()
        path.write_bytes(data[:-7])
        with pytest.raises(IntegrityError) as err:
            BtagFile(path)
        assert err.value.offset == len(data) - 7

    def test_a_file_that_shrinks_after_it_was_opened_ends_early(self, tmp_path, rng):
        # the size was checked when the file was opened; a slice past the
        # new end cannot be mapped
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(self.events(rng))
        with BtagFile(path) as events:
            os.truncate(path, 32 + 16 * 60 + 5)
            assert events[:60].size == 60
            with pytest.raises(IntegrityError, match="file ends early") as err:
                events[50:70]
        assert err.value.offset == 32 + 16 * 60 + 5

    def test_pieces_join_to_the_whole_file(self, tmp_path, rng):
        ev = self.events(rng)
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(ev)
        with BtagFile(path) as events:
            pieces = [events[i : i + 7] for i in range(0, len(events), 7)]
        assert [p.size for p in pieces] == [7] * 14 + [2]
        assert np.concatenate(pieces).tobytes() == ev.tobytes()

    def test_a_longer_file_is_read_in_default_pieces(self, tmp_path, rng):
        # more records than one default window holds; slices start and end
        # off the mapping granularity and past the first window
        ev = np.zeros(PIECE_RECORDS + 100, dtype=EVENT_DTYPE)
        ev["timestamp_ns"] = np.arange(ev.size) * 1000
        ev["station"] = rng.integers(0, 2, ev.size)
        ev["port_bit"] = rng.integers(0, 2, ev.size)
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(ev)
        with BtagFile(path) as events:
            pieces = [events[:PIECE_RECORDS], events[PIECE_RECORDS:]]
            assert [p.size for p in pieces] == [PIECE_RECORDS, 100]
            assert np.concatenate(pieces).tobytes() == ev.tobytes()
            for a, b in [(1, 2), (255, 257), (PIECE_RECORDS - 3, PIECE_RECORDS + 41)]:
                assert events[a:b].tobytes() == ev[a:b].tobytes()
            assert events[-5:].tobytes() == ev[-5:].tobytes()
            with pytest.raises(TypeError, match="slices of consecutive records"):
                events[::2]

    @pytest.mark.parametrize("piece_records", [0, -1])
    def test_piece_of_fewer_than_one_record_rejected(self, tmp_path, rng, piece_records):
        # 0 would grow no window, -1 would shrink it
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(self.events(rng))
        with BtagFile(path) as events, pytest.raises(
            ConfigError, match="piece_records must be >= 1"
        ):
            next(cut_at_gaps(events, 2, piece_records=piece_records))

    def test_bad_field_in_a_later_piece_reports_its_offset_in_the_file(self, tmp_path, rng):
        path = tmp_path / "events.btag"
        ev = self.events(rng)
        ev["port_bit"][61] = 2
        with BtagWriter(path) as writer:
            writer.write(ev)
        with BtagFile(path) as events, pytest.raises(
            IntegrityError, match="record 61 has station"
        ) as err:
            list(cut_at_gaps(events, 2, piece_records=20))
        assert err.value.offset == 32 + 61 * 16

    def test_bad_field_in_a_window_that_grew_names_the_lowest_bad_record(
        self, tmp_path, rng
    ):
        # 100 events 1 ns apart: no gap, so the window grows 7 records at a
        # time; records 30 and 33 are bad, and 30 is found when the window
        # first covers it
        ev = self.events(rng)
        ev["timestamp_ns"] = np.arange(ev.size)
        ev["port_bit"][[30, 33]] = 2
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(ev)
        with BtagFile(path) as events, pytest.raises(
            IntegrityError, match="record 30 has station .* and port_bit 2"
        ) as err:
            list(cut_at_gaps(events, 2, piece_records=7))
        assert err.value.offset == 32 + 30 * 16

    def test_bad_magic_rejected(self, tmp_path, rng):
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(self.events(rng))
        data = bytearray(path.read_bytes())
        data[0:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(IntegrityError) as err:
            BtagFile(path)
        assert err.value.offset == 0

    def test_csv_mirror_round_trip(self, tmp_path, rng):
        ev = self.events(rng)
        path = tmp_path / "events.csv"
        write_csv(path, ev)
        first_lines = path.read_text().splitlines()[:2]
        assert first_lines[0] == "timestamp_ns,pulse_index,station,port_bit,setting_index"
        assert first_lines[1].split(",")[2] in ("A", "B")
        back = np.loadtxt(
            path, dtype=EVENT_DTYPE, delimiter=",", skiprows=1,
            converters={2: {"A": STATION_A, "B": STATION_B}.__getitem__},
        )
        assert np.array_equal(back, ev)

    def test_csv_of_pieces_equals_csv_of_the_whole(self, tmp_path, rng, monkeypatch):
        ev = self.events(rng)
        path = tmp_path / "events.btag"
        with BtagWriter(path) as writer:
            writer.write(ev)
        whole, pieces = tmp_path / "whole.csv", tmp_path / "pieces.csv"
        write_csv(whole, ev)
        monkeypatch.setattr(btag, "PIECE_RECORDS", 7)  # fifteen slices
        with BtagFile(path) as events:
            write_csv(pieces, events)
        assert pieces.read_bytes() == whole.read_bytes()
        # one record per line, formatted field by field
        rows = whole.read_text().splitlines()[1:]
        assert rows == [
            "%d,%d,%s,%d,%d" % (r["timestamp_ns"], r["pulse_index"], "AB"[r["station"]],
                                r["port_bit"], r["setting_index"])
            for r in ev
        ]
