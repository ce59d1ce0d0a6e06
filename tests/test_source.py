import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy import stats

from bellrm import source
from bellrm import (
    CHSH_MENU,
    EVENT_DTYPE,
    STATION_A,
    STATION_B,
    ConfigError,
    ModelKind,
    OutcomeModel,
    RunConfig,
    RunStats,
    coincidences,
    iter_event_chunks,
    match_events,
    pulse_geometry,
    pulse_index_of,
    pulse_start_ns,
)
from bellrm.source import _hit_offsets
from bellrm.streams import per_pulse_choice, substream
from sampler_oracle import MaskedPairSampler

QM = OutcomeModel(ModelKind.QM_NONLOCAL)


def small_config(**kwargs):
    base = dict(
        seed=101,
        run_duration_s=1.0,
        detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.02,
        dark_rate_hz=0.0,
    )
    base.update(kwargs)
    return RunConfig(**base)


class TestPulseGeometry:
    def test_rounded_pulse_operating_point(self):
        cfg = small_config(pulse_duration_s=120e-9)
        geo = pulse_geometry(cfg)
        assert geo.duty_cycle == pytest.approx(0.12, rel=1e-12)

    def test_default_pulse_is_twice_light_time(self):
        # oracle: 2 * 20 m / c = 133.4 ns
        geo = pulse_geometry(small_config())
        expected = 2 * 20.0 / 299_792_458.0
        assert expected == pytest.approx(133.4e-9, abs=0.05e-9)
        assert geo.pulse_duration_s == pytest.approx(expected, rel=1e-12)
        assert geo.light_time_s == pytest.approx(expected / 2, rel=1e-12)
        assert geo.duty_cycle == pytest.approx(0.1334, abs=5e-5)

    def test_zero_separation_degenerates(self):
        geo = pulse_geometry(small_config(station_separation_m=0.0, pulse_duration_s=50e-9))
        assert geo.light_time_s == 0.0

    @pytest.mark.parametrize(
        "kwargs", [{"pulse_duration_s": 0.0}, {"station_separation_m": 0.0}]
    )
    def test_zero_pulse_rejected_when_the_run_has_pulses(self, kwargs):
        with pytest.raises(ConfigError, match="pulse_duration_s must be positive"):
            small_config(**kwargs)
        assert small_config(run_duration_s=0.0, **kwargs).n_pulses == 0

    def test_overfull_duty_cycle_rejected(self):
        with pytest.raises(ConfigError):
            small_config(pulse_duration_s=2e-6)


class TestRunConfig:
    def test_detection_prob_hard_cap(self):
        with pytest.raises(ConfigError):
            small_config(detection_prob_per_pulse=0.25)

    def test_detection_prob_warning_band(self):
        with pytest.warns(UserWarning):
            small_config(detection_prob_per_pulse=0.15)

    def test_menu_angles_normalized(self):
        cfg = small_config(settings_menu=[(math.pi + 0.1, -0.1)])
        assert cfg.settings_menu[0][0] == pytest.approx(0.1)
        assert cfg.settings_menu[0][1] == pytest.approx(math.pi - 0.1)

    def test_round_trip_dict(self):
        cfg = small_config()
        assert RunConfig.from_dict(cfg.to_dict()).to_dict() == cfg.to_dict()

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            RunConfig.from_dict({"seed": 1, "no_such_field": 2})

    def test_bool_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            small_config(seed=True)

    @pytest.mark.parametrize(
        "field",
        [
            "station_separation_m", "rep_rate_hz", "pulse_duration_s", "run_duration_s",
            "detection_prob_per_pulse", "coincidence_prob_per_pulse", "dark_rate_hz",
        ],
    )
    @pytest.mark.parametrize("value", ["1", True, math.nan, math.inf, -math.inf, 10**400])
    def test_float_fields_must_be_finite_numbers(self, field, value):
        with pytest.raises(ConfigError, match=f"{field} must be a finite number"):
            small_config(**{field: value})

    def test_float_fields_accept_integers(self):
        cfg = small_config(rep_rate_hz=1_000_000, run_duration_s=1, pulse_duration_s=None)
        assert cfg.n_pulses == 10**6

    def test_menu_holds_at_most_4096_entries(self):
        menu = [(0.001 * k, 0.0) for k in range(4097)]
        assert len(small_config(settings_menu=menu[:4096]).settings_menu) == 4096
        with pytest.raises(ConfigError, match=r"4097 entries, more than 4096: .* n\^2 table"):
            small_config(settings_menu=menu)

    def test_pulse_index_must_fit_32_bits(self):
        with pytest.raises(ConfigError):
            small_config(run_duration_s=5e3, rep_rate_hz=1e6)


class TestPulseArithmetic:
    def test_start_and_index_are_inverse(self):
        idx = np.array([0, 1, 7, 10**6, 3 * 10**8])
        starts = pulse_start_ns(idx, 1e6)
        assert np.array_equal(pulse_index_of(starts, 1e6), idx)
        assert np.array_equal(pulse_index_of(starts + 999, 1e6), idx)

    @pytest.mark.parametrize("rep_rate_hz", [0.7e6, 1.1e6, 1.3e6, 2.9e6, 3e6])
    def test_inverse_when_the_period_is_not_whole_ns(self, rep_rate_hz):
        idx = np.arange(200_000)
        starts = pulse_start_ns(idx, rep_rate_hz)
        assert np.array_equal(pulse_index_of(starts, rep_rate_hz), idx)
        assert np.array_equal(pulse_index_of(starts[1:] - 1, rep_rate_hz), idx[:-1])

    @given(
        rep_rate_hz=st.floats(1e3, 5e8),
        k=st.integers(0, 2**32 - 2),
    )
    def test_round_trip(self, rep_rate_hz, k):
        start, next_start = pulse_start_ns([k, k + 1], rep_rate_hz)
        assert pulse_index_of(start, rep_rate_hz) == k
        assert pulse_index_of(next_start - 1, rep_rate_hz) == k

    @given(rep_rate_hz=st.floats(1e3, 5e8), t=st.integers(0, 10**13))
    def test_every_timestamp_lies_in_its_pulse(self, rep_rate_hz, t):
        k = int(pulse_index_of(t, rep_rate_hz))
        start, next_start = pulse_start_ns([k, k + 1], rep_rate_hz)
        assert start <= t < next_start


class TestGenerateRun:
    def test_coincidence_count_binomial(self):
        # oracle: Binomial(1e6, 0.02) = 20000 +/- 3 sigma
        run_stats = RunStats()
        events = np.concatenate(list(iter_event_chunks(small_config(), QM, run_stats)))
        n, p = 10**6, 0.02
        sigma = math.sqrt(n * p * (1 - p))
        assert abs(run_stats.n_coincidence_pairs - n * p) < 3 * sigma
        assert events.size == 2 * run_stats.n_coincidence_pairs

    def test_zero_signal_leaves_only_darks(self):
        cfg = small_config(coincidence_prob_per_pulse=0.0, dark_rate_hz=500.0)
        run_stats = RunStats()
        events = np.concatenate(list(iter_event_chunks(cfg, QM, run_stats)))
        assert run_stats.n_coincidence_pairs == 0
        assert events.size == run_stats.n_darks_a + run_stats.n_darks_b

    def test_replay_identical_for_same_seed(self):
        cfg = small_config(dark_rate_hz=200.0, detection_prob_per_pulse=0.05)
        e1 = np.concatenate(list(iter_event_chunks(cfg, QM)))
        e2 = np.concatenate(list(iter_event_chunks(cfg, QM)))
        assert np.array_equal(e1, e2)
        other = small_config(seed=102, dark_rate_hz=200.0, detection_prob_per_pulse=0.05)
        e3 = np.concatenate(list(iter_event_chunks(other, QM)))
        assert not np.array_equal(e1, e3)

    def test_same_chunking_replays_the_stream(self):
        cfg = small_config(detection_prob_per_pulse=0.05, dark_rate_hz=100.0)
        fine = np.concatenate(list(iter_event_chunks(cfg, QM, chunk_pulses=1 << 22)))
        assert fine.size > 0
        # each block has its own substreams, so only the same chunk size
        # gives the same stream
        same = np.concatenate(list(iter_event_chunks(cfg, QM, chunk_pulses=1 << 22)))
        assert np.array_equal(fine, same)

    def test_events_time_ordered_and_strict_per_station(self):
        cfg = small_config(detection_prob_per_pulse=0.05, dark_rate_hz=1000.0)
        events = np.concatenate(list(iter_event_chunks(cfg, QM)))
        t = events["timestamp_ns"].astype(np.int64)
        assert np.all(np.diff(t) >= 0)
        for station in (0, 1):
            ts = t[events["station"] == station]
            assert np.all(np.diff(ts) > 0)

    def test_settings_constant_within_pulse(self):
        cfg = small_config(detection_prob_per_pulse=0.05, dark_rate_hz=1000.0)
        events = np.concatenate(list(iter_event_chunks(cfg, QM)))
        order = np.argsort(events["pulse_index"], kind="stable")
        pulses = events["pulse_index"][order]
        settings = events["setting_index"][order]
        same_pulse = pulses[1:] == pulses[:-1]
        assert np.all(settings[1:][same_pulse] == settings[:-1][same_pulse])

    def test_settings_uniform_over_menu(self):
        events = np.concatenate(list(iter_event_chunks(small_config(), QM)))
        counts = np.bincount(events["setting_index"], minlength=len(CHSH_MENU))
        assert stats.chisquare(counts).pvalue > 0.001

    def test_occupancy_is_bernoulli(self):
        # chi-square goodness of fit of per-pulse occupancy on 1e6 pulses
        run_stats = RunStats()
        events = np.concatenate(list(iter_event_chunks(small_config(), QM, run_stats)))
        pair_pulses = np.unique(events["pulse_index"])
        n_occupied = pair_pulses.size
        assert n_occupied == run_stats.n_coincidence_pairs  # at most one pair per pulse
        n, p = 10**6, 0.02
        observed = np.array([n_occupied, n - n_occupied])
        expected = np.array([n * p, n * (1 - p)])
        assert stats.chisquare(observed, expected).pvalue > 0.01

    def test_timestamps_inside_pulse_window(self):
        cfg = small_config(detection_prob_per_pulse=0.05)
        events = np.concatenate(list(iter_event_chunks(cfg, QM)))
        geo = pulse_geometry(cfg)
        within = events["timestamp_ns"].astype(np.int64) - pulse_start_ns(
            events["pulse_index"], cfg.rep_rate_hz
        )
        assert within.min() >= 0
        assert within.max() < geo.pulse_duration_ns

    def test_empty_run(self):
        run_stats = RunStats()
        assert list(iter_event_chunks(small_config(run_duration_s=0.0), QM, run_stats)) == []
        assert run_stats.n_pulses == 0

    def test_coincident_pair_shares_timestamp_and_setting(self):
        events = np.concatenate(list(iter_event_chunks(small_config(), QM)))
        a = events[events["station"] == 0]
        b = events[events["station"] == 1]
        assert np.array_equal(a["timestamp_ns"], b["timestamp_ns"])
        assert np.array_equal(a["setting_index"], b["setting_index"])


class TestHitOffsets:
    """``_hit_offsets`` must give the per-pulse Bernoulli(p) process."""

    @pytest.mark.parametrize("p", [0.02, 0.1])
    def test_count_per_block_is_binomial(self, p):
        m = 1 << 20
        sigma = math.sqrt(m * p * (1 - p))
        for block in range(8):
            hits = _hit_offsets(substream(5, "hits", block), p, m)
            assert abs(hits.size - m * p) < 4 * sigma
            assert hits[0] >= 0 and hits[-1] < m
            assert np.all(np.diff(hits) > 0)

    @pytest.mark.parametrize("p", [0.02, 0.1, 0.5])
    def test_gaps_are_geometric(self, p):
        hits = _hit_offsets(substream(6, "hits"), p, 1 << 20)
        gaps = np.diff(hits, prepend=-1)
        n = gaps.size
        # one bin per gap length while it expects >= 5 gaps, then one tail bin
        support = np.arange(1, 10_000)
        k = int(support[n * stats.geom.pmf(support, p) >= 5][-1])
        observed = np.bincount(np.minimum(gaps, k + 1), minlength=k + 2)[1:]
        expected = n * np.append(stats.geom.pmf(np.arange(1, k + 1), p), stats.geom.sf(k, p))
        assert stats.chisquare(observed, expected).pvalue > 0.001

    def test_block_edges_hit_at_rate_p(self):
        # 1000 blocks of 1000 pulses: an off-by-one at a block edge would
        # starve or double the first or the last pulse of every block
        p = 0.3
        cfg = small_config(coincidence_prob_per_pulse=p)
        chunks = iter_event_chunks(cfg, QM, chunk_pulses=1000)
        offsets = np.concatenate([c["pulse_index"][c["station"] == 0] for c in chunks]) % 1000
        n_blocks = cfg.n_pulses // 1000
        sigma = math.sqrt(n_blocks * p * (1 - p))
        for edge in (0, 1, 998, 999):
            assert abs(np.count_nonzero(offsets == edge) - n_blocks * p) < 4 * sigma, edge

    def test_zero_probability_draws_nothing(self):
        rng = substream(7, "hits")
        assert _hit_offsets(rng, 0.0, 1000).size == 0
        assert rng.random() == substream(7, "hits").random()

    def test_probability_near_one(self):
        m, p = 10**5, 0.999
        hits = _hit_offsets(substream(8, "hits"), p, m)
        assert abs(hits.size - m * p) < 4 * math.sqrt(m * p * (1 - p))
        assert np.all(np.diff(hits) > 0) and hits[-1] < m
        run_stats = RunStats()
        for _ in iter_event_chunks(
            small_config(run_duration_s=0.01, coincidence_prob_per_pulse=p), QM, run_stats
        ):
            pass
        assert abs(run_stats.n_coincidence_pairs - 10**4 * p) < 4 * math.sqrt(10**4 * p * (1 - p))

    def test_tiny_probability_ends(self):
        # geometric gaps beyond int64 are clipped, not summed into an overflow
        assert _hit_offsets(substream(9, "hits"), 1e-300, 1 << 22).size == 0


# Oracle: the two-stage merge the generator used before its one-sort merge,
# a dedupe per station by (t, category), then a lexsort of both stations.


def _station_chunk(parts):
    t = np.concatenate([p[0] for p in parts])
    pulse = np.concatenate([p[1] for p in parts])
    port = np.concatenate([p[2] for p in parts])
    setting = np.concatenate([p[3] for p in parts])
    prio = np.concatenate([np.full(p[0].size, i, dtype=np.uint8) for i, p in enumerate(parts)])
    order = np.lexsort((prio, t))
    t = t[order]
    keep = np.ones(t.size, dtype=bool)
    keep[1:] = t[1:] != t[:-1]
    dropped = int(t.size - keep.sum())
    return t[keep], pulse[order][keep], port[order][keep], setting[order][keep], dropped


def two_stage_merge(parts_a, parts_b):
    columns = []
    dropped = 0
    for station_code, parts in ((0, parts_a), (1, parts_b)):
        if not parts:
            continue
        t, pulse, port, setting, n = _station_chunk(parts)
        dropped += n
        columns.append((t, pulse, port, setting, station_code))
    t_all = np.concatenate([c[0] for c in columns])
    station_all = np.concatenate([np.full(c[0].size, c[4], dtype=np.uint8) for c in columns])
    order = np.lexsort((station_all, t_all))
    events = np.empty(t_all.size, dtype=EVENT_DTYPE)
    events["timestamp_ns"] = t_all[order]
    events["pulse_index"] = np.concatenate([c[1] for c in columns])[order]
    events["port_bit"] = np.concatenate([c[2] for c in columns])[order]
    events["setting_index"] = np.concatenate([c[3] for c in columns])[order]
    events["station"] = station_all[order]
    return events, dropped


def test_one_sort_merge_equals_two_stage_merge(monkeypatch):
    # 3 MHz darks on top of the default signal: thousands of same-ns repeats,
    # within the darks and between darks and singles or pairs
    seen = []

    def recording(parts):
        out = merge(parts)
        parts_a = [part[1:] for part in parts if part[0] == STATION_A]
        parts_b = [part[1:] for part in parts if part[0] == STATION_B]
        seen.append((parts_a, parts_b, out))
        return out

    merge = source._merge
    monkeypatch.setattr(source, "_merge", recording)
    cfg = small_config(run_duration_s=0.2, detection_prob_per_pulse=0.1, dark_rate_hz=3e6)
    run_stats = RunStats()
    list(source.iter_event_chunks(cfg, QM, run_stats, chunk_pulses=50_000))
    for parts_a, parts_b, (events, dropped) in seen:
        expected, expected_dropped = two_stage_merge(parts_a, parts_b)
        assert events.tobytes() == expected.tobytes()
        assert dropped == expected_dropped
    # the merges together cover the run
    assert sum(events.size for *_, (events, _) in seen) == run_stats.n_events
    assert sum(dropped for *_, (_, dropped) in seen) == run_stats.n_collisions_dropped
    assert run_stats.n_collisions_dropped > 1000


# Oracle: the generator as it was before every category took one path, with
# a guard per category and the tallies kept as it went.  It merges each
# block's full parts in one call, before blocks were merged in time slabs,
# and samples the pairs with the mask-based sampler of ``sampler_oracle``.


def iter_event_chunks_before(config, model, stats, chunk_pulses):
    geo = pulse_geometry(config)
    duration_ns = geo.pulse_duration_ns
    n_pulses = config.n_pulses
    n_menu = len(config.settings_menu)
    menu_alpha = np.array([p[0] for p in config.settings_menu])
    menu_beta = np.array([p[1] for p in config.settings_menu])
    seed = config.seed
    sampler = MaskedPairSampler(model, seed)
    stats.n_pulses = n_pulses

    p_single = config.detection_prob_per_pulse
    p_coinc = config.coincidence_prob_per_pulse

    for block, start in enumerate(range(0, n_pulses, chunk_pulses)):
        stop = min(start + chunk_pulses, n_pulses)
        m = stop - start
        chunk_t0 = int(pulse_start_ns(start, config.rep_rate_hz))
        chunk_t1 = int(pulse_start_ns(stop, config.rep_rate_hz))
        parts_a: list = []
        parts_b: list = []

        rng_c = substream(seed, "coincidence", block)
        local_idx = _hit_offsets(rng_c, p_coinc, m)
        k = local_idx.size
        if k:
            pulses = start + local_idx
            starts = pulse_start_ns(pulses, config.rep_rate_hz)
            within = rng_c.integers(0, duration_ns, k)
            t = starts + within
            settings = per_pulse_choice(seed, "settings", pulses, n_menu)
            bits_a, bits_b = sampler.sample(
                menu_alpha[settings], menu_beta[settings], starts * 1e-9, within,
                duration_ns, rng_c,
            )
            parts_a.append((t, pulses, bits_a, settings))
            parts_b.append((t, pulses, bits_b, settings))
            stats.n_coincidence_pairs += k

        for label, station_parts, attr in (
            ("singles-a", parts_a, "n_singles_a"),
            ("singles-b", parts_b, "n_singles_b"),
        ):
            if p_single <= 0:
                continue
            rng_s = substream(seed, label, block)
            local_idx = _hit_offsets(rng_s, p_single, m)
            ks = local_idx.size
            if ks:
                pulses = start + local_idx
                t = pulse_start_ns(pulses, config.rep_rate_hz) + rng_s.integers(
                    0, duration_ns, ks
                )
                bits = (rng_s.random(ks) < 0.5).astype(np.uint8)
                settings = per_pulse_choice(seed, "settings", pulses, n_menu)
                station_parts.append((t, pulses, bits, settings))
                setattr(stats, attr, getattr(stats, attr) + ks)

        if config.dark_rate_hz > 0:
            rng_d = substream(seed, "dark", block)
            span_s = (chunk_t1 - chunk_t0) * 1e-9
            for station_parts, attr in ((parts_a, "n_darks_a"), (parts_b, "n_darks_b")):
                kd = int(rng_d.poisson(config.dark_rate_hz * span_s))
                if kd:
                    t = np.sort(rng_d.integers(chunk_t0, chunk_t1, kd))
                    pulses = pulse_index_of(t, config.rep_rate_hz)
                    bits = (rng_d.random(kd) < 0.5).astype(np.uint8)
                    settings = per_pulse_choice(seed, "settings", pulses, n_menu)
                    station_parts.append((t, pulses, bits, settings))
                    setattr(stats, attr, getattr(stats, attr) + kd)

        if not (parts_a or parts_b):
            continue
        events, dropped = source._merge(
            [(STATION_A, *p) for p in parts_a] + [(STATION_B, *p) for p in parts_b]
        )
        stats.n_collisions_dropped += dropped
        stats.n_events += events.size
        yield events


@pytest.mark.parametrize(
    "kind, run",
    [
        (ModelKind.QM_NONLOCAL, {"detection_prob_per_pulse": 0.0}),
        (ModelKind.QM_NONLOCAL, {"dark_rate_hz": 0.0}),
        (ModelKind.QM_NONLOCAL, {"coincidence_prob_per_pulse": 0.0}),
        (
            ModelKind.QM_NONLOCAL,
            {"detection_prob_per_pulse": 0.0, "coincidence_prob_per_pulse": 0.0, "dark_rate_hz": 0.0},
        ),
        (ModelKind.QM_NONLOCAL, {"dark_rate_hz": 3e6}),
        (ModelKind.LOCAL_ERGODIC, {}),
        (ModelKind.NONERGODIC, {}),
        # about one pair per block: a third of the blocks have none, and the
        # pattern position must carry across them
        (ModelKind.SCENARIO_LOCALITY_FALSE, {"coincidence_prob_per_pulse": 0.001}),
        (ModelKind.SCENARIO_ERGODICITY_FALSE, {"coincidence_prob_per_pulse": 0.001}),
        (ModelKind.SCENARIO_REALISM_FALSE, {}),
        # a 7 ns pulse puts within 0-3 in the first half and 4-6 in the
        # second, so the halves' pair counts differ block by block
        (ModelKind.SCENARIO_LOCALITY_FALSE, {"pulse_duration_s": 7e-9}),
        (ModelKind.SCENARIO_ERGODICITY_FALSE, {"pulse_duration_s": 7e-9}),
        # a 1 ns pulse puts every pair in the first half: one half has none
        (ModelKind.SCENARIO_LOCALITY_FALSE, {"pulse_duration_s": 1e-9}),
        (ModelKind.SCENARIO_ERGODICITY_FALSE, {"pulse_duration_s": 1e-9}),
    ],
)
def test_generator_equals_the_one_with_a_guard_per_category(kind, run):
    # 100 Hz darks put about 0.1 dark per block and station: most blocks draw
    # none at station A and then draw station B's from the same stream
    cfg = RunConfig(
        **{
            "seed": 101,
            "run_duration_s": 0.05,
            "detection_prob_per_pulse": 0.1,
            "coincidence_prob_per_pulse": 0.02,
            "dark_rate_hz": 100.0,
            **run,
        }
    )
    model = OutcomeModel(kind)
    got_stats, want_stats = RunStats(), RunStats()
    got = list(iter_event_chunks(cfg, model, got_stats, chunk_pulses=1000))
    want = list(iter_event_chunks_before(cfg, model, want_stats, chunk_pulses=1000))
    assert [e.tobytes() for e in got] == [e.tobytes() for e in want]
    assert got_stats == want_stats
    assert got_stats.n_pulses == 50_000
    if not (cfg.detection_prob_per_pulse or cfg.coincidence_prob_per_pulse or cfg.dark_rate_hz):
        assert got == []


@pytest.mark.parametrize(
    "kind, run, chunk_pulses",
    [
        # thousands of same-ns repeats: one block of 20 slabs, and 4 of 5
        (ModelKind.QM_NONLOCAL, {"run_duration_s": 0.2, "dark_rate_hz": 3e6}, 1 << 22),
        (ModelKind.QM_NONLOCAL, {"run_duration_s": 0.2, "dark_rate_hz": 3e6}, 50_000),
        # the pattern position carries across slabs and blocks
        (ModelKind.SCENARIO_LOCALITY_FALSE, {"run_duration_s": 9.0}, 1 << 22),
        # duty cycle about 1 with a period that is not whole ns
        (
            ModelKind.QM_NONLOCAL,
            {"run_duration_s": 0.5, "rep_rate_hz": 1e9 / 999.6, "pulse_duration_s": 999.6e-9},
            1 << 22,
        ),
    ],
)
def test_slab_merge_equals_a_whole_block_merge(kind, run, chunk_pulses):
    cfg = RunConfig(**{"seed": 101, **run})
    model = OutcomeModel(kind)
    got_stats, want_stats = RunStats(), RunStats()
    got = list(iter_event_chunks(cfg, model, got_stats, chunk_pulses=chunk_pulses))
    want = list(iter_event_chunks_before(cfg, model, want_stats, chunk_pulses))
    assert len(got) > len(want)  # several slabs per block
    assert np.concatenate(got).tobytes() == np.concatenate(want).tobytes()
    assert got_stats == want_stats


def test_an_event_on_the_next_block_start_stays_in_its_block(monkeypatch):
    # A 2.6 ns pulse filling its period: pulses start 2 or 3 ns apart, so
    # the last pulse of a block can put an event on the next block's start,
    # where the next block's first pulse can put one too.  The stream must
    # be the one a merge of the whole run gives: the old stream sorted again
    # on (t, station), stable, keeping the first of each repeat.
    monkeypatch.setattr(source, "_SLAB_EVENTS", 64)
    cfg = RunConfig(
        seed=101,
        run_duration_s=4e-4,
        rep_rate_hz=1e9 / 2.6,
        pulse_duration_s=2.6e-9,
        coincidence_prob_per_pulse=0.5,
    )
    got_stats, old_stats = RunStats(), RunStats()
    got = np.concatenate(list(iter_event_chunks(cfg, QM, got_stats, chunk_pulses=1002)))
    old = np.concatenate(list(iter_event_chunks_before(cfg, QM, old_stats, 1002)))
    block_starts = pulse_start_ns(np.arange(1002, cfg.n_pulses, 1002), cfg.rep_rate_hz)
    on_next_start = (old["pulse_index"] % 1002 == 1001) & np.isin(
        old["timestamp_ns"], block_starts
    )
    assert np.count_nonzero(on_next_start) > 5

    old_key = (old["timestamp_ns"].astype(np.int64) << 1) | old["station"]
    assert (np.diff(old_key) < 0).any()  # the old stream steps back at a block edge
    order = np.argsort(old_key, kind="stable")
    first_of_repeat = np.ones(order.size, dtype=bool)
    first_of_repeat[1:] = old_key[order][1:] != old_key[order][:-1]
    want = old[order[first_of_repeat]]
    assert 0 < old.size - want.size
    assert got.tobytes() == want.tobytes()

    key = (got["timestamp_ns"].astype(np.int64) << 1) | got["station"]
    assert (np.diff(key) > 0).all()
    # the matcher accepts its order, and the pulse check the matched events
    # that lie on the next pulse's start
    a_pos, b_pos = match_events(got, 2)
    coincidences(got, a_pos, b_pos, cfg, 2)
    pulse_a = got["pulse_index"][a_pos].astype(np.int64)
    on_next = got["timestamp_ns"][a_pos] == pulse_start_ns(pulse_a + 1, cfg.rep_rate_hz)
    assert np.count_nonzero(on_next) > 5
    assert got_stats.n_events == got.size
    assert got_stats.n_collisions_dropped == old_stats.n_collisions_dropped + old.size - got.size
    fixed = {"n_events", "n_collisions_dropped"}
    assert {k: v for k, v in got_stats.to_dict().items() if k not in fixed} == {
        k: v for k, v in old_stats.to_dict().items() if k not in fixed
    }


def test_two_default_blocks_draw_in_bounded_memory():
    # one block's draws and one slab's merge, not a whole block's merge:
    # merging each block whole peaked at 70 MiB on this run
    cfg = RunConfig(seed=101, run_duration_s=2 * (1 << 22) / 1e6)
    tracemalloc.start()
    try:
        n_events = 0
        for chunk in iter_event_chunks(cfg, QM):
            n_events += chunk.size
            del chunk
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert n_events > 1_900_000
    assert peak < 40 * 2**20


# The draws of each block are made on one helper thread, a block ahead of
# the merge; every way out of the generator must join it.

THREAD_RUN = small_config(run_duration_s=0.01, detection_prob_per_pulse=0.1, dark_rate_hz=100.0)


def test_a_run_consumed_to_the_end_leaves_no_thread(monkeypatch):
    drawn_on = []

    def recording(rng, p, m):
        drawn_on.append(
            (
                threading.current_thread(),
                sum(t.name.startswith("bellrm-draw") for t in threading.enumerate()),
            )
        )
        return hit_offsets(rng, p, m)

    hit_offsets = source._hit_offsets
    monkeypatch.setattr(source, "_hit_offsets", recording)
    before = threading.enumerate()
    chunks = list(iter_event_chunks(THREAD_RUN, QM, chunk_pulses=1000))
    assert threading.enumerate() == before
    assert len(chunks) == 10
    assert len(drawn_on) == 30  # pairs and two singles per block
    # every draw is made off the caller's thread, by the one draw thread alive
    assert threading.main_thread() not in {thread for thread, _ in drawn_on}
    assert {alive for _, alive in drawn_on} == {1}


def test_a_generator_closed_after_its_first_chunk_leaves_no_thread():
    before = threading.enumerate()
    chunks = iter_event_chunks(THREAD_RUN, QM, chunk_pulses=1000)
    assert next(chunks).size > 0
    chunks.close()
    assert threading.enumerate() == before


def test_a_draw_that_raises_in_block_2_leaves_no_thread(monkeypatch):
    calls = []

    def fails_in_block_2(rng, p, m):
        calls.append(p)
        if len(calls) == 7:  # the pairs of block 2, after three draws per block
            raise ValueError("no hits in block 2")
        return hit_offsets(rng, p, m)

    hit_offsets = source._hit_offsets
    monkeypatch.setattr(source, "_hit_offsets", fails_in_block_2)
    before = threading.enumerate()
    chunks = iter_event_chunks(THREAD_RUN, QM, chunk_pulses=1000)
    assert next(chunks).size > 0
    with pytest.raises(ValueError, match="^no hits in block 2$") as raised:
        for _ in chunks:
            pass
    assert type(raised.value) is ValueError
    assert threading.enumerate() == before


def test_a_run_without_pulses_leaves_no_thread():
    before = threading.enumerate()
    assert list(iter_event_chunks(small_config(run_duration_s=0.0), QM)) == []
    assert threading.enumerate() == before


def test_a_merge_that_raises_mid_run_leaves_no_thread(monkeypatch):
    drawing, released = threading.Event(), threading.Event()
    draws, merges = [], []

    def waits_in_block_3(rng, p, m):
        draws.append(p)
        if len(draws) == 10:  # the pairs of block 3, after three draws per block
            drawing.set()
            released.wait(10)
        return hit_offsets(rng, p, m)

    def fails_in_block_2(parts):
        merges.append(parts)
        if len(merges) == 3:  # block 2's one slab, while block 3 is drawn
            assert drawing.wait(10)
            released.set()
            raise ValueError("merge failed in block 2")
        return merge(parts)

    hit_offsets, merge = source._hit_offsets, source._merge
    monkeypatch.setattr(source, "_hit_offsets", waits_in_block_3)
    monkeypatch.setattr(source, "_merge", fails_in_block_2)
    before = threading.enumerate()
    chunks = iter_event_chunks(THREAD_RUN, QM, chunk_pulses=1000)
    with pytest.raises(ValueError, match="^merge failed in block 2$") as raised:
        for _ in chunks:
            pass
    assert type(raised.value) is ValueError
    assert threading.enumerate() == before
    assert len(draws) == 12  # block 3 was drawn to its end, and no block after it


@pytest.mark.parametrize("chunk_pulses", [0, -5])
def test_a_block_of_fewer_than_one_pulse_is_refused(chunk_pulses):
    run_stats = RunStats()
    with pytest.raises(ConfigError, match=f"^chunk_pulses must be >= 1, got {chunk_pulses}$"):
        next(iter_event_chunks(THREAD_RUN, QM, run_stats, chunk_pulses=chunk_pulses))
    assert run_stats == RunStats()
