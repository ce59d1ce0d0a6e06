import dataclasses
import math

import numpy as np
import pytest

from bellrm import (
    CHSH_MENU,
    COINC_DTYPE,
    ChshEstimate,
    ConfigError,
    IncompleteSettingsError,
    ModelKind,
    OutcomeModel,
    PairSampler,
    RunConfig,
    StreamOrderError,
    TSIRELSON_BOUND,
    UndefinedStatisticError,
    UnsupportedModelError,
    chsh_from_table,
    correlation_from_counts,
    count_table,
    ensemble_average,
    ergodicity_gap,
    iter_event_chunks,
    local_hv_bit,
    model_time_average,
    qm_correlation,
    same_angle,
    s_vs_window,
    write_chsh_csv,
)
from bellrm.chsh import CHSH_SIGNS
from bellrm.streams import substream

PI = math.pi
QM = OutcomeModel(ModelKind.QM_NONLOCAL)
LOCAL = OutcomeModel(ModelKind.LOCAL_ERGODIC)
NONERG = OutcomeModel(ModelKind.NONERGODIC)


def records_from_bits(bits_a, bits_b, settings, slices=None):
    rec = np.zeros(len(bits_a), dtype=COINC_DTYPE)
    rec["bit_a"] = bits_a
    rec["bit_b"] = bits_b
    rec["setting_index"] = settings
    rec["slice_index"] = 0 if slices is None else slices
    return rec


def sampled_records(model, n_per_pair, seed, menu=CHSH_MENU, slices=None):
    sampler = PairSampler(model, seed)
    rng = substream(seed, "chsh-records")
    parts = []
    for k, (alpha, beta) in enumerate(menu):
        bits_a, bits_b = sampler.sample(
            np.full(n_per_pair, alpha),
            np.full(n_per_pair, beta),
            np.arange(n_per_pair) * 1e-6,
            np.zeros(n_per_pair, dtype=np.int64),
            100,
            rng,
        )
        parts.append(records_from_bits(bits_a, bits_b, np.full(n_per_pair, k), slices))
    return np.concatenate(parts)


def joint_counts(bits_a, bits_b):
    """(n00, n01, n10, n11) of paired bits."""
    joint = 2 * np.asarray(bits_a, dtype=np.int64) + np.asarray(bits_b, dtype=np.int64)
    return np.bincount(joint, minlength=4).tolist()


class TestCorrelationEstimate:
    def test_perfectly_correlated(self):
        est = correlation_from_counts(*joint_counts([0, 1, 0, 1], [0, 1, 0, 1]))
        assert est.E == 1.0
        assert est.std_err == 0.0

    def test_symmetric_counts(self):
        est = correlation_from_counts(25, 25, 25, 25)
        assert est.E == 0.0
        assert est.std_err == pytest.approx(0.1)

    def test_qm_at_pi_over_8(self):
        # analytic target: cos(pi/4) = 0.7071
        sampler = PairSampler(QM, seed=21)
        n = 10**6
        bits_a, bits_b = sampler.sample(
            np.full(n, PI / 8), np.zeros(n), np.zeros(n), np.zeros(n, dtype=np.int64),
            100, substream(21, "corr"),
        )
        est = correlation_from_counts(*joint_counts(bits_a, bits_b))
        assert est.E == pytest.approx(math.sqrt(2) / 2, abs=0.003)

    def test_zero_records_undefined(self):
        with pytest.raises(UndefinedStatisticError):
            correlation_from_counts(*joint_counts([], []))


class TestChshEstimate:
    def test_qm_reaches_two_root_two(self):
        rec = sampled_records(QM, 250_000, seed=23)
        est = chsh_from_table(count_table(rec, 4, 1), CHSH_MENU)
        assert est.S == pytest.approx(2 * math.sqrt(2), abs=0.01)
        qm = abs(sum(sign * qm_correlation(a, b) for sign, (a, b) in zip(CHSH_SIGNS, CHSH_MENU)))
        assert qm == pytest.approx(2 * math.sqrt(2), abs=1e-12)

    def test_local_model_sits_at_classical_bound(self):
        # oracle: sawtooth correlation gives |0.5 + 0.5 + 0.5 + 0.5| = 2
        rec = sampled_records(LOCAL, 250_000, seed=25)
        est = chsh_from_table(count_table(rec, 4, 1), CHSH_MENU)
        assert est.S == pytest.approx(2.0, abs=0.01)

    def test_algebraic_bound(self, rng):
        for _ in range(10):
            bits_a = rng.integers(0, 2, 400)
            bits_b = rng.integers(0, 2, 400)
            rec = records_from_bits(bits_a, bits_b, np.tile(np.arange(4), 100))
            assert chsh_from_table(count_table(rec, 4, 1), CHSH_MENU).S <= 4.0

    def test_missing_pair_is_an_error(self):
        rec = sampled_records(QM, 100, seed=27)
        rec = rec[rec["setting_index"] != 2]
        with pytest.raises(IncompleteSettingsError):
            chsh_from_table(count_table(rec, 4, 1), CHSH_MENU)

    def test_global_bit_flip_leaves_s_unchanged(self):
        rec = sampled_records(QM, 5_000, seed=29)
        flipped = rec.copy()
        flipped["bit_a"] ^= 1
        flipped["bit_b"] ^= 1
        s_flipped = chsh_from_table(count_table(flipped, 4, 1), CHSH_MENU).S
        assert s_flipped == chsh_from_table(count_table(rec, 4, 1), CHSH_MENU).S

    def test_per_slice_estimates(self):
        rec = sampled_records(QM, 5_000, seed=31, slices=np.tile([0, 1], 2500))
        ests = [chsh_from_table(count_table(rec, 4, 2), CHSH_MENU, k) for k in range(2)]
        assert [e.slice_index for e in ests] == [0, 1]
        assert all(e.n_records == 10_000 for e in ests)

    def test_tsirelson_with_slack_for_all_models(self):
        for kind in ModelKind:
            rec = sampled_records(OutcomeModel(kind), 20_000, seed=33)
            est = chsh_from_table(count_table(rec, 4, 1), CHSH_MENU)
            assert est.S <= TSIRELSON_BOUND + 5 * est.std_err

    def test_csv_emission(self, tmp_path):
        rec = sampled_records(QM, 2_000, seed=35, slices=np.tile([0, 1], 1000))
        ests = [chsh_from_table(count_table(rec, 4, 2), CHSH_MENU, k) for k in range(2)]
        path = tmp_path / "chsh.csv"
        write_chsh_csv(path, ests)
        lines = path.read_text().splitlines()
        assert lines[0].startswith("slice_index,n_records,S,std_err,E_ab")
        assert len(lines) == 3


def estimate_chsh_by_isin(records, settings_menu, slice_index=None):
    """The per-pair np.isin selection CHSH was computed with before count_table."""
    if slice_index is not None:
        records = records[records["slice_index"] == slice_index]
    menu = np.asarray(settings_menu, dtype=np.float64).reshape(-1, 2)
    correlations, s_value, var = [], 0.0, 0.0
    for sign, pair in zip((1.0, -1.0, 1.0, 1.0), CHSH_MENU):
        hits = same_angle(menu[:, 0], pair[0]) & same_angle(menu[:, 1], pair[1])
        selected = records[np.isin(records["setting_index"], np.flatnonzero(hits))]
        counts = joint_counts(selected["bit_a"], selected["bit_b"])
        est = correlation_from_counts(*counts, pair[0], pair[1])
        correlations.append(est)
        s_value += sign * est.E
        var += est.std_err**2
    return ChshEstimate(slice_index, tuple(correlations), abs(s_value), math.sqrt(var))


def mixed_records(rng, n=4000, n_settings=4, n_slices=3):
    rec = records_from_bits(
        rng.integers(0, 2, n), rng.integers(0, 2, n),
        rng.integers(-1, n_settings, n), rng.integers(-1, n_slices, n),
    )
    return rec


class TestCountTable:
    def test_cells_count_the_records(self, rng):
        rec = mixed_records(rng)
        table = count_table(rec, 4, 3)
        assert table.shape == (4, 4, 2, 2)
        for k in (0, 1, 2, -1):
            for s in range(4):
                for a in (0, 1):
                    for b in (0, 1):
                        expected = np.count_nonzero(
                            (rec["slice_index"] == k) & (rec["setting_index"] == s)
                            & (rec["bit_a"] == a) & (rec["bit_b"] == b)
                        )
                        assert table[k, s, a, b] == expected

    def test_sums_give_the_records_per_slice(self, rng):
        # records with setting -1 are left out; slice -1 is the last row
        rec = mixed_records(rng)
        table = count_table(rec, 4, 3)
        kept = rec[rec["setting_index"] >= 0]
        per_slice = table.sum(axis=(1, 2, 3))
        assert per_slice.tolist() == [
            np.count_nonzero(kept["slice_index"] == k) for k in (0, 1, 2, -1)
        ]
        assert per_slice.sum() == kept.size < rec.size

    def test_pooled_estimate_counts_records_outside_every_slice(self, rng):
        rec = mixed_records(rng)
        table = count_table(rec, 4, 3)
        pooled = chsh_from_table(table, CHSH_MENU)
        assert pooled.n_records == np.count_nonzero(rec["setting_index"] >= 0)
        assert pooled == estimate_chsh_by_isin(rec, CHSH_MENU)
        for k in (0, 1, 2, -1):
            assert chsh_from_table(table, CHSH_MENU, k) == estimate_chsh_by_isin(rec, CHSH_MENU, k)

    def test_duplicate_menu_entry_equals_isin(self, rng):
        # entry 4 repeats (a, b): both indices count toward E(a, b)
        menu = list(CHSH_MENU) + [CHSH_MENU[0]]
        rec = mixed_records(rng, n_settings=5, n_slices=2)
        table = count_table(rec, 5, 2)
        for k in (None, 0, 1, -1):
            est = chsh_from_table(table, menu, k)
            assert est == estimate_chsh_by_isin(rec, menu, k)
        assert est.correlations[0].n_total == np.count_nonzero(
            (rec["slice_index"] == -1) & np.isin(rec["setting_index"], [0, 4])
        )

    def test_a_table_past_the_int32_key_is_refused(self, rng):
        # 32,768 rows x 16,385 columns x 4 cells = 2^31 + 2^17 cells: the
        # largest key would pass 2^31 - 1.  The config caps (32,767 slices,
        # 4,096 settings) give 32,768 x 4,097 x 4 < 2^31.
        rec = mixed_records(rng)
        with pytest.raises(ConfigError, match="int32 key"):
            count_table(rec, 16_384, 32_767)

    def test_empty_slice_is_incomplete(self, rng):
        rec = mixed_records(rng, n_slices=2)
        with pytest.raises(IncompleteSettingsError, match="in slice 5"):
            chsh_from_table(count_table(rec, 4, 6), CHSH_MENU, 5)


class TestEnsembleAverage:
    def test_uniform_hidden_angle_gives_half(self):
        # oracle: brute-force grid integration over the hidden angle
        lam = (np.arange(1_000_000) + 0.5) * PI / 1_000_000
        for alpha in (0.0, 0.4, 1.2):
            grid = float(np.mean(local_hv_bit(lam, alpha) == 0))
            assert grid == pytest.approx(0.5, abs=1e-6)
            mc, se = ensemble_average(LOCAL, alpha, n_samples=10**6, seed=37)
            assert abs(mc - 0.5) < 4 * se

    def test_nonergodic_shares_stationary_density(self):
        mean, se = ensemble_average(NONERG, 0.9, n_samples=10**6, seed=39)
        assert abs(mean - 0.5) < 4 * se

    def test_quantum_kind_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            ensemble_average(QM, 0.0)


class TestTimeAverage:
    def test_ergodic_model_matches_ensemble(self):
        ens, ens_se = ensemble_average(LOCAL, 0.5, n_samples=10**6, seed=41)
        tavg, t_se, n = model_time_average(LOCAL, 0.5, 0.0, 1.0, 1e6, seed=41)
        assert n == 10**6
        assert abs(tavg - ens) < 3 * math.hypot(ens_se, t_se)

    def test_nonergodic_short_window_is_deterministic(self):
        # windowed oracle: the hidden angle stays within [0, 0.01*pi) during
        # the first hundredth of the drift period, so alpha=0 transmits always
        window = NONERG.drift_period_s / 100
        tavg, _, n = model_time_average(NONERG, 0.0, 0.0, window, 1e6, seed=43)
        assert n == 100
        assert tavg == 1.0


class TestErgodicityGap:
    def test_ergodic_model_stays_below_threshold(self):
        reports = ergodicity_gap(
            LOCAL, 0.0, [0.01, 0.1, 1.0], rep_rate_hz=1e6, n_ensemble=10**6, seed=45
        )
        for rep in reports:
            assert rep.gap < rep.threshold

    def test_nonergodic_fails_short_windows_only(self):
        drift = NONERG.drift_period_s
        short, full = ergodicity_gap(
            NONERG, 0.0, [drift / 100, drift], rep_rate_hz=1e6, n_ensemble=10**6, seed=47
        )
        # windowed phase-integral oracle: the angle sweeps [0, pi/100) during
        # the short window, all inside the transmitting region around alpha=0
        assert short.time_avg == pytest.approx(1.0)
        assert short.gap == pytest.approx(0.5, abs=0.01)
        assert short.z > 10
        assert full.gap < full.threshold


@pytest.fixture(scope="module")
def noisy_run():
    cfg = RunConfig(
        seed=51,
        run_duration_s=8.0,
        detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.002,
        dark_rate_hz=30_000.0,
    )
    events = np.concatenate(list(iter_event_chunks(cfg, QM)))
    return cfg, events


class TestSVsWindow:
    def test_small_window_recovers_in_pulse_s(self, noisy_run):
        cfg, events = noisy_run
        scan = s_vs_window(events, [2], cfg)
        assert scan[0].S == pytest.approx(2 * math.sqrt(2), abs=5 * scan[0].std_err)

    def test_decay_tracks_prediction(self, noisy_run):
        cfg, events = noisy_run
        scan = s_vs_window(events, [5, 25, 50, 100], cfg)
        assert scan[-1].S < scan[0].S - 5 * scan[0].std_err  # visible decay
        for point in scan:
            assert abs(point.S - point.S_pred) < 3 * point.std_err

    def test_dominant_accidentals_wash_out_the_violation(self, noisy_run):
        # uncorrelated limit: a huge window matches mostly dark-dark pairs
        cfg, events = noisy_run
        scan = s_vs_window(events, [2, 50_000], cfg)
        assert scan[1].S < 0.5

    def test_empty_window_list_rejected(self, noisy_run):
        cfg, events = noisy_run
        with pytest.raises(ConfigError, match="empty window list"):
            s_vs_window(events, [], cfg)

    @pytest.mark.parametrize(
        "duration, message", [(0.0, "must be > 0"), (-1.0, "must be >= 0")]
    )
    def test_nonpositive_run_duration_rejected(self, noisy_run, duration, message):
        # a negative duration is refused by the run's own config
        cfg, events = noisy_run
        with pytest.raises(ConfigError, match=f"run_duration_s {message}"):
            s_vs_window(events, [2], dataclasses.replace(cfg, run_duration_s=duration))

    def test_out_of_order_stream_rejected(self, noisy_run):
        cfg, events = noisy_run
        swapped = events[:100].copy()
        swapped[[40, 41]] = swapped[[41, 40]]
        with pytest.raises(StreamOrderError, match="record 41 is not after record 40"):
            s_vs_window(swapped, [2], cfg)
