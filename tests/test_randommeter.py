import math

import numpy as np
import pytest
from scipy import special

from bellrm import (
    BatteryConfig,
    ConfigError,
    InsufficientLengthError,
    UndefinedStatisticError,
    Verdict,
    block_frequency_test,
    classify_scenario,
    compression_ratio,
    correlation_from_counts,
    cusum_test,
    monobit_test,
    run_battery,
    runs_test,
    serial_test,
    two_proportion_z,
    wilson_interval,
)
from bellrm import randommeter
from bellrm.chsh import ChshEstimate
from bellrm.models import scenario_pattern
from bellrm.randommeter import curve_from_reports, gammaincc, ndtr


def battery_curve(sequences_by_slice, config=BatteryConfig()):
    """Run the battery on every sequence and aggregate the reports per slice."""
    reports = {
        s: [run_battery(bits, config) for bits in seqs] for s, seqs in sequences_by_slice.items()
    }
    return curve_from_reports(reports, config)


def rejection_reading(sequences):
    """Reading of one sequence set; the curve needs a second, here empty, slice."""
    return battery_curve({0: sequences, 1: []}).readings[0]


def entropy_bits(n, seed=0):
    return np.random.Generator(np.random.PCG64(seed)).integers(0, 2, n).astype(np.uint8)


ALTERNATING = np.tile([0, 1], 50).astype(np.uint8)


class TestMonobit:
    def test_all_zeros_maximally_biased(self):
        res = monobit_test(np.zeros(100, dtype=np.uint8))
        assert res.statistic == pytest.approx(10.0)
        assert res.p_value == pytest.approx(1.524e-23, rel=1e-3)
        assert res.rejected

    def test_balanced_alternation(self):
        res = monobit_test(ALTERNATING)
        assert res.statistic == 0.0
        assert res.p_value == 1.0
        assert not res.rejected

    def test_short_sequence_rejected(self):
        with pytest.raises(InsufficientLengthError):
            monobit_test(np.zeros(99, dtype=np.uint8))


class TestRuns:
    def test_alternating_has_maximal_runs(self):
        res = runs_test(ALTERNATING)
        assert res.statistic == 100  # V = n for 0101...
        assert res.rejected

    def test_two_blocks_have_minimal_runs(self):
        bits = np.concatenate([np.zeros(50), np.ones(50)]).astype(np.uint8)
        res = runs_test(bits)
        assert res.statistic == 2
        assert res.rejected

    def test_guard_band_marks_not_applicable(self):
        bits = np.zeros(100, dtype=np.uint8)
        bits[:10] = 1  # pi = 0.1, far off 1/2
        res = runs_test(bits)
        assert not res.applicable
        assert not res.rejected  # monobit carries the rejection instead


class TestBlockFrequency:
    def test_all_zeros_rejected(self):
        res = block_frequency_test(np.zeros(10_000, dtype=np.uint8))
        assert res.rejected
        assert res.p_value < 1e-100

    def test_length_requirement(self):
        with pytest.raises(InsufficientLengthError):
            block_frequency_test(np.zeros(2000, dtype=np.uint8), block_size=128)


class TestSerial:
    @pytest.mark.parametrize("m", [2, 3, 4, 5, 6])
    def test_statistic_matches_exhaustive_gram_count(self, rng, m):
        # oracle: explicit cyclic m-gram histogram
        def psi2(bits, m):
            n = len(bits)
            ext = list(bits) + list(bits[: m - 1])
            counts = {}
            for i in range(n):
                g = tuple(ext[i : i + m])
                counts[g] = counts.get(g, 0) + 1
            return (2**m / n) * sum(c * c for c in counts.values()) - n

        bits = rng.integers(0, 2, 2048).astype(np.uint8)
        res = serial_test(bits, m=m)
        assert res.statistic == pytest.approx(psi2(bits, m) - psi2(bits, m - 1), abs=1e-9)

    def test_short_period_sequence_rejected(self, rng):
        base = rng.integers(0, 2, 15).astype(np.uint8)  # period 2^m - 1 for m = 4
        res = serial_test(np.tile(base, 700)[:10_000], m=4)
        assert res.rejected
        assert res.p_value < 1e-10

    def test_order_limit(self):
        with pytest.raises(InsufficientLengthError):
            serial_test(np.zeros(128, dtype=np.uint8), m=6)


class TestCusum:
    def test_p_value_matches_exact_walk_distribution(self, rng):
        # oracle: exact absorbing-barrier DP for P(max |S_k| >= z)
        def dp_exceed(n, z):
            width = 2 * z - 1
            prob = np.zeros(width)
            prob[z - 1] = 1.0
            absorbed = 0.0
            for _ in range(n):
                new = np.zeros(width)
                new[1:] += 0.5 * prob[:-1]
                new[:-1] += 0.5 * prob[1:]
                absorbed += 0.5 * (prob[-1] + prob[0])
                prob = new
            return absorbed

        for _ in range(5):
            bits = rng.integers(0, 2, 1000).astype(np.uint8)
            res = cusum_test(bits)
            z = int(res.statistic)
            assert res.p_value == pytest.approx(dp_exceed(1000, z), abs=0.01)

    def test_all_zeros_rejected(self):
        res = cusum_test(np.zeros(1000, dtype=np.uint8))
        assert res.statistic == 1000
        assert res.rejected

    def test_alternating_not_rejected(self):
        res = cusum_test(ALTERNATING)
        assert res.statistic == 1.0
        assert not res.rejected


class TestBatteryProperties:
    def test_every_test_rejects_all_zeros(self):
        report = run_battery(np.zeros(10_000, dtype=np.uint8))
        for res in report.results:
            if res.test_name == "runs":
                assert not res.applicable
            else:
                assert res.rejected, res.test_name
        assert report.overall_rejected

    def test_p_values_stay_in_unit_interval(self):
        for seed in range(20):
            report = run_battery(entropy_bits(10_000, seed))
            for res in report.results:
                assert 0.0 <= res.p_value <= 1.0

    def test_the_battery_checks_its_sequence_once(self, monkeypatch):
        unchecked = []
        as_bits = randommeter._as_bits

        def recording(bits):
            unchecked.append(type(bits) is not randommeter._CheckedBits)
            return as_bits(bits)

        monkeypatch.setattr(randommeter, "_as_bits", recording)
        bits = entropy_bits(10_000, seed=3)
        report = run_battery(bits.tolist())
        assert unchecked == [True] + [False] * 6  # the five tests and the ratio
        monkeypatch.undo()
        assert report == run_battery(bits)

    def test_battery_is_bit_flip_symmetric(self):
        bits = entropy_bits(10_000, seed=3)
        plain = run_battery(bits)
        flipped = run_battery(1 - bits)
        for r1, r2 in zip(plain.results, flipped.results):
            assert r1.p_value == pytest.approx(r2.p_value, abs=1e-12)
        assert plain.compression_ratio == flipped.compression_ratio


def lz78_ratio_oracle(bits):
    """Parse phrases explicitly as tuples; cost = sum(ceil(log2 t) + 1)."""
    phrases = set()
    cur = ()
    count = 0
    cost = 0
    for b in bits.tolist():
        cur = cur + (b,)
        if cur not in phrases:
            phrases.add(cur)
            count += 1
            cost += (count - 1).bit_length() + 1
            cur = ()
    if cur:
        cost += count.bit_length()
    return cost / bits.size


def most_phrases(n):
    """Every string of length 1, 2, ... in order, cut to n bits: the input
    whose parse makes the most phrases."""
    text = ""
    length = 1
    while len(text) < n:
        text += "".join(format(v, f"0{length}b") for v in range(1 << length))
        length += 1
    return np.frombuffer(text[:n].encode(), dtype=np.uint8) - ord("0")


class TestCompressionRatio:
    def test_all_zeros_matches_direct_parse_oracle(self):
        zeros = np.zeros(10_000, dtype=np.uint8)
        assert compression_ratio(zeros) == pytest.approx(lz78_ratio_oracle(zeros), abs=1e-12)
        assert compression_ratio(zeros) < 0.15

        mixed = entropy_bits(5_000, seed=9)
        assert compression_ratio(mixed) == pytest.approx(lz78_ratio_oracle(mixed), abs=1e-12)

    @pytest.mark.parametrize(
        "bits",
        [
            most_phrases(10_000),
            most_phrases(1_000),
            entropy_bits(10_007, seed=10),
            np.ones(10_000, dtype=np.uint8),
            np.tile(np.array([0, 1, 1], dtype=np.uint8), 3334)[:10_000],
        ],
        ids=["most-phrases-10000", "most-phrases-1000", "entropy-10007", "ones", "period-3"],
    )
    def test_equals_direct_parse_oracle_exactly(self, bits):
        assert compression_ratio(bits) == lz78_ratio_oracle(bits)

    @pytest.mark.parametrize(
        "bits",
        [
            np.full(1000, 2),
            np.tile(np.array([0, 1, 2]), 4000),
            np.tile(np.array([0, 1, -1]), 4000),
            np.full(10_000, 0.5),
        ],
        ids=["all-twos", "zero-one-two", "minus-one", "halves"],
    )
    def test_non_binary_bits_raise(self, bits):
        # a value other than 0 or 1 would index a neighbouring trie node;
        # each test, called on its own, checks its input too
        for check in (
            compression_ratio,
            run_battery,
            monobit_test,
            runs_test,
            block_frequency_test,
            serial_test,
            cusum_test,
        ):
            with pytest.raises(ConfigError, match="only 0 and 1"):
                check(bits)

    def test_bits_of_any_numeric_type(self):
        bits = entropy_bits(10_000, seed=12)
        expected = run_battery(bits)
        for other in (bits.astype(bool), bits.astype(np.int64), bits.astype(float), bits.tolist()):
            assert run_battery(other) == expected

    def test_full_entropy_sits_just_above_one(self):
        ratios = [compression_ratio(entropy_bits(10_000, seed=s)) for s in range(40)]
        assert 1.15 < min(ratios) and max(ratios) < 1.27

    def test_short_period_is_compressible(self):
        pattern = scenario_pattern(64, seed=5)
        periodic = np.tile(pattern, 157)[:10_000]
        ratio = compression_ratio(periodic)
        assert ratio < 0.9  # well separated from the full-entropy band

    def test_doubling_periodic_input_does_not_raise_ratio(self, rng):
        for bits in (
            entropy_bits(10_000, seed=11),
            np.tile(scenario_pattern(64, seed=6), 157)[:10_000],
            np.zeros(10_000, dtype=np.uint8),
        ):
            doubled = np.concatenate([bits, bits])
            assert compression_ratio(doubled) <= compression_ratio(bits) + 0.05

    def test_deterministic(self):
        bits = entropy_bits(2_000, seed=13)
        assert compression_ratio(bits) == compression_ratio(bits.copy())

    def test_minimum_length(self):
        with pytest.raises(InsufficientLengthError):
            compression_ratio(np.zeros(999, dtype=np.uint8))


class TestRejectionRate:
    def test_certain_rejection(self):
        reading = rejection_reading([np.zeros(10_000, dtype=np.uint8)] * 30)
        assert reading.rejection_rate == 1.0
        assert reading.ci_high == 1.0

    def test_mixed_population(self):
        # 50% all-zeros (always rejected) + 50% full entropy (~false-alarm level)
        seqs = [np.zeros(10_000, dtype=np.uint8)] * 50 + [
            entropy_bits(10_000, seed=s) for s in range(50)
        ]
        assert 0.5 <= rejection_reading(seqs).rejection_rate <= 0.58

    def test_empty_set_is_an_error(self):
        with pytest.raises(UndefinedStatisticError):
            wilson_interval(0, 0)
        reading = rejection_reading([])
        assert reading.n_sequences == 0 and not reading.sufficient
        assert np.isnan(reading.rejection_rate) and np.isnan(reading.ci_low)

    def test_permutation_invariant(self):
        seqs = [np.zeros(10_000, dtype=np.uint8)] * 5 + [
            entropy_bits(10_000, seed=s) for s in range(25)
        ]
        forward, backward = rejection_reading(seqs), rejection_reading(seqs[::-1])
        assert (forward.n_rejected, forward.ci_low, forward.ci_high) == (
            backward.n_rejected, backward.ci_low, backward.ci_high
        )


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(10, 1000)
        assert lo < 0.01 < hi

    def test_edge_cases(self):
        lo, hi = wilson_interval(0, 50)
        assert lo == 0.0 and hi > 0.0
        lo, hi = wilson_interval(50, 50)
        assert hi == 1.0 and lo < 1.0

    def test_interval_narrows_with_n(self):
        w100 = np.diff(wilson_interval(5, 100))[0]
        w1000 = np.diff(wilson_interval(50, 1000))[0]
        assert w1000 < w100


def make_chsh(slice_index, s_value, std_err=0.01):
    corr = correlation_from_counts(50, 25, 25, 50)
    return ChshEstimate(slice_index, (corr,) * 4, s_value, std_err)


def synthetic_curve(rates, n=500):
    from bellrm.randommeter import RandomnessReport, TestResult

    cfg = BatteryConfig()
    reports = {}
    for slice_index, rate in enumerate(rates):
        k = round(rate * n)
        fake = []
        for i in range(n):
            rejected = i < k
            fake.append(
                RandomnessReport(
                    sequence_id=f"s{slice_index}-{i}",
                    results=(TestResult("monobit", 0.0, 0.0 if rejected else 0.5, rejected),),
                    overall_rejected=rejected,
                    compression_ratio=1.0,
                )
            )
        reports[slice_index] = fake
    return curve_from_reports(reports, cfg)


class TestRandommeterCurve:
    def test_readings_per_slice(self):
        seqs = {
            0: [entropy_bits(10_000, seed=s) for s in range(30)],
            1: [np.zeros(10_000, dtype=np.uint8)] * 30,
        }
        curve = battery_curve(seqs)
        assert curve.n_slices == 2
        assert curve.readings[0].rejection_rate <= 0.2
        assert curve.readings[1].rejection_rate == 1.0
        assert curve.readings[1].randomness_level == 0.0
        assert all(r.sufficient for r in curve.readings)

    def test_undersized_slice_marked_insufficient(self):
        seqs = {
            0: [entropy_bits(10_000, seed=s) for s in range(30)],
            1: [entropy_bits(10_000, seed=100 + s) for s in range(5)],
        }
        curve = battery_curve(seqs)
        assert curve.readings[0].sufficient
        assert not curve.readings[1].sufficient

    def test_needs_two_slices(self):
        with pytest.raises(ConfigError):
            battery_curve({0: [entropy_bits(10_000)] * 30})


class TestClassifyScenario:
    CHSH_OK = [make_chsh(0, 2.8), make_chsh(1, 2.8)]
    MATCHED = 1_000_000  # coincidences behind the curve and S

    def test_larger_first_half_rejection_means_ergodicity_false(self):
        verdict = classify_scenario(synthetic_curve([0.95, 0.05]), self.CHSH_OK, self.MATCHED, 0)
        assert verdict.label is Verdict.ERGODICITY_FALSE
        assert verdict.z > 0

    def test_smaller_first_half_rejection_means_locality_false(self):
        verdict = classify_scenario(synthetic_curve([0.05, 0.60]), self.CHSH_OK, self.MATCHED, 0)
        assert verdict.label is Verdict.LOCALITY_FALSE
        assert verdict.z < 0

    def test_flat_curve_means_realism_false(self):
        verdict = classify_scenario(synthetic_curve([0.05, 0.05]), self.CHSH_OK, self.MATCHED, 0)
        assert verdict.label is Verdict.REALISM_FALSE
        assert verdict.p_value > 0.01

    def test_classical_s_gives_inconclusive(self):
        chsh = [make_chsh(0, 2.8), make_chsh(1, 1.99)]
        verdict = classify_scenario(synthetic_curve([0.95, 0.05]), chsh, self.MATCHED, 0)
        assert verdict.label is Verdict.INCONCLUSIVE
        assert "does not exceed 2" in verdict.reason

    def test_marginal_s_below_five_sigma_gives_inconclusive(self):
        chsh = [make_chsh(0, 2.8), make_chsh(1, 2.02, std_err=0.01)]
        verdict = classify_scenario(synthetic_curve([0.95, 0.05]), chsh, self.MATCHED, 0)
        assert verdict.label is Verdict.INCONCLUSIVE

    def test_insufficient_slice_gives_inconclusive(self):
        curve = synthetic_curve([0.95, 0.05], n=10)
        verdict = classify_scenario(curve, self.CHSH_OK, self.MATCHED, 0)
        assert verdict.label is Verdict.INCONCLUSIVE

    def test_missing_chsh_gives_inconclusive(self):
        chsh = [make_chsh(0, 2.8)]
        verdict = classify_scenario(synthetic_curve([0.95, 0.05]), chsh, self.MATCHED, 0)
        assert verdict.label is Verdict.INCONCLUSIVE

    def test_no_coincidences_give_no_data_first(self):
        # a curve and S that classify as ERGODICITY_FALSE with coincidences
        curve = synthetic_curve([0.95, 0.05])
        classified = classify_scenario(curve, self.CHSH_OK, self.MATCHED, 0)
        assert classified.label is Verdict.ERGODICITY_FALSE
        verdict = classify_scenario(curve, self.CHSH_OK, 0, 0)
        assert verdict.label is Verdict.INCONCLUSIVE
        assert verdict.reason == "no data: no coincidences matched"
        assert verdict.n_first_half == verdict.n_second_half == 0
        assert verdict.per_slice_S == (2.8, 2.8)
        assert verdict.per_slice_R == (0.95, 0.05)

    def test_four_slices_pool_into_halves(self):
        chsh = [make_chsh(k, 2.8) for k in range(4)]
        verdict = classify_scenario(synthetic_curve([0.9, 0.9, 0.05, 0.05]), chsh, self.MATCHED, 0)
        assert verdict.label is Verdict.ERGODICITY_FALSE
        assert verdict.n_first_half == 1000
        assert verdict.n_second_half == 1000


class TestTwoProportion:
    def test_symmetric_null(self):
        z, p = two_proportion_z(50, 1000, 50, 1000)
        assert z == 0.0
        assert p == 1.0

    def test_detects_contrast(self):
        z, p = two_proportion_z(475, 500, 25, 500)
        assert z > 10
        assert p < 1e-10

    def test_degenerate_pooled_rate(self):
        z, p = two_proportion_z(0, 100, 0, 100)
        assert z == 0.0 and p == 1.0


class TestSpecialFunctions:
    """The standard-library p-value functions against scipy.special."""

    def test_erfc(self):
        y = np.linspace(0.0, 26.0, 2601)  # erfc(26) ~ 6e-296
        got = np.array([math.erfc(v) for v in y])
        assert np.max(np.abs(got - special.erfc(y)) / special.erfc(y)) < 1e-10

    def test_ndtr(self):
        x = np.concatenate([np.linspace(-37.0, 9.0, 4601), [-1e-9, 0.0, 1e-9]])
        ref = special.ndtr(x)
        assert np.max(np.abs(ndtr(x) - ref) / ref) < 1e-10

    @pytest.mark.parametrize(
        "a", [0.5, 1, 1.5, 2, 4, 8, 10, 10.5, 39, 39.5, 100.5, 625, 1000, 2047.5, 4000]
    )
    def test_gammaincc(self, a):
        # odd block counts give a half-integer a; x runs from 0 past a into
        # the far tail, where Q falls to about 1e-290
        xs = [0.0, 1e-8, 0.1, 0.5 * a, max(0.0, a - math.sqrt(a)), a, a + 0.5, a + 1, a + 1.01]
        x = a + math.sqrt(a)
        while special.gammaincc(a, x) > 1e-290:
            xs.append(x)
            x = 1.3 * x + 1.0
        for x in xs:
            ref = special.gammaincc(a, x)
            assert abs(gammaincc(a, x) - ref) <= 1e-10 * ref, (a, x)

    def test_gammaincc_outside_its_domain(self):
        assert math.isnan(gammaincc(2.0, -1e-12))
        assert math.isnan(gammaincc(0.0, 1.0))
        assert gammaincc(2.0, math.inf) == 0.0
