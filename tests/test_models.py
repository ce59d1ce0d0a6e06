import math

import numpy as np
import pytest
from scipy import stats

from bellrm import (
    CHSH_MENU,
    ConfigError,
    ModelKind,
    OutcomeModel,
    PairSampler,
    RunConfig,
    UnsupportedModelError,
    local_hv_bit,
    normalize_angle,
    pulse_geometry,
    qm_correlation,
    sawtooth_correlation,
    scenario_pattern,
)
from bellrm.models import stationary_lambda_samples
from bellrm.streams import per_pulse_choice, substream
from sampler_oracle import EDGE_MENU, MaskedPairSampler

PI = math.pi

QM = OutcomeModel(ModelKind.QM_NONLOCAL)
LOCAL = OutcomeModel(ModelKind.LOCAL_ERGODIC)
NONERG = OutcomeModel(ModelKind.NONERGODIC)


def sample_pairs(model, alphas, betas, start_ns, rng):
    """Bits of one PairSampler batch whose menu holds one entry per pair;
    every pair at the start of a 100 ns pulse, whose second half starts at 50 ns."""
    alphas = np.asarray(alphas, dtype=np.float64)
    menu = np.stack([alphas, np.broadcast_to(betas, alphas.shape)], axis=1)
    return PairSampler(model, 1, menu).sample(
        np.arange(alphas.size), np.broadcast_to(start_ns, alphas.shape),
        np.zeros(alphas.size, dtype=np.int64), 50, rng,
    )


def sample_setting(sampler, k, n, rng, start_ns=0, within_ns=0, second_half_ns=50):
    """Bits of ``n`` pairs that all take menu entry ``k`` of ``sampler``; by
    default in a 100 ns pulse, whose second half starts at 50 ns."""
    return sampler.sample(
        np.full(n, k), np.broadcast_to(start_ns, (n,)),
        np.broadcast_to(within_ns, (n,)), second_half_ns, rng,
    )


def test_angle_normalization():
    assert normalize_angle(0.0) == 0.0
    assert normalize_angle(PI) == pytest.approx(0.0, abs=1e-12)
    assert normalize_angle(1.5 * PI) == pytest.approx(0.5 * PI)
    assert normalize_angle(-PI / 4) == pytest.approx(3 * PI / 4)


class TestQmJointProbability:
    def test_aligned_settings_identical_bits(self):
        # alpha = beta: sequences identical, each bit a fair coin
        bits_a, bits_b = sample_pairs(QM, np.full(100_000, 0.3), 0.3, 0.0, substream(1, "aligned"))
        assert np.array_equal(bits_a, bits_b)
        assert abs(bits_a.mean() - 0.5) < 4 * 0.5 / math.sqrt(bits_a.size)

    def test_orthogonal_settings_anticorrelated(self):
        bits_a, bits_b = sample_pairs(
            QM, np.full(100_000, 0.3), 0.3 + PI / 2, 0.0, substream(2, "orthogonal")
        )
        assert np.array_equal(bits_b, 1 - bits_a)

    def test_correlation_at_pi_over_8(self):
        # E = cos(pi/4) = sqrt(2)/2
        assert qm_correlation(PI / 8, 0.0) == pytest.approx(math.sqrt(2) / 2, abs=1e-12)
        n = 400_000
        bits_a, bits_b = sample_pairs(QM, np.full(n, PI / 8), 0.0, 0.0, substream(3, "pi8"))
        e = float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))
        assert abs(e - math.sqrt(2) / 2) < 4 / math.sqrt(n)

    def test_probabilities_sum_to_one_on_grid(self):
        # sampled joint frequencies match P(a, b) = cos^2(d)/2 for a == b and
        # sin^2(d)/2 otherwise; these four closed-form cells sum to one
        n = 20_000
        rng = substream(4, "joint-grid")
        for alpha in np.linspace(0, PI, 7):
            for beta in np.linspace(0, PI, 5):
                same = math.cos(alpha - beta) ** 2
                expected = np.array([same, 1 - same, 1 - same, same]) / 2
                assert expected.sum() == pytest.approx(1.0, abs=1e-12)
                bits_a, bits_b = sample_pairs(QM, np.full(n, alpha), beta, 0.0, rng)
                freq = np.bincount(2 * bits_a.astype(int) + bits_b, minlength=4) / n
                assert np.all(np.abs(freq - expected) < 5 * 0.5 / math.sqrt(n))


class TestLocalHvBit:
    def test_aligned_transmits(self):
        assert local_hv_bit(0.0, 0.0) == 0

    def test_orthogonal_reflects(self):
        assert local_hv_bit(0.0, PI / 2) == 1

    def test_hidden_angle_equal_to_the_setting_always_transmits(self):
        # a density concentrated on lambda = alpha has transmitted fraction 1
        angles = np.linspace(0.0, PI, 1000, endpoint=False)
        assert np.all(local_hv_bit(angles, angles) == 0)
        assert np.all(local_hv_bit(np.full(1000, 0.7), 0.7) == 0)

    def test_sawtooth_correlation_from_grid_integration(self):
        # independent oracle: integrate the product of deterministic bits
        # over a dense uniform grid of the hidden angle
        lam = (np.arange(200_000) + 0.5) * (PI / 200_000)
        for theta in np.linspace(0.0, PI / 2, 9):
            prod = np.where(
                local_hv_bit(lam, theta) == local_hv_bit(lam, 0.0), 1.0, -1.0
            )
            oracle = float(prod.mean())
            assert oracle == pytest.approx(1 - 4 * theta / PI, abs=1e-4)
            assert sawtooth_correlation(theta) == pytest.approx(oracle, abs=1e-4)

    def test_depends_only_on_local_arguments(self, rng):
        lam = rng.random(1000) * PI
        bits = local_hv_bit(lam, 0.7)
        assert np.array_equal(bits, local_hv_bit(lam, 0.7))


class TestEvolveLambda:
    # analyzer angles offset from the sign rule's boundaries at lam +- pi/4
    THETAS = np.linspace(0.0, PI, 16, endpoint=False) + 0.01

    def test_nonergodic_phase_origin(self):
        thetas = self.THETAS
        bits_a, bits_b = sample_pairs(NONERG, thetas, thetas[::-1], 0, substream(5, "t0"))
        assert np.array_equal(bits_a, local_hv_bit(0.0, thetas))
        assert np.array_equal(bits_b, local_hv_bit(0.0, thetas[::-1]))
        assert not np.array_equal(bits_a, local_hv_bit(PI / 2, thetas))

    def test_nonergodic_half_period(self):
        t = round(NONERG.drift_period_s / 2 * 1e9)
        bits_a, _ = sample_pairs(NONERG, self.THETAS, 0.0, t, substream(5, "half"))
        assert np.array_equal(bits_a, local_hv_bit(PI / 2, self.THETAS))
        assert not np.array_equal(bits_a, local_hv_bit(0.0, self.THETAS))

    def test_ergodic_draws_uniform(self):
        lam = stationary_lambda_samples(LOCAL, 100_000, substream(6, "test-lambda"))
        assert stats.kstest(lam / PI, "uniform").pvalue > 0.01
        # the sampler's own angle is uniform too: a non-uniform density
        # would bend the correlation away from the sawtooth
        n = 100_000
        rng = substream(7, "ergodic-sawtooth")
        for delta in np.linspace(0.0, PI / 2, 7):
            bits_a, bits_b = sample_pairs(LOCAL, np.full(n, delta), 0.0, 0.0, rng)
            e = float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))
            assert abs(e - sawtooth_correlation(delta)) < 4 / math.sqrt(n)

    def test_rejects_non_hidden_variable_kinds(self):
        with pytest.raises(UnsupportedModelError):
            stationary_lambda_samples(QM, 10, substream(8, "qm"))


class TestSampleOutcome:
    def test_qm_aligned_never_mismatches(self):
        sampler = PairSampler(QM, 1, [(0.0, 0.0)])
        bits_a, bits_b = sample_setting(sampler, 0, 1_000_000, substream(1, "qm-aligned"))
        assert np.array_equal(bits_a, bits_b)

    def test_local_model_deterministic_given_state(self):
        # the drifting angle is fixed by the pulse time: independent
        # generator streams give the same bits
        starts_ns = np.arange(1000) * 10_000
        alphas = np.full(starts_ns.size, 0.9)
        runs = [
            sample_pairs(NONERG, alphas, 0.1, starts_ns, substream(s, "irrelevant"))[0]
            for s in (2, 3)
        ]
        assert np.array_equal(runs[0], runs[1])
        lam = (PI / NONERG.drift_period_s * (starts_ns * 1e-9)) % PI
        assert np.array_equal(runs[0], local_hv_bit(lam, alphas))

    def test_qm_chsh_reaches_quantum_bound(self):
        # oracle: S = |E1 - E2 + E3 + E4| with E = cos 2(alpha - beta)
        expected = abs(
            qm_correlation(*CHSH_MENU[0])
            - qm_correlation(*CHSH_MENU[1])
            + qm_correlation(*CHSH_MENU[2])
            + qm_correlation(*CHSH_MENU[3])
        )
        assert expected == pytest.approx(2 * math.sqrt(2), abs=1e-12)
        sampler = PairSampler(QM, 3, CHSH_MENU)
        rng = substream(3, "qm-chsh")
        s = 0.0
        for k, sign in enumerate((1, -1, 1, 1)):
            bits_a, bits_b = sample_setting(sampler, k, 1_000_000, rng)
            e = float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))
            s += sign * e
        assert abs(s) == pytest.approx(expected, abs=0.01)

    def test_unknown_kind_is_config_error(self):
        with pytest.raises(ConfigError):
            OutcomeModel.from_dict({"kind": "NO_SUCH_MODEL"})


class TestModelInvariants:
    def test_joint_probabilities_partition_unity(self):
        sampler = PairSampler(QM, 9, [(0.4, 1.1)])
        n = 100_000
        bits_a, bits_b = sample_setting(sampler, 0, n, substream(9, "partition"))
        counts = np.bincount(2 * bits_a.astype(int) + bits_b, minlength=4)
        assert counts.sum() == n  # the four outcomes partition the samples

    def test_qm_correlation_matches_cos_on_grid(self):
        n = 100_000
        tol = 4 / math.sqrt(n)
        deltas = np.linspace(0, PI, 16, endpoint=False)
        sampler = PairSampler(QM, 11, [(delta, 0.0) for delta in deltas])
        rng = substream(11, "qm-grid")
        for k, delta in enumerate(deltas):
            bits_a, bits_b = sample_setting(sampler, k, n, rng)
            e = float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))
            assert abs(e - math.cos(2 * delta)) < tol

    @pytest.mark.parametrize("model", [LOCAL, NONERG])
    def test_remote_setting_cannot_influence_local_bit(self, model):
        # identical hidden state and stream position, different remote angle
        n = 20_000
        starts_ns = np.arange(n) * 1000
        sampler = PairSampler(model, 13, [(0.2, 0.9), (0.2, 1.4), (0.9, 0.2), (1.4, 0.2)])
        a1, a2, b1, b2 = (
            sample_setting(sampler, k, n, substream(13, "swap"), starts_ns)[k // 2]
            for k in range(4)
        )
        assert np.array_equal(a1, a2)
        assert np.array_equal(b1, b2)

    def test_nonergodic_autocorrelation_peaks_at_drift_period(self):
        # fixed setting, one bit per pulse over three drift periods
        rep = 1e6
        period_pulses = int(NONERG.drift_period_s * rep)
        n = 3 * period_pulses
        sampler = PairSampler(NONERG, 17, [(0.0, 0.0)])
        bits_a, _ = sample_setting(
            sampler, 0, n, substream(17, "acf"), np.arange(n) * round(1e9 / rep)
        )
        x = 2.0 * bits_a.astype(np.float64) - 1.0
        x -= x.mean()

        def acf(lag):
            return float(
                np.dot(x[:-lag], x[lag:]) / ((x.size - lag) * np.mean(x * x))
            )

        # square-wave ACF: 1 at the full period, 0 at the quarter period;
        # an i.i.d. sequence would show ~1/sqrt(n) at every lag
        assert acf(period_pulses) > 0.9
        assert abs(acf(period_pulses // 4)) < 0.1

    @pytest.mark.parametrize(
        "kind",
        [
            ModelKind.SCENARIO_LOCALITY_FALSE,
            ModelKind.SCENARIO_REALISM_FALSE,
            ModelKind.SCENARIO_ERGODICITY_FALSE,
        ],
    )
    def test_scenarios_violate_chsh_in_both_halves(self, kind):
        model = OutcomeModel(kind)
        sampler = PairSampler(model, 19, CHSH_MENU)
        rng = substream(19, "scenario-chsh")
        n = 100_000
        for half_offset in (0, 50):  # the two halves of a 100 ns pulse
            s = 0.0
            for k, sign in enumerate((1, -1, 1, 1)):
                bits_a, bits_b = sample_setting(sampler, k, n, rng, within_ns=half_offset)
                s += sign * float(np.mean(np.where(bits_a == bits_b, 1.0, -1.0)))
            sigma = 2.0 / math.sqrt(n)  # four correlations, each var <= 1/n
            assert abs(s) > 2.0 + 10 * sigma


class TestScenarioPattern:
    def test_balanced_and_reproducible(self):
        pat = scenario_pattern(64, seed=123)
        assert pat.size == 64
        assert int(pat.sum()) == 32
        assert np.array_equal(pat, scenario_pattern(64, seed=123))
        assert not np.array_equal(pat, scenario_pattern(64, seed=124))

    def test_deterministic_half_emits_the_pattern_in_order(self):
        model = OutcomeModel(ModelKind.SCENARIO_LOCALITY_FALSE)
        sampler = PairSampler(model, 31, [(0.0, 0.0)])
        # all in the second half of a 100 ns pulse
        bits_a, _ = sample_setting(sampler, 0, 256, substream(31, "pattern-order"), within_ns=90)
        pat = scenario_pattern(64, seed=31)
        assert np.array_equal(bits_a, np.tile(pat, 4))

    @pytest.mark.parametrize("kind", list(ModelKind))
    @pytest.mark.parametrize(
        "batches",
        [
            [[]],
            # every pair in one half, so one half's index set is empty
            [[0, 3] * 75, [4, 7] * 75],
            # the pattern position passes the period on the half boundary,
            # then an empty batch and an unevenly split one start from there
            [[4] * 150, [], list(range(7)) * 70],
        ],
        ids=["no-pairs", "one-half-per-batch", "past-the-period"],
    )
    @pytest.mark.parametrize("duration", [8, 7])
    def test_sampler_equals_the_masked_sampler(self, kind, batches, duration):
        # at 1 m, L/c = 3.34 ns: within 0-3 is the first half, and 4-7 of an
        # 8 ns pulse the second, and so for a 7 ns one
        second_half = pulse_geometry(
            RunConfig(
                seed=1, run_duration_s=0.0, station_separation_m=1.0,
                pulse_duration_s=duration * 1e-9,
            )
        ).second_half_ns
        assert second_half == 4
        model = OutcomeModel(kind)
        for menu in (CHSH_MENU, EDGE_MENU):
            sampler, masked = PairSampler(model, 37, menu), MaskedPairSampler(model, 37, menu)
            for i, batch in enumerate(batches):
                within = np.array(batch, dtype=np.int64)
                settings = substream(37, "settings", i).integers(0, 4, within.size)
                args = (settings.astype(np.uint16), within * 1000, within)
                pos = sampler._pattern_pos
                got = sampler.sample(*args, second_half, substream(37, "pairs", i))
                want = masked.sample(*args, second_half, substream(37, "pairs", i))
                for g, w in zip(got, want):
                    assert g.dtype == np.uint8 and g.size == within.size
                    assert np.array_equal(g, w)
                if menu is EDGE_MENU:
                    # equal angles never flip and orthogonal ones always do,
                    # in every kind and either pulse half
                    bits_a, bits_b = got
                    assert np.array_equal(bits_a[settings == 0], bits_b[settings == 0])
                    assert np.all(bits_a[settings == 1] != bits_b[settings == 1])
                in_second = int(np.count_nonzero(within >= second_half))
                n_deterministic = {
                    ModelKind.SCENARIO_LOCALITY_FALSE: in_second,
                    ModelKind.SCENARIO_ERGODICITY_FALSE: within.size - in_second,
                }.get(kind, 0)
                assert sampler._pattern_pos == masked._pattern_pos == pos + n_deterministic


class TestPerPulseChoice:
    def test_reproducible_and_uniform(self):
        idx = np.arange(400_000)
        c1 = per_pulse_choice(7, "settings", idx, 4)
        c2 = per_pulse_choice(7, "settings", idx, 4)
        assert np.array_equal(c1, c2)
        assert c1.dtype == np.uint16  # the width of a BTAG setting_index
        counts = np.bincount(c1, minlength=4)
        chi2 = stats.chisquare(counts)
        assert chi2.pvalue > 0.001

    @pytest.mark.parametrize("n_choices", [0, (1 << 16) + 1])
    def test_choices_must_fit_16_bits(self, n_choices):
        with pytest.raises(ValueError, match="n_choices"):
            per_pulse_choice(7, "settings", np.arange(3), n_choices)

    def test_different_labels_decorrelated(self):
        idx = np.arange(100_000)
        a = per_pulse_choice(7, "settings", idx, 2)
        b = per_pulse_choice(7, "other", idx, 2)
        agree = np.mean(a == b)
        assert abs(agree - 0.5) < 0.01
