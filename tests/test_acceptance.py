"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
come.  Statistical criteria use frozen seeds; tolerances are stated
inline next to each assertion.
"""

import json
import math
import time

import numpy as np
import pytest
from scipy import stats

from bellrm import (
    CHSH_MENU,
    BatteryConfig,
    ModelKind,
    OutcomeModel,
    PairSampler,
    RunConfig,
    Verdict,
    block_frequency_test,
    chsh_from_table,
    coincidences,
    count_table,
    cusum_test,
    ergodicity_gap,
    iter_event_chunks,
    match_events,
    monobit_test,
    pulse_geometry,
    runs_test,
    s_vs_window,
    serial_test,
    wilson_interval,
)
from bellrm.cli import main
from bellrm.models import PI
from bellrm.pipeline import AnalysisConfig, analyze_events
from bellrm.streams import substream
from bellrm.timetags import COINC_DTYPE

QM = OutcomeModel(ModelKind.QM_NONLOCAL)
LOCAL = OutcomeModel(ModelKind.LOCAL_ERGODIC)
NONERG = OutcomeModel(ModelKind.NONERGODIC)


def report(number: int, ok: bool, detail: str) -> None:
    print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {number}: {detail}"


def sample_chsh(model, n_per_pair, seed):
    """Model-level CHSH estimate at the standard angles."""
    sampler = PairSampler(model, seed)
    rng = substream(seed, "acceptance-chsh")
    parts = []
    for k, (alpha, beta) in enumerate(CHSH_MENU):
        bits_a, bits_b = sampler.sample(
            np.full(n_per_pair, alpha), np.full(n_per_pair, beta),
            np.arange(n_per_pair) * 1e-6, np.zeros(n_per_pair, dtype=np.int64),
            100, rng,
        )
        rec = np.zeros(n_per_pair, dtype=COINC_DTYPE)
        rec["bit_a"], rec["bit_b"], rec["setting_index"] = bits_a, bits_b, k
        parts.append(rec)
    return chsh_from_table(count_table(np.concatenate(parts), len(CHSH_MENU), 1), CHSH_MENU)


def test_criterion_01_geometry():
    t0 = time.perf_counter()
    rounded = RunConfig(seed=1, run_duration_s=0.0, pulse_duration_s=120e-9)
    default = RunConfig(seed=1, run_duration_s=0.0)
    duty_rounded = pulse_geometry(rounded).duty_cycle
    duty_default = pulse_geometry(default).duty_cycle
    elapsed = time.perf_counter() - t0
    ok = (
        duty_rounded == pytest.approx(0.12, rel=1e-12)
        and duty_default == pytest.approx(0.1334, abs=5e-5)
        and elapsed < 1.0
    )
    report(1, ok, f"duty cycle {duty_rounded:.4f} (120 ns) / {duty_default:.4f} (2L/c), {elapsed:.3f} s")


def test_criterion_02_throughput_point(tmp_path):
    config = {"run": {"seed": 808}, "model": {"kind": "QM_NONLOCAL"}}
    cfg_path = tmp_path / "default_run.json"
    cfg_path.write_text(json.dumps(config))
    out = tmp_path / "full_run"
    t0 = time.perf_counter()
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out)])
    elapsed = time.perf_counter() - t0
    manifest = json.loads((out / "manifest.json").read_text())
    pairs = manifest["stats"]["n_coincidence_pairs"]
    target = 6_000_000
    tol = 3 * math.sqrt(target)  # 3 sigma Poisson
    ok = code == 0 and abs(pairs - target) < tol and elapsed < 120.0
    report(2, ok, f"{pairs} coincidence bits/station (6e6 +/- {tol:.0f}), {elapsed:.1f} s < 120 s")


def test_criterion_03_qm_correlations_per_slice():
    # ~1.05e6 coincidences per settings pair through the full pipeline
    cfg = RunConfig(
        seed=303, run_duration_s=42.0, detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.1, dark_rate_hz=0.0,
    )
    events = np.concatenate(list(iter_event_chunks(cfg, QM)))
    records = coincidences(events, *match_events(events, 2), cfg, 4)
    per_pair = min(
        int(np.count_nonzero(records["setting_index"] == k)) for k in range(4)
    )
    table = count_table(records, len(cfg.settings_menu), 4)
    ests = [chsh_from_table(table, cfg.settings_menu, k) for k in range(4)]
    target = 2 * math.sqrt(2)
    within = all(abs(e.S - target) <= 0.02 for e in ests)
    weights = np.array([1 / e.std_err**2 for e in ests])
    pooled = float(np.sum([e.S for e in ests] * weights) / weights.sum())
    constant = all(abs(e.S - pooled) <= 3 * e.std_err for e in ests)
    ok = per_pair >= 10**6 and within and constant
    report(
        3, ok,
        "per-slice S = " + ", ".join(f"{e.S:.4f}" for e in ests)
        + f" (2*sqrt2 +/- 0.02, constant within 3 sigma, {per_pair} per pair)",
    )


def test_criterion_04_local_bound():
    big = sample_chsh(LOCAL, 10**6, seed=404)
    point_ok = abs(big.S - 2.0) <= 0.02
    never_exceeds = True
    worst = -math.inf
    for k in range(50):
        est = sample_chsh(LOCAL, 20_000, seed=10_000 + k)
        excess_sigma = (est.S - 2.0) / est.std_err
        worst = max(worst, excess_sigma)
        if excess_sigma > 3.0:
            never_exceeds = False
    ok = point_ok and never_exceeds
    report(
        4, ok,
        f"S = {big.S:.4f} +/- {big.std_err:.4f} (2.00 +/- 0.02); "
        f"max excess over 50 runs = {worst:.2f} sigma (<= 3)",
    )


def test_criterion_05_sequence_identity():
    from bellrm import slice_sequences

    outcomes = {}
    for label, beta_offset in (("aligned", 0.0), ("orthogonal", PI / 2)):
        cfg = RunConfig(
            seed=505, run_duration_s=10.0, detection_prob_per_pulse=0.0,
            coincidence_prob_per_pulse=0.05, dark_rate_hz=0.0,
            settings_menu=[(0.3, 0.3 + beta_offset)],
        )
        events = np.concatenate(list(iter_event_chunks(cfg, QM)))
        records = coincidences(events, *match_events(events, 2), cfg, 2)
        mismatches = 0
        total = 0
        sequences = slice_sequences(records, 2)
        for s in (0, 1):
            bits_a = sequences[s, 0]
            bits_b = sequences[s, 1]
            expected = bits_b if beta_offset == 0.0 else 1 - bits_b
            mismatches += int(np.count_nonzero(bits_a != expected))
            total += bits_a.size
        outcomes[label] = (mismatches, total)
    ok = all(m == 0 and t > 10**5 for m, t in outcomes.values())
    report(
        5, ok,
        "zero mismatches: "
        + ", ".join(f"{k} {m}/{t}" for k, (m, t) in outcomes.items()),
    )


def test_criterion_06_randommeter_calibration():
    # frozen full-entropy source; 1000 sequences of 1e4 bits
    gen = np.random.Generator(np.random.PCG64(20260808))
    cfg = BatteryConfig()
    tests = (monobit_test, runs_test, block_frequency_test, serial_test, cusum_test)
    n_seq = 1000
    k_reject = np.zeros(5, dtype=int)
    p_values = [[] for _ in range(5)]
    k_compound = 0
    for _ in range(n_seq):
        bits = gen.integers(0, 2, 10_000).astype(np.uint8)
        any_reject = False
        for j, test in enumerate(tests):
            res = test(bits)
            if res.applicable:
                p_values[j].append(res.p_value)
                k_reject[j] += res.rejected
                any_reject |= res.rejected
        k_compound += any_reject

    individual_ok = all(
        wilson_interval(int(k), n_seq)[0] <= cfg.alpha_sig <= wilson_interval(int(k), n_seq)[1]
        for k in k_reject
    )
    ks_ok = all(stats.kstest(p, "uniform").pvalue > 0.01 for p in p_values)
    lo, hi = wilson_interval(k_compound, n_seq)
    compound_ok = lo <= cfg.false_alarm_rate <= hi
    ok = individual_ok and ks_ok and compound_ok
    report(
        6, ok,
        f"per-test rejections {k_reject.tolist()}/1000 (0.01 in Wilson CI), "
        f"compound {k_compound}/1000 vs 1-0.99^5 = {cfg.false_alarm_rate:.4f} "
        f"in CI [{lo:.4f}, {hi:.4f}], p-value KS uniform at 1%",
    )


def test_criterion_07_ergodicity_gap():
    ergodic = ergodicity_gap(
        LOCAL, 0.0, [0.01, 0.1, 1.0], rep_rate_hz=1e6, n_ensemble=10**6, seed=45
    )
    ergodic_ok = all(r.gap < r.threshold for r in ergodic)
    drift = NONERG.drift_period_s
    short, full = ergodicity_gap(
        NONERG, 0.0, [drift / 100, drift], rep_rate_hz=1e6, n_ensemble=10**6, seed=47
    )
    nonerg_ok = short.z > 10 and full.gap < full.threshold
    ok = ergodic_ok and nonerg_ok
    report(
        7, ok,
        f"ergodic gaps < 3 sigma on all windows; drifting model: "
        f"{short.z:.0f} sigma at 1% of the period, "
        f"{full.z:.2f} sigma over a full period",
    )


def test_criterion_08_s_vs_window_decay():
    cfg = RunConfig(
        seed=11, run_duration_s=20.0, detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.001, dark_rate_hz=30_000.0,
    )
    events = np.concatenate(list(iter_event_chunks(cfg, QM)))
    windows = [5, 10, 25, 50, 75, 100]
    scan = s_vs_window(events, windows, cfg)
    tracks = all(abs(p.S - p.S_pred) <= 3 * p.std_err for p in scan)
    decays = scan[-1].S < scan[0].S - 5 * scan[0].std_err
    ok = tracks and decays and len(scan) >= 5
    detail = ", ".join(
        f"W={p.window_ns}: {p.S:.3f}/{p.S_pred:.3f}" for p in scan
    )
    report(8, ok, f"measured/predicted within 3 sigma over {len(scan)} windows: {detail}")


SCENARIO_EXPECT = {
    ModelKind.SCENARIO_LOCALITY_FALSE: Verdict.LOCALITY_FALSE,
    ModelKind.SCENARIO_REALISM_FALSE: Verdict.REALISM_FALSE,
    ModelKind.SCENARIO_ERGODICITY_FALSE: Verdict.ERGODICITY_FALSE,
}


def scenario_run(kind, seed):
    cfg = RunConfig(
        seed=seed, run_duration_s=12.0, detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.05, dark_rate_hz=0.0,
    )
    events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(kind))))
    _, _, _, verdict, _ = analyze_events(events, cfg, AnalysisConfig())
    return verdict


def test_criterion_09_end_to_end_classification():
    results = {}
    for kind, expected in SCENARIO_EXPECT.items():
        hits = sum(
            scenario_run(kind, seed=900 + 7 * k).label is expected for k in range(20)
        )
        results[expected.value] = hits
    classical = scenario_run(ModelKind.LOCAL_ERGODIC, seed=909)
    ok = all(h >= 19 for h in results.values()) and classical.label is Verdict.INCONCLUSIVE
    report(
        9, ok,
        "correct verdicts per scenario over 20 runs: "
        + ", ".join(f"{k}: {v}" for k, v in results.items())
        + f"; classical-bound run -> {classical.label.value}",
    )


def test_criterion_10_matching_oracle_equivalence():
    from conftest import merge_stations
    from matching_oracle import max_matching_count

    rng = np.random.default_rng(1010)
    from bellrm.btag import EVENT_DTYPE

    def events_from(times):
        ev = np.zeros(times.size, dtype=EVENT_DTYPE)
        ev["timestamp_ns"] = times
        ev["pulse_index"] = times // 1000
        return ev

    all_equal = True
    for _ in range(100):
        na, nb = rng.integers(1, 101, 2)
        ta = np.sort(rng.choice(np.arange(4000), na, replace=False))
        tb = np.sort(rng.choice(np.arange(4000), nb, replace=False))
        window = int(rng.integers(1, 60))
        greedy = match_events(merge_stations(events_from(ta), events_from(tb)), window)[0].size
        if greedy != max_matching_count(ta, tb, window):
            all_equal = False
            break
    report(10, all_equal, "greedy count equals exhaustive maximum matching on 100 random streams")
