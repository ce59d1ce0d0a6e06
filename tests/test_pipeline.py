import math

import pytest

from bellrm import (
    CHSH_MENU,
    ConfigError,
    ModelKind,
    OutcomeModel,
    RunConfig,
    Verdict,
    estimate_chsh,
    simulate_events,
    write_chsh_csv,
)
from bellrm.pipeline import AnalysisConfig, analyze_run


def test_menu_without_a_chsh_pair_is_inconclusive(tmp_path):
    # (a', b') is missing from the menu: both slices hold enough sequences,
    # but none can be given a CHSH estimate
    cfg = RunConfig(
        seed=31, run_duration_s=8.0, detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.05, dark_rate_hz=0.0, settings_menu=CHSH_MENU[:3],
    )
    events, _ = simulate_events(cfg, OutcomeModel(ModelKind.SCENARIO_LOCALITY_FALSE))
    records, chsh, curve, verdict, _ = analyze_run(events, cfg, AnalysisConfig())
    assert records.size > 0 and chsh == []
    assert all(reading.sufficient for reading in curve.readings)
    assert verdict.label is Verdict.INCONCLUSIVE
    assert verdict.reason == "slice 0 has no CHSH estimate"
    assert len(verdict.per_slice_S) == 2 and all(math.isnan(s) for s in verdict.per_slice_S)

    path = tmp_path / "chsh_per_slice.csv"
    write_chsh_csv(path, chsh)
    assert path.read_text().splitlines() == [
        "slice_index,n_records,S,std_err,E_ab,E_ab_prime,E_a_prime_b,E_a_prime_b_prime"
    ]


def test_per_slice_chsh_equals_estimate_chsh_on_the_records():
    # the pipeline reads every slice from one count table; slice -1 and
    # cross-pulse records with setting -1 (the fifth entry's alpha with
    # another entry's beta is not in the menu) are present and must stay out
    menu = [*CHSH_MENU, (0.3, 0.7)]
    cfg = RunConfig(seed=33, run_duration_s=3.0, dark_rate_hz=1e5, settings_menu=menu)
    events, _ = simulate_events(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))
    analysis = AnalysisConfig(n_slices=3, window_ns=100)
    records, chsh, _, _, _ = analyze_run(events, cfg, analysis)
    assert (records["slice_index"] == -1).any() and (records["setting_index"] == -1).any()
    assert chsh == [estimate_chsh(records, cfg.settings_menu, slice_index=k) for k in range(3)]


@pytest.mark.parametrize(
    "field", ["n_slices", "window_ns", "sequence_length", "block_size", "serial_m"]
)
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
def test_integer_fields_reject_other_types(field, value):
    with pytest.raises(ConfigError, match=f"analysis.{field} must be an integer"):
        AnalysisConfig.from_dict({field: value})


@pytest.mark.parametrize("value", ["0.01", True, math.nan, math.inf])
def test_alpha_sig_must_be_a_finite_number(value):
    with pytest.raises(ConfigError, match="analysis.alpha_sig must be a finite number"):
        AnalysisConfig.from_dict({"alpha_sig": value})
