"""bellrm: pulsed Bell-test simulation and randomness-evolution analysis.

Simulate a pulsed two-station experiment with pluggable outcome models,
process the time-tagged detections into per-pulse-slice binary sequences,
and measure how randomness (rejection rate, compression ratio) and the
CHSH violation evolve across the pulse, classifying which property -
Locality, Realism or Ergodicity - the data gives evidence against.

The public names below load their submodule on first use (PEP 562), so
``import bellrm`` and the commands that need no numpy do not load it.
"""

from importlib import import_module

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in (
        ("btag", (
            "EVENT_DTYPE", "STATION_A", "STATION_B", "BtagFile", "BtagWriter", "write_csv",
        )),
        ("chsh", (
            "ChshEstimate", "CorrelationEstimate", "ErgodicityReport", "TSIRELSON_BOUND",
            "WindowScanPoint", "chsh_from_table", "correlation_from_counts", "count_table",
            "ensemble_average", "ergodicity_gap", "model_time_average", "s_vs_window",
        )),
        ("errors", (
            "BellrmError", "ConfigError", "DataError", "IncompleteSettingsError",
            "InsufficientLengthError", "IntegrityError", "StreamOrderError",
            "UndefinedStatisticError", "UnsupportedModelError", "WorkerError",
        )),
        ("models", (
            "DEFAULT_DRIFT_PERIOD_S", "ModelKind", "OutcomeModel", "PairSampler",
            "local_hv_bit", "normalize_angle", "qm_correlation", "same_angle",
            "sawtooth_correlation", "scenario_pattern",
        )),
        ("pipeline", ("AnalysisConfig", "analyze_events")),
        ("randommeter", (
            "RandomnessReport", "ScenarioVerdict", "SliceReading",
            "TestResult", "Verdict", "block_frequency_test", "classify_scenario",
            "compression_ratio", "cusum_test", "monobit_test", "run_battery", "runs_test",
            "serial_test", "two_proportion_z", "wilson_interval",
        )),
        ("source", (
            "CHSH_MENU", "PulseGeometry", "RunConfig", "RunStats", "iter_event_chunks",
            "pulse_geometry", "pulse_index_of", "pulse_start_ns", "simulate_to_btag",
        )),
        ("timetags", (
            "COINC_DTYPE", "coincidences", "match_events", "slice_index_of",
            "slice_sequences",
        )),
    )
    for name in names
}

__all__ = list(_EXPORTS)


def __getattr__(name):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value
