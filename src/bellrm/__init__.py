"""bellrm: pulsed Bell-test simulation and randomness-evolution analysis.

Simulate a pulsed two-station experiment with pluggable outcome models,
process the time-tagged detections into per-pulse-slice binary sequences,
and measure how randomness (rejection rate, compression ratio) and the
CHSH violation evolve across the pulse, classifying which property -
Locality, Realism or Ergodicity - the data gives evidence against.
"""

__version__ = "0.1.0"

from .btag import (
    EVENT_DTYPE,
    STATION_A,
    STATION_B,
    BtagWriter,
    iter_btag,
    write_csv,
)
from .chsh import (
    ChshEstimate,
    CorrelationEstimate,
    ErgodicityReport,
    TSIRELSON_BOUND,
    WindowScanPoint,
    chsh_from_table,
    correlation_from_counts,
    count_table,
    ensemble_average,
    ergodicity_gap,
    model_time_average,
    s_vs_window,
    write_chsh_csv,
)
from .errors import (
    BellrmError,
    ConfigError,
    DataError,
    IncompleteSettingsError,
    InsufficientLengthError,
    IntegrityError,
    StreamOrderError,
    UndefinedStatisticError,
    UnsupportedModelError,
    WorkerError,
)
from .models import (
    DEFAULT_DRIFT_PERIOD_S,
    ModelKind,
    OutcomeModel,
    PairSampler,
    local_hv_bit,
    normalize_angle,
    qm_correlation,
    same_angle,
    sawtooth_correlation,
    scenario_pattern,
)
from .pipeline import AnalysisConfig, analyze_pieces
from .randommeter import (
    BatteryConfig,
    RandomnessReport,
    RandommeterCurve,
    ScenarioVerdict,
    SliceReading,
    TestResult,
    Verdict,
    block_frequency_test,
    classify_scenario,
    compression_ratio,
    cusum_test,
    monobit_test,
    run_battery,
    runs_test,
    serial_test,
    two_proportion_z,
    wilson_interval,
)
from .source import (
    CHSH_MENU,
    PulseGeometry,
    RunConfig,
    RunStats,
    iter_event_chunks,
    pulse_geometry,
    pulse_index_of,
    pulse_start_ns,
    simulate_to_btag,
)
from .timetags import (
    COINC_DTYPE,
    coincidences,
    match_events,
    sequence_partition,
    slice_index_of,
    slice_sequences,
)
