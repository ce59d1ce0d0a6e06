"""Correlation, CHSH and ergodicity estimators.

Every S comes from one integer table: :func:`count_table` counts
coincidence records per (slice, setting, bit_a, bit_b), tables of parts of
a stream add up in any order, and :func:`chsh_from_table` reads S for one
slice or for all rows.  S always uses the paper's four pairs,
``source.CHSH_MENU`` (a = 0, a' = pi/4, b = pi/8, b' = 3pi/8), each looked
up by angle in the run's settings menu; a menu without one of them has no
CHSH estimate.  The records come from ``timetags.coincidences``, the one
builder of a coincidence's slice and setting.  :func:`s_vs_window` takes
the merged event stream instead, and adds up the count tables of the
parts ``timetags.coincidence_parts`` yields once per window.  The module
computes only: ``rundir`` writes the estimates to ``chsh_per_slice.csv``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import btag
from .errors import ConfigError, IncompleteSettingsError, UndefinedStatisticError
from .models import (
    OutcomeModel,
    hidden_angles,
    local_hv_bit,
    same_angle,
    stationary_lambda_samples,
)
from .source import CHSH_MENU, RunConfig
from .streams import substream
from .timetags import COINC_DTYPE, coincidence_parts

TSIRELSON_BOUND = 2.0 * math.sqrt(2.0)


@dataclass(frozen=True)
class CorrelationEstimate:
    alpha: float
    beta: float
    n00: int
    n01: int
    n10: int
    n11: int
    E: float
    std_err: float

    @property
    def n_total(self) -> int:
        return self.n00 + self.n01 + self.n10 + self.n11


def correlation_from_counts(
    n00: int, n01: int, n10: int, n11: int, alpha: float = math.nan, beta: float = math.nan
) -> CorrelationEstimate:
    n = n00 + n01 + n10 + n11
    if n == 0:
        raise UndefinedStatisticError("correlation undefined for zero records")
    e = (n00 + n11 - n01 - n10) / n
    std_err = math.sqrt(max(0.0, 1.0 - e * e) / n)
    return CorrelationEstimate(alpha, beta, n00, n01, n10, n11, e, std_err)


#: signs applied to the four pair correlations of ``CHSH_MENU``, which
#: lists them in S order (a,b), (a,b'), (a',b), (a',b'): S = E1 - E2 + E3 + E4.
CHSH_SIGNS = (1.0, -1.0, 1.0, 1.0)


@dataclass(frozen=True)
class ChshEstimate:
    slice_index: int | None
    correlations: tuple
    S: float
    std_err: float

    @property
    def n_records(self) -> int:
        return sum(c.n_total for c in self.correlations)


def _menu_indices_for_pair(settings_menu, pair) -> list[int]:
    menu = np.asarray(settings_menu, dtype=np.float64).reshape(-1, 2)
    hits = same_angle(menu[:, 0], pair[0]) & same_angle(menu[:, 1], pair[1])
    return np.flatnonzero(hits).tolist()


def count_table(records: np.ndarray, n_settings: int, n_slices: int) -> np.ndarray:
    """Integer table ``counts[slice, setting, bit_a, bit_b]`` of every record.

    Slices 0 .. n_slices - 1 are rows 0 .. n_slices - 1 and slice -1 the
    last row, ``counts[-1]``; menu entries are the columns and setting -1
    (a cross-pulse pair the menu lacks) the last, ``counts[:, -1]``, so
    ``counts.sum()`` counts every record.  One ``np.bincount`` builds it
    from an int32 key, offset so that slice -1 is row 0 and setting -1
    column 0; both are then rolled to the end.  A table whose key would
    pass 2^31 - 1 is refused.  Every slice index must lie in [-1, n_slices)
    and every setting index in [-1, n_settings); a value outside is counted
    in another cell or fails the build.
    """
    rows, cols = n_slices + 1, n_settings + 1
    if rows * cols * 4 > 2**31:
        raise ConfigError(
            f"a count table of {n_slices} slices and {n_settings} settings "
            "has more cells than an int32 key can index"
        )
    key = records["slice_index"].astype(np.int32)
    key *= cols
    key += records["setting_index"]
    key += cols + 1
    key *= 4
    key += 2 * records["bit_a"]
    key += records["bit_b"]
    counts = np.bincount(key, minlength=rows * cols * 4).reshape(rows, cols, 2, 2)
    return np.roll(counts, -1, axis=(0, 1))


def chsh_from_table(
    counts: np.ndarray, settings_menu, slice_index: int | None = None
) -> ChshEstimate:
    """CHSH estimate from a :func:`count_table`, for one slice or (None) all rows."""
    table = counts.sum(axis=0) if slice_index is None else counts[slice_index]
    correlations = []
    s_value = 0.0
    var = 0.0
    for sign, pair in zip(CHSH_SIGNS, CHSH_MENU):
        menu_idx = _menu_indices_for_pair(settings_menu, pair)
        if not menu_idx:
            raise IncompleteSettingsError(
                f"settings menu has no entry for pair {pair}"
            )
        (n00, n01), (n10, n11) = table[menu_idx].sum(axis=0).tolist()
        if n00 + n01 + n10 + n11 == 0:
            raise IncompleteSettingsError(
                f"no records for settings pair {pair}"
                + (f" in slice {slice_index}" if slice_index is not None else "")
            )
        est = correlation_from_counts(n00, n01, n10, n11, pair[0], pair[1])
        correlations.append(est)
        s_value += sign * est.E
        var += est.std_err**2
    return ChshEstimate(
        slice_index=slice_index,
        correlations=tuple(correlations),
        S=abs(s_value),
        std_err=math.sqrt(var),
    )


# --------------------------------------------------------------------------
# S versus coincidence window
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class WindowScanPoint:
    window_ns: int
    n_matched: int
    S: float
    std_err: float
    S_pred: float


def s_vs_window(
    events: np.ndarray | btag.BtagFile, windows_ns, run: RunConfig
) -> list[WindowScanPoint]:
    """Measured S(W) on a merged event stream plus the uncorrelated-accidentals prediction.

    ``events``, an array or a ``BtagFile`` read ``btag.PIECE_RECORDS``
    records at a time, is a stream of the run ``run`` that
    ``coincidence_parts`` takes, or refuses with a ``DataError`` as
    ``analyze`` does: also a window wider than every gap in
    ``timetags.MAX_GAPLESS_RECORDS`` (2^20) consecutive records.  S pools
    every slice; ``n_matched`` counts every record, setting -1 included.
    The prediction anchors on the smallest window: the matched pairs there
    are taken as true coincidences, per-station leftover rates give the
    accidental-pair rate 2*rA*rB*W*T, and a survival factor
    exp(-(rA+rB)*W) accounts for true pairs whose partner is stolen by an
    earlier in-window accidental.  Both effects assume the out-of-pulse
    detections are fully uncorrelated, which is exactly the hypothesis the
    measured curve tests.
    """
    windows = sorted(int(w) for w in windows_ns)
    if not windows:
        raise ConfigError("empty window list")
    if run.run_duration_s <= 0:
        raise ConfigError("run_duration_s must be > 0")

    n_menu = len(run.settings_menu)
    measured = []
    for w in windows:
        table = count_table(np.empty(0, dtype=COINC_DTYPE), n_menu, 2)
        for records in coincidence_parts(events, run, w, 2):
            table += count_table(records, n_menu, 2)
        est = chsh_from_table(table, run.settings_menu)  # all rows: both slices and -1
        measured.append((w, int(table.sum()), est.S, est.std_err))

    w0, n0, s0, se0 = measured[0]
    t_run = float(run.run_duration_s)
    n_events, piece = len(events), btag.PIECE_RECORDS
    stations = (events[i : i + piece]["station"] for i in range(0, n_events, piece))
    n_b = sum(int(np.count_nonzero(station == btag.STATION_B)) for station in stations)
    rate_a = max(0.0, (n_events - n_b - n0) / t_run)
    rate_b = max(0.0, (n_b - n0) / t_run)

    def accidental(w):
        return 2.0 * rate_a * rate_b * (w * 1e-9) * t_run

    n_true = max(1.0, n0 - accidental(w0))
    surv0 = math.exp(-(rate_a + rate_b) * (w0 * 1e-9))

    def fraction(w):
        kept = n_true * math.exp(-(rate_a + rate_b) * (w * 1e-9)) / surv0
        stolen = n_true - kept
        return kept / (kept + accidental(w) + stolen)

    s_true = s0 / fraction(w0)

    return [
        WindowScanPoint(w, n, s, se, s_true * fraction(w))
        for (w, n, s, se) in measured
    ]


# --------------------------------------------------------------------------
# Ergodicity: ensemble average vs time average
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class ErgodicityReport:
    alpha: float
    window_s: float
    t_start_s: float
    ensemble_avg: float
    time_avg: float
    gap: float
    combined_std_err: float
    threshold: float

    @property
    def z(self) -> float:
        if self.combined_std_err > 0:
            return self.gap / self.combined_std_err
        return math.inf if self.gap > 0 else 0.0


def ensemble_average(
    model: OutcomeModel, alpha: float, n_samples: int = 1_000_000, seed: int = 0
) -> tuple[float, float]:
    """Monte Carlo estimate of the hidden-variable ensemble average.

    Integrates the transmitted-port probability over the stationary
    density of the hidden angle; a model without one is an
    ``UnsupportedModelError``.
    """
    lam = stationary_lambda_samples(model, n_samples, substream(seed, "ensemble-average"))
    transmitted = local_hv_bit(lam, alpha) == 0
    p = float(np.mean(transmitted))
    se = math.sqrt(p * (1.0 - p) / transmitted.size)
    return p, se


def model_time_average(
    model: OutcomeModel,
    alpha: float,
    t_start_s: float,
    window_s: float,
    rep_rate_hz: float = 1.0e6,
    seed: int = 0,
) -> tuple[float, float, int]:
    """Fraction of transmitted outcomes over pulses inside a time window.

    Runs the model's hidden angle (``models.hidden_angles``) with the
    analyzer fixed at ``alpha`` for every pulse whose start falls in
    [t_start, t_start + window).
    """
    if window_s <= 0:
        raise ConfigError("window_s must be > 0")
    first = int(math.ceil(t_start_s * rep_rate_hz - 1e-9))
    last = int(math.ceil((t_start_s + window_s) * rep_rate_hz - 1e-9))
    n = last - first
    if n <= 0:
        raise UndefinedStatisticError("window contains no pulses")
    times = (first + np.arange(n, dtype=np.float64)) / rep_rate_hz
    lam = hidden_angles(model, times, substream(seed, "time-average"))
    transmitted = local_hv_bit(lam, alpha) == 0
    p = float(np.mean(transmitted))
    se = math.sqrt(p * (1.0 - p) / n)
    return p, se, n


def ergodicity_gap(
    model: OutcomeModel,
    alpha: float,
    windows_s,
    *,
    t_start_s: float = 0.0,
    rep_rate_hz: float = 1.0e6,
    n_ensemble: int = 1_000_000,
    seed: int = 0,
) -> list[ErgodicityReport]:
    """Gap between the ensemble average and windowed time averages.

    The threshold is three combined standard errors: an ergodic model
    stays below it for any window, the drifting model exceeds it for
    windows much shorter than the drift period and falls back below it
    over a whole number of periods.
    """
    ens, ens_se = ensemble_average(model, alpha, n_ensemble, seed)
    reports = []
    for w in windows_s:
        tavg, tavg_se, _ = model_time_average(
            model, alpha, t_start_s, float(w), rep_rate_hz, seed
        )
        combined = math.hypot(ens_se, tavg_se)
        gap = abs(ens - tavg)
        reports.append(
            ErgodicityReport(
                alpha=alpha,
                window_s=float(w),
                t_start_s=t_start_s,
                ensemble_avg=ens,
                time_avg=tavg,
                gap=gap,
                combined_std_err=combined,
                threshold=3.0 * combined,
            )
        )
    return reports
