"""The analysis pipeline: match -> slice -> battery and CHSH -> verdict.

``analyze_run`` takes an in-memory event stream and returns everything the
``analyze`` command writes; ``AnalysisConfig`` holds its parameters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .btag import STATION_LETTERS
from .chsh import ChshAngles, chsh_from_table, count_table
from .errors import ConfigError, DataError, IncompleteSettingsError
from .randommeter import (
    BatteryConfig,
    ScenarioVerdict,
    classify_scenario,
    curve_from_reports,
    run_battery,
)
from .source import RunConfig, pulse_geometry, require_finite
from .timetags import extract_sequence, match_events, sequence_partition, slice_records


@dataclass
class AnalysisConfig:
    n_slices: int = 2
    window_ns: int = 2
    alpha_sig: float = 0.01
    sequence_length: int = 10000
    block_size: int = 128
    serial_m: int = 4

    def validate(self) -> None:
        for name in ("n_slices", "window_ns", "sequence_length", "block_size", "serial_m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"analysis.{name} must be an integer, got {value!r}")
        require_finite("analysis.alpha_sig", self.alpha_sig)
        if self.n_slices < 2:
            raise ConfigError("analysis.n_slices must be >= 2")
        if self.window_ns <= 0:
            raise ConfigError("analysis.window_ns must be > 0")
        if not 0.0 < self.alpha_sig < 1.0:
            raise ConfigError("analysis.alpha_sig must lie in (0, 1)")
        battery = self.battery()
        if self.sequence_length < battery.min_length:
            raise ConfigError(
                f"analysis.sequence_length must be >= {battery.min_length} "
                "for the configured battery"
            )

    def battery(self) -> BatteryConfig:
        return BatteryConfig(
            alpha_sig=self.alpha_sig, block_size=self.block_size, serial_m=self.serial_m
        )

    @staticmethod
    def from_dict(obj: dict) -> "AnalysisConfig":
        known = set(AnalysisConfig.__dataclass_fields__)
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown analysis fields: {sorted(unknown)}")
        cfg = AnalysisConfig(**obj)
        cfg.validate()
        return cfg


def analyze_run(
    events: np.ndarray,
    run: RunConfig,
    analysis: AnalysisConfig,
    angles: ChshAngles = ChshAngles(),
):
    """Full analysis pipeline on a merged event stream, as read_btag returns it.

    Returns (records, chsh_estimates, curve, verdict, report_rows); CHSH
    estimates cover the slices that could be estimated, and a slice
    without one makes the verdict INCONCLUSIVE.
    """
    geo = pulse_geometry(run)
    battery = analysis.battery()
    n_menu = len(run.settings_menu)
    outside = np.flatnonzero(events["setting_index"] >= n_menu)
    if outside.size:
        i = int(outside[0])
        raise DataError(
            f"record {i} has setting_index {events['setting_index'][i]}, "
            f"outside the {n_menu}-entry settings menu"
        )
    records = match_events(
        events, analysis.window_ns, rep_rate_hz=run.rep_rate_hz, settings_menu=run.settings_menu
    )
    records = slice_records(records, analysis.n_slices, geo.pulse_duration_ns)

    report_rows = []
    reports_by_slice = {}
    for slice_index in range(analysis.n_slices):
        slice_reports = []
        for station in (0, 1):
            seq = extract_sequence(records, station, slice_index)
            for i, block in enumerate(sequence_partition(seq.bits, analysis.sequence_length)):
                sid = f"{STATION_LETTERS[station]}{slice_index}-{i}"
                report = run_battery(block, battery, sequence_id=sid)
                slice_reports.append(report)
                report_rows.append((sid, slice_index, STATION_LETTERS[station], report))
        reports_by_slice[slice_index] = slice_reports

    counts = count_table(records, n_menu, analysis.n_slices)
    chsh_estimates = []
    for slice_index in range(analysis.n_slices):
        try:
            chsh_estimates.append(
                chsh_from_table(counts, run.settings_menu, angles, slice_index)
            )
        except IncompleteSettingsError:
            pass  # classify_scenario answers INCONCLUSIVE for this slice

    # slice_records has already refused fewer than two slices, and
    # classify_scenario tests the halves only once each holds sequences.
    curve = curve_from_reports(reports_by_slice, battery)
    verdict = classify_scenario(curve, chsh_estimates)
    if records.size == 0:
        verdict = ScenarioVerdict.inconclusive(
            "no data: no coincidences matched", verdict.per_slice_S, verdict.per_slice_R
        )
    return records, chsh_estimates, curve, verdict, report_rows
