"""The run directory: its file names and formats, its manifest and the config reader.

Every file of a run but ``events.btag`` and its CSV mirror (:mod:`bellrm.btag`)
is written and read here, each through :func:`atomic_open`.

The manifest's ``config_sha256`` binds the configuration that fixes the
bytes of ``events.btag`` to the run, so ``analyze`` refuses a manifest
whose generator version, seed, run or model section was edited.

Every JSON file is read by :func:`read_json`, which raises the caller's
error class: ``ConfigError`` (exit 2) for a config, ``DataError`` (exit 3)
for a run's own files.  The module loads no numpy; only ``simulate`` calls
:func:`load_config` and :func:`write_manifest`, which import the generator.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .errors import BellrmError, ConfigError, DataError, IntegrityError

if TYPE_CHECKING:
    from .chsh import ChshEstimate
    from .models import OutcomeModel
    from .pipeline import AnalysisConfig
    from .randommeter import ScenarioVerdict, SliceReading
    from .source import RunConfig, RunStats

EVENTS_FILENAME = "events.btag"
CSV_FILENAME = "events.csv"
MANIFEST_FILENAME = "manifest.json"
ANALYSIS_OUTPUTS = CHSH_FILENAME, SEQUENCES_FILENAME, CURVE_FILENAME, VERDICT_FILENAME = (
    "chsh_per_slice.csv", "sequences.csv", "curve.csv", "verdict.json"
)
REPORT_OUTPUTS = SUMMARY_FILENAME, COMBINED_FILENAME = ("summary.txt", "combined_curves.csv")

#: the letter of each station, indexed by ``btag.STATION_A`` (0) and ``btag.STATION_B`` (1)
STATION_LETTERS = "AB"
#: the ``SliceReading`` numbers that ``curve.csv`` and ``combined_curves.csv`` carry
CURVE_NUMBERS = ("rejection_rate", "ci_low", "ci_high", "mean_compression_ratio", "randomness_level")
CURVE_COLUMNS = ("slice_index", "n_sequences", *CURVE_NUMBERS, "sufficient")


@contextmanager
def atomic_open(path, mode: str = "w", **kwargs):
    """``open`` a temporary file beside ``path`` that replaces ``path`` on a clean exit.

    If the block raises, the temporary file is removed and ``path`` keeps
    whatever it held before, so a reader never sees a partial file.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, mode, **kwargs) as fh:
            yield fh
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def _write_csv(path: Path, header, rows) -> None:
    """Write a CSV file of ``header`` and ``rows``."""
    with atomic_open(path, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header, *rows])


def read_json(path: Path, error: type[BellrmError], what: str) -> dict:
    """The JSON object in ``path``; a file that cannot be read, or holds
    anything else, raises ``error`` saying that ``path`` is not ``what``."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise error(f"cannot read {path}: {exc.strerror}") from exc
    except ValueError as exc:
        raise error(f"{path} is not {what}: {exc}") from exc
    if not isinstance(obj, dict):
        raise error(f"{path} is not {what}: it does not hold a JSON object")
    return obj


def load_config(path) -> dict:
    """Load a config file; a manifest is accepted too (its config is reused)."""
    from .source import GENERATOR_VERSION

    obj = read_json(path, ConfigError, "a bellrm config")
    if "config" in obj and isinstance(obj["config"], dict) and "run" in obj["config"]:
        version = obj.get("generator_version", 1)
        if version != GENERATOR_VERSION:
            raise ConfigError(
                f"manifest {path} comes from generator version {version}; this bellrm "
                f"generates version {GENERATOR_VERSION} and would write other bytes "
                "for its seed"
            )
        obj = obj["config"]
    if "run" not in obj:
        raise ConfigError(f"config {path} lacks a 'run' section")
    return obj


def _config_sha256(manifest: dict) -> str:
    """SHA-256 of the canonical JSON (sorted keys, no whitespace) of the
    generator version, the seed and the run and model sections; the
    analysis section, which overrides change on purpose, is left out."""
    config = manifest["config"]
    bound = {
        "generator_version": manifest.get("generator_version"),
        "seed": manifest.get("seed"),
        "run": config.get("run"),
        "model": config.get("model"),
    }
    text = json.dumps(bound, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def write_manifest(
    directory: Path,
    run: RunConfig,
    model: OutcomeModel,
    analysis: AnalysisConfig,
    stats: RunStats,
    digests: dict,
) -> None:
    """Write ``manifest.json``; ``digests`` maps each artifact to the digest
    fields recorded beside its size."""
    from dataclasses import asdict

    from .source import GENERATOR_VERSION, pulse_geometry

    manifest = {
        "tool": "bellrm",
        "tool_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(),
        "generator_version": GENERATOR_VERSION,
        "seed": run.seed,
        "config": {
            "run": run.to_dict(),
            "model": model.to_dict(),
            "analysis": asdict(analysis),
        },
        "geometry": asdict(pulse_geometry(run)),
        "stats": stats.to_dict(),
        "artifacts": {
            name: {"bytes": (directory / name).stat().st_size, **fields}
            for name, fields in digests.items()
        },
    }
    manifest["config_sha256"] = _config_sha256(manifest)
    with atomic_open(directory / MANIFEST_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")


def _check_config_sha256(path: Path, manifest: dict) -> None:
    """Raise a ``DataError`` unless the manifest read from ``path`` records
    a ``config_sha256`` that matches its config."""
    if "config_sha256" not in manifest:
        raise DataError(
            f"{path} records no config_sha256 to bind its config to {EVENTS_FILENAME}; "
            f"replay the run with `bellrm simulate --config {path}` and analyze that"
        )
    try:
        matches = manifest["config_sha256"] == _config_sha256(manifest)
    except (KeyError, AttributeError) as exc:  # no config object
        raise DataError(f"{path} is not a bellrm manifest: {exc!r}") from exc
    if not matches:
        raise DataError(
            f"{path}: the generator version, seed, run or model section differs from "
            f"the one {EVENTS_FILENAME} was generated with (config_sha256 does not match)"
        )


def read_seed(directory: Path):
    """The seed a run directory's manifest records, once its config matches
    its ``config_sha256``; "" without a manifest or a seed."""
    path = directory / MANIFEST_FILENAME
    if not path.exists():
        return ""
    manifest = read_json(path, DataError, "a bellrm manifest")
    _check_config_sha256(path, manifest)
    return manifest.get("seed", "")


def read_manifest(directory: Path) -> tuple[dict, dict, Path]:
    """The run and analysis sections a run directory's manifest records, and
    the path of its ``events.btag``, once the configuration matches its
    ``config_sha256`` and that file has the recorded size."""
    path = directory / MANIFEST_FILENAME
    manifest = read_json(path, DataError, "a bellrm manifest")
    try:
        config = manifest["config"]
        run_dict, analysis_dict = dict(config["run"]), dict(config.get("analysis", {}))
        events_bytes = manifest["artifacts"][EVENTS_FILENAME]["bytes"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path} is not a bellrm manifest: {exc!r}") from exc
    if isinstance(events_bytes, bool) or not isinstance(events_bytes, int) or events_bytes < 0:
        raise DataError(
            f"{path} is not a bellrm manifest: {EVENTS_FILENAME} bytes is {events_bytes!r}"
        )
    _check_config_sha256(path, manifest)
    events_path = directory / EVENTS_FILENAME
    try:
        size = events_path.stat().st_size
    except FileNotFoundError:
        raise DataError(f"missing {events_path}") from None
    if size != events_bytes:
        raise IntegrityError(
            f"{events_path} holds {size} bytes but {MANIFEST_FILENAME} records {events_bytes}; "
            "it is not the file this manifest describes",
            min(size, events_bytes),
        )
    return run_dict, analysis_dict, events_path


def write_chsh_csv(path: Path, estimates: list[ChshEstimate]) -> None:
    """``chsh_per_slice.csv``: one row per slice's CHSH estimate."""
    _write_csv(
        path,
        ("slice_index", "n_records", "S", "std_err",
         "E_ab", "E_ab_prime", "E_a_prime_b", "E_a_prime_b_prime"),
        (
            [est.slice_index, est.n_records, f"{est.S:.6f}", f"{est.std_err:.6f}",
             *(f"{c.E:.6f}" for c in est.correlations)]
            for est in estimates
        ),
    )


def write_reports_csv(path: Path, reports: dict) -> None:
    """``sequences.csv``: one row per report of ``{(slice_index, station):
    [report, ...]}``, in its order; report k of station A in slice 0 is
    sequence ``A0-k``."""
    from .randommeter import TEST_NAMES as names  # analyze, the only caller, has loaded it

    _write_csv(
        path,
        ("sequence_id", "slice_index", "station", *(f"p_{name}" for name in names),
         "overall_rejected", "compression_ratio"),
        (
            [f"{STATION_LETTERS[station]}{slice_index}-{k}", slice_index, STATION_LETTERS[station],
             *("" if math.isnan(p) else f"{p:.6g}" for p in map(report.p_values().get, names)),
             int(report.overall_rejected), f"{report.compression_ratio:.6f}"]
            for (slice_index, station), key_reports in reports.items()
            for k, report in enumerate(key_reports)
        ),
    )


def write_curve_csv(path: Path, curve: tuple[SliceReading, ...]) -> None:
    """``curve.csv``: one row per ``SliceReading`` of ``curve``, its numbers to six decimals."""
    _write_csv(
        path,
        CURVE_COLUMNS,
        (
            [f"{getattr(r, name):.6f}" if name in CURVE_NUMBERS else int(getattr(r, name))
             for name in CURVE_COLUMNS]
            for r in curve
        ),
    )


def write_verdict_json(path: Path, verdict: ScenarioVerdict) -> None:
    """``verdict.json``; a number that is not finite is written as null."""
    def number(x):
        return None if isinstance(x, float) and not math.isfinite(x) else x

    obj = {
        "label": verdict.label.value,
        "contrast_z": number(verdict.z),
        "p_value": number(verdict.p_value),
        "r_first_half": number(verdict.r_first_half),
        "r_second_half": number(verdict.r_second_half),
        "n_first_half": verdict.n_first_half,
        "n_second_half": verdict.n_second_half,
        "per_slice_S": [number(s) for s in verdict.per_slice_S],
        "per_slice_R": [number(r) for r in verdict.per_slice_R],
        "reason": verdict.reason,
    }
    with atomic_open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh, indent=2)
        fh.write("\n")


def write_analysis(directory: Path, estimates, reports, curve, verdict) -> None:
    """Write the four outputs of ``analyze``, each analysis and report output
    removed first, so that no new one stands beside an old one if a write fails."""
    for name in (*REPORT_OUTPUTS, *ANALYSIS_OUTPUTS):
        (directory / name).unlink(missing_ok=True)
    write_chsh_csv(directory / CHSH_FILENAME, estimates)
    write_reports_csv(directory / SEQUENCES_FILENAME, reports)
    write_curve_csv(directory / CURVE_FILENAME, curve)
    write_verdict_json(directory / VERDICT_FILENAME, verdict)


def _read_csv_rows(path: Path, numeric: tuple[str, ...]) -> list[dict]:
    """Rows of an analysis CSV, each complete, with slice_index and ``numeric`` numbers."""
    try:
        text = path.read_text(encoding="utf-8")
        rows = list(csv.DictReader(io.StringIO(text)))
    except (OSError, ValueError, csv.Error) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not text.endswith("\n"):
        raise DataError(f"{path} ends in the middle of a line")
    for line, row in enumerate(rows, start=2):
        if None in row or None in row.values():
            raise DataError(f"{path}: line {line} does not have one value per column")
        for name in ("slice_index", *numeric):
            try:
                float(row[name])
            except (KeyError, ValueError):
                raise DataError(f"{path}: line {line} has no number in column {name}") from None
    return rows


def summarize_runs(run_dirs: list[Path]) -> tuple[str, list[list]]:
    """The text of ``summary.txt`` and the rows of ``combined_curves.csv`` of
    the analyzed ``run_dirs``; each run's verdict line carries the verdict's
    reason, if it has one.  An analysis output that is missing, cut short or
    not numeric where a number belongs, or a reason that is not text, raises
    a ``DataError``."""
    missing = []
    for d in run_dirs:
        for name in (CHSH_FILENAME, CURVE_FILENAME, VERDICT_FILENAME):
            if not (d / name).exists():
                missing.append(str(d / name))
    if missing:
        raise DataError("missing analysis outputs: " + ", ".join(sorted(missing)))

    summary_lines = []
    combined_rows = []
    for d in run_dirs:
        verdict = read_json(d / VERDICT_FILENAME, DataError, "a bellrm verdict")
        if not isinstance(verdict.get("label"), str):
            raise DataError(f"{d / VERDICT_FILENAME} has no verdict label")
        reason = verdict.get("reason", "")
        if not isinstance(reason, str):
            raise DataError(f"{d / VERDICT_FILENAME} has a reason that is not text")
        chsh_rows = {
            row["slice_index"]: row
            for row in _read_csv_rows(d / CHSH_FILENAME, ("S", "std_err"))
        }
        curve_rows = _read_csv_rows(d / CURVE_FILENAME, CURVE_NUMBERS)
        if not curve_rows:
            raise DataError(f"{d / CURVE_FILENAME} holds no slices")
        seed = read_seed(d)
        summary_lines.append(f"run: {d.name}" + (f" (seed {seed})" if seed != "" else ""))
        for row in curve_rows:
            s_row = chsh_rows.get(row["slice_index"])
            s_text = f"S = {float(s_row['S']):.4f} +/- {float(s_row['std_err']):.4f}" if s_row else "S = n/a"
            # a slice without sequences has nan for every curve number: it
            # reads n/a and leaves its cells empty, as a slice without S does
            numbers = {name: float(row[name]) for name in CURVE_NUMBERS}
            r, compression = numbers["rejection_rate"], numbers["mean_compression_ratio"]
            r_text = (
                "R = n/a" if math.isnan(r)
                else f"R = {r:.3f} [{numbers['ci_low']:.3f}, {numbers['ci_high']:.3f}]"
            )
            c_text = "n/a" if math.isnan(compression) else f"{compression:.3f}"
            summary_lines.append(
                f"  slice {row['slice_index']}: {s_text}, {r_text}, compression {c_text}"
            )
            combined_rows.append(
                [d.name, row["slice_index"], *(s_row[k] if s_row else "" for k in ("S", "std_err")),
                 *("" if math.isnan(value) else row[name] for name, value in numbers.items())]
            )
        summary_lines.append(f"  verdict: {verdict['label']}" + (f" ({reason})" if reason else ""))
        summary_lines.append("")
    return "\n".join(summary_lines), combined_rows


def write_report(directory: Path, summary: str, rows: list[list]) -> tuple[Path, Path]:
    """Write ``summary.txt`` and the ``rows`` of ``combined_curves.csv``; returns their paths."""
    summary_path = directory / SUMMARY_FILENAME
    combined_path = directory / COMBINED_FILENAME
    with atomic_open(summary_path, "w", encoding="utf-8") as fh:
        fh.write(summary)
    _write_csv(combined_path, ("run", "slice_index", "S", "S_std_err", *CURVE_NUMBERS), rows)
    return summary_path, combined_path
