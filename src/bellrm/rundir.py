"""The run directory: its file names, its manifest and the config reader.

The manifest's ``config_sha256`` binds the configuration that fixes the
bytes of ``events.btag`` to the run, so ``analyze`` refuses a manifest
whose generator version, seed, run or model section was edited.

Every JSON file is read by :func:`read_json`, which raises the caller's
error class: ``ConfigError`` (exit 2) for a config, ``DataError`` (exit 3)
for a run's own files.  The module loads no numpy; only ``simulate`` calls
:func:`load_config` and :func:`write_manifest`, which import the generator.
"""

from __future__ import annotations

import hashlib
import json
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .atomic import atomic_open
from .errors import BellrmError, ConfigError, DataError, IntegrityError

if TYPE_CHECKING:
    from .models import OutcomeModel
    from .pipeline import AnalysisConfig
    from .source import RunConfig, RunStats

EVENTS_FILENAME = "events.btag"
CSV_FILENAME = "events.csv"
MANIFEST_FILENAME = "manifest.json"
ANALYSIS_OUTPUTS = CHSH_FILENAME, SEQUENCES_FILENAME, CURVE_FILENAME, VERDICT_FILENAME = (
    "chsh_per_slice.csv", "sequences.csv", "curve.csv", "verdict.json"
)
REPORT_OUTPUTS = SUMMARY_FILENAME, COMBINED_FILENAME = ("summary.txt", "combined_curves.csv")


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
