"""Batch front door: simulate -> analyze -> report.

  bellrm simulate --config run.json --out outdir [--seed N] [--csv]
  bellrm analyze  --in outdir [--slices N] [--window-ns W] [--alpha-sig P]
  bellrm report   --in outdir [outdir ...]

Configuration is one JSON object with "run", "model" and "analysis"
sections (see README for the schema).  Any scalar can be overridden by an
environment variable prefixed BELLRM_ (e.g. BELLRM_SEED,
BELLRM_DARK_RATE_HZ, BELLRM_SLICES); command-line flags win over both.
Exit codes: 0 ok, 2 configuration error or an output path that cannot be
written, 3 data error, 4 the battery worker of ``analyze`` died (the
message names its exit code).  The analysis itself lives in
:mod:`bellrm.pipeline`.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import sys
from contextlib import contextmanager
from datetime import datetime, timezone
from pathlib import Path
from typing import TYPE_CHECKING

from . import __version__
from .atomic import atomic_open
from .errors import ConfigError, DataError, IntegrityError, WorkerError

# btag, source, models, pipeline, chsh and randommeter (all on numpy), and
# dataclasses, are imported inside the functions that use them, so that
# report, --version, --help and argument errors start without them.
if TYPE_CHECKING:
    from .models import OutcomeModel
    from .pipeline import AnalysisConfig
    from .source import RunConfig, RunStats

ENV_PREFIX = "BELLRM_"

EVENTS_FILENAME = "events.btag"
MANIFEST_FILENAME = "manifest.json"
ANALYSIS_OUTPUTS = ("chsh_per_slice.csv", "sequences.csv", "curve.csv", "verdict.json")
REPORT_OUTPUTS = ("summary.txt", "combined_curves.csv")
CURVE_NUMBERS = ("rejection_rate", "ci_low", "ci_high", "mean_compression_ratio", "randomness_level")


def _env_overrides(keys) -> dict:
    out = {}
    for key in keys:
        raw = os.environ.get(ENV_PREFIX + key.upper())
        if raw is None:
            continue
        try:
            out[key] = json.loads(raw)
        except json.JSONDecodeError:
            out[key] = raw
    return out


def load_config(path) -> dict:
    """Load a config file; a manifest is accepted too (its config is reused)."""
    from .source import GENERATOR_VERSION

    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"config {path} does not hold a JSON object")
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


_ANALYSIS_ENV_KEYS = (
    ("slices", "n_slices"),
    ("window_ns", "window_ns"),
    ("alpha_sig", "alpha_sig"),
    ("sequence_length", "sequence_length"),
)


def _merge_analysis_env(analysis_dict: dict) -> dict:
    env = _env_overrides([env_key for env_key, _ in _ANALYSIS_ENV_KEYS])
    for env_key, cfg_key in _ANALYSIS_ENV_KEYS:
        if env_key in env:
            analysis_dict[cfg_key] = env[env_key]
    return analysis_dict


def _section(obj: dict, name: str, default: dict) -> dict:
    """A copy of the config section ``name``, which must be a JSON object."""
    section = obj.get(name, default)
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object, got {section!r}")
    return dict(section)


def effective_configs(obj: dict, seed_flag: int | None = None):
    """Merge file values with environment overrides and the --seed flag."""
    from .models import OutcomeModel
    from .pipeline import AnalysisConfig
    from .source import RunConfig

    run_dict = _section(obj, "run", {})
    run_dict.update(_env_overrides(RunConfig.__dataclass_fields__))
    if seed_flag is not None:
        run_dict["seed"] = seed_flag
    run = RunConfig.from_dict(run_dict)
    model = OutcomeModel.from_dict(_section(obj, "model", {"kind": "QM_NONLOCAL"}))
    analysis_dict = _merge_analysis_env(_section(obj, "analysis", {}))
    analysis = AnalysisConfig.from_dict(analysis_dict)
    return run, model, analysis


@contextmanager
def writing_to(directory: Path):
    """Turn an ``OSError`` of the output steps inside into a ``ConfigError``
    (exit 2) that names the path."""
    try:
        yield
    except OSError as exc:
        raise ConfigError(f"cannot write the outputs in {directory}: {exc}") from exc


@contextmanager
def output_lock(directory: Path):
    """Exclusive lock file preventing concurrent writers on one directory."""
    lock = directory / ".lock"
    with writing_to(directory):
        try:
            fd = os.open(lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            raise DataError(
                f"{directory} is locked by another invocation (remove {lock} if stale)"
            ) from None
    try:
        os.close(fd)
        yield
    finally:
        try:
            os.unlink(lock)
        except OSError:
            pass


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def write_manifest(
    directory: Path,
    run: RunConfig,
    model: OutcomeModel,
    analysis: AnalysisConfig,
    stats: RunStats,
    artifact_names,
) -> dict:
    from dataclasses import asdict

    from .source import GENERATOR_VERSION, pulse_geometry

    geo = pulse_geometry(run)
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
        "geometry": {
            "pulse_duration_s": geo.pulse_duration_s,
            "rep_period_s": geo.rep_period_s,
            "duty_cycle": geo.duty_cycle,
            "light_time_s": geo.light_time_s,
        },
        "stats": stats.to_dict(),
        "artifacts": {
            name: {
                "bytes": (directory / name).stat().st_size,
                "sha256": _sha256(directory / name),
            }
            for name in artifact_names
        },
    }
    with atomic_open(directory / MANIFEST_FILENAME, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=2)
        fh.write("\n")
    return manifest


def cmd_simulate(args) -> int:
    from .btag import BtagFile, write_csv
    from .source import simulate_to_btag

    obj = load_config(args.config)
    run, model, analysis = effective_configs(obj, args.seed)
    out_dir = Path(args.out)
    with writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # every step under the lock writes; generation itself touches no file
    with output_lock(out_dir), writing_to(out_dir):
        # files derived from an earlier events.btag would no longer match it
        for name in ("events.csv", *ANALYSIS_OUTPUTS, *REPORT_OUTPUTS):
            (out_dir / name).unlink(missing_ok=True)
        events_path = out_dir / EVENTS_FILENAME
        stats = simulate_to_btag(run, model, events_path)
        artifact_names = [EVENTS_FILENAME]
        if args.csv:
            with BtagFile(events_path) as events:
                write_csv(out_dir / "events.csv", events)
            artifact_names.append("events.csv")
        write_manifest(out_dir, run, model, analysis, stats, artifact_names)
    print(
        f"simulate: {stats.n_pulses} pulses, {stats.n_coincidence_pairs} coincident "
        f"pairs, {stats.n_events} events -> {events_path}"
    )
    return 0


def _load_manifest(directory: Path) -> tuple[dict, dict, int]:
    """The run and analysis sections and the events.btag size a manifest records."""
    path = directory / MANIFEST_FILENAME
    if not path.exists():
        raise DataError(f"missing {path}")
    try:
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        config = manifest["config"]
        run_dict, analysis_dict = dict(config["run"]), dict(config.get("analysis", {}))
        events_bytes = manifest["artifacts"][EVENTS_FILENAME]["bytes"]
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        raise DataError(f"{path} is not a bellrm manifest: {exc!r}") from exc
    if isinstance(events_bytes, bool) or not isinstance(events_bytes, int) or events_bytes < 0:
        raise DataError(
            f"{path} is not a bellrm manifest: {EVENTS_FILENAME} bytes is {events_bytes!r}"
        )
    return run_dict, analysis_dict, events_bytes


def _events_path(directory: Path, expected_bytes: int) -> Path:
    """The run's events.btag, once its size is the one the manifest records."""
    path = directory / EVENTS_FILENAME
    try:
        size = path.stat().st_size
    except FileNotFoundError:
        raise DataError(f"missing {path}") from None
    if size != expected_bytes:
        raise IntegrityError(
            f"{path} holds {size} bytes but {MANIFEST_FILENAME} records {expected_bytes}; "
            "it is not the file this manifest describes",
            min(size, expected_bytes),
        )
    return path


def cmd_analyze(args) -> int:
    from .btag import BtagFile
    from .chsh import write_chsh_csv
    from .pipeline import AnalysisConfig, analyze_events
    from .randommeter import write_curve_csv, write_reports_csv, write_verdict_json
    from .source import RunConfig

    in_dir = Path(getattr(args, "in"))
    run_dict, analysis_dict, events_bytes = _load_manifest(in_dir)
    run = RunConfig.from_dict(run_dict)
    analysis_dict = _merge_analysis_env(analysis_dict)
    for env_key, cfg_key in _ANALYSIS_ENV_KEYS:  # each flag's dest is its env key
        flag = getattr(args, env_key)
        if flag is not None:
            analysis_dict[cfg_key] = flag
    analysis = AnalysisConfig.from_dict(analysis_dict)

    with output_lock(in_dir):
        with BtagFile(_events_path(in_dir, events_bytes)) as events:
            n_coincidences, chsh_estimates, curve, verdict, report_rows = analyze_events(
                events, run, analysis
            )
        with writing_to(in_dir):
            # no new output may stand beside an old one if a write fails
            for name in (*REPORT_OUTPUTS, *ANALYSIS_OUTPUTS):
                (in_dir / name).unlink(missing_ok=True)
            write_chsh_csv(in_dir / "chsh_per_slice.csv", chsh_estimates)
            write_reports_csv(in_dir / "sequences.csv", report_rows)
            write_curve_csv(in_dir / "curve.csv", curve)
            write_verdict_json(in_dir / "verdict.json", verdict)

    print(
        f"analyze: {n_coincidences} coincidences, {len(report_rows)} sequences, "
        f"verdict {verdict.label.value}"
    )
    return 0


def _read_json_object(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(obj, dict):
        raise DataError(f"{path} does not hold a JSON object")
    return obj


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


def cmd_report(args) -> int:
    run_dirs = [Path(p) for p in getattr(args, "in")]
    missing = []
    for d in run_dirs:
        for name in ("chsh_per_slice.csv", "curve.csv", "verdict.json"):
            if not (d / name).exists():
                missing.append(str(d / name))
    if missing:
        raise DataError("missing analysis outputs: " + ", ".join(sorted(missing)))

    out_dir = Path(args.out) if args.out else run_dirs[0]
    with writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    summary_lines = []
    combined_rows = []
    for d in run_dirs:
        verdict = _read_json_object(d / "verdict.json")
        if not isinstance(verdict.get("label"), str):
            raise DataError(f"{d / 'verdict.json'} has no verdict label")
        chsh_rows = {
            row["slice_index"]: row
            for row in _read_csv_rows(d / "chsh_per_slice.csv", ("S", "std_err"))
        }
        curve_rows = _read_csv_rows(d / "curve.csv", CURVE_NUMBERS)
        if not curve_rows:
            raise DataError(f"{d / 'curve.csv'} holds no slices")
        seed = ""
        manifest_path = d / MANIFEST_FILENAME
        if manifest_path.exists():
            seed = _read_json_object(manifest_path).get("seed", "")
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
                {
                    "run": d.name,
                    "slice_index": row["slice_index"],
                    "S": s_row["S"] if s_row else "",
                    "S_std_err": s_row["std_err"] if s_row else "",
                    **{
                        name: "" if math.isnan(value) else row[name]
                        for name, value in numbers.items()
                    },
                }
            )
        summary_lines.append(f"  verdict: {verdict['label']}")
        summary_lines.append("")

    summary_path = out_dir / "summary.txt"
    combined_path = out_dir / "combined_curves.csv"
    with writing_to(out_dir):
        with atomic_open(summary_path, "w", encoding="utf-8") as fh:
            fh.write("\n".join(summary_lines))
        with atomic_open(combined_path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.DictWriter(
                fh,
                fieldnames=[
                    "run", "slice_index", "S", "S_std_err", "rejection_rate",
                    "ci_low", "ci_high", "mean_compression_ratio", "randomness_level",
                ],
            )
            writer.writeheader()
            writer.writerows(combined_rows)
    print(f"report: wrote {summary_path} and {combined_path}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bellrm",
        description="Pulsed Bell-test simulation and randomness-evolution analysis",
    )
    parser.add_argument("--version", action="version", version=f"bellrm {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="generate a time-tag file from a config")
    p_sim.add_argument("--config", required=True, help="JSON config path")
    p_sim.add_argument("--out", required=True, help="output directory")
    p_sim.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_sim.add_argument("--csv", action="store_true", help="also write the CSV mirror")
    p_sim.set_defaults(func=cmd_simulate)

    p_an = sub.add_parser("analyze", help="match, slice, test and classify a run")
    p_an.add_argument("--in", required=True, help="directory produced by simulate")
    p_an.add_argument("--slices", type=int, default=None)
    p_an.add_argument("--window-ns", dest="window_ns", type=int, default=None)
    p_an.add_argument("--alpha-sig", dest="alpha_sig", type=float, default=None)
    p_an.add_argument(
        "--sequence-length", dest="sequence_length", type=int, default=None
    )
    p_an.set_defaults(func=cmd_analyze)

    p_rep = sub.add_parser("report", help="summarize one or more analyzed runs")
    p_rep.add_argument("--in", nargs="+", required=True, help="analyzed run directories")
    p_rep.add_argument("--out", default=None, help="where to write the summary")
    p_rep.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 3
    except WorkerError as exc:
        print(f"worker error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
