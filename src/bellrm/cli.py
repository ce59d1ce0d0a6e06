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
:mod:`bellrm.pipeline`, and the run directory's files, their formats and
the manifest in :mod:`bellrm.rundir`.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from contextlib import contextmanager
from pathlib import Path

from . import __version__
from .errors import ConfigError, DataError, WorkerError
from .rundir import (
    ANALYSIS_OUTPUTS, CSV_FILENAME, EVENTS_FILENAME, REPORT_OUTPUTS, load_config,
    read_manifest, summarize_runs, write_analysis, write_manifest, write_report,
)

# btag, source, models and pipeline (all on numpy) are imported inside the
# functions that use them, so that report, --version, --help and argument
# errors start without them.
ENV_PREFIX = "BELLRM_"

# (environment key, config key) of each analysis value; each analyze
# flag's dest is its environment key
_ANALYSIS_KEYS = (
    ("slices", "n_slices"),
    ("window_ns", "window_ns"),
    ("alpha_sig", "alpha_sig"),
    ("sequence_length", "sequence_length"),
)


def _overridden(section: dict, keys, flags: dict) -> dict:
    """``section`` with each (environment key, config key) of ``keys`` set
    from ``BELLRM_<KEY>``, parsed as JSON where it parses, and then from
    the flag named by the environment key, which wins when it is given."""
    for env_key, cfg_key in keys:
        raw = os.environ.get(ENV_PREFIX + env_key.upper())
        if flags.get(env_key) is not None:
            section[cfg_key] = flags[env_key]
        elif raw is not None:
            try:
                section[cfg_key] = json.loads(raw)
            except json.JSONDecodeError:
                section[cfg_key] = raw
    return section


def analysis_config(section: dict, flags: dict):
    """The ``AnalysisConfig`` of a config's or manifest's analysis section,
    overridden by the environment and then by ``flags``."""
    from .pipeline import AnalysisConfig

    return AnalysisConfig.from_dict(_overridden(section, _ANALYSIS_KEYS, flags))


def _section(obj: dict, name: str, default: dict) -> dict:
    """A copy of the config section ``name``, which must be a JSON object."""
    section = obj.get(name, default)
    if not isinstance(section, dict):
        raise ConfigError(f"config section '{name}' must be a JSON object, got {section!r}")
    return dict(section)


def effective_configs(obj: dict, flags: dict):
    """The run, model and analysis configs of a config file, checked together, each
    section overridden by the environment and then by ``flags`` (``seed``)."""
    from .models import OutcomeModel
    from .source import RunConfig, pulse_geometry

    run_keys = [(name, name) for name in RunConfig.__dataclass_fields__]
    run = RunConfig.from_dict(_overridden(_section(obj, "run", {}), run_keys, flags))
    model = OutcomeModel.from_dict(_section(obj, "model", {"kind": "QM_NONLOCAL"}))
    analysis = analysis_config(_section(obj, "analysis", {}), flags)
    pulse_geometry(run).first_half_slices(analysis.n_slices)
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


def cmd_simulate(args) -> int:
    from .btag import BtagFile, write_csv
    from .source import simulate_to_btag

    obj = load_config(args.config)
    run, model, analysis = effective_configs(obj, vars(args))
    out_dir = Path(args.out)
    with writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
    # every step under the lock writes; generation itself touches no file
    with output_lock(out_dir), writing_to(out_dir):
        # files derived from an earlier events.btag would no longer match it
        for name in (CSV_FILENAME, *ANALYSIS_OUTPUTS, *REPORT_OUTPUTS):
            (out_dir / name).unlink(missing_ok=True)
        events_path = out_dir / EVENTS_FILENAME
        stats, records_sha256 = simulate_to_btag(run, model, events_path)
        # the header is patched last, so only the record region was hashed in order
        digests = {EVENTS_FILENAME: {"records_sha256": records_sha256}}
        if args.csv:
            with BtagFile(events_path) as events:
                digests[CSV_FILENAME] = {"sha256": write_csv(out_dir / CSV_FILENAME, events)}
        write_manifest(out_dir, run, model, analysis, stats, digests)
    print(
        f"simulate: {stats.n_pulses} pulses, {stats.n_coincidence_pairs} coincident "
        f"pairs, {stats.n_events} events -> {events_path}"
    )
    return 0


def cmd_analyze(args) -> int:
    from .btag import BtagFile
    from .pipeline import analyze_events
    from .source import RunConfig

    in_dir = Path(getattr(args, "in"))
    run_dict, analysis_dict, events_path = read_manifest(in_dir)
    run = RunConfig.from_dict(run_dict)
    analysis = analysis_config(analysis_dict, vars(args))

    with output_lock(in_dir):
        with BtagFile(events_path) as events:
            n_coincidences, chsh_estimates, curve, verdict, reports = analyze_events(
                events, run, analysis
            )
        with writing_to(in_dir):
            write_analysis(in_dir, chsh_estimates, reports, curve, verdict)

    print(
        f"analyze: {n_coincidences} coincidences, {sum(map(len, reports.values()))} sequences, "
        f"verdict {verdict.label.value}"
    )
    return 0


def cmd_report(args) -> int:
    run_dirs = [Path(p) for p in getattr(args, "in")]
    summary, combined_rows = summarize_runs(run_dirs)
    out_dir = Path(args.out) if args.out else run_dirs[0]
    with writing_to(out_dir):
        out_dir.mkdir(parents=True, exist_ok=True)
        summary_path, combined_path = write_report(out_dir, summary, combined_rows)
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
