#!/usr/bin/env python3
"""Benchmark of the bellrm simulate -> analyze -> report pipeline.

    python3 perfbench/run.py --workload default_qm --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout: the program is run from ``src/``.
Each CLI command runs in its own child process, one at a time, as a user
runs it; a run repeats ``--version`` (set-up) and simulate / analyze /
report on the workload's config until ``--seconds`` have passed, at least
three times, and reports medians.

``--trace 0`` reports the end-to-end metrics, measured with tracing off.
``--trace 1`` alternates an untraced pipeline with one run through
``traced.py``, checks that both write the same output bytes, and reports
per-layer self times and counts.  Every command's outputs are checked; the
last line of standard output is one JSON object with the result.  See
README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from importlib import metadata
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACER = Path(__file__).resolve().parent / "traced.py"

MIN_ITERATIONS = 3
COMMAND_TIMEOUT_S = 60
ANALYSIS_OUTPUTS = ("chsh_per_slice.csv", "curve.csv", "sequences.csv", "verdict.json")
TSIRELSON = 2.0 * math.sqrt(2.0)
#: statistical output checks are two-sided at this many standard errors.
CHECK_SIGMAS = 5.0

# The paper's default run and analysis, spelled out so that a change of the
# program's defaults does not change the benchmark's inputs.
PAPER_RUN = {
    "station_separation_m": 20.0,
    "rep_rate_hz": 1.0e6,
    "pulse_duration_s": None,
    "run_duration_s": 20.0,
    "detection_prob_per_pulse": 0.1,
    "coincidence_prob_per_pulse": 0.02,
    "dark_rate_hz": 100.0,
}
PAPER_ANALYSIS = {
    "n_slices": 2,
    "window_ns": 2,
    "alpha_sig": 0.01,
    "sequence_length": 10000,
    "block_size": 128,
    "serial_m": 4,
}
# Why each workload exists is in README.md.
WORKLOADS = {
    "default_qm": ({}, "QM_NONLOCAL", {}),
    "dense_scenario": (
        {"detection_prob_per_pulse": 0.0, "coincidence_prob_per_pulse": 0.1, "dark_rate_hz": 0.0},
        "SCENARIO_LOCALITY_FALSE",
        {},
    ),
    "wide_window": ({}, "QM_NONLOCAL", {"window_ns": 100}),
}

E2E_UNITS = {
    "setup_s": "s",
    "simulate_events_per_s": "events/s",
    "analyze_events_per_s": "events/s",
    "pipeline_s": "s",
    "simulate_peak_rss_mb": "MB",
    "analyze_peak_rss_mb": "MB",
}

# Per-layer times are span self times, except these, which include their
# children (the battery includes its six tests; cli.<command> is the whole
# command after start-up).
INCLUSIVE_SPANS = ("randommeter.battery", "cli.simulate", "cli.analyze", "cli.report")
SPAN_METRICS = (
    "source.generate", "models.sample", "streams.per_pulse_choice", "streams.substream",
    "btag.write", "btag.read", "btag.split",
    "timetags.match", "timetags.slice", "timetags.extract", "timetags.partition",
    "chsh.estimate",
    "randommeter.battery", "randommeter.monobit", "randommeter.runs",
    "randommeter.block_frequency", "randommeter.serial", "randommeter.cusum",
    "randommeter.compression", "randommeter.curve", "randommeter.classify",
    "cli.manifest", "cli.write_outputs", "cli.simulate", "cli.analyze", "cli.report",
)
COUNT_UNITS = {"timetags.match_yield": "ratio", "btag.bytes": "bytes"}
TRACER_COUNTS = (
    "source.events", "models.pairs", "streams.choices",
    "timetags.events_in", "timetags.coincidences", "timetags.fast_clusters",
    "timetags.slow_clusters", "timetags.out_of_pulse", "timetags.cross_pulse_unset",
    "timetags.bits_discarded", "chsh.records",
    "randommeter.sequences", "randommeter.bits_tested", "randommeter.rejected",
    "randommeter.runs_not_applicable",
)


def workload_config(name: str, seed: int) -> dict:
    run, model, analysis = WORKLOADS[name]
    return {
        "run": {"seed": seed, **PAPER_RUN, **run},
        "model": {"kind": model, "parameters": {}},
        "analysis": {**PAPER_ANALYSIS, **analysis},
    }


def environment() -> dict:
    """Machine and code the numbers were measured on (informational)."""
    try:
        with open("/proc/meminfo", encoding="ascii") as fh:
            ram_mb = int(fh.readline().split()[1]) // 1024
    except (OSError, ValueError, IndexError):
        ram_mb = None
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        commit = None
    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "cores": os.cpu_count(),
        "ram_mb": ram_mb,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
        "src_lines": src_lines,
    }


class Runner:
    """Runs CLI commands one at a time and keeps the failure tally."""

    def __init__(self, workdir: Path):
        self.workdir = workdir
        threads = str(len(os.sched_getaffinity(0)))
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("BELLRM_")}
        self.env.update(
            PYTHONPATH=str(SRC),
            OMP_NUM_THREADS=threads,
            OPENBLAS_NUM_THREADS=threads,
            MKL_NUM_THREADS=threads,
        )
        self.child: subprocess.Popen | None = None
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def command(self, args: list[str], traced_to: Path | None = None) -> tuple[float, float]:
        """Run one command; returns (wall s, peak RSS MB) and counts it."""
        self.attempted += 1
        if traced_to is None:
            argv = [sys.executable, "-m", "bellrm.cli", *args]
        else:
            argv = [sys.executable, str(TRACER), str(traced_to), *args]
        log = self.workdir / "child.log"
        t0 = time.perf_counter()
        with open(log, "wb") as out:
            self.child = subprocess.Popen(
                argv, stdout=out, stderr=subprocess.STDOUT, env=self.env, cwd=self.workdir
            )
        timer = threading.Timer(COMMAND_TIMEOUT_S, self.child.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(self.child.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        self.child.returncode = code = os.waitstatus_to_exitcode(status)
        self.child = None
        if code != 0:
            tail = log.read_text(errors="replace").strip().splitlines()[-3:]
            self.fail(f"{' '.join(args[:1])} exited {code}: {' | '.join(tail)}")
        return wall, usage.ru_maxrss / 1024.0

    def fail(self, problem: str) -> None:
        self.failed += 1
        self.problems.append(problem)

    def stop_child(self) -> None:
        if self.child is not None and self.child.returncode is None:
            self.child.kill()
            self.child.wait()


# --- output checks ----------------------------------------------------------


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def check_simulate(workload: str, config: dict, run_dir: Path) -> list[str]:
    manifest = json.loads((run_dir / "manifest.json").read_text())
    stats = manifest["stats"]
    size = (run_dir / "events.btag").stat().st_size
    problems = []
    if stats["n_events"] <= 0 or size != 32 + 16 * stats["n_events"]:
        problems.append(f"events.btag holds {size} bytes for {stats['n_events']} events")
    if workload == "default_qm":
        expected = config["run"]["coincidence_prob_per_pulse"] * stats["n_pulses"]
        if abs(stats["n_coincidence_pairs"] - expected) > CHECK_SIGMAS * math.sqrt(expected):
            problems.append(
                f"{stats['n_coincidence_pairs']} coincident pairs, expected {expected:.0f}"
            )
    return problems


def check_analyze(workload: str, config: dict, run_dir: Path) -> list[str]:
    verdict = json.loads((run_dir / "verdict.json").read_text())
    slices = _csv_rows(run_dir / "chsh_per_slice.csv")
    problems = []
    if len(slices) != config["analysis"]["n_slices"]:
        problems.append(f"CHSH estimated on {len(slices)} slices")
    expected = {
        "default_qm": "REALISM_FALSE",
        "dense_scenario": "LOCALITY_FALSE",
        "wide_window": "INCONCLUSIVE",
    }[workload]
    if verdict["label"] != expected:
        problems.append(f"verdict {verdict['label']} ({verdict['reason']}), expected {expected}")
    for row in slices:
        s, err = float(row["S"]), float(row["std_err"])
        if workload == "default_qm" and not (err > 0 and (s - 2.0) / err >= CHECK_SIGMAS):
            problems.append(f"slice {row['slice_index']}: S = {s} +/- {err} is not above 2")
        if workload == "dense_scenario" and abs(s - TSIRELSON) > 0.02:
            problems.append(f"slice {row['slice_index']}: S = {s} is not 2*sqrt(2) +/- 0.02")
    if workload == "wide_window" and "does not exceed 2" not in verdict["reason"]:
        problems.append(f"INCONCLUSIVE for another reason: {verdict['reason']}")
    return problems


def check_report(workload: str, config: dict, run_dir: Path) -> list[str]:
    rows = _csv_rows(run_dir / "combined_curves.csv")
    summary = (run_dir / "summary.txt").read_text()
    if len(rows) != config["analysis"]["n_slices"] or "verdict:" not in summary:
        return [f"report wrote {len(rows)} curve rows"]
    return []


STEPS = (
    ("simulate", check_simulate),
    ("analyze", check_analyze),
    ("report", check_report),
)


def pipeline(runner: Runner, workload: str, config: dict, config_path: Path,
             run_dir: Path, spans_dir: Path | None = None) -> dict | None:
    """simulate, analyze and report into ``run_dir``; None if anything failed."""
    commands = {
        "simulate": ["simulate", "--config", str(config_path), "--out", str(run_dir)],
        "analyze": ["analyze", "--in", str(run_dir)],
        "report": ["report", "--in", str(run_dir)],
    }
    result = {}
    for step, check in STEPS:
        traced_to = None if spans_dir is None else spans_dir / f"{step}.json"
        failed_before = runner.failed
        wall, rss = runner.command(commands[step], traced_to)
        lock = run_dir / ".lock"
        if lock.exists():
            runner.fail(f"{step} left a stale {lock.name}")
            lock.unlink()
        if runner.failed == failed_before:
            try:
                problems = check(workload, config, run_dir)
            except (OSError, ValueError, KeyError) as exc:
                problems = [f"unreadable output: {exc!r}"]
            if problems:
                runner.fail(f"{step}: " + "; ".join(problems))
        if runner.failed != failed_before:
            return None
        result[step] = (wall, rss)
    return result


def run_e2e(runner: Runner, workload: str, config: dict, config_path: Path, seconds: float) -> dict:
    """Untraced iterations; returns metric -> list of per-iteration values."""
    runner.command(["--version"])  # fills the byte-code cache before timing
    samples = {name: [] for name in E2E_UNITS}
    deadline = time.perf_counter() + seconds
    while not runner.failed and (
        len(samples["setup_s"]) < MIN_ITERATIONS or time.perf_counter() < deadline
    ):
        setup_s, _ = runner.command(["--version"])
        run_dir = runner.workdir / "run"
        result = pipeline(runner, workload, config, config_path, run_dir)
        if result is None:
            break
        n_events = json.loads((run_dir / "manifest.json").read_text())["stats"]["n_events"]
        shutil.rmtree(run_dir)
        (sim_s, sim_rss), (an_s, an_rss), (rep_s, _) = (
            result["simulate"], result["analyze"], result["report"]
        )
        for name, value in (
            ("setup_s", setup_s),
            ("simulate_events_per_s", n_events / sim_s),
            ("analyze_events_per_s", n_events / an_s),
            ("pipeline_s", sim_s + an_s + rep_s),
            ("simulate_peak_rss_mb", sim_rss),
            ("analyze_peak_rss_mb", an_rss),
        ):
            samples[name].append(value)
    return samples


def _layer_times(spans: list[list]) -> dict[str, float]:
    """Seconds per span name: self time, or total for INCLUSIVE_SPANS."""
    child_s = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child_s[parent] += end - start
    out: dict[str, float] = {}
    for (name, start, end, _), children in zip(spans, child_s):
        own = end - start if name in INCLUSIVE_SPANS else end - start - children
        out[name] = out.get(name, 0.0) + own
    return out


def _input_counts(run_dir: Path, counts: dict) -> dict:
    """Counts of one traced iteration, from the tracer and the run's files."""
    stats = json.loads((run_dir / "manifest.json").read_text())["stats"]
    out = {name: counts.get(name, 0) for name in TRACER_COUNTS}
    out["source.pulses"] = stats["n_pulses"]
    out["source.collisions_dropped"] = stats["n_collisions_dropped"]
    out["btag.bytes"] = (run_dir / "events.btag").stat().st_size
    out["timetags.match_yield"] = out["timetags.coincidences"] / max(out["timetags.events_in"], 1)
    for key in ("A0", "B0", "A1", "B1"):
        out[f"randommeter.sequences_{key}"] = 0
    for row in _csv_rows(run_dir / "sequences.csv"):
        out[f"randommeter.sequences_{row['station']}{row['slice_index']}"] += 1
    return out


def run_traced(runner: Runner, workload: str, config: dict, config_path: Path, seconds: float):
    """Alternate untraced and traced pipelines; returns (per-layer samples, counts)."""
    runner.command(["--version"])
    samples: dict[str, list[float]] = {}
    counts = None
    deadline = time.perf_counter() + seconds
    iteration = 0
    while not runner.failed and (iteration < MIN_ITERATIONS or time.perf_counter() < deadline):
        plain_dir = runner.workdir / "plain" / "run"
        traced_dir = runner.workdir / "traced" / "run"
        spans_dir = runner.workdir / "spans"
        spans_dir.mkdir()
        results = {}
        # Alternate which side runs first, so that neither always finds
        # the machine in the state the other left behind.
        sides = (("plain", plain_dir), ("traced", traced_dir))
        for side, run_dir in sides if iteration % 2 == 0 else sides[::-1]:
            results[side] = pipeline(
                runner, workload, config, config_path, run_dir,
                spans_dir if side == "traced" else None,
            )
        if None in results.values():
            break
        for name in ANALYSIS_OUTPUTS:
            if (plain_dir / name).read_bytes() != (traced_dir / name).read_bytes():
                runner.fail(f"traced run wrote a different {name}")
        digests = [
            json.loads((d / "manifest.json").read_text())["artifacts"]
            for d in (plain_dir, traced_dir)
        ]
        if digests[0] != digests[1]:
            runner.fail("traced run wrote a different events.btag")

        times: dict[str, float] = {}
        traced_counts: dict = {}
        count_s = 0.0
        for step, _ in STEPS:
            trace = json.loads((spans_dir / f"{step}.json").read_text())
            for name, value in _layer_times(trace["spans"]).items():
                times[name] = times.get(name, 0.0) + value
            for name, value in trace["counts"].items():
                traced_counts[name] = traced_counts.get(name, 0) + value
            count_s += trace["count_s"]
        iteration_counts = _input_counts(traced_dir, traced_counts)
        if counts is None:
            counts = iteration_counts
        elif iteration_counts != counts:
            runner.fail("counts differ between iterations of one seed")
        wall = {side: sum(w for w, _ in r.values()) for side, r in results.items()}
        times["trace.overhead"] = wall["traced"] - wall["plain"]
        times["trace.count"] = count_s
        for name in (*SPAN_METRICS, "trace.overhead", "trace.count"):
            samples.setdefault(f"{name}_s", []).append(times.get(name, 0.0))
        shutil.rmtree(runner.workdir / "plain")
        shutil.rmtree(runner.workdir / "traced")
        shutil.rmtree(spans_dir)
        iteration += 1
    return samples, counts or {}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "bellrm" / "cli.py").is_file():
        print(f"no bellrm sources under {SRC}", file=sys.stderr)
        return 2

    print("env " + json.dumps(environment()))
    config = workload_config(args.workload, args.seed)
    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    runner = Runner(workdir)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        config_path = workdir / "config.json"
        config_path.write_text(json.dumps(config, indent=2))
        if args.trace:
            samples, counts = run_traced(runner, args.workload, config, config_path, args.seconds)
        else:
            samples, counts = run_e2e(runner, args.workload, config, config_path, args.seconds), {}
    finally:
        runner.stop_child()
        shutil.rmtree(workdir, ignore_errors=True)

    for problem in runner.problems:
        print(f"FAILED {problem}")
    print(f"fail_ratio = {runner.failed}/{runner.attempted} commands")
    if not samples or not all(samples.values()):
        print("no iteration completed; no result", file=sys.stderr)
        return 1
    metrics = {}
    for name, values in samples.items():
        unit = E2E_UNITS.get(name, "s")
        metrics[name] = {"value": statistics.median(values), "unit": unit}
        print(
            f"{name} = {metrics[name]['value']:.6g} {unit} "
            f"(median of {len(values)}, min {min(values):.6g}, max {max(values):.6g})"
        )
    for name, value in sorted(counts.items()):
        unit = COUNT_UNITS.get(name, "count")
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
