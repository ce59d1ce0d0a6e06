"""The analysis pipeline: coincidence records -> battery and CHSH -> verdict.

``analyze_events`` takes a merged event stream, an array or a
``btag.BtagFile``, and returns everything ``rundir.write_analysis`` writes.
``AnalysisConfig`` holds the parameters, the battery's three included, and
checks them when it is built.  ``analyze_events`` reads the coincidence records
part by part from ``timetags.coincidence_parts`` and keeps, between parts,
only the integer count table of every record: the coincidences and the
records outside the pulse are its sums.  S is computed per slice from the
table at the four standard CHSH pairs (see :mod:`bellrm.chsh`).

The battery runs in one worker process beside the matcher, so the two
share the machine's two cores.  ``analyze_events`` forks it (the ``fork``
start method, so the worker costs no interpreter start-up and shares only
the start-up pages) before it maps the first window, and sends it each
part's non-empty ``timetags.slice_sequences`` over one pipe; the pipe's
buffer is the only queue, so a slow worker holds the parent back.  Per
(slice, station) the worker keeps the bits not yet in a full
``sequence_length`` block, cuts the rest into consecutive blocks of that
length and runs ``run_battery`` on each, so the blocks are the ones a cut
of the whole stream gives.  After the end marker it sends the reports back
grouped per (slice, station), in block order, so the outputs are those of
a serial run: ``sequences.csv`` is written from that map, and
``randommeter.curve_from_reports`` reads it as it is into the curve, one
reading per slice.  Memory is bounded by the windows in use and, in the
worker, less than a block per (slice, station), not by the run's length.
A battery exception is raised again in the parent; a worker that dies
ends the analysis with a ``WorkerError`` naming its exit code; the worker
is always joined before ``analyze_events`` returns or raises.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .btag import STATION_A, STATION_B
from .chsh import chsh_from_table, count_table
from .errors import ConfigError, IncompleteSettingsError, WorkerError, require_finite
from .randommeter import (
    classify_scenario, curve_from_reports, min_sequence_length, run_battery,
)
from .source import RunConfig, pulse_geometry
from .timetags import COINC_DTYPE, coincidence_parts, slice_sequences


@dataclass(frozen=True)
class AnalysisConfig:
    """The analysis parameters, checked when built: a bad value raises a ``ConfigError``."""

    n_slices: int = 2
    window_ns: int = 2
    alpha_sig: float = 0.01
    sequence_length: int = 10000
    block_size: int = 128
    serial_m: int = 4

    def __post_init__(self):
        for name in ("n_slices", "window_ns", "sequence_length", "block_size", "serial_m"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise ConfigError(f"analysis.{name} must be an integer, got {value!r}")
        require_finite("analysis.alpha_sig", self.alpha_sig)
        if self.n_slices < 2:
            raise ConfigError("analysis.n_slices must be >= 2")
        if self.n_slices > 32767:
            raise ConfigError("analysis.n_slices must be <= 32767")
        if self.window_ns <= 0:
            raise ConfigError("analysis.window_ns must be > 0")
        if not 0.0 < self.alpha_sig < 1.0:
            raise ConfigError("analysis.alpha_sig must lie in (0, 1)")
        if self.block_size < 2:
            raise ConfigError("analysis.block_size must be >= 2")
        if self.serial_m < 2:
            raise ConfigError("analysis.serial_m must be >= 2")
        min_length = min_sequence_length(self.block_size, self.serial_m)
        if self.sequence_length < min_length:
            raise ConfigError(
                f"analysis.sequence_length must be >= {min_length} "
                "for the configured battery"
            )

    @staticmethod
    def from_dict(obj: dict) -> "AnalysisConfig":
        unknown = set(obj) - set(AnalysisConfig.__dataclass_fields__)
        if unknown:
            raise ConfigError(f"unknown analysis fields: {sorted(unknown)}")
        return AnalysisConfig(**obj)


def _battery_worker(conn, parent_conn, analysis: AnalysisConfig) -> None:
    """Cut each (slice, station)'s bits into blocks and run the battery on each.

    Each message is one part's ``{(slice, station): bits}``; bits short of a
    full block wait for the next part.  After the end marker ``None``, sends
    back ``{(slice, station): [report, ...]}`` with every key, slice by
    slice and A before B, or an exception raised here.  A pipe closed by the
    parent ends the worker quietly.
    """
    import signal  # here, as multiprocessing is: simulate and report never pay for it

    parent_conn.close()  # the parent's end: EOF here once the parent closes it
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the parent
    length = analysis.sequence_length
    battery = dict(
        alpha_sig=analysis.alpha_sig, block_size=analysis.block_size, serial_m=analysis.serial_m
    )
    pending = {}  # per (slice, station), the bits short of a full block
    reports = {
        (s, station): [] for s in range(analysis.n_slices) for station in (STATION_A, STATION_B)
    }
    try:
        while (sequences := conn.recv()) is not None:
            for key, part_bits in sequences.items():
                bits = np.concatenate([pending.get(key, part_bits[:0]), part_bits])
                cut = bits.size - bits.size % length
                pending[key] = bits[cut:].copy()
                blocks = bits[:cut].reshape(-1, length)
                reports[key].extend(run_battery(block, **battery) for block in blocks)
    except EOFError:
        return
    except Exception as exc:
        conn.send(exc)
        return
    conn.send(reports)


def _send(conn, worker, item) -> None:
    """Send ``item`` to the worker; if it is gone, raise what ended it."""
    try:
        conn.send(item)
    except OSError:
        _worker_reply(conn, worker)
        raise


def _worker_reply(conn, worker) -> dict:
    """The worker's reports; its exception raised again, or a ``WorkerError``
    naming its exit code if it died without a reply."""
    try:
        reply = conn.recv()
    except (EOFError, OSError):
        worker.join()
        raise WorkerError(
            f"the battery worker exited with code {worker.exitcode} before it replied"
        ) from None
    if isinstance(reply, Exception):
        raise reply
    return reply


def analyze_events(events, run: RunConfig, analysis: AnalysisConfig):
    """Full analysis pipeline on a merged event stream: an array or a ``BtagFile``.

    Returns (n_coincidences, chsh_estimates, curve, verdict, reports), where
    ``reports`` maps every (slice, station), slice by slice and A before B,
    to its battery reports in block order, and ``curve`` is the tuple of
    one ``SliceReading`` per slice, in order, built from it.  CHSH estimates
    cover the slices that could be estimated, and a slice without one makes
    the verdict INCONCLUSIVE.  A ``DataError`` of ``timetags.coincidence_parts`` ends
    the analysis.  It forks the battery worker, so call it from a process
    with no other thread running: a forked child holds only the calling
    thread.
    """
    n_menu = len(run.settings_menu)
    n_slices = analysis.n_slices
    n_first = pulse_geometry(run).first_half_slices(n_slices)  # refuses before the fork
    counts = count_table(np.empty(0, dtype=COINC_DTYPE), n_menu, n_slices)

    # imported here: simulate and report never pay for it
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conn, worker_conn = context.Pipe()
    worker = context.Process(target=_battery_worker, args=(worker_conn, conn, analysis))
    worker.start()
    worker_conn.close()
    try:
        for records in coincidence_parts(events, run, analysis.window_ns, n_slices):
            counts += count_table(records, n_menu, n_slices)
            sequences = slice_sequences(records, n_slices).items()
            _send(conn, worker, {key: bits for key, bits in sequences if bits.size})
        _send(conn, worker, None)
        reports = _worker_reply(conn, worker)
    finally:
        conn.close()
        worker.join()

    chsh_estimates = []
    for slice_index in range(n_slices):
        try:
            chsh_estimates.append(chsh_from_table(counts, run.settings_menu, slice_index))
        except IncompleteSettingsError:
            pass  # classify_scenario answers INCONCLUSIVE for this slice

    curve = curve_from_reports(reports, analysis.alpha_sig)
    n_coincidences, n_out = int(counts.sum()), int(counts[-1].sum())
    verdict = classify_scenario(curve, n_first, chsh_estimates, n_coincidences, n_out)
    return n_coincidences, chsh_estimates, curve, verdict, reports
