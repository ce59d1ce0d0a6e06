"""The analysis pipeline: match -> records -> battery and CHSH -> verdict.

``analyze_events`` takes a merged event stream, an array or a
``btag.BtagFile``, and returns everything the ``analyze`` command writes;
``AnalysisConfig`` holds the parameters.

``cut_at_gaps`` cuts the stream, window by window, into parts that end at
a gap wider than the coincidence window.  No chain of events crosses such
a gap, so matching each part on its own gives the pairs one pass over the
whole stream gives.  Each part is a slice (of a file, a view of its
mapping), so no record is copied before it is matched; a gapless run past
``MAX_GAPLESS_RECORDS`` is a ``DataError``.  Each part is matched by
``timetags.match_events``, which returns the matched positions, and
``timetags.coincidences`` builds its records from them: it checks each
matched event against its own pulse and gives each record its slice and
setting.  Between parts the parent keeps only the integer CHSH count
table and two counts (coincidences, and records outside the pulse).  S is
computed per slice from the count table at the four standard CHSH pairs
(see :mod:`bellrm.chsh`).

The battery runs in one worker process beside the matcher, so the two
share the machine's two cores.  ``analyze_events`` forks it (the ``fork``
start method, so the worker costs no interpreter start-up and shares only
the start-up pages) before it maps the first window, and sends it each
part's non-empty ``timetags.slice_sequences`` over one pipe; the pipe's
buffer is the only queue, so a slow worker holds the parent back.  Per
(slice, station) the worker keeps the bits not yet in a full
``sequence_length`` block, cuts blocks with ``timetags.sequence_partition``
and runs ``run_battery`` on each, so the blocks are the ones a cut of the
whole stream gives.  After the end marker it sends the reports back
grouped per (slice, station), in block order, so the outputs are those of
a serial run.  Memory is bounded by the windows in use and, in the
worker, less than a block per (slice, station), not by the run's length.
A battery exception is raised again in the parent; a worker that dies
ends the analysis with a ``WorkerError`` naming its exit code; the worker
is always joined before ``analyze_events`` returns or raises.
"""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .btag import PIECE_RECORDS, STATION_A, STATION_B, STATION_LETTERS
from .chsh import chsh_from_table, count_table
from .errors import ConfigError, DataError, IncompleteSettingsError, WorkerError, require_finite
from .randommeter import BatteryConfig, classify_scenario, curve_from_reports, run_battery
from .source import RunConfig
from .timetags import coincidences, match_events, sequence_partition, slice_sequences


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


#: the most records ``cut_at_gaps`` reads without a gap wider than the window
MAX_GAPLESS_RECORDS = 2**20


def _after_last_gap(ts: np.ndarray, window: int) -> int:
    """Index of the first event after the last step in ``ts`` wider than ``window``, or 0.

    The steps near the end are looked at first: at the paper's rates the last
    gap is a few events from the end, and a whole window needs a diff only
    when its tail holds none.
    """
    for lo in (max(ts.size - 1024, 0), 0):
        tail = ts[lo:]
        gaps = np.flatnonzero(
            np.subtract(tail[1:], tail[:-1], dtype=np.int64, casting="unsafe") > window
        )
        if gaps.size:
            return lo + int(gaps[-1]) + 1
    return 0


def cut_at_gaps(
    events, window_ns: int, piece_records: int = PIECE_RECORDS
) -> Iterator[tuple[int, np.ndarray]]:
    """Cut a merged stream, an array or a ``BtagFile``, at gaps wider than ``window_ns``.

    Yields ``(first, part)``: the index of ``part[0]`` in the stream and a
    slice of it that ends at the end of the stream or before a gap wider
    than the window.  Each window starts at the first event not yet yielded,
    holds ``piece_records`` events (fewer than one is a ``ConfigError``) and
    is cut at its last gap.  A window without a gap grows by
    ``piece_records`` events, so a chain is never cut; one that grows past
    ``MAX_GAPLESS_RECORDS`` raises a ``DataError``, which bounds the memory
    of every stream.  A step back in time is never a gap, so an order fault
    stays inside one part, where ``match_events`` finds it.
    """
    if piece_records < 1:
        raise ConfigError(f"piece_records must be >= 1, got {piece_records}")
    window, n = int(window_ns), len(events)
    first = end = 0
    while first < n:
        end = min(end + piece_records, n)
        part = events[first:end]
        cut = _after_last_gap(part["timestamp_ns"], window)
        if not cut and part.size > MAX_GAPLESS_RECORDS:
            raise DataError(
                f"no gap wider than {window} ns in {part.size} records from record {first}"
            )
        if cut or end == n:  # else the window grows
            part = part[:cut] if cut else part
            yield first, part
            first = end = first + part.size


def _battery_worker(conn, parent_conn, analysis: AnalysisConfig) -> None:
    """Cut each (slice, station)'s bits into blocks and run the battery on each.

    Each message is one part's ``{(slice, station): bits}``; bits short of a
    full block wait for the next part, and block k of a key is ``A0-k``.
    After the end marker ``None``, sends back ``{(slice, station): [report,
    ...]}``, or an exception raised here.  A pipe closed by the parent ends
    the worker quietly.
    """
    import signal  # here, as multiprocessing is: simulate and report never pay for it

    parent_conn.close()  # the parent's end: EOF here once the parent closes it
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the parent
    battery, length = analysis.battery(), analysis.sequence_length
    pending = {}  # per (slice, station), the bits short of a full block
    reports = defaultdict(list)
    try:
        while (sequences := conn.recv()) is not None:
            for key, part_bits in sequences.items():
                bits = np.concatenate([pending.get(key, part_bits[:0]), part_bits])
                blocks = sequence_partition(bits, length)
                pending[key] = bits[len(blocks) * length :].copy()
                slice_index, station = key
                for block in blocks:
                    sid = f"{STATION_LETTERS[station]}{slice_index}-{len(reports[key])}"
                    reports[key].append(run_battery(block, battery, sequence_id=sid))
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

    Returns (n_coincidences, chsh_estimates, curve, verdict, report_rows);
    CHSH estimates cover the slices that could be estimated, and a slice
    without one makes the verdict INCONCLUSIVE.  An event whose setting
    lies outside the menu, one out of stream order, or a matched one
    outside its own pulse's window raises a ``DataError`` naming its index
    in the whole stream.  It forks the battery worker, so call it from a
    process with no other thread running: a forked child holds only the
    calling thread.
    """
    analysis.validate()  # before n_slices sizes the tables
    n_menu = len(run.settings_menu)
    n_slices = analysis.n_slices
    counts = np.zeros((n_slices + 1, n_menu, 2, 2), dtype=np.int64)
    n_coincidences = n_out_of_pulse = 0

    # imported here: simulate and report never pay for it
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conn, worker_conn = context.Pipe()
    worker = context.Process(target=_battery_worker, args=(worker_conn, conn, analysis))
    worker.start()
    worker_conn.close()
    try:
        for first, part in cut_at_gaps(events, analysis.window_ns):
            outside = np.flatnonzero(part["setting_index"] >= n_menu)
            if outside.size:
                i = int(outside[0])
                raise DataError(
                    f"record {first + i} has setting_index {part['setting_index'][i]}, "
                    f"outside the {n_menu}-entry settings menu"
                )
            a_pos, b_pos = match_events(part, analysis.window_ns, first_record=first)
            records = coincidences(part, a_pos, b_pos, run, n_slices, first_record=first)
            counts += count_table(records, n_menu, n_slices)
            n_coincidences += records.size
            n_out_of_pulse += int(np.count_nonzero(records["slice_index"] < 0))
            sequences = slice_sequences(records, n_slices).items()
            _send(conn, worker, {key: bits for key, bits in sequences if bits.size})
        _send(conn, worker, None)
        reports = _worker_reply(conn, worker)  # a defaultdict: a key without blocks has []
    finally:
        conn.close()
        worker.join()

    report_rows = [
        (report.sequence_id, slice_index, STATION_LETTERS[station], report)
        for slice_index in range(n_slices)
        for station in (STATION_A, STATION_B)
        for report in reports[slice_index, station]
    ]
    reports_by_slice = {
        s: reports[s, STATION_A] + reports[s, STATION_B] for s in range(n_slices)
    }
    chsh_estimates = []
    for slice_index in range(n_slices):
        try:
            chsh_estimates.append(chsh_from_table(counts, run.settings_menu, slice_index))
        except IncompleteSettingsError:
            pass  # classify_scenario answers INCONCLUSIVE for this slice

    # validate has already refused fewer than two slices, and
    # classify_scenario tests the halves only once each holds sequences.
    curve = curve_from_reports(reports_by_slice, analysis.battery())
    verdict = classify_scenario(curve, chsh_estimates, n_coincidences, n_out_of_pulse)
    return n_coincidences, chsh_estimates, curve, verdict, report_rows
