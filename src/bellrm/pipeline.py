"""The analysis pipeline: match -> slice -> battery and CHSH -> verdict.

``analyze_pieces`` takes a merged event stream as a sequence of pieces,
such as ``btag.iter_btag`` reads from a file (a stream held in memory is
the one piece ``[events]``), and returns everything the ``analyze``
command writes; ``AnalysisConfig`` holds the parameters.

``cut_at_gaps`` re-cuts the pieces after their last gap wider than the
coincidence window.  No chain of events crosses such a gap, so matching
each part on its own gives the records one pass over the whole stream
gives.  Between parts the pipeline carries only the integer CHSH count
table, the coincidence count and, per (slice, station), the bits not yet
in a full ``sequence_length`` block.  ``timetags.slice_sequences`` splits
a part's bits by (slice, station) in one pass; each sequence is appended
to the bits carried for its key and cut with
``timetags.sequence_partition``, so the blocks are the ones a cut of the
whole stream gives, and each full block goes to the battery as soon as it
is complete.  Memory therefore does not grow with the length of the run.
S is computed per slice from the count table at the four standard CHSH
pairs (see :mod:`bellrm.chsh`).

The battery runs in one worker process beside the matcher, so the two
share the machine's two cores.  ``analyze_pieces`` forks it (the ``fork``
start method, so the worker costs no interpreter start-up and shares only
the start-up pages) before it reads the first piece, and sends it each
full block and its sequence id over one pipe; the pipe's buffer is the
only queue, so a slow worker holds the parent back.  The worker runs
``run_battery`` on the blocks in the order they arrive and, after the end
marker, sends the reports back in that order, so the outputs are those of
a serial run.  A battery exception is raised again in the parent; a
worker that dies ends the analysis with a ``WorkerError`` naming its
exit code; the worker is always joined before ``analyze_pieces`` returns
or raises.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from dataclasses import dataclass

import numpy as np

from .btag import STATION_A, STATION_B, STATION_LETTERS, join_events
from .chsh import chsh_from_table, count_table
from .errors import ConfigError, DataError, IncompleteSettingsError, WorkerError, require_finite
from .randommeter import BatteryConfig, classify_scenario, curve_from_reports, run_battery
from .source import RunConfig, pulse_geometry
from .timetags import match_events, sequence_partition, slice_index_of, slice_sequences


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


def _after_last_gap(ts: np.ndarray, window: int) -> int:
    """Index of the first event after the last step in ``ts`` wider than ``window``, or 0.

    The steps near the end are looked at first: at the paper's rates the last
    gap is a few events from the end, and a whole piece needs a diff only
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
    pieces: Iterable[np.ndarray], window_ns: int
) -> Iterator[tuple[int, np.ndarray]]:
    """Re-cut a merged stream's pieces after their last gap wider than ``window_ns``.

    Yields ``(first, events)``: the index of ``events[0]`` in the whole
    stream and a run of consecutive events that ends at the end of the
    stream or before a gap wider than the window.  Events after a piece's
    last gap are carried into the next piece; a piece without such a gap is
    carried whole, so a chain longer than a piece is never cut.  A step
    back in time is never a gap, so an order fault stays inside one part,
    where ``match_events`` finds it.
    """
    window = int(window_ns)
    carry: list[np.ndarray] = []  # events since the last gap, no gap among them
    first = 0
    for piece in pieces:
        if piece.size == 0:
            continue
        ts = piece["timestamp_ns"]
        cut = _after_last_gap(ts, window)
        if cut == 0 and not (
            carry and int(ts[0]) - int(carry[-1]["timestamp_ns"][-1]) > window
        ):
            carry.append(piece)
            continue
        part = join_events([*carry, piece[:cut]]) if carry else piece[:cut]
        if part.size:
            yield first, part
            first += part.size
        carry = [piece[cut:]]
    if carry:
        yield first, join_events(carry)


def _battery_worker(conn, parent_conn, battery: BatteryConfig) -> None:
    """Run the battery on each (block, sequence id) ``conn`` brings, in order.

    After the end marker ``None``, sends back the list of reports; an
    exception the battery raises is sent back instead.  A pipe closed by
    the parent ends the worker quietly.
    """
    import signal  # here, as multiprocessing is: simulate and report never pay for it

    parent_conn.close()  # the parent's end: EOF here once the parent closes it
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # an interrupt stops the parent
    reports = []
    try:
        while (item := conn.recv()) is not None:
            block, sid = item
            reports.append(run_battery(block, battery, sequence_id=sid))
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


def _worker_reply(conn, worker) -> list:
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


def analyze_pieces(pieces: Iterable[np.ndarray], run: RunConfig, analysis: AnalysisConfig):
    """Full analysis pipeline on a merged event stream given piece by piece.

    The pieces, in stream order, are what ``iter_btag`` yields.  Returns
    (n_coincidences, chsh_estimates, curve, verdict, report_rows); CHSH
    estimates cover the slices that could be estimated, and a slice
    without one makes the verdict INCONCLUSIVE.  An event whose
    setting lies outside the menu, or one out of stream order, raises a
    ``DataError`` naming its index in the whole stream.  It forks the
    battery worker, so call it from a process with no other thread running:
    a forked child holds only the calling thread.
    """
    analysis.validate()  # before n_slices sizes the tables
    geo = pulse_geometry(run)
    battery = analysis.battery()
    n_menu = len(run.settings_menu)
    n_slices = analysis.n_slices
    keys = [(s, station) for s in range(n_slices) for station in (STATION_A, STATION_B)]
    length = analysis.sequence_length
    # per (slice, station), the bits short of a full block, kept for the next part
    pending = {key: np.empty(0, dtype=np.uint8) for key in keys}
    n_blocks = dict.fromkeys(keys, 0)
    sent = []  # the key of each block sent to the worker, in order
    counts = np.zeros((n_slices + 1, n_menu, 2, 2), dtype=np.int64)
    n_coincidences = 0

    # imported here: simulate and report never pay for it
    import multiprocessing

    context = multiprocessing.get_context("fork")
    conn, worker_conn = context.Pipe()
    worker = context.Process(target=_battery_worker, args=(worker_conn, conn, battery))
    worker.start()
    worker_conn.close()
    try:
        for first, events in cut_at_gaps(pieces, analysis.window_ns):
            outside = np.flatnonzero(events["setting_index"] >= n_menu)
            if outside.size:
                i = int(outside[0])
                raise DataError(
                    f"record {first + i} has setting_index {events['setting_index'][i]}, "
                    f"outside the {n_menu}-entry settings menu"
                )
            records = match_events(
                events, analysis.window_ns, rep_rate_hz=run.rep_rate_hz,
                settings_menu=run.settings_menu, first_record=first,
            )
            records["slice_index"] = slice_index_of(
                records["within_pulse_ns"], n_slices, geo.pulse_duration_ns
            )
            counts += count_table(records, n_menu, n_slices)
            n_coincidences += records.size
            for key, part_bits in slice_sequences(records, n_slices).items():
                slice_index, station = key
                bits = np.concatenate([pending[key], part_bits])
                blocks = sequence_partition(bits, length)
                pending[key] = bits[len(blocks) * length :].copy()
                for block in blocks:
                    sid = f"{STATION_LETTERS[station]}{slice_index}-{n_blocks[key]}"
                    n_blocks[key] += 1
                    sent.append(key)
                    _send(conn, worker, (block, sid))
        _send(conn, worker, None)
        reports = {key: [] for key in keys}
        for key, report in zip(sent, _worker_reply(conn, worker), strict=True):
            reports[key].append(report)
    finally:
        conn.close()
        worker.join()

    report_rows = [
        (report.sequence_id, slice_index, STATION_LETTERS[station], report)
        for (slice_index, station) in keys
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
    curve = curve_from_reports(reports_by_slice, battery)
    verdict = classify_scenario(curve, chsh_estimates, n_coincidences)
    return n_coincidences, chsh_estimates, curve, verdict, report_rows
