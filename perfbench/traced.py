"""Run one ``bellrm`` command with its pipeline layers timed from outside.

    PYTHONPATH=src python3 perfbench/traced.py OUT.json analyze --in rundir

Each public function in ``TRACED`` is replaced, at every ``bellrm`` module
name bound to it, by a wrapper that records a span; that covers the names
the pipeline looks functions up by, such as ``bellrm.cli.match_coincidences``
and ``bellrm.randommeter.compression_ratio``.  ``iter_event_chunks`` gets one
span per ``next()``.  The command then runs through ``bellrm.cli.main`` with
the remaining arguments inside a ``cli.<command>`` span.

Spans are ``[name, start, end, parent index]`` and stay in memory until the
command ends; then they are written to OUT.json together with the counts.
Counts are computed here from the wrapped calls' arguments and results, not
read from the program's own tallies.  The time spent computing them is
reported as ``count_s`` and falls outside every span but the command's.
"""

from __future__ import annotations

import functools
import json
import sys
import time

import numpy as np

import bellrm.btag
import bellrm.chsh
import bellrm.cli
import bellrm.models
import bellrm.randommeter
import bellrm.source
import bellrm.streams
import bellrm.timetags


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self.count_s = 0.0

    def open(self, name: str) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.spans.append([name, time.perf_counter(), None, parent])
        self.stack.append(len(self.spans) - 1)

    def close(self) -> None:
        self.spans[self.stack.pop()][2] = time.perf_counter()

    def add(self, name: str, n) -> None:
        self.counts[name] = self.counts.get(name, 0) + n

    def wrap(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close()
            if count is not None:
                t0 = time.perf_counter()
                count(self, args, result)
                self.count_s += time.perf_counter() - t0
            return result

        return traced

    def wrap_generator(self, fn, name: str, count=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                self.open(name)
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self.close()
                if count is not None:
                    count(self, args, item)
                yield item

        return traced


# --- counts ---------------------------------------------------------------


def _count_chunk(tr, args, chunk):
    tr.add("source.events", len(chunk))


def _count_pairs(tr, args, bits):
    tr.add("models.pairs", len(bits[0]))


def _count_choices(tr, args, choices):
    tr.add("streams.choices", len(choices))


def _count_match(tr, args, records):
    """Coincidences, plus the chain decomposition the matcher works on.

    Events of both stations closer than the window form one cluster; an
    isolated A+B pair is the fast path, three or more events with both
    stations present go through the per-cluster loop.
    """
    events_a, events_b, window = args[0], args[1], int(args[2])
    tr.add("timetags.events_in", len(events_a) + len(events_b))
    tr.add("timetags.coincidences", len(records))
    tr.add("timetags.cross_pulse_unset", int(np.count_nonzero(records["setting_index"] == -1)))
    if len(events_a) == 0 or len(events_b) == 0:
        return
    t = np.concatenate([events_a["timestamp_ns"], events_b["timestamp_ns"]]).astype(np.int64)
    is_b = np.zeros(t.size, dtype=np.int64)
    is_b[len(events_a):] = 1
    order = np.argsort(t, kind="stable")
    t = t[order]
    new_cluster = np.empty(t.size, dtype=bool)
    new_cluster[0] = True
    np.greater(np.diff(t), window, out=new_cluster[1:])
    cluster = np.cumsum(new_cluster) - 1
    size = np.bincount(cluster)
    n_b = np.bincount(cluster, weights=is_b[order]).astype(np.int64)
    n_a = size - n_b
    tr.add("timetags.fast_clusters", int(np.count_nonzero((n_a == 1) & (n_b == 1))))
    tr.add("timetags.slow_clusters", int(np.count_nonzero((n_a >= 1) & (n_b >= 1) & (size >= 3))))


def _count_slice(tr, args, records):
    tr.add("timetags.out_of_pulse", int(np.count_nonzero(records["slice_index"] == -1)))


def _count_partition(tr, args, blocks):
    bits, length = args[0], int(args[1])
    tr.add("timetags.bits_discarded", len(bits) - length * len(blocks))


def _count_battery(tr, args, report):
    tr.add("randommeter.sequences", 1)
    tr.add("randommeter.bits_tested", len(args[0]))
    tr.add("randommeter.rejected", int(report.overall_rejected))


def _count_runs(tr, args, result):
    tr.add("randommeter.runs_not_applicable", int(not result.applicable))


def _count_chsh(tr, args, estimate):
    tr.add("chsh.records", estimate.n_records)


# (owner, attribute, span name, count hook); an owner that is a module is
# also the definition every other bellrm module name is checked against.
TRACED = (
    (bellrm.models.PairSampler, "sample", "models.sample", _count_pairs),
    (bellrm.streams, "per_pulse_choice", "streams.per_pulse_choice", _count_choices),
    (bellrm.streams, "substream", "streams.substream", None),
    (bellrm.btag.BtagWriter, "write", "btag.write", None),
    (bellrm.btag, "read_btag", "btag.read", None),
    (bellrm.btag, "split_stations", "btag.split", None),
    (bellrm.timetags, "match_coincidences", "timetags.match", _count_match),
    (bellrm.timetags, "slice_records", "timetags.slice", _count_slice),
    (bellrm.timetags, "extract_sequence", "timetags.extract", None),
    (bellrm.timetags, "sequence_partition", "timetags.partition", _count_partition),
    (bellrm.chsh, "estimate_chsh", "chsh.estimate", _count_chsh),
    (bellrm.randommeter, "run_battery", "randommeter.battery", _count_battery),
    (bellrm.randommeter, "monobit_test", "randommeter.monobit", None),
    (bellrm.randommeter, "runs_test", "randommeter.runs", _count_runs),
    (bellrm.randommeter, "block_frequency_test", "randommeter.block_frequency", None),
    (bellrm.randommeter, "serial_test", "randommeter.serial", None),
    (bellrm.randommeter, "cusum_test", "randommeter.cusum", None),
    (bellrm.randommeter, "compression_ratio", "randommeter.compression", None),
    (bellrm.randommeter, "curve_from_reports", "randommeter.curve", None),
    (bellrm.randommeter, "classify_scenario", "randommeter.classify", None),
    (bellrm.cli, "write_manifest", "cli.manifest", None),
    (bellrm.chsh, "write_chsh_csv", "cli.write_outputs", None),
    (bellrm.randommeter, "write_reports_csv", "cli.write_outputs", None),
    (bellrm.randommeter, "write_curve_csv", "cli.write_outputs", None),
    (bellrm.randommeter, "write_verdict_json", "cli.write_outputs", None),
)


def _rebind(original, wrapper) -> None:
    """Point every bellrm module name bound to ``original`` at ``wrapper``."""
    for mod_name, module in list(sys.modules.items()):
        if mod_name != "bellrm" and not mod_name.startswith("bellrm."):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def install(tr: Tracer) -> None:
    """Wrap every function in ``TRACED``; one that no longer exists is skipped."""
    generate = getattr(bellrm.source, "iter_event_chunks", None)
    if generate is not None:
        _rebind(generate, tr.wrap_generator(generate, "source.generate", _count_chunk))
    for owner, attr, name, count in TRACED:
        original = getattr(owner, attr, None)
        if original is None:
            continue
        wrapper = tr.wrap(original, name, count)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
        else:
            _rebind(original, wrapper)


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tr = Tracer()
    install(tr)
    tr.open(f"cli.{argv[0]}")
    try:
        return bellrm.cli.main(argv)
    finally:
        tr.close()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": tr.spans, "counts": tr.counts, "count_s": tr.count_s}, fh)


if __name__ == "__main__":
    sys.exit(main())
