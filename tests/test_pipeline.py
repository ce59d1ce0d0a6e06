import contextlib
import functools
import json
import math
import mmap
import multiprocessing
import os
import signal
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bellrm import (
    CHSH_MENU,
    EVENT_DTYPE,
    BtagFile,
    BtagWriter,
    ConfigError,
    DataError,
    ModelKind,
    OutcomeModel,
    RunConfig,
    Verdict,
    WorkerError,
    chsh_from_table,
    coincidences,
    count_table,
    iter_event_chunks,
    match_events,
    run_battery,
    sequence_partition,
    slice_sequences,
    write_chsh_csv,
)
from bellrm import btag, pipeline
from bellrm.btag import STATION_LETTERS
from bellrm.cli import main
from bellrm.pipeline import AnalysisConfig, analyze_events, cut_at_gaps
from bellrm.timetags import _effective_setting_table


def test_menu_without_a_chsh_pair_is_inconclusive(tmp_path):
    # (a', b') is missing from the menu: both slices hold enough sequences,
    # but none can be given a CHSH estimate
    cfg = RunConfig(
        seed=31, run_duration_s=8.0, detection_prob_per_pulse=0.0,
        coincidence_prob_per_pulse=0.05, dark_rate_hz=0.0, settings_menu=CHSH_MENU[:3],
    )
    model = OutcomeModel(ModelKind.SCENARIO_LOCALITY_FALSE)
    events = np.concatenate(list(iter_event_chunks(cfg, model)))
    n_coincidences, chsh, curve, verdict, _ = analyze_events(events, cfg, AnalysisConfig())
    assert n_coincidences > 0 and chsh == []
    assert all(reading.sufficient for reading in curve.readings)
    assert verdict.label is Verdict.INCONCLUSIVE
    assert verdict.reason == "slice 0 has no CHSH estimate"
    assert len(verdict.per_slice_S) == 2 and all(math.isnan(s) for s in verdict.per_slice_S)

    path = tmp_path / "chsh_per_slice.csv"
    write_chsh_csv(path, chsh)
    assert path.read_text().splitlines() == [
        "slice_index,n_records,S,std_err,E_ab,E_ab_prime,E_a_prime_b,E_a_prime_b_prime"
    ]


def test_per_slice_chsh_equals_one_table_of_one_pass():
    # the pipeline adds up one count table per part; it must equal the table
    # of one pass over the whole stream in every slice.  Slice -1 and
    # cross-pulse records with setting -1 (the fifth entry's alpha with
    # another entry's beta is not in the menu) are present and must stay out
    menu = [*CHSH_MENU, (0.3, 0.7)]
    cfg = RunConfig(seed=33, run_duration_s=3.0, dark_rate_hz=1e5, settings_menu=menu)
    events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
    analysis = AnalysisConfig(n_slices=3, window_ns=100)
    n_coincidences, chsh, _, _, _ = analyze_events(events, cfg, analysis)
    records = coincidences(events, *match_events(events, 100), cfg, 3)
    assert n_coincidences == records.size
    assert (records["slice_index"] == -1).any() and (records["setting_index"] == -1).any()
    table = count_table(records, len(menu), 3)
    assert chsh == [chsh_from_table(table, menu, k) for k in range(3)]


@pytest.mark.parametrize(
    "field", ["n_slices", "window_ns", "sequence_length", "block_size", "serial_m"]
)
@pytest.mark.parametrize("value", [2.5, 4.0, True, "4"])
def test_integer_fields_reject_other_types(field, value):
    with pytest.raises(ConfigError, match=f"analysis.{field} must be an integer"):
        AnalysisConfig.from_dict({field: value})


def test_n_slices_must_fit_the_int16_slice_index():
    # the pipeline sizes its tables from n_slices before any record is sliced
    assert AnalysisConfig.from_dict({"n_slices": 32767}).n_slices == 32767
    with pytest.raises(ConfigError, match="analysis.n_slices must be <= 32767"):
        AnalysisConfig.from_dict({"n_slices": 32768})


@pytest.mark.parametrize("value", ["0.01", True, math.nan, math.inf])
def test_alpha_sig_must_be_a_finite_number(value):
    with pytest.raises(ConfigError, match="analysis.alpha_sig must be a finite number"):
        AnalysisConfig.from_dict({"alpha_sig": value})


# --- cutting the stream at gaps wider than the window ---------------------


def write_btag(path, events):
    with BtagWriter(path) as writer:
        writer.write(events)
    return path


def assert_cut_matches_one_pass(events, parts, window):
    """The parts tile the stream, every cut lies on a gap wider than the
    window, and matching part by part gives the pairs and the records of
    one pass."""
    sizes = [part.size for _, part in parts]
    assert [first for first, _ in parts] == np.cumsum([0, *sizes])[:-1].tolist()
    joined = np.concatenate([events[:0], *(part for _, part in parts)])
    assert joined.tobytes() == events.tobytes()
    ts = events["timestamp_ns"].astype(np.int64)
    for first, _ in parts[1:]:
        assert ts[first] - ts[first - 1] > window
    run = RunConfig(seed=0, run_duration_s=0.0)  # 1 MHz, as the streams' pulse indices
    a_pos, b_pos = match_events(events, window)
    part_a, part_b, records = [a_pos[:0]], [b_pos[:0]], []
    for first, part in parts:
        a, b = match_events(part, window)
        part_a.append(first + a)
        part_b.append(first + b)
        records.append(coincidences(part, a, b, run, 2, first_record=first))
    assert np.array_equal(np.concatenate(part_a), a_pos)
    assert np.array_equal(np.concatenate(part_b), b_pos)
    one_pass = coincidences(events, a_pos, b_pos, run, 2)
    assert np.concatenate([one_pass[:0], *records]).tobytes() == one_pass.tobytes()


@pytest.mark.parametrize("window, chain_size, n_chains", [(2, 2, 500), (100, 3, 200)])
def test_cutting_at_every_gap_matches_one_pass(window, chain_size, n_chains):
    # one-event windows: cut_at_gaps cuts at every gap wider than W; at
    # W = 100 ns the 100 kHz darks make chains of three or more events
    cfg = RunConfig(seed=43, run_duration_s=0.05, dark_rate_hz=1e5)
    events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
    ts = events["timestamp_ns"].astype(np.int64)
    n_gaps = np.count_nonzero(np.diff(ts) > window)
    parts = list(cut_at_gaps(events, window, piece_records=1))
    assert_cut_matches_one_pass(events, parts, window)
    assert len(parts) == n_gaps + 1
    assert sum(part.size >= chain_size for _, part in parts) > n_chains


@settings(max_examples=200, derandomize=True, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3000), st.booleans()), max_size=80),
    st.integers(1, 40),
    st.sampled_from([1, 5, 40]),
)
def test_cutting_a_file_gives_the_parts_of_the_array(tagged, piece_records, window):
    # the same stream cut from a written file and from memory, in windows
    # of 1 to 40 records
    keys = sorted({2 * t + int(b) for t, b in tagged})
    events = np.zeros(len(keys), dtype=EVENT_DTYPE)
    events["timestamp_ns"] = [k >> 1 for k in keys]
    events["pulse_index"] = events["timestamp_ns"] // 1000
    events["station"] = [k & 1 for k in keys]
    events["port_bit"] = [k % 3 == 0 for k in keys]
    events["setting_index"] = [k % 4 for k in keys]
    in_memory = list(cut_at_gaps(events, window, piece_records))
    with tempfile.TemporaryDirectory() as tmp:
        with BtagFile(write_btag(Path(tmp) / "events.btag", events)) as btag_file:
            from_file = list(cut_at_gaps(btag_file, window, piece_records))
    assert [(first, part.tobytes()) for first, part in from_file] == [
        (first, part.tobytes()) for first, part in in_memory
    ]
    assert_cut_matches_one_pass(events, from_file, window)


def test_parts_cut_from_a_file_are_read_only_views_of_a_mapping(tmp_path):
    cfg = RunConfig(seed=43, run_duration_s=0.05, dark_rate_hz=1e5)
    events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
    with BtagFile(write_btag(tmp_path / "events.btag", events)) as btag_file:
        parts = list(cut_at_gaps(btag_file, 2, piece_records=1000))
    assert len(parts) > 10
    for _, part in parts:
        assert not part.flags.writeable and not part.flags.owndata
        base = part
        while isinstance(base, np.ndarray):
            base = base.base
        if isinstance(base, memoryview):  # numpy keeps the buffer it was given
            base = base.obj
        assert isinstance(base, mmap.mmap)
        with pytest.raises(ValueError, match="read-only"):
            part["port_bit"][0] = 1
    assert_cut_matches_one_pass(events, parts, 2)


def test_a_gapless_run_longer_than_a_window_grows_the_window(tmp_path):
    # lone events, then 3,000 events each 1-2 ns after the last, then lone
    # events again; in windows of 500 the chain spans seven windows
    rng = np.random.default_rng(7)
    t = np.concatenate([
        np.arange(0, 50_000, 1000),
        60_000 + np.cumsum(rng.integers(1, 3, 3000)),
        np.arange(80_000, 130_000, 1000),
    ])
    events = np.zeros(t.size, dtype=EVENT_DTYPE)
    events["timestamp_ns"] = t
    events["pulse_index"] = t // 1000
    events["station"] = rng.integers(0, 2, t.size)
    events["port_bit"] = rng.integers(0, 2, t.size)
    with BtagFile(write_btag(tmp_path / "events.btag", events)) as btag_file:
        parts = list(cut_at_gaps(btag_file, 2, piece_records=500))
    assert_cut_matches_one_pass(events, parts, 2)
    chain = [(first, part.size) for first, part in parts if part.size >= 3000]
    assert len(chain) == 1
    first, size = chain[0]
    assert first <= 50 and first + size >= 3050


def test_a_gapless_run_past_the_cap_in_a_file_exits_3(tmp_path, monkeypatch, capsys):
    # at a cap of 100 records: 100 gapless records are one part, 110 are
    # refused, and a window that grows 7 records at a time is refused at 105
    run = gapless_run(tmp_path, monkeypatch, 110)
    monkeypatch.setattr(pipeline, "MAX_GAPLESS_RECORDS", 100)
    with BtagFile(run / "events.btag") as events:
        assert [first for first, _ in cut_at_gaps(events[:100], 2, 7)] == [0]
        with pytest.raises(DataError, match="^no gap wider than 2 ns in 105 records from"):
            list(cut_at_gaps(events, 2, 7))
    capsys.readouterr()
    with time_limit(60):
        assert main(["analyze", "--in", str(run)]) == 3
    assert capsys.readouterr().err.splitlines() == [
        "data error: no gap wider than 2 ns in 110 records from record 0"
    ]
    assert not (run / "verdict.json").exists()
    assert_no_child_left()


def test_a_file_that_shrinks_while_analyze_runs_exits_3(tmp_path, monkeypatch, capsys):
    # shrunk after its size was checked, before the first window is mapped
    run = gapless_run(tmp_path, monkeypatch, 10)

    class ShrinksOnOpen(BtagFile):
        def __init__(self, path):
            super().__init__(path)
            os.truncate(path, 32 + 16 * 4)

    monkeypatch.setattr(btag, "BtagFile", ShrinksOnOpen)
    capsys.readouterr()
    with time_limit(60):
        assert main(["analyze", "--in", str(run)]) == 3
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.splitlines() == [
        f"data error: {run / 'events.btag'}: file ends early (at byte offset {32 + 16 * 4})"
    ]
    assert_no_child_left()


def gapless_run(tmp_path, monkeypatch, n_records):
    """A run directory whose events.btag holds ``n_records`` events 1 ns
    apart, so no step is wider than the default 2 ns window.  Only the
    second event is at station B: the one chain holds one pair and the
    matcher resolves it in one lockstep pass."""
    for key in list(os.environ):
        if key.startswith("BELLRM_"):
            monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"run": {"seed": 1, "run_duration_s": 0.0}}))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    events = np.zeros(n_records, dtype=EVENT_DTYPE)
    events["timestamp_ns"] = np.arange(n_records)
    events["pulse_index"] = events["timestamp_ns"] // 1000
    events["station"][1] = 1
    write_btag(run / "events.btag", events)
    manifest = json.loads((run / "manifest.json").read_text())
    manifest["artifacts"]["events.btag"]["bytes"] = (run / "events.btag").stat().st_size
    (run / "manifest.json").write_text(json.dumps(manifest))
    return run


def test_a_gapless_stream_at_the_cap_analyzes(tmp_path, monkeypatch, capsys):
    run = gapless_run(tmp_path, monkeypatch, pipeline.MAX_GAPLESS_RECORDS)
    with time_limit(120):
        assert main(["analyze", "--in", str(run)]) == 0
    assert "analyze: 1 coincidences, 0 sequences" in capsys.readouterr().out
    assert_no_child_left()


def test_a_gapless_stream_past_the_cap_exits_3_in_bounded_memory(
    tmp_path, monkeypatch, capsys
):
    cap = pipeline.MAX_GAPLESS_RECORDS
    run = gapless_run(tmp_path, monkeypatch, cap + 1)
    capsys.readouterr()
    tracemalloc.start()
    try:
        with time_limit(120):
            assert main(["analyze", "--in", str(run)]) == 3
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert capsys.readouterr().err.splitlines() == [
        f"data error: no gap wider than 2 ns in {cap + 1} records from record 0"
    ]
    # the carry, its join with the next piece and that join's int64 steps
    # stay under three full carries
    assert peak < 3 * cap * EVENT_DTYPE.itemsize
    assert not (run / "verdict.json").exists()
    assert_no_child_left()


def cut_in_windows_of(monkeypatch, piece_records):
    """Make ``analyze_events`` cut its stream in windows of ``piece_records`` records."""
    monkeypatch.setattr(
        pipeline, "cut_at_gaps", functools.partial(cut_at_gaps, piece_records=piece_records)
    )


def test_reading_in_small_pieces_gives_the_same_analysis(tmp_path, monkeypatch):
    # the file cut in windows of 1,000 records, against the array in memory
    cfg = RunConfig(
        seed=45, run_duration_s=2.0, detection_prob_per_pulse=0.01,
        coincidence_prob_per_pulse=0.05, dark_rate_hz=1e4,
    )
    model = OutcomeModel(ModelKind.SCENARIO_LOCALITY_FALSE)
    events = np.concatenate(list(iter_event_chunks(cfg, model)))
    analysis = AnalysisConfig(window_ns=5)
    whole = analyze_events(events, cfg, analysis)
    cut_in_windows_of(monkeypatch, 1000)
    with BtagFile(write_btag(tmp_path / "events.btag", events)) as btag_file:
        windows = analyze_events(btag_file, cfg, analysis)
    assert whole[0] > 0 and len(whole[4]) >= 16
    assert repr(windows) == repr(whole)


def test_the_settings_table_is_built_once_per_analysis(monkeypatch):
    # a menu of its own, so no earlier test has cached its table
    menu = [*CHSH_MENU, (0.1, 0.2)]
    cfg = RunConfig(
        seed=47, run_duration_s=1.0, coincidence_prob_per_pulse=0.05,
        dark_rate_hz=1e4, settings_menu=menu,
    )
    events = np.concatenate(list(iter_event_chunks(cfg, OutcomeModel(ModelKind.QM_NONLOCAL))))
    analysis = AnalysisConfig(window_ns=5)
    cut_in_windows_of(monkeypatch, events.size // 5)
    n_parts = len(list(pipeline.cut_at_gaps(events, analysis.window_ns)))
    assert n_parts >= 3
    _effective_setting_table.cache_clear()
    analyze_events(events, cfg, analysis)
    info = _effective_setting_table.cache_info()
    assert (info.misses, info.hits) == (1, n_parts - 1)

    table = _effective_setting_table(tuple(map(tuple, menu)))
    with pytest.raises(ValueError, match="read-only"):
        table[0, 1] = 0


# --- the battery worker ---------------------------------------------------


WORKER_ANALYSIS = AnalysisConfig(n_slices=3, sequence_length=1000, block_size=16)


def pairs_in_slices_0_and_2(n_pulses):
    """One A+B pair per 1 MHz pulse, alternately in slice 0 and slice 2 of
    three (the default pulse lasts 133 ns), so slice 1 stays empty."""
    rng = np.random.default_rng(51)
    within = np.where(np.arange(n_pulses) % 2 == 0, 10, 120) + rng.integers(0, 10, n_pulses)
    events = np.zeros(2 * n_pulses, dtype=EVENT_DTYPE)
    events["timestamp_ns"] = np.repeat(np.arange(n_pulses) * 1000 + within, 2)
    events["pulse_index"] = np.repeat(np.arange(n_pulses), 2)
    events["station"] = np.tile([0, 1], n_pulses)
    events["port_bit"] = rng.integers(0, 2, 2 * n_pulses)
    events["setting_index"] = np.repeat(rng.integers(0, 4, n_pulses), 2)
    return events


@contextlib.contextmanager
def time_limit(seconds):
    """Fail instead of hanging: SIGALRM interrupts a blocked send or recv."""

    def hung(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, hung)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def assert_no_child_left():
    """No worker alive or unreaped: waitpid finds no child of this process."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert multiprocessing.active_children() == []


def serial_report_rows(events, cfg, analysis):
    """What the worker must give: ``run_battery`` run here, block by block."""
    a_pos, b_pos = match_events(events, analysis.window_ns)
    records = coincidences(events, a_pos, b_pos, cfg, analysis.n_slices)
    rows = []
    for (slice_index, station), bits in slice_sequences(records, analysis.n_slices).items():
        letter = STATION_LETTERS[station]
        for k, block in enumerate(sequence_partition(bits, analysis.sequence_length)):
            sid = f"{letter}{slice_index}-{k}"
            rows.append((sid, slice_index, letter, run_battery(block, analysis.battery(), sid)))
    return rows


@pytest.mark.parametrize("n_pulses", [6_400, 1_500])
def test_the_worker_reports_what_a_serial_battery_gives(n_pulses, monkeypatch):
    # 6,400 pulses: three blocks per key in slices 0 and 2, none in slice 1;
    # 1,500 pulses: no full block anywhere
    cfg = RunConfig(seed=51, run_duration_s=n_pulses * 1e-6)
    events = pairs_in_slices_0_and_2(n_pulses)
    cut_in_windows_of(monkeypatch, -(-events.size // 7))
    assert len(list(pipeline.cut_at_gaps(events, WORKER_ANALYSIS.window_ns))) >= 7
    with time_limit(60):
        rows = analyze_events(events, cfg, WORKER_ANALYSIS)[4]
    want = serial_report_rows(events, cfg, WORKER_ANALYSIS)
    assert repr(rows) == repr(want)
    per_key = Counter((slice_index, letter) for _, slice_index, letter, _ in rows)
    if n_pulses > 2_000:
        assert per_key == {(0, "A"): 3, (0, "B"): 3, (2, "A"): 3, (2, "B"): 3}
    else:
        assert rows == []
    assert_no_child_left()


def test_a_data_error_in_a_later_part_reaps_the_worker(monkeypatch):
    cfg = RunConfig(seed=51, run_duration_s=6_400e-6)
    events = pairs_in_slices_0_and_2(6_400)
    events["setting_index"][-3] = 7  # after the first full blocks went to the worker
    cut_in_windows_of(monkeypatch, -(-events.size // 7))
    with time_limit(60), pytest.raises(
        DataError, match=f"record {events.size - 3} has setting_index 7"
    ):
        analyze_events(events, cfg, WORKER_ANALYSIS)
    assert_no_child_left()


def test_a_battery_exception_comes_back_unchanged(monkeypatch):
    battery = pipeline.run_battery

    def fails_on_the_second_block(bits, config, sequence_id):
        if sequence_id == "A0-1":
            raise ZeroDivisionError(f"battery failed on {sequence_id}")
        return battery(bits, config, sequence_id=sequence_id)

    monkeypatch.setattr(pipeline, "run_battery", fails_on_the_second_block)
    cfg = RunConfig(seed=51, run_duration_s=6_400e-6)
    events = pairs_in_slices_0_and_2(6_400)
    cut_in_windows_of(monkeypatch, -(-events.size // 7))
    with time_limit(60), pytest.raises(ZeroDivisionError, match="^battery failed on A0-1$"):
        analyze_events(events, cfg, WORKER_ANALYSIS)
    assert_no_child_left()


def test_a_dead_worker_ends_the_analysis_with_its_exit_code(monkeypatch):
    # the forked worker inherits the patched battery
    monkeypatch.setattr(pipeline, "run_battery", lambda *args, **kwargs: os._exit(7))
    cfg = RunConfig(seed=51, run_duration_s=6_400e-6)
    events = pairs_in_slices_0_and_2(6_400)
    cut_in_windows_of(monkeypatch, -(-events.size // 7))
    with time_limit(60), pytest.raises(WorkerError, match="exited with code 7"):
        analyze_events(events, cfg, WORKER_ANALYSIS)
    assert_no_child_left()


WORKER_CONFIG = {
    "run": {"seed": 53, "run_duration_s": 1.0, "coincidence_prob_per_pulse": 0.05},
    "model": {"kind": "QM_NONLOCAL"},
}


def _python(code: str) -> subprocess.CompletedProcess:
    """``python -c code`` in a child that imports bellrm from this checkout."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(src), env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )


def test_only_analyze_imports_multiprocessing(tmp_path, monkeypatch):
    # simulate and report never fork, so they must not pay for the import;
    # analyze, last, shows the check can see it
    for key in list(os.environ):
        if key.startswith("BELLRM_"):
            monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKER_CONFIG))
    analyzed, fresh, report = tmp_path / "analyzed", tmp_path / "fresh", tmp_path / "report"
    assert main(["simulate", "--config", str(config), "--out", str(analyzed)]) == 0
    assert main(["analyze", "--in", str(analyzed)]) == 0
    proc = _python(
        "import sys; from bellrm.cli import main; seen = []; "
        "look = lambda: seen.append('multiprocessing' in sys.modules); look(); "
        f"main(['simulate', '--config', {str(config)!r}, '--out', {str(fresh)!r}]); look(); "
        f"main(['report', '--in', {str(analyzed)!r}, '--out', {str(report)!r}]); look(); "
        f"main(['analyze', '--in', {str(fresh)!r}]); look(); print(seen)"
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "[False, False, False, True]"


def test_a_dead_worker_ends_analyze_in_one_line_with_exit_4(tmp_path, monkeypatch):
    for key in list(os.environ):
        if key.startswith("BELLRM_"):
            monkeypatch.delenv(key)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(WORKER_CONFIG))
    run = tmp_path / "run"
    assert main(["simulate", "--config", str(config), "--out", str(run)]) == 0
    # the child's forked worker inherits the patched battery
    proc = _python(
        "import os, sys; from bellrm import pipeline; from bellrm.cli import main; "
        "pipeline.run_battery = lambda *args, **kwargs: os._exit(7); "
        f"sys.exit(main(['analyze', '--in', {str(run)!r}]))"
    )
    assert proc.returncode == 4, proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stderr.splitlines() == [
        "worker error: the battery worker exited with code 7 before it replied"
    ]
    assert not (run / "verdict.json").exists()
