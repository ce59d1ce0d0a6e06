"""Simulate a short run, write the time-tag file and map it back, match
coincidences and build their records.

With aligned analyzers the two stations record bitwise-identical
coincidence sequences (the working principle of entanglement-based key
distribution); orthogonal analyzers give the exact complement.
"""

import tempfile
from pathlib import Path

import numpy as np

from bellrm import (
    BtagFile,
    ModelKind,
    OutcomeModel,
    RunConfig,
    STATION_A,
    STATION_B,
    coincidences,
    match_events,
    simulate_to_btag,
    slice_sequences,
)

cfg = RunConfig(
    seed=12,
    run_duration_s=2.0,
    detection_prob_per_pulse=0.02,
    coincidence_prob_per_pulse=0.02,
    dark_rate_hz=200.0,
    settings_menu=[(0.4, 0.4)],  # aligned analyzers
)
model = OutcomeModel(ModelKind.QM_NONLOCAL)

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "events.btag"
    stats = simulate_to_btag(cfg, model, path)
    print("wrote", path.stat().st_size, "bytes,", stats.n_events, "events")
    print(
        "  %d coincident pairs, %d+%d singles, %d+%d darks"
        % (
            stats.n_coincidence_pairs,
            stats.n_singles_a, stats.n_singles_b,
            stats.n_darks_a, stats.n_darks_b,
        )
    )
    # a read-only view of the file's mapping, which outlives the file's name
    with BtagFile(path) as btag_file:
        events = btag_file[:]

a_pos, b_pos = match_events(events, 2)
records = coincidences(events, a_pos, b_pos, cfg, n_slices=2)
print("matched %d coincidences in a +/-2 ns window" % records.size)

in_pulse = records[records["slice_index"] >= 0]
bits_a = in_pulse["bit_a"]
bits_b = in_pulse["bit_b"]
agree = float(np.mean(bits_a == bits_b))
print("in-pulse records: %d, agreement %.4f" % (in_pulse.size, agree))

sequences = slice_sequences(records, 2)
seq_a = sequences[0, STATION_A]
seq_b = sequences[0, STATION_B]
print(
    "first-half-of-pulse key, station A vs B (first 64 bits):\n  %s\n  %s"
    % (
        "".join(map(str, seq_a[:64])),
        "".join(map(str, seq_b[:64])),
    )
)
mismatch = int(np.count_nonzero(seq_a != seq_b))
print("key length %d, mismatches %d (accidentals only)" % (seq_a.size, mismatch))
