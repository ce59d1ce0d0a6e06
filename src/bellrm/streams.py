"""Reproducible random streams.

Every stochastic choice in the package is drawn from a counter-based
generator (Philox) keyed by hashing a single 64-bit master seed together
with a purpose label and optional block indices, so a run is
bit-reproducible from (seed, config) alone and no pulse block's draws
depend on another block's.  (Generation is still sequential: the
SCENARIO_LOCALITY_FALSE and SCENARIO_ERGODICITY_FALSE samplers carry
state across blocks, see ``models.PairSampler``.)

Per-pulse quantities that must be recoverable for *any* pulse index
without replaying the stream (the analyzer needs the setting of the pulse
a dark count fell into) use a stateless SplitMix64 hash instead.
"""

from __future__ import annotations

import hashlib

import numpy as np

MASK64 = (1 << 64) - 1

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)


def label_key(label: str) -> int:
    """Stable 64-bit key for a purpose label."""
    digest = hashlib.sha256(label.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def substream(seed: int, label: str, *indices: int) -> np.random.Generator:
    """Independent generator for (seed, label, indices).

    The Philox key is derived by hashing all parts, so streams for
    different labels or block indices never collide.
    """
    payload = hashlib.sha256()
    payload.update(int(seed & MASK64).to_bytes(8, "little"))
    payload.update(label.encode("utf-8"))
    for idx in indices:
        payload.update(int(idx & MASK64).to_bytes(8, "little"))
    key = int.from_bytes(payload.digest()[:16], "little")
    return np.random.Generator(np.random.Philox(key=key))


def splitmix64(values: np.ndarray | int, key: int) -> np.ndarray:
    """Vectorized SplitMix64 finalizer of ``values`` xor ``key``.

    Good enough avalanche for per-pulse uniform choices; not a CSPRNG.
    """
    x = (np.asarray(values, dtype=np.uint64) ^ np.uint64(key & MASK64)) + _GOLDEN
    x = (x ^ (x >> np.uint64(30))) * _MIX1
    x = (x ^ (x >> np.uint64(27))) * _MIX2
    return x ^ (x >> np.uint64(31))


def per_pulse_choice(seed: int, label: str, pulse_indices: np.ndarray, n_choices: int) -> np.ndarray:
    """Deterministic uniform choice in [0, n_choices) for each pulse index."""
    if n_choices < 1:
        raise ValueError("n_choices must be >= 1")
    hashed = splitmix64(pulse_indices, label_key(label) ^ (seed & MASK64))
    return (hashed % np.uint64(n_choices)).astype(np.int64)
