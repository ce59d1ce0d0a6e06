"""A mask-based pair sampler, the reference for ``PairSampler``.

Each pulse half of the pattern scenarios is selected by a boolean mask,
six masked gathers and scatters per batch, and the pattern bits are
gathered through ``(offset + arange(k)) % period``.  Its bits, and its
pattern position after every batch, are the ones ``PairSampler.sample``
must give.
"""

import numpy as np

from bellrm import ModelKind, local_hv_bit, scenario_pattern
from bellrm.models import HIDDEN_VARIABLE_KINDS, SCENARIO_KINDS, hidden_angles


def _qm_pair_bits(deltas, rng):
    bits_a = (rng.random(deltas.size) < 0.5).astype(np.uint8)
    flip = rng.random(deltas.size) < np.sin(deltas) ** 2
    return bits_a, bits_a ^ flip.astype(np.uint8)


def _pattern_pair_bits(deltas, pattern, offset, rng):
    k = deltas.size
    idx = (offset + np.arange(k, dtype=np.int64)) % pattern.size
    bits_a = pattern[idx]
    flip = rng.random(k) < np.sin(deltas) ** 2
    return bits_a, bits_a ^ flip.astype(np.uint8), offset + k


class MaskedPairSampler:
    def __init__(self, model, seed):
        self.model = model
        if model.kind in SCENARIO_KINDS:
            self._pattern = scenario_pattern(model.scenario_period, seed)
        else:
            self._pattern = None
        self._pattern_pos = 0

    def sample(self, alphas, betas, pulse_times_s, within_pulse_ns, pulse_duration_ns, rng):
        kind = self.model.kind
        deltas = np.asarray(alphas, dtype=np.float64) - np.asarray(betas, dtype=np.float64)
        k = deltas.size

        if kind is ModelKind.QM_NONLOCAL or kind is ModelKind.SCENARIO_REALISM_FALSE:
            return _qm_pair_bits(deltas, rng)

        if kind in HIDDEN_VARIABLE_KINDS:
            lam = hidden_angles(self.model, pulse_times_s, rng)
            return local_hv_bit(lam, alphas), local_hv_bit(lam, betas)

        in_second = 2 * np.asarray(within_pulse_ns, dtype=np.int64) >= pulse_duration_ns
        deterministic = in_second if kind is ModelKind.SCENARIO_LOCALITY_FALSE else ~in_second
        bits_a = np.empty(k, dtype=np.uint8)
        bits_b = np.empty(k, dtype=np.uint8)
        qa, qb = _qm_pair_bits(deltas[~deterministic], rng)
        bits_a[~deterministic] = qa
        bits_b[~deterministic] = qb
        pa, pb, self._pattern_pos = _pattern_pair_bits(
            deltas[deterministic], self._pattern, self._pattern_pos, rng
        )
        bits_a[deterministic] = pa
        bits_b[deterministic] = pb
        return bits_a, bits_b
