"""A mask-based pair sampler, the reference for ``PairSampler``.

Each pulse half of the pattern scenarios is selected by a boolean mask,
six masked gathers and scatters per batch, and the pattern bits are
gathered through ``(offset + arange(k)) % period``.  Each pair's flip
probability is ``sin(alpha - beta) ** 2`` of its own two angles, gathered
from the menu pair by pair, so the oracle also checks the sampler's
per-entry table.  Like the sampler it takes the second half's first ns
and puts a pair in the second half when within >= that edge.  Its bits,
and its pattern position after every batch, are the ones
``PairSampler.sample`` must give.
"""

import math

import numpy as np

from bellrm import ModelKind, local_hv_bit, scenario_pattern
from bellrm.models import HIDDEN_VARIABLE_KINDS, SCENARIO_KINDS, hidden_angles

#: a menu at the edges of the flip probability: equal angles (p = 0),
#: orthogonal angles (p = 1), and angles near pi, where sin(alpha - beta)
#: is near 0 again
EDGE_MENU = (
    (0.3, 0.3),
    (0.3, 0.3 + math.pi / 2),
    (math.pi - 1e-12, 0.0),
    (1e-12, math.pi - 1e-12),
)


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
    def __init__(self, model, seed, settings_menu):
        self.model = model
        self._menu = np.array(settings_menu, dtype=np.float64)
        if model.kind in SCENARIO_KINDS:
            self._pattern = scenario_pattern(model.scenario_period, seed)
        else:
            self._pattern = None
        self._pattern_pos = 0

    def sample(self, settings, pulse_start_ns, within_pulse_ns, second_half_ns, rng):
        kind = self.model.kind
        alphas = self._menu[settings, 0]
        betas = self._menu[settings, 1]
        deltas = alphas - betas
        k = deltas.size

        if kind is ModelKind.QM_NONLOCAL or kind is ModelKind.SCENARIO_REALISM_FALSE:
            return _qm_pair_bits(deltas, rng)

        if kind in HIDDEN_VARIABLE_KINDS:
            lam = hidden_angles(self.model, np.asarray(pulse_start_ns) * 1e-9, rng)
            return local_hv_bit(lam, alphas), local_hv_bit(lam, betas)

        in_second = np.asarray(within_pulse_ns, dtype=np.int64) >= second_half_ns
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
