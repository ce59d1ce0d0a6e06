"""Outcome models for the two-station polarization experiment.

A model decides, pulse by pulse, which output port fires at each station
(bit 0 = transmitted, 1 = reflected).  Six kinds are provided:

* ``QM_NONLOCAL``      - singlet-class photon pair statistics for the
  fully symmetric state (E(alpha, beta) = cos 2(alpha - beta)).
* ``LOCAL_ERGODIC``    - deterministic sign model with a hidden angle
  drawn fresh and uniformly for every pulse.
* ``NONERGODIC``       - same sign rule, but the hidden angle drifts
  linearly in time instead of being redrawn.
* ``SCENARIO_*``       - three generators that keep the quantum
  correlations in every pulse slice while pinning the *sequence*
  randomness of one pulse half, one per classifier outcome.

Sampling is vectorized over pulses and draws from a caller-supplied
generator.  The SCENARIO_LOCALITY_FALSE and SCENARIO_ERGODICITY_FALSE
samplers also carry their position in the deterministic pattern from one
call to the next (``PairSampler._pattern_pos``), so their batches must be
sampled in time order; every other kind keeps no state between calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .errors import ConfigError, UnsupportedModelError, require_finite

PI = math.pi

#: default drift period of the non-ergodic hidden angle, seconds.
#: 0.01 s equals 1e4 pulse periods at the default 1 MHz repetition rate:
#: slow enough that per-pulse setting changes cannot average it out, fast
#: enough to resolve inside a single run.
DEFAULT_DRIFT_PERIOD_S = 0.01

#: period (bits) of the compressible generator used by the scenario models.
DEFAULT_SCENARIO_PERIOD = 64

#: longest scenario period, bits: the sampler holds the pattern in memory,
#: one byte per bit, so this caps it at 16 MB.
MAX_SCENARIO_PERIOD = 1 << 24


class ModelKind(Enum):
    QM_NONLOCAL = "QM_NONLOCAL"
    LOCAL_ERGODIC = "LOCAL_ERGODIC"
    NONERGODIC = "NONERGODIC"
    SCENARIO_LOCALITY_FALSE = "SCENARIO_LOCALITY_FALSE"
    SCENARIO_REALISM_FALSE = "SCENARIO_REALISM_FALSE"
    SCENARIO_ERGODICITY_FALSE = "SCENARIO_ERGODICITY_FALSE"


HIDDEN_VARIABLE_KINDS = frozenset({ModelKind.LOCAL_ERGODIC, ModelKind.NONERGODIC})
SCENARIO_KINDS = frozenset(
    {
        ModelKind.SCENARIO_LOCALITY_FALSE,
        ModelKind.SCENARIO_REALISM_FALSE,
        ModelKind.SCENARIO_ERGODICITY_FALSE,
    }
)

#: the parameters each kind reads; a kind not listed reads none.
KIND_PARAMETERS = {
    ModelKind.NONERGODIC: frozenset({"drift_period_s"}),
    **{kind: frozenset({"period"}) for kind in SCENARIO_KINDS},
}


def normalize_angle(theta: float) -> float:
    """Fold an analyzer angle into [0, pi); polarization has period pi."""
    return float(theta) % PI


#: analyzer angles closer than this, modulo pi, are one setting.
ANGLE_TOL = 1e-9


def same_angle(a, b):
    """Whether two analyzer angles name the same setting.

    The package's one angle-identity rule: equal modulo pi within
    ``ANGLE_TOL``.  Accepts scalars or numpy arrays.
    """
    d = np.abs(np.asarray(a, dtype=np.float64) - np.asarray(b, dtype=np.float64)) % PI
    return np.minimum(d, PI - d) < ANGLE_TOL


@dataclass(frozen=True)
class OutcomeModel:
    """A model kind plus its free parameters.

    Recognized parameters:
      drift_period_s   (NONERGODIC)  - period of the hidden-angle drift.
      period           (SCENARIO_*)  - length in bits of the compressible
                                       deterministic pattern.
    :meth:`from_dict` refuses any other parameter and any out-of-range value.
    """

    kind: ModelKind
    parameters: dict = field(default_factory=dict)

    @property
    def drift_period_s(self) -> float:
        return float(self.parameters.get("drift_period_s", DEFAULT_DRIFT_PERIOD_S))

    @property
    def scenario_period(self) -> int:
        return int(self.parameters.get("period", DEFAULT_SCENARIO_PERIOD))

    @staticmethod
    def from_dict(obj: dict) -> "OutcomeModel":
        try:
            kind = ModelKind(obj["kind"])
        except (KeyError, ValueError) as exc:
            raise ConfigError(f"unknown model kind in {obj!r}") from exc
        params = obj.get("parameters", {})
        if not isinstance(params, dict):
            raise ConfigError(f"model parameters must be a JSON object, got {params!r}")
        unknown = set(params) - KIND_PARAMETERS.get(kind, frozenset())
        if unknown:
            raise ConfigError(f"model {kind.value} takes no parameters {sorted(unknown)}")
        if "period" in params:
            period = params["period"]
            if isinstance(period, bool) or not isinstance(period, int) or period < 2 or period % 2:
                raise ConfigError(
                    f"model parameter period must be an even integer >= 2, got {period!r}"
                )
            if period > MAX_SCENARIO_PERIOD:
                raise ConfigError(
                    f"model parameter period must be at most {MAX_SCENARIO_PERIOD} bits, "
                    f"got {period!r}: the pattern is held in memory, one byte per bit"
                )
        if "drift_period_s" in params:
            drift = params["drift_period_s"]
            require_finite("model parameter drift_period_s", drift)
            if drift <= 0:
                raise ConfigError(f"model parameter drift_period_s must be > 0, got {drift!r}")
        return OutcomeModel(kind, dict(params))

    def to_dict(self) -> dict:
        return {"kind": self.kind.value, "parameters": dict(self.parameters)}


def qm_correlation(alpha: float, beta: float) -> float:
    """E(alpha, beta) = cos 2(alpha - beta)."""
    return math.cos(2.0 * (alpha - beta))


def local_hv_bit(lam, theta):
    """Deterministic local rule: transmitted (0) iff cos 2(theta - lam) > 0.

    Depends only on the local setting and the hidden angle, never on the
    remote station.  Accepts scalars or numpy arrays.
    """
    value = np.cos(2.0 * (np.asarray(theta) - np.asarray(lam)))
    return (value <= 0.0).astype(np.uint8)


def sawtooth_correlation(delta: float) -> float:
    """Correlation of the sign model over a uniform hidden angle.

    Piecewise linear: 1 - 4|delta|/pi on [0, pi/2], continued with period
    pi and even symmetry.  Equals +1 at aligned and -1 at orthogonal
    settings, and 0.5 at the standard CHSH separation pi/8.
    """
    d = abs(delta) % PI
    if d > PI / 2:
        d = PI - d
    return 1.0 - 4.0 * d / PI


def stationary_lambda_samples(
    model: OutcomeModel, n: int, rng: np.random.Generator
) -> np.ndarray:
    """Samples from the stationary hidden-angle density rho(lambda).

    Uniform on [0, pi) for both hidden-variable kinds: the ergodic model
    draws from it directly and the drifting angle spends equal time in
    equal intervals.
    """
    if model.kind not in HIDDEN_VARIABLE_KINDS:
        raise UnsupportedModelError(
            f"{model.kind.value} does not expose a hidden-variable density"
        )
    return rng.random(n) * PI


def hidden_angles(
    model: OutcomeModel, pulse_times_s: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """The hidden angle in [0, pi) of each pulse starting at ``pulse_times_s``.

    The package's one hidden-angle rule: LOCAL_ERGODIC draws it uniformly
    from ``rng`` for every pulse; NONERGODIC drifts it half a turn per
    ``drift_period_s`` and draws nothing.
    """
    times = np.asarray(pulse_times_s, dtype=np.float64)
    if model.kind is ModelKind.LOCAL_ERGODIC:
        return rng.random(times.size) * PI
    if model.kind is ModelKind.NONERGODIC:
        return (PI / model.drift_period_s * times) % PI
    raise UnsupportedModelError(f"{model.kind.value} has no hidden-variable trajectory")


def scenario_pattern(period: int, seed: int) -> np.ndarray:
    """Balanced deterministic bit pattern used by the scenario generators.

    Exactly half ones so the marginal stays 1/2 over full periods; the
    arrangement is a seed-derived fixed permutation, so the emitted
    sequence is strictly periodic (and therefore compressible).
    """
    from .streams import substream

    if period < 2 or period % 2:
        raise ConfigError("scenario pattern period must be an even integer >= 2")
    base = np.repeat(np.arange(2, dtype=np.uint8), period // 2)
    return substream(seed, "scenario-pattern").permutation(base)


def _qm_pair_bits(
    deltas: np.ndarray, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    bits_a = (rng.random(deltas.size) < 0.5).astype(np.uint8)
    flip = rng.random(deltas.size) < np.sin(deltas) ** 2
    return bits_a, bits_a ^ flip.astype(np.uint8)


def _pattern_pair_bits(
    deltas: np.ndarray,
    pattern: np.ndarray,
    offset: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, int]:
    k = deltas.size
    period = pattern.size
    bits_a = np.tile(np.roll(pattern, -offset % period), -(-k // period))[:k]
    flip = rng.random(k) < np.sin(deltas) ** 2
    return bits_a, bits_a ^ flip.astype(np.uint8), offset + k


class PairSampler:
    """Vectorized joint-outcome sampler for one run.

    Keeps the single piece of cross-pulse state the scenario generators
    need (the position inside the deterministic pattern); everything else
    comes from the caller-supplied generator, so results are reproducible
    given (model, seed, call sequence).
    """

    def __init__(self, model: OutcomeModel, seed: int):
        self.model = model
        if model.kind in SCENARIO_KINDS:
            self._pattern = scenario_pattern(model.scenario_period, seed)
        else:
            self._pattern = None
        self._pattern_pos = 0

    def sample(
        self,
        alphas: np.ndarray,
        betas: np.ndarray,
        pulse_times_s: np.ndarray,
        within_pulse_ns: np.ndarray,
        pulse_duration_ns: int,
        rng: np.random.Generator,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Outcome bits for a batch of coincident pulses, in time order."""
        kind = self.model.kind
        alphas = np.asarray(alphas, dtype=np.float64)
        betas = np.asarray(betas, dtype=np.float64)

        if kind is ModelKind.QM_NONLOCAL or kind is ModelKind.SCENARIO_REALISM_FALSE:
            return _qm_pair_bits(alphas - betas, rng)

        if kind in HIDDEN_VARIABLE_KINDS:
            lam = hidden_angles(self.model, pulse_times_s, rng)
            return local_hv_bit(lam, alphas), local_hv_bit(lam, betas)

        if kind in (ModelKind.SCENARIO_LOCALITY_FALSE, ModelKind.SCENARIO_ERGODICITY_FALSE):
            # Second pulse half starts at duration/2; boundary goes to the
            # later half, mirroring the slice rule.
            in_second = 2 * np.asarray(within_pulse_ns, dtype=np.int64) >= pulse_duration_ns
            halves = np.flatnonzero(~in_second), np.flatnonzero(in_second)
            entropy, deterministic = (
                halves if kind is ModelKind.SCENARIO_LOCALITY_FALSE else halves[::-1]
            )
            bits_a = np.empty(alphas.size, dtype=np.uint8)
            bits_b = np.empty(alphas.size, dtype=np.uint8)
            # Draw order is fixed (entropy half first) so output is
            # reproducible no matter how the halves partition the batch.
            bits_a[entropy], bits_b[entropy] = _qm_pair_bits(
                alphas[entropy] - betas[entropy], rng
            )
            bits_a[deterministic], bits_b[deterministic], self._pattern_pos = _pattern_pair_bits(
                alphas[deterministic] - betas[deterministic], self._pattern, self._pattern_pos, rng
            )
            return bits_a, bits_b

        raise ConfigError(f"unknown model kind {kind!r}")
