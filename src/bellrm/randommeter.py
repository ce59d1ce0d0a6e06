"""Randomness measurement: test battery, compressibility, rejection curve.

A sequence can never be certified random, only demonstrated not-random,
so the meter reading is the *rejection rate* R: the fraction of
fixed-length sequences flagged by at least one test of a small, fixed
battery (``TEST_NAMES``: monobit, runs, block frequency, serial,
cumulative sums, all at significance alpha_sig).  ``run_battery`` takes
the battery's three parameters, alpha_sig, block_size and serial_m, as
arguments, as each test does; ``false_alarm_rate`` and
``min_sequence_length`` give the two numbers they fix.  A
dictionary-compression ratio is reported alongside as a complexity
estimate.  Verdicts about which property the data falsifies come from
contrasting R between the first and second pulse halves.  ``rundir`` writes the reports, the curve and the verdict.

The p-values need only three special functions: ``math.erfc``, the normal
CDF :func:`ndtr` built on it, and the chi-square tail :func:`chi2_tail`,
a finite sum for a whole number of degrees of freedom, so the battery runs
on the standard library and numpy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import ConfigError, InsufficientLengthError, UndefinedStatisticError

_SQRT_HALF = math.sqrt(0.5)


def ndtr(x: np.ndarray) -> np.ndarray:
    """Standard normal CDF of a 1-d array, elementwise: erfc(-x / sqrt 2) / 2."""
    return 0.5 * np.fromiter(map(math.erfc, (-_SQRT_HALF * x).tolist()), np.float64, len(x))


def chi2_tail(statistic: float, dof: int) -> float:
    """P(X > ``statistic``) for X chi-square with ``dof`` degrees of freedom.

    With x = statistic / 2 it is a finite sum of positive terms
    x^j e^-x / Gamma(j + 1) over j = dof/2 - 1, dof/2 - 2, ... down to 0,
    or, for an odd ``dof``, down to 1/2 plus erfc(sqrt x).  Each term is
    taken through logarithms, so a large ``dof`` does not overflow.  Below
    j = x the terms only shrink, so the sum stops there once a term falls
    below 1e-17 of it.  NaN unless statistic >= 0 and ``dof`` is a whole
    number >= 1.
    """
    if not (statistic >= 0 and dof >= 1 and float(dof).is_integer()):
        return math.nan
    x = statistic / 2.0
    if x == 0:
        return 1.0
    if x == math.inf:
        return 0.0
    log_x = math.log(x)
    total = math.erfc(math.sqrt(x)) if dof % 2 else 0.0
    j = dof / 2.0 - 1.0
    while j >= 0:
        term = math.exp(j * log_x - x - math.lgamma(j + 1.0))
        total += term
        if j < x and term < 1e-17 * total:
            break
        j -= 1.0
    return min(total, 1.0)  # the rounded sum can pass 1 by an ulp


@dataclass(frozen=True)
class TestResult:
    test_name: str
    statistic: float
    p_value: float
    rejected: bool
    applicable: bool = True


def _result(name: str, statistic: float, p_value: float, alpha_sig: float) -> TestResult:
    p_value = float(min(1.0, max(0.0, p_value)))
    return TestResult(name, float(statistic), p_value, p_value < alpha_sig)


class _CheckedBits(np.ndarray):
    """A sequence :func:`_as_bits` has already checked.  ``run_battery``
    checks its sequence once and hands each test this view of it."""


def _as_bits(bits) -> np.ndarray:
    """``bits`` as a 1-d uint8 array; every value must be 0 or 1."""
    if type(bits) is _CheckedBits:
        return bits.view(np.ndarray)
    arr = np.asarray(bits)
    if arr.ndim != 1:
        raise ConfigError("bit sequence must be one-dimensional")
    if arr.dtype.kind not in "biuf" or not np.all((arr == 0) | (arr == 1)):
        raise ConfigError("bit sequence must hold only 0 and 1")
    return arr.astype(np.uint8, copy=False)


def monobit_test(bits, alpha_sig: float = 0.01) -> TestResult:
    """Excess of ones versus zeros: s = |sum(2x-1)|/sqrt(n), p = erfc(s/sqrt 2)."""
    x = _as_bits(bits)
    if x.size < 100:
        raise InsufficientLengthError("monobit needs at least 100 bits")
    s = abs(2.0 * int(np.count_nonzero(x)) - x.size) / math.sqrt(x.size)
    return _result("monobit", s, math.erfc(s / math.sqrt(2.0)), alpha_sig)


def runs_test(bits, alpha_sig: float = 0.01) -> TestResult:
    """Number of maximal constant-bit runs versus its expectation.

    Only meaningful when the ones proportion is near 1/2; outside the
    guard band the result is flagged not applicable (the monobit test
    rejects such sequences anyway).
    """
    x = _as_bits(bits)
    n = x.size
    if n < 100:
        raise InsufficientLengthError("runs needs at least 100 bits")
    pi_hat = np.count_nonzero(x) / n
    if abs(pi_hat - 0.5) >= 2.0 / math.sqrt(n):
        return TestResult("runs", math.nan, math.nan, False, applicable=False)
    v = int(np.count_nonzero(np.diff(x))) + 1
    denom = 2.0 * math.sqrt(2.0 * n) * pi_hat * (1.0 - pi_hat)
    stat = abs(v - 2.0 * n * pi_hat * (1.0 - pi_hat)) / denom
    return _result("runs", float(v), math.erfc(stat), alpha_sig)


def block_frequency_test(bits, block_size: int = 128, alpha_sig: float = 0.01) -> TestResult:
    """Chi-square of per-block ones proportions around 1/2."""
    x = _as_bits(bits)
    if block_size < 2:
        raise ConfigError("block_size must be >= 2")
    n_blocks = x.size // block_size
    if n_blocks < 20:
        raise InsufficientLengthError(
            f"block frequency needs at least {20 * block_size} bits for block size {block_size}"
        )
    blocks = x[: n_blocks * block_size].reshape(n_blocks, block_size)
    pi = blocks.mean(axis=1)
    chi2 = 4.0 * block_size * float(np.sum((pi - 0.5) ** 2))
    return _result("block_frequency", chi2, chi2_tail(chi2, n_blocks), alpha_sig)


def _pattern_counts(x: np.ndarray, m: int) -> np.ndarray:
    """Cyclic m-gram counts (2^m bins), m >= 1."""
    ext = np.concatenate([x, x[: m - 1]])
    code = np.zeros(x.size, dtype=np.int64)
    for j in range(m):
        code = (code << 1) | ext[j : j + x.size]
    return np.bincount(code, minlength=1 << m)


def _psi_squared(counts: np.ndarray, n: int) -> float:
    """psi^2 of ``n`` bits from their cyclic m-gram counts (2^m bins)."""
    return float(counts.size / n * np.sum(counts.astype(np.float64) ** 2) - n)


def serial_test(bits, m: int = 4, alpha_sig: float = 0.01) -> TestResult:
    """Uniformity of overlapping m-bit patterns (first generalized serial
    statistic, del-psi^2 with chi-square on 2^(m-1) degrees of freedom)."""
    x = _as_bits(bits)
    if m < 2:
        raise ConfigError("serial test order m must be >= 2")
    if m > math.log2(x.size) - 2:
        raise InsufficientLengthError("serial test needs m <= log2(n) - 2")
    counts = _pattern_counts(x, m)
    # an (m-1)-gram's count is the sum of the two m-grams that extend it
    shorter = counts.reshape(-1, 2).sum(axis=1)
    del_psi = _psi_squared(counts, x.size) - _psi_squared(shorter, x.size)
    return _result("serial", del_psi, chi2_tail(del_psi, 2 ** (m - 1)), alpha_sig)


def cusum_test(bits, alpha_sig: float = 0.01) -> TestResult:
    """Maximum excursion of the +/-1 partial-sum walk (forward mode)."""
    x = _as_bits(bits)
    n = x.size
    if n < 100:
        raise InsufficientLengthError("cusum needs at least 100 bits")
    walk = np.cumsum(2 * x.astype(np.int64) - 1)
    z = int(np.max(np.abs(walk)))
    sqrt_n = math.sqrt(n)
    k1 = np.arange(math.floor((-n / z + 1) / 4), math.floor((n / z - 1) / 4) + 1)
    k2 = np.arange(math.floor((-n / z - 3) / 4), math.floor((n / z - 1) / 4) + 1)
    # both sums take the normal CDF at odd multiples j of z / sqrt(n);
    # evaluate it once for each j
    lo = min(4 * k1[0] - 1, 4 * k2[0] + 1)
    cdf = ndtr(np.arange(lo, 4 * k1[-1] + 4, 2) * z / sqrt_n)

    def at(j):
        return cdf[(j - lo) // 2]

    term1 = np.sum(at(4 * k1 + 1) - at(4 * k1 - 1))
    term2 = np.sum(at(4 * k2 + 3) - at(4 * k2 + 1))
    return _result("cusum", float(z), 1.0 - term1 + term2, alpha_sig)


# --------------------------------------------------------------------------
# Compression-ratio complexity estimate
# --------------------------------------------------------------------------


def _max_trie_nodes(n: int) -> int:
    """Most trie nodes an ``n``-bit parse can make, the root included.

    Phrases are distinct, so at most all strings of length 1, 2, ... fit,
    shortest first, plus as many of the next length as the remaining bits
    allow.
    """
    nodes, length = 1, 1
    while n >= length << length:
        n -= length << length
        nodes += 1 << length
        length += 1
    return nodes + n // length


def compression_ratio(bits) -> float:
    """Incremental-parsing dictionary compression ratio (compressed/original).

    Each phrase is the longest already-seen phrase plus one new bit and is
    emitted as (phrase index, next bit); the index costs ceil(log2 t) bits
    when the dictionary holds t entries including the empty phrase.  The
    scheme is fixed so ratios are comparable across runs: incompressible
    input lands slightly above 1, constant input near 0.1, short-period
    input well below 1.

    The phrases live in a flat list trie: a node with id ``k`` is kept as
    ``2k`` and its child on bit ``b`` at ``child[2k + b]`` (0 when absent),
    sized by :func:`_max_trie_nodes` (1,203 nodes for 10,000 bits).  The
    cost follows from the phrase count P alone:
    sum over p = 1..P of (bit_length(p - 1) + 1), which is
    P + L*P - 2^L + 1 with L = bit_length(P - 1), plus bit_length(P) for a
    last phrase cut off by the end of the input.
    """
    x = _as_bits(bits)
    n = x.size
    if n < 1000:
        raise InsufficientLengthError("compression_ratio needs at least 1000 bits")
    child = [0] * (2 * _max_trie_nodes(n))
    node = 0
    free = 2  # the next node's id, doubled
    for bit in x.tobytes():
        key = node + bit
        node = child[key]
        if not node:  # a new phrase: add its node and go back to the root
            child[key] = free
            free += 2
    phrases = free // 2 - 1
    last = (phrases - 1).bit_length()
    cost = phrases + last * phrases - (1 << last) + 1
    if node:
        cost += phrases.bit_length()
    return cost / n


# --------------------------------------------------------------------------
# Battery and rejection rate
# --------------------------------------------------------------------------


#: the battery's tests, in the order ``run_battery`` reports them.
TEST_NAMES = ("monobit", "runs", "block_frequency", "serial", "cusum")


def false_alarm_rate(alpha_sig: float) -> float:
    """Compound any-test false-alarm level of the battery assuming independence."""
    return 1.0 - (1.0 - alpha_sig) ** len(TEST_NAMES)


def min_sequence_length(block_size: int, serial_m: int) -> int:
    """The shortest sequence every test of the battery and the compression ratio accept."""
    return max(100, 20 * block_size, 1 << (serial_m + 2), 1000)


@dataclass(frozen=True)
class RandomnessReport:
    results: tuple
    overall_rejected: bool
    compression_ratio: float

    def p_values(self) -> dict:
        return {r.test_name: r.p_value for r in self.results}


def run_battery(
    bits, *, alpha_sig: float = 0.01, block_size: int = 128, serial_m: int = 4
) -> RandomnessReport:
    """All five tests plus the compression ratio for one sequence.

    Overall rejection is any-test-rejects with no multiplicity correction;
    the implied compound false-alarm level is ``false_alarm_rate(alpha_sig)``.
    """
    bits = _as_bits(bits).view(_CheckedBits)
    results = (
        monobit_test(bits, alpha_sig),
        runs_test(bits, alpha_sig),
        block_frequency_test(bits, block_size, alpha_sig),
        serial_test(bits, serial_m, alpha_sig),
        cusum_test(bits, alpha_sig),
    )
    return RandomnessReport(
        results=results,
        overall_rejected=any(r.rejected for r in results),
        compression_ratio=compression_ratio(bits),
    )


# --------------------------------------------------------------------------
# Randommeter curve and scenario classification
# --------------------------------------------------------------------------

#: minimum sequences per slice for the reading to count.
MIN_SEQUENCES_PER_SLICE = 30
#: normal quantile of the two-sided 95% Wilson interval on R.
WILSON_Z = 1.959963984540054
#: every slice's S must exceed 2 by this many standard errors.
S_SIGMAS = 5.0
#: significance of the two-proportion test between the pulse halves.
HALVES_SIGNIFICANCE = 0.01


def wilson_interval(k: int, n: int) -> tuple[float, float]:
    """95% Wilson score interval for a binomial proportion."""
    z = WILSON_Z
    if n == 0:
        raise UndefinedStatisticError("Wilson interval undefined for n = 0")
    p = k / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return lo, hi


@dataclass(frozen=True)
class SliceReading:
    slice_index: int
    n_sequences: int
    n_rejected: int
    rejection_rate: float
    ci_low: float
    ci_high: float
    mean_compression_ratio: float
    randomness_level: float
    sufficient: bool


def curve_from_reports(reports: dict, alpha_sig: float) -> tuple:
    """One ``SliceReading`` per slice 0 .. n - 1, in order, from the battery
    worker's ``{(slice, station): [report, ...]}``; each slice pools its
    stations' reports in the map's order.  A map whose slices are not
    0 .. n - 1 with n >= 2 raises a ``ConfigError``.

    The derived randomness level rescales R so that the battery's
    false-alarm rate at ``alpha_sig`` reads 1.0 (fully random) and R = 1
    reads 0.0; it is the same information plotted in the orientation of a
    randomness dial.
    """
    by_slice = {}
    for (slice_index, _station), key_reports in reports.items():
        by_slice.setdefault(slice_index, []).extend(key_reports)
    if len(by_slice) < 2 or sorted(by_slice) != list(range(len(by_slice))):
        raise ConfigError(
            f"randommeter curve needs slices 0 .. n - 1 with n >= 2, got {sorted(by_slice)}"
        )
    fa = false_alarm_rate(alpha_sig)
    readings = []
    for slice_index, slice_reports in sorted(by_slice.items()):
        n = len(slice_reports)
        k = sum(r.overall_rejected for r in slice_reports)
        if n == 0:
            readings.append(
                SliceReading(slice_index, 0, 0, math.nan, math.nan, math.nan, math.nan, math.nan, False)
            )
            continue
        rate = k / n
        lo, hi = wilson_interval(k, n)
        level = 1.0 - max(0.0, rate - fa) / (1.0 - fa)
        readings.append(
            SliceReading(
                slice_index=slice_index,
                n_sequences=n,
                n_rejected=k,
                rejection_rate=rate,
                ci_low=lo,
                ci_high=hi,
                mean_compression_ratio=float(np.mean([r.compression_ratio for r in slice_reports])),
                randomness_level=level,
                sufficient=n >= MIN_SEQUENCES_PER_SLICE,
            )
        )
    return tuple(readings)


class Verdict(Enum):
    LOCALITY_FALSE = "LOCALITY_FALSE"
    REALISM_FALSE = "REALISM_FALSE"
    ERGODICITY_FALSE = "ERGODICITY_FALSE"
    INCONCLUSIVE = "INCONCLUSIVE"


@dataclass(frozen=True)
class ScenarioVerdict:
    label: Verdict
    z: float
    p_value: float
    r_first_half: float
    r_second_half: float
    n_first_half: int
    n_second_half: int
    per_slice_S: tuple
    per_slice_R: tuple
    reason: str = ""


def two_proportion_z(k1: int, n1: int, k2: int, n2: int) -> tuple[float, float]:
    """Pooled two-proportion z statistic and two-sided p-value."""
    if n1 == 0 or n2 == 0:
        raise UndefinedStatisticError("two-proportion test needs data on both sides")
    p1, p2 = k1 / n1, k2 / n2
    pooled = (k1 + k2) / (n1 + n2)
    var = pooled * (1 - pooled) * (1 / n1 + 1 / n2)
    if var == 0:
        return 0.0, 1.0
    z = (p1 - p2) / math.sqrt(var)
    return z, math.erfc(abs(z) / math.sqrt(2.0))


def _unclassifiable(
    curve: tuple, n_first: int, s_by_slice: dict, n_coincidences: int, n_out_of_pulse: int
) -> str:
    """Why :func:`classify_scenario` must answer INCONCLUSIVE, or "" if it need not."""
    if not 0 < n_first < len(curve):  # the config alone decides it, so it comes first
        return "slices do not cover both pulse halves"
    if n_coincidences == 0:
        return "no data: no coincidences matched"
    if n_out_of_pulse == n_coincidences:
        return (
            f"no data in any slice: all {n_coincidences} matched coincidences "
            "fall outside the pulse"
        )
    for reading in curve:
        if not reading.sufficient:
            return f"slice {reading.slice_index} has too few sequences"
        est = s_by_slice.get(reading.slice_index)
        if est is None:
            return f"slice {reading.slice_index} has no CHSH estimate"
        if est.std_err <= 0 or (est.S - 2.0) / est.std_err < S_SIGMAS:
            return (
                f"slice {reading.slice_index}: S = {est.S:.3f} does not exceed 2 "
                f"at {S_SIGMAS:.0f} sigma"
            )
    return ""


def classify_scenario(
    curve: tuple, n_first: int, chsh_per_slice, n_coincidences: int, n_out_of_pulse: int
) -> ScenarioVerdict:
    """Decide which property the run gives evidence against.

    Preconditions: the first ``n_first`` slices
    (``PulseGeometry.first_half_slices``) are some but not all of the
    curve, the run matched at least one coincidence inside the pulse
    (``n_out_of_pulse`` of the ``n_coincidences`` fall outside every
    slice), and every slice has a sufficient reading and violates the
    classical bound (S > 2 at >= ``S_SIGMAS``); otherwise INCONCLUSIVE,
    with no contrast statistic and no half counts.  The pulse halves, the
    first ``n_first`` slices and the rest, then have their rejection rates
    contrasted by a two-proportion test at ``HALVES_SIGNIFICANCE``: a
    significantly larger R in the first half means ERGODICITY_FALSE,
    significantly smaller means LOCALITY_FALSE, and no detectable contrast
    means REALISM_FALSE (constant reading).  This is evidence, not proof.
    """
    s_by_slice = {est.slice_index: est for est in chsh_per_slice}
    per_slice_s = tuple(
        s_by_slice[r.slice_index].S if r.slice_index in s_by_slice else math.nan
        for r in curve
    )
    per_slice_r = tuple(r.rejection_rate for r in curve)

    reason = _unclassifiable(curve, n_first, s_by_slice, n_coincidences, n_out_of_pulse)
    if reason:
        return ScenarioVerdict(
            Verdict.INCONCLUSIVE, math.nan, math.nan, math.nan, math.nan, 0, 0,
            per_slice_s, per_slice_r, reason,
        )

    first, second = curve[:n_first], curve[n_first:]
    k1, k2 = (sum(r.n_rejected for r in readings) for readings in (first, second))
    n1, n2 = (sum(r.n_sequences for r in readings) for readings in (first, second))
    z, p = two_proportion_z(k1, n1, k2, n2)

    if p < HALVES_SIGNIFICANCE:
        label = Verdict.ERGODICITY_FALSE if z > 0 else Verdict.LOCALITY_FALSE
    else:
        label = Verdict.REALISM_FALSE
    return ScenarioVerdict(
        label=label,
        z=z,
        p_value=p,
        r_first_half=k1 / n1,
        r_second_half=k2 / n2,
        n_first_half=n1,
        n_second_half=n2,
        per_slice_S=per_slice_s,
        per_slice_R=per_slice_r,
    )
