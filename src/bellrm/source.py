"""Pulsed two-station run generator.

Produces the time-tagged detection streams of a pulsed pair source with
stations A and B: per pulse, one settings pair (held constant across the
pulse), at most one coincident pair, independent per-station singles, and
homogeneous dark counts.  Timestamps are quantized to 1 ns; two events
landing on the same nanosecond at one station keep only the first
(resolution-limited detector), with coincidence members taking priority.

Generation is chunked over pulse blocks, each block fed by its own keyed
random streams, so output is reproducible from (config, seed, block size);
another ``chunk_pulses`` gives another stream.  Two threads share the
work.  A one-thread executor makes every random draw, block after block
in order, one block ahead: the SCENARIO_LOCALITY_FALSE and
SCENARIO_ERGODICITY_FALSE samplers carry their pattern position from one
block to the next, and one thread drawing in order keeps it.  The calling
thread merges the block drawn before and yields its chunks meanwhile;
numpy releases the GIL in the draws, sorts, gathers and writes, so the
two use two cores, and memory holds two blocks' draws, kept narrow (the
file's widths) for that.  Within a block the pulses holding a pair or a
single are found by drawing geometric gaps between hits, so the work
follows the number of events, not of pulses.  Every block builds each
category (pairs, singles, darks, per station) the same way, empty or
not, as one list of station-tagged parts, and ``RunStats`` counts them
by size.  The block's parts are then merged in time slabs of about
65,536 events, cut at shared time edges, and each slab is yielded as one
chunk; the settings of the unpaired detections, a stateless hash of their
pulse, are computed slab by slab on the merging thread.  A same-ns
repeat never straddles a cut, so the slabs join into the stream a
whole-block merge gives: the block fixes the stream, and the slab only
bounds the merge's memory.  A pulse that fills its period can put an
event on the next block's start; such events are merged with the next
block's, ahead of them, so the stream stays strictly in (timestamp,
station) order across blocks.

``GENERATOR_VERSION`` names the way a seed becomes bytes.  Version 1 drew
a uniform per pulse; version 2 draws the gaps.  The manifest records it,
and ``simulate`` refuses to replay a manifest of another version.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, asdict

import numpy as np

from .btag import EVENT_DTYPE, STATION_A, STATION_B, BtagWriter
from .errors import ConfigError, require_finite
from .models import PI, OutcomeModel, PairSampler, normalize_angle
from .streams import per_pulse_choice, substream

SPEED_OF_LIGHT_M_S = 299_792_458.0

#: standard CHSH settings menu: a=0, a'=pi/4, b=pi/8, b'=3pi/8, its pairs
#: in S order (a,b), (a,b'), (a',b), (a',b'); the CHSH estimators read them.
CHSH_MENU = (
    (0.0, PI / 8),
    (0.0, 3 * PI / 8),
    (PI / 4, PI / 8),
    (PI / 4, 3 * PI / 8),
)

#: version of the seed -> bytes mapping, recorded in every manifest.
GENERATOR_VERSION = 2

# most settings_menu entries: analyze's n^2 int16 table of cross-pulse
# settings takes 34 MB at this size, and 8.6 GB at the 65,536 a u16
# setting_index could name
_MAX_MENU = 4096

_MAX_PULSES = 2**32 - 1
_DEFAULT_CHUNK = 1 << 22
# events per merged slab, about: a block is merged in time slabs of this
# size, so the merge's sort and gather hold one slab, not the whole block
_SLAB_EVENTS = 1 << 16


@dataclass
class RunConfig:
    """Everything the generator needs; see README for the JSON schema."""

    seed: int
    station_separation_m: float = 20.0
    rep_rate_hz: float = 1.0e6
    pulse_duration_s: float | None = None  # default: 2L/c
    run_duration_s: float = 300.0
    detection_prob_per_pulse: float = 0.1
    coincidence_prob_per_pulse: float = 0.02
    dark_rate_hz: float = 100.0
    settings_menu: tuple = CHSH_MENU

    def __post_init__(self):
        self.settings_menu = tuple(
            (normalize_angle(a), normalize_angle(b)) for a, b in self.settings_menu
        )
        self.validate()

    def validate(self) -> None:
        if isinstance(self.seed, bool) or not isinstance(self.seed, int):
            raise ConfigError("seed must be an integer")
        for name in (
            "station_separation_m",
            "rep_rate_hz",
            "pulse_duration_s",
            "run_duration_s",
            "detection_prob_per_pulse",
            "coincidence_prob_per_pulse",
            "dark_rate_hz",
        ):
            value = getattr(self, name)
            if not (name == "pulse_duration_s" and value is None):
                require_finite(name, value)
        if self.station_separation_m < 0:
            raise ConfigError("station_separation_m must be >= 0")
        if self.rep_rate_hz <= 0:
            raise ConfigError("rep_rate_hz must be > 0")
        if self.run_duration_s < 0:
            raise ConfigError("run_duration_s must be >= 0")
        if not 0.0 <= self.detection_prob_per_pulse <= 0.2:
            raise ConfigError(
                "detection_prob_per_pulse must stay in [0, 0.2]: the pipeline "
                "assumes a sparse-detection regime"
            )
        if self.detection_prob_per_pulse > 0.1:
            warnings.warn(
                "detection_prob_per_pulse above 0.1 strains the sparse-detection "
                "assumption",
                stacklevel=2,
            )
        if not 0.0 <= self.coincidence_prob_per_pulse < 1.0:
            raise ConfigError("coincidence_prob_per_pulse must lie in [0, 1)")
        if self.dark_rate_hz < 0:
            raise ConfigError("dark_rate_hz must be >= 0")
        if not self.settings_menu:
            raise ConfigError("settings_menu must not be empty")
        if len(self.settings_menu) > _MAX_MENU:
            raise ConfigError(
                f"settings_menu has {len(self.settings_menu)} entries, more than "
                f"{_MAX_MENU}: analyze builds an n^2 table of cross-pulse settings "
                "for a menu of n entries"
            )
        if self.n_pulses > _MAX_PULSES:
            raise ConfigError("run too long: pulse index would overflow 32 bits")
        geo = pulse_geometry(self)
        if self.run_duration_s > 0 and geo.pulse_duration_s <= 0:
            raise ConfigError("pulse_duration_s must be positive to generate events")
        if geo.duty_cycle > 1.0 + 1e-12:
            raise ConfigError(
                f"duty cycle {geo.duty_cycle:.3f} > 1: pulses overlap"
            )

    @property
    def n_pulses(self) -> int:
        return int(round(self.run_duration_s * self.rep_rate_hz))

    def to_dict(self) -> dict:
        out = asdict(self)
        out["settings_menu"] = [list(pair) for pair in self.settings_menu]
        return out

    @staticmethod
    def from_dict(obj: dict) -> "RunConfig":
        known = {f for f in RunConfig.__dataclass_fields__}
        unknown = set(obj) - known
        if unknown:
            raise ConfigError(f"unknown run-config fields: {sorted(unknown)}")
        if "seed" not in obj:
            raise ConfigError("run config must provide a seed")
        kwargs = dict(obj)
        if "settings_menu" in kwargs:
            kwargs["settings_menu"] = _menu_from_list(kwargs["settings_menu"])
        return RunConfig(**kwargs)


def _menu_from_list(menu) -> tuple:
    """A settings menu given as a list of [alpha, beta] pairs of finite numbers."""
    if not isinstance(menu, (list, tuple)):
        raise ConfigError(f"settings_menu must be a list of [alpha, beta] pairs, got {menu!r}")
    for k, pair in enumerate(menu):
        if not isinstance(pair, (list, tuple)) or len(pair) != 2:
            raise ConfigError(f"settings_menu[{k}] must be an [alpha, beta] pair, got {pair!r}")
        for angle in pair:
            require_finite(f"settings_menu[{k}] angle", angle)
    return tuple(tuple(pair) for pair in menu)


@dataclass(frozen=True)
class PulseGeometry:
    pulse_duration_s: float
    rep_period_s: float
    duty_cycle: float
    light_time_s: float

    @property
    def pulse_duration_ns(self) -> int:
        return max(1, int(round(self.pulse_duration_s * 1e9)))


def pulse_geometry(config: RunConfig) -> PulseGeometry:
    """Pulse-train geometry; the default pulse length is 2L/c."""
    light_time = config.station_separation_m / SPEED_OF_LIGHT_M_S
    duration = config.pulse_duration_s
    if duration is None:
        duration = 2.0 * light_time
    if duration < 0:
        raise ConfigError("pulse_duration_s must be >= 0")
    rep_period = 1.0 / config.rep_rate_hz
    duty = duration * config.rep_rate_hz
    return PulseGeometry(
        pulse_duration_s=duration,
        rep_period_s=rep_period,
        duty_cycle=duty,
        light_time_s=light_time,
    )


def pulse_start_ns(pulse_indices, rep_rate_hz: float) -> np.ndarray:
    """Start timestamp (integer ns) of each pulse."""
    period_ns = 1e9 / rep_rate_hz
    return np.rint(np.asarray(pulse_indices, dtype=np.float64) * period_ns).astype(np.int64)


def pulse_index_of(times_ns: np.ndarray, rep_rate_hz: float) -> np.ndarray:
    """Pulse k with pulse_start_ns(k) <= t < pulse_start_ns(k + 1), per timestamp.

    Floor division by the period can land one pulse off where
    :func:`pulse_start_ns` rounded a boundary, so it is corrected against it.
    """
    t = np.asarray(times_ns, dtype=np.int64)
    k = np.floor(t / (1e9 / rep_rate_hz)).astype(np.int64)
    k -= pulse_start_ns(k, rep_rate_hz) > t
    k += pulse_start_ns(k + 1, rep_rate_hz) <= t
    return k


@dataclass
class RunStats:
    """Generation tallies; coincidence count is the headline number."""

    n_pulses: int = 0
    n_coincidence_pairs: int = 0
    n_singles_a: int = 0
    n_singles_b: int = 0
    n_darks_a: int = 0
    n_darks_b: int = 0
    n_events: int = 0
    n_collisions_dropped: int = 0

    def to_dict(self) -> dict:
        return asdict(self)


def _hit_offsets(rng: np.random.Generator, p: float, m: int) -> np.ndarray:
    """Sorted offsets in [0, m) of the pulses hit, each with probability p.

    Draws the geometric gaps between hits, not a uniform per pulse, in
    batches sized for the expected count until the m pulses are covered.
    A gap longer than the block is cut to m + 1, which still lands past it.
    Each batch is turned into offsets in place.
    """
    if p <= 0:
        return np.empty(0, dtype=np.int64)
    mean = m * p
    batch = int(mean + 4.0 * math.sqrt(mean)) + 16
    runs = []
    last = -1
    while last < m - 1:
        run = rng.geometric(p, batch)
        np.minimum(run, m + 1, out=run)
        np.cumsum(run, out=run)
        run += last
        runs.append(run)
        last = int(run[-1])
    hits = runs[0] if len(runs) == 1 else np.concatenate(runs)
    return hits[: np.searchsorted(hits, m)]


def _hit_pulses(rng: np.random.Generator, p: float, start: int, m: int) -> np.ndarray:
    """The pulses of block [start, start + m) hit with probability p, as uint32."""
    offsets = _hit_offsets(rng, p, m)
    offsets += start
    return offsets.astype(np.uint32)


def _merge(parts: list) -> tuple[np.ndarray, int]:
    """One block's events from its (station, t, pulse, port, setting) parts.

    Each station's parts come in priority order (coincidences, singles,
    darks).  One stable sort on (t, station) orders them all; a repeat of a
    key keeps its first, highest-priority record, and the repeats are
    returned as the number of dropped collisions.
    """
    key = np.concatenate([(t << 1) | station for station, t, *_ in parts])
    order = np.argsort(key, kind="stable")
    key = key[order]
    keep = np.ones(key.size, dtype=bool)
    keep[1:] = key[1:] != key[:-1]
    order = order[keep]
    key = key[keep]

    events = np.empty(key.size, dtype=EVENT_DTYPE)
    events["timestamp_ns"] = key >> 1
    events["station"] = key & 1
    for field, column in (("pulse_index", 2), ("port_bit", 3), ("setting_index", 4)):
        events[field] = np.concatenate([p[column] for p in parts])[order]
    return events, int(keep.size - key.size)


def _fair_bits(rng: np.random.Generator, n: int) -> np.ndarray:
    """The port bits of n detections without a partner, fair, from ``rng``."""
    return (rng.random(n) < 0.5).astype(np.uint8)


def _draw_block(
    config: RunConfig, sampler: PairSampler, block: int, start: int, stop: int
) -> list:
    """Every random draw of the block of pulses [start, stop).

    Returns its categories as one list of parts, each station's in priority
    order: coincidences as (station, t, pulse, port, setting), then singles
    and darks as (station, t, pulse, port).  An unpaired category's
    settings are hashed from its pulses slab by slab where the block is
    merged.  Each category is sorted by time, and each column but t has its
    BTAG width (pulse u32, port u8, setting u16).  The blocks of a run must
    be drawn in order, one at a time: the pattern scenarios' ``sampler``
    carries its position from block to block.
    """
    duration_ns = pulse_geometry(config).pulse_duration_ns
    rep_rate_hz = config.rep_rate_hz
    seed = config.seed
    m = stop - start

    rng = substream(seed, "coincidence", block)
    pulses = _hit_pulses(rng, config.coincidence_prob_per_pulse, start, m)
    t = pulse_start_ns(pulses, rep_rate_hz)
    within = rng.integers(0, duration_ns, pulses.size)
    settings = per_pulse_choice(seed, "settings", pulses, len(config.settings_menu))
    menu = np.array(config.settings_menu)
    bits_a, bits_b = sampler.sample(
        menu[settings, 0], menu[settings, 1], t * 1e-9, within, duration_ns, rng
    )
    t += within
    del within  # as large as the pairs, and not needed in the merge
    parts = [(STATION_A, t, pulses, bits_a, settings), (STATION_B, t, pulses, bits_b, settings)]

    for station, label in ((STATION_A, "singles-a"), (STATION_B, "singles-b")):
        rng = substream(seed, label, block)
        pulses = _hit_pulses(rng, config.detection_prob_per_pulse, start, m)
        t = pulse_start_ns(pulses, rep_rate_hz)
        t += rng.integers(0, duration_ns, pulses.size)
        parts.append((station, t, pulses, _fair_bits(rng, t.size)))

    rng = substream(seed, "dark", block)
    chunk_t0 = int(pulse_start_ns(start, rep_rate_hz))
    chunk_t1 = int(pulse_start_ns(stop, rep_rate_hz))
    mean_darks = config.dark_rate_hz * (chunk_t1 - chunk_t0) * 1e-9
    for station in (STATION_A, STATION_B):
        t = np.sort(rng.integers(chunk_t0, chunk_t1, int(rng.poisson(mean_darks))))
        pulses = pulse_index_of(t, rep_rate_hz).astype(np.uint32)
        parts.append((station, t, pulses, _fair_bits(rng, t.size)))
    return parts


def iter_event_chunks(
    config: RunConfig,
    model: OutcomeModel,
    stats: RunStats | None = None,
    chunk_pulses: int = _DEFAULT_CHUNK,
):
    """Yield merged, time-sorted event chunks covering the whole run.

    Each block of ``chunk_pulses`` pulses (at least 1, or a
    ``ConfigError``) draws from its own substreams, so the stream a seed
    gives depends on the block size.  A chunk is a time slab of a block:
    every event of a chunk is earlier in (timestamp, station) order than
    every event of the next, so concatenating chunks gives the global
    order, and the chunks of a block join into its whole-block merge, less
    the events at or after the next block's start, which the next block
    merges.  An empty slab is not yielded.

    From the first ``next()`` on, a one-thread executor draws the next
    block while this one is merged and its chunks are consumed.  Its
    thread is joined before the generator returns, raises or is closed,
    and the exception of a failed draw is raised here.
    """
    if chunk_pulses < 1:
        raise ConfigError(f"chunk_pulses must be >= 1, got {chunk_pulses}")
    # imported here: --version, which loads only the package, never pays for it
    from concurrent.futures import ThreadPoolExecutor

    seed = config.seed
    rep_rate_hz = config.rep_rate_hz
    n_pulses = config.n_pulses
    n_menu = len(config.settings_menu)
    sampler = PairSampler(model, seed)
    if stats is None:
        stats = RunStats()
    stats.n_pulses = n_pulses
    n_blocks = -(-n_pulses // chunk_pulses)
    # the last block's events at or after its end, for this block to merge
    held: list = []

    def draw(block: int):
        start = block * chunk_pulses
        stop = min(start + chunk_pulses, n_pulses)
        return draws.submit(_draw_block, config, sampler, block, start, stop)

    with ThreadPoolExecutor(1, thread_name_prefix="bellrm-draw") as draws:
        ahead = draw(0) if n_blocks else None
        for block in range(n_blocks):
            parts = ahead.result()
            ahead = draw(block + 1) if block + 1 < n_blocks else None
            start = block * chunk_pulses
            stop = min(start + chunk_pulses, n_pulses)
            chunk_t0 = int(pulse_start_ns(start, rep_rate_hz))
            chunk_t1 = int(pulse_start_ns(stop, rep_rate_hz))

            pairs, _, singles_a, singles_b, darks_a, darks_b = (t.size for _, t, *_ in parts)
            stats.n_coincidence_pairs += pairs
            stats.n_singles_a += singles_a
            stats.n_singles_b += singles_b
            stats.n_darks_a += darks_a
            stats.n_darks_b += darks_b

            # Every part is sorted by time, so shared time edges cut each one
            # into contiguous slabs, and a same-ns repeat falls in one slab.
            # A pulse that fills its whole period can put an event on chunk_t1
            # itself, where the next block starts: the events at or after
            # chunk_t1 are held out of this block and merged with the next
            # block's, ahead of them, so a repeat across the block edge keeps
            # the first event.  The last block keeps them all.
            parts = held + parts
            n_slabs = -(-sum(t.size for _, t, *_ in parts) // _SLAB_EVENTS)
            span = chunk_t1 - chunk_t0
            edges = np.array(
                [chunk_t0 + span * k // n_slabs for k in range(1, n_slabs)], dtype=np.int64
            )
            ends = [
                t.size if stop == n_pulses else int(np.searchsorted(t, chunk_t1))
                for _, t, *_ in parts
            ]
            # copies, so the held events do not keep this block's draws alive
            held = [
                (station, *(column[end:].copy() for column in columns))
                for (station, *columns), end in zip(parts, ends) if end < columns[0].size
            ]
            cuts = [[0, *np.searchsorted(t, edges), end] for (_, t, *_), end in zip(parts, ends)]
            for k in range(n_slabs):
                slabs = [
                    (station, *(column[cut[k] : cut[k + 1]] for column in columns))
                    for (station, *columns), cut in zip(parts, cuts)
                ]
                # an unpaired category's settings are hashed here, beside the next block's draws
                slabs = [
                    slab if len(slab) == 5
                    else (*slab, per_pulse_choice(seed, "settings", slab[2], n_menu))
                    for slab in slabs
                ]
                events, dropped = _merge(slabs)
                del slabs
                stats.n_collisions_dropped += dropped
                stats.n_events += events.size
                if events.size:
                    yield events
                del events  # not held while the next slab is merged
            # nor are this block's draws while the next one is merged
            del parts


def simulate_to_btag(config: RunConfig, model: OutcomeModel, path) -> RunStats:
    """Stream the run straight into a BTAG file, one time slab at a time.

    Memory holds one block's draws and one slab's merge, whatever the
    run's length; the file holds the chunks of :func:`iter_event_chunks`
    in order.
    """
    stats = RunStats()
    with BtagWriter(path) as writer:
        for chunk in iter_event_chunks(config, model, stats):
            writer.write(chunk)
            del chunk  # not held while the next slab is merged
    return stats
