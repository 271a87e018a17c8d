"""Agent micro-world wiring the whole protocol together.

Agents move through a bounded box (random waypoint) or replay a recorded
contact trace.  Device pairs inside radio range sample a log-distance
path-loss RSSI, estimate their separation, and append encrypted entries
to their ledgers when the estimate falls inside the tracking threshold.
Infection passes between agents inside the (smaller) infection range;
after the incubation period an agent is detected, quarantined, and - if
it carries the app - runs the full activation flow against the authority
servers, producing anonymous alert dispatches.

Everything the protocol cannot see (true pair distances, who infected
whom) is logged as ground truth, so false alerts and alert reach can be
measured exactly.
"""

from __future__ import annotations

import math
import warnings
from collections.abc import Callable, Iterable, Iterator
from dataclasses import dataclass, field, fields
from json.encoder import encode_basestring_ascii
from operator import itemgetter

import numpy as np

from .authority import DispatchServer, DoctorCredential, KeyIssuer
from .crypto import (
    SUPPORTED_KEY_BITS,
    Envelope,
    KeyPair,
    derive_seed,
    encode_contact,
    encrypt,
    generate_keypair,
    keyed_digest,
)
from .device import DeviceMode, DeviceState, EncounterEntry
from .messages import AlertLevel, AlertMessage, ScoredContact

__all__ = [
    "NonpositiveDistance",
    "EmptyLog",
    "OverBudget",
    "RadioModel",
    "WorldConfig",
    "Agent",
    "World",
    "EVENT_FIELDS",
    "DEVICE_FIELDS",
    "ENTRY_FIELDS",
    "NUMBER_FIELDS",
    "json_line_writer",
    "rssi_at_distance",
    "estimate_distance",
    "false_alert_rate",
    "global_ledger_view",
    "parse_contact_trace",
]


class NonpositiveDistance(Exception):
    """Path loss is undefined at or below zero distance."""


class EmptyLog(Exception):
    """No red notifications to compute a false-alert rate from."""


class OverBudget(ValueError):
    """A tick would hold more memory than the world's budget allows."""


@dataclass(frozen=True)
class RadioModel:
    """Log-distance path loss with optional Gaussian shadowing."""

    rssi_at_1m: float = -59.0
    path_loss_exponent: float = 2.0
    noise_sigma: float = 2.0
    max_radio_range: float = 10.0

    def __post_init__(self) -> None:
        for f in fields(self):  # NaN would pass every range check below
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.max_radio_range <= 0:
            raise ValueError("max_radio_range must be positive")


def rssi_at_distance(distance: float, model: RadioModel) -> float:
    """Noiseless received signal strength (dBm) at a true distance in meters."""
    if distance <= 0:
        raise NonpositiveDistance(f"distance must be positive, got {distance}")
    return model.rssi_at_1m - 10.0 * model.path_loss_exponent * math.log10(distance)


def estimate_distance(rssi: float, model: RadioModel) -> float:
    """Invert the noiseless path-loss model: meters from dBm."""
    return 10.0 ** ((model.rssi_at_1m - rssi) / (10.0 * model.path_loss_exponent))


@dataclass(frozen=True)
class WorldConfig:
    agent_count: int = 200
    box_size: float = 50.0
    infection_range: float = 2.5
    infection_prob_per_second: float = 0.01
    tracking_threshold: float = 3.0
    tick_seconds: float = 10.0
    app_user_fraction: float = 0.8
    incubation_seconds: float = 3600.0
    horizon_seconds: float = 9000.0
    initial_infected: int = 10
    speed_min: float = 0.1
    speed_max: float = 0.7
    dispatch_capacity: int | None = None
    yellow_enabled: bool = False
    key_bits: int = 2048
    radio: RadioModel = field(default_factory=RadioModel)

    def __post_init__(self) -> None:
        for f in fields(self):  # NaN would pass every range check below
            if f.type == "float" and not math.isfinite(getattr(self, f.name)):
                raise ValueError(f"{f.name} must be finite")
        if self.agent_count < 2:
            raise ValueError("agent_count must be at least 2")
        if self.box_size <= 0:
            raise ValueError("box_size must be positive")
        if self.infection_range <= 0:
            raise ValueError("infection_range must be positive")
        if not 0.0 <= self.infection_prob_per_second <= 1.0:
            raise ValueError("infection_prob_per_second must be within [0, 1]")
        if self.tracking_threshold <= 0:
            raise ValueError("tracking_threshold must be positive")
        if self.tick_seconds <= 0:
            raise ValueError("tick_seconds must be positive")
        if not 0.0 <= self.app_user_fraction <= 1.0:
            raise ValueError("app_user_fraction must be within [0, 1]")
        if self.incubation_seconds <= 0:
            raise ValueError("incubation_seconds must be positive")
        if self.horizon_seconds <= 0:
            raise ValueError("horizon_seconds must be positive")
        if not 1 <= self.initial_infected <= self.agent_count:
            raise ValueError("initial_infected must be within [1, agent_count]")
        if self.speed_min < 0 or self.speed_max < self.speed_min:
            raise ValueError("need 0 <= speed_min <= speed_max")
        if self.dispatch_capacity is not None and self.dispatch_capacity < 0:
            raise ValueError("dispatch_capacity must be nonnegative")
        if self.key_bits not in SUPPORTED_KEY_BITS:
            raise ValueError(f"key_bits must be one of {SUPPORTED_KEY_BITS}")
        if not (
            self.infection_range
            <= self.tracking_threshold
            <= self.radio.max_radio_range
        ):
            # legal on purpose: mismatched ranges are the false-alert experiment
            warnings.warn(
                "ranges not ordered as infection <= tracking <= radio; "
                "expect false alerts or missed contacts",
                stacklevel=2,
            )


# the health codes the world stores
_SUSCEPTIBLE, _INFECTED, _DETECTED = range(3)

# The fields of each event type the world logs, sorted; every event also
# has its "type".  The CLI writes each events.jsonl and bus_trace.jsonl
# line from this table.
EVENT_FIELDS: dict[str, tuple[str, ...]] = {
    "encounter": (
        "end", "mean_estimated_distance", "min_true_distance", "peer", "recorder", "start",
    ),
    "infection": ("distance", "source", "t", "target"),
    "detected": ("agent", "t"),
    "key_request": ("doctor", "t", "user_id"),
    "key_issued": ("t", "token", "user_id"),
    "upload": (
        "decrypt_failures", "level", "n_sent", "n_waitlisted", "origin_tag",
        "retention_window", "t", "token", "uploader", "user_id",
    ),
    "dispatch": ("level", "origin_tag", "recipient", "score", "status", "t", "uploader"),
    "notify": ("level", "origin_tag", "recipient", "t", "uploader"),
    "waitlist_release": ("origin_tag", "released", "t"),
}
# the fields of a device_snapshot record and of each of its ledger entries,
# sorted
DEVICE_FIELDS = ("entries", "mode", "own_contact", "tested_positive", "user_id", "yellow_enabled")
ENTRY_FIELDS = (
    "ciphertext", "duration", "estimated_distance", "key_tag", "mean_rssi", "started_at",
)
# The fields whose value is always a Python int or a finite Python float,
# so that its repr is its JSON text.  A notification's `uploader` is None
# when no upload carries its origin tag, so it is not one of them.
NUMBER_FIELDS = frozenset({
    "agent", "decrypt_failures", "distance", "duration", "end", "estimated_distance",
    "mean_estimated_distance", "mean_rssi", "min_true_distance", "n_sent", "n_waitlisted",
    "peer", "recipient", "recorder", "released", "retention_window", "score", "source",
    "start", "started_at", "t", "target",
})

# the JSON text of every other value the world logs, as json.dumps writes
# it; any other type, such as a numpy scalar, is a KeyError here
_JSON_TEXT = {
    str: encode_basestring_ascii,
    int: int.__repr__,
    float: float.__repr__,
    bool: lambda value: "true" if value else "false",
    type(None): lambda value: "null",
}


def _json_text(value) -> str:
    return _JSON_TEXT[value.__class__](value)


def _json_template(keys: Iterable[str], fixed: dict[str, str]) -> str:
    """A %-format of one JSON object with `keys` in order, as json.dumps
    writes it: each `fixed` key's string value written in, a %r slot for
    each of NUMBER_FIELDS and a %s slot, for its JSON text, for each other."""
    members = (
        encode_basestring_ascii(key) + ": "
        + (
            encode_basestring_ascii(fixed[key]) if key in fixed
            else "%r" if key in NUMBER_FIELDS
            else "%s"
        )
        for key in keys
    )
    return "{" + ", ".join(members) + "}"


def json_line_writer(fields: tuple[str, ...], **fixed: str) -> Callable[[dict], str]:
    """A function that writes a record holding `fields` as
    json.dumps(record, sort_keys=True) does, with each `fixed` key and its
    string value added to the record."""
    keys = sorted([*fields, *fixed])
    template = _json_template(keys, fixed)
    slots = [key for key in keys if key not in fixed]
    get = itemgetter(*slots) if len(slots) > 1 else lambda record: (record[slots[0]],)
    texts = [i for i, key in enumerate(slots) if key not in NUMBER_FIELDS]
    if not texts:
        return lambda record: template % get(record)

    def write(record: dict) -> str:
        values = list(get(record))
        for i in texts:
            values[i] = _json_text(values[i])
        return template % tuple(values)

    return write


class Agent:
    """One agent's id, its device (None without the app) and a reference
    to the world's position array, never to the world.  `position` is a
    view of the agent's row (None in a replayed trace, where agents have
    no position)."""

    __slots__ = ("id", "device", "_positions")

    def __init__(self, id, device, positions) -> None:
        self.id = id
        self.device = device
        self._positions = positions

    @property
    def position(self) -> np.ndarray | None:
        return None if self._positions is None else self._positions[self.id]


# the lower agent index, the higher one and the true distance of each pair
_Contacts = tuple[np.ndarray, np.ndarray, np.ndarray]

# A tick may hold 1 GiB.  A crowd that would need more is refused with
# `OverBudget`, counted before anything sized by it exists.  The contact
# search holds at its peak 89 bytes per candidate pair (tracemalloc over a
# tick of 1,000 agents in one cell, every pair in range: the np.take rows,
# their difference, the distances and the range test), so the limit allows
# 96: 11,184,810 pairs, about 4,700 agents in one cell.  Sensing holds, per
# pair of app users in radio range, the arrays of both directions and, for
# each direction it records, the ledger entry, the open contact and their
# keys: a whole tick of app users in one cell, every pair recorded, peaked
# at 1,020-1,200 bytes per pair (tracemalloc, 120-800 agents), so the limit
# allows 1,536: 699,050 pairs, about 1,180 app users in one cell
_TICK_BUDGET_BYTES = 1 << 30
_BYTES_PER_CANDIDATE = 96
_MAX_CANDIDATE_PAIRS = _TICK_BUDGET_BYTES // _BYTES_PER_CANDIDATE
_BYTES_PER_SENSED_PAIR = 1_536
_MAX_SENSED_PAIRS = _TICK_BUDGET_BYTES // _BYTES_PER_SENSED_PAIR


def _adjacency_ranks(cells: np.ndarray) -> np.ndarray:
    """Renumber integer cell columns from 0, keeping neighbouring columns
    adjacent and collapsing each empty run between them to one column."""
    values, inverse = np.unique(cells, return_inverse=True)
    steps = np.minimum(np.diff(values), 2.0)
    return np.concatenate(([0.0], np.cumsum(steps))).astype(np.int64)[inverse]


def _interval_fault(a, b, start, end, distance) -> str | None:
    """Why a contact interval cannot be replayed, or None: it needs two distinct
    nonnegative ids, a finite nonempty span and a finite positive distance."""
    if a < 0 or b < 0:
        return "negative agent id"
    if not all(math.isfinite(v) for v in (start, end, distance)):
        return "non-finite time or distance"
    if a == b or start >= end or distance <= 0:
        return "inconsistent interval"
    return None


def parse_contact_trace(text: str) -> list[tuple[int, int, float, float, float]]:
    """Parse a replayed contact trace.

    One interval per line: agent_a,agent_b,start_s,end_s,true_distance_m.
    Blank lines and '#' comments are skipped.  Each interval must pass
    the rule `World` applies to a trace; a bad line raises ValueError
    naming its line number.
    """
    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ValueError(f"trace line {lineno}: expected 5 fields, got {len(parts)}")
        try:
            a, b = int(parts[0]), int(parts[1])
            start, end, distance = float(parts[2]), float(parts[3]), float(parts[4])
        except ValueError as exc:
            raise ValueError(f"trace line {lineno}: {exc}") from None
        fault = _interval_fault(a, b, start, end, distance)
        if fault:
            raise ValueError(f"trace line {lineno}: {fault}")
        intervals.append((min(a, b), max(a, b), start, end, distance))
    return intervals


class World:
    """Deterministic tick-driven micro-world.

    Each concern draws from its own generator, seeded by
    derive_seed(seed, k): k=0 placement and motion, k=1 the keypair, k=2
    adoption and the initial infections, k=3 sensing noise, k=4
    transmission.  A draw in one phase shifts no other phase's stream, so
    identical (config, seed, trace) inputs replay identical event logs,
    and a replayed trace of a run's own contacts, which draws no motion,
    reproduces that run.

    Quarantine is strict for transmission and motion only: a detected agent
    stops moving and infects no one, but still takes part in the contact
    search and in sensing, so app users near it keep recording encounters
    with it.

    Tick convention: each tick transmits from the agents infectious when it
    starts, then detects every case infected at least incubation_seconds
    earlier.  So an initial case, infected at t = 0, transmits on the tick
    it is infected on, and a later case, infected during some tick's
    transmission, first transmits on the next tick.  Both transmit on
    their detection tick.  At the defaults (3,600 s, 10 s ticks) an
    initial case has 361 infectious ticks and every other case 360; the
    outbreak model gives initial cases the same window as the others.

    The world owns the agents' state as arrays indexed by agent id:
    positions and waypoints ((n, 2), None in a replayed trace), speeds,
    health codes (`_SUSCEPTIBLE`, `_INFECTED`, `_DETECTED`) and infection
    times (NaN before infection).  Every tick phase works on those arrays;
    `agents` holds one `Agent` per id, its device plus a view of its
    position row.

    A replayed trace is refused at construction unless it names agents of
    this world, passes `parse_contact_trace`'s interval rule and has no
    overlapping intervals of a pair; a replay is a world without positions.
    """

    def __init__(
        self,
        config: WorldConfig,
        seed: int,
        keypair: KeyPair | None = None,
        trace: list[tuple[int, int, float, float, float]] | None = None,
    ) -> None:
        self.config = config
        seed &= 0xFFFFFFFFFFFFFFFF  # its low 64 bits, as derive_seed reads it
        self._motion, population, self._sensing, self._transmission = (
            np.random.Generator(np.random.PCG64(derive_seed(seed, k))) for k in (0, 2, 3, 4)
        )
        self.keypair = keypair or generate_keypair(derive_seed(seed, 1), config.key_bits)
        if trace is not None:
            for index, interval in enumerate(trace):
                for agent in interval[:2]:
                    if not 0 <= agent < config.agent_count:
                        raise ValueError(
                            f"trace names agent {agent}, config has {config.agent_count}"
                        )
                fault = _interval_fault(*interval)
                if fault:
                    raise ValueError(f"trace interval {index}: {fault}")
            # each pair as (lower, higher), the order parse_contact_trace stores
            trace = [(min(a, b), max(a, b), start, end, d) for a, b, start, end, d in trace]
            # a pair live twice in one tick would be sensed and exposed twice
            spans = sorted(interval[:4] for interval in trace)
            for (a, b, _, end), (c, d, start, _) in zip(spans, spans[1:]):
                if (a, b) == (c, d) and start < end:
                    raise ValueError(f"trace has overlapping intervals for agents {a} and {b}")
            # replayed in one sweep: the intervals in range, popped as they begin
            reach = config.radio.max_radio_range
            in_range = (iv for iv in trace if iv[4] <= reach)
            self._upcoming = sorted(in_range, key=lambda iv: iv[2], reverse=True)
            self._live: dict[tuple[int, int], tuple[float, float]] = {}  # (a, b) -> (end, d)
        self.t = 0.0
        self.last_tick_t: float | None = None  # the t at which tick() last ran
        self.events: list[dict] = []

        self.issuer = KeyIssuer(secret=keyed_digest(seed, "issuer-secret"))
        # the server holds a closure over the outbox, not a bound method,
        # so no reference cycle keeps a finished world alive until a
        # full garbage collection
        self._outbox: list[tuple[str, AlertMessage]] = []
        outbox = self._outbox
        self.dispatch_server = DispatchServer(
            keypair=self.keypair,
            issuer=self.issuer,
            secret=keyed_digest(seed, "dispatch-secret"),
            notify=lambda contact, message: outbox.append((contact, message)),
            capacity=config.dispatch_capacity,
            waitlist_ttl=config.incubation_seconds,
        )
        self.doctor = DoctorCredential(doctor_id="doctor-0001", certified=True)

        n = config.agent_count
        if trace is None:
            self._positions = self._motion.random((n, 2)) * config.box_size
            self._waypoints = self._motion.random((n, 2)) * config.box_size
            self._speeds = self._motion.uniform(config.speed_min, config.speed_max, n)
        else:
            self._positions = self._waypoints = self._speeds = None
        has_app = population.random(n) < config.app_user_fraction
        self._has_app = has_app
        seeds = population.choice(n, size=config.initial_infected, replace=False)
        self._health = np.full(n, _SUSCEPTIBLE, dtype=np.int8)
        self._health[seeds] = _INFECTED
        self._infected_at = np.full(n, np.nan)
        self._infected_at[seeds] = 0.0

        # short synthetic numbers under small (test-scale) moduli
        wide = self.keypair.public.modulus.bit_length() >= 64
        if not wide and n > 89999:
            raise ValueError("test-scale keys support at most 89999 agents")

        self.agents: list[Agent] = []
        self._contact_to_agent: dict[str, int] = {}
        self._envelope_of: dict[int, Envelope] = {}
        # ground truth for the dispatch log; the server never sees it
        self._agent_of_ciphertext: dict[int, int] = {}
        for i in range(n):
            device = None
            if has_app[i]:
                contact = f"+3933{i:07d}" if wide else f"+{10000 + i}"
                device = DeviceState(
                    user_id=f"user-{i:04d}",
                    own_contact=contact,
                    retention_window=config.incubation_seconds,
                    tracking_threshold=config.tracking_threshold,
                    yellow_enabled=config.yellow_enabled,
                )
                self._contact_to_agent[contact] = i
                self._envelope_of[i] = encrypt(
                    self.keypair.public, encode_contact(contact)
                )
                self._agent_of_ciphertext[self._envelope_of[i].ciphertext] = i
            self.agents.append(Agent(i, device, self._positions))

        # (recorder, peer) -> [entry, ticks, rssi_sum, min_true_distance]
        self._open: dict[tuple[int, int], list] = {}
        self._uploads_by_tag: dict[str, int] = {}
        # what summary() reports, counted as events are logged
        self._counts = dict.fromkeys(EVENT_FIELDS, 0)
        # (lower, higher, start) of each encounter only one direction has logged
        self._one_way: set[tuple[int, int, float]] = set()

    # -- event plumbing -----------------------------------------------------

    def _log(self, **event) -> None:
        self.events.append(event)
        self._counts[event["type"]] += 1

    # -- per-tick phases ----------------------------------------------------

    def _move(self) -> None:
        """Advance every agent that is not detected by speed * tick of
        path, leg by leg: each round, the agents that reach their waypoint
        draw their next ones in one batch and walk on with what is left."""
        positions, waypoints = self._positions, self._waypoints
        left = np.where(self._health == _DETECTED, 0.0, self._speeds * self.config.tick_seconds)
        walking = np.flatnonzero(left > 1e-12)
        while len(walking):
            leg = waypoints[walking] - positions[walking]
            gap = np.hypot(leg[:, 0], leg[:, 1])
            reach = gap <= left[walking]
            short = walking[~reach]
            positions[short] += leg[~reach] * (left[short] / gap[~reach])[:, None]
            walking = walking[reach]
            left[walking] -= gap[reach]
            positions[walking] = waypoints[walking]
            waypoints[walking] = self._motion.random((len(walking), 2)) * self.config.box_size
            walking = walking[left[walking] > 1e-12]

    def _contacts(self) -> _Contacts:
        """Pairs in radio range this tick, as three arrays: the lower and
        the higher agent index and the true distance, in (i, j) order."""
        if self._positions is None:  # a replay
            # admit the intervals that have begun and drop those that have
            # ended: t never decreases, and a pair is live once at a time
            upcoming, live = self._upcoming, self._live
            while upcoming and upcoming[-1][2] <= self.t:
                a, b, _, end, d = upcoming.pop()
                live[a, b] = (end, d)
            for pair in [pair for pair, (end, _) in live.items() if end <= self.t]:
                del live[pair]
            pairs = sorted(live)
            first, second = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
            return first, second, np.array([live[pair][1] for pair in pairs], dtype=float)
        positions = self._positions
        first, second = self._candidate_pairs(positions)
        # np.take and one addition per pair: several times faster than row
        # indexing and a sum over rows of two, with the same results
        deltas = np.take(positions, first, axis=0) - np.take(positions, second, axis=0)
        dist = np.sqrt(deltas[:, 0] ** 2 + deltas[:, 1] ** 2)
        near = dist <= self.config.radio.max_radio_range
        a, b, dist = first[near], second[near], dist[near]
        first, second = np.minimum(a, b), np.maximum(a, b)
        order = np.argsort(first * len(positions) + second)
        return first[order], second[order], dist[order]

    def _candidate_pairs(self, positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Index pairs of agents in the same or adjacent grid cells, each
        unordered pair once, in no particular order.

        A cell list (Allen & Tildesley, Computer Simulation of Liquids,
        1987, sec. 5.3).  Cells are squares a hair wider than the radio
        range and np.floor_divide bins exactly, so every pair whose computed
        distance passes the range test lies in adjacent cells despite
        rounding.  Each axis is renumbered over its occupied columns, so
        the work is O(agents + pairs) whatever the size of the box.  With
        the agents sorted by cell key, an agent's partners ahead of it are
        two runs of slots: the rest of its cell and the cell above it
        (keys up to key + 1), and the three cells of the next column (keys
        key + width - 1 to key + width + 1).
        """
        side = self.config.radio.max_radio_range * (1.0 + 1e-12)
        cells = np.floor_divide(positions, side)
        column = _adjacency_ranks(cells[:, 0])
        row = _adjacency_ranks(cells[:, 1])
        width = int(row.max()) + 2  # (x, width - 1) is never occupied
        key = column * width + row
        by_cell = np.argsort(key, kind="stable")
        key = key[by_cell]
        starts = np.concatenate(
            (np.arange(1, len(key) + 1), np.searchsorted(key, key + width - 1))
        )
        lengths = np.searchsorted(key, np.concatenate((key + 2, key + width + 2))) - starts
        total = int(lengths.sum())
        if total > _MAX_CANDIDATE_PAIRS:
            cfg = self.config
            raise OverBudget(
                f"contact search would test {total:,} candidate pairs in one tick, "
                f"above the limit of {_MAX_CANDIDATE_PAIRS:,}: "
                f"agent_count={cfg.agent_count}, box_size={cfg.box_size}, "
                f"max_radio_range={cfg.radio.max_radio_range}; lower the density "
                "or the radio range"
            )
        # candidate i lies in run r: it pairs r's agent with the slot
        # starts[r] + i - (the total length of the runs before r)
        shift = np.repeat(starts - (np.cumsum(lengths) - lengths), lengths)
        return np.repeat(np.tile(by_cell, 2), lengths), by_cell[shift + np.arange(total)]

    def _sense(self, contacts: _Contacts) -> None:
        """Sample the RSSI both ways across every pair of app users and
        record each direction whose estimate is inside the tracking
        threshold.

        The result is exactly that of one scalar rssi_at_distance(d, radio)
        plus sensing.normal(0, sigma) per direction, in recorder/peer order
        (a, b) then (b, a), on the world's sensing stream:
        - one batched normal(0, sigma, size=2m) call yields the same
          numbers and the same generator state as 2m scalar calls;
        - numpy's log10 and power take SIMD paths chosen at run time for
          the CPU, whose results may differ from the scalar math, and from
          each other, in the last bits; so the vectorised estimate only
          drops directions beyond the threshold by a relative margin of
          1e-9, far wider than that difference;
        - each remaining direction recomputes its RSSI and estimate with
          the scalar functions and decides against the threshold as a
          scalar loop would, so outputs are identical on every CPU.
        """
        cfg = self.config
        radio = cfg.radio
        dt = cfg.tick_seconds
        first, second, dist = contacts
        users = self._has_app[first] & self._has_app[second]
        pairs = int(np.count_nonzero(users))
        if pairs > _MAX_SENSED_PAIRS:
            raise OverBudget(
                f"sensing would sample {pairs:,} pairs of app users in one tick, "
                f"above the limit of {_MAX_SENSED_PAIRS:,}: "
                f"agent_count={cfg.agent_count}, box_size={cfg.box_size}, "
                f"app_user_fraction={cfg.app_user_fraction}, "
                f"max_radio_range={radio.max_radio_range}; lower the density, "
                "the app adoption or the radio range"
            )
        first, second, dist = first[users], second[users], dist[users]
        recorders = np.column_stack([first, second]).ravel()
        peers = np.column_stack([second, first]).ravel()
        distances = np.repeat(dist, 2)
        if radio.noise_sigma > 0:
            noise = self._sensing.normal(0.0, radio.noise_sigma, size=len(distances))
        else:
            noise = np.zeros(len(distances))
        with np.errstate(divide="ignore"):  # a zero distance raises below
            rough_rssi = (
                radio.rssi_at_1m
                - 10.0 * radio.path_loss_exponent * np.log10(distances)
                + noise
            )
        rough = 10.0 ** (
            (radio.rssi_at_1m - rough_rssi) / (10.0 * radio.path_loss_exponent)
        )
        maybe = np.flatnonzero(rough <= cfg.tracking_threshold * (1.0 + 1e-9))
        agents, envelope_of, open_contacts = self.agents, self._envelope_of, self._open
        touched: set[tuple[int, int]] = set()
        for recorder, peer, true_d, shadowing in zip(
            recorders[maybe].tolist(),
            peers[maybe].tolist(),
            distances[maybe].tolist(),
            noise[maybe].tolist(),
        ):
            rssi = rssi_at_distance(true_d, radio) + shadowing
            est = estimate_distance(rssi, radio)
            if est > cfg.tracking_threshold:
                continue
            key = (recorder, peer)
            touched.add(key)
            held = open_contacts.get(key)
            if held is None:
                # through the device instance, where a caller may wrap it
                entry = agents[recorder].device.record_encounter(
                    envelope_of[peer], self.t, dt, rssi, est
                )
                open_contacts[key] = [entry, 1, rssi, true_d]
            else:
                entry = held[0]
                held[1] += 1
                held[2] += rssi
                held[3] = min(held[3], true_d)
                entry.duration += dt
                entry.mean_rssi = held[2] / held[1]
                entry.estimated_distance = estimate_distance(entry.mean_rssi, radio)
        # a tick without contact closes the encounter
        for key in sorted(set(open_contacts) - touched):
            self._close_contact(key)

    def _close_contact(self, key: tuple[int, int]) -> None:
        entry, _, _, min_true_distance = self._open.pop(key)
        recorder, peer = key
        start = entry.started_at
        self.events.append({
            "type": "encounter",
            "recorder": recorder,
            "peer": peer,
            "start": start,
            "end": entry.ended_at,
            "min_true_distance": min_true_distance,
            "mean_estimated_distance": entry.estimated_distance,
        })
        self._counts["encounter"] += 1
        # (recorder, peer, start) is unique, so the pair's key is held only
        # until its second direction closes
        pair = (recorder, peer, start) if recorder < peer else (peer, recorder, start)
        if pair in self._one_way:
            self._one_way.remove(pair)
        else:
            self._one_way.add(pair)

    def _transmit(self, contacts: _Contacts) -> None:
        """Draw one uniform per pair that exposes a susceptible agent to an
        infectious one; each target is infected by its first successful
        exposure in pair order."""
        cfg = self.config
        p_tick = 1.0 - (1.0 - cfg.infection_prob_per_second) ** cfg.tick_seconds
        infectious = self._health == _INFECTED
        susceptible = self._health == _SUSCEPTIBLE
        first, second, dist = contacts
        forward = infectious[first] & susceptible[second]
        backward = infectious[second] & susceptible[first]
        hit = np.flatnonzero((dist <= cfg.infection_range) & (forward | backward))
        hit = hit[self._transmission.random(len(hit)) < p_tick]
        source = np.where(forward[hit], first[hit], second[hit])
        target = np.where(forward[hit], second[hit], first[hit])
        firsts = np.sort(np.unique(target, return_index=True)[1])
        for i in firsts.tolist():
            self._health[target[i]] = _INFECTED
            self._infected_at[target[i]] = self.t
            self._log(
                type="infection", t=self.t, source=int(source[i]), target=int(target[i]),
                distance=float(dist[hit[i]]),
            )

    def _detect_and_alert(self) -> None:
        due = (self._health == _INFECTED) & (
            self.t - self._infected_at >= self.config.incubation_seconds
        )
        for i in np.flatnonzero(due).tolist():
            self._health[i] = _DETECTED
            self._log(type="detected", t=self.t, agent=i)
            agent = self.agents[i]
            if agent.device is not None:
                self._run_activation(agent)

    def _run_activation(self, agent: Agent) -> None:
        device = agent.device
        self._log(
            type="key_request", t=self.t, doctor=self.doctor.doctor_id,
            user_id=device.user_id,
        )
        key = self.issuer.issue_activation_key(self.doctor, device.user_id)
        self._log(type="key_issued", t=self.t, user_id=device.user_id, token=key.token)
        result = device.activate_alert_mode(key.token, self.dispatch_server, now=self.t)
        self._record_and_deliver(agent.id, result, token=key.token)

    def _record_and_deliver(self, uploader_id, result, token):
        self._uploads_by_tag[result.origin_tag] = uploader_id
        self._log(
            type="upload",
            t=self.t,
            uploader=uploader_id,
            user_id=self.agents[uploader_id].device.user_id,
            origin_tag=result.origin_tag,
            level=result.level.value,
            token=token,
            n_sent=len(result.sent),
            n_waitlisted=len(result.waitlisted),
            decrypt_failures=result.decrypt_failures,
            retention_window=self.config.incubation_seconds,
        )
        for status, contacts in (("sent", result.sent), ("waitlisted", result.waitlisted)):
            for contact in contacts:
                self._log(
                    type="dispatch",
                    t=self.t,
                    uploader=uploader_id,
                    recipient=self._agent_of_ciphertext[contact.envelope.ciphertext],
                    level=result.level.value,
                    score=contact.score,
                    status=status,
                    origin_tag=result.origin_tag,
                )
        self._deliver_outbox()

    def _deliver_outbox(self) -> None:
        """Deliver every queued notification, then run the yellow fan-out
        requests they produced, in delivery order.  Only red alerts produce
        requests, so the yellow notifications delivered in turn request none."""
        requests: list[tuple[int, str, list[ScoredContact]]] = []
        pending = self._outbox[:]
        self._outbox.clear()
        for contact, message in pending:
            recipient_id = self._contact_to_agent[contact]
            uploader_id = self._uploads_by_tag.get(message.origin_tag)
            self._log(
                type="notify",
                t=self.t,
                level=message.level.value,
                recipient=recipient_id,
                uploader=uploader_id,
                origin_tag=message.origin_tag,
            )
            contacts = self.agents[recipient_id].device.handle_notification(
                message, now=self.t
            )
            if contacts is not None:
                requests.append((recipient_id, message.origin_tag, contacts))
        for requester_id, red_origin_tag, contacts in requests:
            result = self.dispatch_server.process_yellow_dispatch(
                red_origin_tag=red_origin_tag, scored_contacts=contacts, now=self.t
            )
            self._record_and_deliver(requester_id, result, token="")

    # -- main loop ------------------------------------------------------------

    def tick(self) -> None:
        self.last_tick_t = self.t
        if self._positions is not None:
            self._move()
        contacts = self._contacts()
        self._sense(contacts)
        self._transmit(contacts)
        self._detect_and_alert()
        self.dispatch_server.purge_expired_waitlists(self.t)
        self.t += self.config.tick_seconds

    def run(self) -> None:
        """Tick through the configured horizon, then flush open encounters."""
        steps = int(math.ceil(self.config.horizon_seconds / self.config.tick_seconds))
        for _ in range(steps):
            self.tick()
        self.flush_open_encounters()

    def flush_open_encounters(self) -> None:
        for key in sorted(self._open):
            self._close_contact(key)

    def release_waitlist(self, origin_tag: str, additional_capacity: int) -> int:
        """Promote waitlisted recipients of an earlier upload and deliver."""
        promoted = self.dispatch_server.release_waitlist(
            origin_tag, additional_capacity, now=self.t
        )
        self._log(
            type="waitlist_release", t=self.t, origin_tag=origin_tag,
            released=len(promoted),
        )
        self._deliver_outbox()
        return len(promoted)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        """Counts of what the world has logged, kept as it logs them, so
        they do not read `events`.  An encounter is asymmetric when one
        agent alone recorded it."""
        counts = self._counts
        return {
            "agents": self.config.agent_count,
            "app_users": int(self._has_app.sum()),
            "infections": counts["infection"],
            "detected": counts["detected"],
            "encounters": counts["encounter"],
            "asymmetric_encounters": len(self._one_way),
            "uploads": counts["upload"],
            "notifications": counts["notify"],
        }

    def _ledger(self, device: DeviceState) -> list[EncounterEntry]:
        """A device's ledger, purged at the last tick's time.

        Devices purge their ledgers only when they read them, so expired
        entries wait there until then.  Every later read purges at a time
        no earlier, so purging here changes nothing the world does next.
        """
        if self.last_tick_t is not None:
            device.purge_expired(self.last_tick_t)
        return device.ledger.entries

    @staticmethod
    def _device_scalars(device: DeviceState) -> dict:
        """A device's state record without its ledger entries."""
        return {
            "user_id": device.user_id,
            "own_contact": device.own_contact,
            "mode": device.mode.value,
            "tested_positive": device.mode is DeviceMode.ALERT,
            "yellow_enabled": device.yellow_enabled,
        }

    def device_snapshot(self, device: DeviceState) -> dict:
        """One device's state record (the fixture/state-file schema)."""
        record = self._device_scalars(device)
        record["entries"] = [
            {
                "key_tag": e.peer_envelope.key_tag,
                "ciphertext": str(e.peer_envelope.ciphertext),
                "started_at": e.started_at,
                "duration": e.duration,
                "mean_rssi": e.mean_rssi,
                "estimated_distance": e.estimated_distance,
            }
            for e in self._ledger(device)
        ]
        return record

    def device_snapshots(self) -> list[dict]:
        """Every app user's state record, in agent order."""
        return [self.device_snapshot(a.device) for a in self.agents if a.device is not None]

    def device_lines(self) -> Iterator[str]:
        """Every app user's state record as its devices.jsonl line, in agent
        order: json.dumps(snapshot, sort_keys=True) of `device_snapshot`,
        with each ciphertext's decimal text made once (a 2048-bit one has
        617 digits)."""
        device_format = _json_template(DEVICE_FIELDS, {})
        entry_format = _json_template(ENTRY_FIELDS, {})
        ciphertexts: dict[int, str] = {}
        for agent in self.agents:
            device = agent.device
            if device is None:
                continue
            entries = []
            for e in self._ledger(device):
                envelope = e.peer_envelope
                ciphertext = ciphertexts.get(envelope.ciphertext)
                if ciphertext is None:
                    ciphertext = encode_basestring_ascii(str(envelope.ciphertext))
                    ciphertexts[envelope.ciphertext] = ciphertext
                entries.append(entry_format % (  # in ENTRY_FIELDS order
                    ciphertext, e.duration, e.estimated_distance,
                    encode_basestring_ascii(envelope.key_tag), e.mean_rssi, e.started_at,
                ))
            scalars = self._device_scalars(device)
            yield device_format % (  # "entries" sorts first
                "[" + ", ".join(entries) + "]",
                *[_json_text(scalars[key]) for key in DEVICE_FIELDS[1:]],
            )


def global_ledger_view(world: World) -> dict[str, list[EncounterEntry]]:
    """Union of every device's ledger, keyed by owner: the distributed,
    fully encrypted database the deployment amounts to."""
    view: dict[str, list[EncounterEntry]] = {}
    for agent in world.agents:
        if agent.device is not None:
            view[agent.device.user_id] = world._ledger(agent.device)
    return view


def false_alert_rate(log: list[dict], infection_range: float) -> float:
    """Fraction of red notifications backed only by out-of-range contact.

    A notification counts as false when every in-window encounter between
    the uploader and the recipient happened at a true distance beyond the
    infection range.  Needs the world's ground-truth log (encounters must
    be flushed, e.g. after World.run()).
    """
    uploads: dict[str, dict] = {}
    reds: list[dict] = []
    for event in log:
        if event["type"] == "upload":
            uploads[event["origin_tag"]] = event
        elif event["type"] == "notify" and event["level"] == AlertLevel.RED.value:
            reds.append(event)
    if not reds:
        raise EmptyLog("no red notifications in the log")
    # the log may hold millions of encounters: index only the pairs red alerts name
    encounters: dict[tuple[int, int], list[tuple[float, float, float]]] = {
        (notify["uploader"], notify["recipient"]): [] for notify in reds
    }
    for e in log:
        if e["type"] == "encounter" and (e["recorder"], e["peer"]) in encounters:
            encounters[e["recorder"], e["peer"]].append(
                (e["start"], e["end"], e["min_true_distance"])
            )
    false_count = 0
    for notify in reds:
        upload = uploads[notify["origin_tag"]]
        upload_time = upload["t"]
        window = upload["retention_window"]
        intervals = encounters[(notify["uploader"], notify["recipient"])]
        relevant = [
            min_d
            for (start, end, min_d) in intervals
            if start <= upload_time and min(end, upload_time) >= upload_time - window
        ]
        if relevant and all(d > infection_range for d in relevant):
            false_count += 1
    return false_count / len(reds)
