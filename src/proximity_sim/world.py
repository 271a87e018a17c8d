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
from dataclasses import dataclass, field
from enum import Enum

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
from .device import DeviceState, EncounterEntry, YellowDispatchRequest
from .messages import AlertLevel, AlertMessage

__all__ = [
    "NonpositiveDistance",
    "EmptyLog",
    "HealthState",
    "RadioModel",
    "WorldConfig",
    "Agent",
    "World",
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


class HealthState(Enum):
    SUSCEPTIBLE = "susceptible"
    INFECTED = "infected"
    DETECTED = "detected"


@dataclass(frozen=True)
class RadioModel:
    """Log-distance path loss with optional Gaussian shadowing."""

    rssi_at_1m: float = -59.0
    path_loss_exponent: float = 2.0
    noise_sigma: float = 2.0
    max_radio_range: float = 10.0

    def __post_init__(self) -> None:
        if self.path_loss_exponent <= 0:
            raise ValueError("path_loss_exponent must be positive")
        if self.noise_sigma < 0:
            raise ValueError("noise_sigma must be nonnegative")
        if self.max_radio_range <= 0:
            raise ValueError("max_radio_range must be positive")


def rssi_at_distance(
    distance: float, model: RadioModel, rng: np.random.Generator | None = None
) -> float:
    """Received signal strength (dBm) at a true distance in meters."""
    if distance <= 0:
        raise NonpositiveDistance(f"distance must be positive, got {distance}")
    value = model.rssi_at_1m - 10.0 * model.path_loss_exponent * math.log10(distance)
    if rng is not None and model.noise_sigma > 0:
        value += rng.normal(0.0, model.noise_sigma)
    return value


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


@dataclass
class Agent:
    id: int
    position: np.ndarray | None
    speed: float
    waypoint: np.ndarray | None
    device: DeviceState | None
    health: HealthState = HealthState.SUSCEPTIBLE
    infected_at: float | None = None
    detected_at: float | None = None


@dataclass
class _OpenContact:
    entry: EncounterEntry
    ticks: int
    rssi_sum: float
    min_true_distance: float


def parse_contact_trace(text: str) -> list[tuple[int, int, float, float, float]]:
    """Parse a replayed contact trace.

    One interval per line: agent_a,agent_b,start_s,end_s,true_distance_m.
    Blank lines and '#' comments are skipped.
    """
    intervals = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) != 5:
            raise ValueError(f"trace line {lineno}: expected 5 fields, got {len(parts)}")
        a, b = int(parts[0]), int(parts[1])
        start, end, distance = float(parts[2]), float(parts[3]), float(parts[4])
        if a == b or start >= end or distance <= 0:
            raise ValueError(f"trace line {lineno}: inconsistent interval")
        intervals.append((min(a, b), max(a, b), start, end, distance))
    return intervals


class World:
    """Deterministic tick-driven micro-world.

    A single seeded generator drives motion, radio noise, and infection;
    identical (config, seed, trace) inputs replay identical event logs.
    """

    def __init__(
        self,
        config: WorldConfig,
        seed: int,
        keypair: KeyPair | None = None,
        trace: list[tuple[int, int, float, float, float]] | None = None,
    ) -> None:
        self.config = config
        self.rng = np.random.Generator(np.random.PCG64(derive_seed(seed, 0)))
        self.keypair = keypair or generate_keypair(derive_seed(seed, 1), config.key_bits)
        if trace is not None:
            highest = max(max(a, b) for a, b, *_ in trace) if trace else 0
            if highest >= config.agent_count:
                raise ValueError(
                    f"trace names agent {highest}, config has {config.agent_count}"
                )
        self.trace = trace
        self.t = 0.0
        self.events: list[dict] = []

        self.issuer = KeyIssuer(secret=keyed_digest(seed, "issuer-secret"))
        self.dispatch_server = DispatchServer(
            keyring={self.keypair.key_tag: self.keypair},
            issuer=self.issuer,
            secret=keyed_digest(seed, "dispatch-secret"),
            notify=self._collect_notification,
            waitlist_ttl=config.incubation_seconds,
        )
        self.doctor = DoctorCredential(doctor_id="doctor-0001", certified=True)

        n = config.agent_count
        if trace is None:
            positions = self.rng.random((n, 2)) * config.box_size
            waypoints = self.rng.random((n, 2)) * config.box_size
            speeds = self.rng.uniform(config.speed_min, config.speed_max, n)
        else:
            positions = waypoints = None
            speeds = np.zeros(n)
        has_app = self.rng.random(n) < config.app_user_fraction
        seeds = np.sort(self.rng.choice(n, size=config.initial_infected, replace=False))

        # short synthetic numbers under small (test-scale) moduli
        wide = self.keypair.public.modulus.bit_length() >= 64
        if not wide and n > 89999:
            raise ValueError("test-scale keys support at most 89999 agents")

        self.agents: list[Agent] = []
        self._contact_to_agent: dict[str, int] = {}
        self._envelope_of: dict[int, Envelope] = {}
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
            self.agents.append(
                Agent(
                    id=i,
                    position=None if positions is None else positions[i].copy(),
                    speed=float(speeds[i]),
                    waypoint=None if waypoints is None else waypoints[i].copy(),
                    device=device,
                )
            )
        for i in seeds:
            self.agents[int(i)].health = HealthState.INFECTED
            self.agents[int(i)].infected_at = 0.0

        self._open: dict[tuple[int, int], _OpenContact] = {}
        self._outbox: list[tuple[str, AlertMessage]] = []
        self._uploads_by_tag: dict[str, int] = {}

    # -- event plumbing -----------------------------------------------------

    def _log(self, **event) -> None:
        self.events.append(event)

    def _collect_notification(self, contact: str, message: AlertMessage) -> None:
        self._outbox.append((contact, message))

    # -- per-tick phases ----------------------------------------------------

    def _move(self) -> None:
        dt = self.config.tick_seconds
        box = self.config.box_size
        for agent in self.agents:
            if agent.health is HealthState.DETECTED:
                continue  # strict quarantine: no motion after detection
            remaining = agent.speed * dt
            while remaining > 1e-12:
                leg = agent.waypoint - agent.position
                gap = float(np.hypot(leg[0], leg[1]))
                if gap <= remaining:
                    agent.position = agent.waypoint
                    agent.waypoint = self.rng.random(2) * box
                    remaining -= gap
                else:
                    agent.position = agent.position + leg * (remaining / gap)
                    remaining = 0.0

    def _contacts(self) -> list[tuple[int, int, float]]:
        """Pairs in radio range this tick with their true distances."""
        if self.trace is not None:
            return sorted(
                (a, b, d)
                for (a, b, start, end, d) in self.trace
                if start <= self.t < end and d <= self.config.radio.max_radio_range
            )
        positions = np.stack([a.position for a in self.agents])
        deltas = positions[:, None, :] - positions[None, :, :]
        dist = np.sqrt((deltas**2).sum(axis=2))
        i_idx, j_idx = np.nonzero(
            np.triu(dist <= self.config.radio.max_radio_range, k=1)
        )
        return [(int(i), int(j), float(dist[i, j])) for i, j in zip(i_idx, j_idx)]

    def _sense(self, contacts: list[tuple[int, int, float]]) -> None:
        cfg = self.config
        dt = cfg.tick_seconds
        touched: set[tuple[int, int]] = set()
        for a, b, true_d in contacts:
            if self.agents[a].device is None or self.agents[b].device is None:
                continue
            for recorder, peer in ((a, b), (b, a)):
                rssi = rssi_at_distance(true_d, cfg.radio, self.rng)
                est = estimate_distance(rssi, cfg.radio)
                if est > cfg.tracking_threshold:
                    continue
                key = (recorder, peer)
                touched.add(key)
                open_contact = self._open.get(key)
                if open_contact is None:
                    entry = self.agents[recorder].device.record_encounter(
                        peer_envelope=self._envelope_of[peer],
                        started_at=self.t,
                        duration=dt,
                        mean_rssi=rssi,
                        estimated_distance=est,
                    )
                    self._open[key] = _OpenContact(
                        entry=entry, ticks=1, rssi_sum=rssi, min_true_distance=true_d
                    )
                else:
                    open_contact.ticks += 1
                    open_contact.rssi_sum += rssi
                    open_contact.min_true_distance = min(
                        open_contact.min_true_distance, true_d
                    )
                    entry = open_contact.entry
                    entry.duration += dt
                    entry.mean_rssi = open_contact.rssi_sum / open_contact.ticks
                    entry.estimated_distance = estimate_distance(
                        entry.mean_rssi, cfg.radio
                    )
        # a tick without contact closes the encounter
        for key in sorted(set(self._open) - touched):
            self._close_contact(key)

    def _close_contact(self, key: tuple[int, int]) -> None:
        open_contact = self._open.pop(key)
        entry = open_contact.entry
        self._log(
            type="encounter",
            recorder=key[0],
            peer=key[1],
            start=entry.started_at,
            end=entry.ended_at,
            min_true_distance=open_contact.min_true_distance,
            mean_estimated_distance=entry.estimated_distance,
        )

    def _transmit(self, contacts: list[tuple[int, int, float]]) -> None:
        cfg = self.config
        p_tick = 1.0 - (1.0 - cfg.infection_prob_per_second) ** cfg.tick_seconds
        infectious = {
            a.id for a in self.agents if a.health is HealthState.INFECTED
        }
        pending: list[tuple[int, int, float]] = []
        claimed: set[int] = set()
        for a, b, true_d in contacts:
            if true_d > cfg.infection_range:
                continue
            source, target = None, None
            if a in infectious and self.agents[b].health is HealthState.SUSCEPTIBLE:
                source, target = a, b
            elif b in infectious and self.agents[a].health is HealthState.SUSCEPTIBLE:
                source, target = b, a
            if target is None or target in claimed:
                continue
            if self.rng.random() < p_tick:
                pending.append((source, target, true_d))
                claimed.add(target)
        for source, target, true_d in pending:
            agent = self.agents[target]
            agent.health = HealthState.INFECTED
            agent.infected_at = self.t
            self._log(
                type="infection", t=self.t, source=source, target=target,
                distance=true_d,
            )

    def _detect_and_alert(self) -> None:
        cfg = self.config
        for agent in self.agents:
            if agent.health is not HealthState.INFECTED:
                continue
            if self.t - agent.infected_at < cfg.incubation_seconds:
                continue
            agent.health = HealthState.DETECTED
            agent.detected_at = self.t
            self._log(type="detected", t=self.t, agent=agent.id)
            if agent.device is not None:
                self._run_activation(agent)

    def _run_activation(self, agent: Agent) -> None:
        cfg = self.config
        device = agent.device
        self._log(
            type="key_request", t=self.t, doctor=self.doctor.doctor_id,
            user_id=device.user_id,
        )
        key = self.issuer.issue_activation_key(self.doctor, device.user_id, now=self.t)
        self._log(type="key_issued", t=self.t, user_id=device.user_id, token=key.token)
        result = device.activate_alert_mode(
            key.token, self.dispatch_server, now=self.t,
            capacity=cfg.dispatch_capacity,
        )
        yellow_requests = self._record_and_deliver(
            agent.id, result, AlertLevel.RED, token=key.token
        )
        for requester_id, request in yellow_requests:
            self._run_yellow(requester_id, request)

    def _run_yellow(self, requester_id: int, request: YellowDispatchRequest) -> None:
        result = self.dispatch_server.process_yellow_dispatch(
            red_origin_tag=request.red_origin_tag,
            scored_contacts=request.contacts,
            capacity=self.config.dispatch_capacity,
            now=self.t,
        )
        leftovers = self._record_and_deliver(
            requester_id, result, AlertLevel.YELLOW, token=""
        )
        if leftovers:  # yellow handling never requests another hop
            raise RuntimeError("yellow dispatch produced a further fan-out request")

    def _record_and_deliver(self, uploader_id, result, level, token):
        self._uploads_by_tag[result.origin_tag] = uploader_id
        self._log(
            type="upload",
            t=self.t,
            uploader=uploader_id,
            user_id=self.agents[uploader_id].device.user_id,
            origin_tag=result.origin_tag,
            level=level.value,
            token=token,
            n_sent=len(result.sent),
            n_waitlisted=len(result.waitlisted),
            decrypt_failures=result.decrypt_failures,
            retention_window=self.config.incubation_seconds,
        )
        for record in result.records:
            self._log(
                type="dispatch",
                t=self.t,
                uploader=uploader_id,
                recipient=self._contact_to_agent[record.recipient_contact],
                level=record.level.value,
                score=record.score,
                status=record.status.value,
                origin_tag=result.origin_tag,
            )
        return self._deliver_outbox()

    def _deliver_outbox(self) -> list[tuple[int, YellowDispatchRequest]]:
        requests: list[tuple[int, YellowDispatchRequest]] = []
        pending, self._outbox = self._outbox, []
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
            request = self.agents[recipient_id].device.handle_notification(
                message, now=self.t
            )
            if request is not None:
                requests.append((recipient_id, request))
        return requests

    def _purge_ledgers(self) -> None:
        for agent in self.agents:
            if agent.device is not None:
                agent.device.purge_expired(self.t)

    # -- main loop ------------------------------------------------------------

    def tick(self) -> None:
        if self.trace is None:
            self._move()
        contacts = self._contacts()
        self._sense(contacts)
        self._transmit(contacts)
        self._detect_and_alert()
        self._purge_ledgers()
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
        for requester_id, request in self._deliver_outbox():
            self._run_yellow(requester_id, request)
        return len(promoted)

    # -- reporting ------------------------------------------------------------

    def summary(self) -> dict:
        encounters = [e for e in self.events if e["type"] == "encounter"]
        by_key = {(e["recorder"], e["peer"], e["start"]) for e in encounters}
        asymmetric = sum(
            1
            for (rec, peer, start) in by_key
            if (peer, rec, start) not in by_key
        )
        return {
            "agents": self.config.agent_count,
            "app_users": sum(1 for a in self.agents if a.device is not None),
            "infections": sum(1 for e in self.events if e["type"] == "infection"),
            "detected": sum(1 for e in self.events if e["type"] == "detected"),
            "encounters": len(encounters),
            "asymmetric_encounters": asymmetric,
            "uploads": sum(1 for e in self.events if e["type"] == "upload"),
            "notifications": sum(1 for e in self.events if e["type"] == "notify"),
        }

    def device_snapshots(self) -> list[dict]:
        """Per-device state records (the fixture/state-file schema)."""
        snapshots = []
        for agent in self.agents:
            device = agent.device
            if device is None:
                continue
            snapshots.append(
                {
                    "user_id": device.user_id,
                    "own_contact": device.own_contact,
                    "mode": device.mode.value,
                    "tested_positive": device.tested_positive,
                    "yellow_enabled": device.yellow_enabled,
                    "entries": [
                        {
                            "key_tag": e.peer_envelope.key_tag,
                            "ciphertext": str(e.peer_envelope.ciphertext),
                            "started_at": e.started_at,
                            "duration": e.duration,
                            "mean_rssi": e.mean_rssi,
                            "estimated_distance": e.estimated_distance,
                        }
                        for e in device.ledger.entries
                    ],
                }
            )
        return snapshots


def global_ledger_view(world: World) -> dict[str, list[EncounterEntry]]:
    """Union of every device's ledger, keyed by owner: the distributed,
    fully encrypted database the deployment amounts to."""
    view: dict[str, list[EncounterEntry]] = {}
    for agent in world.agents:
        if agent.device is not None:
            view[agent.device.user_id] = list(agent.device.ledger.entries)
    return view


def false_alert_rate(log: list[dict], infection_range: float) -> float:
    """Fraction of red notifications backed only by out-of-range contact.

    A notification counts as false when every in-window encounter between
    the uploader and the recipient happened at a true distance beyond the
    infection range.  Needs the world's ground-truth log (encounters must
    be flushed, e.g. after World.run()).
    """
    encounters: dict[tuple[int, int], list[tuple[float, float, float]]] = {}
    for event in log:
        if event["type"] == "encounter":
            key = (event["recorder"], event["peer"])
            encounters.setdefault(key, []).append(
                (event["start"], event["end"], event["min_true_distance"])
            )
    uploads = {
        e["origin_tag"]: e for e in log if e["type"] == "upload"
    }
    reds = [
        e
        for e in log
        if e["type"] == "notify" and e["level"] == AlertLevel.RED.value
    ]
    if not reds:
        raise EmptyLog("no red notifications in the log")
    false_count = 0
    for notify in reds:
        upload = uploads[notify["origin_tag"]]
        upload_time = upload["t"]
        window = upload["retention_window"]
        intervals = encounters.get((notify["uploader"], notify["recipient"]), [])
        relevant = [
            min_d
            for (start, end, min_d) in intervals
            if start <= upload_time and min(end, upload_time) >= upload_time - window
        ]
        if relevant and all(d > infection_range for d in relevant):
            false_count += 1
    return false_count / len(reds)
