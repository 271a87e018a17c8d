"""Per-device state machine: encounter tracking and alert handling.

A device spends its life in tracking mode, appending encrypted encounter
entries to its local ledger.  The device alone applies the retention
window: it expires anything older whenever the ledger is read, and
whenever the ledger has doubled since its last purge (amortised O(1) per
entry).  It switches to alert mode only through a one-time activation
token validated by the dispatch server, at which point it uploads one
score per distinct peer; the server ranks them, applies the capacity
threshold and returns the ranked contacts notified and those waitlisted,
by envelope and score.  A red alert received in tracking mode may hand
the device's own scored peers to a yellow fan-out.  Neither the ledger
nor anything the device receives back holds a plaintext contact.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

from . import authority
from .crypto import Envelope
from .messages import AlertLevel, AlertMessage, ScoredContact

# a ledger is purged on append once it holds twice what its last purge
# left, and never below this many entries
_MIN_PURGE_LENGTH = 8

__all__ = [
    "DeviceMode",
    "EncounterEntry",
    "ProximalContactList",
    "DeviceState",
    "OutOfRange",
    "interaction_strength",
]


class OutOfRange(Exception):
    """Encounter distance beyond the tracking threshold; a world bug."""


class DeviceMode(Enum):
    TRACKING = "tracking"
    ALERT = "alert"


@dataclass(slots=True)
class EncounterEntry:
    """One contiguous close-range contact, peer identity encrypted."""

    peer_envelope: Envelope
    started_at: float
    duration: float
    mean_rssi: float
    estimated_distance: float

    @property
    def ended_at(self) -> float:
        return self.started_at + self.duration


@dataclass
class ProximalContactList:
    """Encrypted encounter ledger with a retention window (seconds)."""

    retention_window: float
    entries: list[EncounterEntry] = field(default_factory=list)


def interaction_strength(entries: list[EncounterEntry], distance_cutoff: float) -> float:
    """Priority score for one peer: sum of duration * distance weight.

    The weight falls linearly from 1 at zero distance to 0 at the cutoff,
    so longer and closer contact always scores higher.
    """
    score = 0.0
    for entry in entries:
        weight = max(0.0, 1.0 - entry.estimated_distance / distance_cutoff)
        score += entry.duration * weight
    return score


class DeviceState:
    """One simulated handset."""

    def __init__(
        self,
        user_id: str,
        own_contact: str,
        retention_window: float,
        tracking_threshold: float = 3.0,
        yellow_enabled: bool = False,
    ) -> None:
        self.user_id = user_id
        self.own_contact = own_contact
        self.mode = DeviceMode.TRACKING
        self.ledger = ProximalContactList(retention_window=retention_window)
        self.yellow_enabled = yellow_enabled
        self.tracking_threshold = tracking_threshold
        self._purge_at_length = _MIN_PURGE_LENGTH

    def record_encounter(
        self,
        peer_envelope: Envelope,
        started_at: float,
        duration: float,
        mean_rssi: float,
        estimated_distance: float,
    ) -> EncounterEntry:
        """Append one encounter entry; repeated contacts stay distinct
        entries and are only merged at scoring time.

        When the ledger has doubled since its last purge it is purged at
        `started_at`.  Every later read purges at a time no earlier, so it
        removes a superset of what this purge removes and sees the same
        ledger it would have seen without it.
        """
        if estimated_distance > self.tracking_threshold:
            raise OutOfRange(
                f"estimated {estimated_distance:.2f} m beyond the "
                f"{self.tracking_threshold:.2f} m tracking threshold"
            )
        if duration < 0:
            raise ValueError("duration must be nonnegative")
        entry = EncounterEntry(peer_envelope, started_at, duration, mean_rssi, estimated_distance)
        self.ledger.entries.append(entry)
        if len(self.ledger.entries) >= self._purge_at_length:
            self.purge_expired(started_at)
        return entry

    def purge_expired(self, now: float) -> int:
        """Drop entries that ended before now minus the retention window.

        The boundary is inclusive: an entry ending exactly at the edge is
        retained.  Idempotent; returns how many entries were removed.
        """
        cutoff = now - self.ledger.retention_window
        # e.ended_at, inlined: the same float without a property call per entry
        kept = [e for e in self.ledger.entries if e.started_at + e.duration >= cutoff]
        removed = len(self.ledger.entries) - len(kept)
        self.ledger.entries = kept
        self._purge_at_length = max(2 * len(kept), _MIN_PURGE_LENGTH)
        return removed

    def scored_contacts(self, now: float) -> list[ScoredContact]:
        """Purge the ledger at `now` and score each distinct peer.

        One contact per (key tag, ciphertext), in the order the peers
        first appear in the ledger; the dispatch server ranks them.
        """
        self.purge_expired(now)
        groups: dict[tuple[str, int], list[EncounterEntry]] = {}
        for entry in self.ledger.entries:
            key = (entry.peer_envelope.key_tag, entry.peer_envelope.ciphertext)
            groups.setdefault(key, []).append(entry)
        return [
            ScoredContact(
                envelope=entries[0].peer_envelope,
                score=interaction_strength(entries, self.tracking_threshold),
            )
            for entries in groups.values()
        ]

    def activate_alert_mode(
        self,
        token: str,
        server: "authority.DispatchServer",
        now: float,
    ) -> "authority.UploadResult":
        """Switch to alert mode through a one-time activation token.

        On success every scored peer is uploaded; the server ranks them
        and applies its own capacity threshold, which the device cannot
        set.  The mode changes only after the server answers, so whatever
        it raises (`authority.RejectedUpload` for a refused token) leaves
        the device in tracking mode.
        """
        if self.mode is not DeviceMode.TRACKING:
            raise ValueError("device is already in alert mode")
        result = server.process_alert_upload(
            token=token,
            user_id=self.user_id,
            scored_contacts=self.scored_contacts(now),
            now=now,
        )
        self.mode = DeviceMode.ALERT
        return result

    def handle_notification(
        self, message: AlertMessage, now: float
    ) -> list[ScoredContact] | None:
        """Take an incoming alert; a red alert may trigger yellow fan-out.

        For fan-out this device's own scored peers are returned (not
        sent), to go out under the alert's origin tag; None means no
        fan-out.  Only a tracking device fans out, and yellow alerts are
        never forwarded, bounding the cascade at one hop.
        """
        if (
            message.level is AlertLevel.RED
            and self.yellow_enabled
            and self.mode is DeviceMode.TRACKING
        ):
            return self.scored_contacts(now)
        return None
