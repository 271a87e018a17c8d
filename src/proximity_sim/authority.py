"""Authority-side services: one-time key issuance and decrypt-and-dispatch.

Two sequential state machines modelled after a split-responsibility
deployment: the issuer hands certified doctors single-use activation
tokens bound to a patient id, and the dispatch server validates those
tokens, decrypts the uploaded encounter ledger, and fans out anonymous
notifications in priority order under a capacity threshold.  The
dispatch server retains no ledger data between transactions; the only
thing it keeps is the capacity overflow (waiting lists) keyed by an
anonymous origin tag, with a bounded time to live.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .crypto import KeyPair, KeyMismatch, MalformedNumber, decode_contact, decrypt, keyed_digest
from .messages import (
    RED_DIRECTIONS,
    YELLOW_DIRECTIONS,
    AlertLevel,
    AlertMessage,
    DispatchRecord,
    DispatchStatus,
    ScoredContact,
)

__all__ = [
    "ActivationKey",
    "DoctorCredential",
    "ValidationOutcome",
    "UploadResult",
    "NotCertified",
    "RejectedUpload",
    "UnknownOrigin",
    "TransportError",
    "KeyIssuer",
    "DispatchServer",
]


class NotCertified(Exception):
    """Key request from a credential that is not a certified doctor."""


class RejectedUpload(Exception):
    """Ledger upload refused before any decryption happened."""


class UnknownOrigin(Exception):
    """No waiting list (or no authentic red dispatch) under this tag."""


class TransportError(Exception):
    """Simulated transport fault between a device and the server."""


@dataclass
class ActivationKey:
    """Single-use alert-mode activation token bound to one patient."""

    token: str
    bound_user_id: str
    issued_by: str
    issued_at: float
    consumed: bool = False


@dataclass(frozen=True)
class DoctorCredential:
    doctor_id: str
    certified: bool


class ValidationOutcome(Enum):
    ACCEPTED = "accepted"
    UNKNOWN_KEY = "unknown_key"
    WRONG_USER = "wrong_user"
    ALREADY_CONSUMED = "already_consumed"


@dataclass
class UploadResult:
    """Outcome of one dispatch transaction."""

    origin_tag: str
    records: list[DispatchRecord]
    decrypt_failures: int = 0

    @property
    def sent(self) -> list[DispatchRecord]:
        return [r for r in self.records if r.status is DispatchStatus.SENT]

    @property
    def waitlisted(self) -> list[DispatchRecord]:
        return [r for r in self.records if r.status is DispatchStatus.WAITLISTED]


class KeyIssuer:
    """Issues one-time activation tokens to certified doctors.

    Tokens are a keyed digest of (server secret, user id, fresh nonce),
    rendered as 64 hex digits, registered unconsumed.  Distinct requests
    for the same patient yield distinct tokens.
    """

    def __init__(self, secret: bytes) -> None:
        self._secret = secret
        self._nonce = 0
        self.registry: dict[str, ActivationKey] = {}

    def issue_activation_key(
        self, credential: DoctorCredential, user_id: str, now: float = 0.0
    ) -> ActivationKey:
        if not credential.certified:
            raise NotCertified(f"credential {credential.doctor_id} is not certified")
        self._nonce += 1
        token = keyed_digest(
            self._secret, f"activation:{user_id}:{self._nonce}"
        ).hex()
        key = ActivationKey(
            token=token,
            bound_user_id=user_id,
            issued_by=credential.doctor_id,
            issued_at=now,
        )
        self.registry[token] = key
        return key


@dataclass
class _WaitlistBucket:
    records: list[DispatchRecord]
    created_at: float
    level: AlertLevel


class DispatchServer:
    """Validates tokens, decrypts uploads, dispatches anonymous alerts.

    `notify` is called once per sent record with (recipient_contact,
    AlertMessage); delivery is the caller's business.  Origin tags are
    self-authenticating (sequence number plus keyed digest), so a red
    tag authorises exactly one yellow fan-out hop without the server
    remembering past dispatches.
    """

    def __init__(
        self,
        keyring: dict[str, KeyPair],
        issuer: KeyIssuer,
        secret: bytes,
        notify: Callable[[str, AlertMessage], None],
        waitlist_ttl: float = float("inf"),
    ) -> None:
        self._keyring = keyring
        self._issuer = issuer
        self._secret = secret
        self._notify = notify
        self._waitlist_ttl = waitlist_ttl
        self._sequence = 0
        self._waitlists: dict[str, _WaitlistBucket] = {}

    # -- token validation ---------------------------------------------------

    def validate_and_consume(self, token: str, user_id: str) -> ValidationOutcome:
        """Accept iff the token is registered, bound to this user and fresh;
        consumption is atomic with acceptance."""
        key = self._issuer.registry.get(token)
        if key is None:
            return ValidationOutcome.UNKNOWN_KEY
        if key.bound_user_id != user_id:
            return ValidationOutcome.WRONG_USER
        if key.consumed:
            return ValidationOutcome.ALREADY_CONSUMED
        key.consumed = True
        return ValidationOutcome.ACCEPTED

    # -- origin tags ----------------------------------------------------------

    def _mint_origin_tag(self, level: AlertLevel) -> str:
        self._sequence += 1
        mac = keyed_digest(self._secret, f"origin:{level.value}:{self._sequence}")
        return f"{self._sequence:08x}-{mac[:8].hex()}"

    def _is_authentic_red_tag(self, tag: str) -> bool:
        try:
            seq_text, mac_hex = tag.split("-", 1)
            sequence = int(seq_text, 16)
        except ValueError:
            return False
        expected = keyed_digest(self._secret, f"origin:{AlertLevel.RED.value}:{sequence}")
        return mac_hex == expected[:8].hex()

    # -- dispatch -------------------------------------------------------------

    def _decrypt_and_rank(
        self, scored_contacts: list[ScoredContact]
    ) -> tuple[list[tuple[str, float]], int]:
        """Decrypt envelopes, dedupe recipients, keep priority order."""
        ranked = sorted(
            scored_contacts, key=lambda sc: (-sc.score, str(sc.envelope.ciphertext))
        )
        failures = 0
        seen: set[str] = set()
        recipients: list[tuple[str, float]] = []
        for item in ranked:
            pair = self._keyring.get(item.envelope.key_tag)
            if pair is None:
                failures += 1
                continue
            try:
                contact = decode_contact(decrypt(pair, item.envelope))
            except (KeyMismatch, MalformedNumber, ValueError):
                failures += 1
                continue
            if contact in seen:
                continue
            seen.add(contact)
            recipients.append((contact, item.score))
        return recipients, failures

    def _dispatch(
        self,
        recipients: list[tuple[str, float]],
        capacity: int | None,
        level: AlertLevel,
        now: float,
    ) -> tuple[str, list[DispatchRecord]]:
        self.purge_expired_waitlists(now)
        tag = self._mint_origin_tag(level)
        directions = RED_DIRECTIONS if level is AlertLevel.RED else YELLOW_DIRECTIONS
        cut = len(recipients) if capacity is None else capacity
        records: list[DispatchRecord] = []
        for position, (contact, score) in enumerate(recipients):
            status = DispatchStatus.SENT if position < cut else DispatchStatus.WAITLISTED
            record = DispatchRecord(
                recipient_contact=contact, level=level, score=score, status=status
            )
            records.append(record)
            if status is DispatchStatus.SENT:
                self._notify(
                    contact,
                    AlertMessage(
                        level=level,
                        directions=directions,
                        issued_at=now,
                        origin_tag=tag,
                    ),
                )
        overflow = [r for r in records if r.status is DispatchStatus.WAITLISTED]
        if overflow:
            self._waitlists[tag] = _WaitlistBucket(
                records=overflow, created_at=now, level=level
            )
        return tag, records

    def process_alert_upload(
        self,
        token: str,
        user_id: str,
        scored_contacts: list[ScoredContact],
        capacity: int | None = None,
        now: float = 0.0,
    ) -> UploadResult:
        """Full red dispatch transaction for one uploaded ledger.

        Nothing is decrypted unless the activation token is accepted (and
        thereby consumed).  Top-capacity recipients are notified, the
        rest are waitlisted under the transaction's anonymous origin tag.
        Undecryptable entries are skipped and counted.
        """
        outcome = self.validate_and_consume(token, user_id)
        if outcome is not ValidationOutcome.ACCEPTED:
            raise RejectedUpload(f"activation token rejected: {outcome.value}")
        recipients, failures = self._decrypt_and_rank(scored_contacts)
        tag, records = self._dispatch(recipients, capacity, AlertLevel.RED, now)
        return UploadResult(origin_tag=tag, records=records, decrypt_failures=failures)

    def process_yellow_dispatch(
        self,
        red_origin_tag: str,
        scored_contacts: list[ScoredContact],
        capacity: int | None = None,
        now: float = 0.0,
    ) -> UploadResult:
        """One-hop yellow fan-out, authorised by an authentic red tag.

        Yellow tags never authorise further dispatch, so the cascade
        cannot deepen.
        """
        if not self._is_authentic_red_tag(red_origin_tag):
            raise UnknownOrigin(f"tag {red_origin_tag!r} is not an authentic red dispatch")
        recipients, failures = self._decrypt_and_rank(scored_contacts)
        tag, records = self._dispatch(recipients, capacity, AlertLevel.YELLOW, now)
        return UploadResult(origin_tag=tag, records=records, decrypt_failures=failures)

    # -- waiting lists ----------------------------------------------------------

    def release_waitlist(
        self, origin_tag: str, additional_capacity: int, now: float = 0.0
    ) -> list[DispatchRecord]:
        """Promote up to `additional_capacity` waitlisted recipients, in
        stored priority order, notifying each under the original tag.

        Lists past their time to live at `now` are dropped first, so a
        stale tag raises UnknownOrigin like one that never existed.
        """
        self.purge_expired_waitlists(now)
        bucket = self._waitlists.get(origin_tag)
        if bucket is None:
            raise UnknownOrigin(f"no waiting list under tag {origin_tag!r}")
        promoted = bucket.records[:additional_capacity]
        bucket.records = bucket.records[additional_capacity:]
        directions = (
            RED_DIRECTIONS if bucket.level is AlertLevel.RED else YELLOW_DIRECTIONS
        )
        for record in promoted:
            record.status = DispatchStatus.SENT
            self._notify(
                record.recipient_contact,
                AlertMessage(
                    level=bucket.level,
                    directions=directions,
                    issued_at=now,
                    origin_tag=origin_tag,
                ),
            )
        if not bucket.records:
            del self._waitlists[origin_tag]
        return promoted

    def purge_expired_waitlists(self, now: float) -> int:
        """Drop waiting lists older than the configured time to live.

        Every dispatch transaction and every release calls this first
        with its own time, and the world calls it once per tick.
        """
        stale = [
            tag
            for tag, bucket in self._waitlists.items()
            if now - bucket.created_at > self._waitlist_ttl
        ]
        for tag in stale:
            del self._waitlists[tag]
        return len(stale)

    def idle_state(self) -> dict[str, int]:
        """Contact-bearing data retained between transactions.

        Only capacity overflow survives a transaction; with no waiting
        lists pending every count here is zero.
        """
        return {
            "waitlist_origins": len(self._waitlists),
            "waitlist_records": sum(len(b.records) for b in self._waitlists.values()),
        }
