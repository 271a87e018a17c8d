"""Authority-side services: one-time key issuance and decrypt-and-dispatch.

Two sequential state machines modelled after a split-responsibility
deployment: the issuer hands certified doctors single-use activation
tokens bound to a patient id, and the dispatch server validates those
tokens, ranks the uploaded encounter ledger, and fans out anonymous
notifications in priority order under a capacity threshold.  The server
holds the one deployment key and sets the capacity itself; an uploading
device chooses neither.  It decrypts an envelope only to notify its
recipient, and hands the plaintext to the notification sink alone.  A
result names the ranked contacts notified and those waitlisted, by
envelope and score, so it carries no phone number, and the capacity
overflow (the waiting list, keyed by an anonymous origin tag, with a
bounded time to live) stays encrypted until it is released.  Nothing
else survives a transaction.  An alert is its level and origin tag, and
a refused upload's `RejectedUpload` reaches the device's caller as is.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Callable

from .crypto import KeyPair, MalformedNumber, decode_contact, decrypt, keyed_digest
from .messages import AlertLevel, AlertMessage, ScoredContact

__all__ = [
    "ActivationKey",
    "DoctorCredential",
    "ValidationOutcome",
    "UploadResult",
    "NotCertified",
    "RejectedUpload",
    "UnknownOrigin",
    "KeyIssuer",
    "DispatchServer",
]


class NotCertified(Exception):
    """Key request from a credential that is not a certified doctor."""


class RejectedUpload(Exception):
    """Ledger upload refused before any decryption happened."""


class UnknownOrigin(Exception):
    """No waiting list (or no authentic red dispatch) under this tag."""


@dataclass
class ActivationKey:
    """Single-use alert-mode activation token bound to one patient."""

    token: str
    bound_user_id: str
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
    """Outcome of one dispatch transaction: the ranked contacts notified
    and those waitlisted, by envelope and score, each in priority order."""

    origin_tag: str
    level: AlertLevel
    sent: list[ScoredContact]
    waitlisted: list[ScoredContact]
    decrypt_failures: int = 0


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
        self, credential: DoctorCredential, user_id: str
    ) -> ActivationKey:
        if not credential.certified:
            raise NotCertified(f"credential {credential.doctor_id} is not certified")
        self._nonce += 1
        token = keyed_digest(
            self._secret, f"activation:{user_id}:{self._nonce}"
        ).hex()
        key = ActivationKey(token=token, bound_user_id=user_id)
        self.registry[token] = key
        return key


@dataclass
class _WaitlistBucket:
    contacts: list[ScoredContact]  # still encrypted, in priority order
    created_at: float
    level: AlertLevel


class DispatchServer:
    """Validates tokens, ranks uploads, dispatches anonymous alerts.

    The server holds one deployment keypair and its own `capacity`: each
    dispatch notifies at most that many recipients (None: all of them)
    and waitlists the rest.  Only the envelopes of recipients it notifies
    are decrypted, and the plaintext goes nowhere but `notify`, called
    once per sent recipient with (contact, AlertMessage); delivery is the
    caller's business.  Origin tags are self-authenticating (sequence
    number plus keyed digest), so a red tag authorises exactly one yellow
    fan-out hop without the server remembering past dispatches.
    """

    def __init__(
        self,
        keypair: KeyPair,
        issuer: KeyIssuer,
        secret: bytes,
        notify: Callable[[str, AlertMessage], None],
        capacity: int | None = None,
        waitlist_ttl: float = float("inf"),
    ) -> None:
        self._keypair = keypair
        self._issuer = issuer
        self._secret = secret
        self._notify = notify
        self._capacity = capacity
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

    def _rank(self, scored_contacts: list[ScoredContact]) -> tuple[list[ScoredContact], int]:
        """Priority order with unusable and repeated envelopes dropped.

        Descending score, ties broken by the ciphertext's decimal string,
        so the order does not depend on the upload's.  Needs no
        decryption: an envelope under another key or outside [0, n)
        cannot decrypt and is counted as a failure, and a repeated
        ciphertext is the same recipient again.  RSA permutes [0, n) and
        `encode_contact` is injective, so once repeats are gone no
        recipient appears twice in the ranking.
        """
        ranked = sorted(
            scored_contacts, key=lambda sc: (-sc.score, str(sc.envelope.ciphertext))
        )
        failures = 0
        seen: set[int] = set()
        kept: list[ScoredContact] = []
        for item in ranked:
            envelope = item.envelope
            if (
                envelope.key_tag != self._keypair.key_tag
                or not 0 <= envelope.ciphertext < self._keypair.public.modulus
            ):
                failures += 1
                continue
            if envelope.ciphertext in seen:
                continue
            seen.add(envelope.ciphertext)
            kept.append(item)
        return kept, failures

    def _send_in_order(
        self,
        ranked: list[ScoredContact],
        limit: int | None,
        message: AlertMessage,
    ) -> tuple[list[ScoredContact], int, int]:
        """Decrypt contacts in order and notify each recipient until
        `limit` are sent.

        A plaintext that is not a packed contact is a failure.  Returns
        the sent contacts, how many contacts were used up and how many
        failed.
        """
        sent: list[ScoredContact] = []
        failures = position = 0
        while position < len(ranked) and (limit is None or len(sent) < limit):
            item = ranked[position]
            position += 1
            try:
                contact = decode_contact(decrypt(self._keypair, item.envelope))
            except MalformedNumber:
                failures += 1
                continue
            self._notify(contact, message)
            sent.append(item)
        return sent, position, failures

    def _dispatch(
        self,
        scored_contacts: list[ScoredContact],
        level: AlertLevel,
        now: float,
    ) -> UploadResult:
        """Send in priority order until the server's capacity is used
        up, then waitlist the rest of the ranking undecrypted.

        A tail entry that would not decode is therefore counted as
        waitlisted here and skipped when it is released.  A repeated
        envelope that would not decode counts as one failure, not one per
        copy.
        """
        ranked, failures = self._rank(scored_contacts)
        self.purge_expired_waitlists(now)
        tag = self._mint_origin_tag(level)
        sent, used, undecodable = self._send_in_order(
            ranked, self._capacity, AlertMessage(level, tag)
        )
        waitlisted = ranked[used:]
        if waitlisted:
            self._waitlists[tag] = _WaitlistBucket(
                contacts=waitlisted, created_at=now, level=level
            )
        return UploadResult(
            origin_tag=tag, level=level, sent=sent, waitlisted=waitlisted,
            decrypt_failures=failures + undecodable,
        )

    def process_alert_upload(
        self,
        token: str,
        user_id: str,
        scored_contacts: list[ScoredContact],
        now: float = 0.0,
    ) -> UploadResult:
        """Full red dispatch transaction for one uploaded ledger.

        Nothing is decrypted unless the activation token is accepted (and
        thereby consumed).  The top recipients, up to the server's
        capacity, are decrypted and sent alerts; the rest are waitlisted,
        still encrypted, under the transaction's anonymous origin tag.
        Undecryptable entries are skipped and counted.
        """
        outcome = self.validate_and_consume(token, user_id)
        if outcome is not ValidationOutcome.ACCEPTED:
            raise RejectedUpload(f"activation token rejected: {outcome.value}")
        return self._dispatch(scored_contacts, AlertLevel.RED, now)

    def process_yellow_dispatch(
        self,
        red_origin_tag: str,
        scored_contacts: list[ScoredContact],
        now: float = 0.0,
    ) -> UploadResult:
        """One-hop yellow fan-out, authorised by an authentic red tag.

        Yellow tags never authorise further dispatch, so the cascade
        cannot deepen.
        """
        if not self._is_authentic_red_tag(red_origin_tag):
            raise UnknownOrigin(f"tag {red_origin_tag!r} is not an authentic red dispatch")
        return self._dispatch(scored_contacts, AlertLevel.YELLOW, now)

    # -- waiting lists ----------------------------------------------------------

    def release_waitlist(
        self, origin_tag: str, additional_capacity: int, now: float = 0.0
    ) -> list[ScoredContact]:
        """Notify up to `additional_capacity` more waitlisted recipients, in
        stored priority order, under the original tag; return the contacts
        promoted.

        Envelopes are decrypted only here, one at a time; one that does
        not decode is dropped without a notification and does not use
        capacity.
        Lists past their time to live at `now` are dropped first, so a
        stale tag raises UnknownOrigin like one that never existed.
        """
        self.purge_expired_waitlists(now)
        bucket = self._waitlists.get(origin_tag)
        if bucket is None:
            raise UnknownOrigin(f"no waiting list under tag {origin_tag!r}")
        promoted, used, _ = self._send_in_order(
            bucket.contacts, additional_capacity, AlertMessage(bucket.level, origin_tag)
        )
        # a new list: the dispatch's result still holds the old one
        bucket.contacts = bucket.contacts[used:]
        if not bucket.contacts:
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

        Only capacity overflow survives a transaction, as envelopes the
        server has not decrypted; with no waiting lists pending every
        count here is zero.
        """
        return {
            "waitlist_origins": len(self._waitlists),
            "waitlist_records": sum(len(b.contacts) for b in self._waitlists.values()),
        }
