from __future__ import annotations

import pytest

from proximity_sim import crypto
from proximity_sim.authority import (
    DispatchServer,
    DoctorCredential,
    KeyIssuer,
    NotCertified,
    RejectedUpload,
    UnknownOrigin,
    ValidationOutcome,
)
from proximity_sim.crypto import Envelope, encode_contact, encrypt
from proximity_sim.messages import AlertLevel, ScoredContact

DOCTOR = DoctorCredential(doctor_id="doctor-77", certified=True)
QUACK = DoctorCredential(doctor_id="quack-01", certified=False)


def build(test_keypair, capacity=None):
    issuer = KeyIssuer(secret=b"issuer-secret")
    notifications = []
    server = DispatchServer(
        keypair=test_keypair,
        issuer=issuer,
        secret=b"dispatch-secret",
        notify=lambda contact, msg: notifications.append((contact, msg)),
        capacity=capacity,
        waitlist_ttl=14 * 86400.0,
    )
    return issuer, server, notifications


@pytest.fixture
def stack(test_keypair):
    return build(test_keypair)


def scored(test_keypair, contact: str, score: float) -> ScoredContact:
    return ScoredContact(
        envelope=encrypt(test_keypair.public, encode_contact(contact)), score=score
    )


def opened(test_keypair, records) -> list[str]:
    return [crypto.decode_contact(crypto.decrypt(test_keypair, r.envelope)) for r in records]


class TestIssuance:
    def test_certified_doctor_gets_fresh_key(self, stack):
        issuer, _, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        assert not key.consumed
        assert key.bound_user_id == "user-0001"
        assert issuer.registry[key.token] is key
        assert len(key.token) == 64
        int(key.token, 16)  # 64 hex digits

    def test_uncertified_rejected(self, stack):
        issuer, _, _ = stack
        with pytest.raises(NotCertified):
            issuer.issue_activation_key(QUACK, "user-0001")
        assert not issuer.registry

    def test_reissue_same_user_distinct_tokens(self, stack):
        issuer, server, _ = stack
        first = issuer.issue_activation_key(DOCTOR, "user-0001")
        second = issuer.issue_activation_key(DOCTOR, "user-0001")
        assert first.token != second.token
        assert server.validate_and_consume(first.token, "user-0001") is ValidationOutcome.ACCEPTED
        assert server.validate_and_consume(second.token, "user-0001") is ValidationOutcome.ACCEPTED


class TestValidation:
    def test_accept_marks_consumed(self, stack):
        issuer, server, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        assert server.validate_and_consume(key.token, "user-0001") is ValidationOutcome.ACCEPTED
        assert key.consumed

    def test_replay_rejected(self, stack):
        issuer, server, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        server.validate_and_consume(key.token, "user-0001")
        assert (
            server.validate_and_consume(key.token, "user-0001")
            is ValidationOutcome.ALREADY_CONSUMED
        )

    def test_wrong_user_rejected_without_consuming(self, stack):
        issuer, server, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        assert server.validate_and_consume(key.token, "user-0002") is ValidationOutcome.WRONG_USER
        assert not key.consumed

    def test_unknown_token(self, stack):
        _, server, _ = stack
        assert server.validate_and_consume("f" * 64, "user-0001") is ValidationOutcome.UNKNOWN_KEY


class TestAlertUpload:
    def upload(self, test_keypair, capacity):
        issuer, server, notifications = build(test_keypair, capacity)
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        contacts = [
            scored(test_keypair, "+20001", 500.0),
            scored(test_keypair, "+20002", 400.0),
            scored(test_keypair, "+20003", 90.0),
            scored(test_keypair, "+20004", 10.0),
        ]
        result = server.process_alert_upload(key.token, "user-0001", contacts, now=100.0)
        return result, notifications

    def test_capacity_split(self, test_keypair):
        result, notifications = self.upload(test_keypair, capacity=2)
        assert opened(test_keypair, result.sent) == ["+20001", "+20002"]
        # the overflow stays encrypted: same recipients, no plaintext held
        assert opened(test_keypair, result.waitlisted) == ["+20003", "+20004"]
        assert "+2000" not in repr(result)
        assert [c for c, _ in notifications] == ["+20001", "+20002"]
        assert all(m.level is AlertLevel.RED for _, m in notifications)

    def test_unlimited_capacity_sends_all(self, test_keypair):
        result, notifications = self.upload(test_keypair, capacity=None)
        assert len(result.sent) == 4 and not result.waitlisted
        assert len(notifications) == 4

    def test_invalid_token_decrypts_nothing(self, stack, test_keypair, decrypts):
        _, server, notifications = stack
        with pytest.raises(RejectedUpload):
            server.process_alert_upload(
                "f" * 64, "user-0001", [scored(test_keypair, "+20001", 5.0)], 0.0
            )
        assert not decrypts and not notifications

    def test_decryption_implies_consumption(self, stack, test_keypair, decrypts):
        issuer, server, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        server.process_alert_upload(
            key.token, "user-0001", [scored(test_keypair, "+20001", 5.0)], 0.0
        )
        assert decrypts and key.consumed

    def test_undecryptable_entries_skipped_and_counted(self, stack, test_keypair):
        issuer, server, notifications = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        bogus_tag = ScoredContact(Envelope(ciphertext=123, key_tag="deadbeef00000000"), 50.0)
        garbage = ScoredContact(
            Envelope(ciphertext=7, key_tag=test_keypair.key_tag), 40.0
        )  # decrypts, but not to a packed contact
        good = scored(test_keypair, "+20001", 30.0)
        result = server.process_alert_upload(
            key.token, "user-0001", [bogus_tag, garbage, good], 0.0
        )
        assert result.decrypt_failures == 2
        assert opened(test_keypair, result.sent) == ["+20001"]
        assert [c for c, _ in notifications] == ["+20001"]

    def test_duplicate_recipient_deduped(self, stack, test_keypair):
        issuer, server, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        result = server.process_alert_upload(
            key.token,
            "user-0001",
            [scored(test_keypair, "+20001", 500.0), scored(test_keypair, "+20001", 500.0)],
            0.0,
        )
        assert len(result.sent) == 1 and not result.waitlisted

    def test_anonymity_of_dispatch(self, stack, test_keypair):
        issuer, server, notifications = stack
        uploader_contact = "+10001"
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        result = server.process_alert_upload(
            key.token, "user-0001", [scored(test_keypair, "+20001", 5.0)], 0.0
        )
        assert uploader_contact not in repr(result)
        for contact, message in notifications:
            assert uploader_contact != contact
            assert uploader_contact not in message.origin_tag
            assert uploader_contact not in message.directions
            assert "user-0001" not in message.origin_tag

    def test_server_priority_reorder(self, test_keypair):
        issuer, server, _ = build(test_keypair, capacity=1)
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        shuffled = [
            scored(test_keypair, "+20003", 90.0),
            scored(test_keypair, "+20001", 500.0),
            scored(test_keypair, "+20002", 400.0),
        ]
        result = server.process_alert_upload(key.token, "user-0001", shuffled, 0.0)
        assert opened(test_keypair, result.sent) == ["+20001"]
        assert opened(test_keypair, result.waitlisted) == ["+20002", "+20003"]

    def test_equal_scores_sent_in_ciphertext_string_order(self, stack, test_keypair):
        issuer, server, _ = stack
        tied = [scored(test_keypair, c, 100.0) for c in ("+20009", "+20005", "+20007")]
        expected = sorted(tied, key=lambda sc: str(sc.envelope.ciphertext))
        for upload in (tied, tied[::-1]):
            key = issuer.issue_activation_key(DOCTOR, "user-0001")
            result = server.process_alert_upload(key.token, "user-0001", upload, 0.0)
            assert [r.envelope for r in result.sent] == [sc.envelope for sc in expected]

    def test_state_empty_between_transactions(self, stack, test_keypair):
        issuer, server, _ = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        server.process_alert_upload(
            key.token, "user-0001", [scored(test_keypair, "+20001", 5.0)], 0.0
        )
        assert server.idle_state() == {"waitlist_origins": 0, "waitlist_records": 0}


class TestWaitlist:
    def primed(self, test_keypair):
        issuer, server, notifications = build(test_keypair, capacity=1)
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        result = server.process_alert_upload(
            key.token,
            "user-0001",
            [
                scored(test_keypair, "+20001", 500.0),
                scored(test_keypair, "+20003", 90.0),
                scored(test_keypair, "+20004", 10.0),
            ],
            now=0.0,
        )
        return server, notifications, result

    def test_release_promotes_in_priority_order(self, test_keypair):
        server, notifications, result = self.primed(test_keypair)
        promoted = server.release_waitlist(result.origin_tag, 1, now=50.0)
        assert opened(test_keypair, promoted) == ["+20003"]
        # the contact the result waitlisted first; the result itself is unchanged
        assert promoted == result.waitlisted[:1] and len(result.waitlisted) == 2
        assert notifications[-1][0] == "+20003"
        assert notifications[-1][1].origin_tag == result.origin_tag
        assert server.idle_state()["waitlist_records"] == 1

    def test_zero_capacity_changes_nothing(self, test_keypair):
        server, notifications, result = self.primed(test_keypair)
        before = len(notifications)
        assert server.release_waitlist(result.origin_tag, 0, now=50.0) == []
        assert len(notifications) == before

    def test_unknown_origin(self, test_keypair):
        server, _, _ = self.primed(test_keypair)
        with pytest.raises(UnknownOrigin):
            server.release_waitlist("00000099-0000000000000000", 1)

    def test_drained_waitlist_leaves_no_state(self, test_keypair):
        server, _, result = self.primed(test_keypair)
        server.release_waitlist(result.origin_tag, 5, now=50.0)
        assert server.idle_state() == {"waitlist_origins": 0, "waitlist_records": 0}
        with pytest.raises(UnknownOrigin):
            server.release_waitlist(result.origin_tag, 1, now=60.0)

    def test_ttl_purge(self, test_keypair):
        server, _, result = self.primed(test_keypair)
        assert server.purge_expired_waitlists(now=13 * 86400.0) == 0
        assert server.purge_expired_waitlists(now=15 * 86400.0) == 1
        assert server.idle_state()["waitlist_origins"] == 0


class TestYellowDispatch:
    def test_red_tag_authorises_one_yellow_hop(self, stack, test_keypair):
        issuer, server, notifications = stack
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        red = server.process_alert_upload(
            key.token, "user-0001", [scored(test_keypair, "+20001", 5.0)], 0.0
        )
        yellow = server.process_yellow_dispatch(
            red.origin_tag, [scored(test_keypair, "+20009", 7.0)], 1.0
        )
        assert opened(test_keypair, yellow.sent) == ["+20009"]
        assert notifications[-1][0] == "+20009"
        assert yellow.level is AlertLevel.YELLOW
        assert notifications[-1][1].level is AlertLevel.YELLOW
        # a yellow tag cannot authorise a further hop
        with pytest.raises(UnknownOrigin):
            server.process_yellow_dispatch(
                yellow.origin_tag, [scored(test_keypair, "+20010", 1.0)], 2.0
            )

    def test_forged_tag_rejected(self, stack, test_keypair):
        _, server, _ = stack
        with pytest.raises(UnknownOrigin):
            server.process_yellow_dispatch(
                "00000001-0123456789abcdef", [scored(test_keypair, "+20001", 1.0)], 0.0
            )
        with pytest.raises(UnknownOrigin):
            server.process_yellow_dispatch(
                "not-even-a-tag", [scored(test_keypair, "+20001", 1.0)], 0.0
            )


def test_single_use_across_a_whole_session(stack, test_keypair):
    issuer, server, _ = stack
    accepted: dict[str, int] = {}
    for index in range(8):
        key = issuer.issue_activation_key(DOCTOR, f"user-{index:04d}")
        for attempt in range(3):
            outcome = server.validate_and_consume(key.token, key.bound_user_id)
            if outcome is ValidationOutcome.ACCEPTED:
                accepted[key.token] = accepted.get(key.token, 0) + 1
    assert set(accepted.values()) == {1}


class TestLazyDecryption:
    """The server decrypts an envelope only to notify its recipient."""

    def upload(self, test_keypair, contacts, capacity):
        issuer, server, notifications = build(test_keypair, capacity)
        key = issuer.issue_activation_key(DOCTOR, "user-0001")
        result = server.process_alert_upload(key.token, "user-0001", contacts, now=0.0)
        return server, notifications, result

    def five(self, test_keypair):
        return [scored(test_keypair, f"+2000{i}", 100.0 - i) for i in range(1, 6)]

    @pytest.mark.parametrize("capacity, sent", [(2, 2), (None, 5)])
    def test_decrypts_equal_sent(self, test_keypair, decrypts, capacity, sent):
        _, _, result = self.upload(test_keypair, self.five(test_keypair), capacity=capacity)
        assert len(decrypts) == len(result.sent) == sent
        assert len(result.waitlisted) == 5 - sent

    def test_zero_capacity_decrypts_nothing(self, test_keypair, decrypts):
        server, notifications, result = self.upload(
            test_keypair, self.five(test_keypair), capacity=0
        )
        assert not decrypts and not notifications
        assert len(result.waitlisted) == 5
        assert server.idle_state() == {"waitlist_origins": 1, "waitlist_records": 5}

    def test_release_decrypts_only_what_it_promotes(self, test_keypair, decrypts):
        server, notifications, result = self.upload(
            test_keypair, self.five(test_keypair), capacity=1
        )
        decrypts.clear()
        promoted = server.release_waitlist(result.origin_tag, 2, now=10.0)
        assert opened(test_keypair, promoted) == ["+20002", "+20003"]
        assert decrypts == [r.envelope for r in promoted]
        assert [c for c, _ in notifications] == ["+20001", "+20002", "+20003"]
        assert server.idle_state()["waitlist_records"] == 2

    def test_malformed_tail_entry_skipped_at_release(self, test_keypair, decrypts):
        garbage = ScoredContact(
            Envelope(ciphertext=7, key_tag=test_keypair.key_tag), 90.0
        )  # in range, but does not decrypt to a packed contact
        contacts = [
            scored(test_keypair, "+20001", 100.0),
            garbage,
            scored(test_keypair, "+20003", 80.0),
        ]
        server, notifications, result = self.upload(test_keypair, contacts, capacity=1)
        # the tail was never decrypted, so the bad entry counts as waitlisted
        assert result.decrypt_failures == 0 and len(result.waitlisted) == 2
        promoted = server.release_waitlist(result.origin_tag, 1, now=10.0)
        assert opened(test_keypair, promoted) == ["+20003"]
        assert len(decrypts) == 3
        assert [c for c, _ in notifications] == ["+20001", "+20003"]
        assert server.idle_state() == {"waitlist_origins": 0, "waitlist_records": 0}

    def test_waitlist_bucket_holds_no_plaintext(self, test_keypair):
        server, _, _ = self.upload(test_keypair, self.five(test_keypair), capacity=2)
        held = repr(server._waitlists)
        for i in range(1, 6):
            assert f"+2000{i}" not in held

    def test_results_hold_no_plaintext(self, test_keypair):
        server, notifications, result = self.upload(
            test_keypair, self.five(test_keypair), capacity=2
        )
        promoted = server.release_waitlist(result.origin_tag, 2, now=10.0)
        # the contacts reached the notification sink, and only it
        assert [c for c, _ in notifications] == [f"+2000{i}" for i in range(1, 5)]
        held = repr(result) + repr(promoted)
        for i in range(1, 6):
            assert f"+2000{i}" not in held
