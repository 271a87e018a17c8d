from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proximity_sim.authority import (
    DispatchServer,
    DoctorCredential,
    KeyIssuer,
    TransportError,
)
from proximity_sim.crypto import encode_contact, encrypt, keypair_from_primes
from proximity_sim.device import (
    DeviceMode,
    DeviceState,
    EncounterEntry,
    InvalidKey,
    OutOfRange,
    UploadFailure,
    interaction_strength,
)
from proximity_sim.messages import AlertLevel, AlertMessage, RED_DIRECTIONS, YELLOW_DIRECTIONS

DAY = 86400.0
WINDOW = 14 * DAY
KEYPAIR = keypair_from_primes(2**61 - 1, 2**89 - 1, e=65537)


def make_device(**kwargs) -> DeviceState:
    defaults = dict(
        user_id="user-0001",
        own_contact="+10001",
        retention_window=WINDOW,
        tracking_threshold=3.0,
    )
    defaults.update(kwargs)
    return DeviceState(**defaults)


def envelope_for(test_keypair, contact: str):
    return encrypt(test_keypair.public, encode_contact(contact))


def make_stack(test_keypair, capacity=None):
    issuer = KeyIssuer(secret=b"issuer")
    sink = []
    server = DispatchServer(
        keypair=test_keypair,
        issuer=issuer,
        secret=b"dispatch",
        notify=lambda contact, msg: sink.append((contact, msg)),
        capacity=capacity,
    )
    return issuer, server, sink


class TestRecording:
    def test_close_encounter_stored(self, test_keypair):
        device = make_device()
        entry = device.record_encounter(
            envelope_for(test_keypair, "+20001"), started_at=0.0, duration=300.0,
            mean_rssi=-65.0, estimated_distance=2.0,
        )
        assert device.ledger.entries == [entry]

    def test_beyond_threshold_rejected(self, test_keypair):
        device = make_device()
        with pytest.raises(OutOfRange):
            device.record_encounter(
                envelope_for(test_keypair, "+20001"), 0.0, 60.0, -79.0, 9.5
            )
        assert not device.ledger.entries

    def test_same_peer_twice_stays_two_entries(self, test_keypair):
        device = make_device()
        envelope = envelope_for(test_keypair, "+20001")
        device.record_encounter(envelope, 0.0, 300.0, -65.0, 2.0)
        device.record_encounter(envelope, 1000.0, 60.0, -65.0, 2.0)
        assert len(device.ledger.entries) == 2

    def test_recording_continues_in_alert_mode(self, test_keypair):
        device = make_device()
        device.mode = DeviceMode.ALERT
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 10.0, -60.0, 1.2)
        assert len(device.ledger.entries) == 1


class TestPurge:
    def test_old_entry_removed(self, test_keypair):
        device = make_device()
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 600.0, -65.0, 2.0)
        removed = device.purge_expired(now=600.0 + WINDOW + DAY)
        assert removed == 1 and not device.ledger.entries

    def test_boundary_is_inclusive(self, test_keypair):
        device = make_device()
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 600.0, -65.0, 2.0)
        assert device.purge_expired(now=600.0 + WINDOW) == 0
        assert len(device.ledger.entries) == 1

    def test_idempotent_and_empty_noop(self):
        device = make_device()
        assert device.purge_expired(now=1e9) == 0
        assert device.purge_expired(now=1e9) == 0

    def test_retention_invariant(self, test_keypair):
        device = make_device()
        for start in range(0, 40):
            device.record_encounter(
                envelope_for(test_keypair, "+20001"), start * DAY, 300.0, -65.0, 2.0
            )
        now = 40 * DAY
        device.purge_expired(now)
        assert min(e.ended_at for e in device.ledger.entries) >= now - WINDOW


    def test_append_purges_once_the_ledger_doubles(self, test_keypair):
        device = make_device()
        envelope = envelope_for(test_keypair, "+20001")
        every: list[EncounterEntry] = []
        for day in range(400):
            every.append(device.record_encounter(envelope, day * DAY, 300.0, -65.0, 2.0))
            live = [e for e in every if e.ended_at >= day * DAY - WINDOW]
            # expired entries never outnumber the live ones by much
            assert len(device.ledger.entries) <= 2 * len(live) + 1
            # and the ledger a read sees is the one it would see unpurged
            assert [e for e in device.ledger.entries if e.ended_at >= day * DAY - WINDOW] == live


class TestInteractionStrength:
    def entry(self, test_keypair, duration, distance):
        return EncounterEntry(
            peer_envelope=envelope_for(test_keypair, "+20001"),
            started_at=0.0, duration=duration, mean_rssi=-60.0,
            estimated_distance=distance,
        )

    def test_single_entry_example(self, test_keypair):
        entries = [self.entry(test_keypair, 600.0, 1.0)]
        assert interaction_strength(entries, 3.0) == pytest.approx(400.0)

    def test_entries_sum(self, test_keypair):
        entries = [
            self.entry(test_keypair, 600.0, 1.0),
            self.entry(test_keypair, 300.0, 2.0),
        ]
        assert interaction_strength(entries, 3.0) == pytest.approx(500.0)

    def test_cutoff_contributes_zero(self, test_keypair):
        entries = [self.entry(test_keypair, 600.0, 3.0)]
        assert interaction_strength(entries, 3.0) == 0.0

    @given(st.floats(min_value=1.0, max_value=5000.0),
           st.floats(min_value=0.01, max_value=2.9))
    @settings(max_examples=100, deadline=None)
    def test_adding_an_entry_never_decreases(self, duration, distance):
        base = [self.entry(KEYPAIR, 100.0, 1.5)]
        extended = base + [self.entry(KEYPAIR, duration, distance)]
        assert interaction_strength(extended, 3.0) >= interaction_strength(base, 3.0)

    def test_monotone_in_duration_and_distance(self, test_keypair):
        short = interaction_strength([self.entry(test_keypair, 100.0, 1.0)], 3.0)
        long = interaction_strength([self.entry(test_keypair, 200.0, 1.0)], 3.0)
        far = interaction_strength([self.entry(test_keypair, 100.0, 2.5)], 3.0)
        assert long > short > far


class TestScoredContacts:
    def test_one_score_per_peer_in_ledger_order_after_purge(self, test_keypair):
        device = make_device()
        expired = envelope_for(test_keypair, "+20009")
        low, high = envelope_for(test_keypair, "+20001"), envelope_for(test_keypair, "+20002")
        device.record_encounter(expired, 0.0, 600.0, -60.0, 1.0)
        device.record_encounter(low, 2 * DAY, 30.0, -60.0, 2.0)    # 10
        device.record_encounter(high, 2 * DAY, 600.0, -60.0, 1.0)  # 400
        device.record_encounter(low, 3 * DAY, 60.0, -60.0, 2.0)    # + 20
        device.record_encounter(expired, 3 * DAY, 60.0, -60.0, 1.0)
        # at 14 days past 1 day the first entry (ended at 600 s) expires,
        # while the later visit keeps +20009 in the ledger
        scored = device.scored_contacts(now=WINDOW + DAY)
        assert [s.envelope for s in scored] == [low, high, expired]
        assert [round(s.score) for s in scored] == [30, 400, 40]
        assert len(device.ledger.entries) == 4
        assert min(e.started_at for e in device.ledger.entries) == 2 * DAY


class TestActivation:
    def test_valid_token_activates_and_uploads(self, test_keypair):
        issuer, server, sink = make_stack(test_keypair)
        device = make_device()
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 600.0, -60.0, 1.0)
        key = issuer.issue_activation_key(DoctorCredential("doc", True), device.user_id)
        result = device.activate_alert_mode(key.token, server, now=700.0)
        assert device.mode is DeviceMode.ALERT
        assert result.level is AlertLevel.RED
        assert len(result.sent) == 1 and not result.waitlisted
        assert [contact for contact, _ in sink] == ["+20001"]

    def test_server_capacity_bounds_the_upload(self, test_keypair):
        issuer, server, sink = make_stack(test_keypair, capacity=1)
        device = make_device()
        for contact in ("+20001", "+20002", "+20003"):
            device.record_encounter(envelope_for(test_keypair, contact), 0.0, 600.0, -60.0, 1.0)
        key = issuer.issue_activation_key(DoctorCredential("doc", True), device.user_id)
        # the device has no way to ask for a wider fan-out
        with pytest.raises(TypeError):
            device.activate_alert_mode(key.token, server, now=700.0, capacity=None)
        result = device.activate_alert_mode(key.token, server, now=700.0)
        assert len(sink) == 1
        assert len(result.sent) == 1 and len(result.waitlisted) == 2

    def test_consumed_token_rejected_second_time(self, test_keypair):
        issuer, server, _ = make_stack(test_keypair)
        first = make_device(user_id="user-0001")
        second = make_device(user_id="user-0001", own_contact="+10002")
        key = issuer.issue_activation_key(DoctorCredential("doc", True), "user-0001")
        first.activate_alert_mode(key.token, server, now=0.0)
        with pytest.raises(InvalidKey):
            second.activate_alert_mode(key.token, server, now=0.0)
        assert second.mode is DeviceMode.TRACKING

    def test_malformed_token_rejected(self, test_keypair):
        _, server, _ = make_stack(test_keypair)
        device = make_device()
        with pytest.raises(InvalidKey):
            device.activate_alert_mode("not-a-token", server, now=0.0)
        assert device.mode is DeviceMode.TRACKING

    def test_transport_failure_keeps_tracking_and_allows_retry(self, test_keypair):
        issuer, server, _ = make_stack(test_keypair)
        device = make_device()
        key = issuer.issue_activation_key(DoctorCredential("doc", True), device.user_id)

        class FlakyServer:
            def __init__(self, inner):
                self.inner = inner
                self.calls = 0

            def process_alert_upload(self, **kwargs):
                self.calls += 1
                if self.calls == 1:
                    raise TransportError("bus dropped the message")
                return self.inner.process_alert_upload(**kwargs)

        flaky = FlakyServer(server)
        with pytest.raises(UploadFailure):
            device.activate_alert_mode(key.token, flaky, now=0.0)
        assert device.mode is DeviceMode.TRACKING
        # the token survived the transport fault, retry succeeds
        device.activate_alert_mode(key.token, flaky, now=0.0)
        assert device.mode is DeviceMode.ALERT

    def test_double_activation_rejected(self, test_keypair):
        issuer, server, _ = make_stack(test_keypair)
        device = make_device()
        key = issuer.issue_activation_key(DoctorCredential("doc", True), device.user_id)
        device.activate_alert_mode(key.token, server, now=0.0)
        with pytest.raises(ValueError):
            device.activate_alert_mode(key.token, server, now=0.0)


class TestNotifications:
    def red(self, tag="00000001-aabbccdd"):
        return AlertMessage(AlertLevel.RED, RED_DIRECTIONS, origin_tag=tag)

    def yellow(self):
        return AlertMessage(AlertLevel.YELLOW, YELLOW_DIRECTIONS,
                            origin_tag="00000002-eeff0011")

    def test_red_with_yellow_enabled_requests_fanout(self, test_keypair):
        device = make_device(yellow_enabled=True)
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 60.0, -60.0, 1.0)
        contacts = device.handle_notification(self.red(), now=100.0)
        # the device's own scored peers, to go out under the red alert's tag
        assert [c.envelope for c in contacts] == [envelope_for(test_keypair, "+20001")]
        assert contacts == device.scored_contacts(now=100.0)

    def test_red_without_yellow_enabled_requests_nothing(self, test_keypair):
        device = make_device(yellow_enabled=False)
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 60.0, -60.0, 1.0)
        assert device.handle_notification(self.red(), now=100.0) is None

    def test_yellow_never_forwarded(self, test_keypair):
        device = make_device(yellow_enabled=True)
        device.record_encounter(envelope_for(test_keypair, "+20001"), 0.0, 60.0, -60.0, 1.0)
        assert device.handle_notification(self.yellow(), now=100.0) is None

    def test_tested_positive_does_not_fan_out(self):
        device = make_device(yellow_enabled=True)
        device.mode = DeviceMode.ALERT
        assert device.handle_notification(self.red(), now=100.0) is None


def test_ledger_holds_no_plaintext_contacts(test_keypair):
    # no stored byte sequence equals any agent's packed contact
    device = make_device()
    contacts = [f"+2000{i}" for i in range(1, 8)]
    for contact in contacts:
        device.record_encounter(envelope_for(test_keypair, contact), 0.0, 60.0, -60.0, 1.0)
    packed = {encode_contact(c) for c in contacts}
    stored = {e.peer_envelope.ciphertext for e in device.ledger.entries}
    assert not packed & stored
