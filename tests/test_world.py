from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proximity_sim.crypto import decode_contact, decrypt, keypair_from_primes
from proximity_sim.world import (
    EmptyLog,
    HealthState,
    NonpositiveDistance,
    RadioModel,
    World,
    WorldConfig,
    estimate_distance,
    false_alert_rate,
    global_ledger_view,
    parse_contact_trace,
    rssi_at_distance,
)

NOISELESS = RadioModel(noise_sigma=0.0)
KEYPAIR = keypair_from_primes(2**61 - 1, 2**89 - 1, e=65537)


def quiet_config(**kwargs) -> WorldConfig:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return WorldConfig(**kwargs)


def static_pair_trace(distance: float, seconds: float) -> list:
    return [(0, 1, 0.0, seconds, distance)]


def small_world(trace, seed=1, **kwargs) -> World:
    defaults = dict(
        agent_count=2,
        box_size=20.0,
        infection_prob_per_second=0.0,
        tracking_threshold=3.0,
        tick_seconds=10.0,
        app_user_fraction=1.0,
        incubation_seconds=100000.0,
        horizon_seconds=400.0,
        initial_infected=1,
        radio=NOISELESS,
    )
    defaults.update(kwargs)
    config = quiet_config(**defaults)
    return World(config, seed=seed, keypair=KEYPAIR, trace=trace)


class TestRadio:
    def test_reference_distance(self):
        assert rssi_at_distance(1.0, NOISELESS) == pytest.approx(-59.0)

    def test_two_meters(self):
        assert rssi_at_distance(2.0, NOISELESS) == pytest.approx(-65.0206, abs=1e-3)

    def test_nonpositive_distance(self):
        with pytest.raises(NonpositiveDistance):
            rssi_at_distance(0.0, NOISELESS)
        with pytest.raises(NonpositiveDistance):
            rssi_at_distance(-2.0, NOISELESS)

    def test_noiseless_strictly_decreasing(self):
        distances = np.linspace(0.5, 12.0, 40)
        values = [rssi_at_distance(float(d), NOISELESS) for d in distances]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_noise_uses_the_stream(self):
        rng = np.random.Generator(np.random.PCG64(1))
        noisy = RadioModel(noise_sigma=2.0)
        a = rssi_at_distance(2.0, noisy, rng)
        b = rssi_at_distance(2.0, noisy, rng)
        assert a != b

    def test_estimate_at_reference(self):
        assert estimate_distance(-59.0, NOISELESS) == pytest.approx(1.0)

    def test_estimate_two_meters(self):
        assert estimate_distance(-65.0206, NOISELESS) == pytest.approx(2.0, abs=1e-3)

    def test_estimate_ten_meters(self):
        assert estimate_distance(-79.0, NOISELESS) == pytest.approx(10.0)

    @given(st.floats(min_value=0.05, max_value=50.0))
    @settings(max_examples=120, deadline=None)
    def test_estimate_inverts_noiseless_model(self, distance):
        rssi = rssi_at_distance(distance, NOISELESS)
        assert estimate_distance(rssi, NOISELESS) == pytest.approx(distance, rel=1e-9)


class TestWorldConfig:
    def test_defaults_validate(self):
        WorldConfig()

    def test_reversed_ranges_warn_but_build(self):
        with pytest.warns(UserWarning):
            WorldConfig(tracking_threshold=12.0)  # beyond the 10 m radio range

    def test_bad_values_rejected(self):
        with pytest.raises(ValueError):
            WorldConfig(agent_count=1)
        with pytest.raises(ValueError):
            WorldConfig(app_user_fraction=1.5)
        with pytest.raises(ValueError):
            WorldConfig(initial_infected=500, agent_count=100)
        with pytest.raises(ValueError):
            WorldConfig(key_bits=64)


class TestTraceReplay:
    def test_parse_round_trip(self):
        text = "# contact intervals\n0, 1, 0.0, 300.0, 2.0\n\n2,3,10,40,1.5\n"
        intervals = parse_contact_trace(text)
        assert intervals == [(0, 1, 0.0, 300.0, 2.0), (2, 3, 10.0, 40.0, 1.5)]

    def test_bad_lines_rejected(self):
        with pytest.raises(ValueError):
            parse_contact_trace("0,1,0,300\n")
        with pytest.raises(ValueError):
            parse_contact_trace("0,0,0,300,2\n")
        with pytest.raises(ValueError):
            parse_contact_trace("0,1,300,300,2\n")

    def test_trace_agent_ids_validated(self):
        with pytest.raises(ValueError):
            small_world(trace=[(0, 5, 0.0, 10.0, 2.0)])

    def test_static_pair_records_single_entry_per_side(self):
        world = small_world(static_pair_trace(2.0, 300.0))
        world.run()
        for agent in world.agents:
            entries = agent.device.ledger.entries
            assert len(entries) == 1
            assert entries[0].duration == pytest.approx(300.0)
            assert entries[0].estimated_distance == pytest.approx(2.0, rel=1e-9)

    def test_beyond_threshold_never_recorded(self):
        world = small_world(static_pair_trace(8.0, 300.0))
        world.run()
        assert all(not a.device.ledger.entries for a in world.agents)

    def test_wide_threshold_records_distant_contact(self):
        world = small_world(static_pair_trace(8.0, 300.0), tracking_threshold=10.0)
        world.run()
        entries = world.agents[0].device.ledger.entries
        assert len(entries) == 1
        assert entries[0].estimated_distance == pytest.approx(8.0, rel=1e-9)

    def test_gap_tick_closes_and_reopens(self):
        trace = [(0, 1, 0.0, 100.0, 2.0), (0, 1, 200.0, 300.0, 2.0)]
        world = small_world(trace)
        world.run()
        entries = world.agents[0].device.ledger.entries
        assert [e.duration for e in entries] == [pytest.approx(100.0), pytest.approx(100.0)]


class TestInfectionAndProtocol:
    def run_protocol_world(self, **kwargs):
        defaults = dict(
            agent_count=30,
            box_size=22.0,
            infection_prob_per_second=0.02,
            tracking_threshold=2.5,
            infection_range=2.5,
            tick_seconds=10.0,
            app_user_fraction=0.8,
            incubation_seconds=900.0,
            horizon_seconds=2700.0,
            initial_infected=4,
            radio=NOISELESS,
        )
        defaults.update(kwargs)
        world = small_world(None, seed=11, **defaults)
        world.run()
        return world

    def test_infection_locality(self):
        world = self.run_protocol_world()
        infections = [e for e in world.events if e["type"] == "infection"]
        assert infections
        assert all(e["distance"] <= world.config.infection_range for e in infections)

    def test_detected_agents_stop_transmitting(self):
        world = self.run_protocol_world()
        detected_at = {
            e["agent"]: e["t"] for e in world.events if e["type"] == "detected"
        }
        for event in world.events:
            if event["type"] == "infection" and event["source"] in detected_at:
                assert event["t"] <= detected_at[event["source"]]

    def test_every_secondary_case_reached(self):
        world = self.run_protocol_world()
        dispatched: dict[int, set[int]] = {}
        for event in world.events:
            if event["type"] == "dispatch" and event["level"] == "red":
                dispatched.setdefault(event["uploader"], set()).add(event["recipient"])
        detected = {e["agent"] for e in world.events if e["type"] == "detected"}
        checked = 0
        for event in world.events:
            if event["type"] != "infection":
                continue
            source, target = event["source"], event["target"]
            if source in detected and world.agents[source].device and world.agents[target].device:
                assert target in dispatched.get(source, set())
                checked += 1
        assert checked > 0

    def test_notifications_only_to_in_window_peers(self):
        world = self.run_protocol_world()
        encounters: dict[tuple[int, int], int] = {}
        for event in world.events:
            if event["type"] == "encounter":
                key = (event["recorder"], event["peer"])
                encounters[key] = encounters.get(key, 0) + 1
        for event in world.events:
            if event["type"] == "notify":
                assert (event["uploader"], event["recipient"]) in encounters

    def test_non_users_never_notified_or_recorded(self, test_keypair):
        world = self.run_protocol_world(app_user_fraction=0.6)
        non_users = {a.id for a in world.agents if a.device is None}
        for event in world.events:
            if event["type"] in ("notify", "dispatch"):
                assert event["recipient"] not in non_users
            if event["type"] == "encounter":
                assert event["recorder"] not in non_users
                assert event["peer"] not in non_users
        view = global_ledger_view(world)
        contacts = {
            decode_contact(decrypt(test_keypair, entry.peer_envelope))
            for entries in view.values()
            for entry in entries
        }
        user_contacts = {a.device.own_contact for a in world.agents if a.device}
        assert contacts <= user_contacts

    def test_tracking_devices_never_emit(self):
        world = self.run_protocol_world()
        uploaders = {e["uploader"] for e in world.events if e["type"] == "upload"}
        for agent_id in uploaders:
            device = world.agents[agent_id].device
            assert device.tested_positive
            assert device.mode.value == "alert"

    def test_activation_keys_consumed_exactly_once(self):
        world = self.run_protocol_world()
        assert world.issuer.registry  # at least one detection uploaded
        assert all(key.consumed for key in world.issuer.registry.values())
        uploads = [e for e in world.events if e["type"] == "upload" and e["token"]]
        assert len(uploads) == len(world.issuer.registry)

    def test_symmetric_recording_when_noiseless(self):
        world = self.run_protocol_world()
        events = {
            (e["recorder"], e["peer"], e["start"])
            for e in world.events
            if e["type"] == "encounter"
        }
        assert world.summary()["asymmetric_encounters"] == 0
        for recorder, peer, start in events:
            assert (peer, recorder, start) in events

    def test_determinism_of_event_log(self):
        first = self.run_protocol_world()
        second = self.run_protocol_world()
        assert first.events == second.events

    def test_noise_may_break_symmetry_but_is_counted(self):
        world = self.run_protocol_world(radio=RadioModel(noise_sigma=3.0))
        summary = world.summary()
        assert summary["asymmetric_encounters"] >= 0  # reported, not forbidden


class TestLedgerView:
    def test_mutual_encounter_two_entries(self, test_keypair):
        world = small_world(static_pair_trace(2.0, 300.0))
        world.run()
        view = global_ledger_view(world)
        assert sum(len(v) for v in view.values()) == 2

    def test_empty_world_empty_view(self):
        world = small_world(static_pair_trace(8.0, 100.0))
        world.run()
        view = global_ledger_view(world)
        assert sum(len(v) for v in view.values()) == 0

    def test_decrypted_view_matches_ground_truth(self, test_keypair):
        world = small_world(None, seed=9, agent_count=12, box_size=14.0,
                            horizon_seconds=1200.0, incubation_seconds=100000.0,
                            initial_infected=1, infection_prob_per_second=0.0)
        world.run()
        truth: set[tuple[str, str]] = set()
        for event in world.events:
            if event["type"] == "encounter":
                truth.add((
                    world.agents[event["recorder"]].device.own_contact,
                    world.agents[event["peer"]].device.own_contact,
                ))
        seen: set[tuple[str, str]] = set()
        for owner, entries in global_ledger_view(world).items():
            owner_contact = next(
                a.device.own_contact for a in world.agents
                if a.device and a.device.user_id == owner
            )
            for entry in entries:
                peer = decode_contact(decrypt(test_keypair, entry.peer_envelope))
                seen.add((owner_contact, peer))
        # every surviving ledger pair appeared in the event log
        assert seen <= truth


class TestFalseAlerts:
    def run_with_threshold(self, threshold, seed=17):
        world = small_world(
            None,
            seed=seed,
            agent_count=60,
            box_size=45.0,
            infection_prob_per_second=0.02,
            tracking_threshold=threshold,
            infection_range=2.5,
            tick_seconds=10.0,
            app_user_fraction=0.9,
            incubation_seconds=900.0,
            horizon_seconds=2700.0,
            initial_infected=6,
        )
        world.run()
        return world

    def test_matched_threshold_no_false_alerts(self):
        world = self.run_with_threshold(2.5)
        assert false_alert_rate(world.events, 2.5) == 0.0

    def test_wider_threshold_more_false_alerts(self):
        narrow = self.run_with_threshold(3.0)
        wide = self.run_with_threshold(10.0)
        narrow_rate = false_alert_rate(narrow.events, 2.5)
        wide_rate = false_alert_rate(wide.events, 2.5)
        assert wide_rate >= narrow_rate

    def test_empty_log_raises(self):
        world = small_world(static_pair_trace(2.0, 100.0))
        world.run()  # nobody detected: no red notifications
        with pytest.raises(EmptyLog):
            false_alert_rate(world.events, 2.5)


class TestYellowFanOut:
    def test_one_hop_cascade(self):
        world = small_world(
            None,
            seed=23,
            agent_count=24,
            box_size=18.0,
            infection_prob_per_second=0.02,
            tracking_threshold=2.5,
            infection_range=2.5,
            incubation_seconds=900.0,
            horizon_seconds=1800.0,
            initial_infected=3,
            yellow_enabled=True,
        )
        world.run()
        levels = [e["level"] for e in world.events if e["type"] == "upload"]
        assert "yellow" in levels
        # every yellow upload is authorised by a red tag; depth stays at one
        red_tags = {
            e["origin_tag"] for e in world.events
            if e["type"] == "upload" and e["level"] == "red"
        }
        yellow_tags = {
            e["origin_tag"] for e in world.events
            if e["type"] == "upload" and e["level"] == "yellow"
        }
        assert red_tags.isdisjoint(yellow_tags)


class TestWaitlistInWorld:
    def test_capacity_waitlists_then_release(self):
        world = small_world(
            None,
            seed=31,
            agent_count=24,
            box_size=16.0,
            infection_prob_per_second=0.03,
            tracking_threshold=2.5,
            infection_range=2.5,
            incubation_seconds=600.0,
            horizon_seconds=1500.0,
            initial_infected=3,
            dispatch_capacity=1,
        )
        world.run()
        waitlisted = [
            e for e in world.events
            if e["type"] == "dispatch" and e["status"] == "waitlisted"
        ]
        assert waitlisted
        tag = waitlisted[0]["origin_tag"]
        released = world.release_waitlist(tag, 1)
        assert released == 1
        assert any(e["type"] == "waitlist_release" for e in world.events)
        last_notify = [e for e in world.events if e["type"] == "notify"][-1]
        assert last_notify["origin_tag"] == tag

    def test_waitlists_expire_on_later_dispatches(self):
        world = small_world(
            None,
            seed=31,
            agent_count=24,
            box_size=30.0,
            infection_prob_per_second=0.01,
            tracking_threshold=2.5,
            infection_range=2.5,
            incubation_seconds=300.0,
            horizon_seconds=1500.0,
            initial_infected=2,
            dispatch_capacity=1,
        )
        world.run()
        ttl = world.config.incubation_seconds
        uploads = [e for e in world.events if e["type"] == "upload"]
        last = uploads[-1]["t"]
        # some overflow was stale by the last dispatch, so a purge was due
        assert any(e["n_waitlisted"] and last - e["t"] > ttl for e in uploads)
        kept = world.dispatch_server._waitlists.values()
        assert kept and all(last - bucket.created_at <= ttl for bucket in kept)


def test_detected_agents_do_not_move():
    world = small_world(
        None, seed=2, agent_count=6, box_size=10.0,
        infection_prob_per_second=0.05, infection_range=2.5,
        tracking_threshold=2.5, incubation_seconds=300.0,
        horizon_seconds=900.0, initial_infected=2,
    )
    steps = int(math.ceil(world.config.horizon_seconds / world.config.tick_seconds))
    positions_after_detection: dict[int, np.ndarray] = {}
    for _ in range(steps):
        world.tick()
        for agent in world.agents:
            if agent.health is HealthState.DETECTED:
                if agent.id in positions_after_detection:
                    assert np.array_equal(positions_after_detection[agent.id], agent.position)
                else:
                    positions_after_detection[agent.id] = agent.position.copy()
    assert positions_after_detection
