from __future__ import annotations

import hashlib
import gc
import json
import math
import re
import sys
import tracemalloc
import warnings
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from proximity_sim.authority import UnknownOrigin
from proximity_sim.cli import run_command
from proximity_sim.config import parse_config
from proximity_sim.crypto import Envelope, decode_contact, decrypt, keypair_from_primes
from proximity_sim.device import DeviceMode, EncounterEntry
from proximity_sim.world import (
    DEVICE_FIELDS,
    ENTRY_FIELDS,
    EVENT_FIELDS,
    NUMBER_FIELDS,
    EmptyLog,
    NonpositiveDistance,
    OverBudget,
    RadioModel,
    World,
    WorldConfig,
    _BYTES_PER_CANDIDATE,
    _BYTES_PER_SENSED_PAIR,
    _DETECTED,
    _INFECTED,
    _MAX_CANDIDATE_PAIRS,
    _MAX_SENSED_PAIRS,
    _SUSCEPTIBLE,
    _TICK_BUDGET_BYTES,
    estimate_distance,
    false_alert_rate,
    global_ledger_view,
    json_line_writer,
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
        a = rssi_at_distance(2.0, noisy) + rng.normal(0.0, noisy.noise_sigma)
        b = rssi_at_distance(2.0, noisy) + rng.normal(0.0, noisy.noise_sigma)
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

    def test_test_scale_key_caps_the_agent_count(self):
        config = WorldConfig(agent_count=90_000, initial_infected=1, key_bits=32)
        with pytest.raises(ValueError, match="at most 89999 agents"):
            World(config, seed=1)


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
        with pytest.raises(ValueError, match="line 1: negative agent id"):
            parse_contact_trace("-1,0,0,300,2\n")
        for bad in ("0,1,nan,300,2", "0,1,0,nan,2", "0,1,0,300,nan", "0,1,0,inf,2",
                    "0,1,0,300,inf"):
            with pytest.raises(ValueError, match="line 2: non-finite"):
                parse_contact_trace("# header\n" + bad + "\n")
        with pytest.raises(ValueError, match="line 2: could not convert string to float"):
            parse_contact_trace("0,1,0,50,2\n0,1,0,50,abc\n")
        with pytest.raises(ValueError, match="line 1: invalid literal for int"):
            parse_contact_trace("a,1,0,50,2\n")

    def test_trace_agent_ids_validated(self):
        with pytest.raises(ValueError):
            small_world(trace=[(0, 5, 0.0, 10.0, 2.0)])
        with pytest.raises(ValueError, match="agent -1"):
            small_world(trace=[(-1, 1, 0.0, 10.0, 2.0)])

    @pytest.mark.parametrize(
        "interval, fault",
        [
            ((0, 1, 0.0, 10.0, 0.0), "inconsistent interval"),  # zero distance
            ((0, 1, 0.0, 10.0, -1.0), "inconsistent interval"),  # negative distance
            ((1, 1, 0.0, 10.0, 2.0), "inconsistent interval"),  # self-pair
            ((0, 1, 0.0, 10.0, math.nan), "non-finite time or distance"),
            ((0, 1, 0.0, math.inf, 2.0), "non-finite time or distance"),
            ((0, 1, 10.0, 10.0, 2.0), "inconsistent interval"),  # empty
            ((0, 1, 10.0, 0.0, 2.0), "inconsistent interval"),  # reversed
        ],
    )
    def test_world_refuses_the_intervals_the_parser_refuses(self, interval, fault):
        with pytest.raises(ValueError, match=f"trace interval 1: {fault}"):
            small_world(trace=[(0, 1, 20.0, 30.0, 2.0), interval])
        with pytest.raises(ValueError, match=f"trace line 2: {fault}"):
            parse_contact_trace("0,1,20,30,2\n" + ",".join(map(str, interval)) + "\n")

    def test_overlapping_intervals_of_a_pair_rejected(self):
        with pytest.raises(ValueError, match="overlapping intervals for agents 0 and 1"):
            small_world(trace=[(0, 1, 0.0, 100.0, 2.0), (1, 0, 50.0, 150.0, 2.0)])
        # back to back is not an overlap
        small_world(trace=[(0, 1, 0.0, 100.0, 2.0), (0, 1, 100.0, 150.0, 2.0)])

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

    def test_sweep_equals_the_per_tick_filter(self):
        # random back-to-back and gapped intervals, some beyond radio range
        # and some on 0.7 s tick boundaries, each pair given higher id first,
        # against the filter the sweep replaced
        rng = np.random.default_rng(11)
        ticks = [0.0]
        while ticks[-1] < 60.0:
            ticks.append(ticks[-1] + 0.7)  # the times the world ticks at
        trace = []
        for a, b in {tuple(sorted(rng.choice(30, 2, replace=False))) for _ in range(120)}:
            p = np.sort(rng.choice(np.r_[rng.random(6) * 60.0, ticks], 5, replace=False)).tolist()
            for start, end in ((p[0], p[1]), (p[1], p[2]), (p[3], p[4])):
                trace.append((int(b), int(a), start, end, float(rng.random() * 14.0 + 0.5)))
        world = small_world(trace, agent_count=30, tick_seconds=0.7, horizon_seconds=60.0)
        radio_range = world.config.radio.max_radio_range
        while world.t < 65.0:
            expected = sorted((min(a, b), max(a, b), d) for a, b, start, end, d in trace
                              if start <= world.t < end and d <= radio_range)
            assert contact_tuples(world._contacts()) == expected
            world.tick()

    def test_pair_order_does_not_change_the_replay(self):
        # with shadowing, each direction of a pair draws its own noise, so
        # a pair given higher id first must still be sensed lower id first
        trace = [(0, 1, 0.0, 100.0, 2.0), (2, 3, 50.0, 200.0, 2.5), (1, 3, 120.0, 300.0, 1.5)]
        reversed_pairs = [(b, a, start, end, d) for a, b, start, end, d in trace]
        worlds = []
        for intervals in (trace, reversed_pairs):
            world = small_world(intervals, seed=3, agent_count=4,
                                radio=RadioModel(noise_sigma=2.0))
            world.run()
            worlds.append(world)
        ordered, reversed_world = worlds
        assert ordered.events == reversed_world.events
        assert ordered.device_snapshots() == reversed_world.device_snapshots()
        assert any(s["entries"] for s in ordered.device_snapshots())

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

    def test_tick_convention_initial_case_transmits_one_tick_more(self):
        # p = 1, and a fresh susceptible agent meets the initial case and its
        # first child once at every tick, t = 0 through 110 s
        config = quiet_config(
            agent_count=25, box_size=20.0, infection_prob_per_second=1.0,
            tick_seconds=10.0, app_user_fraction=0.0, incubation_seconds=100.0,
            horizon_seconds=120.0, initial_infected=1, key_bits=32, radio=NOISELESS,
        )
        (initial,) = np.flatnonzero(World(config, seed=5, trace=[])._health == _INFECTED)
        others = [i for i in range(config.agent_count) if i != initial]
        child = others[0]
        trace = [(case, peer, 10.0 * k, 10.0 * k + 10.0, 1.0)
                 for case, peers in ((initial, others[:12]), (child, others[12:]))
                 for k, peer in enumerate(peers)]
        world = World(config, seed=5, trace=trace)
        world.run()
        events = world.events
        ticks = {case: [e["t"] for e in events if e["type"] == "infection" and e["source"] == case]
                 for case in (initial, child)}
        # the initial case transmits on the tick it is infected on, its child does not
        assert ticks[initial] == [10.0 * k for k in range(11)]
        assert ticks[child] == [10.0 * k for k in range(1, 11)]
        for case in (initial, child):
            (detected,) = [i for i, e in enumerate(events)
                           if e["type"] == "detected" and e["agent"] == case]
            assert events[detected]["t"] == 100.0
            last = max(i for i, e in enumerate(events)
                       if e["type"] == "infection" and e["source"] == case)
            assert events[last]["t"] == 100.0 and last < detected

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
            assert device.mode.value == "alert"
            assert world.device_snapshot(device)["tested_positive"] is True

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
        # recounted from the log: the encounters one direction alone logged
        directions: dict[tuple, int] = {}
        for e in world.events:
            if e["type"] == "encounter":
                key = (min(e["recorder"], e["peer"]), max(e["recorder"], e["peer"]), e["start"])
                directions[key] = directions.get(key, 0) + 1
        one_way = sum(1 for n in directions.values() if n == 1)
        assert world.summary()["asymmetric_encounters"] == one_way > 0


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


def encounter_events(count: int) -> list[dict]:
    """Both directions of `count` distinct encounters, as the world logs them."""
    events = []
    for n in range(count):
        a, b, start = n % 100, 100 + n % 97, float(n)
        for recorder, peer in ((a, b), (b, a)):
            events.append(dict(
                type="encounter", recorder=recorder, peer=peer, start=start,
                end=start + 10.0, min_true_distance=2.0, mean_estimated_distance=2.0,
            ))
    return events


def traced_peak(call):
    """(result, peak bytes allocated while `call` ran)."""
    tracemalloc.start()
    try:
        result = call()
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestReportMemory:
    """The reports hold nothing per encounter: 40,000 encounter events
    indexed or kept in a set would take megabytes."""

    def test_false_alert_rate_without_red_indexes_nothing(self):
        log = encounter_events(20_000)

        def rate():
            with pytest.raises(EmptyLog):
                false_alert_rate(log, 2.5)

        _, peak = traced_peak(rate)
        assert peak < 100_000

    def test_false_alert_rate_indexes_only_the_notified_pairs(self):
        log = encounter_events(20_000) + [
            dict(type="upload", t=50.0, origin_tag="tag", retention_window=100.0),
            dict(type="notify", t=50.0, level="red", recipient=100, uploader=0,
                 origin_tag="tag"),
        ]
        for event in log[:2]:  # the in-window encounter of agents 0 and 100
            event["min_true_distance"] = 3.0
        rate, peak = traced_peak(lambda: false_alert_rate(log, 2.5))
        assert rate == 1.0
        assert peak < 100_000

    def test_summary_holds_no_set_of_every_encounter(self):
        # 50 disjoint pairs in contact every other tick: 20,000 symmetric
        # encounters, each logged in both directions
        pairs, cycles = 50, 400
        trace = [(2 * p, 2 * p + 1, 20.0 * c, 20.0 * c + 10.0, 2.0)
                 for c in range(cycles) for p in range(pairs)]
        world = small_world(trace, agent_count=2 * pairs, horizon_seconds=20.0 * cycles)
        world.run()
        summary = world.summary()
        assert summary["encounters"] == 40_000
        assert summary["asymmetric_encounters"] == 0
        # the one-way keys never outnumber the pairs that close in one tick
        assert sys.getsizeof(world._one_way) < 10_000
        # one direction closed while the other is still open counts once
        world = small_world(static_pair_trace(2.0, 100.0))
        world.tick()
        world._close_contact((0, 1))
        assert world.summary()["asymmetric_encounters"] == 1
        world.flush_open_encounters()
        assert world.summary()["asymmetric_encounters"] == 0
        assert world.summary()["encounters"] == 2


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
            horizon_seconds=1000.0,
            initial_infected=3,
            dispatch_capacity=1,
        )
        world.run()
        ttl = world.config.incubation_seconds
        waitlisted = [
            e for e in world.events
            if e["type"] == "dispatch" and e["status"] == "waitlisted"
        ]
        assert waitlisted
        tag = waitlisted[0]["origin_tag"]
        assert world.t - waitlisted[0]["t"] <= ttl
        released = world.release_waitlist(tag, 1)
        assert released == 1
        assert any(e["type"] == "waitlist_release" for e in world.events)
        last_notify = [e for e in world.events if e["type"] == "notify"][-1]
        assert last_notify["origin_tag"] == tag
        # a list past its time to live is dropped on release, not promoted
        stale = next(e for e in waitlisted if e["origin_tag"] != tag)
        server = world.dispatch_server
        assert stale["origin_tag"] in server._waitlists
        with pytest.raises(UnknownOrigin):
            server.release_waitlist(stale["origin_tag"], 1, now=stale["t"] + ttl + 1.0)

    def test_waitlists_expire_on_later_dispatches(self):
        # agents 0, 3 and 6 fall ill at 0, 400 and 600 s; each met two
        # others within the threshold shortly before its detection, so
        # with capacity 1 the uploads at 300, 700 and 900 s each waitlist
        # one recipient.  The first list is stale at the last upload, the
        # second only after it.  No draw of the seed enters the scenario.
        trace = [(0, 1, 0.0, 100.0, 2.0), (0, 2, 0.0, 100.0, 2.0),
                 (3, 4, 500.0, 600.0, 2.0), (3, 5, 500.0, 600.0, 2.0),
                 (6, 7, 700.0, 800.0, 2.0), (6, 8, 700.0, 800.0, 2.0)]
        for seed in (1, 31, 42):
            world = small_world(
                trace, seed=seed, agent_count=9, incubation_seconds=300.0,
                horizon_seconds=1100.0, dispatch_capacity=1,
            )
            world._health[:] = _SUSCEPTIBLE
            world._infected_at[:] = np.nan
            for agent, falls_ill in ((0, 0.0), (3, 400.0), (6, 600.0)):
                while world.t < falls_ill:
                    world.tick()
                world._health[agent] = _INFECTED
                world._infected_at[agent] = world.t
            while world.t < world.config.horizon_seconds:
                world.tick()
            ttl = world.config.incubation_seconds
            uploads = [e for e in world.events if e["type"] == "upload"]
            assert [(e["t"], e["n_waitlisted"]) for e in uploads] == [
                (300.0, 1), (700.0, 1), (900.0, 1)
            ]
            last = uploads[-1]["t"]
            # some overflow was stale by the last dispatch, so a purge was due
            assert any(e["n_waitlisted"] and last - e["t"] > ttl for e in uploads)
            # the per-tick purge keeps every list within the time to live
            # of the last tick, also after the last dispatch
            last_tick = world.t - world.config.tick_seconds
            kept = world.dispatch_server._waitlists.values()
            assert kept and all(last_tick - bucket.created_at <= ttl for bucket in kept)


def test_world_decrypts_only_sent_recipients(decrypts):
    config = quiet_config(
        agent_count=40, box_size=20.0, infection_prob_per_second=0.02,
        tracking_threshold=3.0, tick_seconds=10.0, app_user_fraction=1.0,
        incubation_seconds=300.0, horizon_seconds=900.0, initial_infected=3,
        dispatch_capacity=2, yellow_enabled=True, key_bits=32,
        radio=RadioModel(noise_sigma=2.0),
    )
    world = World(config, seed=5)
    world.run()
    dispatches = [e for e in world.events if e["type"] == "dispatch"]
    sent = sum(e["status"] == "sent" for e in dispatches)
    assert sent < len(dispatches)  # the capacity did waitlist recipients
    assert len(decrypts) == sent


def test_finished_world_freed_without_garbage_collection():
    gc.collect()
    gc.disable()
    try:
        world = small_world(
            None, seed=31, agent_count=24, box_size=16.0,
            infection_prob_per_second=0.03, tracking_threshold=2.5,
            incubation_seconds=600.0, horizon_seconds=1000.0,
            initial_infected=3, dispatch_capacity=1,
        )
        world.run()
        assert any(e["type"] == "notify" for e in world.events)
        ref = weakref.ref(world)
        del world
        assert ref() is None
    finally:
        gc.enable()


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
        for i in np.flatnonzero(world._health == _DETECTED).tolist():
            if i in positions_after_detection:
                assert np.array_equal(positions_after_detection[i], world._positions[i])
            else:
                positions_after_detection[i] = world._positions[i].copy()
    assert positions_after_detection


class TiledRows:
    """A motion stream that hands every agent drawing in one round the same
    random row, so the test knows each waypoint an agent walked through."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)
        self.rows: list[np.ndarray] = []

    def random(self, size):
        self.rows.append(self.rng.random(2))
        return np.tile(self.rows[-1], (size[0], 1))


@pytest.mark.parametrize(
    "box_size, speed_max, tick_seconds",
    [(50.0, 0.7, 10.0), (4.0, 2.0, 10.0), (30.0, 1.5, 0.7)],
)
def test_each_agent_walks_speed_times_tick_of_path(box_size, speed_max, tick_seconds):
    n = 200
    world = small_world(
        None, seed=3, agent_count=n, box_size=box_size, speed_min=0.0,
        speed_max=speed_max, tick_seconds=tick_seconds,
    )
    picks = np.random.default_rng(9)
    world._speeds[picks.random(n) < 0.1] = 0.0
    world._motion = TiledRows(8)
    most = 0
    for step in range(40):
        if step % 10 == 5:  # quarantine a few agents between moves
            world._health[picks.choice(n, size=5, replace=False)] = _DETECTED
        before, aims = world._positions.copy(), world._waypoints.copy()
        world._motion.rows.clear()
        world._move()
        drawn = [row * box_size for row in world._motion.rows]
        for i in range(n):
            position, aim = world._positions[i], world._waypoints[i]
            stride = world._speeds[i] * tick_seconds
            if world._health[i] == _DETECTED or stride == 0.0:
                assert np.array_equal(position, before[i]) and np.array_equal(aim, aims[i])
                continue
            # an agent that drew in a round drew in every round before it, so
            # the round of its waypoint counts the waypoints it reached
            rounds = [k + 1 for k, row in enumerate(drawn) if np.array_equal(aim, row)]
            reached = rounds[0] if rounds else 0
            corners = [before[i]] + ([aims[i]] + drawn[: reached - 1] if reached else [])
            path = sum(math.dist(p, q) for p, q in zip(corners, corners[1:]))
            path += math.dist(corners[-1], position)
            assert path == pytest.approx(stride, rel=1e-9, abs=1e-9)
            # it stops on the leg from the last corner to its waypoint
            leg, done = aim - corners[-1], position - corners[-1]
            assert abs(leg[0] * done[1] - leg[1] * done[0]) <= 1e-9 * (1.0 + leg @ leg)
            assert done @ done <= leg @ leg * (1.0 + 1e-9)
            most = max(most, reached)
    assert np.count_nonzero(world._health == _DETECTED) > 5
    # several waypoints in one tick when a tick's stride outruns the box
    assert most > 1 if speed_max * tick_seconds > box_size else most >= 1


def test_agent_landing_on_its_waypoint_stops_there():
    world = small_world(None, agent_count=2, box_size=10.0)
    world._positions[0] = (1.0, 1.0)
    world._waypoints[0] = (4.0, 5.0)
    world._speeds[0] = 0.5  # 5 m in a 10 s tick: exactly the leg
    world._move()
    assert world._positions[0].tolist() == [4.0, 5.0]
    assert world._waypoints[0].tolist() != [4.0, 5.0]


def test_agent_state_agrees_with_the_event_log():
    world = small_world(
        None, seed=4, agent_count=60, box_size=30.0,
        infection_prob_per_second=0.01, infection_range=2.5,
        tracking_threshold=2.5, incubation_seconds=200.0,
        horizon_seconds=500.0, initial_infected=3,
    )
    world.run()
    infected_at = {e["target"]: e["t"] for e in world.events if e["type"] == "infection"}
    detected_at = {e["agent"]: e["t"] for e in world.events if e["type"] == "detected"}
    seeds = 0
    for i, (health, t) in enumerate(zip(world._health.tolist(), world._infected_at.tolist())):
        if i in infected_at:
            assert t == infected_at[i]
        elif not math.isnan(t):
            assert t == 0.0
            seeds += 1
        if i in detected_at:
            assert health == _DETECTED
            delay = detected_at[i] - t
            assert 200.0 <= delay < 200.0 + world.config.tick_seconds
        elif not math.isnan(t):
            assert health == _INFECTED
        else:
            assert health == _SUSCEPTIBLE
    assert seeds == 3
    assert set(world._health.tolist()) == {_SUSCEPTIBLE, _INFECTED, _DETECTED}


def contact_tuples(contacts) -> list[tuple[int, int, float]]:
    first, second, dist = contacts
    return list(zip(first.tolist(), second.tolist(), dist.tolist()))


def dense_contacts(positions: np.ndarray, radio_range: float) -> list:
    """The n x n contact search the cell list replaced: the reference."""
    deltas = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((deltas**2).sum(axis=2))
    i_idx, j_idx = np.nonzero(np.triu(dist <= radio_range, k=1))
    return [(int(i), int(j), float(dist[i, j])) for i, j in zip(i_idx, j_idx)]


def world_at(positions, radio_range: float, box_size: float = 50.0) -> World:
    positions = np.asarray(positions, dtype=float)
    world = small_world(
        None, agent_count=len(positions), box_size=box_size,
        radio=RadioModel(noise_sigma=0.0, max_radio_range=radio_range),
    )
    world._positions[:] = positions
    return world


def assert_matches_dense(positions, radio_range: float) -> list:
    world = world_at(positions, radio_range)
    expected = dense_contacts(np.asarray(positions, dtype=float), radio_range)
    assert contact_tuples(world._contacts()) == expected
    return expected


def test_assigned_position_moves_the_agent_the_contact_search_sees():
    world = world_at([(5.0, 5.0), (40.0, 40.0), (30.0, 5.0)], 10.0)
    assert contact_tuples(world._contacts()) == []
    world._positions[2] = (8.0, 9.0)
    assert contact_tuples(world._contacts()) == [(0, 2, 5.0)]
    world.agents[1].position[:] = (8.0, 13.0)  # the row is a view
    assert contact_tuples(world._contacts()) == [(0, 1, math.hypot(3.0, 8.0)),
                                                 (0, 2, 5.0), (1, 2, 4.0)]


class TestCellList:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=60.0),
                st.floats(min_value=0.0, max_value=60.0),
            ),
            min_size=2,
            max_size=80,
        ),
        st.floats(min_value=0.1, max_value=80.0),
    )
    @settings(max_examples=200, deadline=None)
    # at the smallest width (3): a pair in one cell and a pair across each
    # of the offsets +1, +width - 1, +width and +width + 1, all in range
    @example([(0.9, 0.9), (0.95, 0.95), (0.95, 1.05), (1.05, 0.95), (1.05, 1.05)], 1.0)
    def test_random_positions(self, positions, radio_range):
        assert_matches_dense(positions, radio_range)

    def test_pairs_exactly_at_range(self):
        # 3-4-5 triangles scaled to the range, and an axis-aligned pair
        positions = [(10.0, 10.0), (16.0, 18.0), (20.0, 10.0), (10.0, 20.0), (4.0, 2.0)]
        expected = assert_matches_dense(positions, 10.0)
        assert [d for *_, d in expected].count(10.0) == 4

    def test_rounding_across_two_cell_edges(self):
        # the true gap is 1 + 2**-53, computed as exactly 1.0: in range,
        # although floor(x / range) puts the two agents two cells apart
        positions = [(1.0 - 2.0**-53, 5.0), (2.0, 5.0)]
        assert assert_matches_dense(positions, 1.0) == [(0, 1, 1.0)]

    def test_agents_on_cell_boundaries(self):
        grid = [(4.0 * i, 4.0 * j) for i in range(7) for j in range(7)]
        expected = assert_matches_dense(grid, 4.0)
        assert len(expected) == 2 * 7 * 6  # axis neighbours only, not diagonals

    def test_coincident_agents(self):
        positions = [(3.0, 3.0)] * 4 + [(3.0, 9.0), (20.0, 20.0), (20.0, 20.0)]
        expected = assert_matches_dense(positions, 5.0)
        assert (0, 3, 0.0) in expected and (5, 6, 0.0) in expected

    def test_range_wider_than_the_box(self):
        rng = np.random.default_rng(4)
        expected = assert_matches_dense(rng.random((40, 2)) * 5.0, 10.0)
        assert len(expected) == 40 * 39 // 2

    def test_huge_box_costs_no_more_than_a_small_one(self):
        rng = np.random.default_rng(5)
        scattered = rng.random((100, 2)) * 1e6
        clusters = np.repeat(rng.random((10, 2)) * 1e6, 10, axis=0)
        positions = np.concatenate([scattered, clusters + rng.random((100, 2)) * 15.0])
        world = world_at(positions, 10.0, box_size=1e6)
        tracemalloc.start()
        contacts = contact_tuples(world._contacts())
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert contacts == dense_contacts(positions, 10.0)
        assert contacts  # the clusters hold pairs in range
        assert peak < 1_000_000  # 10^10 cells of 10 m: no array per cell

    def test_crowd_beyond_the_limit_fails_clearly(self):
        world = small_world(
            None, agent_count=20_000, box_size=5.0, app_user_fraction=0.0,
        )
        tracemalloc.start()
        # one cell: the n(n - 1)/2 pairs the search would test, counted
        # before any array of candidates is built
        with pytest.raises(OverBudget, match="test 199,990,000 candidate pairs .* "
                           "agent_count=20000, box_size=5.0, max_radio_range=10.0"):
            world.tick()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak < 8_000_000

    def test_candidate_limit_fits_the_memory_budget(self):
        # every candidate pair of one cell is in range, the search's worst
        # case per candidate; with no app users the tick's peak is the search
        agents = 1_000
        world = small_world(None, agent_count=agents, box_size=5.0, app_user_fraction=0.0)
        tracemalloc.start()
        world.tick()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        per_candidate = peak / (agents * (agents - 1) // 2)
        assert per_candidate <= _BYTES_PER_CANDIDATE
        assert per_candidate * _MAX_CANDIDATE_PAIRS <= _TICK_BUDGET_BYTES

    def test_crowd_of_app_users_beyond_the_limit_fails_clearly(self):
        # few enough candidates for the contact search, too many app-user
        # pairs for sensing: refused before any per-direction array exists
        agents = 1_200
        world = small_world(None, agent_count=agents, box_size=5.0)
        pairs = agents * (agents - 1) // 2
        assert _MAX_SENSED_PAIRS < pairs <= _MAX_CANDIDATE_PAIRS
        tracemalloc.start()
        with pytest.raises(OverBudget, match="sample 719,400 pairs of app users .* "
                           "agent_count=1200, box_size=5.0, app_user_fraction=1.0, "
                           "max_radio_range=10.0"):
            world.tick()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert peak <= _BYTES_PER_CANDIDATE * pairs  # the contact search's share only
        assert not world._open and not world.events

    def test_sensed_pair_limit_fits_the_memory_budget(self):
        # every pair of app users in one 2 m cell is in range and, noiseless
        # inside the 3 m threshold, recorded both ways: sensing's worst case
        # per pair; the peak covers the whole tick
        agents = 300
        world = small_world(None, agent_count=agents, box_size=2.0)
        tracemalloc.start()
        world.tick()
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        pairs = agents * (agents - 1) // 2
        assert len(world._open) == 2 * pairs
        per_pair = peak / pairs
        assert per_pair <= _BYTES_PER_SENSED_PAIR
        assert per_pair * _MAX_SENSED_PAIRS <= _TICK_BUDGET_BYTES


def record_directions(world: World) -> dict:
    records = {}
    owner_of = {env.ciphertext: i for i, env in world._envelope_of.items()}
    for agent in world.agents:
        if agent.device is None:
            continue
        for entry in agent.device.ledger.entries:
            peer = owner_of[entry.peer_envelope.ciphertext]
            records[(agent.id, peer)] = (entry.mean_rssi, entry.estimated_distance)
    return records


class TestSensingExactness:
    @pytest.mark.parametrize("sigma", [0.0, 2.0])
    def test_batched_sensing_equals_scalar_draws(self, sigma):
        threshold = 3.0
        near = [float(np.nextafter(threshold, 0.0)), threshold,
                float(np.nextafter(threshold, 9.0))]
        near += [threshold + k * 1e-15 for k in range(-40, 41)]
        near += [threshold * (1.0 + k * 1e-10) for k in range(-20, 21)]
        distances = sorted(set(near) | set(np.linspace(0.3, 9.9, 160).tolist()))
        trace = [(2 * k, 2 * k + 1, 0.0, 10.0, d) for k, d in enumerate(distances)]
        radio = RadioModel(noise_sigma=sigma)
        world = small_world(
            trace, agent_count=2 * len(distances) + 1, app_user_fraction=0.7,
            infection_range=0.01, tracking_threshold=threshold, radio=radio,
        )
        reference = np.random.Generator(np.random.PCG64())
        reference.bit_generator.state = world._sensing.bit_generator.state
        expected = {}
        for a, b, _, _, d in trace:
            if world.agents[a].device is None or world.agents[b].device is None:
                continue
            for recorder, peer in ((a, b), (b, a)):
                rssi = rssi_at_distance(d, radio)
                if sigma > 0:
                    rssi += reference.normal(0.0, sigma)
                est = estimate_distance(rssi, radio)
                if est <= threshold:
                    expected[(recorder, peer)] = (rssi, est)
        world.tick()
        assert record_directions(world) == expected
        assert world._sensing.bit_generator.state == reference.bit_generator.state
        if sigma == 0.0:  # within 1e-8 of the threshold, some record and some not
            edge = {
                (a, b) in expected
                for a, b, _, _, d in trace
                if abs(d - threshold) < 1e-8
                and world.agents[a].device is not None
                and world.agents[b].device is not None
            }
            assert edge == {True, False}


    def test_margin_keeps_what_numpy_overestimates(self, monkeypatch):
        # numpy's log10 may come out a few ulps above math.log10, and
        # whether it does depends on the SIMD path numpy picks for the CPU;
        # build that overestimate on every CPU: for a pair exactly at the
        # threshold the vectorised estimate lands above it, and the scalar
        # decision still records both directions
        log10 = np.log10

        def high_log10(x):
            value = log10(x)
            for _ in range(16):
                value = np.nextafter(value, np.inf)
            return value

        monkeypatch.setattr(np, "log10", high_log10)
        distance = 2.0
        threshold = estimate_distance(rssi_at_distance(distance, NOISELESS), NOISELESS)
        rssi = NOISELESS.rssi_at_1m - 20.0 * np.log10(np.array([distance]))
        rough = 10.0 ** ((NOISELESS.rssi_at_1m - rssi) / 20.0)
        assert rough[0] > threshold
        world = small_world(static_pair_trace(distance, 10.0), tracking_threshold=threshold)
        world.tick()
        assert set(record_directions(world)) == {(0, 1), (1, 0)}


def normal_cdf(x: float) -> float:
    return 0.5 * (1.0 + math.erf(x / math.sqrt(2.0)))


def test_sensing_law():
    # one tick records a direction at true distance d with probability
    # Phi(10 n log10(tau / d) / sigma): the shadowing must exceed the path
    # loss between d and the threshold tau
    radio, threshold, pairs = RadioModel(noise_sigma=2.0), 3.0, 400
    grid = [1.5, 2.5, 3.0, 3.5, 4.5]
    trace = [(2 * k, 2 * k + 1, 0.0, 10.0, d)
             for k, d in enumerate(np.repeat(grid, pairs).tolist())]
    world = small_world(trace, agent_count=2 * len(trace), tracking_threshold=threshold,
                        radio=radio)
    world.tick()
    recorded = record_directions(world)
    for g, d in enumerate(grid):
        hits = sum((a, a ^ 1) in recorded for a in range(2 * g * pairs, 2 * (g + 1) * pairs))
        p = normal_cdf(10.0 * radio.path_loss_exponent * math.log10(threshold / d)
                       / radio.noise_sigma)
        se = math.sqrt(p * (1.0 - p) / (2 * pairs))
        assert abs(hits / (2 * pairs) - p) <= 3.0 * se, (d, hits, p)


def test_transmission_law():
    # a susceptible agent exposed to m infectious ones in a tick is infected
    # with probability 1 - (1 - p)^m, once, by one of them
    p_tick, targets = 0.3, 400
    trace, groups, exposers, agent = [], {}, {}, 0
    for m in (1, 2, 3):
        groups[m] = range(agent, agent + targets * (m + 1), m + 1)
        for target in groups[m]:
            exposers[target] = set(range(target + 1, target + m + 1))
            trace += [(target, source, 0.0, 10.0, 1.0) for source in exposers[target]]
        agent += targets * (m + 1)
    world = small_world(
        trace, agent_count=agent, app_user_fraction=0.0, tick_seconds=10.0,
        infection_prob_per_second=1.0 - (1.0 - p_tick) ** 0.1,
    )
    sources = sorted(set().union(*exposers.values()))
    world._health[:] = _SUSCEPTIBLE
    world._health[sources] = _INFECTED
    world._infected_at[sources] = 0.0
    world.tick()
    infections = [e for e in world.events if e["type"] == "infection"]
    infected = {e["target"] for e in infections}
    assert len(infected) == len(infections)
    assert all(e["source"] in exposers[e["target"]] for e in infections)
    for m, members in groups.items():
        p = 1.0 - (1.0 - p_tick) ** m
        se = math.sqrt(p * (1.0 - p) / targets)
        share = sum(target in infected for target in members) / targets
        assert abs(share - p) <= 3.0 * se, (m, share, p)


class RecordingWorld(World):
    """Records each tick's contacts as trace intervals [t, t + tick)."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.recorded: list[tuple[int, int, float, float, float]] = []

    def _contacts(self):
        contacts = super()._contacts()
        end = self.t + self.config.tick_seconds
        self.recorded += [(a, b, self.t, end, d) for a, b, d in contact_tuples(contacts)]
        return contacts


class PurgingWorld(World):
    """The per-tick ledger purge the world used to run: the reference."""

    removed = 0

    def tick(self) -> None:
        now = self.t
        super().tick()
        for agent in self.agents:
            if agent.device is not None:
                self.removed += agent.device.purge_expired(now)


class TestRetentionOnRead:
    def test_window_shorter_than_a_tick(self):
        # agents 0-1 last meet in the tick at 370 s, agents 2-3 at 380 s;
        # the last tick runs at 390 s, so a 5 s window keeps only 2-3
        trace = [(0, 1, 0.0, 380.0, 2.0), (2, 3, 0.0, 390.0, 2.0)]
        worlds = []
        for cls in (World, PurgingWorld):
            config = quiet_config(
                agent_count=4, box_size=20.0, infection_prob_per_second=0.0,
                tick_seconds=10.0, app_user_fraction=1.0, incubation_seconds=5.0,
                horizon_seconds=400.0, initial_infected=1, radio=NOISELESS,
            )
            world = cls(config, seed=1, keypair=KEYPAIR, trace=trace)
            world.run()
            worlds.append(world)
        world, reference = worlds
        assert world.last_tick_t == 390.0
        entries = [len(s["entries"]) for s in world.device_snapshots()]
        assert entries == [0, 0, 1, 1]
        assert world.device_snapshots() == reference.device_snapshots()
        assert global_ledger_view(world) == global_ledger_view(reference)

    def test_window_edge_uses_the_last_tick_time(self):
        # with 0.7 s ticks, t minus one tick is not the t the last tick ran
        # at, and here the entry ending 4.9 s before that last tick would
        # survive a cutoff computed from it
        trace = [(0, 1, 0.0, 2.5, 2.0)]
        worlds = []
        for cls in (World, PurgingWorld):
            config = quiet_config(
                agent_count=2, box_size=20.0, infection_prob_per_second=0.0,
                tick_seconds=0.7, app_user_fraction=1.0, incubation_seconds=4.9,
                horizon_seconds=8.0, initial_infected=1, radio=NOISELESS,
            )
            world = cls(config, seed=1, keypair=KEYPAIR, trace=trace)
            world.run()
            worlds.append(world)
        world, reference = worlds
        assert world.t - world.config.tick_seconds != world.last_tick_t
        assert [len(s["entries"]) for s in world.device_snapshots()] == [0, 0]
        assert world.device_snapshots() == reference.device_snapshots()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(agent_count=60, box_size=30.0, tick_seconds=10.0,
                 incubation_seconds=300.0, horizon_seconds=1200.0,
                 yellow_enabled=True, dispatch_capacity=3,
                 radio=RadioModel(noise_sigma=2.0)),
            dict(agent_count=30, box_size=15.0, tick_seconds=0.7,
                 incubation_seconds=60.0, horizon_seconds=150.0,
                 radio=RadioModel(noise_sigma=2.0)),
        ],
        ids=["noisy-yellow-capacity", "short-tick"],
    )
    def test_filter_on_read_equals_per_tick_purge(self, overrides):
        config = quiet_config(
            infection_prob_per_second=0.02, tracking_threshold=3.0,
            app_user_fraction=0.9, initial_infected=4, **overrides,
        )
        world = World(config, seed=7, keypair=KEYPAIR)
        world.run()
        reference = PurgingWorld(config, seed=7, keypair=KEYPAIR)
        reference.run()
        assert reference.removed > 0  # entries did expire during the run
        assert world.events == reference.events
        assert world.device_snapshots() == reference.device_snapshots()
        assert global_ledger_view(world) == global_ledger_view(reference)
        # ticking by hand, as a traced replay does, reads the same ledgers
        stepped = World(config, seed=7, keypair=KEYPAIR)
        while stepped.t < world.t:
            stepped.tick()
        stepped.flush_open_encounters()
        assert stepped.device_snapshots() == world.device_snapshots()


# sha256 of the five files `proximity-sim world` writes, pinned when the
# world split its generator into one stream per phase (Python 3.11.7,
# numpy 2.4.6, with and without numpy's AVX512 paths); a world refactor
# that keeps behaviour keeps these digests.
GOLDEN_WORLDS = {
    "acceptance-noiseless": (
        """
        agent_count = 200
        box_size = 70.0
        infection_range = 2.5
        infection_prob_per_second = 0.015
        tracking_threshold = 2.5
        tick_seconds = 10.0
        app_user_fraction = 0.8
        incubation_seconds = 600.0
        horizon_seconds = 1000.0
        initial_infected = 10
        key_bits = 32
        noise_sigma = 0.0
        """,
        2026,
        {
            "bus_trace.jsonl": "3714acc03b14e38ab538094b1f53f286eb3ee690828d87a844507fb7403d48e0",
            "devices.jsonl": "a51db6f10699be904e4d6f255a9e541d99e186935cb6d51798b09140722b1038",
            "dispatch_log.csv": "29cd14594af31633b4c637bf8df0258aa9b90fa5106e585392462d7e9fdd6584",
            "events.jsonl": "a31e9cc5c717a68841e52e26aa50a0b3fda67f75d32da1e5db49aa4063f5d417",
            "false_alert_report.txt": "0ceb61713cc00975ef20fb9689d4de3a8d8c5b25e92a98584f371999c4bc1c0d",
        },
    ),
    "noisy-yellow-capacity": (
        """
        agent_count = 60
        box_size = 30.0
        infection_range = 2.5
        infection_prob_per_second = 0.02
        tracking_threshold = 3.0
        tick_seconds = 10.0
        incubation_seconds = 300.0
        horizon_seconds = 1200.0
        initial_infected = 4
        dispatch_capacity = 3
        yellow_enabled = true
        key_bits = 32
        noise_sigma = 2.0
        """,
        7,
        {
            "bus_trace.jsonl": "b5dae9ef7590dfa70bbed82579ed2cdf993bab0cfe76bceb03bc7e87bf473c0e",
            "devices.jsonl": "bc8809d218d789addc50e600560ed3af3e113465998ed4d4dc2e815e0acde310",
            "dispatch_log.csv": "571743b29844d854f3fdc6cbfaadf6d6f9f6195924026f8022814eb7e129c921",
            "events.jsonl": "b6dd4069c45735fd4966ec2eec82b3e6b055d215e0a717097e60434ab4996e3f",
            "false_alert_report.txt": "38c6b20e6fe1eeaf785c8664d88016e6e6be7361692f4aff5c6c3a217d0683dc",
        },
    ),
    "short-tick": (
        """
        agent_count = 30
        box_size = 15.0
        infection_prob_per_second = 0.02
        tick_seconds = 0.7
        incubation_seconds = 60.0
        horizon_seconds = 150.0
        initial_infected = 3
        key_bits = 32
        """,
        3,
        {
            "bus_trace.jsonl": "d3b22d68790123c498d222d9e6d9d0f438f15e387f6dd6db5937542995fcfeed",
            "devices.jsonl": "4a1db925aba5524a978637980cefa64813f0b73bcee97a054f125111309432b4",
            "dispatch_log.csv": "690eca72eaec61714bf2c8bc1fdafd5565cbaea1c89e44eb168c9e67827a8ac3",
            "events.jsonl": "366cd068d19011ced8615b2e08b936b3f34b34a81f87adf490cf3f9072184a45",
            "false_alert_report.txt": "fe7c4e6a818c9115e4f754c74538369fc69ae119a4bb4beebba2f5b3fe185b25",
        },
    ),
    # the benchmark's world-dispatch room at the default key size, where
    # ranking ties break on str(ciphertext) and three-prime CRT decrypts
    # pick the recipients: 4 red and 16 yellow alerts sent, 75 waitlisted.
    # Infections that start after the first tick are never detected before
    # the horizon, so a small transmission rate adds infection events for
    # the replay test without changing any dispatch
    "dispatch-2048": (
        """
        agent_count = 20
        box_size = 20.0
        infection_range = 2.5
        infection_prob_per_second = 0.002
        tracking_threshold = 3.0
        tick_seconds = 10.0
        app_user_fraction = 1.0
        incubation_seconds = 900.0
        horizon_seconds = 910.0
        initial_infected = 1
        dispatch_capacity = 4
        yellow_enabled = true
        key_bits = 2048
        noise_sigma = 2.0
        """,
        11,
        {
            "bus_trace.jsonl": "0cdc9d896b27f6df34c1eb363d1293f2edcccca60427a7d92467488d16b41eef",
            "devices.jsonl": "834bcb0fcb3e3d094072fd03fd1c1ed5a29fd2ebff5266b1a497ff6d5ac96ad3",
            "dispatch_log.csv": "ba89244346526ded2a849d53395351a22a7a29399c443fa6f056d1d4494972ac",
            "events.jsonl": "7655342b134d98b8ecca84f0307de7fe410a7d4619f25c789a88e9d6809f7010",
            "false_alert_report.txt": "137e5fc936dc8e8d022dd3ea3448b9712635530eaa24d7e6ca380aa45a69e430",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_WORLDS))
def test_world_outputs_match_golden_digests(name, tmp_path, capsys):
    text, seed, digests = GOLDEN_WORLDS[name]
    config = tmp_path / "world.conf"
    config.write_text(text)
    out = tmp_path / "out"
    code = run_command(
        ["world", "--config", str(config), "--seed", str(seed), "--out", str(out)]
    )
    assert code == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    assert written == digests


@pytest.mark.parametrize("name", sorted(GOLDEN_WORLDS))
def test_recorded_contacts_replay_their_run(name):
    # motion has a stream of its own, so a replay of the run's own contacts,
    # which draws no motion, draws everything else as the run did
    text, seed, _ = GOLDEN_WORLDS[name]
    config = parse_config(text, command="world").world_config
    recorder = RecordingWorld(config, seed=seed)
    recorder.run()
    replay = World(config, seed=seed, trace=recorder.recorded)
    replay.run()
    assert {"infection", "encounter", "notify"} <= {e["type"] for e in recorder.events}
    assert replay.events == recorder.events
    assert replay.device_snapshots() == recorder.device_snapshots()


@pytest.mark.parametrize("name", sorted(GOLDEN_WORLDS))
def test_logged_records_follow_the_schema(name):
    text, seed, _ = GOLDEN_WORLDS[name]
    world = World(parse_config(text, command="world").world_config, seed=seed)
    world.run()
    records = list(world.events)
    for snapshot in world.device_snapshots():
        assert tuple(sorted(snapshot)) == DEVICE_FIELDS
        for entry in snapshot["entries"]:
            assert tuple(sorted(entry)) == ENTRY_FIELDS
            records.append(entry)
    for event in world.events:
        assert sorted(event) == sorted(["type", *EVENT_FIELDS[event["type"]]])
        # a numpy scalar's repr is not its JSON text
        assert {type(value) for value in event.values()} <= {int, float, str, type(None)}
    for record in records:  # a number field's repr is its JSON text
        numbers = [value for key, value in record.items() if key in NUMBER_FIELDS]
        assert {type(value) for value in numbers} <= {int, float}
        assert all(math.isfinite(value) for value in numbers)


# every value type the world logs, with the floats whose shortest text is
# easy to get wrong and strings that need escaping
NUMBERS = st.one_of(
    st.integers(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.integers(-(2**60), 2**60).map(float),
    st.sampled_from([-0.0, 5e-324, 1e-7, 1e16, 1e22, 123456789.0, -1.5e-300]),
)
TEXTS = st.one_of(st.text(), st.text(alphabet='a"\\/%s\n\x00\x1f\u00e9\u2028\U0001f600'))
SCALARS = st.one_of(st.none(), st.booleans(), NUMBERS, TEXTS)


class TestEventSchema:
    @given(kind=st.sampled_from(sorted(EVENT_FIELDS)), data=st.data())
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    def test_event_line_is_json_dumps(self, kind, data):
        # a notification names no uploader when no upload carries its tag
        nullable = {"uploader"}
        event = {
            field: data.draw(
                st.none() | NUMBERS if field in nullable
                else NUMBERS if field in NUMBER_FIELDS
                else SCALARS,
                label=field,
            )
            for field in EVENT_FIELDS[kind]
        }
        event["type"] = kind
        assert json_line_writer(EVENT_FIELDS[kind], type=kind)(event) == json.dumps(
            event, sort_keys=True
        )
        message = dict(event, message="NOTIFY")
        del message["type"]
        assert json_line_writer(EVENT_FIELDS[kind], message="NOTIFY")(event) == json.dumps(
            message, sort_keys=True
        )

    @given(data=st.data())
    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    def test_device_line_is_json_dumps(self, data):
        world = small_world(static_pair_trace(2.0, 100.0))
        ciphertexts = st.one_of(st.integers(0, 2**2048), st.sampled_from([0, 7, 2**2047 + 1]))
        for agent in world.agents:
            device = agent.device
            device.user_id, device.own_contact = data.draw(TEXTS), data.draw(TEXTS)
            device.yellow_enabled = data.draw(st.booleans())
            device.mode = data.draw(st.sampled_from(DeviceMode))
            device.ledger.entries = [
                EncounterEntry(Envelope(data.draw(ciphertexts), data.draw(TEXTS)),
                               *(data.draw(NUMBERS) for _ in range(4)))
                for _ in range(data.draw(st.integers(0, 4)))
            ]
        expected = [json.dumps(s, sort_keys=True) for s in world.device_snapshots()]
        assert list(world.device_lines()) == expected

    def test_readme_lists_the_schema(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
        match = re.search(r"Event schema:.*?```\n(.*?)```", readme, re.DOTALL)
        assert match, "README has no event schema listing"
        rows = map(str.split, match.group(1).splitlines())
        listed = {name: tuple(fields) for name, *fields in rows}
        assert listed == {**EVENT_FIELDS, "device": DEVICE_FIELDS, "entry": ENTRY_FIELDS}
