"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines
as the criteria execute.  Statistical checks pin their tolerances here;
nothing is deferred to later calibration.
"""

from __future__ import annotations

import math
import time
import warnings

import numpy as np
import pytest

from proximity_sim.cli import run_command
from proximity_sim.crypto import (
    decrypt,
    derive_seed,
    encrypt,
    generate_keypair,
    keypair_from_primes,
)
from proximity_sim.epidemic import (
    SimulationParams,
    expected_daily_incidence,
    fit_growth_factor,
    mean_completed_offspring,
    renewal_growth_factor,
    run_ensemble,
    run_replicate,
)
from proximity_sim.world import RadioModel, World, WorldConfig, false_alert_rate

BASE_SEED = 42
POST_RAMP_DAY = 30 + 10 + 14  # activation + ramp + one incubation


def verdict(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def sweep_point(replicates: int = 200, **overrides) -> tuple[float, float]:
    """(mean, se) of cumulative infections at day 60 over fresh replicates."""
    params = SimulationParams(replicates=replicates, **overrides)
    ensemble = run_ensemble(params, BASE_SEED)
    return ensemble.cumulative_stats(60)


@pytest.fixture(scope="module")
def protocol_world():
    pair = keypair_from_primes(2**61 - 1, 2**89 - 1, e=65537)

    def build(threshold: float) -> World:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            config = WorldConfig(
                agent_count=200,
                box_size=70.0,
                infection_range=2.5,
                infection_prob_per_second=0.015,
                tracking_threshold=threshold,
                tick_seconds=10.0,
                app_user_fraction=0.8,
                incubation_seconds=1500.0,
                horizon_seconds=4500.0,
                initial_infected=10,
                speed_min=0.1,
                speed_max=0.7,
                radio=RadioModel(noise_sigma=0.0),
            )
        world = World(config, seed=2026, keypair=pair)
        world.run()
        return world

    started = time.perf_counter()
    world = build(2.5)
    elapsed = time.perf_counter() - started
    return build, world, elapsed


def test_criterion_1_exponential_phase():
    started = time.perf_counter()
    params = SimulationParams(efficiency=0.0, horizon_days=30, replicates=50)
    ensemble = run_ensemble(params, BASE_SEED)
    fitted = fit_growth_factor(ensemble.mean, 15, 30)
    oracle = renewal_growth_factor(3.0, 14)
    elapsed = time.perf_counter() - started
    relative = abs(fitted - oracle) / oracle
    verdict(
        "1 exponential phase",
        relative < 0.10 and elapsed < 10.0,
        f"fitted g={fitted:.4f} vs root g*={oracle:.4f} "
        f"(off by {relative:.2%}, limit 10%), {elapsed:.1f}s (limit 10s)",
    )


def test_criterion_2_headline_figure_shape():
    started = time.perf_counter()
    params = SimulationParams()  # headline parameters
    ensemble = run_ensemble(params, BASE_SEED)
    peak_day = int(ensemble.mean.argmax())
    # the collapse is read against the exact expected curve: day-60 over
    # peak-day incidence must lie within 3 delta-method SE of the exact
    # curve's ratio between the same two days
    expected = expected_daily_incidence(params)
    expected_ratio = float(expected[60] / expected[peak_day])
    tail = ensemble.daily[:, 60].astype(float)
    at_peak = ensemble.daily[:, peak_day].astype(float)
    tail_ratio = tail.mean() / at_peak.mean()
    tail_se = (tail - tail_ratio * at_peak).std(ddof=1) / (
        math.sqrt(len(tail)) * at_peak.mean()
    )
    tail_z = (tail_ratio - expected_ratio) / tail_se
    expected_offspring = params.r0 / params.quarantine_factor  # all alerted after the ramp
    cohort_mean, cohort_n = mean_completed_offspring(
        SimulationParams(horizon_days=80, replicates=200),
        base_seed=BASE_SEED,
        replicates=200,
        after_day=POST_RAMP_DAY,
    )
    elapsed = time.perf_counter() - started
    peak_ok = 30 <= peak_day <= 45
    tail_ok = abs(tail_z) <= 3.0
    cohort_ok = abs(cohort_mean - expected_offspring) <= 0.05
    verdict(
        "2 outbreak collapse shape",
        peak_ok and tail_ok and cohort_ok and elapsed < 60.0,
        f"peak day {peak_day} (expected {int(expected.argmax())}, want 30-45), "
        f"day-60/peak {tail_ratio:.4f} (expected "
        f"{expected_ratio:.4f}, want within 3 SE = {3 * tail_se:.4f}; z={tail_z:+.2f}), "
        f"post-ramp offspring {cohort_mean:.4f} over {cohort_n} cases "
        f"(expected {expected_offspring:.2f}, want +-0.05), {elapsed:.1f}s (limit 60s)",
    )


@pytest.mark.slow
def test_criterion_3_efficiency_sweep_ordering():
    grid = [0.2, 0.4, 0.6, 0.8, 1.0]
    points = {e: sweep_point(efficiency=e) for e in grid}
    ordered = True
    gaps = []
    for low, high in zip(grid, grid[1:]):
        mean_low, se_low = points[low]
        mean_high, se_high = points[high]
        separation = math.sqrt(se_low**2 + se_high**2)
        gaps.append((high, mean_low - mean_high, 3 * separation))
        if not mean_high < mean_low - 3 * separation:
            ordered = False
    cohort_mean, _ = mean_completed_offspring(
        SimulationParams(efficiency=0.6, horizon_days=80, replicates=200),
        base_seed=BASE_SEED,
        replicates=200,
        after_day=POST_RAMP_DAY,
    )
    cohort_ok = abs(cohort_mean - 1.38) <= 0.10
    detail_points = ", ".join(f"e={e}: {points[e][0]:.0f}" for e in grid)
    verdict(
        "3 efficiency sweep",
        ordered and cohort_ok,
        f"cumulative@60 strictly decreasing at 3SE [{detail_points}]; "
        f"post-ramp offspring at e=0.6 {cohort_mean:.3f} (want 1.38+-0.10)",
    )


@pytest.mark.slow
def test_criterion_4_quarantine_and_delay_monotonicity():
    k_grid = [1, 2, 5, 10, 50]
    k_points = {k: sweep_point(quarantine_factor=float(k)) for k in k_grid}
    k_ok = True
    for low, high in zip(k_grid, k_grid[1:]):
        mean_low, se_low = k_points[low]
        mean_high, se_high = k_points[high]
        if not mean_high <= mean_low + 3 * math.sqrt(se_low**2 + se_high**2):
            k_ok = False
    delay_grid = [0, 5, 10, 20]
    delay_points = {d: sweep_point(ramp_days=d) for d in delay_grid}
    delay_ok = True
    for low, high in zip(delay_grid, delay_grid[1:]):
        mean_low, se_low = delay_points[low]
        mean_high, se_high = delay_points[high]
        if not mean_high >= mean_low - 3 * math.sqrt(se_low**2 + se_high**2):
            delay_ok = False
    k_detail = ", ".join(f"k={k}: {k_points[k][0]:.0f}" for k in k_grid)
    d_detail = ", ".join(f"d={d}: {delay_points[d][0]:.0f}" for d in delay_grid)
    verdict(
        "4 quarantine/delay monotonicity",
        k_ok and delay_ok,
        f"cumulative@60 non-increasing in k [{k_detail}]; "
        f"non-decreasing in ramp [{d_detail}] (3SE margin)",
    )


def test_criterion_5_null_effect_exactness():
    started = time.perf_counter()
    seed = derive_seed(BASE_SEED, 0)
    baseline = run_replicate(SimulationParams(efficiency=0.0), seed)
    k_one = run_replicate(SimulationParams(quarantine_factor=1.0), seed)
    silent = run_replicate(SimulationParams(activation_day=61), seed)
    elapsed = time.perf_counter() - started
    same = (
        np.array_equal(baseline, k_one)
        and np.array_equal(baseline, silent)
    )
    verdict(
        "5 null-effect exactness",
        same and elapsed < 5.0,
        f"k=1, efficiency=0, activation>horizon all bit-identical "
        f"({int(baseline.sum())} cases), "
        f"{elapsed:.1f}s (limit 5s)",
    )


def test_criterion_6_crypto_round_trips():
    started = time.perf_counter()
    toy = keypair_from_primes(61, 53, e=17)
    toy_env = encrypt(toy.public, 65)
    toy_ok = toy_env.ciphertext == 2790 and decrypt(toy, toy_env) == 65
    failures = 0
    plaintext_rng = np.random.Generator(np.random.PCG64(BASE_SEED))
    for index in range(100):
        pair = generate_keypair(derive_seed(BASE_SEED, index), 32)
        modulus = pair.public.modulus
        plaintexts = plaintext_rng.integers(0, modulus, size=1000)
        for m in plaintexts:
            if decrypt(pair, encrypt(pair.public, int(m))) != int(m):
                failures += 1
    elapsed = time.perf_counter() - started
    verdict(
        "6 crypto round trips",
        toy_ok and failures == 0 and elapsed < 5.0,
        f"toy vector 65->2790->65 {'ok' if toy_ok else 'BROKEN'}; "
        f"{failures} failures over 100 keypairs x 1000 plaintexts, "
        f"{elapsed:.1f}s (limit 5s)",
    )


def test_criterion_7_protocol_end_to_end(protocol_world):
    _, world, elapsed = protocol_world
    events = world.events
    detected = {e["agent"] for e in events if e["type"] == "detected"}
    dispatched: dict[int, set[int]] = {}
    for event in events:
        if event["type"] == "dispatch" and event["level"] == "red":
            dispatched.setdefault(event["uploader"], set()).add(event["recipient"])
    checked = missed = 0
    for event in events:
        if event["type"] != "infection":
            continue
        source, target = event["source"], event["target"]
        if (
            source in detected
            and world.agents[source].device is not None
            and world.agents[target].device is not None
        ):
            checked += 1
            if target not in dispatched.get(source, set()):
                missed += 1
    # notifications only reach peers with an in-window ledger entry
    encounters: dict[tuple[int, int], list[tuple[float, float]]] = {}
    for event in events:
        if event["type"] == "encounter":
            encounters.setdefault((event["recorder"], event["peer"]), []).append(
                (event["start"], event["end"])
            )
    uploads = {e["origin_tag"]: e for e in events if e["type"] == "upload"}
    stray = 0
    for event in events:
        if event["type"] != "notify":
            continue
        upload = uploads[event["origin_tag"]]
        window = upload["retention_window"]
        upload_time = upload["t"]
        intervals = encounters.get((event["uploader"], event["recipient"]), [])
        if not any(
            start <= upload_time and min(end, upload_time) >= upload_time - window
            for start, end in intervals
        ):
            stray += 1
    keys = world.issuer.registry.values()
    keys_ok = bool(keys) and all(key.consumed for key in keys)
    red_uploads = [e for e in events if e["type"] == "upload" and e["token"]]
    single_use_ok = len(red_uploads) == len(set(e["token"] for e in red_uploads)) == len(
        world.issuer.registry
    )
    idle = world.dispatch_server.idle_state()
    idle_ok = idle == {"waitlist_origins": 0, "waitlist_records": 0}
    verdict(
        "7 protocol end-to-end",
        missed == 0 and checked > 50 and stray == 0 and keys_ok
        and single_use_ok and idle_ok and elapsed < 120.0,
        f"{checked} app-user secondary cases all dispatched ({missed} missed); "
        f"{stray} stray notifications; {len(red_uploads)} activation keys each "
        f"consumed once; dispatch-server idle state {idle}; "
        f"{elapsed:.1f}s (limit 120s)",
    )


@pytest.mark.slow
def test_criterion_8_false_alert_rates(protocol_world):
    build, matched_world, _ = protocol_world
    rate_matched = false_alert_rate(matched_world.events, 2.5)
    narrow = build(3.0)
    wide = build(10.0)
    rate_narrow = false_alert_rate(narrow.events, 2.5)
    rate_wide = false_alert_rate(wide.events, 2.5)
    verdict(
        "8 false alerts",
        rate_matched == 0.0 and rate_wide > rate_narrow,
        f"rate(threshold=infection)={rate_matched:.4f} (want 0); "
        f"rate(10m)={rate_wide:.4f} > rate(3m)={rate_narrow:.4f} strictly",
    )


@pytest.mark.slow
def test_criterion_9_cli_byte_determinism(tmp_path):
    outputs = []
    for label in ("first", "second"):
        out = tmp_path / label
        code = run_command(["epidemic", "--seed", "42", "--out", str(out)])
        assert code == 0
        outputs.append(
            (
                (out / "daily_new_infected.csv").read_bytes(),
                (out / "daily_new_infected.svg").read_bytes(),
            )
        )
    same_csv = outputs[0][0] == outputs[1][0]
    same_svg = outputs[0][1] == outputs[1][1]
    verdict(
        "9 CLI determinism",
        same_csv and same_svg,
        f"epidemic --seed 42 twice: CSV identical={same_csv} "
        f"({len(outputs[0][0])} bytes), SVG identical={same_svg} "
        f"({len(outputs[0][1])} bytes)",
    )
