"""Self-tests of the benchmark's oracle, checks and spans.

    PYTHONPATH=src python -m pytest perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from proximity_sim.epidemic import SimulationParams, run_ensemble

import checks
from spans import Tracer
from workloads import HEADLINE, WORKLOADS, call_seed

REPO = Path(__file__).resolve().parent.parent


def headline(**overrides) -> dict:
    return {**HEADLINE, "horizon_days": 60, **overrides}


def test_no_app_expectation_matches_the_recursion_value():
    mean, _ = checks.cumulative_moments(headline(efficiency=0.0))
    assert mean == pytest.approx(607_778.8, abs=0.1)


def test_null_effect_column_has_the_baseline_moments():
    assert checks.cumulative_moments(headline(quarantine_factor=1.0)) == pytest.approx(
        checks.cumulative_moments(headline(efficiency=0.0)))


def test_moments_match_the_record_engine():
    config = headline(horizon_days=36, activation_day=20, replicates=400)
    totals = run_ensemble(SimulationParams(**config), 7).daily.sum(axis=1)
    mean, variance = checks.cumulative_moments(config)
    se = np.sqrt(variance / totals.size)
    assert abs(totals.mean() - mean) < 4 * se
    assert totals.var(ddof=1) == pytest.approx(variance, rel=0.35)


def test_gate_flags_a_shifted_column():
    config = headline(replicates=40)
    mean, variance = checks.cumulative_moments(headline(efficiency=0.0))
    ok, _ = checks.gate_columns(config, {"baseline": mean}, 40)
    shifted, _ = checks.gate_columns(config, {"baseline": mean * 1.5}, 40)
    assert ok == [] and len(shifted) == 1


def test_self_time_subtracts_direct_children():
    tracer = Tracer()
    outer = tracer.open("outer")
    tracer.call("inner", lambda: sum(range(10_000)))
    tracer.close(outer)
    spans = tracer.summary()
    inner = spans["inner"]["total_s"]
    assert spans["outer"]["self_s"] == pytest.approx(spans["outer"]["total_s"] - inner)


def test_wrap_shadows_one_instance_only():
    class Box:
        def get(self, x):
            return x + 1

    traced, plain, seen = Box(), Box(), []
    tracer = Tracer()
    tracer.wrap(traced, "get", "box.get", lambda result, x: seen.append((result, x)))
    assert traced.get(1) == 2 and plain.get(1) == 2
    assert seen == [(2, 1)] and tracer.summary()["box.get"]["calls"] == 1


def _world_out(tmp_path: Path, events: list[dict], report: dict) -> Path:
    for name in checks.WORLD_FILES:
        (tmp_path / name).write_text("")
    (tmp_path / "events.jsonl").write_text("".join(json.dumps(e) + "\n" for e in events))
    (tmp_path / "false_alert_report.txt").write_text(
        "".join(f"{k}={v}\n" for k, v in report.items()))
    return tmp_path


def test_world_checks_catch_a_reused_token_and_an_orphan_notification(tmp_path):
    upload = {"type": "upload", "level": "red", "token": "t1", "origin_tag": "o1",
              "n_sent": 1, "n_waitlisted": 0, "decrypt_failures": 0}
    events = [{"type": "key_issued", "token": "t1"}, upload, dict(upload, origin_tag="o2"),
              {"type": "notify", "origin_tag": "o3"}]
    report = {"infections": 0, "detected": 0, "encounters": 0, "uploads": 2, "notifications": 1}
    errors, info = checks.world_call(_world_out(tmp_path, events, report))
    assert any("exactly once" in e for e in errors)
    assert any("name no upload" in e for e in errors)
    assert info["decrypts"] == 2


def test_sweep_check_catches_a_null_effect_column_that_drifts(tmp_path):
    labels = ["baseline", "quarantine_factor=1.0"]
    (tmp_path / "sweep_series.csv").write_text(
        "day,baseline,quarantine_factor=1.0\n0,10,10\n1,4.500000,4.600000\n")
    (tmp_path / "sweep_series.svg").write_text("")
    (tmp_path / "sweep_summary.csv").write_text(
        "label,cumulative_mean,cumulative_se\nbaseline,14.5,0\nquarantine_factor=1.0,14.6,0\n")
    errors, means = checks.sweep_call(tmp_path, labels)
    assert errors == ["quarantine_factor=1.0 column differs from baseline"]
    assert means == {"baseline": 14.5, "quarantine_factor=1.0": 14.6}


def test_call_seeds_are_a_function_of_the_workload_seed():
    assert [call_seed(5, i) for i in range(3)] == [call_seed(5, i) for i in range(3)]
    assert call_seed(5, 0) != call_seed(6, 0)


def test_every_declared_workload_exists():
    spec = json.loads((REPO / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)


def test_refuses_a_directory_without_sources(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "world-contacts", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""
