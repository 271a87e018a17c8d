from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from proximity_sim import cli
from proximity_sim.cli import run_command
from proximity_sim.report import emit_csv, emit_svg


def read(path) -> bytes:
    return path.read_bytes()


class TestReport:
    def test_csv_shape(self, tmp_path):
        days = np.arange(61, dtype=float)
        path = tmp_path / "series.csv"
        emit_csv([("baseline", days), ("app", days * 0.5)], path)
        lines = path.read_text().splitlines()
        assert lines[0] == "day,baseline,app"
        assert len(lines) == 62  # header + 61 data rows
        assert lines[1] == "0,0,0"
        assert not lines[-1].endswith(",")
        assert b"\r" not in read(path)

    def test_csv_deterministic(self, tmp_path):
        series = [("a", np.linspace(0, 5, 20)), ("b", np.linspace(5, 0, 20))]
        emit_csv(series, tmp_path / "one.csv")
        emit_csv(series, tmp_path / "two.csv")
        assert read(tmp_path / "one.csv") == read(tmp_path / "two.csv")

    def test_csv_mismatched_axis_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            emit_csv([("a", np.zeros(5)), ("b", np.zeros(6))], tmp_path / "bad.csv")

    def test_svg_deterministic_and_labelled(self, tmp_path):
        series = [("baseline", np.linspace(0, 80, 61)), ("app", np.linspace(0, 30, 61))]
        emit_svg(series, tmp_path / "one.svg")
        emit_svg(series, tmp_path / "two.svg")
        assert read(tmp_path / "one.svg") == read(tmp_path / "two.svg")
        text = (tmp_path / "one.svg").read_text()
        assert text.count("<polyline") == 2
        assert "baseline" in text and "app" in text
        assert 'width="800" height="500"' in text

    def test_svg_band_polygon(self, tmp_path):
        series = [("baseline", np.linspace(0, 80, 61)), ("app", np.linspace(0, 30, 61))]
        emit_svg(series, tmp_path / "band.svg", band=("baseline", "app"))
        assert "<polygon" in (tmp_path / "band.svg").read_text()


class TestEpidemicCommand:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("horizon_days=25\nreplicates=8\n")
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        for out in (out_a, out_b):
            code = run_command(
                ["epidemic", "--config", str(config), "--seed", "42", "--out", str(out)]
            )
            assert code == 0
        assert read(out_a / "daily_new_infected.csv") == read(out_b / "daily_new_infected.csv")
        assert read(out_a / "daily_new_infected.svg") == read(out_b / "daily_new_infected.svg")

    def test_band_flag(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("horizon_days=20\nreplicates=4\n")
        out = tmp_path / "banded"
        assert run_command(
            ["epidemic", "--config", str(config), "--seed", "1", "--out", str(out), "--band"]
        ) == 0
        assert "<polygon" in (out / "daily_new_infected.svg").read_text()

    def test_validation_error_exit_code(self, tmp_path, capsys):
        config = tmp_path / "bad.cfg"
        config.write_text("efficiency=1.5\n")
        assert run_command(["epidemic", "--config", str(config)]) == 1
        assert "efficiency" in capsys.readouterr().err

    def test_parse_error_exit_code(self, tmp_path):
        config = tmp_path / "bad.cfg"
        config.write_text("unknown_key=1\n")
        assert run_command(["epidemic", "--config", str(config)]) == 1

    def test_missing_config_file(self, tmp_path):
        assert run_command(["epidemic", "--config", str(tmp_path / "nope.cfg")]) == 1

    @pytest.mark.parametrize("command", ["epidemic", "world"])
    def test_config_directory_is_a_configuration_error(self, tmp_path, capsys, command):
        assert run_command([command, "--config", str(tmp_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(tmp_path) in err

    def test_cap_abort_exit_code(self, tmp_path, capsys):
        config = tmp_path / "tiny.cfg"
        config.write_text("max_active=40\nreplicates=2\nhorizon_days=40\n")
        out = tmp_path / "capped"
        assert run_command(
            ["epidemic", "--config", str(config), "--seed", "3", "--out", str(out)]
        ) == 2
        assert "abort" in capsys.readouterr().err.lower()


class TestSweepCommand:
    def test_sweep_outputs(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text("horizon_days=20\nreplicates=4\n")
        out = tmp_path / "sweep"
        code = run_command(
            [
                "sweep", "--config", str(config), "--seed", "7",
                "--out", str(out), "--sweep", "efficiency=0.5,1.0",
            ]
        )
        assert code == 0
        header = (out / "sweep_series.csv").read_text().splitlines()[0]
        assert header == "day,baseline,efficiency=0.5,efficiency=1.0"
        summary = (out / "sweep_summary.csv").read_text().splitlines()
        assert summary[0] == "label,cumulative_mean,cumulative_se"
        assert len(summary) == 4

    def test_bad_axis_exit_code(self, tmp_path):
        assert run_command(["sweep", "--sweep", "replicates=1,2"]) == 1


class TestWorldCommand:
    def test_world_outputs(self, tmp_path):
        config = tmp_path / "world.cfg"
        config.write_text(
            "agent_count=24\nbox_size=18\ninfection_prob_per_second=0.03\n"
            "incubation_seconds=600\nhorizon_seconds=1500\ninitial_infected=3\n"
            "noise_sigma=0\ntracking_threshold=2.5\nkey_bits=32\n"
            "app_user_fraction=0.9\n"
        )
        out = tmp_path / "world"
        assert run_command(
            ["world", "--config", str(config), "--seed", "5", "--out", str(out)]
        ) == 0
        for name in (
            "events.jsonl", "bus_trace.jsonl", "dispatch_log.csv",
            "devices.jsonl", "false_alert_report.txt",
        ):
            assert (out / name).exists(), name
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        assert any(e["type"] == "infection" for e in events)
        bus = [json.loads(line) for line in (out / "bus_trace.jsonl").read_text().splitlines()]
        kinds = {record["message"] for record in bus}
        assert {"KEY_REQUEST", "KEY_ISSUE", "ALERT_UPLOAD", "NOTIFY"} <= kinds
        snapshots = [json.loads(line) for line in (out / "devices.jsonl").read_text().splitlines()]
        assert snapshots and {"user_id", "mode", "entries"} <= set(snapshots[0])
        report = (out / "false_alert_report.txt").read_text()
        assert "red_notifications_false_alert_rate" in report

    def test_trace_replay_via_config(self, tmp_path):
        trace = tmp_path / "contacts.csv"
        trace.write_text("0,1,0,300,2.0\n")
        config = tmp_path / "world.cfg"
        config.write_text(
            "agent_count=2\ninfection_prob_per_second=0\n"
            f"horizon_seconds=400\nincubation_seconds=100000\nnoise_sigma=0\n"
            f"key_bits=32\napp_user_fraction=1\ninitial_infected=1\n"
            f"trace_file={trace}\n"
        )
        out = tmp_path / "replay"
        assert run_command(
            ["world", "--config", str(config), "--seed", "1", "--out", str(out)]
        ) == 0
        events = [json.loads(line) for line in (out / "events.jsonl").read_text().splitlines()]
        encounters = [e for e in events if e["type"] == "encounter"]
        assert len(encounters) == 2
        assert encounters[0]["end"] - encounters[0]["start"] == pytest.approx(300.0)

    def test_trace_directory_is_a_configuration_error(self, tmp_path, capsys):
        config = tmp_path / "world.cfg"
        config.write_text(f"agent_count=2\ninitial_infected=1\ntrace_file={tmp_path}\n")
        out = tmp_path / "out"
        assert run_command(["world", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(tmp_path) in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "line, message",
        [
            ("0,9,0,300,2.0", "trace names agent 9, config has 2"),
            ("-1,0,0,300,2.0", "trace line 1: negative agent id"),
            ("0,1,0,50,abc", "trace line 1: could not convert"),
        ],
    )
    def test_bad_trace_is_a_configuration_error(self, tmp_path, line, message):
        trace = tmp_path / "contacts.csv"
        trace.write_text(line + "\n")
        config = tmp_path / "world.cfg"
        config.write_text(f"agent_count=2\ninitial_infected=1\nkey_bits=32\ntrace_file={trace}\n")
        src = Path(__file__).resolve().parents[1] / "src"
        proc = subprocess.run(
            [sys.executable, "-m", "proximity_sim.cli", "world", "--config", str(config),
             "--out", str(tmp_path / "out")],
            env=dict(os.environ, PYTHONPATH=os.pathsep.join(
                [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p])),
            capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 1
        assert f"configuration error: {message}" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["epidemic", "sweep", "world"])
def test_unusable_out_is_a_configuration_error(tmp_path, capsys, monkeypatch, command):
    def simulate(*_args, **_kwargs):
        raise AssertionError("simulated before checking --out")

    monkeypatch.setattr(cli, "run_ensemble", simulate)
    monkeypatch.setattr(cli.World, "run", simulate)
    config = tmp_path / "run.cfg"
    config.write_text("agent_count=4\ninitial_infected=1\nkey_bits=32\n" if command == "world"
                      else "replicates=2\n")
    sweep = ["--sweep", "efficiency=0.5"] if command == "sweep" else []
    taken = tmp_path / "taken"
    taken.write_text("")
    for out in (taken, taken / "sub"):
        assert run_command([command, *sweep, "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("configuration error: ") and str(out) in err


@pytest.mark.parametrize("flag", ["--out", "--config"])
def test_crypto_selftest_takes_no_config_or_out(flag, capsys):
    with pytest.raises(SystemExit) as excinfo:
        run_command(["crypto-selftest", flag, "x"])
    assert excinfo.value.code == 2
    assert f"unrecognized arguments: {flag} x" in capsys.readouterr().err


def test_crypto_selftest_reports_toy_vector(capsys):
    assert run_command(["crypto-selftest"]) == 0
    out = capsys.readouterr().out
    assert "65 -> 2790 -> 65" in out
    assert "FAIL" not in out
