from __future__ import annotations

import hashlib
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

    def test_repeated_axis_value_exit_code(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        assert run_command(
            ["sweep", "--sweep", "efficiency=0.5,0.50,1", "--out", str(out)]
        ) == 1
        assert "repeats 0.5" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_point_exit_code(self, tmp_path, capsys):
        # a finite value the parameters refuse: no column runs, nothing is written
        out = tmp_path / "sweep"
        assert run_command(
            ["sweep", "--sweep", "efficiency=0.5,1.5", "--out", str(out)]
        ) == 1
        assert "efficiency must be within [0, 1]" in capsys.readouterr().err
        assert not out.exists()

    def test_cap_abort_exit_code(self, tmp_path, capsys):
        config = tmp_path / "tiny.cfg"
        config.write_text("max_active=40\nreplicates=2\nhorizon_days=40\n")
        out = tmp_path / "capped"
        assert run_command(
            ["sweep", "--config", str(config), "--seed", "3", "--out", str(out),
             "--sweep", "efficiency=0.5,1"]
        ) == 2
        assert "activity cap hit during sweep" in capsys.readouterr().err
        assert (out / "sweep_summary.csv").exists()

    @pytest.mark.parametrize(
        "config_text, axis, calls",
        [
            # the k=1 column shares the no-app baseline's ensemble
            ("", "quarantine_factor=1,10", 2),
            # no alert acts anywhere, but every column has its own r0
            ("r0=4\nefficiency=0\nhorizon_days=20\n", "r0=2,3", 3),
            # alerts switched on after the horizon act on no day
            ("horizon_days=60\n", "activation_day=30,61", 2),
        ],
    )
    def test_columns_whose_alerts_cannot_act_reuse_the_baseline(
        self, tmp_path, monkeypatch, config_text, axis, calls
    ):
        config = tmp_path / "run.cfg"
        config.write_text(config_text + "replicates=2\n")
        ran = []
        run_ensemble = cli.run_ensemble

        def counting(params, base_seed):
            ran.append(params)
            return run_ensemble(params, base_seed)

        monkeypatch.setattr(cli, "run_ensemble", counting)
        code = run_command(
            ["sweep", "--config", str(config), "--out", str(tmp_path / "out"), "--sweep", axis]
        )
        assert code == 0
        assert len(ran) == calls


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


@pytest.mark.parametrize(
    "command, config_text, sweep",
    [
        ("epidemic", "quarantine_factor=nan\n", []),
        ("sweep", "replicates=2\n", ["--sweep", "r0=2,inf"]),
        ("world", "box_size=nan\n", []),
    ],
)
def test_non_finite_float_is_a_configuration_error(tmp_path, capsys, command, config_text,
                                                   sweep):
    config = tmp_path / "run.cfg"
    config.write_text(config_text)
    out = tmp_path / "out"
    assert run_command([command, *sweep, "--config", str(config), "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("configuration error: ")
    assert not out.exists()


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


# sha256 of the files `proximity-sim epidemic` and `sweep` write, and of
# their stdout, pinned before the epidemic engine learned to skip draws
# that cannot reach the series (Python 3.11.7, numpy 2.4.6); an engine
# change that keeps behaviour keeps these digests.  The sweep runs over
# quarantine_factor=1,2,10, so its k=1 column must equal the baseline.
GOLDEN_EPIDEMIC_CONFIG = "replicates=4\nhorizon_days=45\nefficiency=0.6\n"
GOLDEN_EPIDEMICS = {
    ("epidemic", "FromInfection", False, 7): {
        "daily_new_infected.csv": "86fdacbcc33cbf3c5e24077f52ce66453d3936e1a329fc305bcc148f65ac80a9",
        "daily_new_infected.svg": "b826506f7a04b1ec8860b9c814f42488a3337d81ab3c38e856caa4f9b3d8ea4e",
        "stdout": "5d2c4a82c6beb8d8e29f86accac8bc798bd897da3b8d8ac52c7899598b6ce604",
    },
    ("epidemic", "FromInfection", False, 2026): {
        "daily_new_infected.csv": "0a02e4d1f5d7dd3e3f5ff1a7a135bf74cf933ae6d135d7ebac78334464bb1be2",
        "daily_new_infected.svg": "5437b974e4a8fdfd98045924b792d9a7897d70322db349815f4bb27da9699591",
        "stdout": "1cb3b1c3ed5827cd2078b0e1eb2bef103f4a1775ed47ae580276dd35f1091f58",
    },
    ("epidemic", "FromInfection", True, 7): {
        "daily_new_infected.csv": "86fdacbcc33cbf3c5e24077f52ce66453d3936e1a329fc305bcc148f65ac80a9",
        "daily_new_infected.svg": "9cd194f273426f982a76f9d5914509a232f4f2351f29c1d32902b74bc4884bbf",
        "stdout": "5d2c4a82c6beb8d8e29f86accac8bc798bd897da3b8d8ac52c7899598b6ce604",
    },
    ("epidemic", "FromInfection", True, 2026): {
        "daily_new_infected.csv": "0a02e4d1f5d7dd3e3f5ff1a7a135bf74cf933ae6d135d7ebac78334464bb1be2",
        "daily_new_infected.svg": "4d2e83bd79ede74eb476d8f817ab12f562b1eb3f8171dc281d971a6afa8e0bf4",
        "stdout": "1cb3b1c3ed5827cd2078b0e1eb2bef103f4a1775ed47ae580276dd35f1091f58",
    },
    ("sweep", "FromInfection", False, 7): {
        "stdout": "cc2197ae950adde287345e39d2cad8a2e232796a7f304b4c3bd8dc86e35f5e13",
        "sweep_series.csv": "dc7281c09ba9c86fca264e9a7b89e79a06394913a9c574538fd11ed6ce6ebe8e",
        "sweep_series.svg": "b65a5666caf46f6f25491a162398ac01d00dc7887b773c740ee793261691eb65",
        "sweep_summary.csv": "18bf54a66eb4320be949ec30a775c9da716e09edfd4d7f76a8195698e39bf5f5",
    },
    ("sweep", "FromInfection", False, 2026): {
        "stdout": "8f5dbe248789b2facdf4e6a70b2542cfeef1c5645514cc7b33bbe9bcd208ac6b",
        "sweep_series.csv": "0d8d5a8d4db9df1754d222240767125976aa7b7641f5d650fad2fb0288084ecf",
        "sweep_series.svg": "3bb9d44552e09c6fa529c8af957824e9fe6c6c576f58e34e59f3479c123aa0b0",
        "sweep_summary.csv": "711ae24c9ad7a822cc44326b3ccbdd1ff8163b2f43f0c0fecab8bbfb69a3b97b",
    },
    ("epidemic", "AtDetection", False, 7): {
        "daily_new_infected.csv": "889e49a977ecb16f3649980e5914f01e7c19945a9cab1e198fa41bffe723c26f",
        "daily_new_infected.svg": "8c761b778d49de49aaaee17de842a7264befe10b1a0a59655c40d6670ba19c25",
        "stdout": "8d4a218a6e9684f9b09ffc7ff1fcacb051c0b65bfaa9d6f6453c7409be4a512e",
    },
    ("epidemic", "AtDetection", False, 2026): {
        "daily_new_infected.csv": "faef8513f62f063bbb8932e7f26477a2c13c17a973823825cb3e81fa0dd3ed0c",
        "daily_new_infected.svg": "4fea57935f717b1be81d73864e1d9f1bb2b985f805a0afc431f145df4ce782fc",
        "stdout": "06f4e06a9e48eacf1403d5bf5352e3496702d78c3e90611d3df15259e63d411c",
    },
    ("epidemic", "AtDetection", True, 7): {
        "daily_new_infected.csv": "889e49a977ecb16f3649980e5914f01e7c19945a9cab1e198fa41bffe723c26f",
        "daily_new_infected.svg": "3462860df2ffa4ea3bcd61aba466be57ae142c967a28690cebce6743599071b8",
        "stdout": "8d4a218a6e9684f9b09ffc7ff1fcacb051c0b65bfaa9d6f6453c7409be4a512e",
    },
    ("epidemic", "AtDetection", True, 2026): {
        "daily_new_infected.csv": "faef8513f62f063bbb8932e7f26477a2c13c17a973823825cb3e81fa0dd3ed0c",
        "daily_new_infected.svg": "43c15f174170f46341cf7e34be4f8e055362e55e50be49f280329dbe766887a0",
        "stdout": "06f4e06a9e48eacf1403d5bf5352e3496702d78c3e90611d3df15259e63d411c",
    },
    ("sweep", "AtDetection", False, 7): {
        "stdout": "f043193f4bcef9d7c758b5e3fe61218f73f3fc1bf99249a268b605e2d3d52715",
        "sweep_series.csv": "a5765a9b7bab5f6f13abb21c99755cedefde831e180a25ffff955a78fe32b4b1",
        "sweep_series.svg": "53a6cea9646d131e0711b3f0c1227220f908e1c3d069fc805f95950ad3a8c006",
        "sweep_summary.csv": "fe233fb5b5dd483d1257ba8ce6c402d06c33bcda9e483e2f1f2a4749d5390e83",
    },
    ("sweep", "AtDetection", False, 2026): {
        "stdout": "0a4a5ed925f2e0b2de1aa4080b9c957ec740de2e4294db00887168ecbb4a750b",
        "sweep_series.csv": "9e3560a27ea22161d89c23847ffb5a10b2fa59fd76f10619ea34d46813b9785a",
        "sweep_series.svg": "62ba20398ec2751238ede14f2531e38b69eaa604bfaec6dea25170cf1ad1ce64",
        "sweep_summary.csv": "1a08c1c377774f121474975eea692971c678a239175dd07e3b9e3d6103e0e0c6",
    },
}


@pytest.mark.parametrize("command, policy, band, seed", sorted(GOLDEN_EPIDEMICS))
def test_epidemic_outputs_match_golden_digests(tmp_path, capsys, command, policy, band, seed):
    config = tmp_path / "run.cfg"
    config.write_text(GOLDEN_EPIDEMIC_CONFIG + f"alert_policy={policy}\n")
    out = tmp_path / "out"
    argv = [command, "--config", str(config), "--seed", str(seed), "--out", str(out)]
    if band:
        argv.append("--band")
    if command == "sweep":
        argv += ["--sweep", "quarantine_factor=1,2,10"]
    assert run_command(argv) == 0
    written = {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
    }
    written["stdout"] = hashlib.sha256(capsys.readouterr().out.encode()).hexdigest()
    assert written == GOLDEN_EPIDEMICS[command, policy, band, seed]
