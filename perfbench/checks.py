"""Output checks on the files the CLI writes, with no import of the package.

Epidemic outputs are graded against the exact first and second moments
of the branching process's cumulative case count (`cumulative_moments`),
so an engine that changes the random stream can still be checked.
World outputs are checked against the protocol's invariants.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from pathlib import Path

# The statistical gates run on every run the benchmark makes, hundreds of
# times per comparison, so a 3 SE gate would fail correct code about once
# per few hundred columns; 4.5 SE keeps chance failures near 1e-5 a column.
Z_GATE = 4.5

WORLD_FILES = (
    "events.jsonl",
    "bus_trace.jsonl",
    "dispatch_log.csv",
    "devices.jsonl",
    "false_alert_report.txt",
)


def activation_level(day: int, p: dict) -> float:
    if day < p["activation_day"]:
        return 0.0
    if p["ramp_days"] == 0:
        return 1.0
    return min(1.0, (day - p["activation_day"]) / p["ramp_days"])


def cumulative_moments(p: dict) -> tuple[float, float]:
    """Exact mean and variance of cumulative cases through the horizon
    under FromInfection (or with no app at all).

    A case infected on day s is infectious on days s+1..s+D and draws
    Poisson(r0/D) offspring a day, divided by k when it was alerted at
    creation; a case created on day d is alerted with probability
    efficiency * activation_level(d).  For one case of type (s, alerted),
    X = its descendants up to the horizon, itself included, satisfies
    E[X] = 1 + sum_a rate * E[X'] and Var[X] = sum_a rate * E[X'^2],
    where X' mixes the alerted and unalerted child types (a compound
    Poisson sum).  The initial cases are independent and created on day 0.
    """
    days, horizon = p["incubation_days"], p["horizon_days"]
    rate = p["r0"] / days
    alert_p = [p["efficiency"] * activation_level(d, p) for d in range(horizon + 1)]
    mean = [[0.0, 0.0] for _ in range(horizon + 1)]
    square = [[0.0, 0.0] for _ in range(horizon + 1)]
    for s in range(horizon, -1, -1):
        for alerted in (0, 1):
            r = rate / p["quarantine_factor"] if alerted else rate
            m, v = 1.0, 0.0
            for d in range(s + 1, min(s + days, horizon) + 1):
                q = alert_p[d]
                m += r * (q * mean[d][1] + (1 - q) * mean[d][0])
                v += r * (q * square[d][1] + (1 - q) * square[d][0])
            mean[s][alerted] = m
            square[s][alerted] = v + m * m
    q0 = alert_p[0]
    m0 = q0 * mean[0][1] + (1 - q0) * mean[0][0]
    s0 = q0 * square[0][1] + (1 - q0) * square[0][0]
    n0 = p["initial_infected"]
    return n0 * m0, n0 * (s0 - m0 * m0)


def _read_csv(path: Path) -> list[list[str]]:
    with open(path, newline="") as handle:
        return list(csv.reader(handle))


def sweep_call(out: Path, labels: list[str]) -> tuple[list[str], dict]:
    """Check one `sweep` output directory; returns (errors, label -> mean)."""
    errors = []
    for name in ("sweep_series.csv", "sweep_series.svg", "sweep_summary.csv"):
        if not (out / name).is_file():
            errors.append(f"{name} missing")
    if errors:
        return errors, {}
    rows = _read_csv(out / "sweep_summary.csv")
    means = {row[0]: float(row[1]) for row in rows[1:]}
    if rows[0] != ["label", "cumulative_mean", "cumulative_se"] or list(means) != labels:
        errors.append(f"sweep_summary.csv rows {list(means)}, want {labels}")
    series = _read_csv(out / "sweep_series.csv")
    header = series[0]
    if header[1:] != labels:
        errors.append(f"sweep_series.csv columns {header[1:]}, want {labels}")
    elif "quarantine_factor=1.0" in labels:
        null = header.index("quarantine_factor=1.0")
        if any(row[1] != row[null] for row in series[1:]):
            errors.append("quarantine_factor=1.0 column differs from baseline")
    return errors, means


def epidemic_call(out: Path) -> tuple[list[str], dict]:
    """Check one `epidemic` output directory; returns (errors, cumulative means)."""
    errors = []
    for name in ("daily_new_infected.csv", "daily_new_infected.svg"):
        if not (out / name).is_file():
            errors.append(f"{name} missing")
    if errors:
        return errors, {}
    rows = _read_csv(out / "daily_new_infected.csv")
    if len(rows[0]) != 3 or rows[0][:2] != ["day", "baseline"]:
        return [f"daily_new_infected.csv header {rows[0]}"], {}
    return [], {
        "baseline": sum(float(row[1]) for row in rows[1:]),
        "app": sum(float(row[2]) for row in rows[1:]),
    }


def column_params(config: dict, label: str) -> dict:
    """Parameters behind one output column ('baseline' or 'key=value')."""
    params = dict(config)
    if label == "baseline":
        params["efficiency"] = 0.0
    else:
        key, _, value = label.partition("=")
        params[key] = float(value)
    return params


def gate_columns(config: dict, pooled: dict, replicates: int) -> tuple[list[str], dict]:
    """Gate pooled column means against the exact expectation.

    `pooled` maps a column label to the mean over all calls of the run and
    `replicates` is how many replicates that mean covers.
    """
    errors, z_scores = [], {}
    for label, observed in pooled.items():
        mean, variance = cumulative_moments(column_params(config, label))
        se = math.sqrt(variance / replicates)
        z = (observed - mean) / se
        z_scores[label] = {"observed": observed, "expected": mean, "se": se, "z": z}
        if abs(z) > Z_GATE:
            errors.append(
                f"{label}: cumulative {observed:.1f}, expected {mean:.1f} "
                f"+- {Z_GATE} x {se:.1f}"
            )
    return errors, z_scores


def world_call(out: Path) -> tuple[list[str], dict]:
    """Check one `world` output directory against the protocol invariants.

    Returns (errors, info) with the decrypt counts behind the error rate
    and the report's key=value pairs.
    """
    missing = [name for name in WORLD_FILES if not (out / name).is_file()]
    if missing:
        return [f"{name} missing" for name in missing], {}
    errors = []
    events = [json.loads(line) for line in open(out / "events.jsonl")]
    issued = [e["token"] for e in events if e["type"] == "key_issued"]
    uploads = [e for e in events if e["type"] == "upload"]
    red_tokens = [e["token"] for e in uploads if e["level"] == "red"]
    if sorted(issued) != sorted(red_tokens) or len(set(issued)) != len(issued):
        errors.append("activation tokens not consumed exactly once each")
    failures = sum(e["decrypt_failures"] for e in uploads)
    if failures:
        errors.append(f"{failures} decrypt failures")
    tags = {e["origin_tag"] for e in uploads}
    orphans = sum(1 for e in events if e["type"] == "notify" and e["origin_tag"] not in tags)
    if orphans:
        errors.append(f"{orphans} notifications name no upload")
    report = dict(
        line.split("=", 1)
        for line in (out / "false_alert_report.txt").read_text().splitlines()
    )
    counted = {
        "infections": "infection",
        "detected": "detected",
        "encounters": "encounter",
        "uploads": "upload",
        "notifications": "notify",
    }
    for key, kind in counted.items():
        n = sum(1 for e in events if e["type"] == kind)
        if report.get(key) != str(n):
            errors.append(f"report {key}={report.get(key)}, events.jsonl has {n}")
    decrypts = sum(e["n_sent"] + e["n_waitlisted"] + e["decrypt_failures"] for e in uploads)
    return errors, {
        "decrypts": decrypts,
        "decrypt_failures": failures,
        "uploads": len(uploads),
        "events": len(events),
        "report": report,
    }


def digests(out: Path) -> dict:
    """sha256 of every file in an output directory, by name."""
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.iterdir())
        if path.is_file()
    }


def output_bytes(out: Path) -> int:
    return sum(path.stat().st_size for path in out.iterdir() if path.is_file())
