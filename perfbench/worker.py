"""The workload process: one fresh interpreter per call from run.py.

    python3 perfbench/worker.py setup|timed|trace JOB_JSON

`setup` imports the package, parses the workload config and prints the
monotonic clock, so the parent can time start-up from its spawn time.
`timed` calls the CLI entry point `run_command` with fresh seeds until
the run's seconds are spent.  `trace` makes one untraced CLI call and
then repeats the CLI's steps through public calls with spans around
them.  Results go to a JSON file named in the job.
"""

from __future__ import annotations

import contextlib
import inspect
import io
import json
import math
import resource
import statistics
import sys
import time
import traceback
from dataclasses import replace
from pathlib import Path

import numpy as np
from proximity_sim.cli import run_command
from proximity_sim.config import parse_config, parse_sweep_axis
from proximity_sim.crypto import (decode_contact, decrypt, derive_seed, encode_contact,
                                  encrypt, generate_keypair)
from proximity_sim.epidemic import run_ensemble
from proximity_sim.report import emit_csv, emit_svg
from proximity_sim.world import EmptyLog, World, false_alert_rate, global_ledger_view

from spans import Tracer


def cli_call(job: dict, seed: int, out: Path) -> dict:
    argv = [job["command"], *job["extra_args"], "--config", job["config_path"],
            "--seed", str(seed), "--out", str(out)]
    stream = io.StringIO()
    error = None
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stream), contextlib.redirect_stderr(stream):
            code = run_command(argv)
    except Exception:  # a crash is a failed call, reported with its traceback
        code, error = -1, traceback.format_exc()
    wall = time.perf_counter() - start
    return {"seed": seed, "out": str(out), "wall_s": wall, "exit_code": code,
            "stderr": error or stream.getvalue()[-2000:]}


def run_timed(job: dict) -> dict:
    calls = []
    start = time.perf_counter()
    for index, seed in enumerate(job["seeds"]):
        calls.append(cli_call(job, seed, Path(job["workdir"]) / f"call-{index}"))
        elapsed = time.perf_counter() - start
        typical = statistics.median(c["wall_s"] for c in calls)
        if elapsed + typical / 2 >= job["seconds"] or elapsed >= job["max_seconds"]:
            break
    return {"calls": calls}


# -- traced run -------------------------------------------------------------


def trace_epidemic(job: dict, tracer: Tracer, seed: int, out: Path):
    """Repeat `proximity-sim epidemic` or `sweep` through public calls;
    returns the parameters and the (label, ensemble) columns."""
    params = tracer.call("config.parse", parse_config, Path(job["config_path"]).read_text(),
                         command=job["command"]).sim_params
    columns = [("baseline", params.without_app())]
    if job["command"] == "sweep":
        key, values = parse_sweep_axis(job["extra_args"][1])
        columns += [(f"{key}={value}", replace(params, **{key: value})) for value in values]
    else:
        columns.append((f"app(efficiency={params.efficiency})", params))
    ensembles = [(label, tracer.call("epidemic.ensemble", run_ensemble, p, seed))
                 for label, p in columns]

    index = tracer.open("report.emit")
    out.mkdir(parents=True)
    length = min(len(e.mean) for _, e in ensembles)
    series = [(label, e.mean[:length]) for label, e in ensembles]
    stem = "sweep_series" if job["command"] == "sweep" else "daily_new_infected"
    emit_csv(series, out / f"{stem}.csv")
    if job["command"] == "sweep":
        emit_svg(series, out / f"{stem}.svg", title=f"sweep over {key}")
        lines = ["label,cumulative_mean,cumulative_se"] + [
            f"{label},{mean:.6f},{se:.6f}"
            for label, e in ensembles
            for mean, se in [e.cumulative_stats(length - 1)]
        ]
        (out / "sweep_summary.csv").write_text("\n".join(lines) + "\n", newline="\n")
    else:
        emit_svg(series, out / f"{stem}.svg")
    tracer.close(index)
    return params, ensembles


def epidemic_metrics(tracer: Tracer, params, ensembles) -> dict:
    incubation = params.incubation_days
    person_days = cases = aborted = replicates = 0
    for _, e in ensembles:
        daily = e.daily.astype(np.int64)
        # cum[:, d] counts cases infected before day d; a case is
        # infectious on day d when infected on days d-D .. d-1
        cum = np.concatenate([np.zeros((daily.shape[0], 1), np.int64),
                              np.cumsum(daily, axis=1)], axis=1)
        for d in range(1, daily.shape[1]):
            person_days += int((cum[:, d] - cum[:, max(0, d - incubation)]).sum())
        cases += int(daily.sum())
        aborted += len(e.aborted_replicates)
        replicates += daily.shape[0]
    ensemble = tracer.durations("epidemic.ensemble")
    return {
        "epidemic.ensemble_s": sum(ensemble),
        "epidemic.ensemble_s_max": max(ensemble),
        "epidemic.replicates": replicates,
        "epidemic.cases": cases,
        "epidemic.aborted_replicates": aborted,
        "epidemic.person_days": person_days,
        "epidemic.ns_per_person_day": sum(ensemble) / person_days * 1e9 if person_days else 0.0,
    }


class WorldCounters:
    """Counts taken at the device and authority boundaries."""

    def __init__(self, server) -> None:
        self.server_type = type(server)
        self.n = dict.fromkeys((
            "record_calls", "purge_calls", "purge_scanned", "purge_removed",
            "activate_calls", "notifications", "yellow_requests", "red_uploads",
            "yellow_dispatches", "keys_issued", "sent", "waitlisted", "decrypts",
            "decrypt_failures"), 0)

    def count(self, key):
        def after(*_args, **_kwargs):
            self.n[key] += 1
        return after

    def purge_of(self, device):
        def after(removed, *_args, **_kwargs):
            self.n["purge_calls"] += 1
            self.n["purge_removed"] += removed
            self.n["purge_scanned"] += removed + len(device.ledger.entries)
        return after

    def notification(self, request, *_args, **_kwargs):
        self.n["notifications"] += 1
        self.n["yellow_requests"] += request is not None

    def upload_of(self, method, key):
        signature = inspect.signature(getattr(self.server_type, method))

        def after(result, *args, **kwargs):
            submitted = signature.bind(None, *args, **kwargs).arguments["scored_contacts"]
            self.n[key] += 1
            self.n["decrypts"] += len(submitted)
            self.n["sent"] += len(result.sent)
            self.n["waitlisted"] += len(result.waitlisted)
            self.n["decrypt_failures"] += result.decrypt_failures
        return after


def pairs_in_range(world) -> int:
    positions = np.stack([agent.position for agent in world.agents])
    deltas = positions[:, None, :] - positions[None, :, :]
    dist = np.sqrt((deltas ** 2).sum(axis=2))
    return int(np.count_nonzero(np.triu(dist <= world.config.radio.max_radio_range, k=1)))


def trace_world(job: dict, tracer: Tracer, seed: int, out: Path):
    """Repeat `proximity-sim world` through public calls.  Returns the
    world, its keypair, the counters, the report lines as a dict, the
    pairs in radio range summed over ticks and the seconds spent counting
    them (benchmark work, not the program's)."""
    config = tracer.call("config.parse", parse_config, Path(job["config_path"]).read_text(),
                         command="world").world_config
    keypair = tracer.call("crypto.keygen", generate_keypair, derive_seed(seed, 1),
                          config.key_bits)
    world = tracer.call("world.init", World, config, seed=seed, keypair=keypair)

    server = world.dispatch_server
    counters = WorldCounters(server)
    for agent in world.agents:
        device = agent.device
        if device is None:
            continue
        tracer.wrap(device, "record_encounter", "device.record", counters.count("record_calls"))
        tracer.wrap(device, "purge_expired", "device.purge", counters.purge_of(device))
        tracer.wrap(device, "activate_alert_mode", "device.activate",
                    counters.count("activate_calls"))
        tracer.wrap(device, "handle_notification", "device.notify", counters.notification)
    tracer.wrap(server, "process_alert_upload", "authority.upload",
                counters.upload_of("process_alert_upload", "red_uploads"))
    tracer.wrap(server, "process_yellow_dispatch", "authority.yellow",
                counters.upload_of("process_yellow_dispatch", "yellow_dispatches"))
    tracer.wrap(world.issuer, "issue_activation_key", "authority.issue",
                counters.count("keys_issued"))

    pairs, counting_s = 0, 0.0
    for _ in range(math.ceil(config.horizon_seconds / config.tick_seconds)):
        tracer.call("world.tick", world.tick)
        start = time.perf_counter()
        pairs += pairs_in_range(world)  # the positions this tick's contact search saw
        counting_s += time.perf_counter() - start
    tracer.call("world.flush", world.flush_open_encounters)

    index = tracer.open("world.reporting")
    summary = world.summary()
    try:
        rate = f"{false_alert_rate(world.events, config.infection_range):.6f}"
    except EmptyLog:
        rate = "n/a (no red notifications)"
    snapshots = world.device_snapshots()
    tracer.close(index)

    index = tracer.open("report.emit")
    out.mkdir(parents=True)
    with open(out / "events.jsonl", "w", newline="\n") as handle:
        for event in world.events:
            handle.write(json.dumps(event, sort_keys=True) + "\n")
    with open(out / "devices.jsonl", "w", newline="\n") as handle:
        for snapshot in snapshots:
            handle.write(json.dumps(snapshot, sort_keys=True) + "\n")
    tracer.close(index)

    report = {key: str(value) for key, value in summary.items()}
    report["red_notifications_false_alert_rate"] = rate
    return world, keypair, counters, report, pairs, counting_s


def crypto_samples(world, keypair) -> dict:
    """Encrypt every app user's packed contact and decrypt ledger envelopes
    (up to 2000, or one second's worth) at the workload's key size."""
    contacts = {a.device.own_contact for a in world.agents if a.device is not None}
    start = time.perf_counter()
    for contact in contacts:
        encrypt(keypair.public, encode_contact(contact))
    encrypt_s = time.perf_counter() - start
    envelopes = [e.peer_envelope for entries in global_ledger_view(world).values()
                 for e in entries]
    decrypted, start = 0, time.perf_counter()
    for envelope in envelopes:
        if decode_contact(decrypt(keypair, envelope)) not in contacts:
            raise RuntimeError("ledger envelope decrypts to an unknown contact")
        decrypted += 1
        if decrypted >= 2000 or time.perf_counter() - start > 1.0:
            break
    decrypt_s = time.perf_counter() - start
    return {
        "crypto.encrypt_us": encrypt_s / len(contacts) * 1e6 if contacts else 0.0,
        "crypto.decrypt_us": decrypt_s / decrypted * 1e6 if decrypted else 0.0,
        "crypto.ops_sampled": len(contacts) + decrypted,
    }


def world_metrics(tracer: Tracer, world, counters: WorldCounters, report: dict,
                  pairs: int) -> dict:
    spans = tracer.summary()

    def total(name):
        return spans.get(name, {}).get("total_s", 0.0)

    n = counters.n
    tick_ms = sorted(d * 1e3 for d in tracer.durations("world.tick"))
    busy = total("authority.upload") + total("authority.yellow") + total("authority.issue")
    world_self = spans["world.tick"]["self_s"]
    return {
        "world.init_s": total("world.init"),
        "world.tick_s": total("world.tick"),
        "world.tick_ms_p50": statistics.median(tick_ms),
        "world.tick_ms_p95": tick_ms[math.ceil(0.95 * len(tick_ms)) - 1],
        "world.self_s": world_self,
        "world.pairs_in_range": pairs,
        "world.us_per_pair": world_self / pairs * 1e6 if pairs else 0.0,
        "world.ticks": len(tick_ms),
        "world.agents": world.config.agent_count,
        "world.encounters": int(report["encounters"]),
        "world.infections": int(report["infections"]),
        "world.events": len(world.events),
        "world.reporting_s": total("world.reporting"),
        "device.record_calls": n["record_calls"],
        "device.record_s": total("device.record"),
        "device.purge_calls": n["purge_calls"],
        "device.purge_s": total("device.purge"),
        "device.purge_scanned": n["purge_scanned"],
        "device.purge_removed": n["purge_removed"],
        "device.purge_useful_ratio":
            n["purge_removed"] / n["purge_scanned"] if n["purge_scanned"] else 0.0,
        "device.activate_calls": n["activate_calls"],
        "device.activate_self_s": spans.get("device.activate", {}).get("self_s", 0.0),
        "device.notifications": n["notifications"],
        "device.yellow_requests": n["yellow_requests"],
        "device.ledger_entries_end":
            sum(len(a.device.ledger.entries) for a in world.agents if a.device is not None),
        "authority.red_uploads": n["red_uploads"],
        "authority.yellow_dispatches": n["yellow_dispatches"],
        "authority.keys_issued": n["keys_issued"],
        "authority.sent": n["sent"],
        "authority.waitlisted": n["waitlisted"],
        "authority.decrypts": n["decrypts"],
        "authority.decrypt_failures": n["decrypt_failures"],
        "authority.busy_s": busy,
        "authority.ms_per_decrypt": busy / n["decrypts"] * 1e3 if n["decrypts"] else 0.0,
        "authority.idle_waitlist_records": world.dispatch_server.idle_state()["waitlist_records"],
        "crypto.keygen_s": total("crypto.keygen"),
    }


def run_trace(job: dict) -> dict:
    seed = job["seeds"][0]
    workdir = Path(job["workdir"])
    untraced = cli_call(job, seed, workdir / "call-0")
    tracer = Tracer()
    report = None
    start = time.perf_counter()
    if job["command"] == "world":
        world, keypair, counters, report, pairs, counting_s = trace_world(
            job, tracer, seed, workdir / "trace-0")
        traced_wall = time.perf_counter() - start - counting_s
        metrics = world_metrics(tracer, world, counters, report, pairs)
        metrics.update(crypto_samples(world, keypair))
    else:
        params, ensembles = trace_epidemic(job, tracer, seed, workdir / "trace-0")
        traced_wall = time.perf_counter() - start
        metrics = epidemic_metrics(tracer, params, ensembles)
    with open(job["spans_path"], "w") as handle:
        for span in tracer.spans:
            handle.write(json.dumps(span) + "\n")
    spans = tracer.summary()
    metrics["report.emit_s"] = spans["report.emit"]["total_s"]
    metrics["trace.overhead_s"] = traced_wall - untraced["wall_s"]
    return {
        "calls": [untraced],
        "metrics": metrics,
        "report": report,
        "traced_wall_s": traced_wall,
        "spans": spans,
    }


def main() -> int:
    mode, job_path = sys.argv[1], Path(sys.argv[2])
    job = json.loads(job_path.read_text())
    if mode == "setup":
        parse_config(Path(job["config_path"]).read_text(), command=job["command"])
        print(json.dumps({"ready": time.monotonic()}))
        return 0
    result = run_timed(job) if mode == "timed" else run_trace(job)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["python"] = sys.version.split()[0]
    result["numpy"] = np.__version__
    Path(job["result_path"]).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
