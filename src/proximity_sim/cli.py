"""Command-line runner: figure-style experiments, sweeps, micro-world runs.

    proximity-sim epidemic        [--config PATH] [--seed N] [--out DIR] [--band]
    proximity-sim sweep           --sweep KEY=V1,V2,... [--config PATH] [--seed N] [--out DIR]
    proximity-sim world           [--config PATH] [--seed N] [--out DIR]
    proximity-sim crypto-selftest [--seed N]

Exit codes: 0 success, 1 configuration problem (a bad config, trace or
--out), 2 runtime abort (activity cap exceeded).  Outputs are
byte-deterministic for identical inputs.
"""

from __future__ import annotations

import argparse
import sys
from dataclasses import replace
from pathlib import Path

from . import crypto
from .config import ParseError, RunConfig, ValidationError, parse_config, parse_sweep_axis
from .epidemic import SimulationParams, run_ensembles
from .report import emit_csv, emit_svg
from .world import (
    EVENT_FIELDS,
    EmptyLog,
    OverBudget,
    World,
    false_alert_rate,
    json_line_writer,
    parse_contact_trace,
)

__all__ = ["main", "run_command"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="proximity-sim",
        description="contact-tracing protocol and outbreak co-simulator",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _HANDLERS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--seed", type=int, default=42)
        if name == "crypto-selftest":  # reads no config and writes no files
            continue
        cmd.add_argument("--config", type=Path, default=None)
        cmd.add_argument("--out", type=Path, default=Path("out"))
        if name == "epidemic":
            cmd.add_argument(
                "--band",
                action="store_true",
                help="shade the gap between baseline and intervention",
            )
        if name == "sweep":
            cmd.add_argument("--sweep", required=True, metavar="KEY=V1,V2,...")
    return parser


def _load_config(args: argparse.Namespace) -> RunConfig:
    try:
        text = args.config.read_text() if args.config else ""
    except OSError as exc:  # a missing or unreadable config file
        raise ValidationError(str(exc)) from exc
    return parse_config(text, command=args.command)


def _make_out_dir(out: Path) -> None:
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:  # --out names a file, or a place that cannot be made
        raise ValidationError(str(exc)) from exc


def _run_columns(args: argparse.Namespace, params: SimulationParams, points: list):
    """Make the output directory, run the seed-coupled no-app baseline and
    each (label, params) point in one `run_ensembles` call; return the
    ensembles, their means trimmed to the shortest, its last day, and the
    capped replicates (exit 2 if any)."""
    _make_out_dir(args.out)
    columns = [("baseline", params.without_app()), *points]
    ensembles = list(zip([label for label, _ in columns],
                         run_ensembles([point for _, point in columns], args.seed)))
    length = min(len(e.mean) for _, e in ensembles)
    series = [(label, e.mean[:length]) for label, e in ensembles]
    aborted = sorted({r for _, e in ensembles for r in e.aborted_replicates})
    return ensembles, series, length - 1, aborted


def _run_epidemic(args: argparse.Namespace) -> int:
    params = _load_config(args).sim_params
    ensembles, series, last_day, aborted = _run_columns(
        args, params, [(f"app(efficiency={params.efficiency})", params)]
    )
    emit_csv(series, args.out / "daily_new_infected.csv")
    emit_svg(
        series,
        args.out / "daily_new_infected.svg",
        band=(series[0][0], series[1][0]) if args.band else None,
    )
    (base_total, _), (app_total, _) = (e.cumulative_stats(last_day) for _, e in ensembles)
    print(f"cumulative at day {last_day}: "
          f"baseline {base_total:.1f}, app {app_total:.1f}")
    if aborted:
        print(f"runtime abort: activity cap hit in replicates {aborted}", file=sys.stderr)
        return 2
    return 0


def _run_sweep(args: argparse.Namespace) -> int:
    params = _load_config(args).sim_params
    key, values = parse_sweep_axis(args.sweep)
    try:
        points = [(f"{key}={value}", replace(params, **{key: value})) for value in values]
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    ensembles, series, last_day, aborted = _run_columns(args, params, points)
    summary = [(label,) + e.cumulative_stats(last_day) for label, e in ensembles]
    emit_csv(series, args.out / "sweep_series.csv")
    emit_svg(series, args.out / "sweep_series.svg", title=f"sweep over {key}")
    lines = ["label,cumulative_mean,cumulative_se"]
    lines += [f"{label},{mean:.6f},{se:.6f}" for label, mean, se in summary]
    (args.out / "sweep_summary.csv").write_text("\n".join(lines) + "\n", newline="\n")
    for label, mean, _ in summary:
        print(f"{label}: cumulative at day {last_day} = {mean:.1f}")
    if aborted:
        print("runtime abort: activity cap hit during sweep", file=sys.stderr)
        return 2
    return 0


# the bus_trace.jsonl message of each event type that is one
_BUS_MESSAGES = {
    "key_request": "KEY_REQUEST",
    "key_issued": "KEY_ISSUE",
    "upload": "ALERT_UPLOAD",
    "notify": "NOTIFY",
    "waitlist_release": "WAITLIST_RELEASE",
}


def _run_world(args: argparse.Namespace) -> int:
    run = _load_config(args)
    trace = None
    try:
        if run.trace_file:
            trace = parse_contact_trace(Path(run.trace_file).read_text())
        world = World(run.world_config, seed=args.seed, trace=trace)
    except (OSError, ValueError) as exc:  # a trace that cannot be read, parsed or held
        raise ValidationError(str(exc)) from exc
    made = [path for path in (args.out, *args.out.parents) if not path.exists()]
    _make_out_dir(args.out)
    try:
        world.run()
    except OverBudget:  # a refused world leaves no directory, as other configuration errors
        for path in made:  # innermost first
            path.rmdir()
        raise
    # each line as json.dumps(record, sort_keys=True) writes it, from the
    # event type's fixed fields: events.jsonl holds every event, and
    # bus_trace.jsonl the message events, their "type" given as "message"
    event_lines = {
        kind: json_line_writer(fields, type=kind) for kind, fields in EVENT_FIELDS.items()
    }
    bus_lines = {
        kind: json_line_writer(EVENT_FIELDS[kind], message=message)
        for kind, message in _BUS_MESSAGES.items()
    }
    dispatch_rows = ["t,uploader,recipient,level,score,status,origin_tag"]
    with open(args.out / "events.jsonl", "w", newline="\n") as events_file, \
            open(args.out / "bus_trace.jsonl", "w", newline="\n") as bus_file:
        for event in world.events:
            kind = event["type"]
            events_file.write(event_lines[kind](event) + "\n")
            if kind in bus_lines:
                bus_file.write(bus_lines[kind](event) + "\n")
            elif kind == "dispatch":
                dispatch_rows.append(
                    f"{event['t']},{event['uploader']},{event['recipient']},{event['level']},"
                    f"{event['score']:.6f},{event['status']},{event['origin_tag']}"
                )
    (args.out / "dispatch_log.csv").write_text("\n".join(dispatch_rows) + "\n", newline="\n")
    with open(args.out / "devices.jsonl", "w", newline="\n") as handle:
        for line in world.device_lines():  # one record at a time
            handle.write(line + "\n")
    summary = world.summary()
    try:
        rate = false_alert_rate(world.events, run.world_config.infection_range)
        report = f"red_notifications_false_alert_rate={rate:.6f}"
    except EmptyLog:
        report = "red_notifications_false_alert_rate=n/a (no red notifications)"
    report_lines = [f"{k}={v}" for k, v in summary.items()] + [report]
    (args.out / "false_alert_report.txt").write_text(
        "\n".join(report_lines) + "\n", newline="\n"
    )
    for line in report_lines:
        print(line)
    return 0


def _run_crypto_selftest(args: argparse.Namespace) -> int:
    failures = 0

    def check(label: str, ok: bool) -> None:
        nonlocal failures
        print(f"{'ok  ' if ok else 'FAIL'} {label}")
        failures += 0 if ok else 1

    pair = crypto.keypair_from_primes(61, 53, e=17)
    toy = crypto.encrypt(pair.public, 65)
    check(
        "toy vector 65 -> 2790 -> 65",
        toy.ciphertext == 2790 and crypto.decrypt(pair, toy) == 65,
    )
    check(
        "toy key is (n=3233, e=17, d=2753)",
        (pair.public.modulus, pair.public.exponent, pair.secret.exponent)
        == (3233, 17, 2753),
    )
    for primes, n, d in (((61, 53), 3233, 2753), ((61, 53, 59), 190747, 74513)):
        key = crypto.keypair_from_primes(*primes, e=17)
        check(
            f"{len(primes)}-prime CRT decrypt equals c^{d} mod {n} for every c < {n}",
            key.public.modulus == n
            and all(
                crypto.decrypt(key, crypto.Envelope(c, key.key_tag)) == pow(c, d, n)
                for c in range(n)
            ),
        )
    ok = True
    for index in range(5):
        test_pair = crypto.generate_keypair(crypto.derive_seed(args.seed, index), 32)
        for m in range(0, 200, 7):
            envelope = crypto.encrypt(test_pair.public, m)
            if crypto.decrypt(test_pair, envelope) != m:
                ok = False
    check("round trips across 5 generated keypairs", ok)
    number = "+393331234567"
    check(
        "contact packing round trip",
        crypto.decode_contact(crypto.encode_contact(number)) == number,
    )
    digest = crypto.keyed_digest(b"key", b"message")
    check("keyed digest is 256-bit", len(digest) == 32)
    return 1 if failures else 0


_HANDLERS = {
    "epidemic": _run_epidemic,
    "sweep": _run_sweep,
    "world": _run_world,
    "crypto-selftest": _run_crypto_selftest,
}


def run_command(argv: list[str] | None = None) -> int:
    """Entry point returning the process exit code."""
    args = _build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ParseError, ValidationError, OverBudget) as exc:  # a world too crowded to run
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
