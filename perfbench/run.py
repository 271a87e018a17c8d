"""Benchmark of proximity-sim through its CLI entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh worker
interpreters (one thread for the numeric libraries), writes the
workload's config, and hands the program only that config, a seed and a
temporary output directory.  With --trace 0 it times CLI calls for S
seconds and reports the end-to-end metrics; with --trace 1 it makes one
untraced call and one traced replay and reports the per-layer metrics.
Outputs are checked every time.  The last stdout line is the result
object; the full record (provenance, sizes, per-call times, output
digests) goes to perfbench/results/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
from workloads import WORKLOADS, Workload, call_seed

BENCH = Path(__file__).resolve().parent
WORKER = BENCH / "worker.py"
RESULTS = BENCH / "results"
SETUP_PROBES = 7  # split between the start and the end of a timed run
LIMIT_S = 170  # a run must end inside 180 s
THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def worker_env(root: Path) -> dict:
    env = dict(os.environ, **THREADS)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    return env


def run_worker(mode: str, job_path: Path, env: dict, timeout: float) -> subprocess.CompletedProcess:
    """Run one worker to completion; subprocess.run kills and reaps it on timeout."""
    return subprocess.run(
        [sys.executable, str(WORKER), mode, str(job_path)],
        env=env, capture_output=True, text=True, timeout=timeout,
    )


def setup_times(job_path: Path, env: dict, probes: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to package imported and
    config parsed, once per probe."""
    times = []
    for _ in range(probes):
        spawned = time.monotonic()
        proc = run_worker("setup", job_path, env, timeout=60)
        if proc.returncode != 0:
            raise RuntimeError(f"setup probe failed:\n{proc.stderr[-2000:]}")
        times.append(json.loads(proc.stdout.splitlines()[-1])["ready"] - spawned)
    return times


def sweep_labels(workload: Workload) -> list[str]:
    key, _, values = workload.extra_args[1].partition("=")
    return ["baseline"] + [f"{key}={float(v)}" for v in values.split(",")]


def check_calls(workload: Workload, calls: list[dict]) -> dict:
    """Check every call's outputs; for epidemic workloads also gate the
    pooled column means.  Returns counts, errors and per-call details."""
    errors: list[str] = []
    attempted = failed = 0
    pooled: dict[str, list[float]] = {}
    for call in calls:
        out = Path(call["out"])
        if call["exit_code"] != 0:
            call_errors, info = [f"exit code {call['exit_code']}: {call['stderr'][-500:]}"], {}
        elif workload.is_world:
            call_errors, info = checks.world_call(out)
        elif workload.command == "sweep":
            call_errors, info = checks.sweep_call(out, sweep_labels(workload))
        else:
            call_errors, info = checks.epidemic_call(out)
        if workload.is_world:
            units = info.get("decrypts", 0)
            call["decrypts"] = units
            bad = info.get("decrypt_failures", 0)
        else:
            units = workload.config["replicates"] * workload.columns()
            bad = 0
            call["cases"] = round(sum(info.values()) * workload.config["replicates"])
            for label, mean in info.items():
                pooled.setdefault(label, []).append(mean)
        if call_errors:
            errors += [f"seed {call['seed']}: {e}" for e in call_errors]
            units = bad = max(units, 1)
        attempted += units
        failed += bad
        call["digests"] = checks.digests(out) if out.is_dir() else {}
        call["output_bytes"] = checks.output_bytes(out) if out.is_dir() else 0
        call["report"] = info.get("report")
    gate = {}
    if pooled and not errors:
        replicates = workload.config["replicates"] * len(calls)
        means = {label: statistics.fmean(values) for label, values in pooled.items()}
        if workload.command == "sweep":
            gate_errors, gate = checks.gate_columns(workload.config, means, replicates)
        else:
            gate_errors, gate = checks.gate_columns(
                workload.config, {"baseline": means["baseline"]}, replicates)
            gate["app"] = {"observed": means["app"]}
            if not means["app"] < means["baseline"]:
                gate_errors.append(
                    f"app cumulative {means['app']:.1f} not below baseline {means['baseline']:.1f}")
        if gate_errors:
            errors += gate_errors
            failed = attempted
    return {"errors": errors, "attempted": max(attempted, 1), "failed": failed, "gate": gate}


def provenance(root: Path, workload: Workload, seed: int, worker: dict) -> dict:
    commit = None
    if (root / ".git").exists():  # a benchmark checkout is usually not a repository
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        source.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes())
    return {
        "workload": workload.name,
        "seed": seed,
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "python": worker.get("python"),
        "numpy": worker.get("numpy"),
        "nproc": os.cpu_count(),
        "threads": THREADS,
        "size": workload.size(),
        "config": workload.config,
        "argv": [workload.command, *workload.extra_args],
    }


def timed_run(workload: Workload, job: dict, job_path: Path, env: dict, started: float) -> dict:
    """Time CLI calls for the run's seconds; wall_s is their median.

    Calls are short, so a run holds many of them: on a shared virtual
    machine the CPU speed can drift by 1.6x within seconds (measured on a
    2-vCPU VM), and the median of many calls moves less with that than a
    single long call would.
    """
    setup = setup_times(job_path, env, SETUP_PROBES // 2)
    remaining = LIMIT_S - (time.monotonic() - started)
    job["max_seconds"] = min(job["seconds"] * 2, remaining - 40)
    job_path.write_text(json.dumps(job))
    proc = run_worker("timed", job_path, env, timeout=remaining - 10)
    if proc.returncode != 0:
        raise RuntimeError(f"timed worker failed:\n{proc.stderr[-2000:]}")
    setup += setup_times(job_path, env, SETUP_PROBES - SETUP_PROBES // 2)
    worker = json.loads(Path(job["result_path"]).read_text())
    calls = worker["calls"]
    verdict = check_calls(workload, calls)
    wall = statistics.median(c["wall_s"] for c in calls)
    metrics = {
        "wall_s": wall,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": worker["peak_rss_mb"],
        "throughput": workload.units_per_call() / wall,
    }
    return {"worker": worker, "verdict": verdict, "metrics": metrics, "calls": calls,
            "setup_s_samples": setup}


def traced_run(workload: Workload, job: dict, job_path: Path, env: dict, started: float) -> dict:
    proc = run_worker("trace", job_path, env, timeout=LIMIT_S - (time.monotonic() - started))
    if proc.returncode != 0:
        raise RuntimeError(f"trace worker failed:\n{proc.stderr[-2000:]}")
    worker = json.loads(Path(job["result_path"]).read_text())
    calls = worker["calls"]
    verdict = check_calls(workload, calls)
    metrics = dict(worker["metrics"])
    untraced = calls[0]
    metrics["report.output_bytes"] = untraced["output_bytes"]
    traced_out = Path(job["workdir"]) / "trace-0"
    traced_digests = checks.digests(traced_out)
    identical = sorted(
        name for name, digest in traced_digests.items() if untraced["digests"].get(name) == digest)
    if workload.is_world and worker["report"] != untraced["report"]:
        verdict["errors"].append(
            f"traced summary {worker['report']} differs from false_alert_report.txt "
            f"{untraced['report']}")
        verdict["failed"] = verdict["attempted"]
    spans = worker["spans"]
    if workload.is_world:
        tick = metrics["world.tick_s"]
        design = {
            "authority_share_of_tick": metrics["authority.busy_s"] / tick,
            "authority_and_crypto_share_of_tick":
                (metrics["authority.busy_s"] + metrics["crypto.keygen_s"]) / tick,
        }
    else:
        design = {"ensemble_share_of_traced_wall":
                  metrics["epidemic.ensemble_s"] / worker["traced_wall_s"]}
    return {"worker": worker, "verdict": verdict, "metrics": metrics, "calls": calls,
            "spans": spans, "design": design, "traced_files_identical": identical}


def declared_metrics(root: Path, trace: bool) -> list[dict]:
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return spec["per_layer"] if trace else spec["end_to_end"]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    started = time.monotonic()
    root = Path.cwd()
    if not (root / "src" / "proximity_sim" / "cli.py").is_file():
        print(f"no proximity-sim sources under {root / 'src'}; run from a checkout root",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    declared = declared_metrics(root, bool(args.trace))
    env = worker_env(root)
    RESULTS.mkdir(exist_ok=True)
    tag = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = RESULTS / f"{tag}-{os.getpid()}"
    workdir.mkdir()
    try:
        config_path = workdir / "run.cfg"
        config_path.write_text(workload.config_text(), newline="\n")
        job = {
            "command": workload.command,
            "extra_args": list(workload.extra_args),
            "config_path": str(config_path),
            "seeds": [call_seed(args.seed, i) for i in range(1000)],
            "seconds": args.seconds,
            "workdir": str(workdir),
            "result_path": str(workdir / "worker.json"),
            "spans_path": str(RESULTS / f"{tag}-spans.jsonl"),
        }
        job_path = workdir / "job.json"
        job_path.write_text(json.dumps(job))
        run = (traced_run if args.trace else timed_run)(workload, job, job_path, env, started)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    verdict = run["verdict"]
    for error in verdict["errors"]:
        print(f"check failed: {error}", file=sys.stderr)
    record = {
        "provenance": provenance(root, workload, args.seed, run["worker"]),
        "correct": not verdict["errors"],
        "errors": verdict["errors"],
        "gate": verdict["gate"],
        "metrics": run["metrics"],
        "calls": [{k: c.get(k) for k in ("seed", "wall_s", "exit_code", "cases", "decrypts",
                                         "output_bytes", "digests")} for c in run["calls"]],
        **{k: run[k] for k in ("setup_s_samples", "spans", "design", "traced_files_identical")
           if k in run},
    }
    (RESULTS / f"{tag}.json").write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    work = "decrypts" if workload.is_world else "cases"
    summary = {
        "workload": workload.name, "seed": args.seed, "size": workload.size(),
        "calls": len(run["calls"]),
        f"{work}_per_call": statistics.median(c.get(work, 0) for c in run["calls"]),
        **{k: run[k] for k in ("design",) if k in run},
    }
    print(json.dumps(summary, sort_keys=True))
    # layers a workload never enters read zero: epidemic runs build no world
    idle = ("epidemic.",) if workload.is_world else ("world.", "device.", "authority.", "crypto.")
    values = {m["name"]: run["metrics"][m["name"]] if m["name"] in run["metrics"]
              else 0 if m["name"].startswith(idle) else None for m in declared}
    missing = [name for name, value in values.items() if value is None]
    if missing:
        raise KeyError(f"run measured no value for {missing}")
    result = {
        "correct": not verdict["errors"],
        "attempted": verdict["attempted"],
        "failed": verdict["failed"],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
