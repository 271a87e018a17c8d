"""The benchmark's workloads: which CLI command each runs, on which config.

Every workload is one `proximity-sim` subcommand plus a flat key=value
config that names every parameter the output checks rely on, so the
checks never depend on the package's defaults.  The workload seed only
picks the CLI seed of each call (`call_seed`); sizes are fixed here.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass

HEADLINE = {
    "r0": 3.0,
    "incubation_days": 14,
    "quarantine_factor": 10.0,
    "activation_day": 30,
    "ramp_days": 10,
    "efficiency": 1.0,
    "initial_infected": 10,
    "max_active": 5_000_000,
}


@dataclass(frozen=True)
class Workload:
    name: str
    command: str            # proximity-sim subcommand
    extra_args: tuple       # subcommand arguments besides --config/--seed/--out
    config: dict            # written as the flat key=value config file

    @property
    def is_world(self) -> bool:
        return self.command == "world"

    def config_text(self) -> str:
        return "".join(f"{key}={_render(value)}\n" for key, value in self.config.items())

    def columns(self) -> int:
        """Ensembles one epidemic call runs (baseline plus one per column)."""
        if self.command == "sweep":
            return 1 + len(self.extra_args[1].split("=", 1)[1].split(","))
        return 2

    def ticks(self) -> int:
        return math.ceil(self.config["horizon_seconds"] / self.config["tick_seconds"])

    def units_per_call(self) -> int:
        """Throughput units: replicates for epidemic, agent-ticks for world."""
        if self.is_world:
            return self.config["agent_count"] * self.ticks()
        return self.config["replicates"] * self.columns()

    def size(self) -> dict:
        if self.is_world:
            return {
                "agents": self.config["agent_count"],
                "ticks": self.ticks(),
                "key_bits": self.config["key_bits"],
                "unit": "agent-ticks",
            }
        return {
            "replicates": self.config["replicates"],
            "columns": self.columns(),
            "horizon_days": self.config["horizon_days"],
            "unit": "replicates",
        }


def _render(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def call_seed(seed: int, index: int) -> int:
    """CLI seed of the index-th call of a run; a pure function of the workload seed."""
    digest = hashlib.sha256(f"perfbench:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big") >> 1


# Sizing.  A call takes about a second (four for world-dispatch), so a run
# holds many calls and their median moves little with the speed drift of a
# shared machine.  The epidemic workloads keep the headline parameters but
# stop at day 50, not 60: one replicate's case count has a coefficient of
# variation of 0.31, and shorter replicates let a call average more of
# them.  world-dispatch has one detected case in a room where everyone
# meets everyone and no one else is infected, so its decrypt count (a red
# upload plus one yellow fan-out per notified contact) does not move with
# the seed; the 2048-bit key generation inside each call still does.
WORKLOADS = {
    w.name: w
    for w in (
        # all time in the record engine under FromInfection; the baseline and
        # k=1 columns dominate, and k=1 must equal the baseline byte for byte
        Workload(
            name="epidemic-sweep",
            command="sweep",
            extra_args=("--sweep", "quarantine_factor=1,2,5,10,20"),
            config={
                **HEADLINE,
                "horizon_days": 50,
                "replicates": 10,
                "alert_policy": "FromInfection",
            },
        ),
        # upload coins and lineage alerting: the path a FromInfection-only
        # engine would bypass
        Workload(
            name="epidemic-at-detection",
            command="epidemic",
            extra_args=(),
            config={
                **HEADLINE,
                "horizon_days": 50,
                "replicates": 30,
                "alert_policy": "AtDetection",
            },
        ),
        # sparse, unsaturated world with a test-scale key: move, dense contact
        # search, sensing and the per-tick ledger purge; crypto is negligible
        Workload(
            name="world-contacts",
            command="world",
            extra_args=(),
            config={
                "agent_count": 600,
                "box_size": 150.0,
                "infection_range": 2.5,
                "infection_prob_per_second": 0.001,
                "tracking_threshold": 3.0,
                "tick_seconds": 10.0,
                "app_user_fraction": 0.8,
                "incubation_seconds": 150.0,
                "horizon_seconds": 300.0,
                "initial_infected": 10,
                "speed_min": 0.1,
                "speed_max": 0.7,
                "yellow_enabled": False,
                "key_bits": 32,
                "noise_sigma": 2.0,
                "max_radio_range": 10.0,
            },
        ),
        # 2048-bit decrypt-and-rank, red plus yellow fan-out, and waitlists
        # that a small capacity leaves behind
        Workload(
            name="world-dispatch",
            command="world",
            extra_args=(),
            config={
                "agent_count": 20,
                "box_size": 20.0,
                "infection_range": 2.5,
                "infection_prob_per_second": 0.0,
                "tracking_threshold": 3.0,
                "tick_seconds": 10.0,
                "app_user_fraction": 1.0,
                "incubation_seconds": 900.0,
                "horizon_seconds": 910.0,
                "initial_infected": 1,
                "speed_min": 0.1,
                "speed_max": 0.7,
                "dispatch_capacity": 4,
                "yellow_enabled": True,
                "key_bits": 2048,
                "noise_sigma": 2.0,
                "max_radio_range": 10.0,
            },
        ),
    )
}
