"""Flat key=value run configuration.

One pair per line, '#' starts a comment, unknown keys are rejected, and
missing keys fall back to the documented defaults (the headline scenario
for the epidemic model, a 200-agent box for the micro-world).
"""

from __future__ import annotations

from dataclasses import dataclass

from .epidemic import AlertPolicy, SimulationParams
from .world import RadioModel, WorldConfig

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "parse_config",
    "parse_sweep_axis",
    "EPIDEMIC_COMMANDS",
    "SWEEPABLE_KEYS",
]


class ParseError(Exception):
    """Config text is not well-formed (carries the offending line number)."""


class ValidationError(Exception):
    """Config is well-formed but violates a parameter invariant."""


EPIDEMIC_COMMANDS = ("epidemic", "sweep")
COMMANDS = ("epidemic", "sweep", "world", "crypto-selftest")


def _parse_bool(text: str) -> bool:
    lowered = text.lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ValueError(f"not a boolean: {text!r}")


def _parse_policy(text: str) -> AlertPolicy:
    for policy in AlertPolicy:
        if policy.value == text:
            return policy
    raise ValueError(f"alert_policy must be FromInfection or AtDetection, got {text!r}")


EPIDEMIC_KEYS = {
    "r0": float,
    "incubation_days": int,
    "quarantine_factor": float,
    "activation_day": int,
    "ramp_days": int,
    "efficiency": float,
    "initial_infected": int,
    "horizon_days": int,
    "replicates": int,
    "max_active": int,
    "alert_policy": _parse_policy,
}

WORLD_KEYS = {
    "agent_count": int,
    "box_size": float,
    "infection_range": float,
    "infection_prob_per_second": float,
    "tracking_threshold": float,
    "tick_seconds": float,
    "app_user_fraction": float,
    "incubation_seconds": float,
    "horizon_seconds": float,
    "initial_infected": int,
    "speed_min": float,
    "speed_max": float,
    "dispatch_capacity": int,
    "yellow_enabled": _parse_bool,
    "key_bits": int,
    "rssi_at_1m": float,
    "path_loss_exponent": float,
    "noise_sigma": float,
    "max_radio_range": float,
    "trace_file": str,
}

SWEEPABLE_KEYS = (
    "efficiency",
    "quarantine_factor",
    "ramp_days",
    "activation_day",
    "r0",
    "incubation_days",
)

RADIO_KEYS = ("rssi_at_1m", "path_loss_exponent", "noise_sigma", "max_radio_range")


@dataclass
class RunConfig:
    command: str
    sim_params: SimulationParams | None = None
    world_config: WorldConfig | None = None
    trace_file: str | None = None


def _parse_pairs(text: str, schema: dict) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in schema:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        try:
            values[key] = schema[key](value_text)
        except ValueError as exc:
            raise ParseError(f"line {lineno}: bad value for {key!r}: {exc}") from exc
    return values


def parse_sweep_axis(axis_text: str) -> tuple[str, list]:
    """Parse 'KEY=V1,V2,...' into a validated sweep axis."""
    if "=" not in axis_text:
        raise ParseError(f"sweep must look like key=v1,v2,... got {axis_text!r}")
    key, _, tail = axis_text.partition("=")
    key = key.strip()
    if key not in SWEEPABLE_KEYS:
        raise ValidationError(
            f"sweep key must be one of {', '.join(SWEEPABLE_KEYS)}; got {key!r}"
        )
    converter = EPIDEMIC_KEYS[key]
    try:
        values = [converter(part.strip()) for part in tail.split(",") if part.strip()]
    except ValueError as exc:
        raise ParseError(f"bad sweep value: {exc}") from exc
    if not values:
        raise ParseError("sweep axis has no values")
    return key, values


def parse_config(text: str, command: str = "epidemic") -> RunConfig:
    """Resolve config text against the command's schema and defaults."""
    if command not in COMMANDS:
        raise ValidationError(f"unknown command {command!r}")
    if command == "crypto-selftest":
        return RunConfig(command=command)
    if command in EPIDEMIC_COMMANDS:
        values = _parse_pairs(text, EPIDEMIC_KEYS)
        try:
            params = SimulationParams(**values)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        return RunConfig(command=command, sim_params=params)
    values = _parse_pairs(text, WORLD_KEYS)
    trace_file = values.pop("trace_file", None)
    radio_values = {k: values.pop(k) for k in RADIO_KEYS if k in values}
    try:
        radio = RadioModel(**radio_values)
        world = WorldConfig(radio=radio, **values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return RunConfig(command=command, world_config=world, trace_file=trace_file)
