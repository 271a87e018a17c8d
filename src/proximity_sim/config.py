"""Flat key=value run configuration.

One pair per line.  A '#' at the start of a line or after whitespace
starts a comment; any other '#' is an error, not part of a value.
Unknown keys are rejected, and missing keys fall back to the documented
defaults (the headline scenario for the epidemic model, a 200-agent box
for the micro-world).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, fields

from .epidemic import AlertPolicy, SimulationParams
from .world import RadioModel, WorldConfig

__all__ = [
    "ParseError",
    "ValidationError",
    "RunConfig",
    "parse_config",
    "parse_sweep_axis",
    "SWEEPABLE_KEYS",
]


class ParseError(Exception):
    """Config text is not well-formed (carries the offending line number)."""


class ValidationError(Exception):
    """Config is well-formed but violates a parameter invariant."""


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


# keyed by annotation text: the dataclass modules postpone evaluation
_PARSERS = {
    "int": int,
    "int | None": int,
    "float": float,
    "bool": _parse_bool,
    "AlertPolicy": _parse_policy,
}


def _schema(cls, **nested: dict) -> dict:
    """Config key -> text parser for each field of `cls`, with the fields
    named in `nested` replaced by their schemas; an unknown type raises."""
    schema: dict = {}
    for f in fields(cls):
        if f.name in nested:
            schema.update(nested[f.name])
        elif f.type in _PARSERS:
            schema[f.name] = _PARSERS[f.type]
        else:
            raise TypeError(f"{cls.__name__}.{f.name}: no config parser for {f.type!r}")
    return schema


EPIDEMIC_KEYS = _schema(SimulationParams)
RADIO_KEYS = _schema(RadioModel)
WORLD_KEYS = {**_schema(WorldConfig, radio=RADIO_KEYS), "trace_file": str}

SWEEPABLE_KEYS = (
    "efficiency",
    "quarantine_factor",
    "ramp_days",
    "activation_day",
    "r0",
    "incubation_days",
)


@dataclass
class RunConfig:
    sim_params: SimulationParams | None = None
    world_config: WorldConfig | None = None
    trace_file: str | None = None


_COMMENT = re.compile(r"(?:^|\s)#")


def _parse_pairs(text: str, schema: dict) -> dict:
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _COMMENT.split(raw, 1)[0].strip()
        if not line:
            continue
        if "#" in line:
            raise ParseError(f"line {lineno}: '#' starts a comment only at the start of "
                             f"a line or after whitespace, got {line!r}")
        if "=" not in line:
            raise ParseError(f"line {lineno}: expected key=value, got {line!r}")
        key, _, value_text = line.partition("=")
        key = key.strip()
        value_text = value_text.strip()
        if key not in schema:
            raise ParseError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ParseError(f"line {lineno}: key {key!r} is already set")
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
    for index, value in enumerate(values):
        if value in values[:index]:
            raise ParseError(f"sweep axis repeats {value}")
    return key, values


def parse_config(text: str, command: str = "epidemic") -> RunConfig:
    """Resolve config text against the command's schema and defaults."""
    if command in ("epidemic", "sweep"):
        values = _parse_pairs(text, EPIDEMIC_KEYS)
        try:
            params = SimulationParams(**values)
        except ValueError as exc:
            raise ValidationError(str(exc)) from exc
        return RunConfig(sim_params=params)
    if command != "world":
        raise ValidationError(f"no config schema for command {command!r}")
    values = _parse_pairs(text, WORLD_KEYS)
    trace_file = values.pop("trace_file", None)
    radio_values = {k: values.pop(k) for k in RADIO_KEYS if k in values}
    try:
        radio = RadioModel(**radio_values)
        world = WorldConfig(radio=radio, **values)
    except ValueError as exc:
        raise ValidationError(str(exc)) from exc
    return RunConfig(world_config=world, trace_file=trace_file)
