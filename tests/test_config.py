from __future__ import annotations

import dataclasses
import re
from pathlib import Path

import pytest

from proximity_sim.config import (
    EPIDEMIC_KEYS,
    WORLD_KEYS,
    ParseError,
    ValidationError,
    _schema,
    parse_config,
    parse_sweep_axis,
)
from proximity_sim.epidemic import AlertPolicy, SimulationParams
from proximity_sim.world import RadioModel, WorldConfig


class TestEpidemicConfig:
    def test_empty_text_gives_headline_defaults(self):
        run = parse_config("", command="epidemic")
        params = run.sim_params
        assert params.r0 == 3.0
        assert params.incubation_days == 14
        assert params.quarantine_factor == 10.0
        assert params.activation_day == 30
        assert params.ramp_days == 10
        assert params.replicates == 50
        assert params.efficiency == 1.0
        assert params.alert_policy is AlertPolicy.FROM_INFECTION

    def test_overrides_and_comments(self):
        text = """
        # scenario tweaks
        efficiency = 0.6   # partial adoption
        quarantine_factor = 5
        alert_policy = AtDetection
        """
        params = parse_config(text, command="epidemic").sim_params
        assert params.efficiency == 0.6
        assert params.quarantine_factor == 5.0
        assert params.alert_policy is AlertPolicy.AT_DETECTION

    def test_unknown_key_is_a_parse_error_with_line(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_config("r0=3\nunknown_key=1\n", command="epidemic")

    def test_out_of_range_value_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="efficiency"):
            parse_config("efficiency=1.5\n", command="epidemic")

    def test_missing_equals_sign(self):
        with pytest.raises(ParseError, match="line 1"):
            parse_config("just words\n", command="epidemic")

    def test_bad_number(self):
        with pytest.raises(ParseError, match="r0"):
            parse_config("r0=three\n", command="epidemic")

    def test_repeated_key_is_a_parse_error_with_its_line(self):
        with pytest.raises(ParseError, match="line 3: key 'replicates' is already set"):
            parse_config("replicates=2\nr0=2\nreplicates=3\n", command="epidemic")

    def test_activation_beyond_horizon_is_legal(self):
        params = parse_config("activation_day=999\n", command="epidemic").sim_params
        assert params.activation_day == 999


# every float field of the parameter dataclasses, as the config schema reads them
FLOAT_FIELDS = [
    (cls, f.name)
    for cls in (SimulationParams, RadioModel, WorldConfig)
    for f in dataclasses.fields(cls)
    if f.type == "float"
]

# (class, keyword arguments, text the error names): one case per range check
# of each constructor, then every float field at nan, inf and -inf
REFUSED = [
    (SimulationParams, {"r0": -1.0}, "r0"),
    (SimulationParams, {"incubation_days": 0}, "incubation_days"),
    (SimulationParams, {"quarantine_factor": 0.5}, "quarantine_factor"),
    (SimulationParams, {"activation_day": -1}, "activation_day"),
    (SimulationParams, {"ramp_days": -1}, "ramp_days"),
    (SimulationParams, {"efficiency": 1.5}, "efficiency"),
    (SimulationParams, {"efficiency": -0.1}, "efficiency"),
    (SimulationParams, {"initial_infected": 0}, "initial_infected"),
    (SimulationParams, {"horizon_days": 0}, "horizon_days"),
    (SimulationParams, {"replicates": 0}, "replicates"),
    (SimulationParams, {"max_active": 0}, "max_active"),
    (RadioModel, {"path_loss_exponent": 0.0}, "path_loss_exponent"),
    (RadioModel, {"noise_sigma": -1.0}, "noise_sigma"),
    (RadioModel, {"max_radio_range": 0.0}, "max_radio_range"),
    (WorldConfig, {"agent_count": 1}, "agent_count"),
    (WorldConfig, {"box_size": 0.0}, "box_size"),
    (WorldConfig, {"infection_range": 0.0}, "infection_range"),
    (WorldConfig, {"infection_prob_per_second": 1.5}, "infection_prob_per_second"),
    (WorldConfig, {"tracking_threshold": 0.0}, "tracking_threshold"),
    (WorldConfig, {"tick_seconds": 0.0}, "tick_seconds"),
    (WorldConfig, {"app_user_fraction": -0.5}, "app_user_fraction"),
    (WorldConfig, {"incubation_seconds": 0.0}, "incubation_seconds"),
    (WorldConfig, {"horizon_seconds": 0.0}, "horizon_seconds"),
    (WorldConfig, {"initial_infected": 0}, "initial_infected"),
    (WorldConfig, {"initial_infected": 201}, "initial_infected"),
    (WorldConfig, {"speed_min": -0.1}, "speed_min"),
    (WorldConfig, {"speed_min": 0.5, "speed_max": 0.2}, "speed_max"),
    (WorldConfig, {"dispatch_capacity": -1}, "dispatch_capacity"),
    (WorldConfig, {"key_bits": 64}, "key_bits"),
] + [
    (cls, {name: value}, f"{name} must be finite")
    for cls, name in FLOAT_FIELDS
    for value in (float("nan"), float("inf"), float("-inf"))
]


class TestParameterConstructors:
    def test_every_float_field_is_listed(self):
        assert len(FLOAT_FIELDS) == 17  # 3 epidemic, 4 radio and 10 world fields

    @pytest.mark.parametrize(
        "cls, kwargs, message", REFUSED,
        ids=[f"{cls.__name__}-{kwargs}" for cls, kwargs, _ in REFUSED],
    )
    def test_constructor_refuses(self, cls, kwargs, message):
        with pytest.raises(ValueError, match=re.escape(message)):
            cls(**kwargs)


class TestWorldConfigParsing:
    def test_defaults(self):
        run = parse_config("", command="world")
        assert run.world_config.agent_count == 200
        assert run.world_config.radio.max_radio_range == 10.0
        assert run.trace_file is None

    def test_radio_keys_route_to_the_model(self):
        text = "noise_sigma=0\nmax_radio_range=12\ntracking_threshold=4\n"
        config = parse_config(text, command="world").world_config
        assert config.radio.noise_sigma == 0.0
        assert config.radio.max_radio_range == 12.0

    def test_trace_file_key(self):
        run = parse_config("trace_file=contacts.csv\n", command="world")
        assert run.trace_file == "contacts.csv"

    def test_validation_error_names_the_invariant(self):
        with pytest.raises(ValidationError, match="app_user_fraction"):
            parse_config("app_user_fraction=2\n", command="world")

    @pytest.mark.parametrize(
        "line",
        ["trace_file=/data/run#2.csv", "trace_file=#2.csv", "trace_file=a#b   # note"],
    )
    def test_hash_inside_a_value_is_a_parse_error_with_its_line(self, line):
        with pytest.raises(ParseError, match="line 2: '#' starts a comment only"):
            parse_config(f"agent_count=20\n{line}\n", command="world")

    def test_hash_after_whitespace_starts_a_comment(self):
        text = "#lead\n  # indented\ntrace_file=run.csv\t# tab\nkey_bits=32 #tight\n"
        run = parse_config(text, command="world")
        assert run.trace_file == "run.csv"
        assert run.world_config.key_bits == 32


class TestSweepAxis:
    def test_parse_values(self):
        key, values = parse_sweep_axis("efficiency=0.2,0.4,0.6")
        assert key == "efficiency"
        assert values == [0.2, 0.4, 0.6]

    def test_integer_axis(self):
        key, values = parse_sweep_axis("ramp_days=0,5,10,20")
        assert key == "ramp_days"
        assert values == [0, 5, 10, 20]

    def test_unknown_axis_rejected(self):
        with pytest.raises(ValidationError):
            parse_sweep_axis("replicates=10,20")

    @pytest.mark.parametrize(
        "axis, repeated",
        [("efficiency=0.5,0.50,1", "0.5"), ("ramp_days=0,5,05", "5"),
         ("quarantine_factor=1,10,1e1", "10.0")],
    )
    def test_repeated_value_is_a_parse_error_naming_it(self, axis, repeated):
        with pytest.raises(ParseError, match=f"sweep axis repeats {re.escape(repeated)}$"):
            parse_sweep_axis(axis)

    def test_non_finite_value_is_a_parse_error(self):
        with pytest.raises(ParseError, match="finite"):
            parse_sweep_axis("quarantine_factor=1,nan")

    def test_malformed_axis(self):
        with pytest.raises(ParseError):
            parse_sweep_axis("efficiency")
        with pytest.raises(ParseError):
            parse_sweep_axis("efficiency=")


def test_unknown_command_rejected():
    with pytest.raises(ValidationError):
        parse_config("", command="mystery")


# one non-default text value per config key, and the value it must parse to
EPIDEMIC_SAMPLES = {
    "r0": ("2.5", 2.5),
    "incubation_days": ("7", 7),
    "quarantine_factor": ("4", 4.0),
    "activation_day": ("12", 12),
    "ramp_days": ("0", 0),
    "efficiency": ("0.25", 0.25),
    "initial_infected": ("3", 3),
    "horizon_days": ("20", 20),
    "replicates": ("4", 4),
    "max_active": ("900", 900),
    "alert_policy": ("AtDetection", AlertPolicy.AT_DETECTION),
}
WORLD_SAMPLES = {
    "agent_count": ("30", 30),
    "box_size": ("12.5", 12.5),
    "infection_range": ("1.5", 1.5),
    "infection_prob_per_second": ("0.5", 0.5),
    "tracking_threshold": ("3.5", 3.5),
    "tick_seconds": ("5", 5.0),
    "app_user_fraction": ("1", 1.0),
    "incubation_seconds": ("60", 60.0),
    "horizon_seconds": ("600", 600.0),
    "initial_infected": ("2", 2),
    "speed_min": ("0", 0.0),
    "speed_max": ("1.5", 1.5),
    "dispatch_capacity": ("3", 3),
    "yellow_enabled": ("yes", True),
    "key_bits": ("32", 32),
    "rssi_at_1m": ("-60.5", -60.5),
    "path_loss_exponent": ("3", 3.0),
    "noise_sigma": ("0", 0.0),
    "max_radio_range": ("8", 8.0),
    "trace_file": ("contacts.csv", "contacts.csv"),
}


class TestDerivedSchema:
    def test_samples_cover_every_key(self):
        assert set(EPIDEMIC_SAMPLES) == set(EPIDEMIC_KEYS)
        assert set(WORLD_SAMPLES) == set(WORLD_KEYS)

    @pytest.mark.parametrize("key", sorted(EPIDEMIC_SAMPLES))
    def test_epidemic_key_parses_to_a_non_default_value(self, key):
        text, expected = EPIDEMIC_SAMPLES[key]
        default = getattr(parse_config("", command="epidemic").sim_params, key)
        value = getattr(parse_config(f"{key}={text}\n", command="epidemic").sim_params, key)
        assert value == expected and value != default
        assert type(value) is type(expected)

    @pytest.mark.parametrize("key", sorted(WORLD_SAMPLES))
    def test_world_key_parses_to_a_non_default_value(self, key):
        def read(run):
            if key == "trace_file":
                return run.trace_file
            config = run.world_config
            return getattr(config.radio if hasattr(config.radio, key) else config, key)

        text, expected = WORLD_SAMPLES[key]
        default = read(parse_config("", command="world"))
        value = read(parse_config(f"{key}={text}\n", command="world"))
        assert value == expected and value != default
        assert type(value) is type(expected)

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    def test_every_float_key_refuses_a_non_finite_value(self, text):
        checked = []
        for command, samples in (("epidemic", EPIDEMIC_SAMPLES), ("world", WORLD_SAMPLES)):
            for key, (_, value) in samples.items():
                if type(value) is not float:
                    continue
                with pytest.raises(ParseError, match=f"line 1: bad value for '{key}'.*finite"):
                    parse_config(f"{key}={text}\n", command=command)
                checked.append(key)
        assert len(checked) == 17  # 3 epidemic keys, 10 world keys and 4 radio keys

    def test_field_without_a_parser_fails_to_build(self):
        @dataclasses.dataclass
        class Toy:
            count: int = 1
            tags: list = dataclasses.field(default_factory=list)

        with pytest.raises(TypeError, match="Toy.tags"):
            _schema(Toy)


@pytest.mark.parametrize(
    "title, command, keys",
    [("epidemic config", "epidemic", EPIDEMIC_KEYS), ("world config", "world", WORLD_KEYS)],
)
def test_readme_lists_every_key_with_its_default(title, command, keys):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    match = re.search(rf"```\n# {title}\n(.*?)```", readme, re.DOTALL)
    assert match, f"README has no '# {title}' listing"
    listing = match.group(1)
    listed = re.findall(r"^(?:# )?(\w+)=", listing, re.MULTILINE)
    assert sorted(listed) == sorted(keys)
    assert parse_config(listing, command=command) == parse_config("", command=command)
