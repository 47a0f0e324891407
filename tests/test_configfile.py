"""Scenario file round trips and schema enforcement."""

import math
from pathlib import Path

import numpy as np
import pytest
import yaml

from mdpstream.configfile import load_scenario, save_scenario
from mdpstream.model import ConfigurationError
from mdpstream.presets import differentiated_scenario, fair_scenario


def equivalent(a, b):
    """Structural equality that tolerates the numpy matrix field."""
    assert a.ladder == b.ladder
    np.testing.assert_array_equal(a.channel.transition, b.channel.transition)
    assert a.channel.state_bandwidth == b.channel.state_bandwidth
    assert a.channel.boundaries == b.channel.boundaries
    assert a.profit == b.profit
    for field in (
        "num_users", "horizon", "segment_seconds", "frames_per_second",
        "initial_buffer_frames", "initial_rate_index", "num_runs",
        "rng_seed", "sharing_mode", "name",
    ):
        assert getattr(a, field) == getattr(b, field), field


def test_round_trip_fair(tmp_path):
    path = str(tmp_path / "fair.yaml")
    save_scenario(fair_scenario(), path)
    equivalent(load_scenario(path), fair_scenario())


def test_round_trip_differentiated(tmp_path):
    path = str(tmp_path / "diff.yaml")
    save_scenario(differentiated_scenario(), path)
    loaded = load_scenario(path)
    equivalent(loaded, differentiated_scenario())
    assert loaded.profit.user_priorities == (0.7, 0.3)


def test_infinite_price_survives_yaml(tmp_path):
    path = str(tmp_path / "fair.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        raw = fh.read()
    assert ".inf" in raw
    assert math.isinf(load_scenario(path).profit.congestion_price)


def test_bundled_scenarios_match_presets():
    bundled = Path(__file__).resolve().parents[1] / "scenarios"
    equivalent(load_scenario(str(bundled / "fair.cfg")), fair_scenario())
    equivalent(load_scenario(str(bundled / "diff.cfg")), differentiated_scenario())


def test_unknown_top_level_key_rejected(tmp_path):
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["bitrate_ladder"] = [1, 2, 3]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    with pytest.raises(ConfigurationError, match="bitrate_ladder"):
        load_scenario(path)


def test_unknown_profit_key_rejected(tmp_path):
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["profit"]["discount"] = 0.9
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    with pytest.raises(ConfigurationError, match="discount"):
        load_scenario(path)


def test_missing_required_key_rejected(tmp_path):
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    del data["ladder_kbps"]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    with pytest.raises(ConfigurationError, match="ladder_kbps"):
        load_scenario(path)


def test_invalid_model_value_rejected(tmp_path):
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    data["channel"]["transition"][0] = [0.9, 0.0, 0.0, 0.0]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    with pytest.raises(ConfigurationError, match="row 0"):
        load_scenario(path)


def test_not_yaml_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("{unclosed: [", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="not valid YAML"):
        load_scenario(str(path))


def test_non_mapping_rejected(tmp_path):
    path = tmp_path / "s.yaml"
    path.write_text("- just\n- a\n- list\n", encoding="utf-8")
    with pytest.raises(ConfigurationError, match="mapping"):
        load_scenario(str(path))


def test_missing_file_rejected(tmp_path):
    with pytest.raises(ConfigurationError, match="cannot read"):
        load_scenario(str(tmp_path / "absent.yaml"))


def test_name_defaults_to_file_stem(tmp_path):
    path = str(tmp_path / "weekend_special.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    del data["name"]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    assert load_scenario(path).name == "weekend_special"


def test_defaults_fill_optional_session_keys(tmp_path):
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    for key in ("segment_seconds", "frames_per_second", "initial_buffer_frames",
                "initial_rate_index", "num_runs", "rng_seed", "sharing_mode"):
        del data[key]
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    loaded = load_scenario(path)
    assert loaded.num_runs == 15
    assert loaded.rng_seed == 101
    assert loaded.initial_buffer_frames == 80
    assert loaded.sharing_mode == "proportional"


def test_variation_penalty_key_round_trips(tmp_path):
    from dataclasses import replace

    config = fair_scenario()
    config = replace(
        config, profit=replace(config.profit, variation_penalty="downward_only")
    )
    path = str(tmp_path / "down.yaml")
    save_scenario(config, path)
    assert load_scenario(path).profit.variation_penalty == "downward_only"


@pytest.mark.parametrize("key,fraction", [
    ("num_users", 2.5), ("horizon", 200.7), ("num_runs", 2.9), ("rng_seed", 101.5),
    ("initial_buffer_frames", 80.25), ("initial_rate_index", 0.5),
])
def test_fractional_or_boolean_count_rejected(tmp_path, key, fraction):
    # int() would truncate these silently (and raise OverflowError on .inf);
    # whole-number floats stay accepted
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    for bad in (fraction, True, math.inf):
        data[key] = bad
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(data, fh)
        with pytest.raises(ConfigurationError, match=f"{key} must be a whole number, got {bad}"):
            load_scenario(path)
    data[key] = float(getattr(fair_scenario(), key))
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    loaded = load_scenario(path)
    assert getattr(loaded, key) == getattr(fair_scenario(), key)
    assert type(getattr(loaded, key)) is int


@pytest.mark.parametrize("section,key", [
    (None, "segment_seconds"), (None, "frames_per_second"),
    ("profit", "playback_weight"), ("profit", "buffering_weight"),
    ("profit", "smoothness_weight"), ("profit", "variation_threshold_kbps"),
    ("profit", "congestion_price"), ("profit", "total_rate_cap_kbps"),
    ("profit", "user_priorities"),
])
def test_boolean_in_float_field_rejected(tmp_path, section, key):
    # float() would read true as 1.0 and false as 0.0
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    fields = data if section is None else data[section]
    for bad in (True, False):
        fields[key] = [bad, 0.5] if key == "user_priorities" else bad
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(data, fh)
        with pytest.raises(ConfigurationError, match=f"{key} must be a number, got {bad}"):
            load_scenario(path)
