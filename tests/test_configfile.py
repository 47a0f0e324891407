"""Scenario file round trips and schema enforcement."""

import math
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest
import yaml

from mdpstream import configfile
from mdpstream.configfile import load_scenario, save_scenario
from mdpstream.economics import ProfitParams
from mdpstream.model import ChannelModel, ConfigurationError, QualityLadder
from mdpstream.presets import differentiated_scenario, fair_scenario
from mdpstream.sim import ScenarioConfig

BUNDLED = Path(__file__).resolve().parents[1] / "scenarios"


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
    equivalent(load_scenario(str(BUNDLED / "fair.cfg")), fair_scenario())
    equivalent(load_scenario(str(BUNDLED / "diff.cfg")), differentiated_scenario())


@pytest.mark.parametrize("name", ["fair.cfg", "diff.cfg"])
def test_bundled_scenarios_spell_out_every_key(name):
    # the module docstring calls them complete examples of the schema
    data = yaml.safe_load((BUNDLED / name).read_text(encoding="utf-8"))
    assert set(data) == configfile._SCENARIO_KEYS
    assert set(data["channel"]) == configfile._CHANNEL_KEYS
    assert set(data["profit"]) == set(configfile._PROFIT_FIELDS)


def test_every_field_round_trips(tmp_path):
    # every field away from its default, so a field the derived schema
    # dropped would come back as its default (or go missing) and fail here
    profit = ProfitParams(
        playback_weight=0.25, buffering_weight=0.5, smoothness_weight=0.25,
        variation_threshold_kbps=300.0, congestion_price=2.5, total_rate_cap_kbps=900.0,
        user_priorities=(0.6, 0.4), variation_penalty="downward_only",
    )
    config = ScenarioConfig(
        ladder=QualityLadder((100.0, 200.0, 400.0)),
        channel=ChannelModel(((0.75, 0.25), (0.5, 0.5)), (150.0, 450.0), (300.0,)),
        profit=profit, num_users=2, horizon=7, segment_seconds=2.0, frames_per_second=30.0,
        initial_buffer_frames=12, initial_rate_index=1, num_runs=3, rng_seed=7,
        sharing_mode="none", name="everything",
    )
    for obj in (config, profit):
        for f in fields(obj):
            assert f.default is MISSING or getattr(obj, f.name) != f.default, f.name
    path = str(tmp_path / "all.yaml")
    save_scenario(config, path)
    loaded = load_scenario(path)
    equivalent(loaded, config)
    assert replace(loaded, channel=config.channel) == config  # every other field, by name


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


# YAML forms a hand-written run spec may use: flow and block collections,
# ints, floats, exponents, infinities, nulls, 1.1 booleans, quotes, comments
RUN_SPEC = """\
scenario: "fair.cfg"  # beside this file
arms: [proposed, myopic, 'ideal']
sweep:
  axis: rate_cap
  values:
    - 600
    - 850.0
    - 1.0e+3
    - .inf
    - -.INF
notes: {draft: yes, owner: ~, retries: 0x1F, ratio: 1e3}
"""


@pytest.mark.parametrize("name", [*sorted(path.name for path in BUNDLED.glob("*.cfg")),
                                  "exp.yaml"])
def test_libyaml_reads_what_the_python_loader_reads(tmp_path, name):
    path = BUNDLED / name
    if name == "exp.yaml":
        path = tmp_path / name
        path.write_text(RUN_SPEC, encoding="utf-8")
    with open(path, encoding="utf-8") as fh:
        want = yaml.load(fh, Loader=yaml.SafeLoader)
    # repr tells 1 from 1.0 and True from 1, which == does not
    assert repr(configfile.read_yaml(str(path))) == repr(want)


def test_loader_is_libyaml_where_built():
    # a PyYAML built with libyaml must not fall back to the Python parser unseen
    want = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader
    assert configfile._LOADER is want


@pytest.mark.parametrize("text", [
    pytest.param("scenario: fair.cfg\n\tarms: [myopic]\n", id="tab-indent"),
    pytest.param("scenario: fair.cfg\narms: [myopic\n", id="unclosed-bracket"),
])
def test_malformed_yaml_names_the_file(tmp_path, text):
    path = tmp_path / "exp.yaml"
    path.write_text(text, encoding="utf-8")
    with pytest.raises(ConfigurationError) as err:
        configfile.read_yaml(str(path))
    assert str(err.value).startswith(f"{path} is not valid YAML: ")


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
    ("profit", "user_priorities"), (None, "ladder_kbps"),
    ("channel", "state_bandwidth_kbps"), ("channel", "boundaries_kbps"),
    ("channel", "transition"),
])
def test_boolean_in_float_field_rejected(tmp_path, section, key):
    # float() would read true as 1.0 and false as 0.0
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    fields = data if section is None else data[section]
    first = fields[key]
    for bad in (True, False):
        if key == "transition":  # [true, false, false, false] sums to 1
            fields[key] = [[bad] + [not bad] * 3, *first[1:]]
        else:  # in a list, its first element
            fields[key] = [bad, *first[1:]] if isinstance(first, list) else bad
        with open(path, "w", encoding="utf-8") as fh:
            yaml.safe_dump(data, fh)
        with pytest.raises(ConfigurationError, match=f"{key} must be a number, got {bad}"):
            load_scenario(path)


@pytest.mark.parametrize("section,key,bad", [
    (None, "ladder_kbps", "95.11"), (None, "ladder_kbps", 95),
    ("profit", "user_priorities", "55"), ("channel", "state_bandwidth_kbps", "1234"),
    ("channel", "boundaries_kbps", 256.0), ("channel", "transition", [0.5, 0.5, 0.0, 0.0]),
])
def test_list_field_must_be_a_list(tmp_path, section, key, bad):
    # a quoted "12345" used to load as the ladder 1, 2, 3, 4, 5
    path = str(tmp_path / "s.yaml")
    save_scenario(fair_scenario(), path)
    with open(path, encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    (data if section is None else data[section])[key] = bad
    with open(path, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh)
    with pytest.raises(ConfigurationError, match="must be a list of numbers"):
        load_scenario(path)
