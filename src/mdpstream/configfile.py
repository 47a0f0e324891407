"""Scenario files: a YAML schema covering the ladder, the link model, the
profit parameters, and the session plan.  See the bundled scenarios for
complete examples."""

from __future__ import annotations

import os

import yaml

from .economics import ProfitParams, VARIATION_SYMMETRIC
from .model import ChannelModel, ConfigurationError, QualityLadder
from .sim import ScenarioConfig

_SCENARIO_KEYS = {
    "name", "ladder_kbps", "channel", "profit", "num_users", "horizon",
    "segment_seconds", "frames_per_second", "initial_buffer_frames",
    "initial_rate_index", "num_runs", "rng_seed", "sharing_mode",
}
_CHANNEL_KEYS = {"transition", "state_bandwidth_kbps", "boundaries_kbps"}
_PROFIT_KEYS = {
    "playback_weight", "buffering_weight", "smoothness_weight",
    "variation_threshold_kbps", "congestion_price", "total_rate_cap_kbps",
    "user_priorities", "variation_penalty",
}


def read_yaml(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except OSError as err:
        raise ConfigurationError(f"cannot read {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigurationError(f"{path} is not valid YAML: {err}") from err
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a mapping at the top level")
    return data


def _check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(
            f"unknown {where} keys: {', '.join(sorted(unknown))}"
        )


def _float(value, field: str) -> float:
    """``float(value)``, refusing a boolean, which would read as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ConfigurationError(f"{field} must be a number, got {value!r}")
    return float(value)


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate one scenario file."""
    data = read_yaml(path)
    _check_keys(data, _SCENARIO_KEYS, "scenario")
    try:
        channel_raw = data["channel"]
        profit_raw = data["profit"]
        _check_keys(channel_raw, _CHANNEL_KEYS, "channel")
        _check_keys(profit_raw, _PROFIT_KEYS, "profit")
        for key in ("num_users", "horizon", "initial_buffer_frames", "initial_rate_index",
                    "num_runs", "rng_seed"):  # int() would truncate 200.7 or True
            if isinstance(data.get(key), bool) or not float(data.get(key, 0)).is_integer():
                raise ConfigurationError(f"{key} must be a whole number, got {data[key]!r}")
        ladder = QualityLadder(rates=tuple(data["ladder_kbps"]))
        channel = ChannelModel(
            transition=channel_raw["transition"],
            state_bandwidth=tuple(channel_raw["state_bandwidth_kbps"]),
            boundaries=tuple(channel_raw["boundaries_kbps"]),
        )
        numbers = ("playback_weight", "buffering_weight", "smoothness_weight",
                   "variation_threshold_kbps", "congestion_price", "total_rate_cap_kbps")
        profit = ProfitParams(
            **{key: _float(profit_raw[key], key) for key in numbers},
            user_priorities=tuple(
                _float(p, "user_priorities") for p in profit_raw["user_priorities"]
            ),
            variation_penalty=profit_raw.get("variation_penalty", VARIATION_SYMMETRIC),
        )
        return ScenarioConfig(
            ladder=ladder,
            channel=channel,
            profit=profit,
            num_users=int(data["num_users"]),
            horizon=int(data["horizon"]),
            segment_seconds=_float(data.get("segment_seconds", 1.0), "segment_seconds"),
            frames_per_second=_float(data.get("frames_per_second", 24.0), "frames_per_second"),
            initial_buffer_frames=int(data.get("initial_buffer_frames", 80)),
            initial_rate_index=int(data.get("initial_rate_index", 0)),
            num_runs=int(data.get("num_runs", 15)),
            rng_seed=int(data.get("rng_seed", 101)),
            sharing_mode=data.get("sharing_mode", "proportional"),
            name=data.get("name", os.path.splitext(os.path.basename(path))[0]),
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(f"{path}: {err}") from err


def save_scenario(config: ScenarioConfig, path: str) -> None:
    """Write a scenario back out in the same schema ``load_scenario`` reads."""
    data = {
        "name": config.name,
        "ladder_kbps": list(config.ladder.rates),
        "channel": {
            "transition": [list(map(float, row)) for row in config.channel.transition],
            "state_bandwidth_kbps": list(config.channel.state_bandwidth),
            "boundaries_kbps": list(config.channel.boundaries),
        },
        "profit": {
            "playback_weight": config.profit.playback_weight,
            "buffering_weight": config.profit.buffering_weight,
            "smoothness_weight": config.profit.smoothness_weight,
            "variation_threshold_kbps": config.profit.variation_threshold_kbps,
            "congestion_price": config.profit.congestion_price,
            "total_rate_cap_kbps": config.profit.total_rate_cap_kbps,
            "user_priorities": list(config.profit.user_priorities),
            "variation_penalty": config.profit.variation_penalty,
        },
        "num_users": config.num_users,
        "horizon": config.horizon,
        "segment_seconds": config.segment_seconds,
        "frames_per_second": config.frames_per_second,
        "initial_buffer_frames": config.initial_buffer_frames,
        "initial_rate_index": config.initial_rate_index,
        "num_runs": config.num_runs,
        "rng_seed": config.rng_seed,
        "sharing_mode": config.sharing_mode,
    }
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    os.replace(tmp, path)
