"""Scenario files: a YAML schema covering the ladder, the link model, the
profit parameters, and the session plan, whose keys, conversions and
defaults are the ``ScenarioConfig`` and ``ProfitParams`` fields.  See the
bundled scenarios for complete examples."""

from __future__ import annotations

import os
from dataclasses import fields
from typing import get_type_hints

import yaml

from .economics import ProfitParams
from .model import ChannelModel, ConfigurationError, QualityLadder
from .sim import ScenarioConfig


def _float(value, field: str) -> float:
    """``float(value)``, refusing a boolean, which would read as 1.0 or 0.0."""
    if isinstance(value, bool):
        raise ConfigurationError(f"{field} must be a number, got {value!r}")
    return float(value)


def _floats(values, field: str) -> tuple[float, ...]:
    """A YAML list of numbers; a string would be read character by character."""
    if not isinstance(values, list):
        raise ConfigurationError(f"{field} must be a list of numbers, got {values!r}")
    return tuple(_float(value, field) for value in values)


def _whole(value, field: str) -> int:
    """``int(value)``, refusing what it would truncate: 200.7, True, .inf."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ConfigurationError(f"{field} must be a whole number, got {value!r}")
    return int(value)


def _string(value, field: str) -> str:
    """``value`` itself, refusing a non-string: null or a list would pass as a name."""
    if not isinstance(value, str):
        raise ConfigurationError(f"{field} must be a string, got {value!r}")
    return value


_CONVERT = {int: _whole, float: _float, tuple[float, ...]: _floats, str: _string}


def _schema(cls, built: tuple[str, ...] = ()) -> dict:
    """Field name -> conversion for every field of ``cls`` but those
    ``built`` from their own keys."""
    hints = get_type_hints(cls)
    return {f.name: _CONVERT[hints[f.name]] for f in fields(cls) if f.name not in built}


_SCENARIO_FIELDS = _schema(ScenarioConfig, built=("ladder", "channel", "profit"))
_PROFIT_FIELDS = _schema(ProfitParams)
_SCENARIO_KEYS = {"ladder_kbps", "channel", "profit", *_SCENARIO_FIELDS}
_CHANNEL_KEYS = {"transition", "state_bandwidth_kbps", "boundaries_kbps"}
_LOADER = yaml.CSafeLoader if yaml.__with_libyaml__ else yaml.SafeLoader  # C parser if built


def read_yaml(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_LOADER)
    except OSError as err:
        raise ConfigurationError(f"cannot read {path}: {err}") from err
    except yaml.YAMLError as err:
        raise ConfigurationError(f"{path} is not valid YAML: {err}") from err
    if not isinstance(data, dict):
        raise ConfigurationError(f"{path} must hold a mapping at the top level")
    return data


def check_keys(section: dict, allowed: set[str], where: str) -> None:
    unknown = set(section) - allowed
    if unknown:
        raise ConfigurationError(f"unknown {where} keys: {', '.join(sorted(unknown))}")


def _build(cls, schema: dict, raw: dict, **built):
    """``cls`` from one file section, each present key converted; an absent
    key keeps the field's default, and ``cls`` refuses a missing required one."""
    return cls(**{key: convert(raw[key], key) for key, convert in schema.items() if key in raw},
               **built)


def ladder_from(data: dict) -> QualityLadder:
    """The ladder of a scenario file's top-level mapping."""
    return QualityLadder(rates=_floats(data["ladder_kbps"], "ladder_kbps"))


def channel_from(data: dict) -> ChannelModel:
    """The link model of a scenario file's top-level mapping."""
    raw = data["channel"]
    check_keys(raw, _CHANNEL_KEYS, "channel")
    return ChannelModel(
        transition=[_floats(row, "transition") for row in raw["transition"]],
        state_bandwidth=_floats(raw["state_bandwidth_kbps"], "state_bandwidth_kbps"),
        boundaries=_floats(raw["boundaries_kbps"], "boundaries_kbps"),
    )


def load_scenario(path: str) -> ScenarioConfig:
    """Parse and validate one scenario file."""
    data = read_yaml(path)
    check_keys(data, _SCENARIO_KEYS, "scenario")
    try:
        check_keys(data["profit"], set(_PROFIT_FIELDS), "profit")
        return _build(
            ScenarioConfig, _SCENARIO_FIELDS,
            {"name": os.path.splitext(os.path.basename(path))[0], **data},
            ladder=ladder_from(data),
            channel=channel_from(data),
            profit=_build(ProfitParams, _PROFIT_FIELDS, data["profit"]),
        )
    except ConfigurationError:
        raise
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigurationError(f"{path}: {err}") from err


def _plain(value):
    return list(value) if isinstance(value, tuple) else value


def save_scenario(config: ScenarioConfig, path: str) -> None:
    """Write a scenario back out in the same schema ``load_scenario`` reads."""
    data = {
        "name": config.name,  # first in the file; the update below keeps its place
        "ladder_kbps": list(config.ladder.rates),
        "channel": {
            "transition": [list(map(float, row)) for row in config.channel.transition],
            "state_bandwidth_kbps": list(config.channel.state_bandwidth),
            "boundaries_kbps": list(config.channel.boundaries),
        },
        "profit": {key: _plain(getattr(config.profit, key)) for key in _PROFIT_FIELDS},
    }
    data.update((key, getattr(config, key)) for key in _SCENARIO_FIELDS)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        yaml.safe_dump(data, fh, sort_keys=False)
    os.replace(tmp, path)
