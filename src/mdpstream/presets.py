"""Bundled experiment setups: the two-user fair and differentiated
case studies over a four-state wireless link."""

from __future__ import annotations

import math
from dataclasses import replace

from .economics import ProfitParams
from .model import ChannelModel, QualityLadder
from .sim import ScenarioConfig

#: Five-level encoding of the test clip, Kbps.
LADDER_KBPS = (95.11, 183.53, 364.63, 493.02, 798.09)

#: Per-second transitions of the four-state last-hop link.
TRANSITION = (
    (0.5, 0.5, 0.0, 0.0),
    (0.2, 0.6, 0.2, 0.0),
    (0.0, 0.1, 0.7, 0.2),
    (0.0, 0.0, 0.2, 0.8),
)

#: Representative bandwidth per state and the region edges between states.
STATE_BANDWIDTH_KBPS = (95.0, 256.0, 512.0, 896.0)
BOUNDARIES_KBPS = (256.0, 512.0, 896.0)


def default_ladder() -> QualityLadder:
    return QualityLadder(rates=LADDER_KBPS)


def default_channel() -> ChannelModel:
    return ChannelModel(
        transition=TRANSITION,
        state_bandwidth=STATE_BANDWIDTH_KBPS,
        boundaries=BOUNDARIES_KBPS,
    )


def _base_profit(priorities: tuple[float, ...]) -> ProfitParams:
    return ProfitParams(
        playback_weight=0.3,
        buffering_weight=0.5,
        smoothness_weight=0.2,
        variation_threshold_kbps=350.0,
        congestion_price=math.inf,
        total_rate_cap_kbps=850.0,
        user_priorities=priorities,
    )


def fair_scenario(**overrides) -> ScenarioConfig:
    """Two users with equal priority sharing an 850 Kbps bottleneck."""
    config = ScenarioConfig(
        ladder=default_ladder(),
        channel=default_channel(),
        profit=_base_profit((0.5, 0.5)),
        num_users=2,
        horizon=200,
        name="fair",
    )
    return replace(config, **overrides) if overrides else config


def differentiated_scenario(**overrides) -> ScenarioConfig:
    """Same setup with a premium user: priorities 0.7 and 0.3."""
    config = replace(
        fair_scenario(),
        profit=_base_profit((0.7, 0.3)),
        name="diff",
    )
    return replace(config, **overrides) if overrides else config
