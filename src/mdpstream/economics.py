"""Operator profit model: per-user playback income, buffering and rate
variation penalties, and the shared bottleneck congestion charge.

All money amounts are dimensionless: the three weights split one unit of
maximum per-user income, and the log terms are normalized to [0, 1] over
the configured ladder and bandwidth grid.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .model import ChannelModel, QualityLadder, _require, left_sum

_WEIGHT_TOL = 1e-9

VARIATION_SYMMETRIC = "symmetric"
VARIATION_DOWNWARD_ONLY = "downward_only"


class Infeasible:
    """Marker value for a hard-infeasible outcome: the congestion price is
    infinite and the aggregate rate cap was exceeded."""

    __slots__ = ()

    def __repr__(self) -> str:
        return "INFEASIBLE"


INFEASIBLE = Infeasible()


@dataclass(frozen=True)
class ProfitParams:
    """Weights and prices of the operator profit model.

    The three weights must sum to 1, as must the per-user priorities.  A
    finite ``congestion_price`` charges proportionally for aggregate rate
    above ``total_rate_cap_kbps``; an infinite price forbids exceeding the
    cap outright.
    """

    playback_weight: float
    buffering_weight: float
    smoothness_weight: float
    variation_threshold_kbps: float
    congestion_price: float
    total_rate_cap_kbps: float
    user_priorities: tuple[float, ...]
    variation_penalty: str = VARIATION_SYMMETRIC

    def __post_init__(self) -> None:
        weights = (self.playback_weight, self.buffering_weight, self.smoothness_weight)
        for name, w in zip(("playback", "buffering", "smoothness"), weights):
            _require(0.0 <= w <= 1.0, f"{name} weight must lie in [0, 1], got {w!r}")
        _require(
            abs(left_sum(weights) - 1.0) <= _WEIGHT_TOL,
            f"profit weights must sum to 1, got {left_sum(weights)!r}",
        )
        _require(self.variation_threshold_kbps > 0,
                 "variation threshold must be positive")
        _require(
            self.congestion_price >= 0 and not math.isnan(self.congestion_price),
            "congestion price must be nonnegative (may be infinite)",
        )
        _require(
            self.total_rate_cap_kbps > 0 and math.isfinite(self.total_rate_cap_kbps),
            "total rate cap must be positive and finite",
        )
        prio = tuple(float(p) for p in self.user_priorities)
        object.__setattr__(self, "user_priorities", prio)
        _require(len(prio) >= 1, "need a priority per user")
        _require(all(p >= 0 for p in prio), "priorities must be nonnegative")
        _require(
            abs(left_sum(prio) - 1.0) <= _WEIGHT_TOL,
            f"user priorities must sum to 1, got {left_sum(prio)!r}",
        )
        _require(
            self.variation_penalty in (VARIATION_SYMMETRIC, VARIATION_DOWNWARD_ONLY),
            f"unknown variation penalty mode {self.variation_penalty!r}",
        )

    @property
    def num_users(self) -> int:
        return len(self.user_priorities)


@dataclass(frozen=True)
class DerivedConstants:
    """Normalization constants precomputed from ladder, channel, and params.

    ``min_shortfall_kbps`` is the smallest positive gap between a ladder
    rate and a state bandwidth; it and ``buffering_norm`` are None when no
    ladder rate can exceed any state bandwidth (buffering is then
    impossible on the model grid).  ``variation_norm`` is None when the
    ladder span does not strictly exceed the variation threshold.
    """

    r_min_kbps: float
    income_norm: float
    min_shortfall_kbps: float | None
    buffering_norm: float | None
    variation_norm: float | None


def derive_constants(
    ladder: QualityLadder, channel: ChannelModel, params: ProfitParams
) -> DerivedConstants:
    income_norm = math.log(ladder.r_max / ladder.r_min)

    shortfalls = [
        r - b
        for r in ladder.rates
        for b in channel.state_bandwidth
        if r > b
    ]
    if shortfalls:
        min_shortfall = min(shortfalls)
        buffering_norm = math.log((ladder.r_max - channel.bw_min) / min_shortfall)
    else:
        min_shortfall = None
        buffering_norm = None

    span = ladder.r_max - ladder.r_min
    if span > params.variation_threshold_kbps:
        variation_norm = math.log(span / params.variation_threshold_kbps)
    else:
        variation_norm = None

    return DerivedConstants(
        r_min_kbps=ladder.r_min,
        income_norm=income_norm,
        min_shortfall_kbps=min_shortfall,
        buffering_norm=buffering_norm,
        variation_norm=variation_norm,
    )


def playback_income(
    rate_kbps: float,
    next_bw_kbps: float,
    params: ProfitParams,
    consts: DerivedConstants,
) -> float:
    """Income earned when the delivered bandwidth sustains the chosen rate.

    Zero whenever the rate exceeds the bandwidth (playback cannot keep up,
    no income) and grows logarithmically with the rate otherwise, scaled so
    the top ladder rate earns exactly the playback weight.
    """
    if rate_kbps > next_bw_kbps:
        return 0.0
    if consts.income_norm <= 0.0:
        return 0.0  # single-rung ladder: the only rate earns the baseline 0
    return (
        params.playback_weight
        * math.log(rate_kbps / consts.r_min_kbps)
        / consts.income_norm
    )


def buffering_cost(
    rate_kbps: float,
    next_bw_kbps: float,
    params: ProfitParams,
    consts: DerivedConstants,
) -> float:
    """Penalty for picking a rate the delivered bandwidth cannot carry.

    Grows logarithmically with the shortfall, scaled so the worst on-grid
    shortfall costs exactly the buffering weight.  Off-grid bandwidths
    (for example proportional shares during contention) are clamped into
    [0, buffering_weight] so realized accounting stays inside the model's
    range.
    """
    gap = rate_kbps - next_bw_kbps
    if gap <= 0.0:
        return 0.0
    if consts.min_shortfall_kbps is None:
        return 0.0  # grid says buffering is impossible; no normalization exists
    if consts.buffering_norm is None or consts.buffering_norm <= 0.0:
        # Degenerate grid with a single shortfall value: that value costs 0.
        return 0.0
    raw = (
        params.buffering_weight
        * math.log(gap / consts.min_shortfall_kbps)
        / consts.buffering_norm
    )
    return min(max(raw, 0.0), params.buffering_weight)


def smoothness_cost(
    prev_rate_kbps: float,
    next_rate_kbps: float,
    params: ProfitParams,
    consts: DerivedConstants,
) -> float:
    """Penalty for a rate change at or beyond the variation threshold.

    In the default symmetric mode both directions are charged; in
    downward_only mode just drops are (upgrades stay free).
    """
    diff = prev_rate_kbps - next_rate_kbps
    magnitude = abs(diff)
    if params.variation_penalty == VARIATION_DOWNWARD_ONLY:
        triggered = diff >= params.variation_threshold_kbps
    else:
        triggered = magnitude >= params.variation_threshold_kbps
    if not triggered:
        return 0.0
    if consts.variation_norm is None or consts.variation_norm <= 0.0:
        # Trigger at exactly the threshold with no span beyond it: log term is 0.
        return 0.0
    return (
        params.smoothness_weight
        * math.log(magnitude / params.variation_threshold_kbps)
        / consts.variation_norm
    )


def bottleneck_cost(
    action_rates_kbps: tuple[float, ...] | list[float],
    params: ProfitParams,
) -> float | Infeasible:
    """Charge for aggregate rate above the shared cap.

    Returns INFEASIBLE instead of a number when the congestion price is
    infinite and the cap is exceeded; callers must filter such actions
    rather than do arithmetic with the result.
    """
    excess = left_sum(action_rates_kbps) - params.total_rate_cap_kbps
    if excess <= 0.0:
        return 0.0
    if math.isinf(params.congestion_price):
        return INFEASIBLE
    return params.congestion_price * excess
