"""Seeded session simulator: Markov bandwidth paths, policy decisions,
proportional sharing of the bottleneck, and fluid playback buffers.  All
runs of a cell are held together as (runs, horizon, users) arrays."""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, replace
from typing import Sequence

import numpy as np

from . import economics, mdp
from .economics import DerivedConstants, ProfitParams, derive_constants
from .model import (ChannelModel, ConfigurationError, QualityLadder, _require, _require_finite,
                    left_sum)
from .policies import IdealOracle, Myopic, Proposed, check_channel_indices, solve_ideal

SHARING_PROPORTIONAL = "proportional"
SHARING_NONE = "none"


@dataclass(frozen=True)
class ScenarioConfig:
    """Everything a session needs: content, link model, economics, and the
    run plan.  Policy arms are chosen per experiment, not here."""

    ladder: QualityLadder
    channel: ChannelModel
    profit: ProfitParams
    num_users: int
    horizon: int
    segment_seconds: float = 1.0
    frames_per_second: float = 24.0
    initial_buffer_frames: int = 80
    initial_rate_index: int = 0
    num_runs: int = 15
    rng_seed: int = 101
    sharing_mode: str = SHARING_PROPORTIONAL
    name: str = "scenario"

    def __post_init__(self) -> None:
        _require(self.num_users >= 1, "need at least one user")
        _require(
            self.profit.num_users == self.num_users,
            f"profit params carry {self.profit.num_users} priorities "
            f"but the scenario has {self.num_users} users",
        )
        _require(self.horizon >= 1, "horizon must be at least 1")
        _require_finite("segment_seconds", self.segment_seconds)
        _require(self.segment_seconds > 0, "segment duration must be positive")
        _require_finite("frames_per_second", self.frames_per_second)
        _require(self.frames_per_second > 0, "frame rate must be positive")
        _require(self.initial_buffer_frames >= 0, "initial buffer cannot be negative")
        _require(
            0 <= self.initial_rate_index < len(self.ladder),
            f"initial rate index {self.initial_rate_index} outside the ladder",
        )
        _require(self.num_runs >= 1, "need at least one run")
        _require(self.rng_seed >= 0, f"rng_seed must be nonnegative, got {self.rng_seed!r}")
        _require(
            self.sharing_mode in (SHARING_PROPORTIONAL, SHARING_NONE),
            f"unknown sharing mode {self.sharing_mode!r}",
        )

    @property
    def initial_buffer_seconds(self) -> float:
        return self.initial_buffer_frames / self.frames_per_second

    def derived_constants(self) -> DerivedConstants:
        return derive_constants(self.ladder, self.channel, self.profit)

    def with_rate_cap(self, cap_kbps: float) -> "ScenarioConfig":
        return replace(self, profit=replace(self.profit, total_rate_cap_kbps=cap_kbps))

    def with_horizon(self, horizon: int) -> "ScenarioConfig":
        return replace(self, horizon=horizon)


@dataclass(frozen=True)
class SegmentRecord:
    """Everything observed for one segment period: per-user tuples plus the
    shared charge.  Income and costs are per user and unweighted; the stage
    profit applies the priorities and subtracts the bottleneck charge."""

    epoch: int
    rate_kbps: tuple[float, ...]
    channel_state: tuple[int, ...]
    effective_bw_kbps: tuple[float, ...]
    download_s: tuple[float, ...]
    rebuffer_s: tuple[float, ...]
    buffer_s: tuple[float, ...]
    income: tuple[float, ...]
    buffering_cost: tuple[float, ...]
    variation_cost: tuple[float, ...]
    bottleneck_cost: float
    stage_profit: float


# The per-user trace columns, in CSV order.
USER_COLUMNS = (
    "rate_kbps", "channel_state", "effective_bw_kbps", "download_s", "rebuffer_s",
    "buffer_s", "income", "buffering_cost", "variation_cost",
)


@dataclass(frozen=True, eq=False)
class Trace:
    """Every run of a cell, one array per trace column: (runs, horizon, users)
    per user, (runs, horizon) for the shared charge and the stage profit.
    Epoch t of run r holds what a ``SegmentRecord`` holds."""

    rate_kbps: np.ndarray
    channel_state: np.ndarray
    effective_bw_kbps: np.ndarray
    download_s: np.ndarray
    rebuffer_s: np.ndarray
    buffer_s: np.ndarray
    income: np.ndarray
    buffering_cost: np.ndarray
    variation_cost: np.ndarray
    bottleneck_cost: np.ndarray
    stage_profit: np.ndarray

    def records(self, run: int) -> list[SegmentRecord]:
        """One ``SegmentRecord`` per segment of run ``run``."""
        per_user = [map(tuple, getattr(self, name)[run].tolist()) for name in USER_COLUMNS]
        shared = (self.bottleneck_cost[run].tolist(), self.stage_profit[run].tolist())
        return [SegmentRecord(t, *row) for t, row in enumerate(zip(*per_user, *shared))]


def user_rngs(seed: int, run_index: int, num_users: int) -> list[np.random.Generator]:
    """Independent, reproducible per-user generators for one (seed, run)."""
    return [
        np.random.default_rng(np.random.SeedSequence([seed, run_index, user]))
        for user in range(num_users)
    ]


def sample_channel_path(
    channel: ChannelModel,
    initial_state: int,
    num_steps: int,
    rng: np.random.Generator,
) -> np.ndarray:
    """Realized channel states, length ``num_steps + 1`` starting from
    ``initial_state``."""
    state, k = operator.index(initial_state), channel.num_states
    if not 0 <= state < k:
        raise ValueError(f"initial state {initial_state} out of range")
    if num_steps < 0:
        raise ValueError(f"num_steps must be nonnegative, got {num_steps}")
    cumulative = np.cumsum(channel.transition, axis=1).tolist()
    path = [state]
    for draw in rng.random(num_steps).tolist():
        state = min(bisect_right(cumulative[state], draw), k - 1)
        path.append(state)
    return np.array(path, dtype=np.int64)


def channel_paths(config: ScenarioConfig, runs: Sequence[int]) -> np.ndarray:
    """Realized channel states of the given runs, (runs, horizon + 1, users).

    A path depends only on (seed, run, user), never on the policy, so arms
    compared at the same run index face identical bandwidth realizations.
    Each user's generator draws the initial state from the stationary
    distribution, then walks ``sample_channel_path``.
    """
    channel, horizon, n = config.channel, config.horizon, config.num_users
    # int64 paths, simulate's float64 raw bandwidths, every trace column but channel_state
    needed = 8 * len(runs) * (n * (2 * (horizon + 1) + (len(USER_COLUMNS) - 1) * horizon)
                              + 2 * horizon)
    _require(needed <= mdp.DEFAULT_MEMORY_CAP_BYTES,
             f"simulating {len(runs)} runs x horizon {horizon} x {n} users needs {needed} "
             f"bytes, over the memory cap of {mdp.DEFAULT_MEMORY_CAP_BYTES} bytes; use fewer "
             "runs or a shorter horizon")
    paths = np.empty((len(runs), horizon + 1, n), np.int64)
    stationary_cum = np.cumsum(channel.stationary_distribution()).tolist()
    for i, run in enumerate(runs):
        for u, rng in enumerate(user_rngs(config.rng_seed, run, n)):
            first = min(bisect_right(stationary_cum, rng.random()), channel.num_states - 1)
            paths[i, :, u] = sample_channel_path(channel, first, horizon, rng)
    return paths


def effective_bandwidth(
    chosen_rates_kbps,
    raw_bw_kbps,
    rate_cap_kbps: float,
    sharing_mode: str,
) -> np.ndarray:
    """Per-user delivered bandwidth after the shared bottleneck, for arrays
    shaped (..., users); each leading index is its own bottleneck.

    Proportional mode models a scheduler that, whenever aggregate demand
    exceeds the cap, splits the cap in proportion to the requested video
    rates; each user is additionally limited by its own link.  Demand
    counts only what a user can actually pull: the smaller of its link
    bandwidth and its requested rate.  Mode "none" bypasses the bottleneck
    entirely.
    """
    raw = np.asarray(raw_bw_kbps, dtype=float)
    if sharing_mode == SHARING_NONE:
        return raw
    if sharing_mode != SHARING_PROPORTIONAL:
        raise ConfigurationError(f"unknown sharing mode {sharing_mode!r}")
    rates = np.asarray(chosen_rates_kbps, dtype=float)
    if rates.shape != raw.shape:
        raise ValueError("need one chosen rate per user")
    # left_sum(x.T).T sums over the last (user) axis; .T is cheaper than np.moveaxis
    demand = left_sum(np.where(rates < raw, rates, raw).T).T
    share = rate_cap_kbps * rates / left_sum(rates.T).T[..., None]
    squeezed = np.where(share < raw, share, raw)
    return np.where((demand <= rate_cap_kbps)[..., None], raw, squeezed)


def step_buffer(buffer_s, segment_s: float, download_s):
    """Advance fluid playback buffers across one download, elementwise.

    The buffer drains one second of content per wall-clock second while the
    download runs; if it empties, playback stalls for the remainder.  On
    completion the new segment's duration is credited.  Returns the new
    buffer levels and the stall times.
    """
    buffer_s = np.asarray(buffer_s, dtype=float)
    download_s = np.asarray(download_s, dtype=float)
    if np.any(buffer_s < 0) or segment_s <= 0 or np.any(download_s < 0):
        raise ValueError("buffer and download times must be nonnegative, segment positive")
    # max(0.0, x) exactly, +0.0 at equality
    rebuffer = np.where(download_s > buffer_s, download_s - buffer_s, 0.0)
    remaining = np.where(buffer_s > download_s, buffer_s - download_s, 0.0)
    return remaining + segment_s, rebuffer


def simulate(config: ScenarioConfig, policy: Proposed | Myopic | IdealOracle,
             paths: np.ndarray) -> Trace:
    """Simulate the runs whose ``channel_paths`` are given, all under one
    policy arm and all stepping together.

    Decisions come first: one plan for all runs (ideal), or one step per
    epoch over the whole (runs, users) array from each run's previous rates
    (proposed: a table gather on the state; myopic: the bandwidth the
    previous segment was delivered, a function of that state).  The rest is
    one pass over the horizon; only the buffer recurrence steps per epoch.
    Profit is scored against the delivered bandwidth.  Sums over users run
    left to right from 0.0 and costs come from the scalar economics
    functions, so a run's numbers do not depend on which other runs step
    with it.
    """
    consts = config.derived_constants()
    params, ladder, channel = config.profit, config.ladder, config.channel
    runs, horizon, n = len(paths), config.horizon, config.num_users
    if paths.shape != (runs, horizon + 1, n):
        raise ValueError(f"paths shaped {paths.shape}, expected (runs, {horizon + 1}, {n})")
    check_channel_indices(paths, channel.num_states)

    rate_of = np.array(ladder.rates)
    raw = np.array(channel.state_bandwidth)[paths[:, 1:]]
    cap = params.total_rate_cap_kbps
    if isinstance(policy, IdealOracle):
        chosen = solve_ideal(paths, (config.initial_rate_index,) * n,
                             ladder, channel, params, consts)
    elif isinstance(policy, (Proposed, Myopic)):
        chosen = np.empty((runs, horizon, n), dtype=np.int64)
        prev = np.full((runs, n), config.initial_rate_index)
        for t in range(horizon):
            if isinstance(policy, Proposed):
                chosen[:, t] = policy.decide(t, prev, paths[:, t])
            else:
                chosen[:, t] = policy.decide(None if t == 0 else effective_bandwidth(
                    rate_of[prev], raw[:, t - 1], cap, config.sharing_mode))
            prev = chosen[:, t]
    else:
        raise TypeError(f"unknown policy {policy!r}")

    rates = rate_of[chosen]
    effective = effective_bandwidth(rates, raw, cap, config.sharing_mode)
    download = rates * config.segment_seconds / effective
    short = rates > effective
    # playback_income depends on the rate alone once the rate is carried
    income_of = np.array([economics.playback_income(r, r, params, consts) for r in ladder.rates])
    income = np.where(short, 0.0, income_of[chosen])
    # one scalar buffering_cost per distinct (rate, delivered) bit pair;
    # np.log may round unlike math.log
    buffering = np.zeros((runs, horizon, n))
    pairs = np.stack([rates[short], effective[short]], axis=1)
    keys, which = np.unique(pairs.view(np.int64), axis=0, return_inverse=True)
    costs = [economics.buffering_cost(r, e, params, consts) for r, e in keys.view(float).tolist()]
    buffering[short] = np.array(costs)[which.reshape(-1)]
    prev = np.concatenate([np.full((runs, 1, n), config.initial_rate_index), chosen[:, :-1]], axis=1)
    var_cost = mdp.variation_table(ladder, params, consts)[prev, chosen]
    charge = np.zeros((runs, horizon))  # an infinite price rations the cap, never bills it
    if math.isfinite(params.congestion_price):  # one bottleneck_cost per distinct rate vector
        vectors, which = np.unique(rates.reshape(-1, n), axis=0, return_inverse=True)
        costs = [economics.bottleneck_cost(v, params) for v in vectors.tolist()]
        charge = np.array(costs)[which.reshape(-1)].reshape(runs, horizon)
    weighted = np.array(params.user_priorities) * ((income - buffering) - var_cost)
    profit = left_sum(weighted.T).T - charge

    buffers, stalls = np.empty_like(download), np.empty_like(download)
    for t in range(horizon):
        level = buffers[:, t - 1] if t else config.initial_buffer_seconds
        buffers[:, t], stalls[:, t] = step_buffer(level, config.segment_seconds, download[:, t])
    return Trace(rates, paths[:, 1:], effective, download, stalls, buffers, income, buffering,
                 var_cost, charge, profit)


def run_session(config: ScenarioConfig, policy: Proposed | Myopic | IdealOracle,
                run_index: int = 0) -> list[SegmentRecord]:
    """Simulate one seeded session under one policy arm: ``simulate`` for
    the single run ``run_index``."""
    return simulate(config, policy, channel_paths(config, [run_index])).records(0)
