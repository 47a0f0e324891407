"""Seeded session simulator: Markov bandwidth paths, policy decisions,
proportional sharing of the bottleneck, and fluid playback buffers.  All
runs of a cell are held together as (runs, horizon, users) arrays."""

from __future__ import annotations

import math
import operator
from bisect import bisect_right
from dataclasses import dataclass, fields, make_dataclass, replace
from typing import Sequence

import numpy as np

from . import economics, mdp
from .economics import DerivedConstants, ProfitParams, derive_constants
from .model import (ChannelModel, ConfigurationError, QualityLadder, _require, _require_finite,
                    left_sum)
from .mdp import check_indices, solve_ideal
from .policies import IdealOracle, Myopic, Proposed

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


@dataclass(frozen=True, eq=False)
class Trace:
    """Every run of a cell, one array per trace column in CSV order: (runs,
    horizon, users) per user, (runs, horizon) for the last two, the shared
    charge and stage profit.  Epoch t of run r holds a ``SegmentRecord``."""

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
        k = len(USER_COLUMNS)
        rows = zip(*(getattr(self, f.name)[run].tolist() for f in fields(self)))
        return [SegmentRecord(t, *map(tuple, row[:k]), *row[k:]) for t, row in enumerate(rows)]

    def select(self, runs: slice) -> "Trace":
        """The runs ``runs`` of this trace, every column a view."""
        return Trace(**{name: column[runs] for name, column in vars(self).items()})


# The per-user trace columns, in CSV order: every ``Trace`` column but the last two.
USER_COLUMNS = tuple(f.name for f in fields(Trace))[:-2]

SegmentRecord = make_dataclass(
    "SegmentRecord",
    [("epoch", int), *((f.name, tuple if f.name in USER_COLUMNS else float) for f in fields(Trace))],
    frozen=True, namespace={"__module__": __name__, "__doc__": """Everything observed for one
    segment period: its epoch, then each ``Trace`` column at it, per-user
    tuples before the shared charge.  Income and costs are per user and
    unweighted; the stage profit applies the priorities and subtracts the
    bottleneck charge."""})


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


def channel_paths(config: ScenarioConfig, runs: Sequence[int], arms: int = 1) -> np.ndarray:
    """Realized channel states of the given runs, (runs, horizon + 1, users).

    A path depends only on (seed, run, user), never on the policy, so arms
    compared at the same run index face identical bandwidth realizations,
    and a shorter horizon's paths are a prefix of a longer one's.  Each
    user's generator draws the initial state from the stationary
    distribution, then walks ``sample_channel_path``.

    Before drawing, the cell is refused if ``score`` over ``arms`` arms'
    decisions stacked on these runs would hold more than the memory cap.
    """
    channel, horizon, n = config.channel, config.horizon, config.num_users
    rows = arms * len(runs)
    needed = 8 * ((len(runs) + rows) * n * (horizon + 1)  # int64 paths, drawn and stacked
                  + rows * n * horizon  # int64 decisions
                  # float64 trace columns; channel_state is a view of the paths
                  + rows * ((len(USER_COLUMNS) - 1) * n + 2) * horizon
                  # one epoch's step_buffer arrays, then array headers and cost lists
                  + 8 * rows * n) + (1 << 16)
    mdp.require_memory(f"simulating {arms} arm(s) x {len(runs)} runs x horizon {horizon} x {n} "
                       "users", needed, "use fewer runs or a shorter horizon")
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
    return _proportional_share(rates, raw, rate_cap_kbps)


def _proportional_share(rates: np.ndarray, raw: np.ndarray, cap: float) -> np.ndarray:
    """``effective_bandwidth``'s proportional mode on float arrays of one shape.  Rates and
    links are positive, so ``np.minimum`` picks what the test ``a < b`` would."""
    # left_sum(x.T).T sums over the last (user) axis; .T is cheaper than np.moveaxis
    demand = left_sum(np.minimum(rates, raw).T).T
    squeezed = np.minimum(cap * rates / left_sum(rates.T).T[..., None], raw)
    np.copyto(squeezed, raw, where=(demand <= cap)[..., None])
    return squeezed


def step_buffer(buffer_s, segment_s: float, download_s):
    """Advance fluid playback buffers across one download, elementwise.

    The buffer drains one second of content per wall-clock second while the
    download runs; if it empties, playback stalls for the remainder.  On
    completion the new segment's duration is credited.  Returns the new
    buffer levels and the stall times.
    """
    buffer_s = np.asarray(buffer_s, dtype=float)
    download_s = np.asarray(download_s, dtype=float)
    if segment_s <= 0 or (np.fmin(buffer_s, download_s) < 0).any():  # fmin skips NaN
        raise ValueError("buffer and download times must be nonnegative, segment positive")
    # max(0.0, x) exactly, NaN to 0.0; adding 0.0 (segment_s below) makes a zero +0.0
    rebuffer = np.fmax(download_s - buffer_s, 0.0) + 0.0
    remaining = np.fmax(buffer_s - download_s, 0.0)
    return remaining + segment_s, rebuffer


def _once_per_value(cost, values: np.ndarray) -> np.ndarray:
    """``cost(v)`` for every element v of ``values``, called once per
    distinct value.  The distinct values come from one sort: without an
    inverse, ``np.unique`` hashes instead and imports ``numpy.ma``, about
    2 MB of resident memory."""
    keys = np.sort(values, axis=None)
    keys = np.concatenate((keys[:1], keys[1:][keys[1:] != keys[:-1]]))
    costs = np.array([cost(key) for key in keys.tolist()], dtype=float)
    return costs[np.searchsorted(keys, values)]


def decide(config: ScenarioConfig, policy: Proposed | Myopic | IdealOracle,
           paths: np.ndarray) -> np.ndarray:
    """Rate indices (runs, horizon, users) that one policy arm chooses on the
    runs whose ``channel_paths`` are given: one plan for all runs (ideal), a
    walk of the solved table (proposed), or one step per epoch over the
    whole (runs, users) array from the bandwidth each user's previous
    segment was delivered (myopic)."""
    runs, horizon, n = len(paths), config.horizon, config.num_users
    if paths.shape != (runs, horizon + 1, n):
        raise ValueError(f"paths shaped {paths.shape}, expected (runs, {horizon + 1}, {n})")
    check_indices("channel", paths, config.channel.num_states)
    if isinstance(policy, IdealOracle):
        return solve_ideal(paths, (config.initial_rate_index,) * n, config.ladder, config.channel,
                           config.profit)
    if isinstance(policy, Proposed):
        start = np.full((runs, n), config.initial_rate_index)
        return policy.table.walk(start, paths[:, :-1], policy.stationary)
    if not isinstance(policy, Myopic):
        raise TypeError(f"unknown policy {policy!r}")
    rate_of = np.array(config.ladder.rates)  # effective_bandwidth's inputs, converted once
    raw = np.array(config.channel.state_bandwidth)[paths[:, 1:-1]]
    cap, shared = config.profit.total_rate_cap_kbps, config.sharing_mode == SHARING_PROPORTIONAL
    chosen = np.empty((runs, horizon, n), dtype=np.int64)
    chosen[:, 0] = policy.decide(None)
    for t in range(1, horizon):
        chosen[:, t] = policy.decide(_proportional_share(rate_of[chosen[:, t - 1]], raw[:, t - 1],
                                                         cap) if shared else raw[:, t - 1])
    return chosen


def score(config: ScenarioConfig, chosen: np.ndarray, paths: np.ndarray) -> Trace:
    """Score the rate indices ``chosen`` (rows, horizon, users) on the runs
    whose ``channel_paths`` are given, row by row: the delivered bandwidth,
    income, costs, charge and profit in one pass over the horizon, then the
    buffer recurrence one ``step_buffer`` per epoch.

    Profit is scored against the delivered bandwidth.  Sums over users run
    left to right from 0.0 and costs come from the scalar economics
    functions, so a row's numbers do not depend on which other rows (other
    runs, or other arms' decisions stacked on the same runs) step with it.
    Whole-cell temporaries are freed before the buffer loop, so the pass
    holds no more than ``channel_paths`` counts for its rows.
    """
    consts = config.derived_constants()
    params, ladder, n = config.profit, config.ladder, config.num_users
    rows, horizon = len(chosen), config.horizon
    if chosen.shape != (rows, horizon, n) or paths.shape != (rows, horizon + 1, n):
        raise ValueError(f"decisions shaped {chosen.shape} and paths {paths.shape}, expected "
                         f"(rows, {horizon}, {n}) and (rows, {horizon + 1}, {n})")
    check_indices("rate", chosen, len(ladder))

    rate_of = np.array(ladder.rates)
    rates = rate_of[chosen]
    effective = effective_bandwidth(rates, np.array(config.channel.state_bandwidth)[paths[:, 1:]],
                                    params.total_rate_cap_kbps, config.sharing_mode)
    download = rates * config.segment_seconds / effective
    short = rates > effective
    # playback_income depends on the rate alone once the rate is carried
    income_of = np.array([economics.playback_income(r, r, params, consts) for r in ladder.rates])
    income = np.where(short, 0.0, income_of[chosen])
    # one scalar buffering_cost per distinct shortfall (positive, so distinct
    # values are distinct bits), which is all it reads of the rate and the
    # bandwidth; np.log may round unlike math.log
    buffering = np.zeros((rows, horizon, n))
    buffering[short] = _once_per_value(
        lambda gap: economics.buffering_cost(gap, 0.0, params, consts), (rates - effective)[short])
    del short
    var_cost = np.empty((rows, horizon, n))
    variation = mdp.variation_table(ladder, params, consts)
    var_cost[:, 0] = variation[config.initial_rate_index, chosen[:, 0]]
    var_cost[:, 1:] = variation[chosen[:, :-1], chosen[:, 1:]]
    charge = np.zeros((rows, horizon))  # an infinite price rations the cap, never bills it
    if math.isfinite(params.congestion_price):  # bottleneck_cost reads only the aggregate rate
        charge = _once_per_value(lambda total: economics.bottleneck_cost((total,), params),
                                 left_sum(rates.T).T)
    weighted = np.array(params.user_priorities) * ((income - buffering) - var_cost)
    profit = left_sum(weighted.T).T - charge
    del weighted

    buffers, stalls = np.empty_like(download), np.empty_like(download)
    for t in range(horizon):
        level = buffers[:, t - 1] if t else config.initial_buffer_seconds
        buffers[:, t], stalls[:, t] = step_buffer(level, config.segment_seconds, download[:, t])
    return Trace(rates, paths[:, 1:], effective, download, stalls, buffers, income, buffering,
                 var_cost, charge, profit)


def simulate(config: ScenarioConfig, policy: Proposed | Myopic | IdealOracle,
             paths: np.ndarray) -> Trace:
    """Simulate the runs whose ``channel_paths`` are given, all under one
    policy arm: its ``decide``, then one ``score`` pass."""
    return score(config, decide(config, policy, paths), paths)


def run_session(config: ScenarioConfig, policy: Proposed | Myopic | IdealOracle,
                run_index: int = 0) -> list[SegmentRecord]:
    """Simulate one seeded session under one policy arm: ``simulate`` for
    the single run ``run_index``."""
    return simulate(config, policy, channel_paths(config, [run_index])).records(0)
