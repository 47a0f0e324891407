"""Decision policies for streaming sessions: solved-table lookup, the
client-side throughput rule, and a hindsight planner that optimizes
against a fully known bandwidth path."""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .economics import DerivedConstants, ProfitParams
from .mdp import PolicyTable, _ActionTables
from .model import ChannelModel, QualityLadder


# ----------------------------- throughput estimators -----------------------------


class LastSampleEstimator:
    """Remembers only the most recent throughput sample."""

    def __init__(self) -> None:
        self.value: float | None = None

    def add(self, sample_kbps: float) -> None:
        self.value = sample_kbps


class EwmaEstimator:
    """Exponentially weighted moving average of throughput samples."""

    def __init__(self, smoothing: float = 0.5) -> None:
        if not 0 < smoothing <= 1:
            raise ValueError("smoothing must lie in (0, 1]")
        self.smoothing = smoothing
        self.value: float | None = None

    def add(self, sample_kbps: float) -> None:
        if self.value is None:
            self.value = sample_kbps
        else:
            self.value = self.smoothing * sample_kbps + (1 - self.smoothing) * self.value


# ----------------------------- policies -----------------------------


@dataclass(frozen=True)
class Proposed:
    """Operator policy: look the decision up in a solved table.

    With ``stationary`` set, every epoch reuses the epoch-0 row, turning the
    time-indexed table into a stationary rule for open-ended sessions.
    """

    table: PolicyTable
    stationary: bool = False

    def decide(self, epoch: int, rate_indices, channel_indices) -> np.ndarray:
        """Rate indices for the states given as (..., users) arrays of the
        previous rate indices and the observed channel states."""
        return self.table.actions(0 if self.stationary else epoch, rate_indices, channel_indices)


@dataclass(frozen=True)
class Myopic:
    """Client-side rule: each user independently picks the fastest rate its
    estimated throughput can carry, ignoring the shared cap and everyone
    else.  With no estimate yet (session start) the lowest rate is used.
    """

    ladder: QualityLadder
    estimator_factory: Callable[[], object] = LastSampleEstimator

    def decide(self, estimates_kbps) -> np.ndarray:
        """Rate indices for (..., users) throughput estimates, where None
        (or NaN) means no estimate yet."""
        estimates = np.asarray(estimates_kbps, dtype=float)
        idx = np.searchsorted(self.ladder.rates, estimates, side="right") - 1
        return np.where(np.isnan(estimates) | (idx < 0), 0, idx)


@dataclass(frozen=True)
class IdealOracle:
    """Marker arm: plan with hindsight against each session's sampled path."""


# One scenario's sessions run back to back; they share the tables read-only.
_action_tables = functools.lru_cache(maxsize=1)(_ActionTables)


def solve_ideal(
    channel_paths: np.ndarray,
    initial_rate_indices: Sequence[int],
    ladder: QualityLadder,
    channel: ChannelModel,
    params: ProfitParams,
    consts: DerivedConstants,
) -> np.ndarray:
    """Plan against a fully known bandwidth path; returns the planned rate
    indices, shaped (horizon, users).

    ``channel_paths`` holds each user's realized channel state indices with
    shape (users, horizon + 1); entry t is the state during segment t, so
    the decision at epoch t is scored against column t + 1.  With the path
    fixed the only state left is the rate vector, and a deterministic
    backward recursion over it is exact.  Ties break like the stochastic
    solver: smallest aggregate rate, then lexicographically smallest
    vector.
    """
    paths = np.asarray(channel_paths, dtype=np.int64)
    n = params.num_users
    if paths.ndim != 2 or paths.shape[0] != n:
        raise ValueError(f"paths shaped {paths.shape}, expected ({n}, horizon + 1)")
    horizon = paths.shape[1] - 1
    if horizon < 1:
        raise ValueError("need at least one decision epoch")

    tables = _action_tables(ladder, channel, params, consts, n)
    num_rate_vectors = tables.num_rate_vectors

    plan = np.empty((horizon, num_rate_vectors), dtype=np.int64)
    v_next = np.zeros(num_rate_vectors)
    prio = np.array(params.user_priorities)
    for t in range(horizon - 1, -1, -1):
        pay = tables.playbuf[tables.action_digits, paths[:, t + 1]] @ prio
        base = pay - tables.bottleneck + v_next[tables.action_multi]
        q = base[None, :] - tables.variation_by_action  # (rate vectors, actions)
        plan[t] = q.argmax(axis=1)
        v_next = q.max(axis=1)

    digits = tuple(int(i) for i in initial_rate_indices)
    if len(digits) != n:
        raise ValueError("need one initial rate index per user")
    multi = 0
    for d in digits:
        if not 0 <= d < len(ladder):
            raise ValueError(f"initial rate index {d} outside the ladder")
        multi = multi * len(ladder) + d

    chosen = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        chosen[t] = plan[t, multi]
        multi = tables.action_multi[chosen[t]]
    return tables.action_digits[chosen]
