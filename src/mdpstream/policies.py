"""Decision policies for streaming sessions: solved-table lookup, the
client-side throughput rule, and a hindsight planner that optimizes
against a fully known bandwidth path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .economics import DerivedConstants, ProfitParams
from .mdp import PolicyTable, _ActionTables
from .model import Action, ChannelModel, QualityLadder, SystemState


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

    def decide(self, epoch: int, state: SystemState) -> Action:
        t = 0 if self.stationary else epoch
        return self.table.action(t, state)


@dataclass(frozen=True)
class Myopic:
    """Client-side rule: each user independently picks the fastest rate its
    estimated throughput can carry, ignoring the shared cap and everyone
    else.  With no estimate yet (session start) the lowest rate is used.
    """

    ladder: QualityLadder
    estimator_factory: Callable[[], object] = LastSampleEstimator

    def decide(self, estimates_kbps: Sequence[float | None]) -> Action:
        indices = []
        for est in estimates_kbps:
            if est is None:
                indices.append(0)
                continue
            idx = self.ladder.highest_at_most(est)
            indices.append(0 if idx is None else idx)
        return Action(rate_indices=tuple(indices))


@dataclass(frozen=True)
class IdealOracle:
    """Marker arm: plan with hindsight against each session's sampled path."""


@dataclass(frozen=True)
class IdealPlan:
    """Precomputed hindsight-optimal decisions for one realized path."""

    actions: tuple[Action, ...]

    def decide(self, epoch: int) -> Action:
        return self.actions[epoch]


def solve_ideal(
    channel_paths: np.ndarray,
    initial_rate_indices: Sequence[int],
    ladder: QualityLadder,
    channel: ChannelModel,
    params: ProfitParams,
    consts: DerivedConstants,
) -> IdealPlan:
    """Plan against a fully known bandwidth path.

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

    tables = _ActionTables(ladder, channel, params, consts, n)
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

    chosen: list[Action] = []
    for t in range(horizon):
        pos = int(plan[t, multi])
        chosen.append(tables.actions[pos])
        multi = int(tables.action_multi[pos])
    return IdealPlan(actions=tuple(chosen))
