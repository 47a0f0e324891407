"""Decision policies for streaming sessions: solved-table lookup, the
client-side last-sample rule, and a hindsight planner that optimizes
against a fully known bandwidth path."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .economics import DerivedConstants, ProfitParams
from . import mdp
from .mdp import PolicyTable
from .model import ChannelModel, QualityLadder


@dataclass(frozen=True)
class Proposed:
    """Operator policy: look the decision up in a solved table.

    With ``stationary`` set, every epoch reuses the epoch-0 row, turning the
    time-indexed table into a stationary rule for open-ended sessions.
    """

    table: PolicyTable
    stationary: bool = False


@dataclass(frozen=True)
class Myopic:
    """Client-side last-sample rule: each user independently requests the
    highest rate at or below the bandwidth its previous segment was
    delivered, ignoring the shared cap and everyone else.  The lowest rate
    serves when no rate fits and at session start, with nothing delivered."""

    ladder: QualityLadder

    def decide(self, estimates_kbps) -> np.ndarray:
        """Rate indices for (..., users) delivered bandwidths, where None
        (or NaN) means nothing delivered yet."""
        estimates = np.asarray(estimates_kbps, dtype=float)
        idx = np.searchsorted(self.ladder.rates, estimates, side="right") - 1
        return np.where(np.isnan(estimates) | (idx < 0), 0, idx)


@dataclass(frozen=True)
class IdealOracle:
    """Marker arm: plan with hindsight against each session's sampled path."""


def check_channel_indices(paths: np.ndarray, num_states: int) -> None:
    """Refuse state indices outside [0, num_states); numpy would wrap -1."""
    bad = paths[(paths < 0) | (paths >= num_states)]
    if bad.size:
        raise ValueError(f"channel index {bad[0]} outside [0, {num_states})")


def solve_ideal(
    channel_paths: np.ndarray,
    initial_rate_indices: Sequence[int],
    ladder: QualityLadder,
    channel: ChannelModel,
    params: ProfitParams,
    consts: DerivedConstants,
) -> np.ndarray:
    """Plan every run against its fully known bandwidth path; returns the
    planned rate indices, shaped (runs, horizon, users).

    ``channel_paths`` holds each run's realized channel state indices with
    shape (runs, horizon + 1, users), as ``sim.channel_paths`` returns
    them; entry t is the state during segment t, so the decision at epoch
    t is scored against entry t + 1.  With the path fixed the only state
    left is the rate vector, and one backward recursion over (runs, rate
    vectors) is exact.  Each epoch reduces q for every run at once with the
    solver's own ``mdp._best``, so ties break the same way.
    """
    paths = np.asarray(channel_paths, dtype=np.int64)
    n = params.num_users
    if paths.ndim != 3 or paths.shape[2] != n:
        raise ValueError(f"paths shaped {paths.shape}, expected (runs, horizon + 1, {n})")
    runs, horizon = paths.shape[0], paths.shape[1] - 1
    if horizon < 1:
        raise ValueError("need at least one decision epoch")
    check_channel_indices(paths, channel.num_states)
    digits = tuple(int(i) for i in initial_rate_indices)
    if len(digits) != n or not all(0 <= d < len(ladder) for d in digits):
        raise ValueError(f"initial rate indices {digits}: need one per user, each on the ladder")
    multi = int(np.ravel_multi_index(digits, (len(ladder),) * n))

    tables = mdp._action_tables(ladder, channel, params, consts, n)
    # Priority-weighted pay once per joint channel vector the paths visit.
    visited, where = np.unique(paths[:, 1:].reshape(-1, n), axis=0, return_inverse=True)
    prio = np.array(params.user_priorities)
    pay_of = np.array([tables.playbuf[tables.action_digits, c] @ prio for c in visited])
    where = where.reshape(runs, horizon)

    id_dtype = np.min_scalar_type(len(tables.action_digits) - 1)
    needed = horizon * tables.num_rate_vectors * runs * id_dtype.itemsize
    mdp.require_memory(f"the hindsight plan for {runs} runs x horizon {horizon}", needed,
                       "use fewer runs or a shorter horizon")
    plan = np.empty((horizon, tables.num_rate_vectors, runs), dtype=id_dtype)
    v_next = np.zeros((tables.num_rate_vectors, runs))
    for t in range(horizon - 1, -1, -1):
        v_next, plan[t] = mdp._best(pay_of[where[:, t]] + v_next[tables.action_multi].T, tables)
    chosen = np.empty((runs, horizon), dtype=np.int64)
    at = np.full(runs, multi)
    for t in range(horizon):
        chosen[:, t] = plan[t, at, np.arange(runs)]
        at = tables.action_multi[chosen[:, t]]
    return tables.action_digits[chosen]
