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


def check_indices(kind: str, indices: np.ndarray, count: int) -> None:
    """Refuse ``kind`` indices outside [0, count); numpy would wrap -1."""
    bad = indices[(indices < 0) | (indices >= count)]
    if bad.size:
        raise ValueError(f"{kind} index {bad[0]} outside [0, {count})")


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
    vectors a plan can reach) is exact.  Each epoch reduces q for every run
    at once with the solver's own ``mdp._best``, so ties break the same way.
    """
    paths = np.asarray(channel_paths, dtype=np.int64)
    n = params.num_users
    if paths.ndim != 3 or paths.shape[2] != n:
        raise ValueError(f"paths shaped {paths.shape}, expected (runs, horizon + 1, {n})")
    runs, horizon = paths.shape[0], paths.shape[1] - 1
    if horizon < 1:
        raise ValueError("need at least one decision epoch")
    check_indices("channel", paths, channel.num_states)
    digits = tuple(int(i) for i in initial_rate_indices)
    if len(digits) != n or not all(0 <= d < len(ladder) for d in digits):
        raise ValueError(f"initial rate indices {digits}: need one per user, each on the ladder")
    multi = int(np.ravel_multi_index(digits, (len(ladder),) * n))

    tables = mdp._action_tables(ladder, channel, params, consts, n)
    num_actions = len(tables.action_digits)
    id_dtype = np.min_scalar_type(num_actions - 1)
    needed = horizon * num_actions * runs * id_dtype.itemsize
    mdp.require_memory(f"the hindsight plan for {runs} runs x horizon {horizon}", needed,
                       "use fewer runs or a shorter horizon")
    # Priority-weighted pay once per joint channel vector the paths visit, by base-k code.
    k = channel.num_states
    codes, where = np.unique(paths[:, 1:] @ k ** np.arange(n - 1, -1, -1), return_inverse=True)
    prio = np.array(params.user_priorities)
    pay_of = np.array([tables.playbuf[tables.action_digits, c] @ prio
                       for c in np.array(np.unravel_index(codes, (k,) * n)).T])
    where = where.reshape(runs, horizon)

    # A plan stands at the initial rate vector at epoch 0 (row 0), at an action's after it.
    plan = np.empty((horizon, num_actions, runs), dtype=id_dtype)
    v_next, gain, work = np.zeros((num_actions, runs)), np.empty((runs, num_actions)), {}
    for t in range(horizon - 1, -1, -1):
        vectors = tables.action_multi if t else np.array([multi])
        gain = np.add(pay_of.take(where[:, t], axis=0, out=gain, mode="clip"), v_next.T, out=gain)
        v_next, plan[t, :len(vectors)] = mdp._best(gain, tables, vectors, work)
    chosen = np.empty((runs, horizon), dtype=np.int64)
    at = np.zeros(runs, dtype=np.int64)
    for t in range(horizon):
        chosen[:, t] = at = plan[t, at, np.arange(runs)]
    return tables.action_digits[chosen]
