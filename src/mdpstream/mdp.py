"""Finite-horizon solver: the canonical joint-state index, feasibility
filtering under an infinite congestion price, per-action profit tables,
the one q reduction shared with the hindsight planner, and backward
induction producing a time-indexed policy table.

The q reduction (``_best``) scans q exactly, or on large instances takes
a separable max-plus transform whose every choice is certified against
its rounding error, falling back to the scan where it cannot be; both
give the same decisions and value bits.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import os
from dataclasses import astuple, dataclass
from functools import reduce

import numpy as np

from . import economics
from .economics import DerivedConstants, ProfitParams
from .model import (
    Action,
    ChannelModel,
    ConfigurationError,
    QualityLadder,
    SystemState,
    left_sum,
    state_space_size,
)

POLICY_TABLE_FORMAT = "mdpstream-policy-table-npy"
CANONICAL_ORDER_VERSION = 1
DEFAULT_MEMORY_CAP_BYTES = 2 << 30


class InfeasibleModelError(RuntimeError):
    """No joint action satisfies the aggregate rate cap."""


def state_index(rates, chans, m: int, k: int):
    """Canonical index of (..., users) arrays of rate and channel indices on
    an m-rung ladder with k channel states: base-(m*k) digits
    ``rate * k + channel``, user 0 most significant."""
    n = np.shape(rates)[-1]
    return (np.asarray(rates) * k + chans) @ (m * k) ** np.arange(n - 1, -1, -1)


def scenario_fingerprint(
    ladder: QualityLadder, channel: ChannelModel, params: ProfitParams, horizon: int
) -> str:
    """SHA-256 of everything ``backward_induction`` solves from, so a table
    can be matched to the scenario it was solved for.  Rates are taken as
    floats, so ``350`` and ``350.0`` give the same fingerprint."""
    inputs = (
        [float(r) for r in ladder.rates],
        channel.transition.tolist(),
        [float(b) for b in channel.state_bandwidth],
        [float(b) for b in channel.boundaries],
        astuple(params),
        horizon,
    )
    return hashlib.sha256(repr(inputs).encode()).hexdigest()


def feasible_actions(
    num_users: int, ladder: QualityLadder, params: ProfitParams
) -> list[Action]:
    """All joint rate assignments in canonical (lexicographic) order,
    filtered to the rate cap when the congestion price is infinite."""
    if num_users != params.num_users:
        raise ConfigurationError(
            f"params carry {params.num_users} priorities but {num_users} users requested"
        )
    actions = [
        Action(rate_indices=digits)
        for digits in itertools.product(range(len(ladder)), repeat=num_users)
    ]
    if math.isinf(params.congestion_price):
        actions = [
            a for a in actions
            if left_sum(a.rates_kbps(ladder)) <= params.total_rate_cap_kbps
        ]
        if not actions:
            raise InfeasibleModelError(
                f"no feasible action: rate cap {params.total_rate_cap_kbps} Kbps "
                f"cannot serve {num_users} users even at the minimum rate "
                f"{ladder.r_min} Kbps"
            )
    return actions


# ----------------------------- solver internals -----------------------------


def variation_table(
    ladder: QualityLadder, params: ProfitParams, consts: DerivedConstants
) -> np.ndarray:
    """``smoothness_cost`` for every (previous rung, next rung) pair."""
    rates = ladder.rates
    return np.array([[economics.smoothness_cost(p, q, params, consts) for q in rates] for p in rates])


def _by_action(per_user, vector_digits, action_digits, params) -> np.ndarray:
    """Priority-weighted per-user terms, (vectors, actions): entry (v, a) is
    the sum over users u of ``priority[u] * per_user[v's digit u, a's digit
    u]``, taken left to right from 0.0."""
    total = np.zeros((len(vector_digits), len(action_digits)))
    for u, weight in enumerate(params.user_priorities):
        total += weight * per_user[vector_digits[:, u, None], action_digits[None, :, u]]
    return total


class _ActionTables:
    """Per-action profit pieces shared by the solver and the hindsight planner.

    Actions are kept in tie-break order: ascending aggregate rate, then
    lexicographically ascending rate vector.  Taking the first maximizer in
    this order implements the deterministic tie-break.
    """

    def __init__(
        self,
        ladder: QualityLadder,
        channel: ChannelModel,
        params: ProfitParams,
        consts: DerivedConstants,
        num_users: int,
    ) -> None:
        m, k, n = len(ladder), channel.num_states, num_users
        self.num_rate_vectors = m ** n
        self.num_chan_vectors = k ** n

        # Per-user scalar tables, built through the economics functions.
        self.playbuf = np.array([
            [
                economics.playback_income(r, b, params, consts)
                - economics.buffering_cost(r, b, params, consts)
                for b in channel.state_bandwidth
            ]
            for r in ladder.rates
        ])
        self.variation = variation_table(ladder, params, consts)

        self.rate_digits = np.array(
            list(itertools.product(range(m), repeat=n)), dtype=np.int64
        ).reshape(self.num_rate_vectors, n)

        acts = feasible_actions(n, ladder, params)
        order = sorted(
            acts,
            key=lambda a: (left_sum(a.rates_kbps(ladder)), a.rate_indices),
        )
        self.actions = order
        self.action_digits = np.array(
            [a.rate_indices for a in order], dtype=np.int64
        )
        # Multi-index of each action's rate vector, base-m digits.
        weights = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.action_multi = self.action_digits @ weights

        charges = []
        for a in order:
            c = economics.bottleneck_cost(a.rates_kbps(ladder), params)
            if isinstance(c, economics.Infeasible):
                raise AssertionError("feasible_actions let an infeasible action through")
            charges.append(c)
        self.bottleneck = np.array(charges)
        self.charged = bool(self.bottleneck.view(np.int64).any())  # bits: -0.0 counts

        self.variation_by_action = _by_action(
            self.variation, self.rate_digits, self.action_digits, params
        )
        # For ``_separable``: each user's weighted variation table, the
        # action at each point of the full grid of rate vectors (len(actions)
        # where none is feasible), and the charge and penalty part of M.
        self.penalty = np.array(params.user_priorities)[:, None, None] * self.variation
        self.grid_action = np.full(m ** n, len(order), dtype=np.int64)
        self.grid_action[self.action_multi] = np.arange(len(order))
        self.error_scale = (np.abs(self.bottleneck).max()
                            + np.abs(self.penalty).max(axis=(1, 2)).sum())


class _SolverTables(_ActionTables):
    """Adds the expectation and joint-channel machinery used by the sweep."""

    def __init__(self, ladder, channel, params, consts, num_users):
        super().__init__(ladder, channel, params, consts, num_users)
        m, k, n = len(ladder), channel.num_states, num_users
        chan_digits = np.array(
            list(itertools.product(range(k), repeat=n)), dtype=np.int64
        ).reshape(self.num_chan_vectors, n)

        # Expected income-minus-buffering for each (current channel state,
        # chosen rate), taken over the next channel state.
        exp_playbuf = (self.playbuf @ channel.transition.T).T
        # (channel vectors, actions), like every sweep's q block.
        self.expected_playbuf_by_action = _by_action(
            exp_playbuf, chan_digits, self.action_digits, params
        )
        self.joint_channel = reduce(np.kron, [channel.transition] * n)
        # Canonical state index for each (rate vector, channel vector) pair.
        self.canonical_index = state_index(
            self.rate_digits[:, None, :], chan_digits[None, :, :], m, k
        )


# Floats per q block (1 MB, to stay in L2); a block holds at least one rate vector.
_BLOCK_FLOATS = 1 << 17


def _scan(gain, variation, tables: _ActionTables, q: np.ndarray, out: np.ndarray) -> None:
    """The exact kernel: q = ``(gain - variation) - bottleneck`` into the
    buffer ``q`` (shaped as gain and variation broadcast), then the first
    maximizer over actions into ``out``.  An all-+0.0 charge is skipped,
    as ``x - 0.0`` is ``x`` bit for bit."""
    np.subtract(gain, variation, out=q)
    if tables.charged:
        q -= tables.bottleneck
    q.argmax(axis=-1, out=out)


def _separable_rows(tables: _ActionTables) -> int:
    """Rows per chunk of the transform: its nine (grid points x rows)
    working arrays then stay near ``_BLOCK_FLOATS``."""
    return max(1, _BLOCK_FLOATS // (8 * len(tables.grid_action)))


def _use_separable(rows: int, tables: _ActionTables) -> bool:
    """The size rule.  Counted in q elements of the scan, the scan costs
    rate vectors x actions per row.  The transform costs about 5 n m^(n+1)
    per row (eight elementwise passes per user and rung over the m^n grid,
    each element cheaper than a q element) plus 2^14 n m per chunk of rows
    (those passes' fixed cost), for n users and m rungs."""
    m, n = tables.variation.shape[0], len(tables.penalty)
    chunks = -(-rows // _separable_rows(tables))
    scan = tables.variation_by_action.size * rows
    return scan > 5 * n * m ** (n + 1) * rows + (1 << 14) * n * m * chunks


def _separable(gain: np.ndarray, tables: _ActionTables, choice: np.ndarray) -> None:
    """Fill ``choice`` (rate vectors, rows) with the first maximizer of q by
    a max-plus transform taken one user at a time, which the separable
    penalty ``variation_by_action[r, a] = sum_u penalty[u][r_u, a_u]``
    allows, and send each pair it cannot certify to ``_scan``.

    ``gain - bottleneck`` is laid on the full m^n grid of action digits
    (``-inf`` where no action is feasible); pass u replaces digit u of the
    action by digit u of the rate vector, subtracting ``penalty[u]`` and
    carrying the best and second-best value and the best grid point.  Every
    path, like every q element, is within (n + 2) M 2^-53 of its exact sum
    (n + 1 subtractions, or additions, plus the n products together), where
    M bounds |gain| + |bottleneck| + sum_u |penalty[u]|.  So a best more than
    8 (n + 2) M 2^-52, four times the most that rounding can close, above
    the second is the unique maximizer of q too, and hence the first; a
    tie, a near tie and any NaN or infinity (the comparison is false) fall
    back to the exact scan.
    """
    m, n = tables.variation.shape[0], len(tables.penalty)
    grid = m ** n
    step = min(len(gain), _separable_rows(tables))
    laid = np.full((gain.shape[1] + 1, step), -np.inf)  # last row: no action
    bound = 8 * (n + 2) * 2.0 ** -52 * (np.abs(gain).max() + tables.error_scale)
    values = np.empty((2, 2, grid * step))  # best and second, read and written in turn
    points = np.empty((2, grid * step), dtype=np.intp)
    cand, spare, low = np.empty((3, grid * step))
    beats = np.empty(grid * step, dtype=bool)
    pairs = max(1, _BLOCK_FLOATS // gain.shape[1])  # fallback pairs per scan
    for lo in range(0, len(gain), step):
        rows = min(step, len(gain) - lo)
        size = grid * rows
        np.subtract(gain[lo:lo + rows].T, tables.bottleneck[:, None], out=laid[:-1, :rows])
        best = values[1, 0, :size].reshape(grid, rows)
        np.take(laid[:, :rows], tables.grid_action, axis=0, out=best)
        second, point = None, np.arange(grid)[:, None]
        for u in range(n):
            # axes: rate digits before u, digit u, action digits after u, rows
            shape = (m ** u, m, m ** (n - u - 1), rows)
            best_in, point_in = best.reshape(shape), point.reshape(shape[:3] + (-1,))
            second_in = None if second is None else second.reshape(shape)
            best, second = (v[:size].reshape(shape) for v in values[u % 2])
            point = points[u % 2, :size].reshape(shape)
            c, s, w, hit = (x[:size].reshape(shape) for x in (cand, spare, low, beats))
            for a in range(m):
                pen = tables.penalty[u, :, a, None, None]  # over digit u of the rate vector
                if a == 0:
                    np.subtract(best_in[:, :1], pen, out=best)
                    if second_in is None:
                        second.fill(-np.inf)
                    else:
                        np.subtract(second_in[:, :1], pen, out=second)
                    np.copyto(point, point_in[:, :1])
                    continue
                np.subtract(best_in[:, a:a + 1], pen, out=c)
                if second_in is not None:
                    np.subtract(second_in[:, a:a + 1], pen, out=s)
                    np.maximum(second, s, out=second)
                np.minimum(best, c, out=w)
                np.maximum(second, w, out=second)
                np.greater(c, best, out=hit)
                np.copyto(point, point_in[:, a:a + 1], where=hit)
                np.maximum(best, c, out=best)
        gap = cand[:size].reshape(grid, rows)
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, not certified
            np.subtract(best.reshape(grid, rows), second.reshape(grid, rows), out=gap)
        out = choice[:, lo:lo + rows]
        np.take(tables.grid_action, point.reshape(grid, rows), out=out)
        vec, row = np.nonzero(~(gap > bound))
        buf = np.empty((min(pairs, len(vec)), gain.shape[1]))
        for p in range(0, len(vec), pairs):
            v, r = vec[p:p + pairs], row[p:p + pairs]
            pick = np.empty(len(v), dtype=np.int64)
            _scan(gain[lo + r], tables.variation_by_action[v], tables, buf[:len(v)], pick)
            out[v, r] = pick


def _best(gain: np.ndarray, tables: _ActionTables) -> tuple[np.ndarray, np.ndarray]:
    """Best value and action for every (rate vector, row of ``gain``), where
    ``gain`` is (rows, actions) of everything in q but the variation
    penalty and the bottleneck charge; both results are (rate vectors, rows).

    q is ``(gain - variation) - bottleneck`` and the first maximizer wins:
    actions are in tie-break order.  Large instances (``_use_separable``)
    take the certified transform of ``_separable``; the rest scan q block
    by block of rate vectors in one reused buffer.  Either way the values
    are taken once at the choices by the same expression as q.
    """
    num_actions = gain.shape[1]
    choice = np.empty((tables.num_rate_vectors, len(gain)), dtype=np.int64)
    if _use_separable(len(gain), tables):
        _separable(gain, tables, choice)
    else:
        rows = max(1, _BLOCK_FLOATS // gain.size)
        buf = np.empty((min(rows, len(choice)),) + gain.shape)
        for lo in range(0, len(choice), rows):
            _scan(gain, tables.variation_by_action[lo:lo + rows, None, :], tables,
                  buf[:len(choice) - lo], choice[lo:lo + rows])
    values = gain.take(choice + np.arange(0, gain.size, num_actions))
    values -= tables.variation_by_action.take(
        choice + np.arange(0, tables.variation_by_action.size, num_actions)[:, None])
    values -= tables.bottleneck.take(choice)
    return values, choice


def _backup(tables: _SolverTables, v_next: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One backward sweep: epoch-t values and chosen actions from epoch-t+1
    values.  ``v_next`` has shape (rate vectors, channel vectors); reads and
    writes touch separate buffers, so within-sweep updates cannot leak.

    Every q element is ``((playbuf + future) - variation) - bottleneck``,
    and each future term is its own matvec (a single gemm rounds
    differently), so values and first-maximizer choices match a
    full-tensor reduction (``tests/support.full_tensor_backup``) bit for bit.
    """
    future = np.stack(
        [tables.joint_channel @ v_next[i] for i in tables.action_multi], axis=1
    )
    return _best(tables.expected_playbuf_by_action + future, tables)


def backward_induction(
    ladder: QualityLadder,
    channel: ChannelModel,
    params: ProfitParams,
    consts: DerivedConstants,
    horizon: int,
    *,
    memory_cap_bytes: int = DEFAULT_MEMORY_CAP_BYTES,
) -> PolicyTable:
    """Solve the finite-horizon adaptation problem by backward induction.

    Terminal values are zero.  Each sweep computes epoch t from epoch t+1
    only, then the buffers swap.  Ties between equally valued actions
    resolve to the smallest aggregate rate and then the lexicographically
    smallest rate vector, so solves are fully deterministic.

    A sweep's working memory is bounded; the returned table grows with
    states x horizon, so one over ``memory_cap_bytes`` is refused up front.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be at least 1, got {horizon}")
    n = params.num_users
    size = state_space_size(ladder, channel, n)
    needed = 8 * size * ((horizon + 1) + horizon * n)  # float64 values, int64 actions
    if needed > memory_cap_bytes:
        raise ConfigurationError(
            f"policy table needs {needed} bytes ({size} states x horizon {horizon}), over "
            f"the memory cap of {memory_cap_bytes} bytes; use fewer users or a shorter horizon"
        )

    tables = _SolverTables(ladder, channel, params, consts, n)
    values = np.zeros((horizon + 1, size))
    actions = np.zeros((horizon, size, n), dtype=np.int64)

    v_next = np.zeros((tables.num_rate_vectors, tables.num_chan_vectors))
    for t in range(horizon - 1, -1, -1):
        v_now, choice = _backup(tables, v_next)
        values[t][tables.canonical_index] = v_now
        actions[t][tables.canonical_index] = tables.action_digits[choice]
        v_next = v_now

    values.setflags(write=False)
    actions.setflags(write=False)
    return PolicyTable(
        ladder_size=len(ladder),
        num_channel_states=channel.num_states,
        num_users=n,
        horizon=horizon,
        fingerprint=scenario_fingerprint(ladder, channel, params, horizon),
        values=values,
        action_rate_indices=actions,
    )


# ----------------------------- policy table -----------------------------


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Optimal decisions and values for every (epoch, state), stored densely
    in canonical state order."""

    ladder_size: int
    num_channel_states: int
    num_users: int
    horizon: int
    fingerprint: str  # scenario_fingerprint of the solver's inputs
    values: np.ndarray  # (horizon + 1, states); terminal row is all zero
    action_rate_indices: np.ndarray  # (horizon, states, users)

    def __post_init__(self) -> None:
        size = self.num_states
        if self.values.shape != (self.horizon + 1, size):
            raise ValueError(
                f"values shaped {self.values.shape}, expected {(self.horizon + 1, size)}"
            )
        if self.action_rate_indices.shape != (self.horizon, size, self.num_users):
            raise ValueError(
                f"actions shaped {self.action_rate_indices.shape}, "
                f"expected {(self.horizon, size, self.num_users)}"
            )

    @property
    def num_states(self) -> int:
        return (self.ladder_size * self.num_channel_states) ** self.num_users

    def state_index(self, rate_indices, channel_indices):
        """Canonical state index of (..., users) arrays of rate and channel
        indices (a scalar for one state's tuples)."""
        rates, chans = np.asarray(rate_indices), np.asarray(channel_indices)
        if rates.shape[-1:] != (self.num_users,) or chans.shape != rates.shape:
            raise ValueError(f"table solved for {self.num_users} users, got states shaped "
                             f"{rates.shape} and {chans.shape}")
        k = self.num_channel_states
        if np.any((rates < 0) | (rates >= self.ladder_size) | (chans < 0) | (chans >= k)):
            raise ValueError("state out of range for this table")
        return state_index(rates, chans, self.ladder_size, k)

    def value(self, t: int, state: SystemState) -> float:
        if not 0 <= t <= self.horizon:
            raise ValueError(f"epoch {t} outside [0, {self.horizon}]")
        return float(self.values[t, self.state_index(state.rate_indices, state.channel_indices)])

    def actions(self, t: int, rate_indices, channel_indices) -> np.ndarray:
        """Epoch-t rate indices for (..., users) arrays of states."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"decision epoch {t} outside [0, {self.horizon})")
        return self.action_rate_indices[t, self.state_index(rate_indices, channel_indices)]

    def action(self, t: int, state: SystemState) -> Action:
        digits = self.actions(t, state.rate_indices, state.channel_indices)
        return Action(rate_indices=tuple(digits.tolist()))

    def save(self, path: str) -> None:
        """Write three ASCII header lines (format tag and ordering version,
        dimensions, ``fingerprint=``), then ``values`` (float64) and
        ``action_rate_indices`` (int64) as two ``np.save`` blocks.  Raw float
        bits make load(save(x)) exact and a re-save byte-identical.  Text
        tables from older versions are refused and must be solved again.
        """
        header = (
            f"{POLICY_TABLE_FORMAT} ordering={CANONICAL_ORDER_VERSION}\n"
            f"ladder_size={self.ladder_size} "
            f"channel_states={self.num_channel_states} "
            f"users={self.num_users} horizon={self.horizon}\n"
            f"fingerprint={self.fingerprint}\n"
        )
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii"))
            np.save(fh, self.values, allow_pickle=False)
            np.save(fh, self.action_rate_indices, allow_pickle=False)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "PolicyTable":
        """Read a table written by ``save``.  Anything else, truncated or
        extended files included, raises ``ConfigurationError``."""
        try:
            with open(path, "rb") as fh:
                header = fh.readline().decode("ascii").split()
                if header[:1] != [POLICY_TABLE_FORMAT]:
                    raise ValueError("not a policy table file")
                if header[1:] != [f"ordering={CANONICAL_ORDER_VERSION}"]:
                    raise ValueError(f"unsupported ordering version (have {header[1:]})")
                fields = dict(
                    item.split("=")
                    for line in (fh.readline(), fh.readline())
                    for item in line.decode("ascii").split()
                )
                # read_array takes only the .npy format that save writes;
                # np.load would also open a zip archive here.
                values = np.lib.format.read_array(fh, allow_pickle=False)
                actions = np.lib.format.read_array(fh, allow_pickle=False)
                if fh.read(1):
                    raise ValueError("trailing bytes after the action array")
            if (values.dtype, actions.dtype) != (np.float64, np.int64):
                raise ValueError(f"arrays hold {values.dtype}/{actions.dtype}, not float64/int64")
            values.setflags(write=False)
            actions.setflags(write=False)
            return cls(
                ladder_size=int(fields["ladder_size"]),
                num_channel_states=int(fields["channel_states"]),
                num_users=int(fields["users"]),
                horizon=int(fields["horizon"]),
                fingerprint=fields["fingerprint"],
                values=values,
                action_rate_indices=actions,
            )
        except KeyError as missing:
            why = f"header missing {missing}"
        except (ValueError, EOFError) as err:  # UnicodeDecodeError is a ValueError
            why = str(err)
        raise ConfigurationError(f"{path}: {why}; solve it again with mdpstream solve")
