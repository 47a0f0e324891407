"""Finite-horizon solver: the canonical joint-state index, feasibility
filtering under an infinite congestion price, per-action profit tables,
the one q reduction, and the two recursions sharing it: backward induction
producing a time-indexed policy table, and the hindsight planner.

The q reduction (``_best``) scans q, reading values off it, or on large
instances takes a separable max-plus transform whose every choice is
certified against rounding, else scanned: the same decisions and bits.
Sweeps reuse one workspace per solve; the terminal one skips v = 0.
"""

from __future__ import annotations

import hashlib
import math
import os
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from functools import cached_property, lru_cache, reduce
from typing import Sequence

import numpy as np

from . import economics
from .economics import DerivedConstants, ProfitParams
from .model import ChannelModel, ConfigurationError, QualityLadder, left_sum, state_space_size

POLICY_TABLE_FORMAT = "mdpstream-policy-table-npy"
POLICY_TABLE_VERSIONS = "version=2 ordering=1"  # file layout, canonical state order
DEFAULT_MEMORY_CAP_BYTES = 2 << 30


class InfeasibleModelError(RuntimeError):
    """No joint action satisfies the aggregate rate cap."""


def require_memory(what: str, needed: int, fix: str) -> None:
    """Refuse a working set of ``needed`` bytes over the memory cap."""
    if needed > DEFAULT_MEMORY_CAP_BYTES:
        raise ConfigurationError(f"{what} needs {needed} bytes, over the memory cap of "
                                 f"{DEFAULT_MEMORY_CAP_BYTES} bytes; {fix}")


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


def _digit_grid(base: int, n: int) -> np.ndarray:
    """Every vector of n digits in [0, base), int64 (base ** n, n), in
    lexicographic order: digit 0 most significant, as in ``state_index``."""
    return np.indices((base,) * n, dtype=np.int64).reshape(n, -1).T.copy()


def feasible_actions(num_users: int, ladder: QualityLadder, params: ProfitParams) -> np.ndarray:
    """Rate indices, int64 (actions, users), of every joint rate assignment
    that ``economics.bottleneck_cost`` charges a finite amount, in
    canonical (lexicographic) order."""
    if num_users != params.num_users:
        raise ConfigurationError(
            f"params carry {params.num_users} priorities but {num_users} users requested"
        )
    digits = _digit_grid(len(ladder), num_users)
    keep = [math.isfinite(economics.bottleneck_cost(rates, params))
            for rates in np.array(ladder.rates)[digits].tolist()]
    if not any(keep):
        raise InfeasibleModelError(
            f"no feasible action: rate cap {params.total_rate_cap_kbps} Kbps "
            f"cannot serve {num_users} users even at the minimum rate "
            f"{ladder.r_min} Kbps"
        )
    return digits[keep]


# ----------------------------- solver internals -----------------------------


@lru_cache(maxsize=1)  # keyed like _action_tables: a run's sweep values share ladder and channel
def profit_terms(ladder: QualityLadder, channel: ChannelModel, params: ProfitParams) -> tuple:
    """The profit terms per rung, for the solver, the planner and ``sim.score``:
    the derived constants, then read-only arrays of each rung's income when
    carried (rungs,), income minus buffering at each channel state's bandwidth
    (rungs, channel states) and ``smoothness_cost`` (previous rung, next rung)."""
    consts, rates = economics.derive_constants(ladder, channel, params), ladder.rates
    arrays = (np.array([economics.playback_income(r, r, params, consts) for r in rates]),
              np.array([[economics.playback_income(r, b, params, consts)
                         - economics.buffering_cost(r, b, params, consts)
                         for b in channel.state_bandwidth] for r in rates]),
              np.array([[economics.smoothness_cost(p, q, params, consts) for q in rates] for p in rates]))
    for array in arrays:
        array.flags.writeable = False
    return (consts, *arrays)


def _by_action(per_user, vector_digits, action_digits, params) -> np.ndarray:
    """Priority-weighted per-user terms, (vectors, actions): entry (v, a) is
    the sum over users u of ``priority[u] * per_user[v's digit u, a's digit
    u]``, taken left to right from 0.0."""
    return left_sum(weight * per_user[:, action_digits[:, u]][vector_digits[:, u]]
                    for u, weight in enumerate(params.user_priorities))


class _ActionTables:
    """Per-action profit pieces and the sweep's expectation machinery, shared
    by the solver and the hindsight planner.

    Actions are kept in tie-break order: ascending aggregate rate, then
    lexicographically ascending rate vector.  Taking the first maximizer in
    this order implements the deterministic tie-break.
    """

    def __init__(self, ladder: QualityLadder, channel: ChannelModel, params: ProfitParams) -> None:
        m, k, n = len(ladder), channel.num_states, params.num_users
        self.num_rate_vectors = m ** n
        self.num_chan_vectors = k ** n
        _, _, self.playbuf, self.variation = profit_terms(ladder, channel, params)

        acts = feasible_actions(n, ladder, params)
        # float64 joint channel matrix and three (vectors, actions) arrays while _by_action
        # sums each table (covers reachable_variation); int64 digit grids, grid_action; lists
        rows, cols = self.num_rate_vectors + self.num_chan_vectors, len(acts)
        needed = 8 * (3 * rows * cols + k ** (2 * n) + (n + 1) * rows) + (1 << 16)
        require_memory(f"the solver tables of {cols} actions x {n} users", needed,
                       "use fewer users or a lower rate cap")
        self.rate_digits = _digit_grid(m, n)
        chan_digits = _digit_grid(k, n)

        # Tie order: a stable sort of the lexicographic list by aggregate rate.
        rates = np.array(ladder.rates)[acts].tolist()
        order = np.argsort([left_sum(r) for r in rates], kind="stable")
        self.action_digits = acts[order]
        # Multi-index of each action's rate vector, base-m digits.
        weights = m ** np.arange(n - 1, -1, -1, dtype=np.int64)
        self.action_multi = self.action_digits @ weights

        self.bottleneck = np.array([economics.bottleneck_cost(rates[a], params) for a in order])
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

        # For the sweep: expected income-minus-buffering for each (current
        # channel state, chosen rate), taken over the next channel state, as
        # (channel vectors, actions) like every sweep's q block; and the
        # joint channel matrix.
        exp_playbuf = (self.playbuf @ channel.transition.T).T
        self.expected_playbuf_by_action = _by_action(
            exp_playbuf, chan_digits, self.action_digits, params
        )
        self.joint_channel = reduce(np.kron, [channel.transition] * n)
        for array in vars(self).values():  # shared through _action_tables
            if isinstance(array, np.ndarray):
                array.flags.writeable = False

    @cached_property
    def reachable_variation(self) -> np.ndarray:
        """``variation_by_action`` at the rate vectors a plan reaches after epoch 0."""
        rows = self.variation_by_action[self.action_multi]
        rows.flags.writeable = False
        return rows


# One scenario's tables, built once for its solve and its hindsight plans
# and shared read-only (a ChannelModel hashes by identity).
_action_tables = lru_cache(maxsize=1)(_ActionTables)


# Floats per q block (1 MB, to stay in L2); a block holds at least one rate vector.
_BLOCK_FLOATS = 1 << 17


def _scan(gain, variation, tables: _ActionTables, q, out, at, best, margin=None) -> None:
    """The exact kernel: q = ``(gain - variation) - bottleneck`` into ``q``
    (broadcast; ``at``: its rows' offsets), its first maximizer into ``out``,
    that q into ``best`` and, if given, that q minus the runner-up's into
    ``margin`` (may be ``best``).  An all-+0.0 charge is skipped: x - 0.0 is x."""
    np.subtract(gain, variation, out=q)
    if tables.charged:
        q -= tables.bottleneck
    q.argmax(axis=-1, out=out)
    at = at + out
    q.take(at, out=best, mode="clip")
    if margin is not None:  # the runner-up is the maximum once the best is -inf
        q.put(at, -np.inf)
        with np.errstate(invalid="ignore"):  # inf - inf: NaN, never certified
            np.subtract(best, q.max(axis=-1), out=margin)


def _scan_pairs(gain, tables: _ActionTables, vec, row, choice, margin) -> None:
    """``_scan`` at the (rate vector, row) pairs (``vec``, ``row``), gathered into reused buffers."""
    step = max(1, _BLOCK_FLOATS // gain.shape[1])
    q, variation = np.empty((2, min(step, len(vec)), gain.shape[1]))
    pick, gap, at = np.empty(len(q), dtype=np.int64), np.empty(len(q)), np.arange(0, q.size, gain.shape[1])
    for p in range(0, len(vec), step):
        v, r, k = vec[p:p + step], row[p:p + step], min(step, len(vec) - p)
        gain.take(r, axis=0, out=q[:k], mode="clip")  # indices are in range
        tables.variation_by_action.take(v, axis=0, out=variation[:k], mode="clip")
        _scan(q[:k], variation[:k], tables, q[:k], pick[:k], at[:k], gap[:k], gap[:k])
        choice[v, r], margin[v, r] = pick[:k], gap[:k]


def _separable_rows(tables: _ActionTables) -> int:
    """Rows per chunk of the transform: its ten or so (grid points x rows)
    working arrays then stay near ``_BLOCK_FLOATS``."""
    return max(1, _BLOCK_FLOATS // (8 * len(tables.grid_action)))


def _use_separable(rows: int, tables: _ActionTables, pairs=None) -> bool:
    """The size rule, in q elements of the scan: the scan costs actions per
    (rate vector, row) pair it reduces (``pairs``, all by default), the
    transform about 5 n m^(n+1) per row (eight elementwise passes per user
    and rung over the m^n grid, each element cheaper than a q element) plus
    2^14 n m per chunk of rows (those passes' fixed cost), for n users, m rungs."""
    m, n = tables.variation.shape[0], len(tables.penalty)
    chunks = -(-rows // _separable_rows(tables))
    pairs = tables.num_rate_vectors * rows if pairs is None else pairs
    return len(tables.action_digits) * pairs > 5 * n * m ** (n + 1) * rows + (1 << 14) * n * m * chunks


@np.errstate(invalid="ignore")  # inf - inf: NaN, not certified
def _separable(gain: np.ndarray, tables: _ActionTables, choice: np.ndarray, margin=None) -> None:
    """Fill ``choice`` (rate vectors, rows) with the first maximizer of q, and
    ``margin`` with best - second - the bound below, by a max-plus transform
    taken one user at a time (the penalty ``variation_by_action[r, a] = sum_u
    penalty[u][r_u, a_u]`` is separable); pairs it cannot certify go to ``_scan``.

    ``gain - bottleneck`` is laid on the full m^n grid of action digits
    (``-inf`` where no action is feasible); pass u replaces digit u of the
    action by digit u of the rate vector, subtracting ``penalty[u]`` and
    carrying the best and second-best value and the best grid point from
    rung 0 over the rungs of digit u, in place.  Each pass reads digit u as
    the first axis and moves the new rate digit behind the earlier ones.
    Every path, like every q element, is within (n + 2) M 2^-53 of its exact
    sum (n + 1 subtractions, or additions, plus the n products together),
    where M bounds |gain| + |bottleneck| + sum_u |penalty[u]|.  So a best
    more than 8 (n + 2) M 2^-52, four times the most that rounding can
    close, above the second is the unique maximizer of q too, and hence the
    first; a tie, a near tie and any NaN or infinity (the comparison is
    false) fall back to the exact scan.
    """
    m, n = tables.variation.shape[0], len(tables.penalty)
    grid = m ** n
    step = min(len(gain), _separable_rows(tables))
    bound = 8 * (n + 2) * 2.0 ** -52 * (np.abs(gain).max() + tables.error_scale)
    for lo in range(0, len(gain), step):
        rows = min(step, len(gain) - lo)
        laid = np.vstack([gain[lo:lo + rows].T - tables.bottleneck[:, None],
                          np.full(rows, -np.inf)])  # last row: no action
        now = [laid[tables.grid_action], np.full((grid, rows), -np.inf),
               np.indices((grid, rows), np.min_scalar_type(grid))[0]]
        best, second, point = out = [np.empty((m, grid // m, rows), x.dtype) for x in now]
        (cand, low), more = np.empty((2, m, grid // m, rows)), np.empty(best.shape, dtype=bool)
        for u in range(n):
            # axes: action (out: rate) digit u; action digits after u, rate digits before u; rows
            best_in, second_in, point_in = (x.reshape(m, -1, rows) for x in now)
            pen = tables.penalty[u, :, :, None, None]  # over digit u of the rate vector
            np.subtract(best_in[0], pen[:, 0], out=best)
            np.subtract(second_in[0], pen[:, 0], out=second)
            np.copyto(point, point_in[0])
            for a in range(1, m):
                np.subtract(best_in[a], pen[:, a], out=cand)
                np.subtract(second_in[a], pen[:, a], out=low)
                np.maximum(second, low, out=second)
                np.minimum(best, cand, out=low)
                np.maximum(second, low, out=second)
                np.greater(cand, best, out=more)
                np.copyto(point, point_in[a], where=more)
                np.maximum(best, cand, out=best)
            for x, y in zip(now, out):  # the new rate digit goes behind the earlier ones
                np.copyto(x.reshape(-1, m, rows), y.transpose(1, 0, 2))
        choice[:, lo:lo + rows] = tables.grid_action[now[2]]
        gap = np.subtract(now[0] - now[1], bound,
                          out=now[1] if margin is None else margin[:, lo:lo + rows])
        _scan_pairs(gain[lo:lo + rows], tables, *np.nonzero(~(gap > 0)), choice[:, lo:lo + rows], gap)


def _best(gain: np.ndarray, tables: _ActionTables, vectors=slice(None),
          work=None) -> tuple[np.ndarray, np.ndarray]:
    """Best value and action for every (rate vector, row of ``gain``), where
    ``gain`` is (rows, actions) of everything in q but the variation
    penalty and the bottleneck charge; both results are (rate vectors, rows),
    taken over the rate vectors indexed by ``vectors`` (all by default).

    q is ``(gain - variation) - bottleneck`` and the first maximizer wins:
    actions are in tie-break order.  Large instances (``_use_separable``)
    take the certified transform of ``_separable`` over the full grid; the
    rest scan q by blocks of rate vectors in one buffer and read the values
    off q; the other paths take them by q's own expression.  ``work``, a dict
    a solve or plan keeps, holds the variation, the size rule's verdict and
    the scan's block views, rebuilt for other tables, vectors or rows.

    ``work["carry"]``, set by a solve once q outgrows one scan block (its
    fixed cost is some 2^14 scanned q elements), certifies pairs instead.  It
    holds the last gain, its scale M = max |gain| + ``error_scale``, the
    choices (narrowest type, updated in place) and ``margin``, a lower bound L
    on each pair's q minus its runner-up's.  Exact q moves by the change D in
    gain, so L falls by at most T = max D - D[a*] at the pair's choice a*, and
    rounding by less than 2^-49 (M + M_last): 2^-53 (M + M_last) times 4
    through q and 6 through T + slack (T is a difference of two gain
    differences), and 4 M_last 2^-53 through L <= 2 M_last.  A pair whose
    L - (T + slack) stays positive, for a slack four times that, keeps its
    choice, the unique maximizer, and carries that L; the rest (ties, near
    ties, NaN, infinities) are rescanned, pair by pair or, where the size rule
    prices that (3 q elements a pair) above it, with the sweep.
    """
    work = {} if work is None else work
    tabs, vecs, shape, variation, blocks = work.get("scan", (None,) * 5)
    if tabs is not tables or vecs is not vectors or shape != gain.shape:
        variation = (tables.reachable_variation if vectors is tables.action_multi
                     else tables.variation_by_action[vectors])
        blocks = None if _use_separable(len(gain), tables, len(variation) * len(gain)) else []
        work["scan"] = tables, vectors, gain.shape, variation, blocks
    carry = work.get("carry")
    scale = None if carry is None else np.abs(gain).max() + tables.error_scale
    margin = (None if carry is None else carry["margin"] if carry
              else np.empty((len(variation), len(gain))))
    if carry:
        with np.errstate(invalid="ignore"):
            change = gain - carry["gain"]  # T + slack for each action, taken at each pair's a*
            lift = np.subtract(change.max(axis=1)[:, None], change, out=change)
            lift += 2.0 ** -47 * (scale + carry["scale"])
            margin -= lift.take(carry["choice"] + np.arange(0, lift.size, lift.shape[1]))
        stale = ~(margin > 0)
        priced = 3 * np.count_nonzero(stale)  # as blocked-scan pairs
    values = None
    if carry and priced < margin.size and not _use_separable(len(gain), tables, priced):
        choice = carry["choice"]
        _scan_pairs(gain, tables, *np.nonzero(stale), choice, margin)
    elif blocks is None:
        choice = np.empty((tables.num_rate_vectors, len(gain)), dtype=np.int64)
        _separable(gain, tables, choice, margin)
        choice = choice[vectors]
    else:
        if not blocks:  # laid out at the first scan
            buf = np.empty((min(max(1, _BLOCK_FLOATS // gain.size), len(variation)),) + gain.shape)
            grid = variation[:, None]  # when one block holds q, laid over its rows
            grid = grid if len(buf) < len(variation) else grid.repeat(len(gain), 1)
            at = np.arange(0, buf.size, gain.shape[1]).reshape(buf.shape[:2])
            for lo in range(0, len(variation), len(buf)):  # the last block may hold fewer rows
                block = slice(lo, lo + len(buf))
                blocks.append((block, grid[block], buf[:len(variation) - lo], at[:len(variation) - lo]))
        values = np.empty((len(variation), len(gain)))
        choice = np.empty(values.shape, dtype=np.int64)
        for block, grid, buf, at in blocks:
            _scan(gain, grid, tables, buf, choice[block], at, values[block],
                  None if margin is None else margin[block])
    if carry is not None:
        choice = choice.astype(np.min_scalar_type(len(tables.action_digits) - 1), copy=False)
        carry.update(gain=gain, margin=margin, choice=choice, scale=scale)
    if values is None:
        values = gain.take(choice + np.arange(0, gain.size, gain.shape[1]))
        values -= variation.take(choice + np.arange(0, variation.size, gain.shape[1])[:, None])
        values -= tables.bottleneck.take(choice)
    return values, choice


def _backup(tables: _ActionTables, v_next, work=None) -> tuple[np.ndarray, np.ndarray]:
    """One backward sweep: epoch-t values and chosen actions from epoch-t+1
    values ``v_next`` (rate vectors, channel vectors; None at the terminal sweep,
    whose gain ``playbuf + 0.0`` has the bits of a zero future); ``work``: see
    ``_best``; it also rotates the gathered values (then gain), future, carried gain.

    Every q element is ``((playbuf + future) - variation) - bottleneck``,
    its future term from one stacked matmul per sweep, which numpy runs as
    one gemv per action (never one gemm, which rounds differently), so values
    and choices match ``tests/support.full_tensor_backup`` bit for bit.
    """
    work = {} if work is None else work
    gathered, future, spare = work.get("sweep") or np.empty(
        (3, len(tables.action_multi), tables.num_chan_vectors, 1))
    work["sweep"] = future, spare, gathered
    if v_next is not None:
        v_next.take(tables.action_multi, axis=0, out=gathered[..., 0], mode="clip")
    future = 0.0 if v_next is None else np.matmul(tables.joint_channel, gathered, out=future)[..., 0].T
    gain = np.add(tables.expected_playbuf_by_action, future, out=gathered.reshape(gathered.shape[1::-1]))
    return _best(gain, tables, work=work)


def backward_induction(
    ladder: QualityLadder,
    channel: ChannelModel,
    params: ProfitParams,
    consts: DerivedConstants,
    horizon: int,
) -> PolicyTable:
    """Solve the finite-horizon adaptation problem by backward induction.

    Terminal values are zero.  Each sweep computes epoch t from epoch t+1
    only, in buffers reused across the solve.  Ties between equally valued
    actions resolve to the smallest aggregate rate and then the
    lexicographically smallest rate vector, so solves are fully deterministic.

    A sweep's working memory is bounded; the returned table grows with
    states x horizon, so one over ``DEFAULT_MEMORY_CAP_BYTES`` is refused up
    front, as are ``consts`` other than ``derive_constants(ladder, channel, params)``.
    """
    if horizon < 1:
        raise ConfigurationError(f"horizon must be at least 1, got {horizon}")
    if consts != profit_terms(ladder, channel, params)[0]:
        raise ConfigurationError(f"{consts} differs from derive_constants(ladder, channel, params)")
    n, m, k = params.num_users, len(ladder), channel.num_states
    size = state_space_size(ladder, channel, n)
    num_actions = len(feasible_actions(n, ladder, params))
    id_dtype = np.min_scalar_type(num_actions - 1)
    # float64 values, an action id per (epoch, state), the int64 digit list
    needed = size * (8 * (horizon + 1) + id_dtype.itemsize * horizon) + 8 * n * num_actions
    require_memory(f"a policy table of {size} states x horizon {horizon}", needed,
                   "use fewer users or a shorter horizon")

    tables = _action_tables(ladder, channel, params)
    values = np.zeros((horizon + 1, size))
    ids = np.empty((horizon, size), dtype=id_dtype)

    # Split per user and interleaved, a sweep's block is in canonical order (r0, c0, r1, ...).
    split, axes = (m,) * n + (k,) * n, [a for u in range(n) for a in (u, n + u)]
    work = {"carry": {}} if size * len(tables.action_digits) > _BLOCK_FLOATS else {}
    v_next = None
    for t in range(horizon - 1, -1, -1):
        v_next, choice = _backup(tables, v_next, work)
        np.copyto(values[t].reshape((m, k) * n), v_next.reshape(split).transpose(axes))
        np.copyto(ids[t].reshape((m, k) * n), choice.reshape(split).transpose(axes), casting="unsafe")

    return PolicyTable(
        ladder_size=len(ladder),
        num_channel_states=channel.num_states,
        num_users=n,
        horizon=horizon,
        fingerprint=scenario_fingerprint(ladder, channel, params, horizon),
        values=values,
        action_digits=tables.action_digits,
        action_ids=ids,
    )


def check_indices(kind: str, indices: np.ndarray, count: int) -> None:
    """Refuse ``kind`` indices outside [0, count); numpy would wrap -1."""
    bad = indices[(indices < 0) | (indices >= count)]
    if bad.size:
        raise ValueError(f"{kind} index {bad[0]} outside [0, {count})")


def solve_ideal(channel_paths: np.ndarray, initial_rate_indices: Sequence[int],
                ladder: QualityLadder, channel: ChannelModel, params: ProfitParams) -> np.ndarray:
    """Plan every run against its fully known bandwidth path; returns the
    planned rate indices, shaped (runs, horizon, users).

    ``channel_paths`` holds each run's realized channel state indices with
    shape (runs, horizon + 1, users), as ``sim.channel_paths`` returns
    them; entry t is the state during segment t, so the decision at epoch
    t is scored against entry t + 1.  With the path fixed the only state
    left is the rate vector, and one backward recursion over (runs, rate
    vectors a plan can reach) is exact.  Each epoch reduces q for every run
    at once with the solver's own ``_best``, so ties break the same way.
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

    tables = _action_tables(ladder, channel, params)
    num_actions = len(tables.action_digits)
    id_dtype = np.min_scalar_type(num_actions - 1)
    needed = horizon * num_actions * runs * id_dtype.itemsize
    require_memory(f"the hindsight plan for {runs} runs x horizon {horizon}", needed,
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
        v_next, plan[t, :len(vectors)] = _best(gain, tables, vectors, work)
    chosen = np.empty((runs, horizon), dtype=np.int64)
    at = np.zeros(runs, dtype=np.int64)
    for t in range(horizon):
        chosen[:, t] = at = plan[t, at, np.arange(runs)]
    return tables.action_digits[chosen]


# ----------------------------- policy table -----------------------------


@dataclass(frozen=True, eq=False)
class PolicyTable:
    """Optimal decisions and values for every (epoch, state), stored densely
    in canonical state order; each decision is an id into the digit list."""

    ladder_size: int
    num_channel_states: int
    num_users: int
    horizon: int
    fingerprint: str  # scenario_fingerprint of the solver's inputs
    values: np.ndarray  # float64 (horizon + 1, states); terminal row is all zero
    action_digits: np.ndarray  # int64 (actions, users) rate indices, tie order
    action_ids: np.ndarray  # unsigned (horizon, states), rows of action_digits

    def __post_init__(self) -> None:
        size, digits, ids = self.num_states, self.action_digits, self.action_ids
        got = ", ".join(f"{a.dtype} {a.shape}" for a in (self.values, digits, ids))
        if ids.dtype.kind != "u" or got != (f"float64 {(self.horizon + 1, size)}, int64 "
                                            f"{digits.shape[:1] + (self.num_users,)}, "
                                            f"{ids.dtype} {(self.horizon, size)}"):
            raise ValueError(f"arrays hold {got}; expected float64 {(self.horizon + 1, size)}, "
                             f"int64 (actions, {self.num_users}), unsigned {(self.horizon, size)}")
        if np.any((digits < 0) | (digits >= self.ladder_size)):
            raise ValueError(f"action digits outside the {self.ladder_size}-rung ladder")
        if ids.max() >= len(digits):
            raise ValueError(f"action id {ids.max()} names none of the {len(digits)} actions")
        for array in (self.values, digits, ids):  # a frozen table's arrays are read-only
            array.setflags(write=False)

    @property
    def action_rate_indices(self) -> np.ndarray:
        """(horizon, states, users) rate indices, gathered on each access."""
        return self.action_digits[self.action_ids]

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

    def value(self, t: int, rate_indices, channel_indices):
        """Epoch-t values for (..., users) arrays of states."""
        if not 0 <= t <= self.horizon:
            raise ValueError(f"epoch {t} outside [0, {self.horizon}]")
        return self.values[t, self.state_index(rate_indices, channel_indices)]

    def actions(self, t: int, rate_indices, channel_indices) -> np.ndarray:
        """Epoch-t rate indices for (..., users) arrays of states."""
        if not 0 <= t < self.horizon:
            raise ValueError(f"decision epoch {t} outside [0, {self.horizon})")
        ids = self.action_ids[t, self.state_index(rate_indices, channel_indices)]
        return self.action_digits[ids]

    def walk(self, rate_indices, channel_indices, stationary: bool = False) -> np.ndarray:
        """Rate indices (runs, horizon, users) of sessions that start from the
        (runs, users) ``rate_indices`` and observe the (runs, horizon, users)
        ``channel_indices``: ``actions`` stepped epoch by epoch (row 0 at
        every epoch when ``stationary``).  A state index splits into a rate
        part and a channel part; the channel parts are computed for every
        epoch at once and each action's rate part once, so an epoch is one
        add and two gathers."""
        rates, chans = np.asarray(rate_indices), np.asarray(channel_indices)
        horizon = chans.shape[1]
        if not stationary and horizon > self.horizon:
            raise ValueError(f"decision epoch {self.horizon} outside [0, {self.horizon})")
        chan_part = self.state_index(np.zeros_like(chans), chans).T
        rate_part = self.state_index(self.action_digits, np.zeros_like(self.action_digits))
        at = self.state_index(rates, np.zeros_like(rates))
        ids = np.empty(chan_part.shape, self.action_ids.dtype)
        for t in range(horizon):
            ids[t] = self.action_ids[0 if stationary else t][at + chan_part[t]]
            at = rate_part[ids[t]]
        return self.action_digits[ids.T]

    def save(self, path: str) -> None:
        """Write three ASCII header lines (format tag with format and ordering
        versions, dimensions, ``fingerprint=``), then ``values``,
        ``action_digits`` and ``action_ids`` as three ``np.save`` blocks.  Raw
        float bits make load(save(x)) exact and a re-save byte-identical.
        Tables from older versions are refused and must be solved again.
        """
        header = (
            f"{POLICY_TABLE_FORMAT} {POLICY_TABLE_VERSIONS}\n"
            f"ladder_size={self.ladder_size} "
            f"channel_states={self.num_channel_states} "
            f"users={self.num_users} horizon={self.horizon}\n"
            f"fingerprint={self.fingerprint}\n"
        )
        tmp = f"{path}.tmp"
        with open(tmp, "wb") as fh:
            fh.write(header.encode("ascii"))
            for array in (self.values, self.action_digits, self.action_ids):
                np.save(fh, array, allow_pickle=False)
        os.replace(tmp, path)

    @classmethod
    def load(cls, path: str) -> "PolicyTable":
        """Read a table written by ``save``, mapping ``values`` read-only
        (``run`` reads only the ids, so it never pages them in).  Anything
        else, truncated or extended files included, raises ``ConfigurationError``."""
        with _table_file(path) as (fh, fields):
            # save's .npy blocks, read as such (np.load also opens zip archives); the
            # values are mapped once the blocks behind them are read, never past EOF
            if np.lib.format.read_magic(fh) != (1, 0):  # np.save's version for these headers
                raise ValueError("values block is not in .npy format 1.0")
            shape, fortran, dtype = np.lib.format.read_array_header_1_0(fh)
            if dtype.hasobject or min(shape, default=0) < 0:
                raise ValueError(f"values block holds {dtype} {shape}")
            offset = fh.tell()
            fh.seek(offset + math.prod(shape) * dtype.itemsize)
            digits, ids = (np.lib.format.read_array(fh, allow_pickle=False) for _ in range(2))
            if fh.read(1):
                raise ValueError("trailing bytes after the action ids")
            dims = (int(fields[key]) for key in ("ladder_size", "channel_states", "users", "horizon"))
            return cls(*dims, fields["fingerprint"],
                       np.memmap(fh, dtype, "r", offset, shape, "F" if fortran else "C"), digits, ids)


def table_fingerprint(path: str) -> str:
    """The fingerprint a table file at ``path`` was saved with, read from
    its header alone; a malformed header raises ``ConfigurationError``."""
    with _table_file(path) as (_, fields):
        return fields["fingerprint"]


@contextmanager
def _table_file(path: str):
    """The open table file at ``path`` and its header's fields, read past
    the header.  A malformed file, found in the header or in the body, raises
    ``ConfigurationError``."""
    try:
        with open(path, "rb") as fh:
            header = fh.readline().decode("ascii").split()
            if header[:1] != [POLICY_TABLE_FORMAT]:
                raise ValueError("not a policy table file")
            if header[1:] != POLICY_TABLE_VERSIONS.split():
                raise ValueError(f"unsupported version {' '.join(header[1:])!r}, "
                                 f"need {POLICY_TABLE_VERSIONS!r}")
            yield fh, dict(item.split("=") for line in (fh.readline(), fh.readline())
                           for item in line.decode("ascii").split())
            return
    except KeyError as missing:
        why = f"header missing {missing}"
    except (ValueError, EOFError) as err:  # UnicodeDecodeError is a ValueError
        why = str(err)
    raise ConfigurationError(f"{path}: {why}; solve it again with mdpstream solve")
