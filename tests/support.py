"""Shared builders and reference computations for the test suite.

The reference solvers here deliberately avoid the library's vectorized
dynamic-programming machinery: they walk plain Python structures so that
agreement with the production solver actually means something.
"""

import csv
from itertools import product
from math import isclose, prod

import numpy as np

from mdpstream.economics import (
    INFEASIBLE,
    ProfitParams,
    derive_constants,
    playback_income,
    buffering_cost,
    smoothness_cost,
    bottleneck_cost,
)
from mdpstream.mdp import _ActionTables, feasible_actions
from mdpstream.model import ChannelModel, QualityLadder, SystemState


def make_ladder(rates=(95.11, 183.53, 364.63, 493.02, 798.09)):
    return QualityLadder(tuple(rates))


def make_channel(matrix=None, bandwidths=None, boundaries=None):
    if matrix is None:
        matrix = [
            [0.5, 0.5, 0.0, 0.0],
            [0.2, 0.6, 0.2, 0.0],
            [0.0, 0.1, 0.7, 0.2],
            [0.0, 0.0, 0.2, 0.8],
        ]
    matrix = np.asarray(matrix, dtype=float)
    k = matrix.shape[0]
    if bandwidths is None:
        bandwidths = (95.0, 256.0, 512.0, 896.0)[:k]
    if boundaries is None:
        boundaries = (256.0, 512.0, 896.0)[: k - 1]
    return ChannelModel(matrix, tuple(bandwidths), tuple(boundaries))


def make_params(
    playback=0.3,
    buffering=0.5,
    smoothness=0.2,
    threshold=350.0,
    price=float("inf"),
    cap=850.0,
    priorities=(0.5, 0.5),
    penalty="symmetric",
):
    return ProfitParams(
        playback_weight=playback,
        buffering_weight=buffering,
        smoothness_weight=smoothness,
        variation_threshold_kbps=threshold,
        congestion_price=price,
        total_rate_cap_kbps=cap,
        user_priorities=tuple(priorities),
        variation_penalty=penalty,
    )


def random_instance(rng, num_rates, num_channel_states, num_users, finite_price):
    """One seeded small model for solver/oracle comparisons."""
    rates = tuple(np.sort(rng.uniform(50.0, 900.0, size=num_rates)))
    bws = tuple(np.sort(rng.uniform(40.0, 1000.0, size=num_channel_states)))
    bounds = tuple(np.sort(rng.uniform(50.0, 950.0, size=num_channel_states - 1)))
    raw = rng.uniform(0.05, 1.0, size=(num_channel_states, num_channel_states))
    matrix = raw / raw.sum(axis=1, keepdims=True)
    ladder = QualityLadder(rates)
    channel = ChannelModel(matrix, bws, bounds)
    weights = rng.dirichlet(np.ones(3))
    # keep the cap above the all-minimum action so a feasible set always exists
    cap = num_users * rates[0] + rng.uniform(0.0, num_users * rates[-1])
    params = ProfitParams(
        playback_weight=float(weights[0]),
        buffering_weight=float(weights[1]),
        smoothness_weight=float(weights[2]),
        variation_threshold_kbps=float(rng.uniform(10.0, 800.0)),
        congestion_price=float(rng.uniform(0.0001, 0.01)) if finite_price else float("inf"),
        total_rate_cap_kbps=float(cap),
        user_priorities=tuple(rng.dirichlet(np.ones(num_users))),
    )
    return ladder, channel, params, derive_constants(ladder, channel, params)


def all_states(ladder, channel, num_users):
    """Every joint state in canonical order: user 0 varies slowest, and each
    user's (rate index, channel index) pair is ordered rate-major."""
    per_user = product(range(len(ladder)), range(channel.num_states))
    return [SystemState(tuple(r for r, _ in combo), tuple(c for _, c in combo))
            for combo in product(per_user, repeat=num_users)]


# --------------------- reference profit and oracles ---------------------


def stage_value(ladder, channel, params, consts, prev_rate_idx, action, next_chan_idx):
    """Stage profit recomputed from the scalar economics pieces."""
    total = 0.0
    for u, lam in enumerate(params.user_priorities):
        rate = ladder.rates[action.rate_indices[u]]
        prev = ladder.rates[prev_rate_idx[u]]
        bw = channel.bandwidth_of(next_chan_idx[u])
        total += lam * (
            playback_income(rate, bw, params, consts)
            - buffering_cost(rate, bw, params, consts)
            - smoothness_cost(prev, rate, params, consts)
        )
    charge = bottleneck_cost(action.rates_kbps(ladder), params)
    if charge is INFEASIBLE:
        return INFEASIBLE
    return total - charge


def build_stage_table(ladder, channel, params, consts):
    """stage[prev_rates][action_index][next_channels] for the small oracles.

    Pure reward precomputation; the value recursions below stay exhaustive.
    """
    actions = feasible_actions(params.num_users, ladder, params)
    n = params.num_users
    k = channel.num_states
    m = len(ladder)
    table = {}
    for prev in product(range(m), repeat=n):
        for ai, action in enumerate(actions):
            for chans in product(range(k), repeat=n):
                val = stage_value(ladder, channel, params, consts, prev, action, chans)
                assert val is not INFEASIBLE  # feasible_actions filtered already
                table[prev, ai, chans] = val
    return actions, table


def successor_probs(channel, from_chans):
    """Positive-probability joint channel successors with their products."""
    k = channel.num_states
    out = []
    for to_chans in product(range(k), repeat=len(from_chans)):
        p = prod(channel.transition[f][t] for f, t in zip(from_chans, to_chans))
        if p > 0.0:
            out.append((to_chans, p))
    return out


def expectimax_value(ladder, channel, params, consts, horizon, rates, chans,
                     actions=None, stage=None):
    """Optimal expected profit by unmemoized recursion over every action
    choice and every positive-probability channel successor."""
    if actions is None:
        actions, stage = build_stage_table(ladder, channel, params, consts)
    if horizon == 0:
        return 0.0
    best = None
    for ai, action in enumerate(actions):
        total = 0.0
        for to_chans, p in successor_probs(channel, chans):
            value = stage[rates, ai, to_chans] + expectimax_value(
                ladder, channel, params, consts, horizon - 1,
                action.rate_indices, to_chans, actions, stage,
            )
            total += p * value
        if best is None or total > best:
            best = total
    return best


def enumerate_policy_value(ladder, channel, params, consts, horizon, rates, chans):
    """Literal maximum over every deterministic time-indexed policy.

    A policy assigns an action to each (epoch, state); each one is scored
    by exact expectation over all channel paths.  Exponential in
    states x horizon, so keep the instances tiny.
    """
    actions, stage = build_stage_table(ladder, channel, params, consts)
    n = params.num_users
    k = channel.num_states
    m = len(ladder)
    states = list(product(product(range(m), repeat=n), product(range(k), repeat=n)))
    index = {s: i for i, s in enumerate(states)}
    num_states = len(states)
    succ = {c: successor_probs(channel, c) for c in set(s[1] for s in states)}

    best = None
    for assignment in product(range(len(actions)), repeat=num_states * horizon):
        dist = {(tuple(rates), tuple(chans)): 1.0}
        total = 0.0
        for t in range(horizon):
            nxt = {}
            for (cur_rates, cur_chans), p in dist.items():
                ai = assignment[t * num_states + index[cur_rates, cur_chans]]
                new_rates = actions[ai].rate_indices
                for to_chans, q in succ[cur_chans]:
                    total += p * q * stage[cur_rates, ai, to_chans]
                    key = (new_rates, to_chans)
                    nxt[key] = nxt.get(key, 0.0) + p * q
            dist = nxt
        if best is None or total > best:
            best = total
    return best


def fixed_plan_value(ladder, channel, params, consts, plan, rates, chans):
    """Exact expected profit of a fixed action sequence (no adaptivity)."""
    actions_by_idx = {a.rate_indices: a for a in
                      feasible_actions(params.num_users, ladder, params)}
    dist = {tuple(chans): 1.0}
    cur_rates = tuple(rates)
    total = 0.0
    for action in plan:
        action = actions_by_idx[tuple(action.rate_indices)]
        nxt = {}
        for cur_chans, p in dist.items():
            for to_chans, q in successor_probs(channel, cur_chans):
                total += p * q * stage_value(
                    ladder, channel, params, consts, cur_rates, action, to_chans
                )
                nxt[to_chans] = nxt.get(to_chans, 0.0) + p * q
        dist = nxt
        cur_rates = action.rate_indices
    assert isclose(sum(dist.values()), 1.0, abs_tol=1e-9)
    return total


# --------------------- reference solver sweep ---------------------


def full_tensor_backup(tables, v_next):
    """One backward sweep through the full (actions x rate vectors x channel
    vectors) q tensor: the reference the blocked ``mdp._backup`` must match
    bit for bit.  Returns the values, the first-maximizer choices and the
    number of states whose maximum is reached by more than one action."""
    num_actions = len(tables.actions)
    q = np.empty((num_actions, tables.num_rate_vectors, tables.num_chan_vectors))
    for pos in range(num_actions):
        future = tables.joint_channel @ v_next[tables.action_multi[pos]]
        q[pos] = (
            (tables.expected_playbuf_by_action[:, pos] + future)[None, :]
            - tables.variation_by_action[:, pos][:, None]
            - tables.bottleneck[pos]
        )
    values = q.max(axis=0)
    ties = int(np.count_nonzero((q == values).sum(axis=0) > 1))
    return values, q.argmax(axis=0), ties


# --------------------- reference hindsight planner ---------------------


def reference_solve_ideal(paths, initial_rate_indices, ladder, channel, params, consts):
    """One run's hindsight plan, (horizon, users), from its channel path
    shaped (users, horizon + 1): a backward recursion over the rate vectors
    alone, one epoch at a time.  The batched ``policies.solve_ideal`` must
    match it bit for bit on every run."""
    paths = np.asarray(paths, dtype=np.int64)
    n = params.num_users
    horizon = paths.shape[1] - 1
    tables = _ActionTables(ladder, channel, params, consts, n)
    plan = np.empty((horizon, tables.num_rate_vectors), dtype=np.int64)
    v_next = np.zeros(tables.num_rate_vectors)
    prio = np.array(params.user_priorities)
    for t in range(horizon - 1, -1, -1):
        pay = tables.playbuf[tables.action_digits, paths[:, t + 1]] @ prio
        base = pay - tables.bottleneck + v_next[tables.action_multi]
        q = base[None, :] - tables.variation_by_action  # (rate vectors, actions)
        plan[t] = q.argmax(axis=1)
        v_next = q.max(axis=1)

    multi = 0
    for d in initial_rate_indices:
        multi = multi * len(ladder) + int(d)
    chosen = np.empty(horizon, dtype=np.int64)
    for t in range(horizon):
        chosen[t] = plan[t, multi]
        multi = tables.action_multi[chosen[t]]
    return tables.action_digits[chosen]


# --------------------- reference trace writer ---------------------


def reference_write_trace(path, trace, num_users):
    """Trace CSV written cell by cell: ``format(x, ".12g")`` for floats,
    ``str`` for integers, rows through ``csv.writer``.  The CLI's writer,
    which formats each distinct value of a cell once and gathers the texts,
    must match it byte for byte."""
    def fmt(x):
        return format(float(x), ".12g")

    header = ["epoch"]
    for u in range(1, num_users + 1):
        header += [
            f"u{u}_rate_kbps", f"u{u}_channel_state", f"u{u}_effective_bw_kbps",
            f"u{u}_download_s", f"u{u}_rebuffer_s", f"u{u}_buffer_s",
            f"u{u}_income", f"u{u}_buffering_cost", f"u{u}_variation_cost",
        ]
    header += ["bottleneck_cost", "stage_profit"]
    rows = []
    for rec in trace:
        row = [str(rec.epoch)]
        for u in range(num_users):
            row += [
                fmt(rec.rate_kbps[u]), str(rec.channel_state[u]),
                fmt(rec.effective_bw_kbps[u]), fmt(rec.download_s[u]),
                fmt(rec.rebuffer_s[u]), fmt(rec.buffer_s[u]),
                fmt(rec.income[u]), fmt(rec.buffering_cost[u]),
                fmt(rec.variation_cost[u]),
            ]
        row += [fmt(rec.bottleneck_cost), fmt(rec.stage_profit)]
        rows.append(row)
    with open(path, "w", encoding="ascii", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
