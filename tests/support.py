"""Shared builders and reference computations for the test suite.

The reference solvers here deliberately avoid the library's vectorized
dynamic-programming machinery: they walk plain Python structures so that
agreement with the production solver actually means something.
"""

import csv
from itertools import product
from math import inf, isclose, prod

import numpy as np

from mdpstream.economics import (
    ProfitParams,
    derive_constants,
    playback_income,
    buffering_cost,
    smoothness_cost,
    bottleneck_cost,
)
from mdpstream.mdp import _ActionTables, feasible_actions, solve_ideal
from mdpstream.metrics import SessionSummary
from mdpstream.model import ChannelModel, QualityLadder, left_sum
from mdpstream.policies import IdealOracle, Proposed
from mdpstream.sim import Trace, effective_bandwidth, step_buffer


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
    rng.uniform(50.0, 950.0, size=num_channel_states - 1)  # drawn to keep the later draws
    # the solver never reads the boundaries; midpoints keep each
    # representative in its own region, as ChannelModel requires
    bounds = tuple((np.array(bws[:-1]) + bws[1:]) / 2)
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
    """Every joint state as a (rate indices, channel indices) pair of tuples,
    in canonical order: user 0 varies slowest, and each user's (rate index,
    channel index) pair is ordered rate-major."""
    per_user = product(range(len(ladder)), range(channel.num_states))
    return [(tuple(r for r, _ in combo), tuple(c for _, c in combo))
            for combo in product(per_user, repeat=num_users)]


def feasible_tuples(ladder, params):
    """``mdp.feasible_actions`` as a list of rate-index tuples."""
    return [tuple(a) for a in feasible_actions(params.num_users, ladder, params).tolist()]


# --------------------- reference profit and oracles ---------------------


def stage_value(ladder, channel, params, consts, prev_rate_idx, action, next_chan_idx):
    """Stage profit recomputed from the scalar economics pieces; ``action``
    holds each user's rate index.  ``-inf`` where an infinite price
    forbids the action."""
    total = 0.0
    for u, lam in enumerate(params.user_priorities):
        rate = ladder.rates[action[u]]
        prev = ladder.rates[prev_rate_idx[u]]
        bw = channel.state_bandwidth[next_chan_idx[u]]
        total += lam * (
            playback_income(rate, bw, params, consts)
            - buffering_cost(rate, bw, params, consts)
            - smoothness_cost(prev, rate, params, consts)
        )
    return total - bottleneck_cost([ladder.rates[i] for i in action], params)


def build_stage_table(ladder, channel, params, consts):
    """stage[prev_rates][action_index][next_channels] for the small oracles.

    Pure reward precomputation; the value recursions below stay exhaustive.
    """
    actions = feasible_tuples(ladder, params)
    n = params.num_users
    k = channel.num_states
    m = len(ladder)
    table = {}
    for prev in product(range(m), repeat=n):
        for ai, action in enumerate(actions):
            for chans in product(range(k), repeat=n):
                val = stage_value(ladder, channel, params, consts, prev, action, chans)
                assert val > -inf  # feasible_actions filtered already
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
                action, to_chans, actions, stage,
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
                new_rates = actions[ai]
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
    feasible = set(feasible_tuples(ladder, params))
    dist = {tuple(chans): 1.0}
    cur_rates = tuple(rates)
    total = 0.0
    for action in plan:
        action = tuple(action)
        assert action in feasible
        nxt = {}
        for cur_chans, p in dist.items():
            for to_chans, q in successor_probs(channel, cur_chans):
                total += p * q * stage_value(
                    ladder, channel, params, consts, cur_rates, action, to_chans
                )
                nxt[to_chans] = nxt.get(to_chans, 0.0) + p * q
        dist = nxt
        cur_rates = action
    assert isclose(sum(dist.values()), 1.0, abs_tol=1e-9)
    return total


# --------------------- reference solver sweep ---------------------


def full_tensor_q(tables, v_next):
    """The full (actions x rate vectors x channel vectors) q tensor of one
    backward sweep, one action at a time."""
    num_actions = len(tables.action_digits)
    q = np.empty((num_actions, tables.num_rate_vectors, tables.num_chan_vectors))
    for pos in range(num_actions):
        future = tables.joint_channel @ v_next[tables.action_multi[pos]]
        q[pos] = (
            (tables.expected_playbuf_by_action[:, pos] + future)[None, :]
            - tables.variation_by_action[:, pos][:, None]
            - tables.bottleneck[pos]
        )
    return q


def full_tensor_backup(tables, v_next):
    """One backward sweep through the full q tensor: the reference the
    blocked ``mdp._backup`` must match bit for bit.  Returns the values, the
    first-maximizer choices and the number of states whose maximum is
    reached by more than one action."""
    q = full_tensor_q(tables, v_next)
    values = q.max(axis=0)
    ties = int(np.count_nonzero((q == values).sum(axis=0) > 1))
    return values, q.argmax(axis=0), ties


def per_action_future(tables, v_next):
    """The future term of one sweep, (channel vectors, actions), as one
    ``joint_channel @ v_next[i]`` matvec per action stacked by a Python
    list: the bits ``mdp._backup``'s one stacked matmul must reproduce."""
    return np.stack([tables.joint_channel @ v_next[i] for i in tables.action_multi], axis=1)


# --------------------- reference hindsight planner ---------------------


def reference_solve_ideal(paths, initial_rate_indices, ladder, channel, params):
    """One run's hindsight plan, (horizon, users), from its channel path
    shaped (users, horizon + 1): a backward recursion over the rate vectors
    alone, one epoch at a time.  The batched ``mdp.solve_ideal`` must
    match it bit for bit on every run."""
    paths = np.asarray(paths, dtype=np.int64)
    n = params.num_users
    horizon = paths.shape[1] - 1
    tables = _ActionTables(ladder, channel, params)
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


# --------------------- reference myopic client ---------------------


def reference_delivered(rates, raw, cap, sharing_mode):
    """One segment's per-user delivered bandwidth in scalar Python: the
    link bandwidths ``raw``, unless the users pull more than ``cap`` in
    total under proportional sharing; then each gets the smaller of its
    link and its rate's share of the cap."""
    demand = 0.0
    for rate, bw in zip(rates, raw):
        demand += min(rate, bw)
    if sharing_mode == "none" or demand <= cap:
        return list(raw)
    total = 0.0
    for rate in rates:
        total += rate
    return [min(cap * rate / total, bw) for rate, bw in zip(rates, raw)]


def reference_myopic_rates(paths, ladder, channel, cap, sharing_mode):
    """Rates (Kbps) the last-sample client requests on each run of
    ``paths`` (runs, horizon + 1, users), as a (runs, horizon, users)
    array: the lowest rung at epoch 0, then per user the highest rung at
    or below the bandwidth its previous segment was delivered (the
    lowest when none is)."""
    out = []
    for path in np.asarray(paths).tolist():
        chosen = [[ladder.rates[0]] * len(path[0])]
        for chans in path[1:-1]:  # the channel during the previous segment
            raw = [channel.state_bandwidth[c] for c in chans]
            delivered = reference_delivered(chosen[-1], raw, cap, sharing_mode)
            chosen.append([max((r for r in ladder.rates if r <= bw), default=ladder.rates[0])
                           for bw in delivered])
        out.append(chosen)
    return np.array(out)


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


# --------------------- reference simulator and summaries ---------------------


def reference_simulate(config, policy, paths):
    """One policy arm's ``Trace`` from its own decisions and its own scoring,
    stepped per epoch: the proposed arm through ``PolicyTable.actions``,
    then the buffers one ``step_buffer`` per epoch.  The stacked scoring
    pass and the proposed arm's index walk must match it bit for bit."""
    consts = derive_constants(config.ladder, config.channel, config.profit)
    params, ladder, channel = config.profit, config.ladder, config.channel
    runs, horizon, n = len(paths), config.horizon, config.num_users

    rate_of = np.array(ladder.rates)
    raw = np.array(channel.state_bandwidth)[paths[:, 1:]]
    cap = params.total_rate_cap_kbps
    if isinstance(policy, IdealOracle):
        chosen = solve_ideal(paths, (config.initial_rate_index,) * n,
                             ladder, channel, params)
    else:
        chosen = np.empty((runs, horizon, n), dtype=np.int64)
        prev = np.full((runs, n), config.initial_rate_index)
        for t in range(horizon):
            if isinstance(policy, Proposed):
                chosen[:, t] = policy.table.actions(0 if policy.stationary else t, prev,
                                                    paths[:, t])
            else:
                chosen[:, t] = policy.decide(None if t == 0 else effective_bandwidth(
                    rate_of[prev], raw[:, t - 1], cap, config.sharing_mode))
            prev = chosen[:, t]

    rates = rate_of[chosen]
    effective = effective_bandwidth(rates, raw, cap, config.sharing_mode)
    download = rates * config.segment_seconds / effective
    short = rates > effective
    income_of = np.array([playback_income(r, r, params, consts) for r in ladder.rates])
    income = np.where(short, 0.0, income_of[chosen])
    buffering = np.zeros((runs, horizon, n))
    pairs = np.stack([rates[short], effective[short]], axis=1)
    keys, which = np.unique(pairs.view(np.int64), axis=0, return_inverse=True)
    costs = [buffering_cost(r, e, params, consts) for r, e in keys.view(float).tolist()]
    buffering[short] = np.array(costs)[which.reshape(-1)]
    prev = np.concatenate([np.full((runs, 1, n), config.initial_rate_index), chosen[:, :-1]],
                          axis=1)
    variation = np.array([[smoothness_cost(p, q, params, consts) for q in ladder.rates]
                          for p in ladder.rates])
    var_cost = variation[prev, chosen]
    charge = np.zeros((runs, horizon))
    if np.isfinite(params.congestion_price):
        vectors, which = np.unique(rates.reshape(-1, n), axis=0, return_inverse=True)
        costs = [bottleneck_cost(v, params) for v in vectors.tolist()]
        charge = np.array(costs)[which.reshape(-1)].reshape(runs, horizon)
    weighted = np.array(params.user_priorities) * ((income - buffering) - var_cost)
    profit = left_sum(weighted.T).T - charge

    buffers, stalls = np.empty_like(download), np.empty_like(download)
    for t in range(horizon):
        level = buffers[:, t - 1] if t else config.initial_buffer_seconds
        buffers[:, t], stalls[:, t] = step_buffer(level, config.segment_seconds, download[:, t])
    return Trace(rates, paths[:, 1:], effective, download, stalls, buffers, income, buffering,
                 var_cost, charge, profit)


def reference_summarize(records, config, arm="", run_index=0):
    """One session's ``SessionSummary`` from its list of records, each sum
    taken left to right over Python floats, one user at a time.  The
    batched ``metrics.summarize_runs`` must equal it on every field."""
    rate_rows = [rec.rate_kbps for rec in records]
    stall_rows = [rec.rebuffer_s for rec in records]
    profits = [rec.stage_profit for rec in records]
    horizon = len(profits)
    nominal = horizon * config.segment_seconds
    threshold = config.profit.variation_threshold_kbps
    avg_bitrate, ratios, events, frames, variations = [], [], [], [], []
    for u in range(config.num_users):
        rates = [row[u] for row in rate_rows]
        stalls = [row[u] for row in stall_rows]
        total_stall = left_sum(stalls)
        wall = nominal + total_stall
        avg_bitrate.append(left_sum(rates) / horizon)
        ratios.append(total_stall / wall)
        events.append(sum(1 for s in stalls if s > 0) / wall)
        frames.append(total_stall * config.frames_per_second / wall)
        variations.append(sum(1 for a, b in zip(rates, rates[1:]) if abs(b - a) >= threshold))
    return SessionSummary(arm, run_index, tuple(avg_bitrate), tuple(ratios), tuple(events),
                          tuple(frames), tuple(variations), left_sum(profits))
