"""Decision policies: table lookup, client throughput rule, hindsight planner."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest

from mdpstream import mdp
from mdpstream.economics import derive_constants
from mdpstream.mdp import backward_induction, solve_ideal
from mdpstream.policies import Myopic
from mdpstream.sim import channel_paths
from support import (
    all_states, feasible_tuples, make_channel, make_ladder, make_params, reference_solve_ideal,
    stage_value,
)


# ------------------------------ myopic policy ------------------------------


def test_myopic_picks_highest_sustainable_rate():
    policy = Myopic(make_ladder())
    assert tuple(policy.decide([520.0, 520.0])) == (3, 3)  # 493.02 fits, 798.09 does not
    assert tuple(policy.decide([900.0, 100.0])) == (4, 0)
    assert tuple(policy.decide([95.11, 10_000.0])) == (0, 4)  # exact rung counts
    # one row per run: every run decides at once
    assert policy.decide([[520.0, 520.0], [900.0, 100.0]]).tolist() == [[3, 3], [4, 0]]


def test_myopic_defaults_to_lowest():
    policy = Myopic(make_ladder())
    assert tuple(policy.decide([None, None])) == (0, 0)  # no sample yet
    assert tuple(policy.decide([50.0, 50.0])) == (0, 0)  # below the ladder
    assert tuple(policy.decide([None, 520.0])) == (0, 3)


def test_myopic_ignores_the_shared_cap():
    policy = Myopic(make_ladder())
    action = policy.decide([5000.0, 5000.0])
    assert sum(make_ladder().rates[i] for i in action) > 850.0


# ----------------------------- proposed policy -----------------------------


def state_arrays(config):
    """Every joint state as (rate indices, channel indices) arrays."""
    states = all_states(config.ladder, config.channel, config.num_users)
    return (states, *(np.array(part) for part in zip(*states)))


def walk_against_actions(table, rates, paths, stationary=False):
    """Assert that the table walk from ``rates`` over ``paths`` steps
    ``actions`` epoch by epoch, at epoch 0 throughout when ``stationary``."""
    got, prev = table.walk(rates, paths, stationary), rates
    for t in range(paths.shape[1]):
        want = table.actions(0 if stationary else t, prev, paths[:, t])
        assert np.array_equal(got[:, t], want), t
        prev = want


def test_proposed_looks_up_table(fair_config, fair_table):
    # every state starts a walk over the whole horizon on random channels
    states, rates, chans = state_arrays(fair_config)
    paths = np.random.default_rng(3).integers(0, 4, (len(states), 200, 2))
    paths[:, 0] = chans
    walk_against_actions(fair_table, rates, paths)
    with pytest.raises(ValueError):
        fair_table.walk(rates, np.zeros((len(states), 201, 2), int))  # past the table's horizon
    with pytest.raises(ValueError):
        fair_table.walk([[5, 0]], [[[0, 0]]])  # rate index outside the ladder
    with pytest.raises(ValueError):
        fair_table.walk([[-1, 0]], [[[0, 0]]])  # would wrap to index -80
    with pytest.raises(ValueError):
        fair_table.walk([[0, 0]], [[[0, -1]]])  # would read another state's row
    with pytest.raises(ValueError):
        fair_table.walk([[0, 0, 0]], [[[0, 0, 0]]])  # three users, two-user table


def test_proposed_stationary_reuses_epoch_zero(fair_config, fair_table):
    # past the table's horizon too
    states, rates, chans = state_arrays(fair_config)
    paths = np.random.default_rng(4).integers(0, 4, (len(states), 500, 2))
    paths[:, 0] = chans
    walk_against_actions(fair_table, rates, paths, stationary=True)


# ----------------------------- hindsight planner ---------------------------


def ideal_score(plan, paths, ladder, channel, params, consts, init):
    """Realized profit of a sequence of rate-index vectors on ``paths``."""
    total, prev = 0.0, tuple(init)
    for t in range(paths.shape[1] - 1):
        action = tuple(int(i) for i in plan[t])
        total += stage_value(
            ladder, channel, params, consts, prev, action,
            tuple(int(s) for s in paths[:, t + 1]),
        )
        prev = action
    return total


def test_ideal_matches_brute_force_on_short_paths():
    ladder, channel = make_ladder(), make_channel()
    params = make_params()
    consts = derive_constants(ladder, channel, params)
    actions = feasible_tuples(ladder, params)
    rng = np.random.default_rng(19)
    for _ in range(3):
        paths = rng.integers(0, 4, size=(2, 4))  # horizon 3
        plan = solve_ideal(paths.T[None], (0, 0), ladder, channel, params)[0]
        got = ideal_score(plan, paths, ladder, channel, params, consts, (0, 0))
        best = max(
            ideal_score(seq, paths, ladder, channel, params, consts, (0, 0))
            for seq in itertools.product(actions, repeat=3)
        )
        assert got == pytest.approx(best, abs=1e-9)


def test_ideal_dominates_solved_policy_per_path(fair_config, fair_table):
    # hindsight beats (or ties) the expectation-optimal policy on any
    # single realization, since it optimizes that very path
    ladder, channel = fair_config.ladder, fair_config.channel
    params = fair_config.profit
    consts = derive_constants(fair_config.ladder, fair_config.channel, params)
    rng = np.random.default_rng(5)
    for _ in range(3):
        horizon = 40
        paths = rng.integers(0, 4, size=(2, horizon + 1))
        plan = solve_ideal(paths.T[None], (0, 0), ladder, channel, params)[0]
        ideal_total = ideal_score(plan, paths, ladder, channel, params, consts, (0, 0))
        prev, total = (0, 0), 0.0
        for t in range(horizon):
            action = tuple(fair_table.actions(t, prev, paths[:, t]).tolist())
            total += stage_value(
                ladder, channel, params, consts, prev, action,
                tuple(int(s) for s in paths[:, t + 1]),
            )
            prev = action
        assert ideal_total >= total - 1e-9


def test_ideal_equals_solved_policy_when_channel_is_deterministic():
    # one channel state: no uncertainty, so foresight buys nothing
    ladder = make_ladder()
    channel = make_channel([[1.0]], (600.0,), ())
    params = make_params()
    consts = derive_constants(ladder, channel, params)
    horizon = 12
    table = backward_induction(ladder, channel, params, consts, horizon)
    paths = np.zeros((2, horizon + 1), dtype=np.int64)
    plan = solve_ideal(paths.T[None], (0, 0), ladder, channel, params)[0]
    ideal_total = ideal_score(plan, paths, ladder, channel, params, consts, (0, 0))
    assert table.value(0, (0, 0), (0, 0)) == pytest.approx(
        ideal_total, abs=1e-9
    )


def test_ideal_plan_bounds():
    ladder, channel = make_ladder(), make_channel()
    params = make_params()
    paths = np.random.default_rng(3).integers(0, 4, size=(3, 8, 2))  # 3 runs, horizon 7
    plan = solve_ideal(paths, (0, 0), ladder, channel, params)
    assert plan.shape == (3, 7, 2) and plan.dtype == np.int64
    feasible = set(feasible_tuples(ladder, params))
    assert {tuple(row) for row in plan.reshape(-1, 2).tolist()} <= feasible
    with pytest.raises(IndexError):
        plan[:, 7]
    with pytest.raises(ValueError):
        solve_ideal(paths[:, :1], (0, 0), ladder, channel, params)  # no epoch
    with pytest.raises(ValueError):
        solve_ideal(paths, (0, 5), ladder, channel, params)  # off the ladder
    with pytest.raises(ValueError):
        solve_ideal(paths, (0,), ladder, channel, params)  # one index, two users
    with pytest.raises(ValueError):
        solve_ideal(paths[0].T, (0, 0), ladder, channel, params)  # one run's (users, horizon + 1)


@pytest.mark.parametrize("bad", [-1, 4])
def test_ideal_refuses_channel_index_out_of_range(bad):
    # numpy would wrap -1 to the last state and reject 4 without naming it
    ladder, channel = make_ladder(), make_channel()
    params = make_params()
    paths = np.zeros((2, 6, 2), dtype=np.int64)
    paths[1, 3, 0] = bad
    with pytest.raises(ValueError, match=rf"channel index {bad} outside \[0, 4\)"):
        solve_ideal(paths, (0, 0), ladder, channel, params)


def planner_instances(fair_config, diff_config):
    """(name, config) pairs the batched planner is checked on."""
    for config in (fair_config, diff_config):
        for cap in (600.0, 850.0):
            yield f"{config.name} cap {cap:g}", config.with_rate_cap(cap)
    three = replace(fair_config.profit, user_priorities=(0.5, 0.3, 0.2), total_rate_cap_kbps=1275.0)
    yield "three users", replace(fair_config, profit=three, num_users=3, horizon=60)
    finite = replace(fair_config.profit, congestion_price=0.0005)
    yield "finite price", replace(fair_config, profit=finite)
    four = replace(fair_config.profit, user_priorities=(0.25,) * 4, total_rate_cap_kbps=1700.0)
    yield "four users", replace(fair_config, profit=four, num_users=4, horizon=6, num_runs=8)


def test_batched_plan_equals_per_run_reference(fair_config, diff_config, monkeypatch):
    # one recursion over all runs must plan every run exactly like a
    # recursion over that run alone, however _best blocks its q
    default, best, rows = mdp._BLOCK_FLOATS, mdp._best, []

    def recording(gain, tables, *reachable):
        rows.append(len(gain))
        return best(gain, tables, *reachable)

    monkeypatch.setattr(mdp, "_best", recording)
    for name, config in planner_instances(fair_config, diff_config):
        params, n = config.profit, config.num_users
        args = ((config.initial_rate_index,) * n, config.ladder, config.channel, params)
        paths = channel_paths(config, range(config.num_runs))
        want = np.array([reference_solve_ideal(path.T, *args) for path in paths])
        if math.isfinite(params.congestion_price):  # the charge must bite somewhere
            assert np.any(np.array(config.ladder.rates)[want].sum(axis=2) > params.total_rate_cap_kbps)
        tables = mdp._action_tables(*args[1:])
        gain_floats = config.num_runs * len(tables.action_digits)
        for block_floats in (default, gain_floats, 3 * gain_floats):
            # default, then 1 and 3 rate vectors per scanned q block.  Every
            # run of the call is one row of q, and the scan is priced at each
            # run's reachable rate vectors (one per action), so the 8-run
            # 4-user plan takes the transform by default; chunks of one row
            # make it too dear
            monkeypatch.setattr(mdp, "_BLOCK_FLOATS", block_floats)
            separable = mdp._use_separable(config.num_runs, tables, gain_floats)
            assert separable == (n == 4 and block_floats == default), (name, block_floats)
            rows.clear()
            assert np.array_equal(solve_ideal(paths, *args), want), (name, block_floats)
            assert rows == [config.num_runs] * config.horizon  # every run in one recursion


def test_plan_reduces_only_reachable_rate_vectors(fair_config, monkeypatch):
    # after epoch 0 a plan stands at a feasible action's rate vector, at
    # epoch 0 at the initial one, so no other (rate vector, run) pair is scanned
    config = fair_config.with_rate_cap(600.0)
    params, n, runs = config.profit, config.num_users, config.num_runs
    scan, pairs = mdp._scan, []

    def recording(gain, variation, tables, q, out, *margin):
        pairs.append(out.size)
        scan(gain, variation, tables, q, out, *margin)

    monkeypatch.setattr(mdp, "_scan", recording)
    args = ((config.initial_rate_index,) * n, config.ladder, config.channel, params)
    num_actions = len(mdp._action_tables(*args[1:]).action_digits)
    assert num_actions < len(config.ladder) ** n
    solve_ideal(channel_paths(config, range(runs)), *args)
    # one scan per epoch, from the last epoch back to epoch 0
    assert pairs == [num_actions * runs] * (config.horizon - 1) + [runs]
