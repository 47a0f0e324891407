"""Session simulator: channel sampling, bandwidth sharing, buffers, traces."""

import math
import tracemalloc
from dataclasses import replace
from itertools import product

import numpy as np
import pytest

from mdpstream.economics import derive_constants
from mdpstream.mdp import backward_induction
from mdpstream import mdp, sim
from mdpstream.model import ConfigurationError
from mdpstream.policies import IdealOracle, Myopic, Proposed
from mdpstream.sim import (
    USER_COLUMNS,
    ScenarioConfig,
    channel_paths,
    effective_bandwidth,
    run_session,
    sample_channel_path,
    simulate,
    step_buffer,
    user_rngs,
)
from support import make_channel, make_ladder, make_params, reference_myopic_rates, stage_value


# ------------------------------ configuration ------------------------------


def test_initial_buffer_seconds(fair_config):
    assert fair_config.initial_buffer_frames == 80
    assert fair_config.initial_buffer_seconds == pytest.approx(80 / 24)


def test_config_rejects_bad_values(fair_config):
    for field, value in [
        ("horizon", 0),
        ("num_runs", 0),
        ("segment_seconds", 0.0),
        ("frames_per_second", 0.0),
        ("num_users", 0),
        ("initial_rate_index", 7),
        ("sharing_mode", "roulette"),
    ]:
        with pytest.raises(ConfigurationError):
            replace(fair_config, **{field: value})


def test_config_rejects_priority_count_mismatch(fair_config):
    three = replace(
        fair_config.profit, user_priorities=(0.4, 0.3, 0.3)
    )
    with pytest.raises(ConfigurationError):
        replace(fair_config, profit=three)


def test_config_override_helpers(fair_config):
    assert fair_config.with_rate_cap(400.0).profit.total_rate_cap_kbps == 400.0
    assert fair_config.with_horizon(50).horizon == 50
    # originals untouched
    assert fair_config.profit.total_rate_cap_kbps == 850.0
    assert fair_config.horizon == 200


# ------------------------------ channel paths ------------------------------


def test_user_rngs_reproducible_and_distinct():
    a = user_rngs(101, 0, 2)
    b = user_rngs(101, 0, 2)
    assert a[0].random() == b[0].random()
    assert a[1].random() == b[1].random()
    fresh = user_rngs(101, 0, 2)
    assert fresh[0].random() != fresh[1].random()


def test_sample_path_identity_matrix_is_constant():
    channel = make_channel(np.eye(4))
    path = sample_channel_path(channel, 2, 50, np.random.default_rng(0))
    assert path.shape == (51,)
    assert set(path) == {2}


def test_sample_path_rejects_bad_start():
    with pytest.raises(ValueError):
        sample_channel_path(make_channel(), 4, 10, np.random.default_rng(0))


def test_sample_path_with_zero_steps_is_the_start():
    path = sample_channel_path(make_channel(), 2, 0, np.random.default_rng(0))
    assert (path.dtype, path.tolist()) == (np.int64, [2])
    with pytest.raises(ValueError, match="num_steps must be nonnegative, got -1"):
        sample_channel_path(make_channel(), 2, -1, np.random.default_rng(0))


def test_sample_path_refuses_a_non_integer_start():
    with pytest.raises(TypeError):
        sample_channel_path(make_channel(), 2.0, 10, np.random.default_rng(0))
    path = sample_channel_path(make_channel(), np.int64(2), 10, np.random.default_rng(0))
    assert path.tolist() == sample_channel_path(make_channel(), 2, 10,
                                                np.random.default_rng(0)).tolist()


def test_sample_path_empirical_frequencies_match_matrix():
    # the rarest state holds ~7% of the mass, so give every row enough visits
    channel = make_channel()
    path = sample_channel_path(channel, 0, 400_000, np.random.default_rng(123))
    counts = np.zeros((4, 4))
    for a, b in zip(path, path[1:]):
        counts[a, b] += 1
    empirical = counts / counts.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(empirical, channel.transition, atol=0.01)


# ---------------------------- bandwidth sharing ----------------------------


def test_effective_bandwidth_no_contention():
    assert tuple(effective_bandwidth(
        (364.63, 364.63), (896.0, 896.0), 850.0, "proportional"
    )) == (896.0, 896.0)


def test_effective_bandwidth_proportional_split():
    got = effective_bandwidth((493.02, 493.02), (5000.0, 5000.0), 850.0, "proportional")
    assert tuple(got) == (pytest.approx(425.0), pytest.approx(425.0))


def test_effective_bandwidth_share_capped_by_raw():
    # user 0's own link is the binding constraint, not its bottleneck share
    got = effective_bandwidth((493.02, 493.02), (200.0, 5000.0), 600.0, "proportional")
    assert got[0] == 200.0
    assert got[1] == pytest.approx(300.0)


def test_effective_bandwidth_demand_counts_deliverable_traffic():
    # a user whose link cannot carry its request adds only the link to demand,
    # so the aggregate stays under the cap and nobody is squeezed
    got = effective_bandwidth((493.02, 493.02), (200.0, 5000.0), 850.0, "proportional")
    assert tuple(got) == (200.0, 5000.0)


def test_effective_bandwidth_weighted_by_rate():
    got = effective_bandwidth((493.02, 183.53), (5000.0, 5000.0), 500.0, "proportional")
    total = 493.02 + 183.53
    assert got[0] == pytest.approx(500.0 * 493.02 / total)
    assert got[1] == pytest.approx(500.0 * 183.53 / total)


def test_effective_bandwidth_none_mode_passes_raw():
    assert tuple(effective_bandwidth(
        (493.02, 493.02), (300.0, 310.0), 850.0, "none"
    )) == (300.0, 310.0)


def test_effective_bandwidth_one_bottleneck_per_row():
    # rows are independent bottlenecks: the same rows as one-row calls
    rates = np.array([[364.63, 364.63], [493.02, 493.02], [493.02, 183.53]])
    raw = np.array([[896.0, 896.0], [5000.0, 5000.0], [5000.0, 5000.0]])
    got = effective_bandwidth(rates, raw, 850.0, "proportional")
    for row in range(3):
        one = effective_bandwidth(rates[row], raw[row], 850.0, "proportional")
        assert got[row].tobytes() == one.tobytes()


def test_effective_bandwidth_rejects_bad_input():
    with pytest.raises(ConfigurationError):
        effective_bandwidth((493.02,), (300.0,), 850.0, "roulette")
    with pytest.raises(ValueError):
        effective_bandwidth((493.02, 493.02), (300.0,), 850.0, "proportional")


# ------------------------------- buffer model ------------------------------


def test_step_buffer_examples():
    assert step_buffer(3.33, 1.0, 0.5) == (pytest.approx(3.83), 0.0)
    assert step_buffer(0.0, 1.0, 2.0) == (1.0, 2.0)
    assert step_buffer(2.0, 1.0, 0.0) == (3.0, 0.0)


def test_step_buffer_partial_stall():
    new, stall = step_buffer(0.4, 1.0, 1.0)
    assert stall == pytest.approx(0.6)
    assert new == 1.0


def test_step_buffer_elementwise():
    new, stall = step_buffer(np.array([[3.33, 0.0], [2.0, 0.4]]), 1.0,
                             np.array([[0.5, 2.0], [0.0, 1.0]]))
    assert new.tolist() == [[pytest.approx(3.83), 1.0], [3.0, 1.0]]
    assert stall.tolist() == [[0.0, 2.0], [0.0, pytest.approx(0.6)]]
    with pytest.raises(ValueError):
        step_buffer(np.array([1.0, -0.5]), 1.0, np.array([0.5, 0.5]))
    with pytest.raises(ValueError):
        step_buffer(1.0, 0.0, 0.5)


# -------------------------------- sessions ---------------------------------


def test_sessions_are_deterministic(fair_config, fair_table):
    a = run_session(fair_config, Proposed(fair_table), 3)
    b = run_session(fair_config, Proposed(fair_table), 3)
    assert a == b


def test_channel_paths_do_not_depend_on_policy(fair_config, fair_table):
    proposed = run_session(fair_config, Proposed(fair_table), 0)
    myopic = run_session(fair_config, Myopic(fair_config.ladder), 0)
    assert [r.channel_state for r in proposed] == [r.channel_state for r in myopic]


def test_users_see_different_realizations(fair_config, fair_table):
    trace = run_session(fair_config, Proposed(fair_table), 0)
    per_user = list(zip(*[r.channel_state for r in trace]))
    assert per_user[0] != per_user[1]


def test_myopic_starts_at_lowest_rate(fair_config):
    trace = run_session(fair_config, Myopic(fair_config.ladder), 0)
    assert trace[0].rate_kbps == (95.11, 95.11)


def test_proposed_respects_cap_every_epoch(fair_config, fair_table):
    for run in range(3):
        for rec in run_session(fair_config, Proposed(fair_table), run):
            assert sum(rec.rate_kbps) <= 850.0 + 1e-9


def test_infinite_price_is_never_billed(fair_config, fair_table):
    # the cap is enforced by rationing; no arm is charged for overload
    for policy in (Proposed(fair_table), Myopic(fair_config.ladder)):
        for rec in run_session(fair_config, policy, 0):
            assert rec.bottleneck_cost == 0.0
            assert math.isfinite(rec.stage_profit)


def test_myopic_overload_gets_rationed(fair_config):
    trace = run_session(fair_config, Myopic(fair_config.ladder), 0)
    squeezed = [
        rec for rec in trace
        if sum(rec.rate_kbps) > 850.0 and any(
            eff < raw
            for eff, raw in zip(
                rec.effective_bw_kbps,
                (fair_config.channel.state_bandwidth[s] for s in rec.channel_state),
            )
        )
    ]
    assert squeezed  # contention must actually bite somewhere
    rec = squeezed[0]
    total = sum(rec.rate_kbps)
    for u in range(2):
        raw = fair_config.channel.state_bandwidth[rec.channel_state[u]]
        share = 850.0 * rec.rate_kbps[u] / total
        assert rec.effective_bw_kbps[u] == pytest.approx(min(raw, share))


@pytest.mark.parametrize("scenario,cap,sharing,price", [
    ("fair", 600.0, "proportional", math.inf), ("fair", 850.0, "proportional", math.inf),
    ("diff", 600.0, "proportional", math.inf), ("diff", 850.0, "proportional", math.inf),
    ("fair", 850.0, "none", math.inf), ("fair", 850.0, "proportional", 0.0005),
], ids=["fair-600", "fair-850", "diff-600", "diff-850", "no_sharing", "finite_price"])
def test_myopic_rates_match_reference(request, scenario, cap, sharing, price):
    # the last-sample client: lowest rung first, then each user's highest
    # rung at or below what its previous segment was delivered
    config = request.getfixturevalue(f"{scenario}_config")
    profit = replace(config.profit, total_rate_cap_kbps=cap, congestion_price=price)
    config = replace(config, profit=profit, sharing_mode=sharing)
    paths = channel_paths(config, range(config.num_runs))
    trace = simulate(config, Myopic(config.ladder), paths)
    want = reference_myopic_rates(paths, config.ladder, config.channel, cap, sharing)
    assert np.array_equal(trace.rate_kbps, want)


def test_accounting_identity(fair_config, fair_table):
    trace = run_session(fair_config, Proposed(fair_table), 1)
    for rec in trace:
        recomputed = sum(
            0.5 * (rec.income[u] - rec.buffering_cost[u] - rec.variation_cost[u])
            for u in range(2)
        ) - rec.bottleneck_cost
        assert rec.stage_profit == pytest.approx(recomputed, abs=1e-9)


@pytest.mark.parametrize("scenario", ["fair", "diff"])
def test_every_stage_profit_is_the_model_reward(request, scenario):
    # a finite price and no sharing: every arm is billed, never rationed, so
    # each epoch's stage profit is exactly the reward for (previous rates,
    # chosen rates, channel state), variation and charge included
    base = request.getfixturevalue(f"{scenario}_config")
    config = replace(base, horizon=20, sharing_mode="none",
                     profit=replace(base.profit, congestion_price=0.001))
    consts = config.derived_constants()
    table = backward_induction(config.ladder, config.channel, config.profit, consts, 20)
    paths = channel_paths(config, range(15))
    index_of = {rate: i for i, rate in enumerate(config.ladder.rates)}
    for policy in (Proposed(table), Myopic(config.ladder), IdealOracle()):
        trace = simulate(config, policy, paths)
        for run in range(15):
            prev = (config.initial_rate_index,) * config.num_users
            for t in range(20):
                chosen = tuple(index_of[r] for r in trace.rate_kbps[run, t].tolist())
                want = stage_value(config.ladder, config.channel, config.profit, consts, prev,
                                   chosen, tuple(trace.channel_state[run, t].tolist()))
                assert trace.stage_profit[run, t] == pytest.approx(want, rel=0, abs=1e-12)
                prev = chosen
        if isinstance(policy, Myopic):  # the terms that must not go unseen
            assert np.count_nonzero(trace.variation_cost) > 0
            assert np.count_nonzero(trace.bottleneck_cost) > 0


def test_fluid_conservation(fair_config):
    trace = run_session(fair_config, Myopic(fair_config.ladder), 2)
    for u in range(2):
        level = fair_config.initial_buffer_seconds
        for rec in trace:
            want_stall = max(0.0, rec.download_s[u] - level)
            want_level = max(0.0, level - rec.download_s[u]) + 1.0
            assert rec.rebuffer_s[u] == pytest.approx(want_stall, abs=1e-12)
            assert rec.buffer_s[u] == pytest.approx(want_level, abs=1e-12)
            level = rec.buffer_s[u]
        downloads = sum(r.download_s[u] for r in trace)
        stalls = sum(r.rebuffer_s[u] for r in trace)
        # time in = time out: content credited equals content played plus residue
        assert downloads - stalls + level == pytest.approx(
            200.0 + fair_config.initial_buffer_seconds, abs=1e-6
        )


def test_degenerate_channel_settles_on_largest_feasible_pair():
    # one ample channel state: the solved policy should climb to the best
    # feasible pair immediately and hold it with no stalls
    ladder = make_ladder()
    channel = make_channel([[1.0]], (900.0,), ())
    params = make_params()
    config = ScenarioConfig(
        ladder=ladder,
        channel=channel,
        profit=params,
        num_users=2,
        horizon=200,
        segment_seconds=1.0,
        frames_per_second=24.0,
        initial_buffer_frames=80,
        initial_rate_index=0,
        num_runs=1,
        rng_seed=7,
        sharing_mode="proportional",
        name="degenerate",
    )
    consts = derive_constants(ladder, channel, params)
    table = backward_induction(ladder, channel, params, consts, 200)
    trace = run_session(config, Proposed(table), 0)
    for rec in trace:
        assert rec.rate_kbps == (364.63, 364.63)
        assert rec.rebuffer_s == (0.0, 0.0)


def test_ideal_session_runs(fair_config):
    trace = run_session(fair_config, IdealOracle(), 0)
    assert len(trace) == 200
    assert all(sum(r.rate_kbps) <= 850.0 + 1e-9 for r in trace)


# --------------------------- batched equivalence ---------------------------

BRANCHES = {
    "fair": {},
    "finite_price": {"congestion_price": 0.0005},
    "no_sharing": {"sharing_mode": "none"},
}


@pytest.mark.parametrize("arm", ["proposed", "stationary", "myopic", "ideal"])
@pytest.mark.parametrize("branch", sorted(BRANCHES))
def test_single_run_equals_its_batched_run(fair_config, branch, arm):
    # a run must not depend on which runs step with it: run_session(r)
    # equals run r of a 3-run batch bit for bit, signed zeros included
    changes = dict(BRANCHES[branch])
    profit = replace(fair_config.profit,
                     congestion_price=changes.pop("congestion_price", math.inf))
    config = replace(fair_config, profit=profit, horizon=30, **changes)
    table = backward_induction(config.ladder, config.channel, profit,
                               config.derived_constants(), config.horizon)
    policy = {
        "proposed": Proposed(table),
        "stationary": Proposed(table, stationary=True),
        "myopic": Myopic(config.ladder),
        "ideal": IdealOracle(),
    }[arm]
    batch = simulate(config, policy, channel_paths(config, range(3)))
    for run in range(3):
        single = run_session(config, policy, run)
        assert batch.records(run) == single
        for name in USER_COLUMNS + ("bottleneck_cost", "stage_profit"):
            column = getattr(batch, name)[run]
            got = np.array([getattr(rec, name) for rec in single], dtype=column.dtype)
            assert got.tobytes() == column.tobytes(), (name, run)
    if branch == "finite_price" and arm == "myopic":
        assert np.any(batch.bottleneck_cost > 0)  # the billing branch is taken


def test_channel_paths_match_scalar_draws(fair_config):
    # reference: one generator per (seed, run, user), one scalar draw for
    # the stationary start and one per step, each step a searchsorted
    config = fair_config.with_horizon(40)
    paths = channel_paths(config, [4, 1])
    stationary_cum = np.cumsum(config.channel.stationary_distribution())
    cumulative = np.cumsum(config.channel.transition, axis=1)
    for row, run in enumerate([4, 1]):
        for user, rng in enumerate(user_rngs(config.rng_seed, run, 2)):
            state = min(int(np.searchsorted(stationary_cum, rng.random(), side="right")), 3)
            path = [state]
            for _ in range(40):
                draw = rng.random()
                state = min(int(np.searchsorted(cumulative[state], draw, side="right")), 3)
                path.append(state)
            assert paths[row, :, user].tolist() == path


def test_cell_memory_guard_counts_the_cell_arrays(fair_config, monkeypatch):
    # simulate's float64 raw bandwidths are counted at the size of the int64
    # paths; channel_state is a view of the paths, every other trace column
    # an array of its own
    config = fair_config.with_horizon(30)
    paths = channel_paths(config, range(3))
    trace = simulate(config, Myopic(ladder=config.ladder), paths)
    assert np.shares_memory(trace.channel_state, paths)
    held = 2 * paths.nbytes + sum(column.nbytes for name, column in vars(trace).items()
                                  if name != "channel_state")
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", held)
    assert np.array_equal(channel_paths(config, range(3)), paths)
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", held - 1)
    with pytest.raises(ConfigurationError, match=(
            f"3 runs x horizon 30 x 2 users needs {held} bytes, over the memory cap of "
            f"{held - 1} bytes; use fewer runs or a shorter horizon")):
        channel_paths(config, range(3))


def test_channel_paths_hold_little_more_than_the_paths(fair_config):
    # 15 runs x 2 users x horizon 20,000: 4.8 MB of int64 paths; a walk that
    # tabulates every state's successor first peaks near 92 MB
    config = fair_config.with_horizon(20_000)
    tracemalloc.start()
    try:
        paths = channel_paths(config, range(15))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * paths.nbytes


def test_oversized_ideal_plan_refused_before_allocating(fair_config, monkeypatch):
    # 4 users at cap 1700: 625 rate vectors and 385 actions, so a uint16 plan
    # of 400 x 625 x 3 ids is 1.5 MB, while the cell arrays that
    # channel_paths counts stay under the 1 MiB cap
    four = replace(fair_config.profit, user_priorities=(0.25,) * 4, total_rate_cap_kbps=1700.0)
    config = replace(fair_config, profit=four, num_users=4, horizon=400, num_runs=3)
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", 1 << 20)
    paths = channel_paths(config, range(3))
    # build the cached 4-user tables first, so the peak is what this cell allocates
    mdp._action_tables(config.ladder, config.channel, four, config.derived_constants(), 4)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=(
                "the hindsight plan for 3 runs x horizon 400 needs 1500000 bytes, over the "
                f"memory cap of {1 << 20} bytes; use fewer runs or a shorter horizon")):
            simulate(config, IdealOracle(), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_500_000


@pytest.mark.parametrize("bad", [-1, 4])
def test_simulate_refuses_channel_index_out_of_range(fair_config, fair_table, bad):
    # numpy would wrap -1 to the last state and reject 4 without naming it
    config = fair_config.with_horizon(5)
    paths = channel_paths(config, range(2))
    paths[1, 3, 0] = bad
    for policy in (Proposed(fair_table), Myopic(config.ladder), IdealOracle()):
        with pytest.raises(ValueError, match=rf"channel index {bad} outside \[0, 4\)"):
            simulate(config, policy, paths)


def test_buffer_column_comes_from_step_buffer(fair_config, fair_table, monkeypatch):
    # the benchmark's smoke test corrupts step_buffer to credit 1% too much
    # content; every arm's buffer levels must show it, so the buffer
    # recurrence cannot bypass step_buffer unnoticed
    config = fair_config.with_horizon(30)
    paths = channel_paths(config, range(3))
    arms = (Proposed(fair_table), Myopic(config.ladder), IdealOracle())
    plain = [simulate(config, policy, paths).buffer_s for policy in arms]
    original = sim.step_buffer
    monkeypatch.setattr(sim, "step_buffer", lambda buffer_s, segment_s, download_s:
                        original(buffer_s, 1.01 * segment_s, download_s))
    for policy, before in zip(arms, plain):
        assert np.all(simulate(config, policy, paths).buffer_s > before), policy


def _z_against_solved_value(config, table, trace):
    """z-score of the mean session profit against the table's value at the
    start state, weighted over stationary channels."""
    totals = trace.stage_profit.sum(axis=1)
    pi = config.channel.stationary_distribution()
    start = (config.initial_rate_index,) * config.num_users
    expected = sum(
        np.prod(pi[list(chans)]) * table.values[0, table.state_index(start, chans)]
        for chans in product(range(config.channel.num_states), repeat=config.num_users)
    )
    z = (totals.mean() - expected) / (totals.std(ddof=1) / math.sqrt(len(totals)))
    return z, f"mean {totals.mean():.4f} vs solved {expected:.4f}, z = {z:.2f}"


@pytest.mark.parametrize("scenario", ["fair", "diff"])
def test_proposed_profit_matches_solved_value(request, scenario):
    # under the hard cap the proposed arm is never rationed, so each stage
    # profit is an MDP reward and the mean session profit estimates the
    # table's value at the start state, weighted over stationary channels
    config = request.getfixturevalue(f"{scenario}_config")
    table = request.getfixturevalue(f"{scenario}_table")
    trace = simulate(config, Proposed(table), channel_paths(config, range(400)))
    z, detail = _z_against_solved_value(config, table, trace)
    assert abs(z) < 3.0, detail


@pytest.mark.parametrize("scenario", ["fair", "diff"])
def test_priced_proposed_profit_matches_solved_value(request, scenario):
    # a finite price lets the arm exceed the cap and pay for it; without
    # sharing nothing is rationed, so each stage profit, charge included,
    # is still an MDP reward
    base = request.getfixturevalue(f"{scenario}_config")
    config = replace(base, profit=replace(base.profit, congestion_price=0.001),
                     sharing_mode=sim.SHARING_NONE)
    table = backward_induction(config.ladder, config.channel, config.profit,
                               config.derived_constants(), config.horizon)
    trace = simulate(config, Proposed(table), channel_paths(config, range(400)))
    assert (trace.bottleneck_cost > 0.0).mean() > 0.25  # the charge is exercised
    z, detail = _z_against_solved_value(config, table, trace)
    assert abs(z) < 3.0, detail
