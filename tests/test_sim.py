"""Session simulator: channel sampling, bandwidth sharing, buffers, traces."""

import math
import re
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
    decide,
    effective_bandwidth,
    run_session,
    sample_channel_path,
    score,
    simulate,
    step_buffer,
    user_rngs,
)
from support import (make_channel, make_ladder, make_params, reference_myopic_rates,
                     reference_simulate, stage_value)


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


def _where_step_buffer(buffer_s, segment_s, download_s):
    """step_buffer's arithmetic as np.where expressions, the reference for its bits."""
    rebuffer = np.where(download_s > buffer_s, download_s - buffer_s, 0.0)
    remaining = np.where(buffer_s > download_s, buffer_s - download_s, 0.0)
    return remaining + segment_s, rebuffer


def _where_share(rates, raw, cap):
    """The proportional share as np.where expressions, the reference for its bits."""
    demand = np.where(rates < raw, rates, raw).sum(axis=-1)  # two users: one addition
    share = cap * rates / rates.sum(axis=-1)[..., None]
    squeezed = np.where(share < raw, share, raw)
    return np.where((demand <= cap)[..., None], raw, squeezed)


def test_per_epoch_steps_keep_the_bits_at_their_boundaries():
    # buffer equal to the download (the stall is +0.0, never -0.0), a zero or
    # -0.0 download, a NaN buffer (no stall), an infinite download; each
    # result bit for bit as the np.where expressions give it, for the whole
    # array and for each element alone (numpy's SIMD and scalar loops may
    # treat the sign of a zero differently)
    buffer = np.array([2.5, 0.0, 0.0, 1.25, 0.0, np.nan, 3.0, 1.0])
    download = np.array([2.5, 0.0, -0.0, 0.0, 0.75, 0.5, np.inf, 1.5])
    for cut in [slice(None), *(slice(i, i + 1) for i in range(len(buffer)))]:
        got = step_buffer(buffer[cut], 1.0, download[cut])
        for mine, theirs in zip(got, _where_step_buffer(buffer[cut], 1.0, download[cut])):
            assert mine.view(np.int64).tolist() == theirs.view(np.int64).tolist(), cut
    level, stall = step_buffer(buffer, 1.0, download)
    assert stall[:3].view(np.int64).tolist() == [0, 0, 0]  # +0.0
    assert level[:3].tolist() == [1.0] * 3 and level[3] == 2.25
    for bad_buffer, segment, bad_download in [(-0.5, 1.0, 0.5), (0.5, 1.0, -1e-300),
                                              (0.5, 0.0, 0.5), (0.5, -1.0, 0.5),
                                              (np.array([np.nan, 1.0]), 1.0, np.array([-1.0, 0.0])),
                                              (np.array([-1.0, 1.0]), 1.0, np.array([np.nan, 0.0]))]:
        with pytest.raises(ValueError, match="nonnegative"):
            step_buffer(bad_buffer, segment, bad_download)
    # the proportional share: demand exactly at the cap (nobody is squeezed),
    # just over it, a rate over its own link (its demand is the link), a rate
    # equal to its link, and the links as the binding limit under a squeeze
    rates = np.array([[425.0, 425.0], [425.0, 425.5], [493.02, 183.53], [200.0, 183.53],
                      [493.02, 493.02]])
    raw = np.array([[5000.0, 5000.0], [5000.0, 5000.0], [200.0, 5000.0], [200.0, 5000.0],
                    [200.0, 5000.0]])
    for cap in (850.0, 383.53, 600.0):
        got = effective_bandwidth(rates, raw, cap, "proportional")
        assert got.view(np.int64).tolist() == _where_share(rates, raw, cap).view(np.int64).tolist()
    got = effective_bandwidth(rates, raw, 850.0, "proportional")
    assert got[0].tolist() == [5000.0, 5000.0] and got[1].sum() == pytest.approx(850.0)
    assert got[2].tolist() == [200.0, 5000.0]  # demand 383.53 fits under the cap
    # the client rule at its edges: nothing delivered, below, at and above the ladder
    rule = Myopic(make_ladder())
    estimates = [np.nan, -np.inf, 0.0, 95.11, 95.10, 10_000.0, np.inf]
    assert rule.decide(estimates).tolist() == [0, 0, 0, 0, 0, 4, 4]


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


def _reference_case(request, case):
    """(config, stationary) of one branch the per-arm reference covers."""
    scenario, cap, changes = STACKED_CASES[case]
    config = request.getfixturevalue(f"{scenario}_config").with_rate_cap(cap)
    changes = dict(changes)
    stationary = changes.pop("stationary", False)
    profit = replace(config.profit, congestion_price=changes.pop("congestion_price", math.inf))
    if "num_users" in changes:
        profit = replace(profit, user_priorities=(1 / changes["num_users"],) * changes["num_users"])
    return replace(config, profit=profit, **changes), stationary


STACKED_CASES = {
    "fair-600": ("fair", 600.0, {}),
    "fair-850": ("fair", 850.0, {}),
    "diff-600": ("diff", 600.0, {}),
    "diff-850": ("diff", 850.0, {}),
    "3-users": ("fair", 1275.0, {"num_users": 3, "horizon": 20}),
    "finite-price": ("fair", 850.0, {"congestion_price": 0.0005}),
    "no-sharing": ("diff", 600.0, {"sharing_mode": "none"}),
    "stationary": ("fair", 600.0, {"stationary": True}),
}


@pytest.mark.parametrize("case", sorted(STACKED_CASES))
def test_stacked_pass_and_walk_match_the_per_arm_reference(request, case):
    # every arm simulated on its own, the proposed arm stepping
    # PolicyTable.actions per epoch: each Trace column of the three arms
    # stacked into one scoring pass, and of simulate, has the same bytes
    config, stationary = _reference_case(request, case)
    table = backward_induction(config.ladder, config.channel, config.profit,
                               config.derived_constants(), config.horizon)
    arms = (Proposed(table, stationary=stationary), Myopic(config.ladder), IdealOracle())
    runs = 4
    paths = channel_paths(config, range(runs), arms=len(arms))
    stacked = score(config, np.concatenate([decide(config, arm, paths) for arm in arms]),
                    np.concatenate([paths] * len(arms)))
    for i, arm in enumerate(arms):
        expected = reference_simulate(config, arm, paths)
        for got in (stacked.select(slice(i * runs, (i + 1) * runs)), simulate(config, arm, paths)):
            for name, column in vars(expected).items():
                assert getattr(got, name).dtype == column.dtype, (name, arm)
                assert getattr(got, name).tobytes() == column.tobytes(), (name, arm)
    if "congestion_price" in STACKED_CASES[case][2]:
        assert np.any(stacked.bottleneck_cost > 0)
    if config.sharing_mode == sim.SHARING_PROPORTIONAL:
        assert np.any(stacked.effective_bw_kbps < np.array(config.channel.state_bandwidth)[
            np.concatenate([paths] * len(arms))[:, 1:]])  # the cap rations someone
    assert np.any(stacked.buffering_cost > 0)


@pytest.mark.parametrize("stationary", [False, True])
@pytest.mark.parametrize("users", [2, 3])
def test_table_walk_matches_stepping_actions(fair_config, stationary, users):
    profit = replace(fair_config.profit, user_priorities=(1 / users,) * users,
                     total_rate_cap_kbps=425.0 * users)
    config = replace(fair_config, profit=profit, num_users=users, horizon=12)
    table = backward_induction(config.ladder, config.channel, profit,
                               config.derived_constants(), config.horizon)
    chans = channel_paths(config, range(6))[:, :-1]
    start = np.random.default_rng(3).integers(0, len(config.ladder), size=(6, users))
    walked = table.walk(start, chans, stationary)
    prev = start
    for t in range(config.horizon):
        prev = table.actions(0 if stationary else t, prev, chans[:, t])
        assert np.array_equal(walked[:, t], prev), t
    assert walked.dtype == np.int64 and walked.shape == (6, 12, users)


def test_table_walk_refuses_what_actions_refuses(fair_config, fair_table):
    chans = channel_paths(fair_config.with_horizon(201), range(2))[:, :-1]
    start = np.zeros((2, 2), dtype=np.int64)
    with pytest.raises(ValueError, match=r"decision epoch 200 outside \[0, 200\)"):
        fair_table.walk(start, chans)
    assert fair_table.walk(start, chans, stationary=True).shape == (2, 201, 2)
    chans[1, 7, 0] = 4
    with pytest.raises(ValueError, match="state out of range"):
        fair_table.walk(start, chans[:, :10])
    with pytest.raises(ValueError, match="table solved for 2 users"):
        fair_table.walk(start[:, :1], chans[:, :10, :1])


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
    # one arm: the paths drawn and their stacked copy, the int64 decisions
    # (as large as rate_kbps), every trace column but channel_state (a view
    # of the paths), eight (runs, users) arrays of one buffer step, and
    # 64 KiB for array headers and cost lists
    config = fair_config.with_horizon(30)
    paths = channel_paths(config, range(3))
    trace = simulate(config, Myopic(ladder=config.ladder), paths)
    assert np.shares_memory(trace.channel_state, paths)
    held = (2 * paths.nbytes + trace.rate_kbps.nbytes
            + sum(column.nbytes for name, column in vars(trace).items() if name != "channel_state")
            + 8 * trace.rate_kbps[:, 0].nbytes + (1 << 16))
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", held)
    assert np.array_equal(channel_paths(config, range(3)), paths)
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", held - 1)
    with pytest.raises(ConfigurationError, match=(
            f"3 runs x horizon 30 x 2 users needs {held} bytes, over the memory cap of "
            f"{held - 1} bytes; use fewer runs or a shorter horizon")):
        channel_paths(config, range(3))


def _counted_bytes(config, runs, arms, monkeypatch):
    """The bytes ``channel_paths`` counts for ``arms`` arms on ``runs``
    runs, read from its refusal under a cap of 0."""
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", 0)
    with pytest.raises(ConfigurationError, match=r"needs (\d+) bytes") as refusal:
        channel_paths(config, range(runs), arms=arms)
    monkeypatch.undo()
    return int(re.search(r"needs (\d+) bytes", str(refusal.value)).group(1))


def test_scoring_pass_peaks_within_its_count(fair_config, fair_table, monkeypatch):
    # three arms stacked on 5 runs x horizon 4,000, traced from the draw of
    # the paths to the end of the pass: about 10 MB, all within the count
    # and the count no more than 2% above the peak
    config = replace(fair_config, horizon=4000, num_runs=5,
                     profit=replace(fair_config.profit, congestion_price=0.0005))
    arms = (Proposed(fair_table, stationary=True), Myopic(config.ladder), IdealOracle())
    needed = _counted_bytes(config, 5, len(arms), monkeypatch)
    small = config.with_horizon(5)  # the lazy imports and caches of a first call
    small_paths = channel_paths(small, range(5))
    score(small, np.concatenate([decide(small, arm, small_paths) for arm in arms]),
          np.concatenate([small_paths] * len(arms)))
    tracemalloc.start()
    try:
        paths = channel_paths(config, range(5), arms=len(arms))
        chosen = np.concatenate([decide(config, arm, paths) for arm in arms])
        trace = score(config, chosen, np.concatenate([paths] * len(arms)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.any(trace.bottleneck_cost > 0) and np.any(trace.buffering_cost > 0)
    assert 0.98 * needed <= peak <= needed, (peak, needed)


def test_shorter_horizon_paths_are_a_prefix(fair_config):
    # a horizon sweep draws its paths once, at the longest horizon
    long = channel_paths(fair_config.with_horizon(50), range(4))
    for horizon in (1, 20, 49):
        assert np.array_equal(channel_paths(fair_config.with_horizon(horizon), range(4)),
                              long[:, :horizon + 1])


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
    # 4 users at cap 1700: 385 actions, so a uint16 plan of 500 x 385 x 3
    # ids is 1,155,000 B, while the 618,496 B of cell arrays that
    # channel_paths counts stay under the 1 MiB cap
    four = replace(fair_config.profit, user_priorities=(0.25,) * 4, total_rate_cap_kbps=1700.0)
    config = replace(fair_config, profit=four, num_users=4, horizon=500, num_runs=3)
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", 1 << 20)
    paths = channel_paths(config, range(3))
    # build the cached 4-user tables first, so the peak is what this cell allocates
    mdp._action_tables(config.ladder, config.channel, four)
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError, match=(
                "the hindsight plan for 3 runs x horizon 500 needs 1155000 bytes, over the "
                f"memory cap of {1 << 20} bytes; use fewer runs or a shorter horizon")):
            simulate(config, IdealOracle(), paths)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_155_000


@pytest.mark.parametrize("bad", [-1, 4])
def test_simulate_refuses_channel_index_out_of_range(fair_config, fair_table, bad):
    # numpy would wrap -1 to the last state and reject 4 without naming it
    config = fair_config.with_horizon(5)
    paths = channel_paths(config, range(2))
    paths[1, 3, 0] = bad
    for policy in (Proposed(fair_table), Myopic(config.ladder), IdealOracle()):
        with pytest.raises(ValueError, match=rf"channel index {bad} outside \[0, 4\)"):
            simulate(config, policy, paths)


@pytest.mark.parametrize("bad", [-1, 5])
def test_score_refuses_rate_index_out_of_range(fair_config, bad):
    # numpy would score -1 as the top rung and reject 5 without naming it,
    # under an infinite price and a finite one alike
    for price in (math.inf, 0.01):
        config = replace(fair_config.with_horizon(3),
                         profit=replace(fair_config.profit, congestion_price=price))
        paths = channel_paths(config, range(2))
        chosen = np.zeros((2, 3, 2), dtype=np.int64)
        chosen[1, 2, 0] = bad
        with pytest.raises(ValueError, match=rf"rate index {bad} outside \[0, 5\)"):
            score(config, chosen, paths)


def test_decide_refuses_paths_of_another_shape(fair_config, fair_table):
    # another horizon, another user count, or one run's (horizon + 1, users)
    config = fair_config.with_horizon(5)
    paths = channel_paths(config, range(2))
    for bad in (paths[:, :-1], paths[..., :1], paths[0]):
        for policy in (Proposed(fair_table), Myopic(config.ladder), IdealOracle()):
            with pytest.raises(ValueError, match=re.escape(
                    f"paths shaped {bad.shape}, expected (runs, 6, 2)")):
                decide(config, policy, bad)


def test_decide_refuses_an_unknown_policy(fair_config):
    config = fair_config.with_horizon(3)
    with pytest.raises(TypeError, match="unknown policy 'greedy'"):
        decide(config, "greedy", channel_paths(config, range(2)))


def test_score_refuses_decisions_or_paths_of_another_shape(fair_config):
    # a short horizon, fewer path rows than decision rows, one user too few
    config = fair_config.with_horizon(3)
    paths = channel_paths(config, range(2))
    chosen = np.zeros((2, 3, 2), dtype=np.int64)
    for bad_chosen, bad_paths in [(chosen[:, :2], paths), (chosen, paths[:1]),
                                  (chosen[..., :1], paths)]:
        with pytest.raises(ValueError, match=re.escape(
                f"decisions shaped {bad_chosen.shape} and paths {bad_paths.shape}, expected "
                "(rows, 3, 2) and (rows, 4, 2)")):
            score(config, bad_chosen, bad_paths)


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
