"""Transition model, backward-induction solver, and the policy table."""

import dataclasses
import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpstream import mdp
from mdpstream.economics import bottleneck_cost, derive_constants
from mdpstream.mdp import (
    POLICY_TABLE_FORMAT,
    InfeasibleModelError,
    PolicyTable,
    backward_induction,
    feasible_actions,
    scenario_fingerprint,
)
from mdpstream.model import ConfigurationError, left_sum
from support import (
    all_states,
    expectimax_value,
    fixed_plan_value,
    full_tensor_backup,
    full_tensor_q,
    make_channel,
    make_ladder,
    make_params,
    per_action_future,
    random_instance,
)


def small_model():
    ladder = make_ladder((100.0, 240.0))
    channel = make_channel([[0.7, 0.3], [0.4, 0.6]], (90.0, 300.0), (200.0,))
    params = make_params(cap=600.0, threshold=120.0)
    return ladder, channel, params, derive_constants(ladder, channel, params)


# ----------------------------- transition model ----------------------------


def solver_tables(ladder, channel, params):
    return mdp._ActionTables(ladder, channel, params)


def test_channel_transition_product():
    channel = make_channel()
    joint = solver_tables(make_ladder(), channel, make_params()).joint_channel
    # joint channel vectors are base-4 digits, user 0 most significant
    assert joint[0, 1] == pytest.approx(0.25)  # (0, 0) -> (0, 1)
    assert joint[1 * 4 + 2, 2 * 4 + 3] == pytest.approx(0.2 * 0.2)  # (1, 2) -> (2, 3)
    assert joint[0, 2 * 4] == 0.0  # (0, 0) -> (2, 0)
    per_user = channel.transition
    for a, b, c, d in itertools.product(range(4), repeat=4):
        assert joint[a * 4 + b, c * 4 + d] == per_user[a, c] * per_user[b, d]


def test_channel_transition_identity():
    channel = make_channel(np.eye(4))
    for n in (1, 2):
        params = make_params(cap=5000.0, priorities=(1 / n,) * n)
        joint = solver_tables(make_ladder(), channel, params).joint_channel
        assert np.array_equal(joint, np.eye(4 ** n))


def test_transition_requires_matching_rates():
    # rates move deterministically to the action's vector: each action's
    # future term reads the row of exactly that rate vector
    ladder, channel, params, _ = small_model()
    tables = solver_tables(ladder, channel, params)
    for digits, multi in zip(tables.action_digits, tables.action_multi):
        assert multi == np.ravel_multi_index(tuple(digits), (len(ladder),) * 2)
        assert np.array_equal(tables.rate_digits[multi], digits)


def test_transition_closure_small():
    ladder, channel, params, _ = small_model()
    joint = solver_tables(ladder, channel, params).joint_channel
    assert joint.min() >= 0.0
    np.testing.assert_allclose(joint.sum(axis=1), 1.0, rtol=0, atol=1e-9)


# ----------------------------- feasible actions ----------------------------


def test_feasible_actions_default_scenario():
    ladder, params = make_ladder(), make_params()
    actions = feasible_actions(2, ladder, params)
    assert (actions.dtype, actions.shape) == (np.int64, (13, 2))
    # matches a brute-force scan of all 25 pairs against the 850 Kbps cap,
    # in lexicographic order
    expected = [
        pair
        for pair in itertools.product(range(5), repeat=2)
        if ladder.rates[pair[0]] + ladder.rates[pair[1]] <= 850.0
    ]
    assert [tuple(a) for a in actions.tolist()] == expected
    assert [3, 3] not in actions.tolist()
    assert 4 not in actions  # 798.09 leaves at most 51.91 for the partner


def test_feasible_actions_finite_price_keeps_all():
    ladder = make_ladder()
    params = make_params(price=0.001)
    actions = feasible_actions(2, ladder, params)
    assert (actions.dtype, actions.shape) == (np.int64, (25, 2))
    assert [tuple(a) for a in actions.tolist()] == list(itertools.product(range(5), repeat=2))


def test_feasible_actions_single_user():
    ladder = make_ladder()
    params = make_params(cap=900.0, priorities=(1.0,))
    actions = feasible_actions(1, ladder, params)
    assert actions.dtype == np.int64
    assert actions.tolist() == [[0], [1], [2], [3], [4]]


def test_feasible_actions_empty_set_errors():
    ladder = make_ladder()
    params = make_params(cap=150.0)  # below two users at the minimum rate
    with pytest.raises(InfeasibleModelError, match="no feasible action"):
        feasible_actions(2, ladder, params)


def test_feasible_actions_checks_user_count():
    ladder = make_ladder()
    params = make_params(priorities=(0.5, 0.5))
    with pytest.raises(ConfigurationError):
        feasible_actions(3, ladder, params)


@pytest.mark.parametrize("scenario, users, cap", [
    ("fair", 2, 600.0), ("fair", 2, 850.0), ("diff", 2, 600.0), ("diff", 2, 850.0),
    ("fair", 3, 1275.0), ("fair", 4, 1700.0),
])
def test_action_tie_order_matches_brute_force(fair_config, diff_config, scenario, users, cap):
    # the solver's tie order: ascending aggregate rate, then lexicographic
    config = {"fair": fair_config, "diff": diff_config}[scenario].with_rate_cap(cap)
    params = config.profit
    if users != 2:
        params = dataclasses.replace(params, user_priorities=(1 / users,) * users)
    rates = config.ladder.rates
    feasible = [digits for digits in itertools.product(range(len(rates)), repeat=users)
                if bottleneck_cost([rates[i] for i in digits], params) < math.inf]
    want = sorted(feasible, key=lambda digits: (left_sum(rates[i] for i in digits), digits))
    got = solver_tables(config.ladder, config.channel, params).action_digits
    assert got.dtype == np.int64
    assert [tuple(digits) for digits in got.tolist()] == want


# ------------------------------- the solver --------------------------------


def test_solver_matches_recursive_oracle_small():
    rng = np.random.default_rng(11)
    for finite_price in (False, True):
        ladder, channel, params, consts = random_instance(rng, 2, 2, 2, finite_price)
        table = backward_induction(ladder, channel, params, consts, 3)
        for rates, chans in all_states(ladder, channel, 2):
            want = expectimax_value(ladder, channel, params, consts, 3, rates, chans)
            assert table.value(0, rates, chans) == pytest.approx(want, abs=1e-9)


def test_solver_single_step_hand_example():
    # T=1, N=1, deterministic channel stuck in its top state: the solver
    # must pick the rate maximizing income minus the switch penalty
    ladder = make_ladder()
    channel = make_channel(np.eye(4))
    params = make_params(cap=900.0, priorities=(1.0,))
    consts = derive_constants(ladder, channel, params)
    table = backward_induction(ladder, channel, params, consts, 1)
    from mdpstream.economics import playback_income, smoothness_cost

    for start_rate in range(5):
        state = ((start_rate,), (3,))
        payoffs = [
            playback_income(r, 896.0, params, consts)
            - smoothness_cost(ladder.rates[start_rate], r, params, consts)
            for r in ladder.rates
        ]
        best = max(payoffs)
        assert table.value(0, *state) == pytest.approx(best, abs=1e-12)
        chosen = table.actions(0, *state)[0]
        assert payoffs[chosen] == pytest.approx(best, abs=1e-12)


def test_last_epoch_equals_single_step_optimum():
    ladder, channel, params, consts = small_model()
    deep = backward_induction(ladder, channel, params, consts, 4)
    shallow = backward_induction(ladder, channel, params, consts, 1)
    for state in all_states(ladder, channel, 2):
        assert deep.value(3, *state) == shallow.value(0, *state)


def test_tie_breaking_prefers_smallest_rates():
    # all weight on an unreachable variation threshold: every action scores
    # zero, so the documented tie-break must pick the lowest rate pair
    ladder = make_ladder((100.0, 200.0))
    channel = make_channel([[0.5, 0.5], [0.5, 0.5]], (300.0, 400.0), (350.0,))
    params = make_params(playback=0.0, buffering=0.0, smoothness=1.0,
                         threshold=5000.0, cap=1000.0)
    consts = derive_constants(ladder, channel, params)
    table = backward_induction(ladder, channel, params, consts, 3)
    for state in all_states(ladder, channel, 2):
        for t in range(3):
            assert table.actions(t, *state).tolist() == [0, 0]
            assert table.value(t, *state) == 0.0


def test_solver_is_deterministic():
    ladder, channel, params, consts = small_model()
    a = backward_induction(ladder, channel, params, consts, 5)
    b = backward_induction(ladder, channel, params, consts, 5)
    assert all(np.array_equal(x, y) for x, y in zip(a.values, b.values))
    assert all(
        np.array_equal(x, y)
        for x, y in zip(a.action_rate_indices, b.action_rate_indices)
    )


def test_value_dominates_fixed_plans():
    ladder, channel, params, consts = small_model()
    horizon = 4
    table = backward_induction(ladder, channel, params, consts, horizon)
    actions = feasible_actions(2, ladder, params)
    rng = np.random.default_rng(3)
    for rates, chans in all_states(ladder, channel, 2)[::5]:
        for _ in range(4):
            plan = [actions[rng.integers(len(actions))] for _ in range(horizon)]
            fixed = fixed_plan_value(ladder, channel, params, consts, plan, rates, chans)
            assert table.value(0, rates, chans) >= fixed - 1e-9


def test_symmetric_states_get_equal_rates(fair_config, fair_table):
    # equal priorities and identical per-user conditions: the argmax is a
    # balanced pair (log income favors the even split, tie-break keeps it)
    for t in (0, 57, 199):
        for r in range(5):
            for c in range(4):
                action = fair_table.actions(t, (r, r), (c, c))
                assert action[0] == action[1]


def test_zero_priority_user_reduces_to_single_user():
    ladder, channel = make_ladder(), make_channel()
    horizon = 8
    pair = make_params(cap=5000.0, priorities=(1.0, 0.0))
    single = make_params(cap=5000.0, priorities=(1.0,))
    table2 = backward_induction(ladder, channel, pair, derive_constants(ladder, channel, pair), horizon)
    table1 = backward_induction(ladder, channel, single, derive_constants(ladder, channel, single), horizon)
    for t in (0, 5):
        for r1 in range(5):
            for c1 in range(4):
                lone = table1.value(t, (r1,), (c1,))
                for r2, c2 in ((0, 0), (3, 2)):
                    state = ((r1, r2), (c1, c2))
                    assert table2.value(t, *state) == pytest.approx(lone, abs=1e-9)
                    # the ignored user costs nothing, so ties push it low
                    assert table2.actions(t, *state)[1] == 0


def test_solver_rejects_bad_horizon_and_cap(monkeypatch):
    ladder, channel, params, consts = small_model()
    with pytest.raises(ConfigurationError):
        backward_induction(ladder, channel, params, consts, 0)
    # 16 states x horizon 2: 3 value rows of 8 bytes and 2 uint8 action ids,
    # plus the digit list of 4 actions x 2 users at 8 bytes
    needed = 16 * (3 * 8 + 2 * 1) + 4 * 2 * 8
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", needed - 1)
    with pytest.raises(ConfigurationError, match=f"needs {needed} bytes"):
        backward_induction(ladder, channel, params, consts, 2)
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", needed)
    backward_induction(ladder, channel, params, consts, 2)
    tight = make_params(cap=150.0)
    with pytest.raises(InfeasibleModelError):
        backward_induction(
            ladder, channel, tight, derive_constants(ladder, channel, tight), 2
        )


def test_solver_refuses_constants_of_another_scenario(fair_config):
    # the table's fingerprint hashes the ladder, channel, params and horizon,
    # not the constants: a solve from other constants would carry the right
    # fingerprint over other decisions
    ladder, channel, params = fair_config.ladder, fair_config.channel, fair_config.profit
    consts = fair_config.derived_constants()
    other = dataclasses.replace(params, variation_threshold_kbps=300.0)
    for wrong in (dataclasses.replace(consts, income_norm=2 * consts.income_norm),
                  derive_constants(ladder, channel, other)):
        assert wrong != consts
        with pytest.raises(ConfigurationError, match="differs from derive_constants"):
            backward_induction(ladder, channel, params, wrong, 5)
    assert backward_induction(ladder, channel, params, consts, 5).fingerprint == (
        scenario_fingerprint(ladder, channel, params, 5))


def test_memory_cap_refuses_five_users_before_allocating(monkeypatch):
    ladder, channel = make_ladder(), make_channel()
    five = make_params(cap=5000.0, priorities=(0.2,) * 5)
    consts = derive_constants(ladder, channel, five)
    states = 20 ** 5
    # float64 values, uint16 ids for 3,125 actions, their int64 digits: 6.4 GB
    needed = states * (201 * 8 + 200 * 2) + 3125 * 5 * 8
    tracemalloc.start()
    try:
        with pytest.raises(ConfigurationError) as err:
            backward_induction(ladder, channel, five, consts, 200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    message = str(err.value)
    assert f"needs {needed} bytes" in message
    assert f"{states} states x horizon 200" in message
    assert f"cap of {mdp.DEFAULT_MEMORY_CAP_BYTES} bytes" in message
    assert peak < 1 << 20

    # the default admits 4 users x horizon 200 (about 321 MB); stop the
    # solve right after the guard instead of running it
    class PassedGuard(Exception):
        pass

    def stop(*args):
        raise PassedGuard

    monkeypatch.setattr(mdp, "_action_tables", stop)
    four = make_params(cap=5000.0, priorities=(0.25,) * 4)
    with pytest.raises(PassedGuard):
        backward_induction(ladder, channel, four, derive_constants(ladder, channel, four), 200)


def _symmetric_instance():
    # equal priorities; at this seed every sweep has exact ties
    ladder, channel, params, _ = random_instance(np.random.default_rng(7), 4, 3, 3, False)
    params = dataclasses.replace(params, user_priorities=(1 / 3,) * 3)
    return ladder, channel, params, derive_constants(ladder, channel, params)


def _finite_price_instance():
    # a low enough price that many chosen actions pay the congestion charge
    return random_instance(np.random.default_rng(6), 4, 3, 3, True)


def _uncharged_finite_price_instance():
    # a finite price, but a cap no action exceeds: every charge is +0.0
    ladder, channel, params, _ = _finite_price_instance()
    params = dataclasses.replace(params, total_rate_cap_kbps=3 * ladder.rates[-1])
    return ladder, channel, params, derive_constants(ladder, channel, params)


def _negative_zero_price_instance():
    # price -0.0: the actions above the cap are charged -0.0, which counts
    ladder, channel, params, consts = _finite_price_instance()
    return ladder, channel, dataclasses.replace(params, congestion_price=-0.0), consts


# Rate vectors per block: False is the default block, True is one rate
# vector, and 3 leaves a short last block of one of the 64.
@pytest.mark.parametrize("instance,rate_vectors_per_block", [
    pytest.param(_symmetric_instance, False, id="_symmetric_instance-False"),
    pytest.param(_finite_price_instance, False, id="_finite_price_instance-False"),
    pytest.param(_symmetric_instance, True, id="_symmetric_instance-True"),
    pytest.param(_finite_price_instance, True, id="_finite_price_instance-True"),
    pytest.param(_uncharged_finite_price_instance, False,
                 id="_uncharged_finite_price_instance-False"),
    pytest.param(_finite_price_instance, 3, id="_finite_price_instance-3"),
    pytest.param(_negative_zero_price_instance, False, id="_negative_zero_price_instance-False"),
])
def test_blocked_backup_matches_full_tensor_bit_for_bit(
    monkeypatch, instance, rate_vectors_per_block
):
    ladder, channel, params, consts = instance()
    tables = mdp._ActionTables(ladder, channel, params)
    if rate_vectors_per_block:
        monkeypatch.setattr(
            mdp, "_BLOCK_FLOATS",
            int(rate_vectors_per_block) * tables.num_chan_vectors * len(tables.action_digits),
        )
    if rate_vectors_per_block == 3:
        assert tables.num_rate_vectors % 3 == 1
    scanned = _record_scans(monkeypatch)
    for separable in (False, True):  # both reductions, whichever the size rule picks
        monkeypatch.setattr(mdp, "_use_separable", lambda *args: separable)
        v_next = np.zeros((tables.num_rate_vectors, tables.num_chan_vectors))
        ties = charged = 0
        scanned.clear()
        for _ in range(4):
            values, choice = mdp._backup(tables, v_next)
            ref_values, ref_choice, ref_ties = full_tensor_backup(tables, v_next)
            assert np.array_equal(values, ref_values)
            assert values.tobytes() == ref_values.tobytes()  # signed zeros too
            assert np.array_equal(choice, ref_choice)
            ties += ref_ties
            charged += np.count_nonzero(tables.bottleneck[choice])
            v_next = values
        if separable:  # every tie falls back to the scan, and not every pair does
            assert ties <= sum(scanned) < 4 * tables.num_rate_vectors * tables.num_chan_vectors
        # no case may pass vacuously
        if instance is _uncharged_finite_price_instance:
            assert math.isfinite(params.congestion_price) and not tables.charged
            assert not np.any(np.signbit(tables.bottleneck))
        elif instance is _negative_zero_price_instance:
            assert tables.charged and not np.any(tables.bottleneck)
            assert np.any(np.signbit(tables.bottleneck))
        else:
            assert ties > 0 if instance is _symmetric_instance else charged > 0


def _check_certified_sweeps(tables, sweeps):
    """Run ``sweeps`` backward sweeps from zero, each certified against the
    last through one carry: values must equal the full tensor's bit for bit
    and choices its first maximizers, and no carried margin may exceed the
    full tensor's best q minus its runner-up."""
    v_next = np.zeros((tables.num_rate_vectors, tables.num_chan_vectors))
    carry = {}
    for _ in range(sweeps):
        values, choice = mdp._backup(tables, v_next, {"carry": carry})
        q = full_tensor_q(tables, v_next)
        assert values.tobytes() == q.max(axis=0).tobytes()  # signed zeros too
        assert np.array_equal(choice, q.argmax(axis=0))
        top = np.sort(q, axis=0)  # the runner-up of a lone action is -inf
        assert np.all(carry["margin"] <= top[-1] - (top[-2] if len(q) > 1 else -np.inf))
        v_next = values


@pytest.mark.parametrize("instance", [
    _symmetric_instance, _finite_price_instance, _uncharged_finite_price_instance,
    _negative_zero_price_instance,
])
@pytest.mark.parametrize("separable", [False, True, None], ids=["scan", "transform", "rule"])
def test_certified_sweeps_match_full_tensor_bit_for_bit(monkeypatch, instance, separable):
    # forced scan and forced transform for the whole sweeps and the margins
    # they report, then the size rule (which scans these small instances)
    ladder, channel, params, consts = instance()
    tables = mdp._ActionTables(ladder, channel, params)
    if separable is not None:
        monkeypatch.setattr(mdp, "_use_separable", lambda *args: separable)
    recorded = _record_sweeps(monkeypatch)
    _check_certified_sweeps(tables, 24)
    fewest = min(scanned for _, scanned in recorded)
    pairs = tables.num_rate_vectors * tables.num_chan_vectors
    # the transform reduces whole sweeps; otherwise most pairs certify
    assert fewest < pairs / 2 if not separable else fewest < pairs


@given(seed=st.integers(0, 2 ** 32 - 1), users=st.integers(1, 3), finite_price=st.booleans())
@settings(max_examples=40, deadline=None)
def test_certified_sweeps_match_full_tensor_on_random_instances(seed, users, finite_price):
    ladder, channel, params, consts = random_instance(np.random.default_rng(seed), 3, 3, users,
                                                      finite_price)
    tables = mdp._ActionTables(ladder, channel, params)
    _check_certified_sweeps(tables, 20)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gain_is_never_certified(monkeypatch, bad):
    # after two good sweeps, one with a bad row (2) and a bad entry (row 4),
    # then a good one again: a non-finite gain makes its sweep's scale M, and
    # so the slack of that sweep and the next, non-finite, so both reduce
    # every pair, and the results are still the full tensor's
    ladder, channel, params, consts = _finite_price_instance()
    tables = mdp._ActionTables(ladder, channel, params)
    monkeypatch.setattr(mdp, "_use_separable", lambda *args: False)
    sweeps = _record_sweeps(monkeypatch)
    good = tables.expected_playbuf_by_action
    bad_gain = good + 1.0
    bad_gain[2] = bad
    bad_gain[4, 3] = bad
    carry = {}
    every_pair = tables.num_rate_vectors * len(good)
    for step, gain in enumerate([good, good + 0.5, bad_gain, good + 1.5]):
        values, choice = mdp._best(gain, tables, work={"carry": carry})
        want_values, want_choice = _full_tensor_best(gain, tables)
        assert np.array_equal(choice, want_choice)
        assert values.tobytes() == want_values.tobytes()
        scanned = sweeps[-1][1]
        assert scanned < every_pair if step == 1 else scanned == every_pair  # 1: good, certifies


@pytest.mark.parametrize("users, cap", [(2, 850.0), (3, 1275.0), (4, 1700.0)])
def test_stacked_future_term_equals_per_action_matvecs(fair_config, monkeypatch, users, cap):
    # _backup hands _best the gain playbuf + future; an equal gain from the
    # same playbuf means a bit-identical future term
    tables = _workload_tables(fair_config, users, (1 / users,) * users, cap)
    gains = []
    best = mdp._best

    def recording(gain, tables, **work):
        gains.append(gain)
        return best(gain, tables, **work)

    monkeypatch.setattr(mdp, "_best", recording)
    rng = np.random.default_rng(18)
    shape = (tables.num_rate_vectors, tables.num_chan_vectors)
    v_next = np.zeros(shape)
    for _ in range(3):  # random values, then the solve's own from zero
        for v in (rng.normal(scale=30.0, size=shape), v_next):
            values = mdp._backup(tables, v)[0]
            want = tables.expected_playbuf_by_action + per_action_future(tables, v)
            assert gains.pop().tobytes() == want.tobytes()
        v_next = values


def _record_scans(monkeypatch):
    """Wrap ``mdp._scan``; the returned list gets each call's choice count,
    which under the separable reduction counts the pairs that fell back."""
    sizes = []
    scan = mdp._scan

    def recording(gain, variation, tables, q, out, *margin):
        sizes.append(out.size)
        scan(gain, variation, tables, q, out, *margin)

    monkeypatch.setattr(mdp, "_scan", recording)
    return sizes


def _full_tensor_best(gain, tables):
    q = (gain[None, :, :] - tables.variation_by_action[:, None, :]) - tables.bottleneck
    choice = q.argmax(axis=2)
    return np.take_along_axis(q, choice[..., None], axis=2)[..., 0], choice


def _workload_tables(config, num_users, priorities, cap):
    params = dataclasses.replace(config.profit, user_priorities=priorities,
                                 total_rate_cap_kbps=cap)
    return mdp._ActionTables(config.ladder, config.channel, params)


def test_separable_best_on_one_row_at_four_users(fair_config, monkeypatch):
    # a one-run hindsight plan's shape at 4 users: one row per call, its pay
    # for channel vector (0, 0, 3, 3); actions that swap users 0 and 1 (or
    # 2 and 3) tie exactly at some rate vectors, and those must fall back
    tables = _workload_tables(fair_config, 4, (0.25,) * 4, 1700.0)
    gain = (tables.playbuf[tables.action_digits, [0, 0, 3, 3]] @ np.full(4, 0.25))[None, :]
    monkeypatch.setattr(mdp, "_use_separable", lambda *args: True)
    scanned = _record_scans(monkeypatch)
    values, choice = mdp._best(gain, tables)
    want_values, want_choice = _full_tensor_best(gain, tables)
    assert np.array_equal(choice, want_choice)
    assert values.tobytes() == want_values.tobytes()
    assert 0 < sum(scanned) < tables.num_rate_vectors


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_separable_best_sends_non_finite_gain_to_the_scan(monkeypatch, bad):
    # one bad row and one bad entry: nothing can be certified, so every
    # pair falls back and the result is still the full tensor's
    ladder, channel, params, consts = _finite_price_instance()
    tables = mdp._ActionTables(ladder, channel, params)
    gain = tables.expected_playbuf_by_action[:5].copy()
    gain[2] = bad
    gain[4, 3] = bad
    monkeypatch.setattr(mdp, "_use_separable", lambda *args: True)
    scanned = _record_scans(monkeypatch)
    values, choice = mdp._best(gain, tables)
    want_values, want_choice = _full_tensor_best(gain, tables)
    assert np.array_equal(choice, want_choice)
    assert values.tobytes() == want_values.tobytes()
    assert sum(scanned) == tables.num_rate_vectors * len(gain)


def test_best_rebuilds_a_workspace_kept_for_other_vectors_rows_or_tables():
    # one workspace through calls whose rate vectors (another array of the
    # same length), row count or tables change: each call must give the bits
    # of a call without one.  A finite price keeps every action feasible, so
    # the reversed priorities give other tables of the same shapes
    ladder, channel, params, consts = _finite_price_instance()
    tables = mdp._ActionTables(ladder, channel, params)
    flipped = dataclasses.replace(params, user_priorities=params.user_priorities[::-1])
    other = mdp._ActionTables(ladder, channel, flipped)
    assert other.variation_by_action.shape == tables.variation_by_action.shape
    assert not np.array_equal(other.variation_by_action, tables.variation_by_action)
    gain, work, later = tables.expected_playbuf_by_action, {}, tables.action_multi[4:8]
    for tabs, vectors, rows in [(tables, slice(None), 5), (tables, tables.action_multi[:4], 5),
                                (tables, later, 5), (tables, later, 3), (other, later, 3)]:
        values, choice = mdp._best(gain[:rows], tabs, vectors, work)
        want_values, want_choice = mdp._best(gain[:rows], tabs, vectors)
        assert work["scan"][:2] == (tabs, vectors)
        assert np.array_equal(choice, want_choice)
        assert values.tobytes() == want_values.tobytes()


@pytest.mark.parametrize("priorities, fallbacks", [
    ((0.25,) * 4, 13532), ((0.4, 0.3, 0.2, 0.1), 0),
])
def test_separable_fallback_count_on_the_4_user_solve(fair_config, monkeypatch, priorities,
                                                      fallbacks):
    # the benchmark's solver-4u solve as four full sweeps: a transform that
    # certifies fewer pairs gives the same bits, only slower, so the fallback
    # count is pinned; equal priorities tie users' swapped actions exactly
    tables = _workload_tables(fair_config, 4, priorities, 1700.0)
    scanned = _record_scans(monkeypatch)
    v_next = np.zeros((tables.num_rate_vectors, tables.num_chan_vectors))
    for _ in range(4):
        v_next = mdp._backup(tables, v_next)[0]
    assert sum(scanned) == fallbacks  # 0: the transform took every pair


@pytest.mark.parametrize("priorities", [(0.25,) * 4, (0.4, 0.3, 0.2, 0.1)])
def test_separable_margins_against_the_exact_gap(fair_config, monkeypatch, priorities):
    # the first sweep of the 4-user solve; the rounding bound recomputed from
    # its definition, 8 (n + 2) 2^-52 (max |gain| + max |bottleneck| +
    # sum_u max |penalty[u]|): a rescanned pair reports its exact best minus
    # second, a certified one at least half the bound less
    tables = _workload_tables(fair_config, 4, priorities, 1700.0)
    gain = tables.expected_playbuf_by_action
    bound = 8 * (4 + 2) * 2.0 ** -52 * (np.abs(gain).max() + np.abs(tables.bottleneck).max()
                                        + np.abs(tables.penalty).max(axis=(1, 2)).sum())
    shape = (tables.num_rate_vectors, len(gain))
    rescanned, step = np.zeros(shape, dtype=bool), mdp._separable_rows(tables)
    scan_pairs, chunks = mdp._scan_pairs, []

    def recording(chunk, tables, vec, row, *out):  # one call per chunk of rows, in order
        rescanned[vec, row + step * len(chunks)] = True
        chunks.append(len(chunk))
        scan_pairs(chunk, tables, vec, row, *out)

    monkeypatch.setattr(mdp, "_scan_pairs", recording)
    choice, margin = np.empty(shape, dtype=np.int64), np.empty(shape)
    mdp._separable(gain, tables, choice, margin)
    assert sum(chunks) == len(gain)
    exact = np.empty(shape)
    for lo in range(0, len(gain), 4):  # the full tensor, four rows at a time
        q = (gain[None, lo:lo + 4] - tables.variation_by_action[:, None, :]) - tables.bottleneck
        top = np.partition(q, -2, axis=2)
        exact[:, lo:lo + 4] = top[..., -1] - top[..., -2]
    assert np.array_equal(margin[rescanned], exact[rescanned])
    assert np.all(exact[~rescanned] - margin[~rescanned] >= bound / 2)
    assert np.count_nonzero(~rescanned) > shape[0] * shape[1] // 2


def _record_sweeps(monkeypatch):
    """Wrap ``mdp._best``, ``mdp._separable`` and ``mdp._scan``; the returned
    list gets one [took the transform, pairs reduced exactly] entry per
    ``_best`` call."""
    sweeps = []
    best, separable, scan = mdp._best, mdp._separable, mdp._scan

    def recording_best(*args, **work):
        sweeps.append([False, 0])
        return best(*args, **work)

    def recording_separable(*args):
        sweeps[-1][0] = True
        separable(*args)

    def recording_scan(gain, variation, tables, q, out, *margin):
        sweeps[-1][1] += out.size
        scan(gain, variation, tables, q, out, *margin)

    monkeypatch.setattr(mdp, "_best", recording_best)
    monkeypatch.setattr(mdp, "_separable", recording_separable)
    monkeypatch.setattr(mdp, "_scan", recording_scan)
    return sweeps


@pytest.mark.parametrize("priorities, sweeps", [
    ((0.25,) * 4, [[True, 3383], [True, 3383], [False, 10503], [False, 3383]]),
    ((0.4, 0.3, 0.2, 0.1), [[True, 0], [True, 0], [True, 0], [False, 0]]),
])
def test_certified_sweeps_on_the_4_user_solve(fair_config, monkeypatch, priorities, sweeps):
    # the same solve through backward_induction, whose sweeps certify the
    # last choices: the second certifies too few pairs and takes the
    # transform again; from the third on the size rule scans only the pairs
    # left uncertified, unless they cost more than the transform.  A
    # certificate that covers less scans more pairs, or takes the transform
    params = dataclasses.replace(fair_config.profit, user_priorities=priorities,
                                 total_rate_cap_kbps=1700.0)
    consts = derive_constants(fair_config.ladder, fair_config.channel, params)
    recorded = _record_sweeps(monkeypatch)
    backward_induction(fair_config.ladder, fair_config.channel, params, consts, 4)
    assert recorded == sweeps


def test_paper_solve_scans_every_sweep(fair_config, monkeypatch):
    # a 2-user sweep's q (25 rate vectors x 16 channel vectors x 13 actions)
    # fits one scan block, which scans faster than a certificate costs
    recorded = _record_sweeps(monkeypatch)
    backward_induction(fair_config.ladder, fair_config.channel, fair_config.profit,
                       fair_config.derived_constants(), 6)
    assert recorded == [[False, 400]] * 6


def test_table_3u_solve_certifies_95_percent_from_the_third_sweep(fair_config, monkeypatch):
    # the benchmark's table-3u solve: 3 users, cap 1275, H60; the second
    # sweep certifies most pairs, and each from the third scans at most 5%
    # of its 8,000 pairs (the exact ties between users, which never
    # certify, are 156)
    params = dataclasses.replace(fair_config.profit, user_priorities=(1 / 3,) * 3,
                                 total_rate_cap_kbps=1275.0)
    consts = derive_constants(fair_config.ladder, fair_config.channel, params)
    recorded = _record_sweeps(monkeypatch)
    backward_induction(fair_config.ladder, fair_config.channel, params, consts, 60)
    pairs = 8000
    assert recorded[:2] == [[False, pairs], [False, 2343]]  # a full scan: nothing certified yet
    assert len(recorded) == 60
    assert all(not transform and 0 < scanned <= 0.05 * pairs for transform, scanned in recorded[2:])


def test_size_rule_puts_benchmark_workloads_on_both_sides(fair_config, diff_config):
    # (tables, rows of one backward sweep, runs of one hindsight-plan cell)
    # for each benchmark workload: paper-2u, table-3u and solver-4u
    cases = [
        (_workload_tables(config, 2, config.profit.user_priorities, cap), 16, 15)
        for config in (fair_config, diff_config) for cap in (600.0, 850.0)
    ]
    cases.append((_workload_tables(fair_config, 3, (1 / 3,) * 3, 1275.0), 64, 3))
    four = _workload_tables(fair_config, 4, (0.25,) * 4, 1700.0)
    cases.append((four, 256, 20))
    for tables, sweep_rows, runs in cases:
        assert sweep_rows == tables.num_chan_vectors
        assert mdp._use_separable(sweep_rows, tables) == (tables is four)
        # solve_ideal passes every run of its call as a row, and the scan
        # reduces each run's reachable rate vectors, one per action (the
        # initial one alone at epoch 0): a 4-user cell takes the transform,
        # one run at a time (solver-4u's plans) scans
        actions = len(tables.action_digits)
        assert mdp._use_separable(runs, tables, actions * runs) == (tables is four)
        assert not mdp._use_separable(runs, tables, runs)
        assert not mdp._use_separable(1, tables, actions)
        assert not mdp._use_separable(1, tables)
    # priced at all 625 rate vectors per run, a 4-user plan of 2 runs took the
    # transform; priced at its 385 reachable ones it scans, and 4 runs do not
    assert mdp._use_separable(2, four) and not mdp._use_separable(2, four, 2 * 385)
    assert mdp._use_separable(4, four, 4 * 385)


@pytest.mark.parametrize("users, cap, size, certified", [
    pytest.param(3, 1275.0, (78, 8000), False, id="3u-scan"),
    pytest.param(4, 1700.0, (385, 160000), False, id="4u-transform"),
    pytest.param(3, 1275.0, (78, 8000), True, id="3u-certified"),
    pytest.param(4, 1700.0, (385, 160000), True, id="4u-certified"),
])
def test_backup_memory_stays_below_half_the_full_tensor(fair_config, monkeypatch, users, cap,
                                                        size, certified):
    # 3 users scan q in small blocks; 4 users take the transform, whose
    # working arrays stay small only because it chunks the rows.  A
    # certified sweep (a solve's third) scans only the pairs it cannot
    # certify, and also holds what it carries to the next sweep
    params = dataclasses.replace(
        fair_config.profit, user_priorities=(1 / users,) * users, total_rate_cap_kbps=cap
    )
    tables = mdp._ActionTables(fair_config.ladder, fair_config.channel, params)
    rates, chans = tables.num_rate_vectors, tables.num_chan_vectors
    actions = len(tables.action_digits)
    assert (actions, rates * chans) == size
    assert mdp._use_separable(chans, tables) == (users == 4)
    if users == 3:
        monkeypatch.setattr(mdp, "_BLOCK_FLOATS", 4 * chans * actions)
    v_next = np.zeros((rates, chans))
    carry = {} if certified else None
    for _ in range(2 if certified else 0):
        v_next = mdp._backup(tables, v_next, {"carry": carry})[0]
    sweeps = _record_sweeps(monkeypatch)
    tracemalloc.start()
    try:
        mdp._backup(tables, v_next, {"carry": carry})
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    if certified:  # not the transform, and not every pair
        assert not sweeps[0][0] and 0 < sweeps[0][1] < rates * chans
    assert peak < actions * rates * chans * 8 / 2
    # one reused q block, the future term and the gain (channel vectors x
    # actions each), and five (rate vectors x channel vectors) arrays: the
    # values, the choices and the gathers of q at the choices; a certified
    # sweep also carries the margins and the last gain
    carried = 8 * (rates * chans + chans * actions) if certified else 0
    assert peak < 8 * (mdp._BLOCK_FLOATS + 2 * chans * actions + 5 * rates * chans) + carried


# ------------------------------- policy table ------------------------------


def test_table_lookup_matches_extract(fair_config, fair_table):
    state = ((2, 1), (3, 0))
    with pytest.raises(ValueError):
        fair_table.actions(200, *state)  # decision epochs end at horizon - 1
    with pytest.raises(ValueError):
        fair_table.value(-1, *state)
    with pytest.raises(ValueError):
        fair_table.value(201, *state)  # the terminal row is epoch 200


def test_terminal_values_are_zero(fair_config, fair_table):
    assert fair_table.value(fair_table.horizon, (4, 4), (3, 3)) == 0.0


def test_table_save_load_round_trip(tmp_path):
    ladder, channel, params, consts = small_model()
    table = backward_induction(ladder, channel, params, consts, 3)
    path = str(tmp_path / "small.ptab")
    table.save(path)
    loaded = PolicyTable.load(path)
    assert (loaded.ladder_size, loaded.num_channel_states) == (2, 2)
    assert loaded.horizon == 3
    assert loaded.num_users == 2
    assert loaded.fingerprint == table.fingerprint
    assert loaded.values.dtype == np.float64
    assert loaded.action_digits.dtype == np.int64
    assert loaded.action_ids.dtype == np.uint8
    # bit-exact, terminal row included
    assert loaded.values.tobytes() == table.values.tobytes()
    np.testing.assert_array_equal(loaded.action_digits, table.action_digits)
    np.testing.assert_array_equal(loaded.action_ids, table.action_ids)
    # byte-identical on re-save, also from the loaded copy
    loaded.save(str(tmp_path / "again.ptab"))
    assert (tmp_path / "small.ptab").read_bytes() == (tmp_path / "again.ptab").read_bytes()


def test_action_ids_take_the_smallest_unsigned_type(fair_config, fair_table, monkeypatch):
    assert (len(fair_table.action_digits), fair_table.action_ids.dtype) == (13, np.uint8)
    # the 4-user benchmark size, counted rather than solved
    four = dataclasses.replace(fair_config.profit, user_priorities=(0.25,) * 4,
                               total_rate_cap_kbps=1700.0)
    assert len(feasible_actions(4, fair_config.ladder, four)) == 385
    # the guard counts 2-byte ids: 20^4 states x (5 float64 values + 4 ids),
    # plus 385 x 4 int64 digits
    needed = 20 ** 4 * (5 * 8 + 4 * 2) + 385 * 4 * 8
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", needed - 1)
    with pytest.raises(ConfigurationError, match=f"needs {needed} bytes"):
        backward_induction(fair_config.ladder, fair_config.channel, four,
                           derive_constants(fair_config.ladder, fair_config.channel, four), 4)


def test_action_rate_indices_gather_the_full_tensor_choices():
    ladder, channel, params, consts = small_model()
    horizon = 3
    table = backward_induction(ladder, channel, params, consts, horizon)
    np.testing.assert_array_equal(table.action_rate_indices,
                                  table.action_digits[table.action_ids])
    # every (rate vector, channel vector) pair of a sweep, at its table state
    tables = solver_tables(ladder, channel, params)
    rates, chans = (np.array(list(itertools.product(range(size), repeat=2)))
                    for size in (len(ladder), channel.num_states))
    states = table.state_index(*np.broadcast_arrays(rates[:, None], chans[None, :]))
    v_next = np.zeros(states.shape)
    for t in range(horizon - 1, -1, -1):
        v_next, choice, _ = full_tensor_backup(tables, v_next)
        assert table.values[t, states].tobytes() == v_next.tobytes()
        np.testing.assert_array_equal(table.action_rate_indices[t, states],
                                      tables.action_digits[choice])


def test_scenario_fingerprint_tracks_solver_inputs():
    ladder, channel, params, _ = small_model()
    fingerprint = scenario_fingerprint(ladder, channel, params, 3)
    assert scenario_fingerprint(make_ladder((100, 240)), channel, params, 3) == fingerprint
    assert scenario_fingerprint(ladder, channel, params, 4) != fingerprint
    assert scenario_fingerprint(
        ladder, channel, make_params(cap=650.0, threshold=120.0), 3
    ) != fingerprint
    assert scenario_fingerprint(
        ladder, make_channel([[0.6, 0.4], [0.4, 0.6]], (90.0, 300.0), (200.0,)), params, 3
    ) != fingerprint


def saved_small_table(tmp_path, name="table.ptab"):
    ladder, channel, params, consts = small_model()
    path = tmp_path / name
    backward_induction(ladder, channel, params, consts, 2).save(str(path))
    return path


def assert_refused(path, match=None):
    with pytest.raises(ConfigurationError, match=match) as err:
        PolicyTable.load(str(path))
    assert str(path) in str(err.value)
    assert "mdpstream solve" in str(err.value)


def test_table_load_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.ptab"
    bad.write_text("something else entirely\n")
    assert_refused(bad)
    versioned = tmp_path / "vers.ptab"
    versioned.write_text(f"{POLICY_TABLE_FORMAT} ordering=99\n")
    assert_refused(versioned, match="ordering")
    binary = tmp_path / "binary.ptab"
    binary.write_bytes(bytes(range(256)) * 4)
    assert_refused(binary)
    # a text-body table as older versions wrote it
    old = tmp_path / "old.ptab"
    old.write_text(
        "mdpstream-policy-table ordering=1\n"
        "ladder_size=2 channel_states=2 users=1 horizon=1\n"
        "# record: epoch state_index rate_index_per_user... value\n"
        "0 0 0 0.5\n0 1 1 0.75\n0 2 0 0.25\n0 3 1 1.0\n"
    )
    assert_refused(old, match="not a policy table")
    # a version-1 table: one int64 (epoch, state, user) block of rate indices
    path = saved_small_table(tmp_path, "v1.ptab")
    table = PolicyTable.load(str(path))
    tag, dims, fingerprint, _ = path.read_bytes().split(b"\n", 3)
    buf = io.BytesIO()
    np.save(buf, table.values)
    np.save(buf, table.action_rate_indices)
    path.write_bytes(b"\n".join([b"%s ordering=1" % POLICY_TABLE_FORMAT.encode(), dims,
                                 fingerprint, buf.getvalue()]))
    assert_refused(path, match="version")


# Each damage replaces (values, action digits, action ids) by these arrays
# and must be refused with this reason.
BODY_DAMAGE = {
    "values_float32": (lambda v, d, i: (v.astype(np.float32), d, i),
                       r"arrays hold float32 \(3, 16\), int64 \(4, 2\), uint8 \(2, 16\); "
                       r"expected float64 \(3, 16\), int64 \(actions, 2\), unsigned \(2, 16\); "),
    "ids_signed": (lambda v, d, i: (v, d, i.astype(np.int8)), r"int8 \(2, 16\); expected"),
    "ids_float64": (lambda v, d, i: (v, d, i.astype(float)), r"float64 \(2, 16\); expected"),
    "id_past_last_action": (lambda v, d, i: (v, d, np.where(i == i.max(), 4, i).astype(i.dtype)),
                            "action id 4 names none of the 4 actions"),
    "digits_int32": (lambda v, d, i: (v, d.astype(np.int32), i), r"int32 \(4, 2\)"),
    "digits_transposed": (lambda v, d, i: (v, d.T.copy(), i), r"int64 \(2, 4\)"),
    "digits_flat": (lambda v, d, i: (v, d.ravel(), i), r"int64 \(8,\)"),
    "digit_past_ladder": (lambda v, d, i: (v, np.where(d == 1, 2, d), i), "outside the 2-rung"),
    "digit_negative": (lambda v, d, i: (v, d - 1, i), "outside the 2-rung"),
    "ids_missing": (lambda v, d, i: (v, d), "EOF"),
}


@pytest.mark.parametrize("damage", [
    "dims_without_equals", "dims_not_integer", "dims_disagree",
    "fingerprint_missing", "npz_body", *BODY_DAMAGE,
])
def test_table_load_rejects_malformed_tables(tmp_path, damage):
    path = saved_small_table(tmp_path)
    tag, dims, fingerprint, body = path.read_bytes().split(b"\n", 3)
    table = PolicyTable.load(str(path))
    assert table.action_digits.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    arrays = (table.values, table.action_digits, table.action_ids)
    damaged, match = BODY_DAMAGE.get(damage, (None, None))
    if damage == "dims_without_equals":
        dims = dims.replace(b"users=2", b"users")
    elif damage == "dims_not_integer":
        dims = dims.replace(b"users=2", b"users=two")
    elif damage == "dims_disagree":
        dims = dims.replace(b"horizon=2", b"horizon=3")
    elif damage == "fingerprint_missing":
        fingerprint = b""
    else:
        buf = io.BytesIO()
        if damage == "npz_body":
            np.savez(buf, *arrays)
        for array in damaged(*arrays) if damaged else ():
            np.save(buf, array)
        body = buf.getvalue()
    path.write_bytes(b"\n".join([tag, dims, fingerprint, body]))
    assert_refused(path, match)


@pytest.mark.parametrize("cut", [
    "inside_header", "before_values", "inside_values", "inside_digits",
    "inside_ids", "last_byte", "trailing_byte",
])
def test_table_load_rejects_truncation(tmp_path, cut):
    path = saved_small_table(tmp_path)
    data = path.read_bytes()
    values_at = data.index(b"\x93NUMPY")
    digits_at = data.index(b"\x93NUMPY", values_at + 1)
    ids_at = data.index(b"\x93NUMPY", digits_at + 1)
    data = {
        "inside_header": data[:values_at // 2],
        "before_values": data[:values_at],
        "inside_values": data[:(values_at + digits_at) // 2],
        "inside_digits": data[:(digits_at + ids_at) // 2],
        "inside_ids": data[:(ids_at + len(data)) // 2],
        "last_byte": data[:-1],
        "trailing_byte": data + b"\0",
    }[cut]
    path.write_bytes(data)
    assert_refused(path)


@pytest.mark.parametrize("rows", [4, 400, "version 2.0"])
def test_table_load_refuses_values_longer_than_the_file(tmp_path, monkeypatch, rows):
    # the values header declares more rows than the body holds (3 at horizon
    # 2): one more, whose bytes would run into the later blocks, or far past
    # the end.  Mapping past the end and reading there kills the process
    # (SIGBUS), so the table must be refused before anything is mapped; so is
    # a values block in a .npy version that save never writes
    path = saved_small_table(tmp_path)
    data = path.read_bytes()
    if rows == "version 2.0":
        values_at = data.index(b"\x93NUMPY")
        digits_at = data.index(b"\x93NUMPY", values_at + 1)
        buf = io.BytesIO()
        np.lib.format.write_array(buf, np.lib.format.read_array(io.BytesIO(data[values_at:])),
                                  version=(2, 0))
        path.write_bytes(data[:values_at] + buf.getvalue() + data[digits_at:])
    else:
        shape, longer = b"'shape': (3, 16), }", b"'shape': (%d, 16), }" % rows
        padded = shape + b" " * (len(longer) - len(shape))  # the header keeps its length
        assert data.count(padded) == 1
        path.write_bytes(data.replace(padded, longer))
    mapped = []
    monkeypatch.setattr(np, "memmap", lambda *args, **kwargs: mapped.append(args))
    assert_refused(path)
    assert mapped == []
