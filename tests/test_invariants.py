"""Model invariants of the solved values and decisions: a looser cap or a
finite congestion price never lowers the value, and relabelling the users
together with their priorities relabels the solution.  All on the
differentiated scenario (priorities 0.7 and 0.3) at horizon 60, and the
relabelling also on three users at horizon 10."""

import math
from dataclasses import replace

import numpy as np
import pytest

from mdpstream.economics import derive_constants
from mdpstream.mdp import _digit_grid, backward_induction

HORIZON = 60


def solve(config, horizon=HORIZON, **profit_changes):
    params = replace(config.profit, **profit_changes)
    consts = derive_constants(config.ladder, config.channel, params)
    return backward_induction(config.ladder, config.channel, params, consts, horizon)


def test_value_nondecreasing_in_the_cap(diff_config):
    # a looser cap only adds feasible actions, under an infinite price
    caps = np.arange(200.0, 1675.0 + 1, 25.0)
    values = np.array([solve(diff_config, total_rate_cap_kbps=cap,
                             congestion_price=math.inf).values[0] for cap in caps])
    assert values.shape == (len(caps), 400)
    assert np.diff(values, axis=0).min() >= 0.0
    assert values[-1].min() > values[0].max()  # the cap binds somewhere in the sweep


@pytest.mark.parametrize("price", [1e-4, 1e-3, 1e-2, 1.0])
def test_finite_price_never_lowers_the_value(diff_config, price):
    # under the cap a finite price bills nothing, and above it the action
    # is allowed at a charge where the hard cap forbids it
    hard = solve(diff_config, congestion_price=math.inf).values[0]
    priced = solve(diff_config, congestion_price=price).values[0]
    assert (priced - hard).min() >= 0.0
    if price == 1e-4:
        assert (priced - hard).min() > 0.4  # cheap enough to exceed the cap from every state


@pytest.mark.parametrize("priorities,cap,horizon,order", [
    ((0.7, 0.3), 850.0, HORIZON, [1, 0]),
    ((0.5, 0.3, 0.2), 1275.0, 10, [1, 2, 0]),  # a cycle is no mere reversal
], ids=["diff-swap", "three-users-cycle"])
def test_relabelling_the_users_relabels_the_solution(diff_config, priorities, cap, horizon,
                                                      order):
    # user u of the relabelled model is user order[u] of the original
    table = solve(diff_config, horizon, user_priorities=priorities, total_rate_cap_kbps=cap)
    relabelled = solve(diff_config, horizon, total_rate_cap_kbps=cap,
                       user_priorities=tuple(priorities[u] for u in order))
    k = diff_config.channel.num_states
    digits = _digit_grid(len(diff_config.ladder) * k, len(order))  # every state, canonical order
    rates, chans = digits // k, digits % k
    back = np.argsort(order)
    for t in range(horizon):
        assert np.abs(relabelled.value(t, rates[:, order], chans[:, order])
                      - table.values[t]).max() <= 1e-12
        assert np.array_equal(relabelled.actions(t, rates[:, order], chans[:, order])[:, back],
                              table.actions(t, rates, chans))
