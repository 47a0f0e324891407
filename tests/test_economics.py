"""Profit model: income, penalty costs, bottleneck charge, stage composition.

The pinned constants below were computed with an arbitrary-precision
calculator from the default scenario numbers before this suite ran.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpstream import presets
from mdpstream.economics import (
    ProfitParams,
    bottleneck_cost,
    buffering_cost,
    derive_constants,
    playback_income,
    smoothness_cost,
)
from mdpstream.model import ConfigurationError
from support import make_channel, make_ladder, make_params, stage_value

INCOME_NORM = 2.1271872565509953        # log(798.09 / 95.11)
MIN_SHORTFALL = 0.10999999999999943     # 95.11 - 95, as floats
BUFFERING_NORM = 8.762759819565778      # log((798.09 - 95) / MIN_SHORTFALL)
VARIATION_NORM = 0.6973952874203772     # log((798.09 - 95.11) / 350)
MID_INCOME = 0.18952478492613183        # income at 364.63 Kbps, playable


@pytest.fixture(scope="module")
def defaults():
    ladder, channel, params = make_ladder(), make_channel(), make_params()
    return ladder, channel, params, derive_constants(ladder, channel, params)


# ----------------------------- derived constants ---------------------------


def test_derived_constants_frozen_values(defaults):
    _, _, _, consts = defaults
    assert consts.r_min_kbps == 95.11
    assert consts.income_norm == pytest.approx(INCOME_NORM, rel=1e-12)
    assert consts.min_shortfall_kbps == MIN_SHORTFALL
    assert consts.buffering_norm == pytest.approx(BUFFERING_NORM, rel=1e-12)
    assert consts.variation_norm == pytest.approx(VARIATION_NORM, rel=1e-12)


def test_min_shortfall_is_smallest_positive_gap(defaults):
    ladder, channel, _, consts = defaults
    gaps = [
        r - bw
        for r in ladder.rates
        for bw in channel.state_bandwidth
        if r > bw
    ]
    assert consts.min_shortfall_kbps == min(gaps)


def test_degenerate_grids():
    # bandwidth always covers every rate: no shortfall is ever possible
    ladder = make_ladder((100.0, 200.0))
    channel = make_channel([[0.5, 0.5], [0.5, 0.5]], (300.0, 400.0), (350.0,))
    params = make_params(cap=1000.0)
    consts = derive_constants(ladder, channel, params)
    assert consts.min_shortfall_kbps is None
    assert consts.buffering_norm is None
    assert buffering_cost(400.0, 90.0, params, consts) == 0.0
    # ladder span below the variation threshold: jumps cannot trigger
    assert consts.variation_norm is None
    assert smoothness_cost(100.0, 200.0, params, consts) == 0.0
    # span exactly at the threshold: a full-span jump triggers, but no span
    # lies strictly beyond it, so there is no normalization and it is free
    consts = derive_constants(make_ladder((100.0, 450.0)), channel, params)
    assert consts.variation_norm is None
    assert smoothness_cost(100.0, 450.0, params, consts) == 0.0


def test_single_rung_ladder_earns_nothing():
    ladder = make_ladder((250.0,))
    channel = make_channel([[1.0]], (300.0,), ())
    params = make_params(cap=1000.0, priorities=(1.0,))
    consts = derive_constants(ladder, channel, params)
    assert consts.income_norm == 0.0
    assert playback_income(250.0, 300.0, params, consts) == 0.0


# ------------------------------- params checks -----------------------------


def test_params_reject_bad_weight_sum():
    with pytest.raises(ConfigurationError, match="sum"):
        make_params(playback=0.3, buffering=0.5, smoothness=0.3)


def test_params_reject_bad_priorities():
    with pytest.raises(ConfigurationError):
        make_params(priorities=(0.7, 0.7))
    with pytest.raises(ConfigurationError):
        make_params(priorities=(1.5, -0.5))
    with pytest.raises(ConfigurationError):
        make_params(priorities=())


def test_params_reject_bad_threshold_and_mode():
    with pytest.raises(ConfigurationError):
        make_params(threshold=0.0)
    with pytest.raises(ConfigurationError):
        make_params(penalty="sideways")


def test_priority_zero_is_allowed():
    assert make_params(priorities=(1.0, 0.0)).num_users == 2


# ------------------------------ playback income ----------------------------


def test_income_boundaries(defaults):
    ladder, _, params, consts = defaults
    assert playback_income(ladder.r_max, 896.0, params, consts) == pytest.approx(0.3, abs=1e-12)
    assert playback_income(ladder.r_min, 896.0, params, consts) == 0.0


def test_income_mid_ladder_pinned(defaults):
    _, _, params, consts = defaults
    assert playback_income(364.63, 512.0, params, consts) == pytest.approx(MID_INCOME, rel=1e-12)


def test_income_zero_when_rate_exceeds_bandwidth(defaults):
    _, _, params, consts = defaults
    assert playback_income(364.63, 256.0, params, consts) == 0.0
    assert playback_income(364.63, 364.63, params, consts) > 0.0  # equality still plays


def test_income_log_base_invariance(defaults):
    ladder, _, params, consts = defaults
    for rate in ladder.rates:
        base10 = 0.3 * math.log10(rate / 95.11) / math.log10(798.09 / 95.11)
        assert playback_income(rate, 896.0, params, consts) == pytest.approx(base10, abs=1e-12)


# ------------------------------ buffering cost -----------------------------


def test_buffering_zero_when_playable(defaults):
    _, _, params, consts = defaults
    assert buffering_cost(364.63, 512.0, params, consts) == 0.0
    assert buffering_cost(364.63, 364.63, params, consts) == 0.0


def test_buffering_boundaries(defaults):
    _, _, params, consts = defaults
    # worst on-grid shortfall normalizes to the full weight
    assert buffering_cost(798.09, 95.0, params, consts) == pytest.approx(0.5, abs=1e-12)
    # smallest on-grid shortfall costs nothing
    assert buffering_cost(95.11, 95.0, params, consts) == 0.0


def test_buffering_clamped_off_grid(defaults):
    _, _, params, consts = defaults
    # realized bandwidths can land between grid points; stay within [0, weight]
    assert buffering_cost(95.11, 95.06, params, consts) == 0.0  # below min shortfall
    assert buffering_cost(798.09, 50.0, params, consts) == 0.5  # beyond the grid span


def test_buffering_log_base_invariance(defaults):
    _, _, params, consts = defaults
    short = 364.63 - 256.0
    base10 = 0.5 * math.log10(short / MIN_SHORTFALL) / math.log10(703.09 / MIN_SHORTFALL)
    assert buffering_cost(364.63, 256.0, params, consts) == pytest.approx(base10, abs=1e-12)


POSITIVE = st.one_of(st.floats(min_value=50.0, max_value=900.0),  # the ladder and link range
                     st.floats(min_value=0.0, exclude_min=True, allow_infinity=False))


@pytest.mark.parametrize("scenario", [presets.fair_scenario(), presets.differentiated_scenario()],
                         ids=["fair", "diff"])
@given(rate=POSITIVE, bandwidth=POSITIVE)
@settings(max_examples=300)
def test_buffering_reads_only_the_shortfall(scenario, rate, bandwidth):
    # sim.score prices each distinct shortfall once, as buffering_cost(gap, 0.0, ...)
    params, consts = scenario.profit, scenario.derived_constants()
    got = buffering_cost(rate, bandwidth, params, consts)
    assert got.hex() == buffering_cost(rate - bandwidth, 0.0, params, consts).hex()


# ------------------------------ smoothness cost ----------------------------


def test_smoothness_below_threshold_is_free(defaults):
    _, _, params, consts = defaults
    assert smoothness_cost(95.11, 183.53, params, consts) == 0.0
    assert smoothness_cost(183.53, 493.02, params, consts) == 0.0  # 309.49 < 350


def test_smoothness_full_span(defaults):
    _, _, params, consts = defaults
    assert smoothness_cost(95.11, 798.09, params, consts) == pytest.approx(0.2, abs=1e-12)


def test_smoothness_symmetry(defaults):
    _, _, params, consts = defaults
    up = smoothness_cost(95.11, 798.09, params, consts)
    down = smoothness_cost(798.09, 95.11, params, consts)
    assert up == down > 0.0


def test_smoothness_at_exact_threshold(defaults):
    _, _, params, consts = defaults
    # the trigger fires but log(ratio 1) contributes nothing
    assert smoothness_cost(100.0, 450.0, params, consts) == 0.0
    assert smoothness_cost(100.0, 460.0, params, consts) > 0.0


def test_smoothness_downward_only_mode():
    ladder, channel = make_ladder(), make_channel()
    params = make_params(penalty="downward_only")
    consts = derive_constants(ladder, channel, params)
    assert smoothness_cost(95.11, 798.09, params, consts) == 0.0  # upswitch free
    assert smoothness_cost(798.09, 95.11, params, consts) == pytest.approx(0.2, abs=1e-12)


# ------------------------------ bottleneck cost ----------------------------


def test_bottleneck_under_cap_is_free(defaults):
    _, _, params, _ = defaults
    assert bottleneck_cost((364.63, 364.63), params) == 0.0


def test_bottleneck_infeasible_when_price_infinite(defaults):
    _, _, params, _ = defaults
    assert bottleneck_cost((493.02, 493.02), params) == math.inf


def test_bottleneck_finite_price():
    params = make_params(price=0.001)
    charge = bottleneck_cost((493.02, 493.02), params)
    assert charge == pytest.approx(0.001 * (986.04 - 850.0), rel=1e-12)


# -------------------------------- stage profit -----------------------------


def test_stage_profit_all_quiet_is_zero(defaults):
    ladder, channel, _, _ = defaults
    params = make_params(priorities=(1.0,), cap=850.0)
    consts = derive_constants(ladder, channel, params)
    assert stage_value(ladder, channel, params, consts, (0,), (0,), (1,)) == 0.0


def test_stage_profit_symmetric_users(defaults):
    ladder, channel, params, consts = defaults
    both = stage_value(ladder, channel, params, consts, (1, 1), (2, 2), (2, 2))
    single_params = make_params(priorities=(1.0,), cap=850.0)
    single_consts = derive_constants(ladder, channel, single_params)
    single = stage_value(ladder, channel, single_params, single_consts, (1,), (2,), (2,))
    assert both == pytest.approx(single, rel=1e-12)  # 0.5 + 0.5 of the same term


def test_stage_profit_composes_hand_example():
    # user 1 streams the top rate playably, user 2 buffers, finite price
    ladder, channel = make_ladder(), make_channel()
    params = make_params(price=0.001, cap=850.0, priorities=(0.7, 0.3))
    consts = derive_constants(ladder, channel, params)
    # user 2: 364.63 against 256 Kbps
    got = stage_value(ladder, channel, params, consts, (4, 2), (4, 2), (3, 1))
    buf = 0.5 * math.log((364.63 - 256.0) / MIN_SHORTFALL) / BUFFERING_NORM
    charge = 0.001 * (798.09 + 364.63 - 850.0)
    assert got == pytest.approx(0.7 * 0.3 - 0.3 * buf - charge, rel=1e-12)


def test_stage_profit_propagates_infeasible(defaults):
    ladder, channel, params, consts = defaults
    assert stage_value(ladder, channel, params, consts, (0, 0), (3, 3), (0, 0)) == -math.inf


def test_stage_profit_upper_bound(defaults):
    # never above the priority-weighted playback weight; tight when both
    # users play the top rate with no penalties
    ladder, channel = make_ladder(), make_channel()
    params = make_params(cap=5000.0, price=0.001)
    consts = derive_constants(ladder, channel, params)
    best = stage_value(ladder, channel, params, consts, (4, 4), (4, 4), (3, 3))
    assert best == pytest.approx(0.3, abs=1e-12)


# ---------------------------- grid-wide properties -------------------------


def test_ranges_and_mutual_exclusion(defaults):
    ladder, channel, params, consts = defaults
    for rate in ladder.rates:
        for bw in channel.state_bandwidth:
            income = playback_income(rate, bw, params, consts)
            cost = buffering_cost(rate, bw, params, consts)
            assert 0.0 <= income <= 0.3
            assert 0.0 <= cost <= 0.5
            # exactly one side of the playable split can be nonzero
            assert income == 0.0 or cost == 0.0
        for prev in ladder.rates:
            assert 0.0 <= smoothness_cost(prev, rate, params, consts) <= 0.2


def test_income_monotone_in_rate(defaults):
    ladder, _, params, consts = defaults
    incomes = [playback_income(r, 896.0, params, consts) for r in ladder.rates]
    assert incomes == sorted(incomes)
    assert incomes[0] < incomes[-1]


def test_buffering_monotone_in_shortfall(defaults):
    _, _, params, consts = defaults
    shortfalls = [1.0, 10.0, 108.63, 237.02, 703.09]
    costs = [buffering_cost(95.0 + s, 95.0, params, consts) for s in shortfalls]
    assert costs == sorted(costs)


@given(st.floats(min_value=350.0, max_value=702.98), st.floats(min_value=350.0, max_value=702.98))
@settings(max_examples=60)
def test_smoothness_monotone_in_jump(defaults, a, b):
    _, _, params, consts = defaults
    lo, hi = sorted((a, b))
    assert (
        smoothness_cost(95.11, 95.11 + lo, params, consts)
        <= smoothness_cost(95.11, 95.11 + hi, params, consts)
    )
