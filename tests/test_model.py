"""Domain types: ladder, channel model, canonical state index, bandwidth mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpstream.model import (
    ChannelModel,
    ConfigurationError,
    QualityLadder,
    map_bandwidth_to_state,
    state_space_size,
)
from mdpstream.mdp import PolicyTable, state_index
from support import all_states, make_channel, make_ladder


# ------------------------------ QualityLadder ------------------------------


def test_ladder_accessors():
    ladder = make_ladder()
    assert ladder.r_min == 95.11
    assert ladder.r_max == 798.09
    assert len(ladder) == 5


@pytest.mark.parametrize("rates", [(), (0.0, 10.0), (-5.0,), (100.0, 100.0), (200.0, 100.0)])
def test_ladder_rejects_bad_rates(rates):
    with pytest.raises(ConfigurationError):
        QualityLadder(rates)


def test_channel_accessors():
    channel = make_channel()
    assert channel.num_states == 4
    assert channel.bw_min == 95.0
    assert channel.state_bandwidth[2] == 512.0


def test_channel_rejects_bad_row_sum():
    bad = [[0.5, 0.4], [0.5, 0.5]]
    with pytest.raises(ConfigurationError, match="row 0"):
        ChannelModel(np.array(bad), (100.0, 200.0), (150.0,))


def test_channel_rejects_non_square():
    with pytest.raises(ConfigurationError):
        ChannelModel(np.ones((2, 3)) / 3, (100.0, 200.0), (150.0,))


def test_channel_rejects_entry_out_of_range():
    bad = [[1.2, -0.2], [0.5, 0.5]]
    with pytest.raises(ConfigurationError):
        ChannelModel(np.array(bad), (100.0, 200.0), (150.0,))


def test_channel_rejects_unsorted_bandwidths():
    ident = np.eye(2)
    with pytest.raises(ConfigurationError):
        ChannelModel(ident, (200.0, 100.0), (150.0,))
    with pytest.raises(ConfigurationError):
        ChannelModel(ident, (100.0, 200.0), ())  # missing boundary


@pytest.mark.parametrize("bandwidths, boundaries, state, mapped", [
    ((95.0, 600.0, 700.0, 896.0), (256.0, 512.0, 896.0), 1, 2),  # above its region
    ((95.0, 256.0, 512.0, 890.0), (256.0, 512.0, 896.0), 3, 2),  # below its region
    ((256.0, 300.0), (256.0,), 0, 1),  # a boundary belongs to the upper region
])
def test_channel_refuses_representative_outside_its_region(bandwidths, boundaries, state, mapped):
    with pytest.raises(ConfigurationError, match=(
        f"state {state}'s representative bandwidth {bandwidths[state]} Kbps maps to "
        f"state {mapped}; adjust the boundaries or the representative"
    )):
        make_channel(np.eye(len(bandwidths)), bandwidths, boundaries)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field, build", [
    ("ladder rates", lambda x: QualityLadder((100.0, x))),
    ("transition entries", lambda x: make_channel([[1.0, 0.0], [x, 0.5]], (100.0, 200.0), (150.0,))),
    ("state bandwidths", lambda x: make_channel(np.eye(2), (100.0, x), (150.0,))),
    ("region boundaries", lambda x: make_channel(np.eye(2), (100.0, 200.0), (x,))),
])
def test_model_refuses_non_finite_numbers(field, build, bad):
    with pytest.raises(ConfigurationError, match=f"^{field} must be finite, got {bad!r}$"):
        build(bad)


def test_channel_matrix_is_read_only():
    channel = make_channel()
    with pytest.raises(ValueError):
        channel.transition[0, 0] = 0.9


def test_stationary_distribution_default_matrix():
    pi = make_channel().stationary_distribution()
    expected = np.array([2.0, 5.0, 10.0, 10.0]) / 27.0
    np.testing.assert_allclose(pi, expected, atol=1e-12)
    assert pi.sum() == pytest.approx(1.0, abs=1e-12)


def test_stationary_distribution_two_state():
    # hand-solved: flip matrix [[.9,.1],[.3,.7]] -> pi = (.75, .25)
    channel = ChannelModel(
        np.array([[0.9, 0.1], [0.3, 0.7]]), (100.0, 200.0), (150.0,)
    )
    np.testing.assert_allclose(
        channel.stationary_distribution(), [0.75, 0.25], atol=1e-12
    )


def test_stationary_distribution_solved_once_and_read_only(monkeypatch):
    # the balance-equation solve written out in full; the stored result
    # must carry its bits, refuse writes and cost one lstsq per model
    channel = make_channel()
    k = channel.num_states
    a = np.vstack([channel.transition.T - np.eye(k), np.ones((1, k))])
    b = np.zeros(k + 1)
    b[-1] = 1.0
    sol, *_ = np.linalg.lstsq(a, b, rcond=None)
    sol = np.clip(sol, 0.0, None)
    want = sol / sol.sum()

    lstsq, calls = np.linalg.lstsq, []

    def counting(*args, **kwargs):
        calls.append(1)
        return lstsq(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "lstsq", counting)
    pi = channel.stationary_distribution()
    assert pi.tobytes() == want.tobytes()
    with pytest.raises(ValueError):
        pi[0] = 0.5
    assert channel.stationary_distribution() is pi
    assert len(calls) == 1
    other = make_channel()
    assert other.stationary_distribution().tobytes() == want.tobytes() and len(calls) == 2


# --------------------------- bandwidth -> state ----------------------------


def test_map_bandwidth_examples():
    channel = make_channel()
    assert map_bandwidth_to_state(100.0, channel) == 0
    assert map_bandwidth_to_state(256.0, channel) == 1  # boundary joins the upper region
    assert map_bandwidth_to_state(500.0, channel) == 1
    assert map_bandwidth_to_state(512.0, channel) == 2
    assert map_bandwidth_to_state(1500.0, channel) == 3


def test_map_bandwidth_rejects_nonpositive():
    channel = make_channel()
    with pytest.raises(ValueError):
        map_bandwidth_to_state(0.0, channel)
    with pytest.raises(ValueError):
        map_bandwidth_to_state(-10.0, channel)


def test_map_round_trip_on_representatives():
    channel = make_channel()
    for k in range(channel.num_states):
        assert map_bandwidth_to_state(channel.state_bandwidth[k], channel) == k


@given(st.floats(min_value=0.01, max_value=5000.0), st.floats(min_value=0.01, max_value=5000.0))
@settings(max_examples=80)
def test_map_bandwidth_monotone(a, b):
    channel = make_channel()
    lo, hi = sorted((a, b))
    assert map_bandwidth_to_state(lo, channel) <= map_bandwidth_to_state(hi, channel)


# ------------------------------- state space -------------------------------


def test_state_space_sizes():
    full = (make_ladder(), make_channel())
    assert state_space_size(*full, 2) == 400
    tiny = (make_ladder((100.0,)), make_channel([[1.0]], (100.0,), ()))
    assert state_space_size(*tiny, 1) == 1
    small = (
        make_ladder((100.0, 200.0)),
        make_channel([[0.5, 0.5], [0.5, 0.5]], (80.0, 300.0), (150.0,)),
    )
    assert state_space_size(*small, 2) == 16


def test_state_index_canonical_order():
    ladder = make_ladder((100.0, 200.0))
    channel = make_channel([[0.5, 0.5], [0.5, 0.5]], (80.0, 300.0), (150.0,))
    states = all_states(ladder, channel, 2)
    # user 0 varies slowest; within a user, rate index before channel index
    assert states[0] == ((0, 0), (0, 0))
    assert states[1] == ((0, 0), (0, 1))
    assert states[2] == ((0, 1), (0, 0))
    assert states[4] == ((0, 0), (1, 0))
    assert states[-1] == ((1, 1), (1, 1))
    for i, (rates, chans) in enumerate(states):
        assert state_index(rates, chans, 2, 2) == i


def test_enumerate_states_counts_and_uniqueness():
    ladder, channel = make_ladder(), make_channel()
    states = all_states(ladder, channel, 2)
    assert len(states) == 400
    assert len(set(states)) == 400
    assert state_space_size(ladder, channel, 2) == 400


def test_state_index_round_trip_full():
    ladder, channel = make_ladder(), make_channel()
    states = all_states(ladder, channel, 2)
    for i, (rates, chans) in enumerate(states):
        assert state_index(rates, chans, 5, 4) == i
    rates, chans = (np.array(part) for part in zip(*states))
    assert np.array_equal(state_index(rates, chans, 5, 4), np.arange(400))


def small_table():
    return PolicyTable(ladder_size=5, num_channel_states=4, num_users=2, horizon=1,
                       fingerprint="", values=np.zeros((2, 400)),
                       action_digits=np.zeros((1, 2), dtype=np.int64),
                       action_ids=np.zeros((1, 400), dtype=np.uint8))


def test_state_index_rejects_out_of_range():
    table = small_table()
    assert table.state_index((4, 4), (3, 3)) == 399
    for rates, chans in (((5, 0), (0, 0)), ((0, 0), (0, 4)), ((-1, 0), (0, 0)), ((0, 0), (0, -1))):
        with pytest.raises(ValueError, match="out of range"):
            table.state_index(rates, chans)


def test_table_refuses_mismatched_and_negative_states():
    table = small_table()
    for lookup in (table.state_index, lambda r, c: table.value(0, r, c),
                   lambda r, c: table.actions(0, r, c)):
        for rates, chans in (((), ()), ((0, 1), (0,)), ((0,), (0,)), ((0, 1, 2), (0, 1, 2))):
            with pytest.raises(ValueError, match="table solved for 2 users"):
                lookup(rates, chans)
        for rates, chans in (((-1, 0), (0, 0)), ((0, 0), (0, -1))):
            with pytest.raises(ValueError, match="out of range"):
                lookup(rates, chans)
    assert table.value(1, (1, 2), (3, 0)) == 0.0
