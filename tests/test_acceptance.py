"""Program-level checks tying the solver, the simulator, and the command
line together.  Each test pins one externally meaningful property of the
default two-user scenarios; see README.md for the one documented gap.
"""

import csv
import time
from itertools import product
from types import SimpleNamespace

import numpy as np
import pytest
import yaml

from mdpstream import mdp
from mdpstream.cli import main, table_filename
from mdpstream.configfile import save_scenario
from mdpstream.economics import derive_constants
from mdpstream.mdp import backward_induction, feasible_actions
from mdpstream.metrics import aggregate_runs, summarize
from mdpstream.policies import IdealOracle, Myopic, Proposed
from mdpstream.presets import fair_scenario
from mdpstream.sim import run_session
from support import enumerate_policy_value, expectimax_value, random_instance

RUNS = 15


def batch(config, policies):
    """Traces and summaries for every (arm, run) cell, plus the wall time."""
    start = time.monotonic()
    traces, summaries = {}, {}
    for arm, policy in policies.items():
        traces[arm] = [run_session(config, policy, r) for r in range(RUNS)]
        summaries[arm] = [
            summarize(t, config, arm=arm, run_index=r)
            for r, t in enumerate(traces[arm])
        ]
    return SimpleNamespace(
        traces=traces,
        means={arm: aggregate_runs(s) for arm, s in summaries.items()},
        elapsed=time.monotonic() - start,
    )


@pytest.fixture(scope="module")
def fair_batch(fair_config, fair_table):
    return batch(fair_config, {
        "proposed": Proposed(fair_table),
        "myopic": Myopic(fair_config.ladder),
        "ideal": IdealOracle(),
    })


@pytest.fixture(scope="module")
def diff_batch(diff_config, diff_table):
    return batch(diff_config, {
        "proposed": Proposed(diff_table),
        "client_centric": Myopic(diff_config.ladder),
    })


# 1 -------------------------------------------------------------------------


def test_solver_matches_exhaustive_oracles():
    """Every tiny instance: the solver's epoch-0 value must equal a literal
    search over deterministic time-indexed policies.  Where the policy space
    fits, the search is enumerated outright; elsewhere the equivalent
    action-by-action recursion stands in, itself cross-checked against the
    enumeration on the instances small enough to do both."""
    start = time.monotonic()
    checked_enumeration = 0
    combos = list(product((1, 2), (1, 2), (1, 2), (1, 2, 3)))
    for i, (m, k, n, horizon) in enumerate(combos):
        rng = np.random.default_rng(9000 + i)
        ladder, channel, params, consts = random_instance(
            rng, m, k, n, finite_price=(i % 2 == 0)
        )
        table = backward_induction(ladder, channel, params, consts, horizon)
        num_actions = len(feasible_actions(n, ladder, params))
        num_states = (m * k) ** n
        small_enough = num_actions ** (num_states * horizon) <= 4096
        for rates in product(range(m), repeat=n):
            for chans in product(range(k), repeat=n):
                got = table.value(0, rates, chans)
                if small_enough:
                    want = enumerate_policy_value(
                        ladder, channel, params, consts, horizon, rates, chans
                    )
                    checked_enumeration += 1
                else:
                    want = expectimax_value(
                        ladder, channel, params, consts, horizon, rates, chans
                    )
                assert got == pytest.approx(want, abs=1e-9), (m, k, n, horizon)
    assert checked_enumeration >= 20  # the literal oracle must actually run
    assert time.monotonic() - start < 10.0


# 2 -------------------------------------------------------------------------


def test_profit_pieces_hit_their_weights(fair_config):
    from mdpstream.economics import buffering_cost, playback_income, smoothness_cost

    params = fair_config.profit
    consts = derive_constants(fair_config.ladder, fair_config.channel, params)
    top = fair_config.ladder.r_max
    bottom = fair_config.ladder.r_min
    worst_bw = min(fair_config.channel.state_bandwidth)
    assert playback_income(top, 896.0, params, consts) == pytest.approx(
        0.3, abs=1e-12
    )
    assert buffering_cost(top, worst_bw, params, consts) == pytest.approx(
        0.5, abs=1e-12
    )
    assert smoothness_cost(bottom, top, params, consts) == pytest.approx(
        0.2, abs=1e-12
    )


# 3 -------------------------------------------------------------------------


def test_fair_profit_ordering(fair_batch):
    proposed = fair_batch.means["proposed"]["profit"][0]
    myopic = fair_batch.means["myopic"]["profit"][0]
    ideal = fair_batch.means["ideal"]["profit"][0]
    assert ideal >= proposed > myopic
    assert fair_batch.elapsed < 120.0


def test_fair_proposed_close_to_ideal(fair_batch):
    """Known red: the causal policy earns ~77% of the hindsight planner's
    profit on this scenario, short of the 90% this test demands.  The gap is
    the value of seeing next second's bandwidth before committing, which no
    amount of solving recovers; README.md walks through the numbers.  The
    assertion is kept at its intended strength rather than tuned to pass."""
    proposed = fair_batch.means["proposed"]["profit"][0]
    ideal = fair_batch.means["ideal"]["profit"][0]
    assert proposed >= 0.9 * ideal, (
        f"proposed mean profit {proposed:.3f} is "
        f"{proposed / ideal:.1%} of ideal {ideal:.3f}, below 90%"
    )


# 4 -------------------------------------------------------------------------


def test_differentiated_premium_user_protected(diff_batch):
    means = diff_batch.means["proposed"]
    assert means["u1_buffering_ratio"] == (0.0, 0.0)  # never stalls, any run
    assert means["u1_avg_bitrate_kbps"][0] > means["u2_avg_bitrate_kbps"][0]


def test_client_centric_contention_is_symmetric(diff_batch):
    means = diff_batch.means["client_centric"]
    assert means["u1_buffering_ratio"][0] > 0.0
    assert means["u2_buffering_ratio"][0] > 0.0
    b1 = means["u1_avg_bitrate_kbps"][0]
    b2 = means["u2_avg_bitrate_kbps"][0]
    assert abs(b1 - b2) / ((b1 + b2) / 2) < 0.15


# 5 -------------------------------------------------------------------------


def test_differentiated_rates_change_smoothly(diff_batch, diff_config):
    threshold = diff_config.profit.variation_threshold_kbps
    jumps = 0
    for trace in diff_batch.traces["proposed"]:
        for u in range(diff_config.num_users):
            rates = [rec.rate_kbps[u] for rec in trace]
            jumps += sum(
                1 for a, b in zip(rates, rates[1:]) if abs(b - a) >= threshold
            )
    assert jumps <= 1


# 6 -------------------------------------------------------------------------


def test_transition_probabilities_close(fair_config):
    # the joint channel matrix the solver takes expectations with: each row
    # is a distribution, each entry the product of the per-user moves
    n, k = fair_config.num_users, fair_config.channel.num_states
    tables = mdp._ActionTables(fair_config.ladder, fair_config.channel, fair_config.profit)
    joint = tables.joint_channel
    assert joint.shape == (k ** n, k ** n)
    np.testing.assert_allclose(joint.sum(axis=1), 1.0, rtol=0, atol=1e-9)
    per_user = fair_config.channel.transition
    for src, dst in product(product(range(k), repeat=n), repeat=2):
        want = per_user[src[0], dst[0]] * per_user[src[1], dst[1]]
        assert joint[src[0] * k + src[1], dst[0] * k + dst[1]] == want
    # rates move to the action's vector: its future term reads that row
    assert np.array_equal(tables.rate_digits[tables.action_multi], tables.action_digits)


def test_proposed_never_exceeds_cap(fair_batch, diff_batch, fair_config):
    cap = fair_config.profit.total_rate_cap_kbps
    for source in (fair_batch, diff_batch):
        for trace in source.traces["proposed"]:
            for rec in trace:
                assert sum(rec.rate_kbps) <= cap + 1e-9


def test_every_trace_row_conserves_buffer(fair_batch, fair_config):
    seg = fair_config.segment_seconds
    for traces in fair_batch.traces.values():
        for trace in traces:
            for u in range(fair_config.num_users):
                level = fair_config.initial_buffer_seconds
                for rec in trace:
                    assert rec.rebuffer_s[u] == pytest.approx(
                        max(0.0, rec.download_s[u] - level), abs=1e-12
                    )
                    assert rec.buffer_s[u] == pytest.approx(
                        max(0.0, level - rec.download_s[u]) + seg, abs=1e-12
                    )
                    level = rec.buffer_s[u]


# 7 -------------------------------------------------------------------------


def test_repeated_runs_write_identical_csvs(tmp_path):
    scenario = fair_scenario(horizon=40, num_runs=4, name="repeat")
    scenario_path = tmp_path / "repeat.cfg"
    save_scenario(scenario, str(scenario_path))
    (tmp_path / "exp.yaml").write_text(yaml.safe_dump({
        "scenario": "repeat.cfg",
        "arms": ["proposed", "myopic", "ideal"],
    }), encoding="utf-8")
    tables = tmp_path / "tables"
    assert main([
        "solve", "--config", str(scenario_path),
        "--out", str(tables / table_filename("repeat", 850.0, 40)),
    ]) == 0

    outputs = []
    for name in ("first", "second"):
        out = tmp_path / name
        assert main([
            "run", "--spec", str(tmp_path / "exp.yaml"),
            "--out-dir", str(out), "--tables-dir", str(tables),
        ]) == 0
        outputs.append(out)
    first, second = outputs
    assert (first / "summary.csv").read_bytes() == \
        (second / "summary.csv").read_bytes()
    assert (first / "aggregate.csv").read_bytes() == \
        (second / "aggregate.csv").read_bytes()
    with open(first / "summary.csv", newline="", encoding="ascii") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 1 + 3 * 4
