"""Session summaries and cross-run aggregation."""

import numpy as np
import pytest

from mdpstream.metrics import SessionSummary, aggregate_runs, summarize
from mdpstream.policies import Proposed
from mdpstream.sim import ScenarioConfig, SegmentRecord, run_session
from support import make_channel, make_ladder, make_params


def one_user_config(**overrides):
    base = dict(
        ladder=make_ladder(),
        channel=make_channel(),
        profit=make_params(priorities=(1.0,)),
        num_users=1,
        horizon=4,
        num_runs=1,
        name="tiny",
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def row(epoch, rate, stall, profit):
    """Trace row with only the fields summarize reads filled in."""
    return SegmentRecord(
        epoch=epoch,
        rate_kbps=(rate,),
        channel_state=(0,),
        effective_bw_kbps=(rate,),
        download_s=(1.0,),
        rebuffer_s=(stall,),
        buffer_s=(1.0,),
        income=(0.0,),
        buffering_cost=(0.0,),
        variation_cost=(0.0,),
        bottleneck_cost=0.0,
        stage_profit=profit,
    )


# -------------------------------- summarize --------------------------------


def test_hand_trace_metrics():
    config = one_user_config()
    trace = [
        row(0, 95.11, 0.0, 0.1),
        row(1, 364.63, 1.0, 0.2),
        row(2, 798.09, 0.0, 0.3),
        row(3, 798.09, 0.0, 0.4),
    ]
    s = summarize(trace, config, "hand", 5)
    assert s.arm == "hand"
    assert s.run_index == 5
    assert s.avg_bitrate_kbps[0] == pytest.approx((95.11 + 364.63 + 2 * 798.09) / 4)
    # one second stalled against four nominal seconds of playback
    assert s.buffering_ratio[0] == pytest.approx(1.0 / 5.0)
    assert s.stall_events_per_second[0] == pytest.approx(1.0 / 5.0)
    assert s.stalled_frames_per_second[0] == pytest.approx(24.0 / 5.0)
    # 269.52 and 0 stay under the 350 threshold; 433.46 crosses it
    assert s.significant_variations[0] == 1
    assert s.profit == pytest.approx(1.0)


def test_zero_stall_trace_has_zero_stall_metrics():
    config = one_user_config(horizon=3)
    trace = [row(t, 364.63, 0.0, 0.0) for t in range(3)]
    s = summarize(trace, config, "quiet", 0)
    assert s.buffering_ratio == (0.0,)
    assert s.stall_events_per_second == (0.0,)
    assert s.stalled_frames_per_second == (0.0,)
    assert s.avg_bitrate_kbps == (pytest.approx(364.63),)


def test_variation_counts_threshold_inclusive():
    config = one_user_config(horizon=2)
    s = summarize([row(0, 100.0, 0.0, 0.0), row(1, 450.0, 0.0, 0.0)], config)
    assert s.significant_variations == (1,)  # exactly 350 counts


def test_variation_ignores_pre_session_rate():
    # the configured initial rate index is 0 but the first delivered segment
    # already rides the top rung; only segment-to-segment changes count
    config = one_user_config(horizon=2)
    s = summarize([row(0, 798.09, 0.0, 0.0), row(1, 798.09, 0.0, 0.0)], config)
    assert s.significant_variations == (0,)


def test_summarize_rejects_empty_trace():
    with pytest.raises(ValueError):
        summarize([], one_user_config())


def test_profit_sums_left_to_right():
    # Python 3.12+ sum() compensates and would give 1.0 here
    s = summarize([row(t, 95.11, 0.0, 0.1) for t in range(10)], one_user_config(horizon=10))
    assert s.profit == 0.9999999999999999


# ------------------------------ aggregation --------------------------------


def make_summary(run, bitrates, ratios, profit):
    n = len(bitrates)
    return SessionSummary(
        arm="x",
        run_index=run,
        avg_bitrate_kbps=tuple(bitrates),
        buffering_ratio=tuple(ratios),
        stall_events_per_second=(0.0,) * n,
        stalled_frames_per_second=(0.0,) * n,
        significant_variations=(0,) * n,
        profit=profit,
    )


def test_aggregate_matches_numpy():
    summaries = [
        make_summary(0, (300.0, 200.0), (0.0, 0.1), 10.0),
        make_summary(1, (320.0, 210.0), (0.02, 0.0), 12.0),
        make_summary(2, (280.0, 190.0), (0.01, 0.05), 9.0),
    ]
    agg = aggregate_runs(summaries)
    for key, values in [
        ("u1_avg_bitrate_kbps", [300.0, 320.0, 280.0]),
        ("u2_avg_bitrate_kbps", [200.0, 210.0, 190.0]),
        ("u1_buffering_ratio", [0.0, 0.02, 0.01]),
        ("u2_buffering_ratio", [0.1, 0.0, 0.05]),
        ("profit", [10.0, 12.0, 9.0]),
    ]:
        mean, std = agg[key]
        assert mean == pytest.approx(np.mean(values))
        assert std == pytest.approx(np.std(values, ddof=1))


def test_aggregate_key_layout():
    agg = aggregate_runs([make_summary(0, (1.0, 2.0), (0.0, 0.0), 0.0)])
    assert sorted(agg) == sorted(
        [f"u{u}_{name}" for u in (1, 2) for name in (
            "avg_bitrate_kbps",
            "buffering_ratio",
            "stall_events_per_second",
            "stalled_frames_per_second",
            "significant_variations",
        )] + ["profit"]
    )


def test_aggregate_is_order_invariant():
    summaries = [
        make_summary(0, (300.0,), (0.0,), 10.0),
        make_summary(1, (320.0,), (0.02,), 12.0),
        make_summary(2, (280.0,), (0.01,), 9.0),
    ]
    assert aggregate_runs(summaries) == aggregate_runs(summaries[::-1])


def test_aggregate_single_run_has_zero_std():
    agg = aggregate_runs([make_summary(0, (300.0,), (0.1,), 5.0)])
    assert agg["u1_avg_bitrate_kbps"] == (300.0, 0.0)
    assert agg["profit"] == (5.0, 0.0)


def test_aggregate_rejects_mixed_user_counts():
    with pytest.raises(ValueError):
        aggregate_runs([
            make_summary(0, (1.0,), (0.0,), 0.0),
            make_summary(1, (1.0, 2.0), (0.0, 0.0), 0.0),
        ])


def test_aggregate_rejects_empty():
    with pytest.raises(ValueError):
        aggregate_runs([])


# ------------------------------- regression --------------------------------


def test_fair_run_zero_summary_snapshot(fair_config, fair_table):
    """Seeded end-to-end pin: any drift in sampling, policy lookup, or the
    economics shows up here first."""
    s = summarize(run_session(fair_config, Proposed(fair_table), 0),
                  fair_config, "proposed", 0)
    assert s.avg_bitrate_kbps[0] == pytest.approx(314.4096, abs=1e-6)
    assert s.avg_bitrate_kbps[1] == pytest.approx(295.84, abs=1e-6)
    assert s.buffering_ratio == (0.0, 0.0)
    assert s.significant_variations == (0, 0)
    assert s.profit == pytest.approx(24.042978192852555, abs=1e-9)
