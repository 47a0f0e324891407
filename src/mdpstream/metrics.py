"""Session summaries and cross-run aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

from .model import left_sum
from .sim import ScenarioConfig, SegmentRecord, Trace


# The per-user fields of a ``SessionSummary``, in CSV order.
PER_USER_METRICS = (
    "avg_bitrate_kbps", "buffering_ratio", "stall_events_per_second",
    "stalled_frames_per_second", "significant_variations",
)


@dataclass(frozen=True)
class SessionSummary:
    """Per-session quality and money metrics.

    Per-user tuples are ordered by user index.  The buffering ratio is
    stall time over wall-clock time, where each user's wall clock is the
    nominal session length extended by its own stalls.  Significant
    variations count rate changes between consecutive delivered segments
    at or beyond the configured threshold.
    """

    arm: str
    run_index: int
    avg_bitrate_kbps: tuple[float, ...]
    buffering_ratio: tuple[float, ...]
    stall_events_per_second: tuple[float, ...]
    stalled_frames_per_second: tuple[float, ...]
    significant_variations: tuple[int, ...]
    profit: float


def summarize(
    trace: Sequence[SegmentRecord] | Trace,
    config: ScenarioConfig,
    arm: str = "",
    run_index: int = 0,
) -> SessionSummary:
    """Summarize one session: a list of records, or run ``run_index`` of a
    columnar ``Trace``.  Sums run left to right over Python floats."""
    names = ("rate_kbps", "rebuffer_s", "stage_profit")
    if isinstance(trace, Trace):
        rate_rows, stall_rows, profits = (getattr(trace, f)[run_index].tolist() for f in names)
    else:
        rate_rows, stall_rows, profits = ([getattr(rec, f) for rec in trace] for f in names)
    if not profits:
        raise ValueError("cannot summarize an empty trace")
    n = config.num_users
    horizon = len(profits)
    nominal = horizon * config.segment_seconds
    threshold = config.profit.variation_threshold_kbps

    avg_bitrate, ratios, events, frames, variations = [], [], [], [], []
    for u in range(n):
        rates = [row[u] for row in rate_rows]
        stalls = [row[u] for row in stall_rows]
        total_stall = left_sum(stalls)
        wall = nominal + total_stall
        avg_bitrate.append(left_sum(rates) / horizon)
        ratios.append(total_stall / wall)
        events.append(sum(1 for s in stalls if s > 0) / wall)
        frames.append(total_stall * config.frames_per_second / wall)
        # Jumps between delivered segments only; the initial rate index is a
        # solver convention, not a segment.
        variations.append(sum(
            1 for a, b in zip(rates, rates[1:]) if abs(b - a) >= threshold
        ))

    return SessionSummary(
        arm=arm,
        run_index=run_index,
        avg_bitrate_kbps=tuple(avg_bitrate),
        buffering_ratio=tuple(ratios),
        stall_events_per_second=tuple(events),
        stalled_frames_per_second=tuple(frames),
        significant_variations=tuple(variations),
        profit=left_sum(profits),
    )


def aggregate_runs(
    summaries: Sequence[SessionSummary],
) -> dict[str, tuple[float, float]]:
    """Mean and sample standard deviation of every metric across runs.

    Keys name users 1-based (``u1_avg_bitrate_kbps``, ...) followed by
    ``profit``; a single run aggregates with standard deviation 0.
    """
    if not summaries:
        raise ValueError("cannot aggregate zero summaries")
    n = len(summaries[0].avg_bitrate_kbps)
    if any(len(s.avg_bitrate_kbps) != n for s in summaries):
        raise ValueError("summaries disagree on the number of users")

    def stats(values: list[float]) -> tuple[float, float]:
        mean = left_sum(values) / len(values)
        if len(values) == 1:
            return mean, 0.0
        var = left_sum((v - mean) ** 2 for v in values) / (len(values) - 1)
        return mean, math.sqrt(var)

    out: dict[str, tuple[float, float]] = {}
    for name in PER_USER_METRICS:
        for u in range(n):
            values = [float(getattr(s, name)[u]) for s in summaries]
            out[f"u{u + 1}_{name}"] = stats(values)
    out["profit"] = stats([s.profit for s in summaries])
    return out
