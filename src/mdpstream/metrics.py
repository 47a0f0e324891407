"""Session summaries and cross-run aggregation."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .model import left_sum
from .sim import ScenarioConfig, SegmentRecord, Trace


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


# The per-user fields of a ``SessionSummary``, in CSV order: all but the
# arm, the run index and the profit.
PER_USER_METRICS = tuple(f.name for f in fields(SessionSummary))[2:-1]


def summarize_runs(
    rate_kbps: np.ndarray,
    rebuffer_s: np.ndarray,
    stage_profit: np.ndarray,
    config: ScenarioConfig,
    labels: Sequence[tuple[str, int]],
) -> list[SessionSummary]:
    """Summarize every run of (runs, horizon, users) rates and stall times
    and (runs, horizon) stage profits at once, run i under the (arm, run
    index) pair ``labels[i]``.  Sums run left to right along the horizon,
    each run's on its own, so a summary does not depend on which runs are
    summarized with it."""
    horizon = stage_profit.shape[1]
    # left_sum(x.transpose(1, 0, 2)) sums over the horizon axis
    total_stall = left_sum(rebuffer_s.transpose(1, 0, 2))
    wall = horizon * config.segment_seconds + total_stall
    columns = (
        left_sum(rate_kbps.transpose(1, 0, 2)) / horizon,
        total_stall / wall,
        np.count_nonzero(rebuffer_s > 0, axis=1) / wall,
        total_stall * config.frames_per_second / wall,
        # Jumps between delivered segments only; the initial rate index is a
        # solver convention, not a segment.
        np.count_nonzero(np.abs(np.diff(rate_kbps, axis=1))
                         >= config.profit.variation_threshold_kbps, axis=1),
    )
    per_user = zip(*(map(tuple, column.tolist()) for column in columns))
    profits = left_sum(stage_profit.T).tolist()
    return [SessionSummary(arm, run, *fields, profit)
            for (arm, run), fields, profit in zip(labels, per_user, profits)]


def summarize(
    trace: Sequence[SegmentRecord] | Trace,
    config: ScenarioConfig,
    arm: str = "",
    run_index: int = 0,
) -> SessionSummary:
    """Summarize one session: a list of records, or run ``run_index`` of a
    columnar ``Trace``, through ``summarize_runs``."""
    names = ("rate_kbps", "rebuffer_s", "stage_profit")
    if isinstance(trace, Trace):
        columns = [getattr(trace, name)[[run_index]] for name in names]
    elif not trace:
        raise ValueError("cannot summarize an empty trace")
    else:
        columns = [np.array([[getattr(rec, name) for rec in trace]], dtype=float)
                   for name in names]
    return summarize_runs(*columns, config, [(arm, run_index)])[0]


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
