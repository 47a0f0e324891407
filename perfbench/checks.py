"""Output checks run inside the child after the timed phases.

Digests (compared against ``golden.json`` and across repetitions by
``run.py``) and invariants that hold at any seed:

- delivered bandwidth, each user's min(delivered, requested rate) summed
  over users, never exceeds the cap when the bottleneck is shared, and
  the proposed arm never requests more than the cap;
- every buffer level follows from the previous one and the download time;
- every ``summary.csv`` row equals ``metrics.summarize`` recomputed from
  the row's trace CSV.
"""

from __future__ import annotations

import csv
import hashlib
import math
import os

import numpy as np

# Trace CSVs hold 12 significant digits; recomputed quantities agree with
# them far inside this tolerance unless the program changed.
REL_TOL = 1e-9
ABS_TOL = 1e-8

_USER_FIELDS = (
    "rate_kbps", "channel_state", "effective_bw_kbps", "download_s",
    "rebuffer_s", "buffer_s", "income", "buffering_cost", "variation_cost",
)


def table_digest(table) -> dict:
    """SHA-256 of the action array (with its shape) and the values at a
    few (epoch, state) points, which are compared within a tolerance."""
    actions = np.ascontiguousarray(table.action_rate_indices, dtype="<i8")
    digest = hashlib.sha256(repr(actions.shape).encode())
    digest.update(actions.tobytes())
    horizon, states = table.values.shape[0] - 1, table.values.shape[1]
    epochs = sorted({0, horizon // 2, horizon - 1})
    picks = sorted({0, states // 3, 2 * states // 3, states - 1})
    samples = [[t, s, float(table.values[t, s])] for t in epochs for s in picks]
    return {"actions_sha256": digest.hexdigest(), "samples": samples}


def file_digests(directory: str) -> dict:
    """SHA-256 of every file under ``directory``, keyed by relative path."""
    out = {}
    for base, _dirs, files in os.walk(directory):
        for name in files:
            path = os.path.join(base, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, directory)] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def records_digest(traces) -> str:
    """SHA-256 of a list of session traces, floats at the CSV's precision."""
    digest = hashlib.sha256()
    for trace in traces:
        for rec in trace:
            fields = [rec.epoch]
            for name in _USER_FIELDS:
                fields.extend(getattr(rec, name))
            fields += [rec.bottleneck_cost, rec.stage_profit]
            digest.update((",".join(format(f, ".12g") for f in fields) + "\n").encode())
        digest.update(b"--\n")
    return digest.hexdigest()


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=ABS_TOL)


def check_session(trace, config, arm: str, cap: float, where: str) -> list[str]:
    """Cap and buffer-conservation invariants of one session."""
    problems = []
    level = [config.initial_buffer_seconds] * config.num_users
    seg = config.segment_seconds
    for rec in trace:
        delivered = sum(min(b, r) for b, r in zip(rec.effective_bw_kbps, rec.rate_kbps))
        if config.sharing_mode == "proportional" and delivered > cap * (1 + REL_TOL):
            problems.append(f"{where} epoch {rec.epoch}: delivered {delivered} > cap {cap}")
        if arm == "proposed" and math.isinf(config.profit.congestion_price) \
                and sum(rec.rate_kbps) > cap * (1 + REL_TOL):
            problems.append(f"{where} epoch {rec.epoch}: requested {sum(rec.rate_kbps)} > cap {cap}")
        for u in range(config.num_users):
            stall = max(0.0, rec.download_s[u] - level[u])
            after = max(0.0, level[u] - rec.download_s[u]) + seg
            if not (close(rec.rebuffer_s[u], stall) and close(rec.buffer_s[u], after)):
                problems.append(f"{where} epoch {rec.epoch} user {u + 1}: buffer not conserved")
            level[u] = rec.buffer_s[u]
        if problems:
            break  # one bad epoch is enough to fail the session
    return problems


def _read_csv(path: str) -> tuple[list[str], list[list[str]]]:
    with open(path, "r", encoding="ascii", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def _parse_trace(path: str, num_users: int, SegmentRecord) -> list:
    _header, rows = _read_csv(path)
    records = []
    width = len(_USER_FIELDS)
    for row in rows:
        per_user = {name: [] for name in _USER_FIELDS}
        for u in range(num_users):
            cells = row[1 + u * width: 1 + (u + 1) * width]
            for name, cell in zip(_USER_FIELDS, cells):
                per_user[name].append(int(cell) if name == "channel_state" else float(cell))
        records.append(SegmentRecord(
            epoch=int(row[0]),
            **{name: tuple(values) for name, values in per_user.items()},
            bottleneck_cost=float(row[-2]),
            stage_profit=float(row[-1]),
        ))
    return records


def _trace_name(arm: str, axis: str, value: str, run: str) -> str:
    if axis == "none":
        return f"trace_{arm}_run{run}.csv"
    return f"trace_{arm}_{axis}{float(value):g}_run{run}.csv"


def check_cli_outputs(ms, out_dir: str, config, arms) -> list[str]:
    """Invariants of one ``mdpstream run`` output directory."""
    problems = []
    _header, rows = _read_csv(os.path.join(out_dir, "summary.csv"))
    traces = os.listdir(os.path.join(out_dir, "traces"))
    if len(rows) != len(traces):
        problems.append(f"{len(rows)} summary rows but {len(traces)} trace files")
    if {row[0] for row in rows} != set(arms):
        problems.append(f"summary arms {sorted({row[0] for row in rows})} != {sorted(arms)}")
    for row in rows:
        arm, axis, value, run = row[:4]
        name = _trace_name(arm, axis, value, run)
        scenario = config.with_rate_cap(float(value)) if axis == "rate_cap" else config
        trace = _parse_trace(os.path.join(out_dir, "traces", name),
                             config.num_users, ms.sim.SegmentRecord)
        problems += check_session(trace, scenario, arm,
                                  scenario.profit.total_rate_cap_kbps, name)
        summary = ms.metrics.summarize(trace, scenario, arm=arm, run_index=int(run))
        expected = []
        for u in range(config.num_users):
            expected += [
                summary.avg_bitrate_kbps[u], summary.buffering_ratio[u],
                summary.stall_events_per_second[u], summary.stalled_frames_per_second[u],
                summary.significant_variations[u],
            ]
        expected.append(summary.profit)
        got = [float(cell) for cell in row[4:]]
        if len(got) != len(expected) or not all(map(close, got, expected)):
            problems.append(f"summary row for {name} differs from summarize(trace)")
    return problems
