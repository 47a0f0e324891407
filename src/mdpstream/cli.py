"""Command line front end: solve policy tables, run experiment arms over
seeded sessions, and validate configuration files.

Exit codes: 0 on success, 1 for configuration problems (malformed files,
missing tables, violated invariants), 2 when the model itself is
infeasible (no action can respect the rate cap).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from .configfile import _floats, channel_from, check_keys, ladder_from, load_scenario, read_yaml
from .economics import derive_constants
from .mdp import (
    InfeasibleModelError,
    PolicyTable,
    backward_induction,
    feasible_actions,
    scenario_fingerprint,
)
from .metrics import PER_USER_METRICS, SessionSummary, aggregate_runs, summarize_runs
from .metrics import summarize  # noqa: F401  (perfbench wraps this name)
from .model import ConfigurationError, state_space_size
from .policies import IdealOracle, Myopic, Proposed
from .sim import USER_COLUMNS, ScenarioConfig, SegmentRecord, Trace, channel_paths, decide, score
from .sim import run_session  # noqa: F401  (perfbench traces the sessions under this name)

ARMS = ("proposed", "myopic", "ideal", "client_centric")
SWEEP_AXES = ("none", "rate_cap", "horizon")

_EXPERIMENT_KEYS = {"scenario", "arms", "sweep"}


@dataclass(frozen=True)
class ExperimentSpec:
    """One batch of sessions: which scenario, which policy arms, and an
    optional one-dimensional parameter sweep."""

    scenario_path: str
    arms: tuple[str, ...]
    sweep_axis: str = "none"
    sweep_values: tuple[float, ...] = ()

    def __post_init__(self) -> None:
        if not self.arms:
            raise ConfigurationError("experiment needs at least one arm")
        for arm in self.arms:
            if arm not in ARMS:
                raise ConfigurationError(
                    f"unknown arm {arm!r}; choose from {', '.join(ARMS)}"
                )
            if self.arms.count(arm) > 1:
                raise ConfigurationError(f"arm {arm!r} is listed twice; list each arm once")
        if self.sweep_axis not in SWEEP_AXES:
            raise ConfigurationError(
                f"unknown sweep axis {self.sweep_axis!r}; choose from {', '.join(SWEEP_AXES)}"
            )
        if self.sweep_axis == "none" and self.sweep_values:
            raise ConfigurationError("sweep values given without a sweep axis")
        if self.sweep_axis != "none" and not self.sweep_values:
            raise ConfigurationError(f"sweep over {self.sweep_axis} needs values")
        if self.sweep_axis == "horizon":
            for value in self.sweep_values:
                if not float(value).is_integer():
                    raise ConfigurationError(
                        f"horizon sweep value {value:g} is not a whole number of epochs"
                    )
        tags = [f"{value:g}" for value in self.sweep_values]  # as in the file names
        for tag in tags:
            if tags.count(tag) > 1:
                raise ConfigurationError(
                    f"sweep value {tag} is given twice; its runs would overwrite "
                    "each other's trace files"
                )


def load_experiment_spec(path: str) -> ExperimentSpec:
    data = read_yaml(path)
    check_keys(data, _EXPERIMENT_KEYS, "experiment")
    try:
        scenario_rel = data["scenario"]
        arms = data["arms"]
    except KeyError as missing:
        raise ConfigurationError(f"{path}: experiment needs {missing}") from None
    if not isinstance(scenario_rel, str):
        raise ConfigurationError(f"{path}: scenario must be a file path, e.g. scenario: fair.cfg")
    if not isinstance(arms, list):
        raise ConfigurationError(f"{path}: write the arms as a list, e.g. arms: [proposed, myopic]")
    sweep = data.get("sweep") or {}
    sweep_form = "write the sweep as sweep: {axis: rate_cap, values: [600, 850]}"
    if not isinstance(sweep, dict):
        raise ConfigurationError(f"{path}: {sweep_form}")
    axis = sweep.get("axis", "none")
    try:
        values = _floats(sweep.get("values", []), "values")
    except (TypeError, ValueError) as err:  # a ConfigurationError too
        raise ConfigurationError(f"{path}: sweep values must be numbers ({err}); {sweep_form}") from None
    scenario_path = os.path.join(os.path.dirname(os.path.abspath(path)), scenario_rel)
    return ExperimentSpec(
        scenario_path=os.path.normpath(scenario_path),
        arms=tuple(arms),
        sweep_axis=axis,
        sweep_values=values,
    )


# ----------------------------- output helpers -----------------------------


def _fmt(x: float) -> str:
    return format(float(x), ".12g")


def table_filename(scenario_name: str, cap_kbps: float, horizon: int) -> str:
    return f"policy_{scenario_name}_cap{cap_kbps:g}_T{horizon}.ptab"


def _sweep_configs(config: ScenarioConfig, spec: ExperimentSpec):
    """Yield (sweep value or None, adjusted scenario) pairs."""
    if spec.sweep_axis == "none":
        yield None, config
    elif spec.sweep_axis == "rate_cap":
        for value in spec.sweep_values:
            yield value, config.with_rate_cap(value)
    else:
        for value in spec.sweep_values:
            yield value, config.with_horizon(int(value))


def _cell_tag(arm: str, axis: str, value: float | None, run: int) -> str:
    if value is None:
        return f"{arm}_run{run}"
    return f"{arm}_{axis}{value:g}_run{run}"


def _csv_line(cells) -> bytes:
    return (",".join(cells) + "\r\n").encode("ascii")


def _write_bytes(path: str, parts) -> None:
    """Write the byte strings ``parts`` in turn to ``path`` through a
    temporary file, so a reader never sees half a file."""
    tmp = f"{path}.tmp"
    with open(tmp, "wb") as fh:
        fh.writelines(parts)
    os.replace(tmp, path)


def _write_trace(path: str, header: bytes, cells: list[bytes]) -> None:
    """Write one run as CSV: ``header``, then the run's cell texts."""
    _write_bytes(path, (header, b"".join(cells)))


def _write_traces(paths: list[str], header: bytes, trace: Trace) -> None:
    """Write run i of ``trace`` as CSV to ``paths[i]``: the bytes
    ``csv.writer`` writes from ``format(x, ".12g")`` float cells and ``str``
    integer cells.

    Each distinct value of a column (the epoch, then ``trace``'s) is formatted
    once, as ASCII text ending in its separator (CRLF after the last, ``,``
    elsewhere), and each CSV cell holds the code of its text.  Values are
    keyed by their int64 value (integer columns) or float64 bits (so ``-0.0``
    and ``0.0`` stay apart), the users' columns of one name together.
    """
    runs, horizon, n = trace.rate_kbps.shape
    width, step = 3 + len(USER_COLUMNS) * n, len(USER_COLUMNS)
    codes = np.empty((runs, horizon, width), np.intp)
    columns = (np.arange(horizon)[:, None], *(getattr(trace, f.name) for f in fields(trace)))
    slots = (slice(0, 1), *(slice(1 + j, width - 2, step) for j in range(step)), -2, -1)
    texts = []
    for values, slot in zip(columns, slots):
        integer = values.dtype.kind == "i"
        keys = (values.astype(np.int64, copy=False) if integer
                else values.astype(np.float64, copy=False).view(np.int64))
        distinct, inverse = np.unique(keys, return_inverse=True)
        np.add(inverse.reshape(values.shape), len(texts), out=codes[..., slot])
        form = (b"%d" if integer else b"%.12g") + (b"\r\n" if slot == -1 else b",")
        texts += [form % x for x in (distinct if integer else distinct.view(np.float64)).tolist()]
    texts = np.array(texts, dtype=object)  # indexed by code; rebinding frees the list
    for path, run_codes in zip(paths, codes.reshape(runs, -1)):
        _write_trace(path, header, texts[run_codes].tolist())


def _summary_header(num_users: int) -> list[str]:
    return ["arm", "sweep_axis", "sweep_value", "run", *(
        f"u{u}_{name}" for u in range(1, num_users + 1) for name in PER_USER_METRICS
    ), "profit"]


def _summary_row(summary: SessionSummary, axis: str, value: float | None) -> list[str]:
    return [summary.arm, axis, "" if value is None else _fmt(value), str(summary.run_index), *(
        _fmt(getattr(summary, name)[u])
        for u in range(len(summary.avg_bitrate_kbps)) for name in PER_USER_METRICS
    ), _fmt(summary.profit)]


def run_experiment(
    config: ScenarioConfig,
    spec: ExperimentSpec,
    out_dir: str,
    *,
    tables_dir: str | None = None,
    seed: int | None = None,
    stationary: bool = False,
) -> str:
    """Execute every (arm, sweep value, run) cell and write the CSV outputs.

    Returns the summary CSV path.  Proposed arms require their policy
    tables to exist already (see ``table_filename``); everything is written
    atomically and depends only on the inputs and the seed, so repeated
    calls produce byte-identical files.
    """
    if seed is not None:
        config = replace(config, rng_seed=seed)
    tables_dir = tables_dir or os.path.join(out_dir, "tables")
    traces_dir = os.path.join(out_dir, "traces")
    os.makedirs(traces_dir, exist_ok=True)

    epoch, *shared = [f.name for f in fields(SegmentRecord) if f.name not in USER_COLUMNS]
    trace_header = _csv_line([epoch, *(
        f"u{u}_{name}" for u in range(1, config.num_users + 1) for name in USER_COLUMNS
    ), *shared])
    summary_rows = [_summary_header(config.num_users)]
    aggregate_rows = [["arm", "sweep_axis", "sweep_value"]]

    runs = range(config.num_runs)
    longest = max(scenario.horizon for _, scenario in _sweep_configs(config, spec))
    # every sweep value faces the same paths, a shorter horizon a prefix of them
    all_paths = channel_paths(config.with_horizon(longest), runs, arms=len(spec.arms))
    for value, scenario in _sweep_configs(config, spec):
        table: PolicyTable | None = None
        if "proposed" in spec.arms:
            table_path = os.path.join(tables_dir, table_filename(
                config.name, scenario.profit.total_rate_cap_kbps, scenario.horizon
            ))
            fix = (
                f"create it with: mdpstream solve --config {spec.scenario_path} "
                f"--rate-cap {scenario.profit.total_rate_cap_kbps:g} "
                f"--horizon {scenario.horizon} --out {table_path}"
            )
            if not os.path.exists(table_path):
                raise ConfigurationError(f"missing policy table {table_path}; {fix}")
            table = PolicyTable.load(table_path)
            if table.fingerprint != scenario_fingerprint(
                scenario.ladder, scenario.channel, scenario.profit, scenario.horizon
            ):
                raise ConfigurationError(
                    f"policy table {table_path} was solved for another scenario; {fix}"
                )

        paths = all_paths[:, :scenario.horizon + 1]
        rules = ["myopic" if arm == "client_centric" else arm for arm in spec.arms]  # one client rule
        decisions = {}
        for rule in dict.fromkeys(rules):
            if rule == "proposed":
                policy = Proposed(table=table, stationary=stationary)
            elif rule == "ideal":
                policy = IdealOracle()
            else:
                policy = Myopic(ladder=scenario.ladder)
            decisions[rule] = decide(scenario, policy, paths)
        # every arm's runs stacked along the run axis, scored and summarized at once
        trace = score(scenario, np.concatenate([decisions[rule] for rule in rules]),
                      np.concatenate([paths] * len(spec.arms)))
        del decisions  # the guard counts the stacked copy only
        summaries = summarize_runs(trace.rate_kbps, trace.rebuffer_s, trace.stage_profit, scenario,
                                   [(arm, run) for arm in spec.arms for run in runs])
        for i, arm in enumerate(spec.arms):
            cell = slice(i * len(runs), (i + 1) * len(runs))
            tags = [_cell_tag(arm, spec.sweep_axis, value, run) for run in runs]
            _write_traces([os.path.join(traces_dir, f"trace_{tag}.csv") for tag in tags],
                          trace_header, trace.select(cell))
            summary_rows += [_summary_row(summary, spec.sweep_axis, value)
                             for summary in summaries[cell]]

            agg = aggregate_runs(summaries[cell])
            if len(aggregate_rows) == 1:  # the first cell names the columns
                aggregate_rows[0] += [f"{key}_{stat}" for key in agg for stat in ("mean", "std")]
            row = [arm, spec.sweep_axis, "" if value is None else _fmt(value)]
            for mean, std in agg.values():
                row += [_fmt(mean), _fmt(std)]
            aggregate_rows.append(row)
        del trace, summaries  # freed before the next sweep value's pass, not under it

    summary_path = os.path.join(out_dir, "summary.csv")
    _write_bytes(summary_path, map(_csv_line, summary_rows))
    _write_bytes(os.path.join(out_dir, "aggregate.csv"), map(_csv_line, aggregate_rows))
    return summary_path


# ----------------------------- subcommands -----------------------------


def cmd_solve(args: argparse.Namespace) -> int:
    config = load_scenario(args.config)
    if args.rate_cap is not None:
        config = config.with_rate_cap(args.rate_cap)
    if args.horizon is not None:
        config = config.with_horizon(args.horizon)
    consts = derive_constants(config.ladder, config.channel, config.profit)
    table = backward_induction(
        config.ladder, config.channel, config.profit, consts, config.horizon
    )
    out_dir = os.path.dirname(os.path.abspath(args.out))
    os.makedirs(out_dir, exist_ok=True)
    table.save(args.out)
    print(
        f"solved {config.name}: {table.num_states} states x {table.horizon} epochs "
        f"-> {args.out}"
    )
    return 0


def cmd_run(args: argparse.Namespace) -> int:
    spec = load_experiment_spec(args.spec)
    config = load_scenario(spec.scenario_path)
    os.makedirs(args.out_dir, exist_ok=True)
    summary_path = run_experiment(
        config,
        spec,
        args.out_dir,
        tables_dir=args.tables_dir,
        seed=args.seed,
        stationary=args.stationary,
    )
    print(f"wrote {summary_path}")
    return 0


def cmd_validate(args: argparse.Namespace) -> int:
    """Check a scenario file and report derived quantities.

    Problems are reported, not thrown; the exit code distinguishes
    configuration errors (1) from an infeasible model (2).
    """
    problems: list[str] = []
    infeasible = False
    data = read_yaml(args.config)

    config = None
    try:
        config = load_scenario(args.config)
    except ConfigurationError as err:
        problems.append(str(err))

    if config is None:
        # Retry the pieces separately so several problems surface at once;
        # the loader's message already names the first.
        for section, build in (("ladder", ladder_from), ("channel", channel_from)):
            try:
                build(data)
            except (KeyError, TypeError, ValueError) as err:
                if not problems[0].endswith(str(err)):
                    problems.append(f"{section}: {err}")
    else:
        consts = derive_constants(config.ladder, config.channel, config.profit)
        size = state_space_size(config.ladder, config.channel, config.num_users)
        print(f"scenario {config.name}: {config.num_users} users, "
              f"{len(config.ladder)} rates, {config.channel.num_states} channel states")
        print(f"state space: {size}")
        print(f"income normalization: {consts.income_norm:.6f}")
        if consts.min_shortfall_kbps is not None:
            print(f"smallest shortfall: {consts.min_shortfall_kbps:.6f} Kbps")
            print(f"buffering normalization: {consts.buffering_norm:.6f}")
        else:
            print("buffering impossible on this grid (bandwidth always covers every rate)")
        if consts.variation_norm is not None:
            print(f"variation normalization: {consts.variation_norm:.6f}")
        else:
            print("ladder span never exceeds the variation threshold")
        stationary = config.channel.stationary_distribution()
        print("stationary channel distribution: "
              + ", ".join(f"{p:.4f}" for p in stationary))
        try:
            acts = feasible_actions(config.num_users, config.ladder, config.profit)
            print(f"feasible actions: {len(acts)}")
        except InfeasibleModelError as err:
            problems.append(str(err))
            infeasible = True

    if problems:
        for p in problems:
            print(f"PROBLEM: {p}", file=sys.stderr)
        return 2 if infeasible and len(problems) == 1 else 1
    print("ok")
    return 0


# ----------------------------- entry point -----------------------------


@functools.cache  # built once per process; each parse_args returns a new namespace
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mdpstream",
        description="Operator-side rate adaptation for competing HTTP streams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="solve a policy table for a scenario")
    solve.add_argument("--config", required=True, help="scenario file")
    solve.add_argument("--out", required=True, help="policy table output path")
    solve.add_argument("--rate-cap", type=float, default=None,
                       help="override the scenario's total rate cap (Kbps)")
    solve.add_argument("--horizon", type=int, default=None,
                       help="override the scenario's horizon (epochs)")
    solve.set_defaults(func=cmd_solve)

    run = sub.add_parser("run", help="run an experiment over seeded sessions")
    run.add_argument("--spec", required=True, help="experiment file")
    run.add_argument("--out-dir", required=True, help="output directory")
    run.add_argument("--seed", type=int, default=None,
                     help="override the scenario's base seed")
    run.add_argument("--stationary", action="store_true",
                     help="reuse the epoch-0 policy at every step")
    run.add_argument("--tables-dir", default=None,
                     help="where solved tables live (default: <out-dir>/tables)")
    run.set_defaults(func=cmd_run)

    validate = sub.add_parser("validate", help="check a scenario file")
    validate.add_argument("--config", required=True, help="scenario file")
    validate.set_defaults(func=cmd_validate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    except InfeasibleModelError as err:
        print(f"infeasible: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
