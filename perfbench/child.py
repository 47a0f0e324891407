"""One benchmark repetition, run in a fresh process by ``run.py``.

Usage: ``python3 child.py JOB.json``.  The job names the mode:

- ``probe``: set up only (import, load scenarios, derive constants,
  enumerate feasible actions) and report the set-up time; with
  ``horizon1`` set, then time every solve of the workload at horizon 1;
- ``prepare``: set up, then ``mdpstream validate`` every scenario;
- ``rep``: set up, solve, run, then check the outputs.

Set-up time counts from the parent's clock reading just before it started
this process; both read CLOCK_MONOTONIC, which is system-wide.  With
``traced`` set, the public functions of each layer are wrapped so that
every call records a span; untraced repetitions wrap nothing except a
capture of the tables ``run`` loads, so the checks can read them.

Probes and untraced repetitions also time a fixed calibration work
(``calibrate.py``) right after set-up and right after every operation;
``run.py`` scales each time by the calibration measured around it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import functools
import json
import os
import resource
import sys
import time
import traceback


class Tracer:
    """Spans kept in memory: name, start, end, parent index, repetition."""

    def __init__(self, rep: int, enabled: bool) -> None:
        self.rep = rep
        self.enabled = enabled
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str):
        if not self.enabled:
            yield {}
            return
        rec = {
            "name": name, "start": time.monotonic(), "end": None,
            "parent": self._stack[-1] if self._stack else None, "rep": self.rep,
        }
        self.spans.append(rec)
        self._stack.append(len(self.spans) - 1)
        try:
            yield rec
        finally:
            self._stack.pop()
            rec["end"] = time.monotonic()

    def wrap(self, owner, attr: str, name: str, describe=None) -> None:
        """Replace ``owner.attr`` by a version that records a span per call.
        ``describe(args, result)`` may add counts, read after the span ends."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def traced(*args, **kwargs):
            with self.span(name) as rec:
                result = original(*args, **kwargs)
            if describe is not None:
                rec.update(describe(args, result))
            return result

        setattr(owner, attr, traced)


def _import_program(root: str):
    src = os.path.join(root, "src")
    sys.path.insert(0, src)
    import mdpstream.cli  # noqa: F401  (the entry point, imports every layer)
    import mdpstream

    where = os.path.realpath(mdpstream.__file__)
    if not where.startswith(os.path.realpath(src) + os.sep):
        raise RuntimeError(f"imported mdpstream from {where}, not from {src}")
    return mdpstream


_ARM_OF_POLICY = {"Proposed": "proposed", "Myopic": "myopic", "IdealOracle": "ideal"}


def _install_spans(tracer: Tracer, ms) -> None:
    """Wrap each layer's public functions, where the CLI and the library
    look them up, so every call into a layer records one span."""
    cli, sim, mdp = ms.cli, ms.sim, ms.mdp

    def session(args, result):
        return {"arm": _ARM_OF_POLICY.get(type(args[1]).__name__, "other"),
                "segments": len(result)}

    def file_bytes(index):
        return lambda args, result: {"bytes": os.path.getsize(args[index])}

    for owner in (ms.configfile, cli):
        tracer.wrap(owner, "load_scenario", "configfile.load_scenario")
    for owner in (ms.economics, cli, sim):
        tracer.wrap(owner, "derive_constants", "economics.derive_constants")
    tracer.wrap(mdp, "feasible_actions", "mdp.feasible_actions")
    for owner in (mdp, cli):
        tracer.wrap(owner, "backward_induction", "mdp.backward_induction")
    tracer.wrap(mdp.PolicyTable, "save", "mdp.save", file_bytes(1))
    for owner in (sim, cli):
        tracer.wrap(owner, "run_session", "sim.run_session", session)
    tracer.wrap(sim, "solve_ideal", "policies.solve_ideal")
    for owner in (ms.metrics, cli):
        tracer.wrap(owner, "summarize", "metrics.summarize")
        tracer.wrap(owner, "aggregate_runs", "metrics.aggregate_runs")
    # The trace CSV writer has no public name; without it, writing stays in
    # the self time of cli.run.
    if hasattr(cli, "_write_trace"):
        tracer.wrap(cli, "_write_trace", "cli.write_trace", file_bytes(0))


def _setup(job: dict, tracer: Tracer):
    """Import the program and load every scenario of the workload."""
    with tracer.span("import"):
        ms = _import_program(job["root"])
    if tracer.enabled:
        _install_spans(tracer, ms)
    configs, consts = {}, {}
    for name, sc in job["plan"]["scenarios"].items():
        config = ms.configfile.load_scenario(sc["config"])
        consts[name] = ms.economics.derive_constants(
            config.ladder, config.channel, config.profit
        )
        ms.mdp.feasible_actions(config.num_users, config.ladder, config.profit)
        configs[name] = config
    return ms, configs, consts


def _op(name: str, kind: str) -> dict:
    return {"name": name, "kind": kind, "ok": True, "errors": []}


# In probes and repetitions: the host-speed calibration, and its time
# measured last (right before the next operation).
_calibration = None
_last_calibration_s = 0.0


def _calibrate() -> float:
    global _last_calibration_s
    _last_calibration_s = _calibration.measure()
    return _last_calibration_s


def _call(op: dict, fn, *args):
    """Run and time one operation; an exception or a non-zero exit code
    fails it.  With a calibration set, the operation also records the mean
    of the calibration times measured right before and right after it."""
    before = _last_calibration_s
    t0 = time.monotonic()
    try:
        result = fn(*args)
    except Exception:  # the benchmark reports the failure and goes on
        op["ok"] = False
        op["errors"].append(traceback.format_exc(limit=4))
        return None
    finally:
        op["seconds"] = time.monotonic() - t0
        if _calibration is not None:
            op["calibration_s"] = (before + _calibrate()) / 2
    if isinstance(result, int) and result != 0:
        op["ok"] = False
        op["errors"].append(f"exit code {result}")
    return result


def _prepare(job: dict, ms) -> list[dict]:
    ops = []
    for name, sc in job["plan"]["scenarios"].items():
        op = _op(f"validate {name}", "validate")
        _call(op, ms.cli.main, ["validate", "--config", sc["config"]])
        ops.append(op)
    return ops


def _rep_cli(job, ms, configs, tracer, result) -> dict:
    """Solve and run through ``mdpstream.cli.main``; returns checked state."""
    plan, seed = job["plan"], job["seed"]
    tables_dir = os.path.join(job["rep_dir"], "tables")
    loaded = {}
    original_load = ms.mdp.PolicyTable.load

    def capture(path):
        table = original_load(path)
        loaded[os.path.abspath(path)] = table
        return table

    ms.mdp.PolicyTable.load = capture
    if tracer.enabled:
        tracer.wrap(ms.mdp.PolicyTable, "load", "mdp.load")

    solves = []
    for name, sc in plan["scenarios"].items():
        config = configs[name]
        for cap in sc["caps"]:
            out = os.path.join(tables_dir, ms.cli.table_filename(
                config.name, cap, config.horizon))
            op = _op(f"solve {name} cap{cap:g}", "solve")
            argv = ["solve", "--config", sc["config"], "--rate-cap", f"{cap:g}",
                    "--out", out]
            with tracer.span("cli.solve"):
                _call(op, ms.cli.main, argv)
            solves.append((op, name, cap, os.path.abspath(out)))

    runs = []
    for name, sc in plan["scenarios"].items():
        out_dir = os.path.join(job["rep_dir"], "out", name)
        op = _op(f"run {name}", "run")
        argv = ["run", "--spec", sc["spec"], "--out-dir", out_dir,
                "--tables-dir", tables_dir, "--seed", str(seed)]
        with tracer.span("cli.run"):
            _call(op, ms.cli.main, argv)
        runs.append((op, name, out_dir))

    result["peak_rss_mb"] = _peak_rss_mb()
    return {"solves": solves, "runs": runs, "loaded": loaded}


def _rep_memory(job, ms, configs, consts, tracer, result) -> dict:
    """Solve with ``mdp.backward_induction``, then run each arm's sessions
    in memory, summarizing and aggregating them as the CLI does."""
    (name, config), = configs.items()
    config = dataclasses.replace(config, rng_seed=job["seed"])
    mdp, sim, metrics, policies = ms.mdp, ms.sim, ms.metrics, ms.policies

    solve_op = _op(f"solve {name}", "solve")
    table = _call(solve_op, mdp.backward_induction, config.ladder, config.channel,
                  config.profit, consts[name], config.horizon)

    def sessions(policy, arm):
        summaries, traces = [], []
        for run in range(config.num_runs):
            trace = sim.run_session(config, policy, run)
            summaries.append(metrics.summarize(trace, config, arm=arm, run_index=run))
            traces.append(trace)
        metrics.aggregate_runs(summaries)
        return traces

    runs = []
    for arm in job["plan"]["arms"]:
        op = _op(f"run {name} {arm}", "run")
        if arm == "proposed":
            policy = policies.Proposed(table=table)
        elif arm == "myopic":
            policy = policies.Myopic(ladder=config.ladder)
        else:
            policy = policies.IdealOracle()
        if table is None:
            op["ok"] = False
            op["errors"].append("no table to run")
            traces = None
        else:
            traces = _call(op, sessions, policy, arm)
        runs.append((op, arm, traces))
    result["peak_rss_mb"] = _peak_rss_mb()
    return {"solve": (solve_op, table), "runs": runs, "config": config}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _check_cli(job, ms, configs, state) -> None:
    import checks

    for op, _name, _cap, path in state["solves"]:
        table = state["loaded"].get(path)
        if table is None:
            if op["ok"]:
                op["ok"] = False
                op["errors"].append(f"run never loaded {path}")
            continue
        op["table"] = checks.table_digest(table)
    for op, name, out_dir in state["runs"]:
        if not op["ok"]:
            continue
        op["outputs"] = checks.file_digests(out_dir)
        if job["check_invariants"]:
            op["errors"] += checks.check_cli_outputs(ms, out_dir, configs[name],
                                                     job["plan"]["arms"])
            op["ok"] = op["ok"] and not op["errors"]


def _check_memory(job, state) -> None:
    import checks

    solve_op, table = state["solve"]
    if table is not None:
        solve_op["table"] = checks.table_digest(table)
    config = state["config"]
    for op, arm, traces in state["runs"]:
        if traces is None:
            continue
        op["outputs"] = {"traces": checks.records_digest(traces)}
        if job["check_invariants"]:
            for run, trace in enumerate(traces):
                op["errors"] += checks.check_session(
                    trace, config, arm, config.profit.total_rate_cap_kbps,
                    f"{arm} run {run}",
                )
            op["ok"] = op["ok"] and not op["errors"]


def _sizes(ms, configs, plan) -> dict:
    """States, feasible actions and the computed size of the solver's
    (actions x states) float64 tensor, largest over the workload's solves;
    sessions and segments per repetition."""
    states = actions = sessions = segments = 0
    for name, config in configs.items():
        caps = plan["scenarios"][name]["caps"]
        for cap in caps:
            scenario = config.with_rate_cap(cap)
            states = max(states, ms.model.state_space_size(
                scenario.ladder, scenario.channel, scenario.num_users))
            actions = max(actions, len(ms.mdp.feasible_actions(
                scenario.num_users, scenario.ladder, scenario.profit)))
        count = len(plan["arms"]) * len(caps) * config.num_runs
        sessions += count
        segments += count * config.horizon
    return {"states": states, "actions": actions, "q_bytes": states * actions * 8,
            "horizon": max(c.horizon for c in configs.values()),
            "sessions": sessions, "segments": segments}


def _horizon1_solves(ms, configs, plan) -> list[float]:
    """Time ``backward_induction`` at horizon 1 for every solve of the
    workload, in the order the repetitions solve.  Run in a fresh set-up
    process, so the first solve is as cold as a repetition's first solve;
    ``run.py`` derives the per-epoch sweep time from these and the traced
    solves."""
    times = []
    for name, config in configs.items():
        for cap in plan["scenarios"][name]["caps"]:
            scenario = config.with_rate_cap(cap)
            consts = ms.economics.derive_constants(
                scenario.ladder, scenario.channel, scenario.profit)
            t0 = time.monotonic()
            ms.mdp.backward_induction(scenario.ladder, scenario.channel,
                                      scenario.profit, consts, 1)
            times.append(time.monotonic() - t0)
    return times


def main(argv: list[str]) -> int:
    with open(argv[1], "r", encoding="utf-8") as fh:
        job = json.load(fh)
    tracer = Tracer(job.get("rep", -1), job.get("traced", False))
    result = {"mode": job["mode"], "rep": job.get("rep"), "traced": tracer.enabled}

    global _calibration
    ms, configs, consts = _setup(job, tracer)
    result["setup_s"] = time.monotonic() - job["t_spawn"]
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    if job["mode"] == "probe" and job.get("horizon1"):
        # First, so the first solve is as cold as a repetition's.
        result["horizon1_s"] = _horizon1_solves(ms, configs, job["plan"])
    # Traced repetitions give layer times, not end-to-end ones, and a
    # calibration there would land inside the spans.
    if job["mode"] == "probe" or (job["mode"] == "rep" and not tracer.enabled):
        import calibrate

        _calibration = calibrate.Calibration()
        result["setup_calibration_s"] = _calibrate()

    if job["mode"] == "prepare":
        result["ops"] = _prepare(job, ms)
    elif job["mode"] == "rep":
        if job["plan"]["kind"] == "cli":
            state = _rep_cli(job, ms, configs, tracer, result)
            tracer.enabled = False
            _check_cli(job, ms, configs, state)
            ops = [s[0] for s in state["solves"]] + [r[0] for r in state["runs"]]
        else:
            state = _rep_memory(job, ms, configs, consts, tracer, result)
            tracer.enabled = False
            _check_memory(job, state)
            ops = [state["solve"][0]] + [r[0] for r in state["runs"]]
        result["ops"] = ops
        result["sizes"] = _sizes(ms, configs, job["plan"])
    result["spans"] = tracer.spans

    tmp = job["result_path"] + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    os.replace(tmp, job["result_path"])
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
