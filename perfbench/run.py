"""mdpstream benchmark: one command per workload, run from the repository root.

    python3 perfbench/run.py --workload paper-2u --seed 101 --seconds 30 --trace 0

Each repetition (set up, solve, run, check) runs in a fresh child process
with BLAS and OpenMP pinned to one thread, one after another (a closed
loop with one client).  Repetitions start until ``--seconds`` have passed;
at least two always run, so every run also checks that a second run at
the same seed writes byte-identical outputs.  Set-up alone is repeated in
extra child processes so its median rests on several samples.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json (medians
over untraced repetitions, each time scaled to a reference host speed by
the calibration measured around it, see ``calibrate.py``); ``--trace 1``
alternates untraced and traced repetitions and reports the per-layer
metrics, with a self-time breakdown of every layer and the tracing
overhead.  The last line of standard output is one JSON object: correct,
attempted, failed, metrics.

``--smoke`` shrinks every workload to a few seconds, for the smoke test;
pinned digests apply only at full size.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from calibrate import REFERENCE_S, scaled  # noqa: E402
from workloads import WORKLOADS, write_inputs  # noqa: E402

SETUP_PROBES = 8
MIN_REPS = 2
DEADLINE_S = 170.0  # the whole run, including preparation
THREADS = "1"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

# Span names whose self time should dominate each workload's traced run.
PREDICTED_DOMINANT = {
    "paper-2u": {"sim.run_session", "policies.solve_ideal", "cli.run", "cli.write_trace"},
    "table-3u": {"mdp.save", "mdp.load"},
    "solver-4u": {"mdp.backward_induction"},
}

REQUIRED_FILES = ("src/mdpstream/cli.py", "scenarios/fair.cfg", "scenarios/diff.cfg")


class Child:
    """Starts child processes one at a time and collects their results."""

    def __init__(self, work_dir: str, deadline: float) -> None:
        self.work_dir = work_dir
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ, PYTHONHASHSEED="0")
        for var in THREAD_VARS:
            self.env[var] = THREADS

    def run(self, job: dict) -> tuple[dict | None, str]:
        self.count += 1
        stem = os.path.join(self.work_dir, f"child{self.count:03d}")
        job_path = stem + ".job.json"
        timeout = max(1.0, self.deadline - time.monotonic())
        with open(stem + ".log", "w", encoding="utf-8") as log:
            # Set-up time counts from this clock reading.
            job = dict(job, root=ROOT, result_path=stem + ".result.json",
                       t_spawn=time.monotonic())
            with open(job_path, "w", encoding="utf-8") as fh:
                json.dump(job, fh)
            try:
                proc = subprocess.run(
                    [sys.executable, os.path.join(HERE, "child.py"), job_path],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env, cwd=ROOT,
                    timeout=timeout,
                )
            except subprocess.TimeoutExpired:
                return None, f"child timed out after {timeout:.0f} s"
        if proc.returncode != 0:
            with open(stem + ".log", "r", encoding="utf-8", errors="replace") as fh:
                tail = fh.read()[-2000:]
            return None, f"child exited with {proc.returncode}: {tail}"
        with open(job["result_path"], "r", encoding="utf-8") as fh:
            return json.load(fh), ""


# ----------------------------- statistics -----------------------------


def median(values):
    return statistics.median(values) if values else 0.0


def tail(values) -> tuple[float, str]:
    """Highest percentile with at least ten samples beyond it (nearest
    rank); the maximum when there are fewer than twenty samples."""
    values = sorted(values)
    n = len(values)
    if n == 0:
        return 0.0, "none"
    if n < 20:
        return values[-1], f"max of {n}"
    q = 1 - 10 / n
    return values[math.ceil(q * n) - 1], f"p{100 * q:.0f} of {n}"


def self_times(spans: list[dict]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return [s["end"] - s["start"] - c for s, c in zip(spans, covered)]


# ----------------------------- checks -----------------------------


def load_golden(workload: str, smoke: bool) -> dict:
    if smoke:
        return {}
    with open(os.path.join(HERE, "golden.json"), "r", encoding="utf-8") as fh:
        return json.load(fh).get(workload, {})


def values_close(a: float, b: float) -> bool:
    """Table values may drift in the last bits when a sum is re-ordered."""
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def table_problems(got: dict, want: dict) -> list[str]:
    problems = []
    if got["actions_sha256"] != want["actions_sha256"]:
        problems.append("action array digest differs")
    for (t, s, v), (wt, ws, wv) in zip(got["samples"], want["samples"]):
        if (t, s) != (wt, ws) or not values_close(v, wv):
            problems.append(f"value at epoch {t} state {s} is {v!r}, expected {wv!r}")
    if len(got["samples"]) != len(want["samples"]):
        problems.append("value samples taken at other points")
    return problems


def check_ops(result: dict, first: dict, golden: dict, seed: int) -> None:
    """Mark ops failed whose outputs differ from the pinned digests or from
    the first repetition's (same seed, so they must be byte-identical)."""
    for op in result["ops"]:
        if "table" in op:
            want = golden.get("tables", {}).get(op["name"]) or first.get(op["name"], {}).get("table")
            if want:
                op["errors"] += table_problems(op["table"], want)
        if "outputs" in op:
            pinned = golden["outputs"].get(op["name"], {}) if seed == golden.get("seed") else {}
            for name, digest in pinned.items():
                if op["outputs"].get(name) != digest:
                    op["errors"].append(f"{name} differs from its pinned digest")
            earlier = first.get(op["name"], {}).get("outputs")
            if earlier is not None and earlier != op["outputs"]:
                op["errors"].append("outputs differ from the first repetition at the same seed")
        op["ok"] = op["ok"] and not op["errors"]


# ----------------------------- metrics -----------------------------


def phase_s(rep: dict, kind: str) -> float:
    return sum(op["seconds"] for op in rep["ops"] if op["kind"] == kind)


def total_s(rep: dict) -> float:
    return rep["setup_s"] + phase_s(rep, "solve") + phase_s(rep, "run")


def end_to_end(reps: list[dict], probes: list[dict]) -> tuple[dict, dict]:
    """Median of each end-to-end metric, with times scaled to the
    reference host speed, and the same medians of the wall times.

    Every time is scaled by the calibration measured around it (see
    ``calibrate.py``).  ``solve_s`` and ``run_s`` sum, over the operations
    of their phase, each operation's median over the repetitions: with
    several operations per phase that rests on more samples than the
    median of the per-repetition sums, and it estimates the same phase
    time.  Prints the samples behind every median."""
    timed = {"setup_s": [(r["setup_s"], r["setup_calibration_s"]) for r in reps + probes]}
    for kind in ("solve", "run"):
        for name in [op["name"] for op in reps[0]["ops"] if op["kind"] == kind]:
            timed[f"{kind}_s {name}"] = [(op["seconds"], op["calibration_s"])
                                         for r in reps for op in r["ops"]
                                         if op["name"] == name and "seconds" in op]
    values = {"setup_s": 0.0, "solve_s": 0.0, "run_s": 0.0}
    wall = dict(values)
    for name, pairs in timed.items():
        metric = name.split()[0]
        samples = [scaled(seconds, cal) for seconds, cal in pairs]
        values[metric] += median(samples)
        wall[metric] += median([seconds for seconds, _ in pairs])
        print(f"{name} samples (n={len(samples)}; scaled s, wall s / calibration s): "
              + " ".join(f"{v:.4f} ({w:.4f}/{c:.4f})" for v, (w, c) in zip(samples, pairs)))
    calibrations = [r["setup_calibration_s"] for r in reps + probes]
    calibrations += [op["calibration_s"] for r in reps for op in r["ops"] if "seconds" in op]
    wall["calibration_s"] = median(calibrations)
    print("wall medians: " + ", ".join(f"{k} {v:.4f} s" for k, v in wall.items())
          + f" (reference calibration {REFERENCE_S} s)")
    rss = [r["peak_rss_mb"] for r in reps]
    values["peak_rss_mb"] = median(rss)
    print(f"peak_rss_mb samples (n={len(rss)}): " + " ".join(f"{v:.1f}" for v in rss))
    return values, wall


def per_layer(traced, untraced, probes, plan) -> tuple[dict, dict]:
    """Per-layer metrics from the traced repetitions, and the breakdown
    (median self time per span name and the uncovered remainder)."""
    by_name = defaultdict(list)   # per rep: summed self time per span name
    uncovered, accounts = [], []
    sessions = defaultdict(list)  # arm -> session durations
    segments = defaultdict(lambda: [0, 0.0])
    ideal_plans, table_bytes, trace_bytes, cli_self = [], [], [], []
    arms = plan["arms"]
    horizons = [sc["horizon"] for sc in plan["scenarios"].values() for _ in sc["caps"]]
    names = sorted({s["name"] for r in traced for s in r["spans"]})
    for rep in traced:
        spans = rep["spans"]
        own = self_times(spans)
        sums = defaultdict(float)
        for s, t in zip(spans, own):
            sums[s["name"]] += t
        for name in names:
            by_name[name].append(sums[name])
        uncovered.append(total_s(rep) - sum(own))
        accounts.append((rep["rep"], sum(own), uncovered[-1], total_s(rep),
                         min(own, default=0.0)))
        table_bytes.append(sum(s.get("bytes", 0) for s in spans if s["name"] == "mdp.save"))
        trace_bytes.append(sum(s.get("bytes", 0) for s in spans if s["name"] == "cli.write_trace"))
        cli_self.append(sums["cli.run"])
        for s in spans:
            duration = s["end"] - s["start"]
            if s["name"] == "sim.run_session":
                sessions[s["arm"]].append(duration)
                segments[s["arm"]][0] += s["segments"]
                segments[s["arm"]][1] += duration
            elif s["name"] == "policies.solve_ideal":
                ideal_plans.append(duration)
    # sweep = (t(H) - t(1)) / (H - 1) and build = t(1) - sweep per solve, from
    # the medians of the traced solves t(H) and the probes' t(1).
    sweeps, builds = [], []
    solve_spans = [[s["end"] - s["start"] for s in r["spans"]
                    if s["name"] == "mdp.backward_induction"] for r in traced]
    for k, horizon in enumerate(horizons):
        t_h = median([spans[k] for spans in solve_spans if k < len(spans)])
        t_1 = median([p["horizon1_s"][k] for p in probes])
        if horizon > 1:
            sweeps.append((t_h - t_1) / (horizon - 1))
            builds.append(t_1 - sweeps[-1])
    sizes = traced[0]["sizes"]
    layer = {name: median(values) for name, values in by_name.items()}

    metrics = {
        "import_s": layer.get("import", 0.0),
        "configfile.load_scenario_s": layer.get("configfile.load_scenario", 0.0),
        "economics.derive_constants_s": layer.get("economics.derive_constants", 0.0),
        "mdp.feasible_actions_s": layer.get("mdp.feasible_actions", 0.0),
        "mdp.table_build_s": median(builds),
        "mdp.sweep_s": median(sweeps),
        "mdp.backward_induction_s": layer.get("mdp.backward_induction", 0.0),
        "mdp.states": sizes["states"],
        "mdp.actions": sizes["actions"],
        "mdp.q_bytes": sizes["q_bytes"],
        "mdp.save_s": layer.get("mdp.save", 0.0),
        "mdp.load_s": layer.get("mdp.load", 0.0),
        "mdp.table_bytes": median(table_bytes),
        "policies.solve_ideal_s": median(ideal_plans),
        "metrics.summarize_s": layer.get("metrics.summarize", 0.0),
        "metrics.aggregate_runs_s": layer.get("metrics.aggregate_runs", 0.0),
        "cli.trace_write_s": layer.get("cli.write_trace", 0.0),
        "cli.trace_bytes": median(trace_bytes),
        "cli.self_s": median(cli_self),
        "trace.total_s": median([total_s(r) for r in traced]),
        "trace.uncovered_s": median(uncovered),
        # Repetitions alternate untraced and traced; pairing neighbours
        # cancels most of the machine's drift between them.
        "trace.overhead_s": median([total_s(t) - total_s(u)
                                    for u, t in zip(untraced, traced)]),
    }
    tails = {}
    for arm in arms:
        value, label = tail(sessions[arm])
        tails[arm] = label
        metrics[f"sim.session_s.{arm}.p50"] = median(sessions[arm])
        metrics[f"sim.session_s.{arm}.tail"] = value
        count, seconds = segments[arm]
        metrics[f"sim.segments_per_s.{arm}"] = count / seconds if seconds else 0.0
    breakdown = {"layers": layer, "uncovered": median(uncovered),
                 "total": metrics["trace.total_s"], "tails": tails,
                 "accounts": accounts,
                 "samples": len(traced)}
    return metrics, breakdown


def report_breakdown(workload: str, breakdown: dict) -> None:
    total = breakdown["total"]
    print(f"traced breakdown ({breakdown['samples']} traced repetitions, "
          f"median self time per layer; total {total:.4f} s):")
    layers = sorted(breakdown["layers"].items(), key=lambda kv: -kv[1])
    for name, seconds in layers:
        print(f"  {name:28s} {seconds:10.4f} s  {100 * seconds / total:5.1f}%")
    print(f"  {'(uncovered)':28s} {breakdown['uncovered']:10.4f} s  "
          f"{100 * breakdown['uncovered'] / total:5.1f}%")
    for rep, layers_s, rest, rep_total, lowest in breakdown["accounts"]:
        sound = "ok" if rest >= 0 and lowest >= 0 else "SPANS OVERLAP"
        print(f"  repetition {rep}: layers {layers_s:.4f} + uncovered {rest:.4f} "
              f"= total {rep_total:.4f} s ({sound})")
    modules = defaultdict(float)
    for name, seconds in layers:
        modules[name.split(".")[0]] += seconds
    print("  by module: " + ", ".join(
        f"{m} {100 * t / total:.1f}%" for m, t in sorted(modules.items(), key=lambda kv: -kv[1])))
    top = layers[0][0] if layers else "none"
    predicted = PREDICTED_DOMINANT[workload]
    verdict = "as predicted" if top in predicted else "NOT as predicted"
    print(f"  dominant layer: {top} ({verdict}: {', '.join(sorted(predicted))})")
    print("  session tails: " + ", ".join(f"{a} {t}" for a, t in breakdown["tails"].items()))


# ----------------------------- main -----------------------------


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes for the smoke test; no pinned digests")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    missing = [p for p in REQUIRED_FILES if not os.path.isfile(os.path.join(ROOT, p))]
    if missing:
        print(f"error: not an mdpstream checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
        bench = json.load(fh)

    work_dir = os.path.join(HERE, ".work", args.workload + ("-smoke" if args.smoke else ""))
    shutil.rmtree(work_dir, ignore_errors=True)
    os.makedirs(work_dir)
    plan = write_inputs(ROOT, args.workload, work_dir, args.smoke)
    golden = load_golden(args.workload, args.smoke)
    child = Child(work_dir, started + DEADLINE_S)
    rep_dir = os.path.join(work_dir, "rep")
    base_job = {"plan": plan, "seed": args.seed, "rep_dir": rep_dir}

    ops, errors = [], []

    def account(result, error, name):
        if result is None:
            ops.append({"name": name, "ok": False, "errors": [error]})
            return False
        ops.extend(result.get("ops") or [{"name": name, "ok": True, "errors": []}])
        return True

    # Validate the inputs and fill the bytecode cache; nothing here is timed.
    prepared, error = child.run(dict(base_job, mode="prepare"))
    account(prepared, error, "prepare")

    window = time.monotonic()
    probes = []
    for i in range(1 if args.smoke else SETUP_PROBES):
        result, error = child.run(dict(base_job, mode="probe", horizon1=bool(args.trace)))
        if account(result, error, f"setup probe {i}"):
            probes.append(result)

    reps, first, longest = [], {}, 0.0
    while True:
        i = len(reps)
        elapsed = time.monotonic() - window
        if i >= MIN_REPS and elapsed + longest > args.seconds:
            break
        if time.monotonic() + longest > started + DEADLINE_S:
            break
        shutil.rmtree(rep_dir, ignore_errors=True)
        traced = bool(args.trace) and i % 2 == 1
        t0 = time.monotonic()
        result, error = child.run(dict(base_job, mode="rep", rep=i, traced=traced,
                                       check_invariants=i == 0))
        longest = max(longest, time.monotonic() - t0)
        if result is None:
            account(None, error, f"repetition {i}")
            break  # a crashed child leaves no outputs to compare
        check_ops(result, first, golden, args.seed)
        account(result, "", "")
        for op in result["ops"]:
            first.setdefault(op["name"], op)
        reps.append(result)
    shutil.rmtree(rep_dir, ignore_errors=True)

    failed = [op for op in ops if not op["ok"]]
    for name in dict.fromkeys(op["name"] for op in failed):
        op = next(op for op in failed if op["name"] == name)
        errors.append(f"FAILED {name}: {' | '.join(op['errors'])[:400]}")
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    if not untraced or (args.trace and not traced):
        for line in errors:
            print(line, file=sys.stderr)
        print("error: no repetition completed; nothing to report", file=sys.stderr)
        return 1

    import numpy

    sizes = reps[0]["sizes"]
    environment = {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
        "threads": {var: THREADS for var in THREAD_VARS},
        "workload": args.workload, "smoke": args.smoke, "seed": args.seed,
        "sizes": sizes, "q_bytes": "computed: actions x states x 8",
    }
    with open(os.path.join(work_dir, "environment.json"), "w", encoding="utf-8") as fh:
        json.dump(environment, fh, indent=1)
    print("environment: " + json.dumps(environment))
    print(f"repetitions: {len(untraced)} untraced, {len(traced)} traced, "
          f"{len(probes)} set-up probes; window {time.monotonic() - window:.1f} s")

    if args.trace:
        values, breakdown = per_layer(traced, untraced, probes, plan)
        _, wall = end_to_end(untraced, probes)
        values.update({f"wall.{name}": value for name, value in wall.items()})
        report_breakdown(args.workload, breakdown)
        print(f"tracing overhead: {values['trace.overhead_s']:.4f} s (median over "
              "neighbouring pairs of traced total minus untraced total)")
        spans = [s for r in traced for s in r["spans"]]
        with open(os.path.join(work_dir, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump(spans, fh)
        wanted = bench["per_layer"]
    else:
        values, _ = end_to_end(untraced, probes)
        wanted = bench["end_to_end"]

    failed_ratio = len(failed) / len(ops)
    print(f"failed_ratio: {failed_ratio:.4f} ({len(failed)} of {len(ops)} operations)")
    for line in errors:
        print(line)
    metrics = {}
    for entry in wanted:
        value = float(values[entry["name"]])
        metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        print(f"{entry['name']}: {value:.6g} {entry['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(ops),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
