"""Workload definitions and the input files each one needs.

Every workload is built from the bundled two-user scenarios.  The 3- and
4-user ones copy ``scenarios/fair.cfg`` and change only the user count,
the priorities, the rate cap, the horizon and the run count.  The
``smoke`` variants shrink horizons and run counts so the smoke test
finishes in seconds; they have no pinned digests.
"""

from __future__ import annotations

import os

import yaml

ARMS = ("proposed", "myopic", "ideal")

# kind "cli": solve and run go through mdpstream.cli.main.
# kind "memory": solve and sessions go through the library, with no files.
WORKLOADS = {
    # The paper's experiment: two bundled scenarios, a cap sweep, 15 runs.
    "paper-2u": {
        "kind": "cli",
        "scenarios": {"fair": "scenarios/fair.cfg", "diff": "scenarios/diff.cfg"},
        "caps": (600.0, 850.0),
        "overrides": {},
        "smoke": {"horizon": 20, "num_runs": 2},
    },
    # One large text policy table written once and read once.  Horizon 60
    # instead of 200 keeps about eight repetitions inside one run; the file
    # layer's share does not depend on the horizon.
    "table-3u": {
        "kind": "cli",
        "scenarios": {"table-3u": "scenarios/fair.cfg"},
        "caps": (),
        "overrides": {
            "num_users": 3, "user_priorities": [1 / 3] * 3,
            "total_rate_cap_kbps": 1275.0, "horizon": 60, "num_runs": 3,
        },
        "smoke": {"horizon": 5, "num_runs": 1},
    },
    # Solver compute and memory; horizon 4 instead of 20 keeps about ten
    # repetitions inside one run, and the per-epoch cost does not depend
    # on the horizon.
    "solver-4u": {
        "kind": "memory",
        "scenarios": {"solver-4u": "scenarios/fair.cfg"},
        "caps": (),
        "overrides": {
            "num_users": 4, "user_priorities": [0.25] * 4,
            "total_rate_cap_kbps": 1700.0, "horizon": 4, "num_runs": 20,
        },
        # A low cap leaves 11 feasible actions, so the smoke solve is small.
        "smoke": {"total_rate_cap_kbps": 600.0, "horizon": 2, "num_runs": 2},
    },
}

_PROFIT_OVERRIDES = {"user_priorities", "total_rate_cap_kbps"}


def write_inputs(root: str, workload: str, work_dir: str, smoke: bool) -> dict:
    """Write the scenario and experiment files of one workload.

    Returns a plan the child process follows: scenario paths by name, the
    experiment file of each CLI scenario, the caps to solve and the seed-
    independent scenario facts.  Bundled scenarios are used in place when
    nothing changes.
    """
    spec = WORKLOADS[workload]
    overrides = dict(spec["overrides"])
    if smoke:
        overrides.update(spec["smoke"])
    inputs = os.path.join(work_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)

    scenarios = {}
    for name, bundled in spec["scenarios"].items():
        source = os.path.join(root, bundled)
        with open(source, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
        if overrides:
            for key, value in overrides.items():
                section = data["profit"] if key in _PROFIT_OVERRIDES else data
                section[key] = value
            path = os.path.join(inputs, f"{name}.cfg")
            with open(path, "w", encoding="utf-8") as fh:
                yaml.safe_dump(data, fh, sort_keys=False)
        else:
            path = source
        caps = list(spec["caps"]) or [float(data["profit"]["total_rate_cap_kbps"])]
        entry = {
            "config": path,
            "caps": caps,
            "horizon": int(data["horizon"]),
        }
        if spec["kind"] == "cli":
            experiment = {"scenario": path, "arms": list(ARMS)}
            if spec["caps"]:
                experiment["sweep"] = {"axis": "rate_cap", "values": caps}
            entry["spec"] = os.path.join(inputs, f"{name}.yaml")
            with open(entry["spec"], "w", encoding="utf-8") as fh:
                yaml.safe_dump(experiment, fh, sort_keys=False)
        scenarios[name] = entry
    return {"kind": spec["kind"], "scenarios": scenarios, "arms": list(ARMS)}
