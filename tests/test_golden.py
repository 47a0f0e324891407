"""Golden digests of the paper's two-user experiment at seed 101.

The fair and differentiated scenarios are solved at rate caps 600 and 850
and run with the proposed, myopic and ideal arms through the command
line.  The solved action arrays and the written CSVs must match the
digests below bit for bit.  These are the same figures the benchmark
pins for its ``paper-2u`` workload; a change that moves one of them
changes the experiment's results and must say why.

Further digests pin the simulator branches the bundled scenarios never
reach: a finite congestion price, no bottleneck sharing and the
``--stationary`` flag.  Each case also checks that its branch is actually
taken.

Two larger solves pin the near-tie decisions the paper tables lack: fair
at 3 users (cap 1275, horizon 60) and at 4 users (cap 1700, horizon 2).
In them 953 and 511 decisions are won by a margin under 1e-9, so any
reordered float sum in the solver would flip some of them.
"""

import csv
import dataclasses
import hashlib
from pathlib import Path

import pytest
import yaml

from mdpstream.cli import main, table_filename
from mdpstream.economics import derive_constants
from mdpstream.mdp import PolicyTable, backward_induction

SCENARIOS = Path(__file__).resolve().parents[1] / "scenarios"
CAPS = (600.0, 850.0)
SEED = 101
HORIZON = 200

ACTION_DIGESTS = {
    ("fair", 600.0): "ebfe9f80eb5a18616419bbcd175b27babeae6b35ff81a757ebdf2209d830a51c",
    ("fair", 850.0): "1596dfb7c930e6de674b4a7d1be693144be278f0df8c8603bada25529ee17120",
    ("diff", 600.0): "9f3ee1a71a901a78219db778462a609bcdfc5ee7290d8b33ef48574adf782b8e",
    ("diff", 850.0): "045de8de7bfdb29d79eba560ab6182d60e1d86ea38ae3dfe329c69c1ea31aa76",
}

OUTPUT_DIGESTS = {
    "fair": {
        "summary.csv": "03899ba4e8fe3cdfae28c984985d67d1288b2f763bafd47ed17f46501e8b128d",
        "aggregate.csv": "0610d805958ddce31b186c048069da6c62b6d7f7af84cf5c31c1c09cfaf218c1",
        "traces/trace_proposed_rate_cap850_run0.csv":
            "5e637d9eb5a9850728fab0162d626a63e284bd6b8703328fcb830129ab5cc13b",
    },
    "diff": {
        "summary.csv": "a21d6e264181bddbef190475891316e997cfb64a541825a1a54f7207e30a5866",
        "aggregate.csv": "8365db675fe6be3013a4034ca1c87fde204f6481109fd6025aeaa1f568af90df",
        "traces/trace_proposed_rate_cap850_run0.csv":
            "a8baa6ca89564db94bbc131c94c454fb893c3d0aef97560231d27cf6411559b8",
    },
}


def actions_digest(table) -> str:
    """SHA-256 of the (horizon, states, users) action array's shape repr,
    then its little-endian int64 bytes, gathered one epoch at a time so
    the full array is never held."""
    shape = table.action_ids.shape + (table.num_users,)
    digest = hashlib.sha256(repr(shape).encode())
    for ids in table.action_ids:
        digest.update(table.action_digits[ids].astype("<i8").tobytes())
    return digest.hexdigest()


@pytest.fixture(scope="module")
def experiment(tmp_path_factory):
    """Solve and run both scenarios once; returns (tables dir, out dirs)."""
    root = tmp_path_factory.mktemp("golden")
    tables = root / "tables"
    outputs = {}
    for name in ("fair", "diff"):
        config = str(SCENARIOS / f"{name}.cfg")
        for cap in CAPS:
            out = tables / table_filename(name, cap, HORIZON)
            rc = main(["solve", "--config", config, "--rate-cap", f"{cap:g}",
                       "--out", str(out)])
            assert rc == 0
        spec = root / f"{name}.yaml"
        spec.write_text(yaml.safe_dump({
            "scenario": config,
            "arms": ["proposed", "myopic", "ideal"],
            "sweep": {"axis": "rate_cap", "values": list(CAPS)},
        }), encoding="utf-8")
        outputs[name] = root / "out" / name
        rc = main(["run", "--spec", str(spec), "--out-dir", str(outputs[name]),
                   "--tables-dir", str(tables), "--seed", str(SEED)])
        assert rc == 0
    return tables, outputs


@pytest.mark.parametrize("name,cap", sorted(ACTION_DIGESTS))
def test_solved_actions_match_golden(experiment, name, cap):
    tables, _ = experiment
    table = PolicyTable.load(str(tables / table_filename(name, cap, HORIZON)))
    assert actions_digest(table) == ACTION_DIGESTS[(name, cap)]


@pytest.mark.parametrize("name", sorted(OUTPUT_DIGESTS))
def test_csv_outputs_match_golden(experiment, name):
    _, outputs = experiment
    got = {
        rel: hashlib.sha256((outputs[name] / rel).read_bytes()).hexdigest()
        for rel in OUTPUT_DIGESTS[name]
    }
    assert got == OUTPUT_DIGESTS[name]


# Combined digests (see ``tree_digest``) of all 90 trace files per scenario.
TRACE_SET_DIGESTS = {
    "fair": "73597544d4d2b46f3c427ef47895bd2e48f5346df87e75a02502a2b1351615b5",
    "diff": "bdd172dc27d6c9c3267fd6bd9095f9f81788a1a0d1fa8dbc69310b7185e5a817",
}

# Whole output directories of the branch cases, at horizon 20 and 15 runs.
BRANCH_DIGESTS = {
    "finite_price": "f9796236caddc0c43c87eb06a1c9dff4d61b47332b45db9b921af12a18477c5a",
    "no_sharing": "019e9f72a79fe757a26429a53fef2b946d6744714373cd9ceb3f223e141a4f67",
    "stationary": "5db05f574dbad16ffe379ae89fbfaca42e339b311b049b9ac6daf44da11edf5b",
}


def tree_digest(directory: Path) -> str:
    """SHA-256 over every file below ``directory`` in sorted relative-path
    order: each file's path, a newline, its own SHA-256 and a newline."""
    digest = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        rel = path.relative_to(directory).as_posix()
        digest.update(f"{rel}\n{hashlib.sha256(path.read_bytes()).hexdigest()}\n".encode())
    return digest.hexdigest()


def trace_rows(out_dir: Path):
    """Every row of every trace CSV under ``out_dir``, as dicts of floats."""
    for path in sorted((out_dir / "traces").glob("*.csv")):
        with open(path, newline="", encoding="ascii") as fh:
            for row in csv.DictReader(fh):
                yield {key: float(value) for key, value in row.items()}


@pytest.mark.parametrize("name", sorted(TRACE_SET_DIGESTS))
def test_every_trace_matches_golden(experiment, name):
    _, outputs = experiment
    assert len(list((outputs[name] / "traces").glob("*.csv"))) == 90
    assert tree_digest(outputs[name] / "traces") == TRACE_SET_DIGESTS[name]


def _branch_run(root: Path, case: str, changes: dict, arms, flags=()) -> Path:
    """Solve and run a horizon-20 copy of fair.cfg with ``changes``."""
    data = yaml.safe_load((SCENARIOS / "fair.cfg").read_text(encoding="utf-8"))
    data["horizon"] = 20
    for key, value in changes.items():
        section = data["profit"] if key == "congestion_price" else data
        section[key] = value
    scenario = root / f"{case}.cfg"
    scenario.write_text(yaml.safe_dump(data, sort_keys=False), encoding="utf-8")
    tables = root / f"{case}_tables"
    rc = main(["solve", "--config", str(scenario),
               "--out", str(tables / table_filename("fair", 850.0, 20))])
    assert rc == 0
    spec = root / f"{case}.yaml"
    spec.write_text(yaml.safe_dump({"scenario": str(scenario), "arms": list(arms)}),
                    encoding="utf-8")
    out = root / f"{case}_out"
    rc = main(["run", "--spec", str(spec), "--out-dir", str(out),
               "--tables-dir", str(tables), *flags])
    assert rc == 0
    return out


ARMS = ("proposed", "myopic", "ideal")


def test_finite_congestion_price_matches_golden(tmp_path):
    out = _branch_run(tmp_path, "finite_price", {"congestion_price": 0.0005}, ARMS)
    assert any(row["bottleneck_cost"] > 0 for row in trace_rows(out))  # billed, not rationed
    assert tree_digest(out) == BRANCH_DIGESTS["finite_price"]


def test_no_sharing_matches_golden(tmp_path):
    out = _branch_run(tmp_path, "no_sharing", {"sharing_mode": "none"}, ARMS)
    # without a shared bottleneck, delivered traffic may exceed the cap
    assert any(
        sum(min(row[f"u{u}_effective_bw_kbps"], row[f"u{u}_rate_kbps"]) for u in (1, 2)) > 850
        for row in trace_rows(out)
    )
    assert tree_digest(out) == BRANCH_DIGESTS["no_sharing"]


def test_stationary_flag_matches_golden(tmp_path):
    out = _branch_run(tmp_path, "stationary", {}, ["proposed"], ["--stationary"])
    timed = _branch_run(tmp_path, "time_indexed", {}, ["proposed"])
    assert tree_digest(out / "traces") != tree_digest(timed / "traces")
    assert tree_digest(out) == BRANCH_DIGESTS["stationary"]


# (users, cap, horizon): action digest and (epoch, state, value) samples.
NEAR_TIE_PINS = {
    (3, 1275.0, 60): (
        "2bfa4a14df85fdcc88f715f7860414b6f3d9141d7939e0f500dd39ca9ba76ca7",
        [(0, 0, 7.1539987565080185), (0, 2666, 8.060176829187274),
         (0, 7999, 8.624662607004609), (30, 5333, 3.639109970160361),
         (59, 2666, 0.10931509111016552), (59, 7999, 0.1628176655452685)],
    ),
    (4, 1700.0, 2): (
        "982602fceca3686d6420519ef0bad4e4ebc5d1202264a8fc55cc9cee50cf12ce",
        [(0, 0, 0.0), (0, 53333, 0.17823070837714064), (0, 106666, 0.1782307083771406),
         (0, 159999, 0.35178449565559633), (1, 53333, 0.08143932464349296),
         (1, 159999, 0.15686586052206847)],
    ),
}


@pytest.mark.parametrize("users,cap,horizon", sorted(NEAR_TIE_PINS))
def test_near_tie_solves_match_golden(fair_config, users, cap, horizon):
    params = dataclasses.replace(
        fair_config.profit, user_priorities=(1 / users,) * users, total_rate_cap_kbps=cap
    )
    consts = derive_constants(fair_config.ladder, fair_config.channel, params)
    table = backward_induction(fair_config.ladder, fair_config.channel, params, consts, horizon)
    digest, samples = NEAR_TIE_PINS[(users, cap, horizon)]
    assert actions_digest(table) == digest
    for t, state, value in samples:
        assert table.values[t, state] == pytest.approx(value, abs=1e-9)
