"""Golden digests of the paper's two-user experiment at seed 101.

The fair and differentiated scenarios are solved at rate caps 600 and 850
and run with the proposed, myopic and ideal arms through the command
line.  The solved action arrays and the written CSVs must match the
digests below bit for bit.  These are the same figures the benchmark
pins for its ``paper-2u`` workload; a change that moves one of them
changes the experiment's results and must say why.
"""

import hashlib
from pathlib import Path

import numpy as np
import pytest
import yaml

from mdpstream.cli import main, table_filename
from mdpstream.mdp import PolicyTable

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
    """SHA-256 of the action array's shape repr, then its little-endian
    int64 bytes."""
    actions = np.ascontiguousarray(table.action_rate_indices, dtype="<i8")
    digest = hashlib.sha256(repr(actions.shape).encode())
    digest.update(actions.tobytes())
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
