"""End-to-end command line checks on a small scenario."""

import csv
from pathlib import Path

import numpy as np
import pytest
import yaml

from mdpstream import cli
from mdpstream.cli import (
    ExperimentSpec,
    _write_trace,
    load_experiment_spec,
    main,
    table_filename,
)
from mdpstream.configfile import save_scenario
from mdpstream.model import ConfigurationError
from mdpstream.policies import IdealOracle, Myopic
from mdpstream.presets import fair_scenario
from mdpstream.sim import USER_COLUMNS, Trace, channel_paths, simulate
from support import reference_write_trace

BUNDLED = Path(__file__).resolve().parents[1] / "scenarios"


@pytest.fixture
def workspace(tmp_path):
    """A small solved scenario plus an experiment file pointing at it."""
    scenario = fair_scenario(horizon=6, num_runs=2, name="small")
    scenario_path = tmp_path / "small.cfg"
    save_scenario(scenario, str(scenario_path))

    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "scenario": "small.cfg",
        "arms": ["proposed", "myopic", "ideal"],
    }), encoding="utf-8")

    tables = tmp_path / "tables"
    rc = main([
        "solve", "--config", str(scenario_path),
        "--out", str(tables / table_filename("small", 850.0, 6)),
    ])
    assert rc == 0
    return tmp_path, scenario_path, spec_path, tables


def read_rows(path):
    with open(path, newline="", encoding="ascii") as fh:
        return list(csv.reader(fh))


def test_trace_writer_matches_reference(tmp_path):
    config = fair_scenario(horizon=20)
    paths = channel_paths(config, range(2))
    for policy in (Myopic(config.ladder), IdealOracle()):
        trace = simulate(config, policy, paths)
        for run in range(2):
            _write_trace(str(tmp_path / "got.csv"), trace, run)
            reference_write_trace(str(tmp_path / "want.csv"), trace.records(run), 2)
            got = (tmp_path / "got.csv").read_bytes()
            assert got == (tmp_path / "want.csv").read_bytes()
            assert got.count(b"\r\n") == 21


def test_trace_writer_formats_edge_values_like_reference(tmp_path):
    special = [0.0, -0.0, 1e16, 1e-7, 123456789012.5, -1e16, 5e-324, 0.1]
    floats = np.array(special).reshape(1, 4, 2)  # one run, 4 epochs, 2 users
    trace = Trace(
        **{name: floats for name in ("rate_kbps", "effective_bw_kbps", "download_s",
                                     "rebuffer_s", "buffer_s", "income",
                                     "buffering_cost", "variation_cost")},
        channel_state=np.array([[[0, 3], [2, 1], [1, 1], [3, 0]]]),
        bottleneck_cost=np.array([[-0.0, 1e16, 1e-7, 0.0]]),
        stage_profit=np.array([[123456789012.5, 0.0, -0.0, -1e16]]),
    )
    _write_trace(str(tmp_path / "got.csv"), trace, 0)
    reference_write_trace(str(tmp_path / "want.csv"), trace.records(0), 2)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    for text in (b"-0,", b"1e+16", b"1e-07", b"123456789012,", b"4.94065645841e-324"):
        assert text in got


def _writes_like_reference(tmp_path, trace, run):
    _write_trace(str(tmp_path / "got.csv"), trace, run)
    reference_write_trace(str(tmp_path / "want.csv"), trace.records(run),
                          trace.rate_kbps.shape[2])
    return (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def _float_trace(floats, channel_state, shared):
    """A Trace with every float column ``floats`` and both shared columns ``shared``."""
    return Trace(
        **{name: floats for name in USER_COLUMNS if name != "channel_state"},
        channel_state=channel_state, bottleneck_cost=shared, stage_profit=shared,
    )


def test_trace_writer_runs_out_of_order_and_interleaved(tmp_path):
    config = fair_scenario(horizon=20, num_runs=3)
    paths = channel_paths(config, range(3))
    myopic, ideal = (simulate(config, policy, paths) for policy in (Myopic(config.ladder),
                                                                    IdealOracle()))
    for run in (2, 0, 1):
        for trace in (myopic, ideal):  # same shape, written in turn
            assert _writes_like_reference(tmp_path, trace, run), (trace, run)


def test_trace_writer_cell_whose_runs_share_no_values(tmp_path):
    rng = np.random.default_rng(5)
    runs = np.arange(3)[:, None, None]
    trace = _float_trace(rng.random((3, 4, 2)) + 10.0 * runs,
                         np.arange(24).reshape(3, 4, 2), rng.random((3, 4)) - runs[..., 0])
    for run in range(3):
        assert _writes_like_reference(tmp_path, trace, run)


def test_trace_writer_keeps_zero_signs_and_kinds_apart(tmp_path):
    one_bits = int(np.float64(1.0).view(np.int64))  # an int equal to a float key
    floats = np.array([[[0.0, 1.0]], [[-0.0, 1.0]]])  # two runs, one epoch, two users
    trace = _float_trace(floats, np.array([[[one_bits, 0]], [[1, one_bits]]]),
                         np.array([[-0.0], [0.0]]))
    rows = []
    for run in range(2):
        assert _writes_like_reference(tmp_path, trace, run)
        rows.append((tmp_path / "got.csv").read_bytes().split(b"\r\n")[1])
    assert rows[0].startswith(f"0,0,{one_bits},0,".encode())
    assert rows[1].startswith(b"0,-0,1,-0,")


def test_trace_writer_formats_each_cell_once(tmp_path):
    config = fair_scenario(horizon=10)
    trace = simulate(config, IdealOracle(), channel_paths(config, range(15)))
    cli._trace_text.cache_clear()
    for run in range(15):
        _write_trace(str(tmp_path / f"run{run}.csv"), trace, run)
    assert cli._trace_text.cache_info().misses == 1
    assert not any(array.flags.writeable for array in cli._trace_text(trace))


def test_table_filename_layout():
    assert table_filename("fair", 850.0, 200) == "policy_fair_cap850_T200.ptab"
    assert table_filename("x", 600.5, 6) == "policy_x_cap600.5_T6.ptab"


def test_solve_run_outputs(workspace):
    tmp, _, spec_path, tables = workspace
    out = tmp / "out"
    rc = main([
        "run", "--spec", str(spec_path),
        "--out-dir", str(out), "--tables-dir", str(tables),
    ])
    assert rc == 0

    rows = read_rows(out / "summary.csv")
    assert rows[0][:4] == ["arm", "sweep_axis", "sweep_value", "run"]
    assert rows[0][-1] == "profit"
    # three arms, two runs each
    assert len(rows) == 1 + 6
    assert sorted({r[0] for r in rows[1:]}) == ["ideal", "myopic", "proposed"]
    assert {r[3] for r in rows[1:]} == {"0", "1"}

    agg = read_rows(out / "aggregate.csv")
    assert len(agg) == 1 + 3
    assert "profit_mean" in agg[0]

    traces = sorted(p.name for p in (out / "traces").iterdir())
    assert "trace_proposed_run0.csv" in traces
    assert len(traces) == 6
    trace = read_rows(out / "traces" / "trace_proposed_run0.csv")
    assert trace[0][0] == "epoch"
    assert len(trace) == 1 + 6  # horizon rows


def test_repeated_runs_are_byte_identical(workspace):
    tmp, _, spec_path, tables = workspace
    args = ["run", "--spec", str(spec_path), "--tables-dir", str(tables)]
    assert main(args + ["--out-dir", str(tmp / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp / "b")]) == 0
    for name in ("summary.csv", "aggregate.csv", "traces/trace_ideal_run1.csv"):
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes()


def test_seed_override_changes_results(workspace):
    tmp, _, spec_path, tables = workspace
    args = ["run", "--spec", str(spec_path), "--tables-dir", str(tables)]
    assert main(args + ["--out-dir", str(tmp / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp / "c"), "--seed", "777"]) == 0
    assert (tmp / "a" / "summary.csv").read_bytes() != \
        (tmp / "c" / "summary.csv").read_bytes()


def test_stationary_flag_runs(workspace):
    tmp, _, spec_path, tables = workspace
    rc = main([
        "run", "--spec", str(spec_path), "--tables-dir", str(tables),
        "--out-dir", str(tmp / "s"), "--stationary",
    ])
    assert rc == 0
    assert (tmp / "s" / "summary.csv").exists()


def test_missing_table_names_the_fix(workspace, capsys):
    tmp, _, spec_path, _ = workspace
    rc = main([
        "run", "--spec", str(spec_path),
        "--out-dir", str(tmp / "nope"), "--tables-dir", str(tmp / "empty"),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "missing policy table" in err
    assert "mdpstream solve" in err


def test_table_for_another_scenario_is_refused(workspace, capsys):
    tmp, scenario_path, spec_path, tables = workspace
    data = yaml.safe_load(scenario_path.read_text(encoding="utf-8"))
    data["profit"]["user_priorities"] = [0.6, 0.4]
    scenario_path.write_text(yaml.safe_dump(data), encoding="utf-8")
    rc = main([
        "run", "--spec", str(spec_path),
        "--out-dir", str(tmp / "out"), "--tables-dir", str(tables),
    ])
    assert rc == 1
    err = capsys.readouterr().err
    assert "solved for another scenario" in err
    assert (
        f"mdpstream solve --config {scenario_path} --rate-cap 850 --horizon 6 "
        f"--out {tables / table_filename('small', 850.0, 6)}"
    ) in err


def test_corrupt_table_is_a_configuration_error(workspace, capsys):
    tmp, _, spec_path, tables = workspace
    (tables / table_filename("small", 850.0, 6)).write_bytes(bytes(range(256)))
    rc = main([
        "run", "--spec", str(spec_path),
        "--out-dir", str(tmp / "out"), "--tables-dir", str(tables),
    ])
    assert rc == 1
    assert "mdpstream solve" in capsys.readouterr().err


def test_rate_cap_sweep(workspace):
    tmp, scenario_path, _, tables = workspace
    rc = main([
        "solve", "--config", str(scenario_path), "--rate-cap", "600",
        "--out", str(tables / table_filename("small", 600.0, 6)),
    ])
    assert rc == 0
    spec_path = tmp / "sweep.yaml"
    spec_path.write_text(yaml.safe_dump({
        "scenario": "small.cfg",
        "arms": ["proposed", "client_centric"],
        "sweep": {"axis": "rate_cap", "values": [850, 600]},
    }), encoding="utf-8")
    out = tmp / "sweep_out"
    rc = main([
        "run", "--spec", str(spec_path),
        "--out-dir", str(out), "--tables-dir", str(tables),
    ])
    assert rc == 0
    agg = read_rows(out / "aggregate.csv")
    assert len(agg) == 1 + 4  # two arms at two cap values
    assert {(r[0], r[2]) for r in agg[1:]} == {
        ("proposed", "850"), ("proposed", "600"),
        ("client_centric", "850"), ("client_centric", "600"),
    }
    names = {p.name for p in (out / "traces").iterdir()}
    assert "trace_proposed_rate_cap600_run0.csv" in names


def test_validate_accepts_bundled_scenarios(capsys):
    assert main(["validate", "--config", str(BUNDLED / "fair.cfg")]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "state space: 400" in out
    assert "feasible actions: 13" in out


def test_validate_flags_bad_transition_rows(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    save_scenario(fair_scenario(), str(path))
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["channel"]["transition"][0] = [0.9, 0.0, 0.0, 0.0]
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "PROBLEM" in capsys.readouterr().err


def test_validate_reports_infeasible_cap(tmp_path, capsys):
    path = tmp_path / "tight.cfg"
    save_scenario(fair_scenario().with_rate_cap(100.0), str(path))
    assert main(["validate", "--config", str(path)]) == 2
    assert "no feasible action" in capsys.readouterr().err


def test_unknown_arm_rejected(tmp_path, capsys):
    scenario_path = tmp_path / "s.cfg"
    save_scenario(fair_scenario(), str(scenario_path))
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "scenario": "s.cfg", "arms": ["greedy"],
    }), encoding="utf-8")
    rc = main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert "greedy" in capsys.readouterr().err


def test_experiment_spec_validation():
    with pytest.raises(ConfigurationError, match="at least one arm"):
        ExperimentSpec(scenario_path="x", arms=())
    with pytest.raises(ConfigurationError, match="sweep axis"):
        ExperimentSpec(scenario_path="x", arms=("myopic",), sweep_axis="price")
    with pytest.raises(ConfigurationError, match="without a sweep axis"):
        ExperimentSpec(
            scenario_path="x", arms=("myopic",), sweep_values=(1.0,)
        )
    with pytest.raises(ConfigurationError, match="needs values"):
        ExperimentSpec(scenario_path="x", arms=("myopic",), sweep_axis="horizon")


def test_experiment_file_parsing(tmp_path):
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "scenario": "sub/s.cfg",
        "arms": ["myopic"],
        "sweep": {"axis": "horizon", "values": [100, 200]},
    }), encoding="utf-8")
    spec = load_experiment_spec(str(spec_path))
    assert spec.scenario_path == str(tmp_path / "sub" / "s.cfg")
    assert spec.sweep_axis == "horizon"
    assert spec.sweep_values == (100.0, 200.0)

    spec_path.write_text(yaml.safe_dump({
        "scenario": "s.cfg", "arms": ["myopic"], "budget": 5,
    }), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="budget"):
        load_experiment_spec(str(spec_path))

    spec_path.write_text(yaml.safe_dump({"arms": ["myopic"]}), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="scenario"):
        load_experiment_spec(str(spec_path))


@pytest.mark.parametrize("fields, form", [
    ({"arms": ["myopic"], "sweep": [1, 2]}, "sweep: {axis"),
    ({"arms": ["myopic"], "sweep": {"axis": "rate_cap", "values": 600}}, "sweep: {axis"),
    ({"arms": ["myopic"], "sweep": {"axis": "rate_cap", "values": ["fast"]}}, "numbers"),
    ({"arms": "myopic"}, "arms: ["),
    ({"arms": ["myopic"], "scenario": ["s.cfg"]}, "scenario: fair.cfg"),
])
def test_malformed_experiment_file_names_the_form(tmp_path, capsys, fields, form):
    save_scenario(fair_scenario(), str(tmp_path / "s.cfg"))
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({"scenario": "s.cfg", **fields}), encoding="utf-8")
    rc = main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert form in capsys.readouterr().err


def test_horizon_sweep_values_must_be_whole():
    ExperimentSpec(scenario_path="x", arms=("myopic",), sweep_axis="horizon",
                   sweep_values=(5.0,))
    with pytest.raises(ConfigurationError, match="5.7 is not a whole number"):
        ExperimentSpec(scenario_path="x", arms=("myopic",), sweep_axis="horizon",
                       sweep_values=(5.0, 5.7))


def test_duplicate_sweep_values_rejected(tmp_path):
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "scenario": "s.cfg", "arms": ["myopic"],
        "sweep": {"axis": "rate_cap", "values": [600, 850, 600.0]},
    }), encoding="utf-8")
    with pytest.raises(ConfigurationError, match="600 is given twice"):
        load_experiment_spec(str(spec_path))


def test_duplicate_arms_rejected():
    with pytest.raises(ConfigurationError, match="'myopic' is listed twice"):
        ExperimentSpec(scenario_path="x", arms=("myopic", "ideal", "myopic"))
