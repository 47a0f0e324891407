"""End-to-end command line checks on a small scenario."""

import csv
import math
import re
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st

from mdpstream import cli, mdp, sim
from mdpstream.cli import (
    ExperimentSpec,
    _csv_line,
    _write_traces,
    load_experiment_spec,
    main,
    table_filename,
)
from mdpstream.configfile import save_scenario
from mdpstream.mdp import PolicyTable
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


def trace_header(num_users):
    return _csv_line(["epoch", *(f"u{u}_{name}" for u in range(1, num_users + 1)
                                 for name in USER_COLUMNS), "bottleneck_cost", "stage_profit"])


def write_run(path, trace, run):
    """Write run ``run`` of ``trace`` to ``path`` the way ``run_experiment``
    does: every run of the trace through one ``_write_traces``, the other
    runs beside it."""
    _write_traces([str(path) if r == run else f"{path}.run{r}" for r in range(len(trace.rate_kbps))],
                  trace_header(trace.rate_kbps.shape[2]), trace)


def test_trace_writer_matches_reference(tmp_path):
    config = fair_scenario(horizon=20)
    paths = channel_paths(config, range(2))
    for policy in (Myopic(config.ladder), IdealOracle()):
        trace = simulate(config, policy, paths)
        for run in range(2):
            write_run(tmp_path / "got.csv", trace, run)
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
    write_run(tmp_path / "got.csv", trace, 0)
    reference_write_trace(str(tmp_path / "want.csv"), trace.records(0), 2)
    got = (tmp_path / "got.csv").read_bytes()
    assert got == (tmp_path / "want.csv").read_bytes()
    for text in (b"-0,", b"1e+16", b"1e-07", b"123456789012,", b"4.94065645841e-324"):
        assert text in got


def _writes_like_reference(tmp_path, trace, run):
    write_run(tmp_path / "got.csv", trace, run)
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


def cell_keys(trace, run):
    """(column name, int64 key) of every CSV cell of run ``run``, row by row:
    integers by value, floats by their bits."""
    def keyed(name, column):
        ints = column if name in ("epoch", "channel_state") else column.view(np.int64)
        return [(name, key) for key in ints.tolist()]

    horizon, n = trace.rate_kbps.shape[1:]
    rows = zip(keyed("epoch", np.arange(horizon)),
               *(keyed(name, getattr(trace, name)[run, :, u])
                 for u in range(n) for name in USER_COLUMNS),
               keyed("bottleneck_cost", trace.bottleneck_cost[run]),
               keyed("stage_profit", trace.stage_profit[run]))
    return [key for row in rows for key in row]


def test_trace_writer_formats_each_cell_once(workspace, monkeypatch):
    # 2 arms x 2 sweep values: one _write_traces call per cell, and within a
    # cell one text object per distinct value of a column name, shared by
    # every run and user that holds the value
    tmp, _, _, _ = workspace
    spec = ExperimentSpec(scenario_path=str(tmp / "small.cfg"), arms=("myopic", "ideal"),
                          sweep_axis="horizon", sweep_values=(4.0, 6.0))
    calls, write_traces, write_trace = [], cli._write_traces, cli._write_trace

    def recording_traces(paths, header, trace):
        calls.append((trace, []))
        write_traces(paths, header, trace)

    def recording_trace(path, header, cells):
        calls[-1][1].append(cells)
        write_trace(path, header, cells)

    monkeypatch.setattr(cli, "_write_traces", recording_traces)
    monkeypatch.setattr(cli, "_write_trace", recording_trace)
    cli.run_experiment(fair_scenario(horizon=6, num_runs=2, name="small"), spec, str(tmp / "out"))
    assert [(trace.rate_kbps.shape[1], len(runs)) for trace, runs in calls] == [(4, 2), (4, 2),
                                                                              (6, 2), (6, 2)]
    for trace, runs in calls:
        seen = {}
        for run, cells in enumerate(runs):
            for key, text in zip(cell_keys(trace, run), cells, strict=True):
                assert seen.setdefault(key, text) is text, key
        # the runs' cell lists are all alive, so no two text objects share an id
        assert len({id(text) for cells in runs for text in cells}) == len(seen)
        assert len(seen) > len({text for cells in runs for text in cells})  # "0," per name


def test_trace_writer_peak_memory(tmp_path):
    # one myopic arm of fair, 15 runs x H2,000: 630,000 CSV cells, whose
    # codes alone take 8 bytes each
    config = fair_scenario(horizon=2000)
    trace = simulate(config, Myopic(config.ladder), channel_paths(config, range(15)))
    cells = 15 * 2000 * (3 + 2 * len(USER_COLUMNS))
    paths = [str(tmp_path / f"run{run}.csv") for run in range(15)]
    tracemalloc.start()
    try:
        _write_traces(paths, trace_header(2), trace)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3 * 8 * cells, peak / (8 * cells)


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


def test_run_does_not_read_the_stored_values(workspace):
    # a table whose values block holds NaN bits, header and length kept:
    # run reads only the action ids, so every file it writes is unchanged,
    # and load maps the values as they are on disk
    tmp, _, spec_path, tables = workspace
    args = ["run", "--spec", str(spec_path), "--tables-dir", str(tables)]
    assert main(args + ["--out-dir", str(tmp / "a")]) == 0
    path = tables / table_filename("small", 850.0, 6)
    data = path.read_bytes()
    with open(path, "rb") as fh:
        fh.seek(data.index(b"\x93NUMPY"))
        np.lib.format.read_magic(fh)
        shape, _, dtype = np.lib.format.read_array_header_1_0(fh)
        at = fh.tell()
    nan = np.full(shape, np.nan, dtype).tobytes()
    path.write_bytes(data[:at] + nan + data[at + len(nan):])
    assert main(args + ["--out-dir", str(tmp / "b")]) == 0
    written = sorted(p.relative_to(tmp / "a") for p in (tmp / "a").rglob("*") if p.is_file())
    assert len(written) == 2 + 3 * 2  # summary, aggregate, three arms x two runs
    for name in written:
        assert (tmp / "a" / name).read_bytes() == (tmp / "b" / name).read_bytes(), name
    loaded = PolicyTable.load(str(path))
    assert loaded.values.shape == shape and np.isnan(loaded.values).all()


def test_seed_override_changes_results(workspace, capsys):
    tmp, _, spec_path, tables = workspace
    args = ["run", "--spec", str(spec_path), "--tables-dir", str(tables)]
    assert main(args + ["--out-dir", str(tmp / "a")]) == 0
    assert main(args + ["--out-dir", str(tmp / "c"), "--seed", "777"]) == 0
    assert (tmp / "a" / "summary.csv").read_bytes() != \
        (tmp / "c" / "summary.csv").read_bytes()
    capsys.readouterr()
    assert main(args + ["--out-dir", str(tmp / "d"), "--seed", "-1"]) == 1
    assert "rng_seed must be nonnegative, got -1" in capsys.readouterr().err
    assert not (tmp / "d" / "summary.csv").exists()


def test_stationary_flag_runs(workspace):
    tmp, _, spec_path, tables = workspace
    rc = main([
        "run", "--spec", str(spec_path), "--tables-dir", str(tables),
        "--out-dir", str(tmp / "s"), "--stationary",
    ])
    assert rc == 0
    assert (tmp / "s" / "summary.csv").exists()


def test_parser_built_once_gives_independent_namespaces(workspace, monkeypatch, capsys):
    # one parser serves every main() call of a process: a run with
    # --stationary must leave nothing behind in a later solve's namespace
    tmp, scenario_path, spec_path, tables = workspace
    parser = cli.build_parser()
    assert cli.build_parser() is parser
    parse, seen = parser.parse_args, []
    monkeypatch.setattr(parser, "parse_args", lambda argv: seen.append(parse(argv)) or seen[-1])
    assert main(["run", "--spec", str(spec_path), "--tables-dir", str(tables),
                 "--out-dir", str(tmp / "s"), "--stationary"]) == 0
    assert main(["solve", "--config", str(scenario_path), "--out", str(tmp / "t.ptab"),
                 "--horizon", "2"]) == 0
    assert main(["run", "--spec", str(spec_path), "--tables-dir", str(tables),
                 "--out-dir", str(tmp / "n")]) == 0
    run, solve, plain = (vars(args) for args in seen)
    assert run == {"command": "run", "spec": str(spec_path), "out_dir": str(tmp / "s"),
                   "seed": None, "stationary": True, "tables_dir": str(tables),
                   "func": cli.cmd_run}
    assert solve == {"command": "solve", "config": str(scenario_path),
                     "out": str(tmp / "t.ptab"), "rate_cap": None, "horizon": 2,
                     "func": cli.cmd_solve}
    assert plain == {**run, "out_dir": str(tmp / "n"), "stationary": False}
    assert PolicyTable.load(str(tmp / "t.ptab")).horizon == 2
    # the help text is the one a freshly built parser prints
    fresh = cli.build_parser.__wrapped__()
    monkeypatch.undo()
    for command in ([], ["solve"], ["run"], ["validate"]):
        capsys.readouterr()
        with pytest.raises(SystemExit) as done:
            main([*command, "--help"])
        assert done.value.code == 0
        with pytest.raises(SystemExit):
            fresh.parse_args([*command, "--help"])
        printed, again = capsys.readouterr().out.split("usage:")[1:]
        assert printed == again and printed.startswith(" ".join([" mdpstream", *command, "[-h]"]))


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


@pytest.mark.parametrize("second", ["missing", "mismatched"])
def test_bad_second_table_is_refused_before_any_output(workspace, capsys, second):
    # a rate_cap sweep whose first cap has its table: the second's table is
    # checked before the first cap's traces are computed or written
    tmp, scenario_path, spec_path, tables = workspace
    spec_path.write_text(yaml.safe_dump({
        "scenario": "small.cfg", "arms": ["proposed", "myopic"],
        "sweep": {"axis": "rate_cap", "values": [850, 600]},
    }), encoding="utf-8")
    if second != "missing":  # the cap-850 table under the cap-600 name
        (tables / table_filename("small", 600.0, 6)).write_bytes(
            (tables / table_filename("small", 850.0, 6)).read_bytes())
    rc = main(["run", "--spec", str(spec_path), "--out-dir", str(tmp / "out"),
               "--tables-dir", str(tables)])
    assert rc == 1
    err = capsys.readouterr().err
    assert ("missing policy table" if second == "missing" else "solved for another scenario") in err
    assert (f"mdpstream solve --config {scenario_path} --rate-cap 600 --horizon 6 "
            f"--out {tables / table_filename('small', 600.0, 6)}") in err
    assert not list((tmp / "out").rglob("*.csv"))


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


def test_one_scoring_pass_per_sweep_value(workspace, monkeypatch):
    # the arms' decisions are stacked and scored together, so step_buffer
    # steps once per epoch of each sweep value, not once per arm; the paths
    # are drawn once per run call, at the longest horizon
    tmp, scenario_path, _, tables = workspace
    assert main(["solve", "--config", str(scenario_path), "--rate-cap", "600",
                 "--out", str(tables / table_filename("small", 600.0, 6))]) == 0
    calls = {"step_buffer": 0, "channel_paths": 0}

    def counted(owner, name):
        original = getattr(owner, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(sim, "step_buffer")
    counted(cli, "channel_paths")
    # no tables at the swept horizons, so that sweep runs the client-side arms
    for axis, values, arms, epochs in (
            ("rate_cap", [850, 600], ["proposed", "myopic", "ideal"], 6 + 6),
            ("horizon", [4, 2], ["myopic", "ideal"], 4 + 2)):
        calls.update(step_buffer=0, channel_paths=0)
        spec_path = tmp / f"{axis}.yaml"
        spec_path.write_text(yaml.safe_dump({
            "scenario": "small.cfg", "arms": arms, "sweep": {"axis": axis, "values": values},
        }), encoding="utf-8")
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(tmp / axis),
                     "--tables-dir", str(tables)]) == 0
        assert calls == {"step_buffer": epochs, "channel_paths": 1}, axis


def test_run_builds_only_the_tables_it_reads(workspace):
    # each sweep value's scoring reads the per-rung profit terms, and only the
    # hindsight planner reads the per-action tables, whose 4-user build takes
    # milliseconds that a run without the ideal arm must not pay
    tmp, scenario_path, _, tables = workspace
    assert main(["solve", "--config", str(scenario_path), "--rate-cap", "600",
                 "--out", str(tables / table_filename("small", 600.0, 6))]) == 0
    for arms, action_builds in ((["proposed", "myopic", "ideal"], 2), (["proposed", "myopic"], 0)):
        spec_path = tmp / "sweep.yaml"
        spec_path.write_text(yaml.safe_dump({
            "scenario": "small.cfg", "arms": arms, "sweep": {"axis": "rate_cap", "values": [850, 600]},
        }), encoding="utf-8")
        mdp.profit_terms.cache_clear()
        mdp._action_tables.cache_clear()
        assert main(["run", "--spec", str(spec_path), "--out-dir", str(tmp / "out"),
                     "--tables-dir", str(tables)]) == 0
        builds = mdp.profit_terms.cache_info().misses, mdp._action_tables.cache_info().misses
        assert builds == (2, action_builds), arms


def test_client_rule_decided_once_for_both_client_arms(workspace, monkeypatch):
    # myopic and client_centric share one rule and one set of paths: it is
    # decided once per sweep value, and the two arms' files are twins
    tmp, _, _, tables = workspace
    decided, decide = [], cli.decide

    def counted(scenario, policy, paths):
        decided.append(type(policy).__name__)
        return decide(scenario, policy, paths)

    monkeypatch.setattr(cli, "decide", counted)
    (tmp / "client.yaml").write_text(yaml.safe_dump({
        "scenario": "small.cfg", "arms": ["myopic", "client_centric", "ideal"],
        "sweep": {"axis": "horizon", "values": [6, 4]},
    }), encoding="utf-8")
    assert main(["run", "--spec", str(tmp / "client.yaml"), "--out-dir", str(tmp / "client"),
                 "--tables-dir", str(tables)]) == 0
    assert decided == ["Myopic", "IdealOracle"] * 2
    twins = sorted((tmp / "client" / "traces").glob("trace_client_centric_*.csv"))
    assert len(twins) == 2 * 2
    for twin in twins:
        mine = twin.with_name(twin.name.replace("client_centric", "myopic"))
        assert twin.read_bytes() == mine.read_bytes(), twin.name


def test_horizon_sweep_traces_equal_runs_at_each_horizon(tmp_path):
    # paths drawn at the longest horizon and cut to a shorter one give the
    # files a run at that horizon alone writes
    for horizon in (3, 7):
        save_scenario(fair_scenario(horizon=horizon, num_runs=2, name="h"),
                      str(tmp_path / f"h{horizon}.cfg"))
        (tmp_path / f"h{horizon}.yaml").write_text(yaml.safe_dump(
            {"scenario": f"h{horizon}.cfg", "arms": ["myopic", "ideal"]}), encoding="utf-8")
        assert main(["run", "--spec", str(tmp_path / f"h{horizon}.yaml"),
                     "--out-dir", str(tmp_path / f"alone{horizon}")]) == 0
    (tmp_path / "sweep.yaml").write_text(yaml.safe_dump({
        "scenario": "h3.cfg", "arms": ["myopic", "ideal"],
        "sweep": {"axis": "horizon", "values": [7, 3]},
    }), encoding="utf-8")
    assert main(["run", "--spec", str(tmp_path / "sweep.yaml"),
                 "--out-dir", str(tmp_path / "sweep")]) == 0
    for horizon in (3, 7):
        for arm in ("myopic", "ideal"):
            for run in (0, 1):
                alone = tmp_path / f"alone{horizon}" / "traces" / f"trace_{arm}_run{run}.csv"
                swept = (tmp_path / "sweep" / "traces"
                         / f"trace_{arm}_horizon{horizon}_run{run}.csv")
                assert swept.read_bytes() == alone.read_bytes(), (horizon, arm, run)


def test_three_arm_run_refused_where_one_arm_passes(tmp_path, capsys, monkeypatch):
    # the guard counts every arm stacked into the scoring pass
    save_scenario(fair_scenario(horizon=50, num_runs=4), str(tmp_path / "s.cfg"))
    for name, arms in (("one", ["myopic"]), ("three", ["myopic", "client_centric", "ideal"])):
        (tmp_path / f"{name}.yaml").write_text(yaml.safe_dump(
            {"scenario": "s.cfg", "arms": arms}), encoding="utf-8")
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", 0)
    run = ["run", "--out-dir", str(tmp_path / "out"), "--spec"]
    assert main(run + [str(tmp_path / "one.yaml")]) == 1
    one = int(re.search(r"needs (\d+) bytes", capsys.readouterr().err).group(1))
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", one)
    assert main(run + [str(tmp_path / "one.yaml")]) == 0
    assert main(run + [str(tmp_path / "three.yaml")]) == 1
    assert "simulating 3 arm(s) x 4 runs x horizon 50 x 2 users needs" in capsys.readouterr().err
    assert len(list((tmp_path / "out" / "traces").iterdir())) == 4  # the one-arm run's


def test_validate_accepts_bundled_scenarios(capsys):
    assert main(["validate", "--config", str(BUNDLED / "fair.cfg")]) == 0
    out = capsys.readouterr().out
    assert "ok" in out
    assert "state space: 400" in out
    assert "feasible actions: 13" in out


def test_validate_reports_grids_without_buffering_or_variation(tmp_path, capsys):
    # every rate fits under the lowest bandwidth (95 Kbps) and the ladder
    # spans 40 Kbps against a 350 Kbps threshold
    data = yaml.safe_load((BUNDLED / "fair.cfg").read_text(encoding="utf-8"))
    data["ladder_kbps"] = [50.0, 90.0]
    path = tmp_path / "calm.cfg"
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 0
    out = capsys.readouterr().out
    assert "buffering impossible on this grid (bandwidth always covers every rate)" in out
    assert "ladder span never exceeds the variation threshold" in out
    assert out.endswith("ok\n")


def test_solve_refuses_an_infeasible_cap(tmp_path, capsys):
    # two users at the lowest rung need 190.22 Kbps, over a 150 Kbps cap
    out = tmp_path / "tables" / "tight.ptab"
    assert main(["solve", "--config", str(BUNDLED / "fair.cfg"), "--rate-cap", "150",
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("infeasible: no feasible action")
    assert not out.exists() and not out.parent.exists()


def test_solve_horizon_override(tmp_path):
    out = tmp_path / "short.ptab"
    assert main(["solve", "--config", str(BUNDLED / "fair.cfg"), "--horizon", "3",
                 "--out", str(out)]) == 0
    assert PolicyTable.load(str(out)).horizon == 3


def test_validate_flags_bad_transition_rows(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    save_scenario(fair_scenario(), str(path))
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["channel"]["transition"][0] = [0.9, 0.0, 0.0, 0.0]
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    assert "PROBLEM" in capsys.readouterr().err


def test_validate_reports_ladder_and_channel_problems_together(tmp_path, capsys):
    path = tmp_path / "bad.cfg"
    save_scenario(fair_scenario(), str(path))
    data = yaml.safe_load(path.read_text(encoding="utf-8"))
    data["ladder_kbps"][0] = 900.0
    data["channel"]["transition"][0] = [0.9, 0.0, 0.0, 0.0]
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    assert main(["validate", "--config", str(path)]) == 1
    problems = [line for line in capsys.readouterr().err.splitlines()
                if line.startswith("PROBLEM")]
    assert len(problems) == 2, problems
    assert "strictly increasing" in problems[0]
    assert problems[1].startswith("PROBLEM: channel: transition row 0")


def test_validate_reports_infeasible_cap(tmp_path, capsys):
    path = tmp_path / "tight.cfg"
    save_scenario(fair_scenario().with_rate_cap(100.0), str(path))
    assert main(["validate", "--config", str(path)]) == 2
    assert "no feasible action" in capsys.readouterr().err


def test_out_of_region_representative_refused_by_every_command(tmp_path, capsys):
    data = yaml.safe_load((BUNDLED / "fair.cfg").read_text(encoding="utf-8"))
    data["channel"]["state_bandwidth_kbps"] = [95.0, 600.0, 700.0, 896.0]
    scenario = tmp_path / "skewed.cfg"
    scenario.write_text(yaml.safe_dump(data), encoding="utf-8")
    spec = tmp_path / "exp.yaml"
    spec.write_text(yaml.safe_dump({"scenario": "skewed.cfg", "arms": ["proposed", "myopic"]}),
                    encoding="utf-8")
    fix = ("state 1's representative bandwidth 600.0 Kbps maps to state 2; "
           "adjust the boundaries or the representative")
    for argv in (["validate", "--config", str(scenario)],
                 ["solve", "--config", str(scenario), "--out", str(tmp_path / "t.ptab")],
                 ["run", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 1, argv
        assert fix in capsys.readouterr().err, argv
    assert not (tmp_path / "t.ptab").exists()


# the first five ids are the ones pytest gave the three-parameter form
@pytest.mark.parametrize("field, value, where, need", [
    pytest.param("transition entries", float("nan"),
                 lambda data: (data["channel"]["transition"][1], -1), "finite",
                 id="transition entries-nan-<lambda>"),
    pytest.param("ladder rates", float("inf"), lambda data: (data["ladder_kbps"], -1), "finite",
                 id="ladder rates-inf-<lambda>"),
    pytest.param("segment_seconds", float("inf"), lambda data: (data, "segment_seconds"),
                 "finite", id="segment_seconds-inf-<lambda>"),
    pytest.param("frames_per_second", float("inf"), lambda data: (data, "frames_per_second"),
                 "finite", id="frames_per_second-inf-<lambda>"),
    pytest.param("frames_per_second", float("nan"), lambda data: (data, "frames_per_second"),
                 "finite", id="frames_per_second-nan-<lambda>"),
    pytest.param("rng_seed", -1, lambda data: (data, "rng_seed"), "nonnegative",
                 id="rng_seed--1"),
    pytest.param("name", None, lambda data: (data, "name"), "a string", id="name-null"),
    pytest.param("name", ["a", "b"], lambda data: (data, "name"), "a string", id="name-list"),
])
def test_non_finite_model_numbers_refused(tmp_path, capsys, field, value, where, need):
    # before, a NaN transition entry crashed validate inside the stationary
    # solve, solve exited 0 with NaN table values, an infinite segment
    # duration or frame rate passed validate and put nan and inf in
    # summary.csv, a negative seed passed validate and crashed run inside
    # numpy, and a null or list name passed every command
    data = yaml.safe_load((BUNDLED / "fair.cfg").read_text(encoding="utf-8"))
    container, key = where(data)
    container[key] = value
    scenario = tmp_path / "bad.cfg"
    scenario.write_text(yaml.safe_dump(data), encoding="utf-8")
    spec = tmp_path / "exp.yaml"
    spec.write_text(yaml.safe_dump({"scenario": "bad.cfg", "arms": ["myopic"]}),
                    encoding="utf-8")
    for argv in (["validate", "--config", str(scenario)],
                 ["solve", "--config", str(scenario), "--out", str(tmp_path / "t.ptab")],
                 ["run", "--spec", str(spec), "--out-dir", str(tmp_path / "out")]):
        assert main(argv) == 1, argv
        assert f"{field} must be {need}, got {value!r}" in capsys.readouterr().err, argv
    assert not (tmp_path / "t.ptab").exists()
    assert not (tmp_path / "out" / "summary.csv").exists()


def _leaves(node, path=()):
    """The path of every scalar in a YAML tree, through mappings and lists."""
    items = node.items() if isinstance(node, dict) else enumerate(node) if isinstance(node, list) else ()
    return [leaf for key, child in items for leaf in _leaves(child, (*path, key))] or [path]


BUNDLED_LEAVES = [(name, path) for name in ("fair.cfg", "diff.cfg") for path in
                  _leaves(yaml.safe_load((BUNDLED / name).read_text(encoding="utf-8")))]
BAD_VALUES = [None, "x", -1, 0, 0.5, math.inf, -math.inf, math.nan, [], {}, [1], 1e308, True,
              10 ** 6]


@given(leaf=st.sampled_from(BUNDLED_LEAVES), bad=st.sampled_from(BAD_VALUES))
@settings(max_examples=200, deadline=None)
def test_any_bad_leaf_gives_an_exit_code(leaf, bad):
    # one leaf of a bundled scenario replaced by a bad value: validate and a
    # short solve must each end in an exit code, never an escaping exception
    name, path = leaf
    data = yaml.safe_load((BUNDLED / name).read_text(encoding="utf-8"))
    container = data
    for key in path[:-1]:
        container = container[key]
    container[path[-1]] = bad
    with tempfile.TemporaryDirectory() as tmp:
        scenario = Path(tmp) / "bad.cfg"
        scenario.write_text(yaml.safe_dump(data), encoding="utf-8")
        for argv in (["validate", "--config", str(scenario)],
                     ["solve", "--config", str(scenario), "--out", f"{tmp}/t.ptab",
                      "--horizon", "2"]):
            assert type(main(argv)) is int, argv


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
    ({"arms": ["myopic"], "sweep": {"axis": "rate_cap", "values": [True, 850]}},
     "must be a number, got True"),
    ({"arms": ["myopic"], "sweep": {"axis": "horizon", "values": [True]}},
     "must be a number, got True"),
    ({"arms": ["myopic"], "sweep": {"axis": "rate_cap", "values": [600], "runs": 3}},
     "unknown sweep keys: runs"),
])
def test_malformed_experiment_file_names_the_form(tmp_path, capsys, fields, form):
    save_scenario(fair_scenario(), str(tmp_path / "s.cfg"))
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({"scenario": "s.cfg", **fields}), encoding="utf-8")
    rc = main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")])
    assert rc == 1
    assert form in capsys.readouterr().err


def test_oversized_run_refused_before_allocating(tmp_path, capsys, monkeypatch):
    save_scenario(fair_scenario(), str(tmp_path / "s.cfg"))
    spec_path = tmp_path / "exp.yaml"
    spec_path.write_text(yaml.safe_dump({
        "scenario": "s.cfg", "arms": ["myopic"],
        "sweep": {"axis": "horizon", "values": [20000]},
    }), encoding="utf-8")
    # 15 runs x 2 users x horizon 20,000: the scoring pass holds 57.7 MB
    # against a cap of 1 MB
    monkeypatch.setattr(mdp, "DEFAULT_MEMORY_CAP_BYTES", 1 << 20)
    tracemalloc.start()
    try:
        rc = main(["run", "--spec", str(spec_path), "--out-dir", str(tmp_path / "o")])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 1
    err = capsys.readouterr().err
    assert "1 arm(s) x 15 runs x horizon 20000 x 2 users needs 57667936 bytes" in err
    assert f"over the memory cap of {1 << 20} bytes; use fewer runs or a shorter horizon" in err
    assert peak < 1 << 20
    assert not list((tmp_path / "o").rglob("*.csv"))


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
