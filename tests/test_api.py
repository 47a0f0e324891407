"""The package surface: the documented example runs, every exported name
resolves, and the entry points the benchmark in ``perfbench/`` calls by
name still exist."""

import ast
import dataclasses
import importlib.util
import inspect
import os
import re
import textwrap
from pathlib import Path

import pytest

import mdpstream
from mdpstream import cli, configfile, economics, mdp, metrics, model, policies, sim
from mdpstream.configfile import save_scenario
from mdpstream.economics import derive_constants
from mdpstream.presets import fair_scenario


def test_package_docstring_example_runs(capsys):
    block = re.search(r"Typical library use::\n\n((?:    .*\n|\n)+)", mdpstream.__doc__)
    exec(textwrap.dedent(block.group(1)), {})
    assert capsys.readouterr().out.startswith("SessionSummary(arm='proposed', run_index=0,")


def test_every_exported_name_resolves():
    for name in mdpstream.__all__:
        assert getattr(mdpstream, name) is not None, name


def test_benchmark_entry_points_exist():
    # called directly, or replaced by a timing wrapper in traced runs
    for owner, name in [
        (sim, "run_session"), (sim, "SegmentRecord"), (sim.Trace, "records"),
        (metrics, "summarize"), (cli, "run_session"), (cli, "_write_trace"),
        (cli, "table_filename"), (mdp, "feasible_actions"), (model, "state_space_size"),
        (cli, "main"),
        (configfile, "load_scenario"), (cli, "load_scenario"),
        (economics, "derive_constants"), (cli, "derive_constants"), (sim, "derive_constants"),
        (mdp, "backward_induction"), (cli, "backward_induction"), (sim, "solve_ideal"),
        (mdp.PolicyTable, "save"), (mdp.PolicyTable, "load"),
        (metrics, "aggregate_runs"), (cli, "summarize"), (cli, "aggregate_runs"),
    ]:
        assert callable(getattr(owner, name, None)), f"{owner.__name__}.{name}"
    # perfbench/checks.table_digest reads a solved table's values and its
    # per-(epoch, state) rate indices, gathered from the digits by id
    assert {"values", "action_digits", "action_ids"} <= {
        field.name for field in dataclasses.fields(mdp.PolicyTable)}
    assert isinstance(mdp.PolicyTable.action_rate_indices, property)
    # perfbench/child.py builds each arm's policy by keyword
    config = fair_scenario(horizon=1)
    table = mdp.backward_induction(config.ladder, config.channel, config.profit,
                                   derive_constants(config.ladder, config.channel, config.profit),
                                   config.horizon)
    assert policies.Myopic(ladder=config.ladder).decide([None]).tolist() == [0]
    assert policies.Proposed(table=table).table is table
    assert isinstance(policies.IdealOracle(), policies.IdealOracle)


def test_output_columns_come_from_trace_and_session_summary():
    # perfbench/checks.py names SegmentRecord through mdpstream.sim, builds
    # it by keyword from a trace CSV and keeps its own copy of the per-user
    # columns; the CSV headers are these names in this order
    trace_names = tuple(field.name for field in dataclasses.fields(sim.Trace))
    assert sim.USER_COLUMNS == trace_names[:-2]
    assert trace_names[-2:] == ("bottleneck_cost", "stage_profit")
    record = sim.SegmentRecord
    assert tuple(field.name for field in dataclasses.fields(record)) == (
        "epoch", *sim.USER_COLUMNS, "bottleneck_cost", "stage_profit")
    assert record.__name__ == "SegmentRecord" and record.__module__ == "mdpstream.sim"
    assert record.__doc__ and not record.__doc__.startswith("SegmentRecord(")
    cells = [(0.0,)] * len(sim.USER_COLUMNS)
    built = record(epoch=3, **dict(zip(sim.USER_COLUMNS, cells)), bottleneck_cost=0.5,
                   stage_profit=1.5)
    assert built == record(3, *cells, 0.5, 1.5)
    with pytest.raises(dataclasses.FrozenInstanceError):
        built.epoch = 4
    checks = importlib.util.spec_from_file_location(
        "checks", Path(__file__).resolve().parents[1] / "perfbench" / "checks.py")
    module = importlib.util.module_from_spec(checks)
    checks.loader.exec_module(module)
    assert module._USER_FIELDS == sim.USER_COLUMNS
    summary_names = tuple(field.name for field in dataclasses.fields(metrics.SessionSummary))
    assert summary_names == ("arm", "run_index", *metrics.PER_USER_METRICS, "profit")
    assert len(metrics.PER_USER_METRICS) == 5


def test_trace_writer_takes_the_output_path_first(tmp_path, monkeypatch):
    # perfbench/child.py wraps cli._write_trace and reads the size of the
    # file at args[0], so the path must come first and be passed by position
    assert next(iter(inspect.signature(cli._write_trace).parameters)) == "path"
    write, sizes = cli._write_trace, {}

    def traced(*args, **kwargs):
        write(*args, **kwargs)
        sizes[args[0]] = os.path.getsize(args[0])

    monkeypatch.setattr(cli, "_write_trace", traced)
    config = fair_scenario(horizon=4, num_runs=2, name="small")
    save_scenario(config, str(tmp_path / "small.cfg"))
    spec = cli.ExperimentSpec(scenario_path=str(tmp_path / "small.cfg"), arms=("myopic",))
    cli.run_experiment(config, spec, str(tmp_path / "out"))
    traces = tmp_path / "out" / "traces"
    assert sizes == {str(path): path.stat().st_size for path in traces.iterdir()}
    assert len(sizes) == 2 and all(sizes.values())


def test_every_import_is_used():
    # a name a module imports is used there, exported in __all__, or marked
    # "# noqa: F401" on its import line
    for path in sorted(Path(mdpstream.__file__).parent.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        lines, tree = source.splitlines(), ast.parse(source)
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        used |= set(mdpstream.__all__) if path.name == "__init__.py" else set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    name = alias.asname or alias.name.split(".")[0]
                    marked = "# noqa: F401" in lines[alias.lineno - 1]
                    assert name in used or marked, f"{path.name}:{alias.lineno}: {name} unused"


def test_only_mdp_names_its_private_names():
    # the solver, the hindsight planner, their shared tables and the q
    # reduction live in mdp; no other module reaches into its private names
    for path in sorted(Path(mdpstream.__file__).parent.glob("*.py")):
        if path.name == "mdp.py":
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                names = [node.attr] if node.value.id == "mdp" else []
            elif isinstance(node, ast.ImportFrom) and node.module in ("mdp", "mdpstream.mdp"):
                names = [alias.name for alias in node.names]
            else:
                continue
            private = [name for name in names if name.startswith("_")]
            assert not private, f"{path.name}:{node.lineno}: mdp.{private[0]}"


def test_only_mdp_tabulates_income_and_variation():
    # the solver, the planner and the simulator read income and variation
    # from mdp.profit_terms; no other module computes them itself
    for path in sorted(Path(mdpstream.__file__).parent.glob("*.py")):
        if path.name in ("mdp.py", "economics.py"):
            continue
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "attr", getattr(node.func, "id", None))
                assert name not in ("playback_income", "smoothness_cost"), (
                    f"{path.name}:{node.lineno}: {name}")
