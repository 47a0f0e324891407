"""Smoke test of the benchmark at a tiny size (about a minute).

    python3 -m pytest perfbench/test_smoke.py

Every workload must emit every metric BENCHMARK.json names, with its unit,
in both trace modes and without failures; a program whose outputs are
wrong must make the failure count non-zero; a directory without the
program must exit non-zero without printing a result.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

with open(os.path.join(ROOT, "BENCHMARK.json"), "r", encoding="utf-8") as fh:
    BENCH = json.load(fh)


def bench(root: str, workload: str, trace: int, seed: int = 5):
    return subprocess.run(
        [sys.executable, os.path.join(root, "perfbench", "run.py"),
         "--workload", workload, "--seed", str(seed), "--seconds", "1",
         "--trace", str(trace), "--smoke"],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def result_of(proc) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


def copy_checkout(dest, with_program: bool) -> str:
    """A checkout copy holding BENCHMARK.json and the benchmark, plus the
    program and its scenarios when ``with_program`` is set."""
    dest = str(dest)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), dest)
    ignore = shutil.ignore_patterns(".work", "__pycache__")
    shutil.copytree(HERE, os.path.join(dest, "perfbench"), ignore=ignore)
    if with_program:
        for name in ("src", "scenarios"):
            shutil.copytree(os.path.join(ROOT, name), os.path.join(dest, name),
                            ignore=ignore)
    return dest


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in BENCH["workloads"]])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = result_of(bench(ROOT, workload, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = BENCH["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in wanted} == {
        name: entry["unit"] for name, entry in result["metrics"].items()
    }
    assert all(isinstance(e["value"], float) for e in result["metrics"].values())


def test_corrupted_output_is_counted_as_failed(tmp_path):
    root = copy_checkout(tmp_path, with_program=True)
    sim = os.path.join(root, "src", "mdpstream", "sim.py")
    with open(sim, "r", encoding="utf-8") as fh:
        source = fh.read()
    # Credit 1% too much content per segment: every buffer level drifts.
    correct = "return remaining + segment_s, rebuffer"
    assert correct in source
    with open(sim, "w", encoding="utf-8") as fh:
        fh.write(source.replace(correct, "return remaining + 1.01 * segment_s, rebuffer"))
    proc = bench(root, "paper-2u", 0)
    result = result_of(proc)
    assert not result["correct"]
    assert result["failed"] > 0
    assert "buffer not conserved" in proc.stdout


def test_directory_without_the_program_fails_without_a_result(tmp_path):
    root = copy_checkout(tmp_path, with_program=False)
    proc = bench(root, "paper-2u", 0)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
