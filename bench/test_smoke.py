"""Smoke test of the benchmark: every workload at toy size.

    python3 -m pytest bench/test_smoke.py

Checks that every metric named in BENCHMARK.json is emitted with its unit,
that every operation's output check passes, that the exact counts repeat
across two traced runs (22 fluid.flux calls per step, 6 sampling passes per
audited model, 2 wave-speed evaluations per step), and that the benchmark
refuses to run without the package's sources.
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
with open(os.path.join(ROOT, "BENCHMARK.json")) as _fh:
    SPEC = json.load(_fh)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
RUN_WORKLOADS = ("heat-1d", "fluid-pulse", "heat-aniso")


def bench(workload, trace, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"),
         "--workload", workload, "--seed", "3", "--seconds", "0.5",
         "--trace", str(trace), "--smoke"],
        cwd=cwd, capture_output=True, text=True, timeout=170)
    return proc


def result(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] and res["failed"] == 0 and res["attempted"] >= 1
    return res


def units(res):
    return {name: m["unit"] for name, m in res["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    res = result(workload, 0)
    assert units(res) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in res["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics_and_exact_counts(workload):
    first, second = result(workload, 1), result(workload, 1)
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert units(first) == expected == units(second)
    a = {n: m["value"] for n, m in first["metrics"].items()}
    b = {n: m["value"] for n, m in second["metrics"].items()}
    for name, unit in expected.items():
        if unit in ("count", "B"):
            assert a[name] == b[name], name

    steps = a["solver.steps"]
    if workload in RUN_WORKLOADS:
        assert steps > 0
        assert a["solver.speed_evals_per_step"] == 2
        # the audit gate of solver.run samples twice
        assert a["verify.sample_states.calls"] == 2
    if workload == "fluid-pulse":
        assert a["fluid.flux.calls"] == 22 * steps
    if workload == "heat-1d":
        assert a["heat.admissible.calls"] // steps == 5
    if workload == "heat-aniso":
        assert a["solver.newton_iters"] > 0
        # smoke size: 8 interior cells, and the 4 ghost cells are relaxed too
        assert a["solver.source_rows_per_step"] == 8 + 4
    if workload == "audit":
        assert a["verify.sample_states.calls"] == 6 * 3


def test_refuses_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(os.path.join(ROOT, path), tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(WORKLOADS[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
