"""Tests of the benchmark itself. Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE)]

import workloads  # noqa: E402
from harness import DeterminismError, Host, measure, run_job, scaled, tail  # noqa: E402
from tracing import NullTracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TOY = {
    "detour-source": {"n": (12, 12)},
    "label-large": {"n": (40, 40), "sta_n": 20},
    "verify-small": {},
}


def toy(name: str) -> workloads.Workload:
    return dataclasses.replace(workloads.WORKLOADS[name], **TOY[name])


def test_benchmark_json_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
@pytest.mark.parametrize("traced", [False, True])
def test_every_workload_runs_at_toy_size(name, traced, tmp_path):
    result = measure(toy(name), 1, 0.05, traced, ROOT / "src", tmp_path)
    assert result["correct"], result["problems"]
    assert result["attempted"] >= (2 if traced else 11)
    expected = SPEC["per_layer" if traced else "end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in expected}
    if not traced:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_detour_counts_leave_out_the_checks(tmp_path):
    # eda extends each road once, and antirisk queries one (road, source)
    # row per extend, so the job itself never repeats a detour key; the
    # checks' folds query the same table afterwards and must not count.
    metrics = measure(toy("detour-source"), 1, 0.05, True, ROOT / "src", tmp_path)["metrics"]
    assert metrics["paths.detour_queries"]["value"] == metrics["engines.extend_calls"]["value"] > 0
    assert metrics["paths.detour_repeat_ratio"]["value"] == 0.0


def _faulty_eda(fault):
    real = workloads.SOLVERS["eda"]

    def solve(graph, source, system, func):
        tree, stats = real(graph, source, system, func)
        fault(tree)
        return tree, stats

    return solve


def _perturb(tree):
    v = max(u for u in tree.covered - {tree.source} if math.isfinite(tree.value[u]))
    tree.value[v] += 1.0


def _drop_leaf(tree):
    leaves = tree.covered - {u for u, _ in tree.parent.values()}
    v = max(leaves - {tree.source})
    tree.covered.discard(v)
    del tree.parent[v], tree.value[v]
    tree.order.remove(v)


@pytest.mark.parametrize("fault", [_perturb, _drop_leaf])
def test_a_wrong_tree_counts_as_failed(fault, monkeypatch, tmp_path):
    monkeypatch.setitem(workloads.SOLVERS, "eda", _faulty_eda(fault))
    result = measure(toy("detour-source"), 1, 0.05, False, ROOT / "src", tmp_path)
    assert not result["correct"]
    assert result["failed"] == result["attempted"]
    assert result["metrics"]["ok_frac"]["value"] == 0.0


def test_known_criterion_3_misses_lower_ok_frac_without_failing_the_job():
    workload = workloads.WORKLOADS["verify-small"]
    for index in range(100):
        job = run_job(workload, 1, index, NullTracer(), Host())
        if job.known:
            assert not job.failed and not job.problems
            assert job.failed_outputs == len(job.known)
            assert all("embfa/expected-cost" in line for line in job.known)
            return
    pytest.fail("no known miss in 100 verify-small jobs")


def test_changing_exact_counts_fail_loudly(monkeypatch, tmp_path):
    real = workloads.SOLVERS["eda"]
    calls = []

    def drifting(graph, source, system, func):
        tree, stats = real(graph, source, system, func)
        calls.append(None)
        stats.extend_calls += len(calls)
        return tree, stats

    monkeypatch.setitem(workloads.SOLVERS, "eda", drifting)
    with pytest.raises(DeterminismError):
        measure(toy("detour-source"), 1, 0.05, False, ROOT / "src", tmp_path)


def test_scaling_touches_times_only():
    metrics = {"t": (2.0, "s/job"), "u": (4.0, "ms"), "n": (3.0, "count/job"), "r": (0.5, "ratio")}
    assert scaled(metrics, 0.5) == {"t": (1.0, "s/job"), "u": (2.0, "ms"), "n": (3.0, "count/job"), "r": (0.5, "ratio")}


def test_tail_keeps_ten_jobs_beyond_it_up_to_p90():
    times = [float(i) for i in range(20)]
    assert tail(times) == (9.0, 50.0)
    assert tail([float(i) for i in range(100)]) == (89.0, 90.0)
    assert tail([float(i) for i in range(700)]) == (629.0, 90.0)
    with pytest.raises(ValueError):
        tail(times[:10])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "detour-source", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode == 2
    assert '"correct"' not in done.stdout
