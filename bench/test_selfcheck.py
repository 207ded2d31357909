"""Self-check of the benchmark: run with ``python3 -m pytest bench -q``.

Each workload runs twice traced and once untraced, at the shortest
measurement (the minimum number of iterations), about two minutes in all.
The checks:

- the printed metrics are exactly those BENCHMARK.json declares;
- every run passes its own output checks, which include that traced and
  untraced iterations write byte-identical files;
- every per-layer metric is nonzero on the workloads meant to exercise its
  layer, which catches a binding the tracer missed;
- counts (calls, rows, points, epochs, replicates) repeat exactly across
  the two traced runs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

from tracer import TARGETS  # noqa: E402

WORKLOADS = ("train-16k", "eval-4k", "cv-grid-1k")
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-4000:]
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def traced():
    return {w: (_run(w, 1), _run(w, 1)) for w in WORKLOADS}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_declared_end_to_end_metrics(workload):
    result = _run(workload, 0)
    assert result["correct"] and result["failed"] == 0
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_traced_runs_report_declared_layer_metrics(traced):
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for runs in traced.values():
        for result in runs:
            assert result["correct"] and result["failed"] == 0
            assert {k: v["unit"] for k, v in result["metrics"].items()} == declared


def test_layer_metrics_nonzero_where_exercised(traced):
    commands = {"train-16k": ("train", "predict"), "eval-4k": ("eval",),
                "cv-grid-1k": ("cv",)}
    walls = {f"cli.{c}.wall_s" for cs in commands.values() for c in cs}
    zero = []
    for target in TARGETS:
        for workload in target.on:
            for name, metric in traced[workload][0]["metrics"].items():
                if (name.startswith(target.span + ".") and name not in walls
                        and metric["value"] == 0):
                    zero.append(f"{name} on {workload}")
    for workload, names in commands.items():
        for c in names:
            if traced[workload][0]["metrics"][f"cli.{c}.wall_s"]["value"] <= 0:
                zero.append(f"cli.{c}.wall_s on {workload}")
    assert not zero


def test_counts_repeat_across_traced_runs(traced):
    for workload, (first, second) in traced.items():
        for name, metric in first["metrics"].items():
            if metric["unit"] == "count":
                assert metric["value"] == second["metrics"][name]["value"], (workload, name)
