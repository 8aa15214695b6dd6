"""Tests of the benchmark itself; no timing assertions.

Run from the repository root: python3 -m pytest perfbench/test_smoke.py
"""
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

from tracing import CountingGenerator, Tracer, own_ns
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent


def test_counting_generator_returns_the_generators_own_values():
    plain, counted = np.random.default_rng(7), CountingGenerator(np.random.default_rng(7))
    assert np.array_equal(plain.beta(np.ones(5), np.ones(5)), counted.beta(np.ones(5), np.ones(5)))
    assert plain.random() == counted.random()
    assert plain.integers(3) == counted.integers(3)
    assert (counted.calls, counted.draws) == (3, 7)


def test_own_ns_removes_the_tracers_cost_from_every_span():
    tracer = Tracer()
    # a job (0) holding a simulate (1) holding a select (2) and an update (3)
    tracer.spans = [[0, 0, 1000, -1], [0, 100, 900, 0], [0, 200, 300, 1], [0, 400, 600, 1]]
    assert own_ns(tracer, 0, 4, (10.0, 1.0)) == [1000 - 1 - 30, 800 - 1 - 20, 99, 199]
    assert own_ns(tracer, 1, 4, (10.0, 1.0)) == [800 - 1 - 20, 99, 199]


def test_smoke_every_workload_both_modes():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert len(results) == 2 * len(WORKLOADS)
    for i, result in enumerate(results):
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
        assert set(result["metrics"]) == (per_layer if i % 2 else end_to_end)
