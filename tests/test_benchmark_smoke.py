"""The benchmark command end to end at its smoke size, so that it cannot rot.

``perfbench/run.py --smoke`` runs every workload tiny, untraced and traced
(the traced mode calls ``harness._run_job`` directly); each run prints one
JSON result line. Each untraced result reports exactly the end-to-end
metrics BENCHMARK.json declares and each traced one exactly its per-layer
metrics, so a step the tracer cannot see (``select``/``update`` bypassed)
fails here. No timing is asserted.
"""
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_benchmark_smoke_runs_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    results = [json.loads(line) for line in proc.stdout.splitlines() if line.startswith("{")]
    assert results
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in declared["end_to_end"]}
    per_layer = {m["name"] for m in declared["per_layer"]}
    assert len(results) == 2 * len(declared["workloads"])  # untraced, then traced, per workload
    for i, result in enumerate(results):
        assert result["correct"] is True
        assert result["failed"] == 0
        assert set(result["metrics"]) == (per_layer if i % 2 else end_to_end)
