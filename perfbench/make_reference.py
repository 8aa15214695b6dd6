"""Record reference.json: Monte Carlo reference regrets and default-seed digests.

Run from the repository root: python3 perfbench/make_reference.py

For every workload, at full and at smoke size, it runs the workload's preset
on REFERENCE_SEEDS seeds that no benchmark run uses by default and records the
count, mean, minimum and maximum of the final cumulative regret of every
(variant, policy). It also records the sha256 of every output file at the
default seed base, so that a change of output bytes shows by file name.

Re-record only in a change that declares why the outputs moved.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

from checks import digests, read_curves
from run import REFERENCE, Bench
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS

REFERENCE_BASE = 1_000_000
REFERENCE_SEEDS = 100


def final_regrets(bench: Bench) -> dict:
    report = bench.launch("run", workers=2)
    if report is None:
        raise SystemExit(f"reference run of {bench.workload.name} failed")
    finals: dict[str, list[float]] = {}
    for (eid, policy, _seed), (_ts, regret) in read_curves(report["dir"] / "out" / f"{bench.config['name']}.csv").items():
        finals.setdefault(f"{eid}|{policy}", []).append(float(regret[-1]))
    return {
        label: {"n": len(v), "mean": statistics.fmean(v), "min": min(v), "max": max(v)}
        for label, v in sorted(finals.items())
    }


def record(root: Path, name: str, smoke: bool) -> dict:
    bench = Bench(root, name, REFERENCE_BASE, smoke)
    try:
        bench.config["seeds"] = list(range(REFERENCE_BASE, REFERENCE_BASE + REFERENCE_SEEDS))
        bench.config_path.write_text(json.dumps(bench.config, indent=2))
        entry = {"final_regret": final_regrets(bench)}
    finally:
        bench.close()
    bench = Bench(root, name, DEFAULT_SEED, smoke)
    try:
        report = bench.launch("run", bench.workload.workers)
        if report is None:
            raise SystemExit(f"default-seed run of {name} failed")
        entry["default_seed_digests"] = digests(report["dir"] / "out")
    finally:
        bench.close()
    return entry


def main() -> int:
    root = Path.cwd()
    sys.path.insert(0, str(root / "src"))
    doc = {
        "reference_seed_base": REFERENCE_BASE,
        "reference_seeds": REFERENCE_SEEDS,
        "default_seed": DEFAULT_SEED,
        "heldout_seed": HELDOUT_SEED,
        "workloads": {
            name: {size: record(root, name, size == "smoke") for size in ("full", "smoke")}
            for name in WORKLOADS
        },
    }
    REFERENCE.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
