"""Output check that gates every benchmark run.

``digests`` fingerprints every file a run wrote, so repeats at one seed base
can be compared byte for byte. ``check_run`` verifies one run's CSV and JSON
against the config and against the Monte Carlo reference in reference.json.
"""
from __future__ import annotations

import csv
import hashlib
import math
from pathlib import Path

import numpy as np

# A (variant, policy) mean final regret over the run's seeds passes when it
# lies in the range of the reference's per-seed final regrets, widened by this
# share of the range on each side. Final regret is skewed (instances differ
# per seed), so the tolerance is taken from the sample range, not from a
# normal approximation.
MC_WIDEN = 0.5


def digests(out_dir: Path) -> dict[str, str]:
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(out_dir.iterdir())
        if p.suffix in (".csv", ".json", ".svg")
    }


def expected_jobs(config: dict) -> int:
    names = [v["name"] for v in config["instances"]]
    pairs = sum(
        1 for p in config["policies"] for n in names if p.get("variants") is None or n in p["variants"]
    )
    return pairs * len(config["seeds"])


def read_curves(csv_path: Path) -> dict[tuple[str, str, int], tuple[np.ndarray, np.ndarray]]:
    """(experiment id, policy, seed) -> (t, cumulative regret), in file order."""
    rows: dict[tuple[str, str, int], tuple[list[int], list[float]]] = {}
    with csv_path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if header != ["experiment_id", "policy", "seed", "t", "cumulative_regret"]:
            raise ValueError(f"unexpected CSV header {header}")
        for eid, policy, seed, t, value in reader:
            ts, values = rows.setdefault((eid, policy, int(seed)), ([], []))
            ts.append(int(t))
            values.append(float(value))
    return {k: (np.asarray(ts), np.asarray(v)) for k, (ts, v) in rows.items()}


def check_run(out_dir: Path, config: dict, reference: dict | None) -> list[str]:
    """Problems found in one run's outputs; empty when the run is correct."""
    from clusterbandit.harness import load_results_json

    name = config["name"]
    horizon = config["horizon"]
    if config.get("stride") is not None or horizon > 10_000:
        return ["benchmark configs log every step: stride must be unset and horizon <= 10000"]
    problems: list[str] = []
    curves = read_curves(out_dir / f"{name}.csv")
    n_rows = sum(ts.size for ts, _ in curves.values())
    jobs = expected_jobs(config)
    if len(curves) != jobs or n_rows != jobs * horizon:
        problems.append(f"csv: {n_rows} rows in {len(curves)} curves, expected {jobs} x {horizon}")
    for key, (ts, regret) in curves.items():
        if not np.array_equal(ts, np.arange(1, horizon + 1)):
            problems.append(f"csv {key}: logged steps are not 1..{horizon}")
        if not np.all(np.isfinite(regret)) or regret.min() < 0 or np.any(np.diff(regret) < 0):
            problems.append(f"csv {key}: cumulative regret not finite, non-negative, non-decreasing")

    doc = load_results_json(out_dir / f"{name}.json")
    if doc["config"]["seeds"] != config["seeds"] or doc["config"]["horizon"] != horizon:
        problems.append("json: config does not match the generated config")
    finals: dict[str, float] = {}
    for s in doc["summaries"]:
        group = [r for (eid, pol, _), (_, r) in sorted(curves.items())
                 if eid == s["experiment_id"] and pol == s["policy"]]
        label = f"{s['experiment_id']}|{s['policy']}"
        if len(group) != s["n_seeds"] or s["n_seeds"] != len(config["seeds"]):
            problems.append(f"json {label}: n_seeds {s['n_seeds']} does not match the csv")
            continue
        mean = np.stack(group).mean(axis=0)
        if not (np.allclose(s["mean_curve"], mean, rtol=1e-12, atol=1e-9)
                and math.isclose(s["final_mean"], mean[-1], rel_tol=1e-12, abs_tol=1e-9)):
            problems.append(f"json {label}: summary is not the mean of the csv rows")
        finals[label] = float(mean[-1])
    if len(finals) != len({(eid, pol) for eid, pol, _ in curves}):
        problems.append("json: summaries do not cover every (variant, policy) of the csv")
    if reference is not None:
        problems.extend(_check_reference(finals, reference))
    return problems


def _check_reference(finals: dict[str, float], reference: dict) -> list[str]:
    problems = []
    ref = reference["final_regret"]
    if set(ref) != set(finals):
        return [f"reference: (variant, policy) pairs {sorted(finals)} differ from {sorted(ref)}"]
    for label, value in sorted(finals.items()):
        lo, hi = ref[label]["min"], ref[label]["max"]
        pad = MC_WIDEN * (hi - lo)
        if not lo - pad <= value <= hi + pad:
            problems.append(
                f"reference {label}: mean final regret {value:.4f} outside [{lo - pad:.4f}, "
                f"{hi + pad:.4f}] (reference range over {ref[label]['n']} seeds, widened by "
                f"{MC_WIDEN:g} of it on each side)"
            )
    return problems


def digest_mismatches(got: dict[str, str], recorded: dict[str, str]) -> list[str]:
    """Output files whose bytes differ from the digests recorded for the default seed."""
    return sorted(
        name for name in set(got) | set(recorded) if got.get(name) != recorded.get(name)
    )
