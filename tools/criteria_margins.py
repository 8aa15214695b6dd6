"""How often each Monte Carlo acceptance criterion passes under the law of its runs.

    python tools/criteria_margins.py [--criteria 1,2,4,7,8,9] [--seeds 300]
        [--workers 2] [--horizon T]

The criteria and their checks are those of ``tests/criteria.py``, which
``tests/test_acceptance.py`` asserts at its fixed seeds. Here each run of a
criterion runs at ``--seeds`` held-out seeds instead, from its
``held_out_base``, ``900 000 + 10 * (the test's base)``: 1 320 000 for
criterion 1's 42 000. Every held-out base is at least 900 000 and a thousand
seeds below the next (criterion 9's is the last), so at up to 1000 seeds a
run shares its seeds with no test and no other run. The criterion's own
check is then applied to ``SUBSETS`` (2000) random subsets of the test's
seed count, drawn without replacement and independently per run; within a
run a subset's seeds are shared by every variant and policy, as the test's
seed list is. The pass rate is the share of subsets that pass.

Per criterion, the report gives the pass rate and the law means: the mean
final regret of each (run, variant, policy) over all held-out seeds with
its standard error, and each later policy of a run minus its first, paired
by seed. The last line is the whole report as JSON. ``--workers`` is the
number of processes the simulations run on, a setting of the machine: the
report is the same at any value. ``--horizon`` shortens every run, for a
smoke test only: the pass rates it gives are not the criteria's. The
clusterbandit package imported is the one on ``PYTHONPATH``, else this
checkout's ``src``, so ``PYTHONPATH=OTHER/src`` measures another source tree
against these checks.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "tests"))
sys.path.append(str(ROOT / "src"))  # after PYTHONPATH, which may name another tree

import criteria  # noqa: E402  (tests/criteria.py)

SUBSETS = 2000


def _mean_se(values: np.ndarray) -> dict:
    return {"mean": float(values.mean()), "se": float(values.std(ddof=1) / math.sqrt(values.size))}


def margins(criterion: criteria.Criterion, seeds: int, workers: int, horizon: int | None = None) -> dict:
    """The pass rate of ``criterion``'s check over ``SUBSETS`` subsets of ``seeds`` held-out seeds, and its law means."""
    found = criteria.run_finals(criterion, held_out=seeds, horizon=horizon, workers=workers)
    rng = np.random.default_rng(criterion.number)
    passed = 0
    for _ in range(SUBSETS):
        picks = {run.name: rng.choice(seeds, size=run.seeds, replace=False) for run in criterion.runs}
        ok, _ = criterion.check({key: values[picks[key[0]]] for key, values in found.items()})
        passed += ok
    means = {" / ".join(key): _mean_se(values) for key, values in found.items()}
    paired = {}
    for run in criterion.runs:
        first, *later = [p.get("label", p["key"]) for p in run.policies]
        for v in run.variants:
            for policy in later:
                diff = found[run.name, v["name"], policy] - found[run.name, v["name"], first]
                paired[f"{run.name} / {v['name']} / {policy} - {first}"] = _mean_se(diff)
    return {
        "test_seeds": [run.seeds for run in criterion.runs],
        "held_out_bases": [run.held_out_base for run in criterion.runs],
        "held_out_seeds": seeds,
        "subsets": SUBSETS,
        "pass_rate": passed / SUBSETS,
        "law_means": means,
        "paired_differences": paired,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--criteria", default=",".join(map(str, criteria.CRITERIA)),
                        help="comma-separated criterion numbers")
    parser.add_argument("--seeds", type=int, default=300, help="held-out seeds per run")
    parser.add_argument("--workers", type=int, default=2, help="simulation processes; the report is the same at any value")
    parser.add_argument("--horizon", type=int, default=None, help="shorten every run (smoke tests only)")
    args = parser.parse_args(argv)
    try:
        chosen = [criteria.CRITERIA[int(n)] for n in args.criteria.split(",") if n]
    except (KeyError, ValueError):
        chosen = []
    if not chosen:
        parser.error(f"--criteria: choose from {sorted(criteria.CRITERIA)}")
    if args.workers < 1:
        parser.error("--workers must be >= 1")
    need = max(run.seeds for c in chosen for run in c.runs)
    if args.seeds < need:
        parser.error(f"--seeds must be at least the largest test seed count of the criteria chosen, {need}")
    report = {}
    for criterion in chosen:
        row = report[criterion.number] = margins(criterion, args.seeds, args.workers, args.horizon)
        print(f"criterion {criterion.number}: pass rate {row['pass_rate']:.3f} over {SUBSETS} subsets of "
              f"{row['test_seeds']} test seeds from {args.seeds} held-out seeds")
        for name, stat in {**row["law_means"], **row["paired_differences"]}.items():
            print(f"  {name}: {stat['mean']:.1f} +/- {stat['se']:.1f}")
    print(json.dumps(report, sort_keys=True))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
