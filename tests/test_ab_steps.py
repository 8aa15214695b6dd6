"""``tools/ab_steps.py`` end to end at a tiny horizon, on one tree against itself, so that it cannot rot.

No timing is asserted: a tree against itself has byte-identical traces and
reports every key it was asked for.
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KMEANS = {"kind": "kmeans", "n_arms": 30, "n_clusters": 4, "reward_fn": "sin-product"}
SORTED_TREE = {"kind": "sorted_tree", "n_arms": 16, "levels": 3}


@pytest.mark.parametrize(
    "extra, keys",
    [
        ([], ["lints", "lintsc", "linucb", "linucbc"]),  # the default: ctx-large-eps05's instance
        (["--keys", "ts,tsc,ucbc", "--spec", json.dumps(KMEANS)], ["ts", "tsc", "ucbc"]),
        (["--keys", "hts,uct", "--spec", json.dumps(SORTED_TREE)], ["hts", "uct"]),
    ],
    ids=["contextual", "bernoulli", "tree"],
)
def test_ab_steps_on_one_tree_reports_identical_traces(extra, keys):
    proc = subprocess.run(
        [sys.executable, "tools/ab_steps.py", "src", "src", "--horizon", "20", "--rounds", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(report) == sorted(keys)
    for row in report.values():
        assert row["identical"] is True
        assert row["rounds"] == 2 and 0 <= row["change_faster"] <= 2
        assert row["parent_us_per_step"] > 0 and row["change_us_per_step"] > 0
