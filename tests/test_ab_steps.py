"""``tools/ab_steps.py`` end to end at a tiny horizon, so that it cannot rot.

No timing is asserted: a tree against itself has byte-identical traces and
reports every key it was asked for, and a tree against a copy that draws
differently reports the difference and exits 1.
"""
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
KMEANS = {"kind": "kmeans", "n_arms": 30, "n_clusters": 4, "reward_fn": "sin-product"}
SORTED_TREE = {"kind": "sorted_tree", "n_arms": 16, "levels": 3}


def _ab_steps(parent, change, *extra):
    return subprocess.run(
        [sys.executable, "tools/ab_steps.py", str(parent), str(change), "--horizon", "20", "--rounds", "2", *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=300,
    )


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
    proc = _ab_steps("src", "src", *extra)
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(report) == sorted(keys)
    for row in report.values():
        assert row["identical"] is True
        assert row["rounds"] == 2 and 0 <= row["change_faster"] <= 2
        assert row["parent_us_per_step"] > 0 and row["change_us_per_step"] > 0


def test_ab_steps_reports_trees_that_draw_differently(tmp_path):
    # a copy whose Thompson nodes of 30 children draw one fresh scalar per child, not a block row
    shutil.copytree(ROOT / "src" / "clusterbandit", tmp_path / "clusterbandit")
    policies = tmp_path / "clusterbandit" / "policies.py"
    text = policies.read_text()
    assert "\n_BLOCK_MIN = 5\n" in text
    policies.write_text(text.replace("\n_BLOCK_MIN = 5\n", "\n_BLOCK_MIN = 31\n"))
    proc = _ab_steps("src", tmp_path, "--keys", "ts", "--spec", json.dumps(KMEANS))
    assert proc.returncode == 1, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert list(report) == ["ts"] and report["ts"]["identical"] is False
