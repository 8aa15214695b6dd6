"""``tools/ab_steps.py`` end to end at a tiny horizon, so that it cannot rot.

No timing is asserted: a tree against itself has byte-identical traces and
reports every key it was asked for, and a tree against a copy that draws
differently reports the difference and exits 1, also when the reader of the
report closes it early.
"""
import errno
import importlib.util
import io
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


class _ClosedAfterOneLine(io.StringIO):
    """A stdout whose reader goes away after the first line, as ``| head -1`` does; its descriptor is ``fd``."""

    def __init__(self, fd: int) -> None:
        super().__init__()
        self.fd = fd

    def fileno(self) -> int:
        return self.fd

    def write(self, text: str) -> int:
        if "\n" in self.getvalue():
            raise BrokenPipeError(errno.EPIPE, "Broken pipe")
        return super().write(text)


@pytest.fixture
def ab_steps():
    """``tools/ab_steps.py`` as a module; the trees it imports are dropped afterwards, so each test imports its own."""
    spec = importlib.util.spec_from_file_location("ab_steps", ROOT / "tools" / "ab_steps.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    yield module
    for name in [m for m in sys.modules if m.split(".")[0] in ("ab_parent", "ab_change")]:
        del sys.modules[name]


@pytest.mark.parametrize("blocks, status", [(5, 0), (31, 1)], ids=["identical", "different"])
def test_a_reader_that_closes_the_report_early_gets_the_usual_status(tmp_path, monkeypatch, ab_steps, blocks, status):
    # the report went to a closed pipe, so main ended with BrokenPipeError instead of its status
    shutil.copytree(ROOT / "src" / "clusterbandit", tmp_path / "clusterbandit")
    policies = tmp_path / "clusterbandit" / "policies.py"
    policies.write_text(policies.read_text().replace("\n_BLOCK_MIN = 5\n", f"\n_BLOCK_MIN = {blocks}\n"))
    with open(tmp_path / "stdout", "w") as target:
        stdout = _ClosedAfterOneLine(target.fileno())
        monkeypatch.setattr(sys, "stdout", stdout)
        argv = [str(ROOT / "src"), str(tmp_path), "--keys", "ts", "--spec", json.dumps(KMEANS), "--horizon", "20",
                "--rounds", "2"]
        assert ab_steps.main(argv) == status
    assert stdout.getvalue().startswith("key ") and stdout.getvalue().count("\n") == 1
