"""``tools/criteria_margins.py`` end to end at a tiny horizon, so that it cannot rot.

Every criterion of ``criteria.py`` runs 20 steps, in two groups at the
largest test seed count of each, so that criterion 9's 400 seeds do not
multiply the builds of the others, and its check runs on the tool's 2000
subsets; no pass rate is asserted, since at that horizon the rates are not
the criteria's. The report must name every criterion asked for and every
(run, variant, policy) of its runs, with a pass rate in [0, 1].
"""
import json
import subprocess
import sys
from pathlib import Path

import pytest

import criteria

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.parametrize("numbers", [[1, 2, 4, 7, 8], [9]], ids=["1-2-4-7-8", "9"])
def test_criteria_margins_reports_every_criterion(numbers):
    assert set(criteria.CRITERIA) == {1, 2, 4, 7, 8, 9}
    seeds = max(run.seeds for n in numbers for run in criteria.CRITERIA[n].runs)
    proc = subprocess.run(
        [sys.executable, "tools/criteria_margins.py", "--criteria", ",".join(map(str, numbers)),
         "--seeds", str(seeds), "--horizon", "20"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stdout[-4000:] + proc.stderr[-4000:]
    report = json.loads(proc.stdout.splitlines()[-1])
    assert sorted(map(int, report)) == numbers
    for number, row in report.items():
        criterion = criteria.CRITERIA[int(number)]
        assert 0.0 <= row["pass_rate"] <= 1.0 and row["subsets"] == 2000
        assert row["test_seeds"] == [run.seeds for run in criterion.runs]
        assert min(row["held_out_bases"]) >= 900_000
        want = {f"{run.name} / {v['name']} / {p.get('label', p['key'])}"
                for run in criterion.runs for v in run.variants for p in run.policies}
        assert set(row["law_means"]) == want
