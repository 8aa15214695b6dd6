"""The Monte Carlo acceptance criteria whose check compares means across seeds, each defined once.

A criterion is its runs and its check. ``tests/test_acceptance.py`` runs each
criterion at the test's fixed seeds and asserts its check;
``tools/criteria_margins.py`` runs the same runs at held-out seeds and
applies the same check to random subsets of the test's seed count, which
measures how often the check passes under the law of the runs.

A ``Run`` is one experiment config: its variants, its policies, its horizon,
the test's seed count and seed base, and its logging stride (at the horizon
only unless given). ``run_finals`` runs a criterion at the test's seeds or at
held-out ones, from each run's ``held_out_base``. A
check takes the final regrets of every run of its criterion, keyed
``(run, variant, policy)``, each an array in seed order whose seeds are
shared by every variant and policy of the run, and returns whether the
criterion holds and its report line. Means and standard deviations are the
harness' own (``analysis.aggregate_curves``), and Monte Carlo comparisons
use pooled sample standard deviations.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from clusterbandit.analysis import aggregate_curves, pooled_std
from clusterbandit.harness import ExperimentConfig, ExperimentResult, run_experiment

Finals = Mapping[tuple[str, str, str], np.ndarray]

HELD_OUT = 900_000


def sd_spec(n, k, a_star, w, d) -> dict:
    return {
        "kind": "strong_dominance",
        "n_arms": n,
        "n_suboptimal_clusters": k,
        "optimal_cluster_size": a_star,
        "optimal_width": w,
        "separation": d,
    }


@dataclass(frozen=True)
class Run:
    """One experiment config of a criterion, at the test's ``seeds`` seeds from ``base_seed``."""

    name: str
    variants: tuple[dict, ...]
    policies: tuple[dict, ...]
    horizon: int
    seeds: int
    base_seed: int
    stride: int | None = None  # None: log at the horizon only

    @property
    def held_out_base(self) -> int:
        """The first of the run's held-out seeds: ``HELD_OUT + 10 * base_seed``, so that every held-out base is
        at least 900 000 and a thousand seeds from the next (criterion 9's is the last)."""
        return HELD_OUT + 10 * self.base_seed

    def config(self, base_seed: int | None = None, seeds: int | None = None,
               horizon: int | None = None) -> ExperimentConfig:
        """The run's config, at other seeds or another horizon where given."""
        horizon = self.horizon if horizon is None else horizon
        return ExperimentConfig.from_json({
            "name": self.name,
            "horizon": horizon,
            "seeds": {"base": self.base_seed if base_seed is None else base_seed,
                      "count": self.seeds if seeds is None else seeds},
            "stride": horizon if self.stride is None else self.stride,
            "policies": list(self.policies),
            "instances": list(self.variants),
        })


@dataclass(frozen=True)
class Criterion:
    number: int
    runs: tuple[Run, ...]
    check: Callable[[Finals], tuple[bool, str]]


def finals(run: Run, result: ExperimentResult) -> dict[tuple[str, str, str], np.ndarray]:
    """The final regrets of ``result``, a run of ``run``, keyed ``(run, variant, policy)``, in seed order."""
    config = result.config
    return {(run.name, v.name, p.name): result.final_regrets(v.name, p.name)
            for v in config.variants for p in config.policies}


def run_finals(criterion: Criterion, held_out: int | None = None, horizon: int | None = None,
               workers: int = 2) -> dict[tuple[str, str, str], np.ndarray]:
    """The final regrets of every run of ``criterion``: at the test's seeds, or at ``held_out`` seeds from each
    run's ``held_out_base``; at another horizon where given."""
    found = {}
    for run in criterion.runs:
        base = None if held_out is None else run.held_out_base
        found.update(finals(run, run_experiment(run.config(base, held_out, horizon), workers=workers)))
    return found


def _stats(values: np.ndarray) -> tuple[float, float, int]:
    """(mean, sample std, n) of final regrets, as the harness summarizes a run logged at its horizon."""
    summary = aggregate_curves(np.asarray(values)[:, None])
    return summary.final_mean, summary.final_std, summary.n


def _pooled(a: tuple[float, float, int], b: tuple[float, float, int]) -> float:
    return pooled_std(a[1], a[2], b[1], b[2])


# ---------------------------------------------------------------------------
# Criterion 1: tsc regret falls as the separation d grows, and stays below ts
# ---------------------------------------------------------------------------

C1_SEPARATIONS = (0.05, 0.1, 0.2, 0.3)


def _check_1(found: Finals) -> tuple[bool, str]:
    tsc = [_stats(found["c1", f"d={d}", "tsc"]) for d in C1_SEPARATIONS]
    ts = [_stats(found["c1", f"d={d}", "ts"]) for d in C1_SEPARATIONS]
    monotone = all(b[0] <= a[0] + 0.5 * _pooled(a, b) for a, b in zip(tsc, tsc[1:]))
    separated = all(f[0] - c[0] >= _pooled(f, c) for f, c in zip(ts, tsc))
    detail = (
        f"TSC finals {[round(m, 1) for m, _, _ in tsc]} non-increasing in d={monotone}; "
        f"TS finals {[round(m, 1) for m, _, _ in ts]} exceed TSC by >=1 pooled std={separated}"
    )
    return monotone and separated, detail


CRITERION_1 = Criterion(1, (Run(
    "c1",
    tuple({"name": f"d={d}", "spec": sd_spec(100, 10, 10, 0.1, d)} for d in C1_SEPARATIONS),
    ({"key": "ts"}, {"key": "tsc"}),
    3000, 50, 42_000,
),), _check_1)


# ---------------------------------------------------------------------------
# Criterion 2: tsc regret does not fall as the optimal width w* grows
# ---------------------------------------------------------------------------

C2_WIDTHS = (0.0, 0.1, 0.2, 0.3)
# The check covers the first three widths. The generator puts every sub-optimal cluster's top arm at
# 0.6 - w* - d, so a wider optimal cluster also widens every sub-optimal gap, and in law the last step
# falls: over 600 held-out seeds (tools/criteria_margins.py) tsc's mean final regret is 112.6, 184.3,
# 184.3 and 167.1 (SE 1.3-1.6) at w* = 0, 0.1, 0.2 and 0.3, and the check over all four widths passed
# in 0.52 of 50-seed subsets, by chance at the 0.2 -> 0.3 step. The run still reports w* = 0.3.
C2_CHECKED = 3


def _check_2(found: Finals) -> tuple[bool, str]:
    tsc = [_stats(found["c2", f"w={w}", "tsc"]) for w in C2_WIDTHS]
    checked = tsc[:C2_CHECKED]
    monotone = all(b[0] >= a[0] - 0.5 * _pooled(a, b) for a, b in zip(checked, checked[1:]))
    detail = (
        f"TSC finals {[round(m, 1) for m, _, _ in checked]} non-decreasing in w* over "
        f"{list(C2_WIDTHS[:C2_CHECKED])}; not checked: w*={C2_WIDTHS[-1]} at {tsc[-1][0]:.1f}, since in law "
        f"the 0.2 -> 0.3 step falls (184.3 -> 167.1 over 600 held-out seeds) as every sub-optimal gap widens"
    )
    return monotone, detail


CRITERION_2 = Criterion(2, (Run(
    "c2",
    tuple({"name": f"w={w}", "spec": sd_spec(100, 10, 10, w, 0.1)} for w in C2_WIDTHS),
    ({"key": "tsc"},),
    3000, 50, 42_100,
),), _check_2)


# ---------------------------------------------------------------------------
# Criterion 4: hts regret does not grow with the depth of the sorted tree
# ---------------------------------------------------------------------------

C4_LEVELS = (0, 1, 8)


def _check_4(found: Finals) -> tuple[bool, str]:
    m0, m1, m8 = (_stats(found["c4", f"L={lv}", "hts"]) for lv in C4_LEVELS)
    deep_le_two = m8[0] <= m1[0] + 0.5 * _pooled(m8, m1)
    two_le_flat = m1[0] <= m0[0] + 0.5 * _pooled(m1, m0)
    detail = (
        f"final regret L=8: {m8[0]:.1f}, L=1: {m1[0]:.1f}, L=0: {m0[0]:.1f} "
        f"(each step within +0.5 pooled std)"
    )
    return deep_le_two and two_le_flat, detail


CRITERION_4 = Criterion(4, (Run(
    "c4",
    tuple({"name": f"L={lv}", "spec": {"kind": "sorted_tree", "n_arms": 256, "levels": lv}} for lv in C4_LEVELS),
    ({"key": "hts"},),
    3000, 50, 42_300,
),), _check_4)


# ---------------------------------------------------------------------------
# Criterion 7: on k-means clusterings that violate the assumptions, tsc beats every other policy
# ---------------------------------------------------------------------------

C7_POLICIES = ("ts", "tsc", "ucb1", "ucbc", "tsmax")


def _c7_run(name: str, n: int, k: int, base: int) -> Run:
    spec = {"kind": "kmeans", "n_arms": n, "n_clusters": k, "reward_fn": "sin-product"}
    return Run(name, ({"name": "i", "spec": spec},), tuple({"key": key} for key in C7_POLICIES), 3000, 100, base)


def _check_7(found: Finals) -> tuple[bool, str]:
    details = []
    ok = True
    for label, run in (("N=100,K=10", "c7-small"), ("N=1000,K=32", "c7-large")):
        means = {key: _stats(found[run, "i", key]) for key in C7_POLICIES}
        tsc_mean = means["tsc"][0]
        best_other = min(v[0] for k, v in means.items() if k != "tsc")
        ok &= all(tsc_mean < v[0] for k, v in means.items() if k != "tsc")
        details.append(
            f"{label}: tsc {tsc_mean:.0f} < best other {best_other:.0f} "
            f"(ts {means['ts'][0]:.0f}, ucb1 {means['ucb1'][0]:.0f}, "
            f"ucbc {means['ucbc'][0]:.0f}, tsmax {means['tsmax'][0]:.0f})"
        )
    ts, tsc = _stats(found["c7-large", "i", "ts"]), _stats(found["c7-large", "i", "tsc"])
    gap_ok = ts[0] - tsc[0] >= 2.0 * _pooled(ts, tsc)
    ok &= gap_ok
    details.append(f"large-instance TS-TSC gap >= 2 pooled std: {gap_ok}")
    return ok, "; ".join(details)


CRITERION_7 = Criterion(7, (_c7_run("c7-small", 100, 10, 45_000), _c7_run("c7-large", 1000, 32, 45_100)), _check_7)


# ---------------------------------------------------------------------------
# Criterion 8: on linear contextual instances, lintsc beats lints
# ---------------------------------------------------------------------------

C8_CONFIGS = (
    ("k20-n400-e05", 20, 400, 0.5, 46_000),
    ("k30-n900-e05", 30, 900, 0.5, 46_100),
    ("k30-n900-e01", 30, 900, 0.1, 46_200),
)


def _check_8(found: Finals) -> tuple[bool, str]:
    ok = True
    details = []
    for name, *_ in C8_CONFIGS:
        lints, lintsc = _stats(found[f"c8-{name}", "i", "lints"]), _stats(found[f"c8-{name}", "i", "lintsc"])
        margin = _pooled(lints, lintsc)
        good = lints[0] - lintsc[0] >= margin
        ok &= good
        details.append(f"{name}: LinTS {lints[0]:.0f} - LinTSC {lintsc[0]:.0f} >= pooled std {margin:.0f}: {good}")
    return ok, "; ".join(details)


CRITERION_8 = Criterion(8, tuple(
    Run(
        f"c8-{name}",
        ({"name": "i", "spec": {"kind": "contextual", "n_arms": n, "n_clusters": k, "dim": 5, "epsilon": eps}},),
        ({"key": "lints", "params": {"v": 1.0}, "label": "lints"},
         {"key": "lintsc", "params": {"v": 1.0}, "label": "lintsc"}),
        2000, 25, base,
    )
    for name, k, n, eps, base in C8_CONFIGS
), _check_8)


# ---------------------------------------------------------------------------
# Criterion 9: on an uninformative clustering tsc does no better than ts
# ---------------------------------------------------------------------------

def _check_9(found: Finals) -> tuple[bool, str]:
    ts, tsc = _stats(found["c9", "i", "ts"])[0], _stats(found["c9", "i", "tsc"])[0]
    return tsc >= ts, f"uninformative clustering: TSC final regret {tsc:.1f} >= TS {ts:.1f}"


# The seed count is sized from the paired effect tsc - ts of the per-visit tsc kernel, which the tool
# measured over 4000 held-out seeds from each of 1 373 000 and 1 390 000: 12.0 +/- 1.5 and 9.6 +/- 1.4
# (paired SE), 10.8 +/- 1.0 pooled, with a per-seed spread of about 90. The mean difference over n seeds
# then sits 10.8 * sqrt(n) / 90 standard errors above 0: 0.6 at 25 seeds (the check passed in 0.77 of
# 25-seed subsets) and 2.4 at 400, where a fresh sample fails with probability about 0.01. At 800 it fails
# with probability under 0.01 even if the effect is three pooled SEs smaller (7.8). The seed base, 49 000,
# is the first block of a thousand that no other acceptance test draws from, fixed before any run at it:
# the 25-seed base this criterion had before was chosen because its draw passed.
CRITERION_9 = Criterion(9, (Run(
    "c9",
    ({"name": "i", "spec": {"kind": "uniform", "n_arms": 50, "n_clusters": 10}},),
    ({"key": "ts"}, {"key": "tsc"}),
    3000, 800, 49_000,
),), _check_9)


CRITERIA: dict[int, Criterion] = {c.number: c for c in (
    CRITERION_1, CRITERION_2, CRITERION_4, CRITERION_7, CRITERION_8, CRITERION_9)}
