"""Acceptance suite: one test per criterion, printing one PASS/FAIL line each.

Every criterion is a property or ordering assertion at desk scale, evaluated
at the tolerances stated with it. Monte Carlo comparisons use pooled sample
standard deviations; paired instances per seed come from the harness'
fixed-offset seed splitting. The criteria whose checks compare means across
seeds (1, 2, 4, 7, 8 and 9) are defined in ``criteria.py``, their runs and
their checks, which ``tools/criteria_margins.py`` also reads to measure how
often each check passes under its law; the other criteria's runs are
``criteria.Run`` configs too. Run with
``pytest -s tests/test_acceptance.py`` to see the per-criterion lines.
"""
import math
import time

import numpy as np
import pytest
import scipy.stats

from clusterbandit.analysis import (
    audit_hierarchical_dominance,
    cluster_stats,
    kl_bernoulli,
    tsc_instance_bound,
    verify_strong_dominance,
)
from clusterbandit.contextual import _LinearBank, _outer
from clusterbandit.core import (
    BanditInstance,
    ClusterTree,
    DisjointClustering,
    rng_streams,
)
from clusterbandit.harness import run_experiment
from clusterbandit.instances import (
    build_instance,
    gen_sorted_binary_tree,
    gen_strong_dominance,
)
from clusterbandit.policies import ClusteredThompsonSampling, HierarchicalThompsonSampling

import criteria

WORKERS = 2

TWO_CLUSTER_INSTANCE = {
    "kind": "bernoulli",
    "means": [0.6, 0.55, 0.4, 0.35],
    "clustering": {"labels": [0, 0, 1, 1]},
}
TWO_CLUSTER_VARIANT = ({"name": "two-cluster", "spec": TWO_CLUSTER_INSTANCE},)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_separation_sweep():
    t0 = time.time()
    ok, detail = criteria.CRITERION_1.check(criteria.run_finals(criteria.CRITERION_1, workers=WORKERS))
    elapsed = time.time() - t0
    _report(1, ok and elapsed < 120.0, f"{detail}; runtime {elapsed:.0f}s (target 120s)")


def test_criterion_2_width_sweep():
    _report(2, *criteria.CRITERION_2.check(criteria.run_finals(criteria.CRITERION_2, workers=WORKERS)))


@pytest.mark.xfail(
    strict=True,
    reason=(
        "unattainable at the stated parameters: at T=3000 flat TS on N=400 "
        "arms saturates at the uniform-play ceiling (~680, measured 680+-10 "
        "over 150 seeds), so the TSC/TS ratio is 0.52 -> 0.38 -> 0.44 "
        "(+-0.01) instead of strictly decreasing; at T=10000 the ratio is "
        "strictly decreasing (0.32 -> 0.25) and the regret gap does grow "
        "with N at T=3000 (89 -> 318 -> 381); see the decisions ledger"
    ),
)
def test_criterion_3_scaling_ratio():
    ns = (25, 100, 400)
    variants = tuple(
        {"name": f"N={n}", "spec": criteria.sd_spec(n, int(math.isqrt(n)), int(math.isqrt(n)), 0.1, 0.1)}
        for n in ns
    )
    run = criteria.Run("c3", variants, ({"key": "ts"}, {"key": "tsc"}), 3000, 50, 42_200)
    result = run_experiment(run.config(), workers=WORKERS)

    ratios = []
    for n in ns:
        tsc_mean = result.summary_for(f"N={n}", "tsc").summary.final_mean
        ts_mean = result.summary_for(f"N={n}", "ts").summary.final_mean
        ratios.append(tsc_mean / ts_mean)
    decreasing = all(a > b for a, b in zip(ratios, ratios[1:]))
    _report(3, decreasing, f"TSC/TS final-regret ratios {[round(r, 3) for r in ratios]} strictly decreasing in N")


def test_criterion_4_depth_sweep():
    _report(4, *criteria.CRITERION_4.check(criteria.run_finals(criteria.CRITERION_4, workers=WORKERS)))


def test_criterion_5_suboptimal_cluster_play_bound():
    T, runs = 2000, 2000
    run = criteria.Run("c5", TWO_CLUSTER_VARIANT, ({"key": "tsc"},), T, runs, 43_000)
    result = run_experiment(run.config(), workers=WORKERS)
    counts = np.array(
        [r.top_counts[1] for r in result.rows_for("two-cluster", "tsc")], dtype=float
    )
    sem = counts.std(ddof=1) / math.sqrt(len(counts))
    bound = 1.5 * (math.log(T) + math.log(math.log(T))) / kl_bernoulli(0.4, 0.55)
    threshold = bound + 3.0 * sem
    ok = counts.mean() <= threshold
    _report(
        5,
        ok,
        f"mean sub-optimal-cluster plays {counts.mean():.1f} <= {threshold:.1f} "
        f"(1.5*(ln T + ln ln T)/D + 3 SE, {len(counts)} runs)",
    )


def test_criterion_6_regret_log_slope_bound():
    T1, T2, seeds = 5000, 20_000, 32
    run = criteria.Run("c6", TWO_CLUSTER_VARIANT, ({"key": "tsc"},), T2, seeds, 44_000, stride=T1)
    result = run_experiment(run.config(), workers=WORKERS)
    rows = result.rows_for("two-cluster", "tsc")
    assert all(row.ts[0] == T1 and row.ts[-1] == T2 for row in rows)
    growth = np.array([row.regret[-1] - row.regret[0] for row in rows])
    empirical_slope = growth.mean() / (math.log(T2) - math.log(T1))

    instance = build_instance(TWO_CLUSTER_INSTANCE, rng_streams(0).instance)
    bound_slope = tsc_instance_bound(cluster_stats(instance), T2, eps=0.1).coefficient
    ok = empirical_slope <= 2.0 * bound_slope
    _report(
        6,
        ok,
        f"empirical log-slope {empirical_slope:.2f} <= 2 x bound coefficient "
        f"{bound_slope:.2f} over T in [{T1}, {T2}]",
    )


def test_criterion_7_violated_assumptions_benchmark():
    _report(7, *criteria.CRITERION_7.check(criteria.run_finals(criteria.CRITERION_7, workers=WORKERS)))


def test_criterion_8_contextual_orderings():
    _report(8, *criteria.CRITERION_8.check(criteria.run_finals(criteria.CRITERION_8, workers=WORKERS)))


def test_criterion_9_uniform_negative_control():
    _report(9, *criteria.CRITERION_9.check(criteria.run_finals(criteria.CRITERION_9, workers=WORKERS)))


def test_criterion_10_exact_invariants():
    failures: list[str] = []

    # count consistency on >= 10^3 step random runs, checked at every step
    rng = np.random.default_rng(48_000)
    clustering = DisjointClustering(rng.integers(0, 4, 30))
    tsc = ClusteredThompsonSampling(clustering)
    # cluster c is node c+1 of the tsc tree; its members' leaves by arm id
    leaves = [
        [tsc.tree.leaf_of_arm(a) for a in clustering.members(c)]
        for c in range(clustering.n_clusters)
    ]
    for t in range(1, 1001):
        tsc.update(tsc.select(t, rng), float(rng.integers(2)))
        s = tsc._s[tsc.tree.slot]  # counts by node id
        for c in range(clustering.n_clusters):
            members = leaves[c]
            if abs((s[c + 1] - 1) - (s[members] - 1).sum()) > 1e-9:
                failures.append(f"tsc count consistency broke at t={t}")
                break
    tree_inst = gen_sorted_binary_tree(32, rng_streams(48_001).instance)
    hts = HierarchicalThompsonSampling(tree_inst.tree)
    for t in range(1, 1001):
        hts.update(hts.select(t, rng), float(rng.integers(2)))
    s = hts._s[tree_inst.tree.slot]  # counts by node id
    for v in range(tree_inst.tree.n_nodes):
        kids = tree_inst.tree.children(v)
        if kids.size and abs((s[v] - 1) - (s[kids] - 1).sum()) > 1e-9:
            failures.append(f"hts count consistency broke at node {v}")

    # Pinsker on 10^4 random pairs
    for _ in range(10_000):
        p, q = rng.random(), rng.uniform(1e-9, 1 - 1e-9)
        if kl_bernoulli(p, q) < 2 * (p - q) ** 2 - 1e-15:
            failures.append(f"Pinsker violated at ({p}, {q})")
            break

    # rank-one inverse maintenance vs dense inverse, d=20, 10^3 updates
    bank = _LinearBank(1, 20, 1.0)
    for _ in range(1000):
        x = rng.random(20)
        bank.update(0, x, _outer(x), rng.random())
    if np.abs(bank.Binv[0] - np.linalg.inv(bank.B[0])).max() >= 1e-8:
        failures.append("rank-one inverse drifted beyond 1e-8")

    # sampling laws at 10^5 draws, KS distance <= 0.01
    for s, f in ((1, 1), (2, 5), (50, 50)):
        ks_rng = np.random.default_rng(48_100 + s + f)
        draws = ks_rng.beta(np.full(100_000, float(s)), np.full(100_000, float(f)))
        stat = scipy.stats.kstest(draws, scipy.stats.beta(s, f).cdf).statistic
        if stat > 0.01:
            failures.append(f"Beta({s},{f}) KS distance {stat:.4f} > 0.01")
        if not ((0 <= draws) & (draws <= 1)).all():
            failures.append(f"Beta({s},{f}) draws out of range")
    gauss_bank = _LinearBank(1, 3, 1.0)
    upd = np.random.default_rng(48_200)
    for _ in range(40):
        x = upd.random(3)
        gauss_bank.update(0, x, _outer(x), upd.random())
    x = np.array([0.7, 0.1, 0.4])
    mean = gauss_bank.Mu[0] @ x
    std = math.sqrt(x @ gauss_bank.Binv[0] @ x)
    g_rng = np.random.default_rng(48_300)
    draws = np.array([gauss_bank.sample(x, _outer(x), g_rng, 0, 1)[0] for _ in range(100_000)])
    stat = scipy.stats.kstest(draws, scipy.stats.norm(mean, std).cdf).statistic
    if stat > 0.01:
        failures.append(f"Gaussian score KS distance {stat:.4f} > 0.01")

    # byte-identical replays under fixed seeds, end to end through the harness
    config = criteria.Run(
        "replay",
        ({"name": "default", "spec": criteria.sd_spec(20, 3, 4, 0.1, 0.1)},),
        ({"key": "ts"}, {"key": "tsc"}, {"key": "ucbc"}),
        60, 2, 1, stride=1,
    ).config()
    a, b = run_experiment(config), run_experiment(config, workers=WORKERS)
    for ra, rb in zip(a.rows, b.rows):
        if not (np.array_equal(ra.regret, rb.regret) and ra.policy == rb.policy):
            failures.append("replay mismatch across runs")
            break

    # generator audit exactness: realized w* and d within 1e-12 of the request
    for seed in range(5):
        inst = gen_strong_dominance(60, 6, 8, 0.15, 0.05, rng_streams(48_400 + seed).instance)
        report = verify_strong_dominance(inst)
        if not report.holds:
            failures.append(f"dominance audit failed on seed {seed}")
        if abs(report.stats.w_star - 0.15) > 1e-12:
            failures.append("realized optimal width off by more than 1e-12")
        for c in report.stats.suboptimal_clusters():
            if abs(report.stats.distance[c] - 0.05) > 1e-12:
                failures.append("realized separation off by more than 1e-12")

    # tree audits: sorted trees pass, a swapped-leaf counterexample fails
    for seed in range(3):
        inst = gen_sorted_binary_tree(64, rng_streams(48_500 + seed).instance)
        if not audit_hierarchical_dominance(inst).holds:
            failures.append("sorted-tree audit unexpectedly failed")
    swapped = BanditInstance(
        [0.2, 0.7, 0.5, 0.3],
        tree=ClusterTree([[1, 2], [3, 4], [5, 6], [], [], [], []], [-1, -1, -1, 0, 1, 2, 3]),
    )
    if audit_hierarchical_dominance(swapped).holds:
        failures.append("swapped-leaf counterexample not detected")

    _report(
        10,
        not failures,
        "exact invariants (count consistency, Pinsker, inverse maintenance, "
        "KS sampling laws, byte-identical replays, generator audits)"
        + ("" if not failures else f" -- failures: {failures}"),
    )
