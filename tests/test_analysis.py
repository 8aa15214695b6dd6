"""KL divergence, cluster statistics, bound formulas, trace aggregation."""
import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from clusterbandit.analysis import (
    LEADING_TERM_CAVEAT,
    REFERENCE_CURVE_CAVEAT,
    aggregate_curves,
    audit_hierarchical_dominance,
    bound_caveat,
    cluster_stats,
    hts_instance_bound,
    instance_bounds,
    kl_bernoulli,
    lai_robbins_lower,
    minimax_lower_reference,
    pooled_std,
    tsc_instance_bound,
    tsc_minimax_bound,
)
from clusterbandit.contextual import ContextualInstance
from clusterbandit.core import (
    BanditInstance,
    ClusterTree,
    SimulationTrace,
    rng_streams,
)
from clusterbandit.instances import gen_sorted_binary_tree, gen_strong_dominance

# High-precision evaluations of the divergence definition (40-digit arithmetic).
KL_06_05 = 0.020135513550688873
KL_04_06 = 0.08109302162163288
KL_03_06 = 0.18378689738681229


class TestKlBernoulli:
    def test_identical_distributions(self):
        assert kl_bernoulli(0.5, 0.5) == 0.0

    def test_reference_value(self):
        assert kl_bernoulli(0.6, 0.5) == pytest.approx(KL_06_05, abs=1e-12)

    def test_boundary_limit_convention(self):
        assert kl_bernoulli(0.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)
        assert kl_bernoulli(1.0, 0.5) == pytest.approx(math.log(2), abs=1e-12)

    def test_infinite_sentinel(self):
        assert kl_bernoulli(0.5, 0.0) == math.inf
        assert kl_bernoulli(0.5, 1.0) == math.inf
        assert kl_bernoulli(0.0, 0.0) == 0.0
        assert kl_bernoulli(1.0, 1.0) == 0.0

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            kl_bernoulli(-0.1, 0.5)
        with pytest.raises(ValueError):
            kl_bernoulli(0.5, 1.1)

    def test_pinsker_inequality(self):
        rng = np.random.default_rng(42)
        for _ in range(10_000):
            p = rng.random()
            q = rng.uniform(1e-6, 1 - 1e-6)
            div = kl_bernoulli(p, q)
            assert div >= 2.0 * (p - q) ** 2 - 1e-15
            if abs(p - q) > 1e-3:
                assert div > 2.0 * (p - q) ** 2

    def test_asymmetry_witness(self):
        assert kl_bernoulli(0.2, 0.8) != kl_bernoulli(0.8, 0.2)

    @given(st.floats(0, 1), st.floats(0.01, 0.99))
    def test_non_negative(self, p, q):
        assert kl_bernoulli(p, q) >= 0.0


# ---------------------------------------------------------------------------
# Cluster statistics
# ---------------------------------------------------------------------------

def _reference_instance():
    streams = rng_streams(11)
    return gen_strong_dominance(100, 10, 10, 0.1, 0.1, streams.instance)


class TestClusterStats:
    def test_reference_instance_gamma_one(self):
        stats = cluster_stats(_reference_instance())
        for c in stats.suboptimal_clusters():
            assert stats.gamma_c[c] == pytest.approx(1.0, abs=1e-12)
        assert stats.gamma == pytest.approx(1.0, abs=1e-12)
        assert stats.w_star == pytest.approx(0.1, abs=1e-12)
        assert stats.a_star == 10
        assert stats.k_suboptimal == 10

    def test_zero_width_optimal_cluster(self):
        streams = rng_streams(12)
        inst = gen_strong_dominance(30, 5, 5, 0.0, 0.1, streams.instance)
        stats = cluster_stats(inst)
        assert stats.w_star == 0.0
        assert stats.gamma == 0.0

    def test_singleton_optimal_cluster(self):
        inst = BanditInstance(
            [0.6, 0.4, 0.3], labels=[0, 1, 1]
        )
        stats = cluster_stats(inst)
        assert stats.w_star == 0.0
        assert stats.gamma == 0.0
        assert stats.a_star == 1

    def test_gap_of_optimal_cluster_is_zero(self):
        stats = cluster_stats(_reference_instance())
        assert stats.gap[stats.optimal_cluster] == 0.0

    def test_matches_brute_force(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            n = int(rng.integers(4, 30))
            k = int(rng.integers(2, min(6, n) + 1))
            labels = np.concatenate([np.arange(k), rng.integers(0, k, n - k)])
            rng.shuffle(labels)
            means = rng.random(n)
            inst = BanditInstance(means, labels=labels)
            stats = cluster_stats(inst)

            c_star = labels[int(np.argmax(means))]
            w_star = max(means[labels == c_star]) - min(means[labels == c_star])
            gammas = []
            for c in range(k):
                if c == c_star:
                    continue
                d_c = min(
                    means[a] - means[b]
                    for a in np.flatnonzero(labels == c_star)
                    for b in np.flatnonzero(labels == c)
                )
                assert stats.distance[c] == d_c
                gammas.append(w_star / d_c)
            assert stats.gamma == sum(gammas) / (k - 1)

    def test_requires_clustering(self):
        with pytest.raises(ValueError):
            cluster_stats(BanditInstance([0.1, 0.2]))


# ---------------------------------------------------------------------------
# Upper bound (two-level)
# ---------------------------------------------------------------------------

def _two_cluster_stats(means, labels):
    return cluster_stats(
        BanditInstance(means, labels=labels)
    )


class TestTscInstanceBound:
    def test_single_term_hand_value(self):
        stats = _two_cluster_stats([0.6, 0.4], [0, 1])
        bound = tsc_instance_bound(stats, math.e, eps=0.1)
        assert bound.leading == pytest.approx(1.1 * 0.2 / KL_04_06, rel=1e-9)
        assert bound.finite and bound.dominance_ok
        assert bound.loglog_coefficient == pytest.approx(bound.coefficient)

    def test_optimal_cluster_contributes_nothing_when_singleton(self):
        stats = _two_cluster_stats([0.6, 0.4, 0.35], [0, 1, 1])
        bound = tsc_instance_bound(stats, 100.0, eps=0.1)
        # only the sub-optimal cluster term remains
        expected = 1.1 * (0.6 - 0.4) / kl_bernoulli(0.4, 0.6) * math.log(100.0)
        assert bound.leading == pytest.approx(expected, rel=1e-12)

    def test_monotone_in_horizon(self):
        stats = _two_cluster_stats([0.6, 0.5, 0.4], [0, 0, 1])
        values = [tsc_instance_bound(stats, T, 0.1).leading for T in (10, 100, 1000, 10000)]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_unbounded_when_best_suboptimal_touches_optimal_floor(self):
        stats = _two_cluster_stats([0.6, 0.4, 0.4], [0, 0, 1])
        bound = tsc_instance_bound(stats, 100.0, eps=0.1)
        assert not bound.finite
        assert bound.leading == math.inf
        assert not bound.dominance_ok  # distance is zero, dominance fails too

    def test_dominance_violation_flagged(self):
        stats = _two_cluster_stats([0.6, 0.3, 0.5], [0, 0, 1])
        bound = tsc_instance_bound(stats, 100.0, eps=0.1)
        assert not bound.dominance_ok

    def test_parameter_validation(self):
        stats = _two_cluster_stats([0.6, 0.4], [0, 1])
        with pytest.raises(ValueError):
            tsc_instance_bound(stats, 1.0, 0.1)
        with pytest.raises(ValueError):
            tsc_instance_bound(stats, 100.0, 0.0)
        tree = _balanced_4arm_instance()
        for bad in (math.nan, math.inf, -math.inf):
            for bound in (
                lambda T: tsc_instance_bound(stats, T, 0.1), lambda T: tsc_minimax_bound(stats, T),
                lambda T: minimax_lower_reference(stats, T), lambda T: lai_robbins_lower(stats, T),
                lambda T: hts_instance_bound(tree, T, 0.1),
            ):
                with pytest.raises(ValueError, match=rf"^horizon: must be finite and >= 2, got {bad}$"):
                    bound(bad)
            with pytest.raises(ValueError, match=rf"^eps: must be finite and > 0, got {bad}$"):
                tsc_instance_bound(stats, 100.0, bad)
            with pytest.raises(ValueError, match=rf"^eps: must be finite and > 0, got {bad}$"):
                hts_instance_bound(tree, 100.0, bad)


class TestTscMinimaxBound:
    def test_single_cluster_degenerate(self):
        stats = cluster_stats(
            BanditInstance([0.6, 0.5, 0.4], labels=[0, 0, 0])
        )
        assert stats.k_suboptimal == 0 and stats.gamma == 0.0
        T = 3000.0
        assert tsc_minimax_bound(stats, T) == pytest.approx(math.sqrt(3 * T * math.log(T)))

    def test_reference_arithmetic(self):
        stats = cluster_stats(_reference_instance())
        T = 3000.0
        expected = math.sqrt((10 + 10 * (1 + stats.gamma)) * T * math.log(T))
        assert tsc_minimax_bound(stats, T) == pytest.approx(expected, rel=1e-12)
        assert stats.gamma == pytest.approx(1.0, abs=1e-12)

    def test_strictly_increasing_in_gamma(self):
        stats = cluster_stats(_reference_instance())
        bigger = dataclasses.replace(stats, gamma=stats.gamma + 0.5)
        assert tsc_minimax_bound(bigger, 3000.0) > tsc_minimax_bound(stats, 3000.0)

    def test_infinite_when_dominance_fails_with_negative_size_term(self):
        # optimal cluster {0.9, 0.1} (A* = 2, width 0.8) sits below the other
        # cluster's 0.3: distance -0.2, gamma = -4, A* + K(1 + gamma) = -1
        instance = BanditInstance(
            [0.9, 0.1, 0.3], labels=[0, 0, 1]
        )
        stats = cluster_stats(instance)
        assert stats.gamma == pytest.approx(-4.0, abs=1e-12)
        assert stats.a_star + stats.k_suboptimal * (1 + stats.gamma) < 0
        assert tsc_minimax_bound(stats, 3000.0) == math.inf

    def test_minimax_lower_reference(self):
        stats = cluster_stats(_reference_instance())
        assert minimax_lower_reference(stats, 400.0) == pytest.approx(math.sqrt(20 * 400))


# ---------------------------------------------------------------------------
# Lower bound
# ---------------------------------------------------------------------------

class TestLaiRobbinsLower:
    def test_hand_value(self):
        stats = _two_cluster_stats([0.6, 0.4, 0.3], [0, 1, 1])
        T = 500.0
        bound = lai_robbins_lower(stats, T)
        assert bound.leading == pytest.approx(0.2 / KL_03_06 * math.log(T), rel=1e-9)

    def test_lower_not_above_upper_on_zero_width_instances(self):
        # singleton clusters make the divergence arguments coincide
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(2, 8))
            means = np.sort(rng.uniform(0.05, 0.95, n))[::-1]
            if len(np.unique(means)) < n:
                continue
            inst = BanditInstance(means, labels=list(range(n)))
            stats = cluster_stats(inst)
            for T in (10.0, 100.0, 10_000.0):
                lower = lai_robbins_lower(stats, T).leading
                upper = tsc_instance_bound(stats, T, eps=0.01).leading
                assert lower <= upper + 1e-12

    def test_empty_suboptimal_set(self):
        stats = cluster_stats(
            BanditInstance([0.6, 0.5], labels=[0, 0])
        )
        bound = lai_robbins_lower(stats, 100.0)
        expected = 0.1 / kl_bernoulli(0.5, 0.6) * math.log(100.0)
        assert bound.leading == pytest.approx(expected, rel=1e-9)

    def test_infinite_divergence_dropped_with_warning(self):
        stats = _two_cluster_stats([1.0, 0.4], [0, 1])
        bound = lai_robbins_lower(stats, 100.0)
        assert bound.leading == 0.0
        assert any("dropped" in w for w in bound.warnings)


# ---------------------------------------------------------------------------
# Tree bound
# ---------------------------------------------------------------------------

def _balanced_4arm_instance():
    # sorted arms {0.2, 0.3, 0.5, 0.7} under a balanced binary tree
    tree = ClusterTree(
        [[1, 2], [3, 4], [5, 6], [], [], [], []],
        [-1, -1, -1, 0, 1, 2, 3],
    )
    return BanditInstance([0.2, 0.3, 0.5, 0.7], tree=tree)


class TestHtsInstanceBound:
    def test_flat_star_reduces_to_per_arm_gaps(self):
        means = [0.7, 0.5, 0.2]
        tree = ClusterTree([[1, 2, 3], [], [], []], [-1, 0, 1, 2])
        inst = BanditInstance(means, tree=tree)
        bound = hts_instance_bound(inst, 100.0, eps=0.1)
        expected = 1.1 * (1 / 0.2 + 1 / 0.5) * math.log(100.0)
        assert bound.leading == pytest.approx(expected, rel=1e-9)

    def test_depth_one_reduces_to_squared_distance_cluster_form(self):
        # root -> two blocks {0.7, 0.5} and {0.3, 0.2}
        tree = ClusterTree(
            [[1, 2], [3, 4], [5, 6], [], [], [], []],
            [-1, -1, -1, 0, 1, 2, 3],
        )
        inst = BanditInstance([0.7, 0.5, 0.3, 0.2], tree=tree)
        bound = hts_instance_bound(inst, math.e, eps=0.1)
        # sibling block term: gap / distance^2 with distance = 0.5 - 0.3,
        # then the in-block leaf term 1/gap for the 0.5 arm
        expected = 1.1 * ((0.7 - 0.3) / (0.5 - 0.3) ** 2 + 1.0 / (0.7 - 0.5))
        assert bound.leading == pytest.approx(expected, rel=1e-9)

    def test_four_arm_sorted_tree_enumeration(self):
        inst = _balanced_4arm_instance()
        bound = hts_instance_bound(inst, math.e, eps=0.1)

        # enumeration oracle over off-path sibling subtrees
        tree, means = inst.tree, inst.means
        mu_star = means.max()
        total = 0.0
        path = [tree.leaf_of_arm(int(np.argmax(means)))]
        while tree.parent[path[-1]] >= 0:
            path.append(int(tree.parent[path[-1]]))
        path.reverse()
        for v, nxt in zip(path, path[1:]):
            opt_min = means[tree.arms_under(nxt)].min()
            for sib in tree.children(v):
                if int(sib) == nxt:
                    continue
                sib_max = means[tree.arms_under(int(sib))].max()
                total += (mu_star - sib_max) / (opt_min - sib_max) ** 2
        assert total == pytest.approx(15.0, rel=1e-9)
        assert bound.leading == pytest.approx(1.1 * total, rel=1e-12)

    def test_violation_flagged_and_positive_terms_kept(self):
        # swap a leaf pair across the root split
        tree = ClusterTree(
            [[1, 2], [3, 4], [5, 6], [], [], [], []],
            [-1, -1, -1, 0, 1, 2, 3],
        )
        inst = BanditInstance([0.2, 0.7, 0.5, 0.3], tree=tree)
        bound = hts_instance_bound(inst, 100.0, eps=0.1)
        assert not bound.dominance_ok
        assert bound.leading > 0.0 and math.isfinite(bound.leading)

    def test_requires_tree(self):
        with pytest.raises(ValueError):
            hts_instance_bound(BanditInstance([0.1, 0.2]), 100.0, 0.1)


class TestInstanceBounds:
    def test_one_table_by_structure(self):
        T, eps = 500.0, 0.2
        clustered = _reference_instance()
        stats = cluster_stats(clustered)
        bounds = instance_bounds(clustered, T, eps)
        assert bounds == {
            "tsc_instance": tsc_instance_bound(stats, T, eps),
            "tsc_minimax": tsc_minimax_bound(stats, T),
            "lai_robbins_lower": lai_robbins_lower(stats, T),
            "minimax_lower_reference": minimax_lower_reference(stats, T),
        }
        assert list(bounds) == ["tsc_instance", "tsc_minimax", "lai_robbins_lower", "minimax_lower_reference"]
        assert [bound_caveat(b) for b in bounds.values()] == [
            LEADING_TERM_CAVEAT, REFERENCE_CURVE_CAVEAT, bounds["lai_robbins_lower"].caveat, REFERENCE_CURVE_CAVEAT,
        ]
        tree = _balanced_4arm_instance()
        assert instance_bounds(tree, T, eps) == {"hts_instance": hts_instance_bound(tree, T, eps)}
        assert bound_caveat(instance_bounds(tree, T, eps)["hts_instance"]) == LEADING_TERM_CAVEAT
        assert instance_bounds(BanditInstance([0.5, 0.2]), T, eps) == {}
        contextual = ContextualInstance(np.array([[0.1, 0.2], [0.3, 0.4]]), [0, 1])
        assert instance_bounds(contextual, T, eps) == {}


class TestAuditHierarchicalDominance:
    def test_sorted_tree_passes(self):
        streams = rng_streams(21)
        inst = gen_sorted_binary_tree(32, streams.instance)
        assert audit_hierarchical_dominance(inst).holds

    def test_swapped_leaves_fail_with_pair_reported(self):
        tree = ClusterTree(
            [[1, 2], [3, 4], [5, 6], [], [], [], []],
            [-1, -1, -1, 0, 1, 2, 3],
        )
        # 0.7 sits in the left block, 0.3 in the right: the root split leaks
        inst = BanditInstance([0.2, 0.7, 0.5, 0.3], tree=tree)
        report = audit_hierarchical_dominance(inst)
        assert not report.holds
        assert any(v.level == 1 for v in report.violations)

    def test_depth_zero_tree_vacuous(self):
        inst = BanditInstance([0.4], tree=ClusterTree([[]], [0]))
        assert audit_hierarchical_dominance(inst).holds


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _const_trace(value, horizon=5):
    curve = np.full(horizon, float(value))
    return SimulationTrace(
        seed=0,
        arms=np.zeros(horizon, dtype=np.int64),
        rewards=np.zeros(horizon),
        cum_regret=curve,
    )


def _aggregate(traces):
    """``aggregate_curves`` of the traces' stacked cumulative-regret curves, as the harness summarizes its runs."""
    return aggregate_curves(np.stack([t.cum_regret for t in traces]))


class TestAggregateTraces:
    def test_single_trace_zero_std(self):
        s = _aggregate([_const_trace(3.0)])
        assert np.all(s.std_curve == 0.0)
        assert s.final_mean == 3.0

    def test_two_constant_curves(self):
        s = _aggregate([_const_trace(0.0), _const_trace(2.0)])
        assert s.final_mean == pytest.approx(1.0)
        assert s.final_std == pytest.approx(math.sqrt(2.0))

    def test_permutation_invariance(self):
        traces = [_const_trace(v) for v in (0.0, 1.0, 5.0)]
        a = _aggregate(traces)
        b = _aggregate(traces[::-1])
        assert np.array_equal(a.mean_curve, b.mean_curve)
        assert np.array_equal(a.std_curve, b.std_curve)

    def test_mismatched_horizons(self):
        with pytest.raises(ValueError):
            _aggregate([_const_trace(1.0, 5), _const_trace(1.0, 6)])
        with pytest.raises(ValueError):
            aggregate_curves([[1.0] * 5, [1.0] * 6])  # a ragged stack

    def test_empty(self):
        with pytest.raises(ValueError):
            _aggregate([])
        with pytest.raises(ValueError):
            aggregate_curves(np.zeros((0, 5)))
        with pytest.raises(ValueError, match="non-empty 2-D"):
            aggregate_curves(np.zeros(5))  # one curve, not a stack


class TestPooledStd:
    def test_equal_sizes(self):
        assert pooled_std(1.0, 10, 3.0, 10) == pytest.approx(math.sqrt(5.0))

    def test_degenerate(self):
        assert pooled_std(1.0, 1, 2.0, 1) == 0.0
