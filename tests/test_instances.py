"""Instance generators, k-means, agglomeration, audits, serialization."""
import hashlib
import inspect
import itertools
import json
import math
import re

import numpy as np
import pytest

from clusterbandit.analysis import audit_hierarchical_dominance, verify_strong_dominance
from clusterbandit.contextual import ContextualInstance
from clusterbandit.core import BanditInstance, ClusterTree, rng_streams
from clusterbandit.instances import (
    SPEC_KINDS,
    build_instance,
    evaluate_reward_fn,
    gen_agglomerative_instance,
    gen_agglomerative_tree,
    gen_context,
    gen_contextual,
    gen_kmeans_instance,
    gen_kmeans_tree,
    gen_sorted_binary_tree,
    gen_strong_dominance,
    gen_uniform_instance,
    instance_from_json,
    instance_to_json,
    kmeans,
    kmeans_distortion,
    sorted_tree_from_means,
    spec_fields,
    truncate_tree,
)
from clusterbandit.policies import POLICY_KEYS, make_policy

# Frozen 40-digit evaluations of the closed-form reward landscapes.
GAUSS_MIX_AT_01 = 0.7246644820586108
BUMP_AT_02_07 = 0.7000000000027776


# ---------------------------------------------------------------------------
# Reward landscapes
# ---------------------------------------------------------------------------

class TestRewardFunctions:
    def test_sin_product_at_zero(self):
        assert evaluate_reward_fn("sin-product", [[0.0]])[0] == pytest.approx(0.5, abs=1e-15)

    def test_gaussian_mix_reference_point(self):
        value = evaluate_reward_fn("gaussian-mix-1d", [[0.1]])[0]
        assert value == pytest.approx(GAUSS_MIX_AT_01, abs=1e-12)

    def test_bump_reference_point(self):
        value = evaluate_reward_fn("bump-2d", [[0.2, 0.7]])[0]
        assert value == pytest.approx(BUMP_AT_02_07, abs=1e-12)

    def test_closed_forms_at_random_points(self, rng):
        # scalar re-evaluation with math.* as the independent oracle
        xs = rng.random(1000)
        vec = evaluate_reward_fn("sin-product", xs[:, None])
        for x, v in zip(xs, vec):
            assert abs(v - 0.5 * (math.sin(13 * x) * math.sin(27 * x) + 1)) <= 1e-12
        vec = evaluate_reward_fn("gaussian-mix-1d", xs[:, None])
        for x, v in zip(xs, vec):
            oracle = 0.5 * (
                math.exp(-((0.1 - x) ** 2) / 0.05) + math.exp(-((0.9 - x) ** 2) / 0.8)
            )
            assert abs(v - oracle) <= 1e-12
        pts = rng.random((1000, 2))
        vec = evaluate_reward_fn("bump-2d", pts)
        for (x1, x2), v in zip(pts, vec):
            oracle = (
                0.5 * math.exp(-100 * (0.2 - x1) ** 2)
                + 0.2 * math.exp(-100 * (0.7 - x1) ** 2)
                + 0.2 * math.exp(-100 * (0.7 - x2) ** 2)
            )
            assert abs(v - oracle) <= 1e-12

    def test_values_are_valid_means(self, rng):
        for fn_id, dim in (("sin-product", 1), ("gaussian-mix-1d", 1), ("bump-2d", 2)):
            values = evaluate_reward_fn(fn_id, rng.random((500, dim)))
            assert np.all(values >= 0.0) and np.all(values <= 1.0)

    def test_unknown_id(self):
        with pytest.raises(ValueError):
            evaluate_reward_fn("nope", [[0.1]])


# ---------------------------------------------------------------------------
# Strong dominance generator
# ---------------------------------------------------------------------------

class TestGenStrongDominance:
    def test_reference_pin_values(self):
        streams = rng_streams(3)
        inst = gen_strong_dominance(100, 10, 10, 0.1, 0.1, streams.instance)
        labels = inst.labels
        optimal = inst.means[labels == 0]
        suboptimal = inst.means[labels != 0]
        assert optimal.max() == pytest.approx(0.6, abs=1e-12)
        assert optimal.min() == pytest.approx(0.5, abs=1e-12)
        assert suboptimal.max() == pytest.approx(0.4, abs=1e-12)
        assert suboptimal.min() == pytest.approx(0.3, abs=1e-12)
        assert labels.min() == 0 and labels.max() == 10

    def test_zero_width(self):
        streams = rng_streams(4)
        inst = gen_strong_dominance(40, 5, 10, 0.0, 0.1, streams.instance)
        optimal = inst.means[inst.labels == 0]
        assert np.all(optimal == optimal[0])
        report = verify_strong_dominance(inst)
        assert report.stats.gamma == 0.0

    @pytest.mark.parametrize("seed", range(6))
    def test_audit_passes_with_exact_parameters(self, seed):
        w, d = 0.15, 0.05
        streams = rng_streams(seed)
        inst = gen_strong_dominance(60, 7, 8, w, d, streams.instance)
        report = verify_strong_dominance(inst)
        assert report.holds
        assert report.stats.w_star == pytest.approx(w, abs=1e-12)
        for c in report.stats.suboptimal_clusters():
            assert report.stats.distance[c] == pytest.approx(d, abs=1e-12)

    def test_deterministic_under_seed(self):
        a = gen_strong_dominance(50, 5, 6, 0.1, 0.1, rng_streams(9).instance)
        b = gen_strong_dominance(50, 5, 6, 0.1, 0.1, rng_streams(9).instance)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.labels, b.labels)


# ---------------------------------------------------------------------------
# Sorted binary tree
# ---------------------------------------------------------------------------

class TestSortedBinaryTree:
    def test_sort_and_split_example(self):
        inst = sorted_tree_from_means([0.2, 0.7, 0.3, 0.5])
        tree = inst.tree
        left, right = tree.children(tree.root)
        assert sorted(inst.means[tree.arms_under(int(left))].tolist()) == [0.2, 0.3]
        assert sorted(inst.means[tree.arms_under(int(right))].tolist()) == [0.5, 0.7]

    @pytest.mark.parametrize("n", [2, 5, 8, 17, 64])
    def test_depth_is_ceil_log2(self, n):
        inst = gen_sorted_binary_tree(n, rng_streams(n).instance)
        assert inst.tree.depth == math.ceil(math.log2(n))

    @pytest.mark.parametrize("seed", range(5))
    def test_hierarchical_dominance_audit_passes(self, seed):
        inst = gen_sorted_binary_tree(33, rng_streams(seed).instance)
        # subtree min/max oracle, checked independently of the audit helper
        tree, means = inst.tree, inst.means
        for v in range(tree.n_nodes):
            kids = tree.children(v)
            for a, b in itertools.combinations([int(k) for k in kids], 2):
                left_max = means[tree.arms_under(a)].max()
                right_min = means[tree.arms_under(b)].min()
                assert left_max < right_min  # children ordered low to high
        assert audit_hierarchical_dominance(inst).holds

    def test_means_within_range(self):
        inst = gen_sorted_binary_tree(100, rng_streams(0).instance)
        assert np.all(inst.means > 0.1) and np.all(inst.means < 0.8)


class TestTruncateTree:
    def _full(self):
        return gen_sorted_binary_tree(16, rng_streams(44).instance)

    def test_levels_zero_star(self):
        inst = self._full()
        star = truncate_tree(inst.tree, 0)
        assert star.depth == 1
        assert star.children(star.root).size == 16

    def test_levels_one_two_blocks(self):
        inst = self._full()
        t1 = truncate_tree(inst.tree, 1)
        kids = t1.children(t1.root)
        assert kids.size == 2
        assert all(t1.arms_under(int(k)).size == 8 for k in kids)
        assert t1.depth == 2

    def test_full_levels_identity(self):
        inst = self._full()
        assert truncate_tree(inst.tree, inst.tree.depth) == inst.tree

    def test_block_union_is_partition(self):
        inst = self._full()
        t2 = truncate_tree(inst.tree, 2)
        blocks = [t2.arms_under(int(k)) for k in t2.children(t2.root)]
        merged = np.sort(np.concatenate(blocks))
        assert np.array_equal(merged, np.arange(16))


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

class TestKmeans:
    def test_two_cluster_oracle(self):
        points = np.array([0.0, 0.01, 0.99, 1.0])
        labels = kmeans(points, 2, rng_streams(1).instance)

        # exhaustive 2-partition distortion oracle
        best, best_cost = None, np.inf
        for assignment in itertools.product([0, 1], repeat=4):
            if len(set(assignment)) < 2:
                continue
            cost = kmeans_distortion(points, np.array(assignment))
            if cost < best_cost:
                best, best_cost = assignment, cost
        groups = {frozenset(np.flatnonzero(labels == c).tolist()) for c in (0, 1)}
        oracle = {frozenset(np.flatnonzero(np.array(best) == c).tolist()) for c in (0, 1)}
        assert groups == oracle == {frozenset({0, 1}), frozenset({2, 3})}

    def test_singletons_when_k_equals_n(self):
        points = np.array([0.1, 0.5, 0.9])
        labels = kmeans(points, 3, rng_streams(2).instance)
        assert sorted(labels.tolist()) == [0, 1, 2]
        assert kmeans_distortion(points, labels) == 0.0

    def test_distortion_non_increasing_in_iterations(self):
        rng0 = rng_streams(8).instance
        points = rng0.random((60, 2))
        costs = []
        for iters in (1, 2, 3, 5, 10, 100):
            labels = kmeans(points, 5, rng_streams(8).simulation, max_iter=iters)
            costs.append(kmeans_distortion(points, labels))
        assert all(a >= b - 1e-12 for a, b in zip(costs, costs[1:]))

    def test_k_larger_than_n_rejected(self):
        with pytest.raises(ValueError):
            kmeans(np.array([0.1, 0.2]), 3, rng_streams(0).instance)


class TestGenKmeansInstance:
    def test_means_follow_reward_fn(self):
        streams = rng_streams(5)
        inst = gen_kmeans_instance(50, 6, "sin-product", streams.instance)
        assert inst.labels is not None
        assert inst.labels.max() + 1 <= 6
        # regenerate the features to confirm means = f(features)
        streams2 = rng_streams(5)
        features = streams2.instance.random((50, 1))
        np.testing.assert_allclose(
            inst.means, evaluate_reward_fn("sin-product", features), rtol=0, atol=0
        )

    def test_k_greater_than_n_rejected(self):
        with pytest.raises(ValueError):
            gen_kmeans_instance(5, 6, "sin-product", rng_streams(0).instance)


class TestGenKmeansTree:
    def test_depth_one_matches_flat_partition(self):
        flat = gen_kmeans_instance(60, 5, "sin-product", rng_streams(6).instance)
        treed = gen_kmeans_tree(60, 5, 1, "sin-product", rng_streams(6).instance)
        blocks_flat = {
            frozenset(np.flatnonzero(flat.labels == c).tolist())
            for c in range(flat.labels.max() + 1)
        }
        tree = treed.tree
        blocks_tree = {
            frozenset(tree.arms_under(int(k)).tolist()) for k in tree.children(tree.root)
        }
        assert blocks_flat == blocks_tree
        assert np.array_equal(flat.means, treed.means)

    def test_subtree_partition_invariant(self):
        inst = gen_kmeans_tree(80, 4, 2, "sin-product", rng_streams(7).instance)
        tree = inst.tree
        for v in range(tree.n_nodes):
            kids = tree.children(v)
            if kids.size == 0:
                continue
            merged = np.sort(np.concatenate([tree.arms_under(int(k)) for k in kids]))
            assert np.array_equal(merged, np.sort(tree.arms_under(v)))

    def test_paper_scale_shape(self):
        inst = gen_kmeans_tree(5000, 15, 3, "sin-product", rng_streams(1).instance)
        tree = inst.tree
        assert inst.n_arms == 5000
        assert tree.children(tree.root).size == 15
        assert tree.depth <= 4  # three cluster levels plus the arm leaves

    def test_small_cluster_splits_into_singletons(self):
        inst = gen_kmeans_tree(3, 5, 1, "sin-product", rng_streams(2).instance)
        tree = inst.tree
        assert tree.n_arms == 3
        assert {tree.arms_under(int(k)).size for k in tree.children(tree.root)} == {1}


# ---------------------------------------------------------------------------
# Agglomerative clustering
# ---------------------------------------------------------------------------

class TestAgglomerativeTree:
    def test_two_points(self):
        tree = gen_agglomerative_tree(np.array([0.1, 0.9]))
        assert tree.n_nodes == 3
        assert tree.children(tree.root).size == 2

    def test_single_linkage_first_merge(self):
        # pairwise-distance oracle: closest pair {0.0, 0.1} merges first,
        # so a node containing exactly those two arms must exist
        tree = gen_agglomerative_tree(np.array([0.0, 0.1, 0.9]))
        blocks = {frozenset(tree.arms_under(v).tolist()) for v in range(tree.n_nodes)}
        assert frozenset({0, 1}) in blocks
        assert frozenset({1, 2}) not in blocks

    def test_internal_node_count(self):
        n = 24
        tree = gen_agglomerative_tree(rng_streams(3).instance.random(n))
        internal = sum(1 for v in range(tree.n_nodes) if tree.ptr[v] != tree.ptr[v + 1])
        assert internal == n - 1

    def test_instance_wrapper_shares_feature_draw_with_kmeans(self):
        flat = gen_kmeans_instance(30, 4, "gaussian-mix-1d", rng_streams(11).instance)
        treed = gen_agglomerative_instance(30, "gaussian-mix-1d", rng_streams(11).instance)
        assert np.array_equal(flat.means, treed.means)

    def test_too_few_points(self):
        with pytest.raises(ValueError):
            gen_agglomerative_tree(np.array([0.5]))


# ---------------------------------------------------------------------------
# Uniform and contextual generators
# ---------------------------------------------------------------------------

class TestGenUniformInstance:
    def test_appendix_shape(self):
        inst = gen_uniform_instance(50, 10, rng_streams(13).instance)
        assert inst.n_arms == 50
        assert inst.labels.max() + 1 == 10

    def test_dominance_generally_fails(self):
        holds = [
            verify_strong_dominance(gen_uniform_instance(50, 10, rng_streams(s).instance)).holds
            for s in range(5)
        ]
        assert not any(holds)

    def test_every_cluster_non_empty(self):
        for s in range(5):
            inst = gen_uniform_instance(12, 10, rng_streams(s).instance)
            sizes = np.bincount(inst.labels, minlength=10)
            assert min(sizes) >= 1


class TestGenContextual:
    def test_zero_epsilon_collapses_clusters(self):
        inst = gen_contextual(n_arms=20, n_clusters=4, epsilon=0.0, rng=rng_streams(1).instance, dim=5)
        for c in range(4):
            block = inst.theta[inst.labels == c]
            assert np.allclose(block, block[0])

    def test_reward_mean_positive_case(self, rng):
        inst = ContextualInstance(np.array([[1.0, 0.5]]), [0])
        x = np.array([0.6, 0.8])
        draws = np.array([inst.draw_reward(0, inst.expected_rewards(x), rng) for _ in range(100_000)])
        assert abs(draws.mean() - 1.0) < 0.02  # theta'x = 1.0

    def test_reward_signed_interval_convention(self, rng):
        inst = ContextualInstance(np.array([[-1.0]]), [0])
        x = np.array([1.0])
        draws = np.array([inst.draw_reward(0, inst.expected_rewards(x), rng) for _ in range(100_000)])
        assert draws.min() >= -2.0 and draws.max() <= 0.0
        assert abs(draws.mean() - (-1.0)) < 0.02

    def test_zero_expectation_point_mass(self, rng):
        inst = ContextualInstance(np.array([[0.0]]), [0])
        assert inst.draw_reward(0, inst.expected_rewards(np.array([1.0])), rng) == 0.0


class TestGenContext:
    def test_uniform_range_and_mean(self, rng):
        xs = np.array([gen_context(3, rng) for _ in range(100_000)])
        assert xs.min() >= 0.0 and xs.max() <= 1.0
        assert np.all(np.abs(xs.mean(axis=0) - 0.5) < 0.01)

    def test_seeded_determinism(self):
        a = gen_context(4, rng_streams(5).context)
        b = gen_context(4, rng_streams(5).context)
        assert np.array_equal(a, b)

    def test_gaussian_variant(self, rng):
        x = gen_context(4, rng, kind="gaussian")
        assert x.shape == (4,)
        with pytest.raises(ValueError):
            gen_context(4, rng, kind="cauchy")


# ---------------------------------------------------------------------------
# Dominance audit
# ---------------------------------------------------------------------------

class TestVerifyStrongDominance:
    def test_violating_pairs_reported(self):
        inst = BanditInstance(
            [0.6, 0.3, 0.5], labels=[0, 0, 1]
        )
        report = verify_strong_dominance(inst)
        assert not report.holds
        assert (1, 2) in report.violations  # optimal-cluster arm 1 below arm 2

    def test_pairwise_oracle_agreement(self):
        for seed in range(5):
            inst = gen_uniform_instance(20, 4, rng_streams(seed).instance)
            report = verify_strong_dominance(inst)
            labels, means = inst.labels, inst.means
            c_star = labels[int(np.argmax(means))]
            oracle_holds = all(
                means[a] > means[b]
                for a in np.flatnonzero(labels == c_star)
                for b in np.flatnonzero(labels != c_star)
            )
            assert report.holds == oracle_holds

    def test_single_cluster_vacuous(self):
        inst = BanditInstance([0.4, 0.2], labels=[0, 0])
        assert verify_strong_dominance(inst).holds


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

class TestGeneratorDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            {"kind": "strong_dominance", "n_arms": 30, "n_suboptimal_clusters": 4,
             "optimal_cluster_size": 5, "optimal_width": 0.1, "separation": 0.1},
            {"kind": "sorted_tree", "n_arms": 12},
            {"kind": "sorted_tree", "n_arms": 12, "levels": 1},
            {"kind": "kmeans", "n_arms": 25, "n_clusters": 4, "reward_fn": "sin-product"},
            {"kind": "kmeans_tree", "n_arms": 25, "branching": 3, "depth": 2,
             "reward_fn": "gaussian-mix-1d"},
            {"kind": "agglomerative", "n_arms": 15, "reward_fn": "bump-2d"},
            {"kind": "uniform", "n_arms": 20, "n_clusters": 5},
            {"kind": "contextual", "n_arms": 10, "n_clusters": 3, "dim": 4, "epsilon": 0.3},
        ],
        ids=lambda s: s["kind"] + (".trunc" if "levels" in s else ""),
    )
    def test_same_seed_same_instance(self, spec):
        a = build_instance(spec, rng_streams(31).instance)
        b = build_instance(spec, rng_streams(31).instance)
        assert instance_to_json(a) == instance_to_json(b)


class TestGeneratorChecks:
    """A bad direct call fails before the generator's first draw, with the field named, as a config does."""

    @pytest.mark.parametrize(
        "call, field",
        [
            (lambda rng: gen_kmeans_instance(5, 8, "sin-product", rng), "n_clusters"),
            (lambda rng: gen_kmeans_instance(20, 3, "sin", rng), "reward_fn"),
            (lambda rng: gen_kmeans_tree(0, 3, 1, "sin-product", rng), "n_arms"),
            (lambda rng: gen_kmeans_tree(20, 1, 1, "sin-product", rng), "branching"),
            (lambda rng: gen_kmeans_tree(20, 3, 0, "sin-product", rng), "depth"),
            (lambda rng: gen_agglomerative_instance(1, "bump-2d", rng), "n_arms"),
            (lambda rng: gen_agglomerative_instance(10, "bump-2d", rng, linkage="nearest"), "linkage"),
            (lambda rng: gen_sorted_binary_tree(1, rng), "n_arms"),
            (lambda rng: gen_uniform_instance(3, 5, rng), "n_clusters"),
            (lambda rng: gen_contextual(6, 2, 0.5, rng, dim=0), "dim"),
            (lambda rng: gen_contextual(5, 9, 0.5, rng), "n_clusters"),
            (lambda rng: gen_contextual(5, 2, -0.5, rng), "epsilon"),
            (lambda rng: gen_strong_dominance(100, 10, 1, 0.1, 0.1, rng), "optimal_cluster_size"),  # A* < 2
            (lambda rng: gen_strong_dominance(30, 0, 5, 0.1, 0.1, rng), "n_suboptimal_clusters"),
            (lambda rng: gen_strong_dominance(15, 10, 10, 0.1, 0.1, rng), "n_arms"),  # N - A* < K
            (lambda rng: gen_strong_dominance(30, 4, 5, 1.0, 0.1, rng), "optimal_width"),
            (lambda rng: gen_strong_dominance(100, 10, 10, 0.3, 0.3, rng), "separation"),  # means would go negative
            (lambda rng: gen_strong_dominance(100, 10, 10, 0.1, 0.0, rng), "separation"),  # separation must be > 0
            (lambda rng: gen_context(0, rng), "dim"),
        ],
    )
    def test_rejected_before_any_draw(self, call, field):
        rng = rng_streams(0).instance
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match=rf"^{field}: "):
            call(rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("kind", sorted(SPEC_KINDS))
    def test_check_and_generate_take_exactly_the_kind_fields_by_name(self, kind):
        schema = SPEC_KINDS[kind]
        fields = {*schema.required, *schema.optional}
        by_name = (inspect.Parameter.POSITIONAL_OR_KEYWORD, inspect.Parameter.KEYWORD_ONLY)
        for fn, extra in ((schema.check, set()), (schema.generate, {"rng"})):
            params = inspect.signature(fn).parameters
            assert set(params) == fields | extra, fn.__name__
            assert all(p.kind in by_name for p in params.values()), fn.__name__
            for name, (_, default) in schema.optional.items():  # a default the function states is the schema's
                assert params[name].default in (inspect.Parameter.empty, default), (fn.__name__, name)

    def test_truncate_rejects_negative_levels(self):
        with pytest.raises(ValueError, match="^levels: must be >= 0, got -1$"):
            truncate_tree(gen_sorted_binary_tree(8, rng_streams(0).instance).tree, -1)


class TestSerialization:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda s: gen_strong_dominance(30, 4, 5, 0.1, 0.1, s),
            lambda s: gen_sorted_binary_tree(12, s),
            lambda s: BanditInstance([0.5, 0.25]),
        ],
    )
    def test_bernoulli_roundtrip(self, builder):
        inst = builder(rng_streams(17).instance)
        clone = instance_from_json(instance_to_json(inst))
        assert np.array_equal(clone.means, inst.means)
        assert clone.structure == inst.structure and np.array_equal(clone.labels, inst.labels)
        assert clone.tree == inst.tree

    def test_contextual_roundtrip(self):
        inst = gen_contextual(10, 3, 0.2, rng_streams(18).instance, dim=4)
        clone = instance_from_json(instance_to_json(inst))
        assert isinstance(clone, ContextualInstance)
        assert np.array_equal(clone.theta, inst.theta)
        assert np.array_equal(clone.labels, inst.labels) and clone.tree == inst.tree
        assert clone.epsilon == inst.epsilon

    @pytest.mark.parametrize("means, match", [
        (["0.5", 0.25], r"^means\[0\]: must be a number, got '0.5'$"),
        ([0.5, True], r"^means\[1\]: must be a number, got True$"),
        ([0.5, None], r"^means\[1\]: must be a number, got None$"),
        ([0.5, [0.25]], r"^means\[1\]: must be a number, got \[0.25\]$"),
        ("0.5", r"^means: must be a list, got '0.5'$"),
    ])
    def test_bernoulli_document_means_are_typed(self, means, match):
        with pytest.raises(ValueError, match=match):
            build_instance({"kind": "bernoulli", "means": means}, rng_streams(0).instance)
        with pytest.raises(ValueError, match=match):
            instance_from_json({"kind": "bernoulli", "means": means, "clustering": {"labels": [0, 1]}})

    @pytest.mark.parametrize("structure, match", [
        ({"clustering": {"labels": [0, 1.7]}}, r"^clustering\.labels\[1\]: must be an integer, got 1\.7$"),
        ({"clustering": {"labels": [0, True]}}, r"^clustering\.labels\[1\]: must be an integer, got True$"),
        ({"clustering": {"labels": ["0", 1.0]}}, r"^clustering\.labels\[0\]: must be an integer, got '0'$"),
        ({"clustering": "abc"}, r"^clustering: must be an object, got 'abc'$"),
        ({"tree": {"children": [[1, 2.7], [], []], "leaf_arms": [-1, 0, 1]}},
         r"^tree\.children\[0\]\[1\]: must be an integer, got 2\.7$"),
        ({"tree": {"children": [[1, 2], [], []], "leaf_arms": [-1, 0, True]}},
         r"^tree\.leaf_arms\[2\]: must be an integer, got True$"),
        ({"tree": "abc"}, r"^tree: must be an object, got 'abc'$"),
    ], ids=["fractional-label", "bool-label", "string-label", "string-clustering", "fractional-child",
            "bool-leaf-arm", "string-tree"])
    def test_bernoulli_document_structure_is_typed(self, structure, match):
        # the fractional label and child were truncated, the bool and string ones taken as integers
        doc = {"kind": "bernoulli", "means": [0.5, 0.25], **structure}
        with pytest.raises(ValueError, match=match):
            build_instance(doc, rng_streams(0).instance)
        with pytest.raises(ValueError, match=match):
            instance_from_json(doc)

    @pytest.mark.parametrize("doc, field", [
        ({"kind": "bernoulli", "means": [0.5, 0.25], "clustering": {}}, r"clustering\.labels"),
        ({"kind": "bernoulli", "means": [0.5, 0.25], "tree": {"leaf_arms": [-1, 0, 1]}}, r"tree\.children"),
        ({"kind": "bernoulli", "means": [0.5, 0.25], "tree": {"children": [[1, 2], [], []]}}, r"tree\.leaf_arms"),
        ({"kind": "bernoulli", "clustering": {"labels": [0, 1]}}, "means"),
        ({"kind": "contextual", "labels": [0, 1]}, "theta"),
        ({"kind": "contextual", "theta": [[0.1], [0.2]]}, "labels"),
    ], ids=["clustering-labels", "tree-children", "tree-leaf-arms", "means", "theta", "labels"])
    def test_document_missing_field_fails_naming_it(self, doc, field):
        with pytest.raises(ValueError, match=rf"^{field}: missing$"):
            instance_from_json(doc)

    @pytest.mark.parametrize("spec", [5, None, [], "kmeans"])
    def test_spec_must_be_an_object(self, spec):
        match = rf"^instance: must be an object, got {re.escape(repr(spec))}$"
        with pytest.raises(ValueError, match=match):
            spec_fields(spec)
        with pytest.raises(ValueError, match=match):
            build_instance(spec, rng_streams(0).instance)

    def test_bernoulli_document_takes_integral_means(self):
        assert build_instance({"kind": "bernoulli", "means": [1, 0]}, rng_streams(0).instance).means.tolist() == [1.0, 0.0]

    @pytest.mark.parametrize("edit, match", [
        (lambda doc: doc.update(epsilon=True), r"^epsilon: must be a number, got True$"),
        (lambda doc: doc.update(epsilon="0.2"), r"^epsilon: must be a number, got '0.2'$"),
        (lambda doc: doc.update(epsilon=None), r"^epsilon: must be a number, got None$"),
        (lambda doc: doc["theta"][1].__setitem__(2, "0.1"), r"^theta\[1\]\[2\]: must be a number, got '0.1'$"),
        (lambda doc: doc["theta"][0].__setitem__(0, False), r"^theta\[0\]\[0\]: must be a number, got False$"),
        (lambda doc: doc["theta"].__setitem__(3, 0.5), r"^theta\[3\]: must be a list, got 0.5$"),
        (lambda doc: doc.update(theta="[[0.1]]"), r"^theta: must be a list, got '\[\[0.1\]\]'$"),
        (lambda doc: doc["labels"].__setitem__(1, True), r"^labels\[1\]: must be an integer, got True$"),
        (lambda doc: doc["labels"].__setitem__(0, 0.5), r"^labels\[0\]: must be an integer, got 0\.5$"),
    ])
    def test_contextual_document_entries_are_typed(self, edit, match):
        doc = instance_to_json(gen_contextual(6, 2, 0.2, rng_streams(18).instance, dim=3))
        assert build_instance(doc, rng_streams(0).instance).epsilon == 0.2
        edit(doc)
        with pytest.raises(ValueError, match=match):
            build_instance(doc, rng_streams(0).instance)

    def test_build_instance_dispatch(self):
        spec = {
            "kind": "strong_dominance",
            "n_arms": 20,
            "n_suboptimal_clusters": 3,
            "optimal_cluster_size": 4,
            "optimal_width": 0.1,
            "separation": 0.1,
        }
        inst = build_instance(spec, rng_streams(1).instance)
        assert inst.n_arms == 20

    def test_serialized_instance_fixed_across_seeds(self):
        doc = {
            "kind": "bernoulli",
            "means": [0.6, 0.55, 0.4, 0.35],
            "clustering": {"labels": [0, 0, 1, 1]},
        }
        a = build_instance(doc, rng_streams(1).instance)
        b = build_instance(doc, rng_streams(2).instance)
        assert np.array_equal(a.means, b.means)

    def test_unknown_kind(self):
        with pytest.raises(ValueError, match="kind"):
            build_instance({"kind": "mystery"}, rng_streams(0).instance)

    def test_missing_field_named(self):
        with pytest.raises(ValueError, match="n_clusters"):
            build_instance({"kind": "uniform", "n_arms": 10}, rng_streams(0).instance)

    def test_extra_field_named(self):
        with pytest.raises(ValueError, match="bogus"):
            build_instance(
                {"kind": "uniform", "n_arms": 10, "n_clusters": 2, "bogus": 1},
                rng_streams(0).instance,
            )


# ---------------------------------------------------------------------------
# A clustering is its two-level tree, built once with the instance
# ---------------------------------------------------------------------------

# one small spec of each generated kind, with the sha256 of ``json.dumps(instance_to_json(inst), sort_keys=True)``
# at seed 0, recorded while clusterings were still held apart from their trees
DOCUMENT_DIGESTS = {
    "strong_dominance": ({"n_arms": 30, "n_suboptimal_clusters": 4, "optimal_cluster_size": 5,
                          "optimal_width": 0.1, "separation": 0.05},
                         "d3ab0069fbff70bfccd879f7a95e0dc1a8240008b6a9926fd468162b22052518"),
    "kmeans": ({"n_arms": 40, "n_clusters": 5, "reward_fn": "sin-product"},
               "d0ffaa2f761d07f54ae9b8b48ad4750b9a034c2cabffb7a856d1064f89cc6166"),
    "uniform": ({"n_arms": 30, "n_clusters": 4}, "48d762a51c042bf11a64894404b9c30abcc79fd512d4e16495955adaf05858d6"),
    "contextual": ({"n_arms": 30, "n_clusters": 4, "dim": 3, "epsilon": 0.5},
                   "f739d401fd8d069bf52da0bdba4632c73ae86e66a024c62f587ef2559a26212c"),
    "sorted_tree": ({"n_arms": 16, "levels": 3}, "dccfef38932f3dd9b9f8b5449a798ec7d78e1a4d434f76d4fc22607fb9f8cb39"),
    "kmeans_tree": ({"n_arms": 30, "branching": 3, "depth": 2, "reward_fn": "gaussian-mix-1d"},
                    "3a7eea88c1aec2a6d9bfa3c0f9992849feae3afc171351fc7e974e5648cb056c"),
    "agglomerative": ({"n_arms": 20, "reward_fn": "sin-product"},
                      "e1e41555cc92c9ba797828952ebffc83a2182fa80d77f0087ca6f08532a5b406"),
}
CLUSTERED_KEYS = ("tsc", "ucbc", "tsmax", "lintsc", "linucbc")


def test_document_digests_cover_every_spec_kind():
    assert sorted(DOCUMENT_DIGESTS) == sorted(SPEC_KINDS)


@pytest.mark.parametrize("kind", sorted(DOCUMENT_DIGESTS))
def test_instance_documents_keep_their_bytes(kind):
    fields, digest = DOCUMENT_DIGESTS[kind]
    inst = build_instance({"kind": kind, **fields}, rng_streams(0).instance)
    doc = instance_to_json(inst)
    assert hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest() == digest
    clone = instance_from_json(doc)
    assert clone.tree == inst.tree and instance_to_json(clone) == doc


@pytest.mark.parametrize("kind", [k for k in sorted(SPEC_KINDS) if SPEC_KINDS[k].structure in ("clustering", "contextual")])
def test_every_clustered_policy_descends_the_instances_one_tree(kind):
    inst = build_instance({"kind": kind, **DOCUMENT_DIGESTS[kind][0]}, rng_streams(0).instance)
    assert inst.tree == ClusterTree.from_labels(inst.labels)
    keys = [key for key in CLUSTERED_KEYS if POLICY_KEYS[key].accepts(inst.structure)]
    assert len(keys) == (2 if kind == "contextual" else 3)
    for key in keys:
        assert make_policy(key, inst).tree is inst.tree, key
