"""Core types: Beta draws and updates, reward draws, regret accounting, RNG contract."""

import numpy as np
import pytest
import scipy.stats
from hypothesis import given, strategies as st

from clusterbandit.contextual import ContextualInstance
from clusterbandit.core import (
    BanditInstance,
    ClusterTree,
    DisjointClustering,
    SimulationTrace,
    _random_argmax_list,
    draw_reward,
    random_argmax,
    rng_streams,
)
from clusterbandit.harness import ExperimentConfig, run_experiment
from clusterbandit.instances import build_instance
from clusterbandit.policies import POLICY_KEYS, HierarchicalThompsonSampling, make_policy
from clusterbandit.simulate import simulate

# ---------------------------------------------------------------------------
# Beta beliefs
# ---------------------------------------------------------------------------

def _beta_draws(s, f, n, rng):
    """``n`` draws through the generator call the Thompson kernel makes."""
    return rng.beta(np.full(n, float(s)), np.full(n, float(f)))


class TestSampleBeta:
    def test_uniform_prior_mean(self, rng):
        draws = _beta_draws(1, 1, 100_000, rng)
        assert abs(draws.mean() - 0.5) < 0.01

    def test_concentrated_mean_matches_analytic(self, rng):
        # Beta(s, f) has mean s / (s + f)
        draws = _beta_draws(100, 1, 100_000, rng)
        assert abs(draws.mean() - 100 / 101) < 0.01

    def test_fixed_seed_reproducibility(self):
        a = np.random.default_rng(99).beta(3.0, 7.0)
        b = np.random.default_rng(99).beta(3.0, 7.0)
        assert a == b

    @pytest.mark.parametrize("s,f", [(1, 1), (2, 5), (50, 50)])
    def test_ks_distance_against_analytic_cdf(self, s, f):
        rng = np.random.default_rng(1000 + s * 7 + f)
        draws = _beta_draws(s, f, 100_000, rng)
        stat = scipy.stats.kstest(draws, scipy.stats.beta(s, f).cdf).statistic
        assert stat <= 0.01

    def test_range(self, rng):
        draws = _beta_draws(2, 3, 100, rng)
        assert np.all((0.0 <= draws) & (draws <= 1.0))


def _one_arm_posterior(*rewards):
    """Thompson kernel on one arm (leaf 1) after ``rewards``, and the update."""
    pol = HierarchicalThompsonSampling(ClusterTree.star(1))

    def observe(r):
        pol.update(0, r)

    for r in rewards:
        observe(r)
    return pol, observe


def _leaf_counts(pol):
    """The Beta (s, f) counts of leaf 1, read at its ``tree.slot``."""
    i = pol.tree.slot[1]
    return pol._s[i], pol._f[i]


class TestBetaUpdate:
    def test_success(self):
        pol, observe = _one_arm_posterior()
        observe(1.0)
        assert _leaf_counts(pol) == (2, 1)

    def test_failure(self):
        pol, observe = _one_arm_posterior()
        observe(0.0)
        assert _leaf_counts(pol) == (1, 2)

    def test_fractional_reward(self):
        pol, observe = _one_arm_posterior(1.0, 1.0, 1.0, 0.0)
        assert _leaf_counts(pol) == (4, 2)
        observe(0.5)
        assert _leaf_counts(pol) == (4.5, 2.5)

    @pytest.mark.parametrize("bad", [-0.1, 1.5, float("nan"), float("inf")])
    def test_rejects_out_of_range_reward(self, bad):
        pol, observe = _one_arm_posterior()
        with pytest.raises(ValueError):
            observe(bad)
        assert _leaf_counts(pol) == (1, 1)

    def test_input_unchanged(self):
        pol, observe = _one_arm_posterior(1.0, 0.0, 0.0)
        b = _leaf_counts(pol)
        observe(1.0)
        assert b == (2, 3)

    @given(st.lists(st.integers(0, 1), max_size=200))
    def test_pseudo_count_conservation_binary(self, rewards):
        pol, _ = _one_arm_posterior(*map(float, rewards))
        s, f = _leaf_counts(pol)
        assert s + f - 2 == len(rewards)

    @given(st.lists(st.floats(0, 1, allow_nan=False), max_size=100))
    def test_pseudo_count_conservation_fractional(self, rewards):
        pol, _ = _one_arm_posterior(*rewards)
        s, f = _leaf_counts(pol)
        assert s + f - 2 == pytest.approx(len(rewards), abs=1e-9)


# ---------------------------------------------------------------------------
# Arms and instances
# ---------------------------------------------------------------------------

class TestDrawReward:
    def test_sure_thing(self, rng):
        inst = BanditInstance([1.0, 0.5])
        assert all(draw_reward(inst, 0, rng) == 1.0 for _ in range(100))

    def test_never_pays(self, rng):
        inst = BanditInstance([0.0, 0.5])
        assert all(draw_reward(inst, 0, rng) == 0.0 for _ in range(100))

    def test_empirical_frequency(self, rng):
        # binomial oracle: 4 sigma at n=1e5 for p=0.6 is ~0.006 < 0.01
        inst = BanditInstance([0.6])
        draws = np.array([draw_reward(inst, 0, rng) for _ in range(100_000)])
        assert abs(draws.mean() - 0.6) < 0.01

    def test_unknown_arm(self, rng):
        inst = BanditInstance([0.5])
        with pytest.raises(ValueError):
            draw_reward(inst, 1, rng)
        with pytest.raises(ValueError):
            draw_reward(inst, -1, rng)


class TestRegretOf:
    """An arm's pseudo-regret, as ``simulate`` takes it: the best mean minus the arm's mean."""

    def test_optimal_arm_zero(self):
        inst = BanditInstance([0.2, 0.9, 0.5])
        assert inst.means.max() - inst.means[1] == 0.0

    def test_direct_subtraction(self):
        inst = BanditInstance([0.6, 0.4])
        assert inst.means.max() - inst.means[1] == pytest.approx(0.2)

    def test_ties_still_computed_against_max(self):
        inst = BanditInstance([0.6, 0.6, 0.4])
        assert not inst.has_unique_optimum
        assert inst.means.max() - inst.means[0] == 0.0
        assert inst.means.max() - inst.means[2] == pytest.approx(0.2)


class TestBanditInstance:
    def test_exactly_one_structure(self):
        labels = DisjointClustering([0, 0, 1])
        tree = ClusterTree([[1, 2, 3], [], [], []], [-1, 0, 1, 2])
        with pytest.raises(ValueError):
            BanditInstance([0.1, 0.2, 0.3], clustering=labels, tree=tree)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            BanditInstance([0.1, 0.2], clustering=DisjointClustering([0, 0, 1]))

    def test_means_read_only(self):
        inst = BanditInstance([0.1, 0.2])
        with pytest.raises(ValueError):
            inst.means[0] = 0.9

    @pytest.mark.parametrize("bad", [-0.01, 1.01, float("nan")])
    def test_mean_outside_unit_interval_names_the_arm(self, bad):
        with pytest.raises(ValueError, match="arm 1: mean"):
            BanditInstance([0.5, bad, 0.2])

    @pytest.mark.parametrize("bad", [-0.01, 1.01])
    def test_mean_range(self, bad):
        with pytest.raises(ValueError, match=rf"arm 0: mean {bad} outside \[0, 1\]"):
            BanditInstance([bad])

    def test_instance_holds_its_means_only(self):
        inst = BanditInstance([0.25, 0.75])
        assert "arms" not in vars(inst)  # the instance holds its means only
        assert inst.means.tolist() == [0.25, 0.75]
        assert inst.means.dtype == np.float64


class TestDisjointClustering:
    def test_members_partition(self):
        c = DisjointClustering([0, 1, 0, 2, 1])
        assert c.n_clusters == 3
        assert c.members(0).tolist() == [0, 2]
        assert c.members(1).tolist() == [1, 4]
        assert c.label_of(3) == 2

    def test_empty_cluster_rejected(self):
        with pytest.raises(ValueError):
            DisjointClustering([0, 0, 2])


class TestClusterTree:
    def test_basic_properties(self):
        # root -> (internal -> 2 leaves, leaf)
        tree = ClusterTree([[1, 2], [3, 4], [], [], []], [-1, -1, 2, 0, 1])
        assert tree.depth == 2
        assert tree.n_arms == 3
        assert tree.arms_under(1).tolist() == [0, 1]
        assert tree.arms_under(0).tolist() == [0, 1, 2]
        assert tree.leaf_of_arm(2) == 2
        assert tree.path_to_root(3) == [3, 1, 0]

    def test_internal_node_with_arm_rejected(self):
        with pytest.raises(ValueError, match="^leaf/arm mapping must cover exactly the leaf nodes$"):
            ClusterTree([[1, 2], [], []], [0, 1, 2])

    def test_leaf_without_arm_rejected(self):
        with pytest.raises(ValueError, match="^leaf/arm mapping must cover exactly the leaf nodes$"):
            ClusterTree([[1, 2], [], []], [-1, 0, -1])

    def test_duplicate_arm_rejected(self):
        with pytest.raises(ValueError, match=r"^leaf arms must be a bijection onto 0\.\.n_arms-1$"):
            ClusterTree([[1, 2], [], []], [-1, 0, 0])

    def test_unreachable_node_rejected(self):
        # node 2 is no node's child, which the adjacency check rejects first
        with pytest.raises(ValueError, match="^malformed adjacency: each node but the root must be one node's child$"):
            ClusterTree([[1], [], []], [-1, 0, 1])
        # every node but the root has one parent, but 2 and 3 form a cycle the root never reaches
        with pytest.raises(ValueError, match="^tree has unreachable nodes$"):
            ClusterTree([[1], [], [3], [2]], [-1, 0, -1, -1])

    @staticmethod
    def _assert_contiguous_children(tree):
        for v in range(tree.n_nodes):
            kids = tree.children(v).tolist()
            if kids:
                assert kids == list(range(kids[0], kids[-1] + 1)), v

    @pytest.mark.parametrize("n_arms", [1, 2, 7])
    def test_star(self, n_arms):
        tree = ClusterTree.star(n_arms)
        assert tree.n_nodes == n_arms + 1 and tree.depth == 1
        assert tree.children(0).tolist() == list(range(1, n_arms + 1))
        assert [tree.leaf_of_arm(a) for a in range(n_arms)] == list(range(1, n_arms + 1))
        assert tree.leaf_arms.tolist() == [-1, *range(n_arms)]
        self._assert_contiguous_children(tree)

    def test_star_needs_an_arm(self):
        with pytest.raises(ValueError):
            ClusterTree.star(0)

    def test_from_clustering(self):
        # interleaved labels: cluster order differs from arm order
        clustering = DisjointClustering([2, 0, 1, 0, 2, 2, 1])
        tree = ClusterTree.from_clustering(clustering)
        k = clustering.n_clusters
        assert tree.n_nodes == 1 + k + clustering.n_arms and tree.depth == 2
        assert tree.children(0).tolist() == [1, 2, 3]  # cluster c is node c+1
        assert tree.children(1).tolist() == [4, 5]
        assert tree.children(2).tolist() == [6, 7]
        assert tree.children(3).tolist() == [8, 9, 10]
        for c in range(k):
            # a cluster's leaves hold its members in ascending arm order
            leaves = tree.children(c + 1)
            assert tree.leaf_arms[leaves].tolist() == clustering.members(c).tolist()
            assert tree.arms_under(c + 1).tolist() == clustering.members(c).tolist()
        # every arm maps to exactly one leaf, under its own cluster's node
        leaves = [tree.leaf_of_arm(a) for a in range(clustering.n_arms)]
        assert sorted(leaves) == list(range(1 + k, tree.n_nodes))
        for a, leaf in enumerate(leaves):
            assert tree.leaf_arms[leaf] == a
            assert tree.path_to_root(leaf) == [leaf, clustering.label_of(a) + 1, 0]
        self._assert_contiguous_children(tree)


# ---------------------------------------------------------------------------
# RNG contract
# ---------------------------------------------------------------------------

class TestRngStreams:
    def test_streams_are_independent_of_each_other(self):
        s = rng_streams(5)
        a = s.instance.random(4)
        b = s.simulation.random(4)
        assert not np.allclose(a, b)

    def test_same_seed_same_streams(self):
        a = rng_streams(5).instance.random(8)
        b = rng_streams(5).instance.random(8)
        assert np.array_equal(a, b)

    def test_instance_stream_unaffected_by_simulation_use(self):
        s1 = rng_streams(5)
        s1.simulation.random(1000)
        s2 = rng_streams(5)
        assert np.array_equal(s1.instance.random(8), s2.instance.random(8))


class TestRandomArgmax:
    def test_no_tie_no_rng_consumption(self):
        rng = np.random.default_rng(0)
        state = rng.bit_generator.state
        assert random_argmax(np.array([0.1, 0.9, 0.5]), rng) == 1
        assert rng.bit_generator.state == state

    def test_uniform_tie_break(self):
        rng = np.random.default_rng(3)
        picks = np.array(
            [random_argmax(np.array([1.0, 0.5, 1.0]), rng) for _ in range(10_000)]
        )
        freq0 = (picks == 0).mean()
        assert set(np.unique(picks)) == {0, 2}
        assert abs(freq0 - 0.5) < 0.02

    @pytest.mark.parametrize(
        "values",
        [
            [0.3], [0.1, 0.9, 0.5], [0.9, 0.9], [1.0, 0.5, 1.0, 1.0], [0.0, -0.0, 0.0],
            [0.2, 0.7, 0.7, 0.1, 0.7], [0.5] * 17, [-1.0, -2.0, -1.0],
        ],
    )
    def test_list_twin_picks_the_same_index_with_the_same_draws(self, values):
        # the narrow-node argmax of the descents: first maximum, and one
        # rng.integers over the ties only when there is a tie
        for seed in range(20):
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            got = _random_argmax_list(list(values), twin)
            assert got == random_argmax(np.array(values), rng)
            assert type(got) is int
            assert twin.bit_generator.state == rng.bit_generator.state

    def test_list_twin_on_random_draws(self):
        g = np.random.default_rng(1)
        for _ in range(500):
            values = g.integers(0, 4, size=int(g.integers(1, 20))).astype(float)
            if g.random() < 0.5:
                values = g.random(values.size)
            seed = int(g.integers(1 << 30))
            rng, twin = np.random.default_rng(seed), np.random.default_rng(seed)
            assert _random_argmax_list(values.tolist(), twin) == random_argmax(values, rng)
            assert twin.bit_generator.state == rng.bit_generator.state


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------

def _small_clustered_instance():
    return BanditInstance(
        [0.6, 0.5, 0.4, 0.3], clustering=DisjointClustering([0, 0, 1, 1])
    )


class TestSimulationTrace:
    def test_byte_identical_replay(self):
        inst = _small_clustered_instance()

        def run():
            streams = rng_streams(77)
            policy = make_policy("tsc", inst)
            return simulate(inst, policy, 300, streams.simulation, seed=77)

        a, b = run(), run()
        assert np.array_equal(a.arms, b.arms)
        assert np.array_equal(a.rewards, b.rewards)
        assert np.array_equal(a.cum_regret, b.cum_regret)

    @pytest.mark.parametrize("key", sorted(k for k, cls in POLICY_KEYS.items() if cls.needs != "contextual"))
    def test_cumulative_regret_equals_sum_of_regret_of(self, key):
        inst = _small_clustered_instance()
        if key in ("hts", "uct"):  # the same means on the clustering's two-level tree
            inst = BanditInstance(inst.means, tree=ClusterTree.from_clustering(inst.clustering))
        streams = rng_streams(3)
        trace = simulate(inst, make_policy(key, inst), 500, streams.simulation)
        running, creg = [], 0.0
        for a in trace.arms:
            creg += float(inst.means.max() - inst.means[a])
            running.append(creg)
        assert trace.cum_regret.tobytes() == np.array(running).tobytes()

    def test_regret_non_decreasing_and_length(self):
        inst = _small_clustered_instance()
        trace = simulate(inst, make_policy("ts", inst), 200, rng_streams(1).simulation)
        assert trace.horizon == 200
        assert np.all(np.diff(trace.cum_regret) >= -1e-15)

    def test_steps_view(self):
        inst = _small_clustered_instance()
        trace = simulate(inst, make_policy("tsc", inst), 10, rng_streams(2).simulation)
        assert trace.horizon == 10
        assert trace.arms.shape == trace.rewards.shape == trace.cum_regret.shape == (10,)
        assert trace.arms.dtype == np.int64 and 0 <= trace.arms.min() <= trace.arms.max() < inst.n_arms
        assert trace.rewards[0] in (0.0, 1.0)

    @staticmethod
    def _row(key, spec, horizon):
        doc = {"name": "t", "horizon": horizon, "seeds": [4], "policies": [{"key": key}], "instance": spec}
        (row,) = run_experiment(ExperimentConfig.from_json(doc)).rows
        return row

    def test_top_counts(self):
        for key, spec in [
            ("tsmax", {"kind": "kmeans", "n_arms": 30, "n_clusters": 4, "reward_fn": "sin-product"}),
            ("lintsc", {"kind": "contextual", "n_arms": 9, "n_clusters": 3, "dim": 4, "epsilon": 0.5}),
        ]:
            counts = self._row(key, spec, 100).top_counts
            instance = build_instance(spec, rng_streams(4).instance)
            k = instance.clustering.n_clusters
            assert counts.shape == (k,) and counts.sum() == 100, key
            if key == "tsmax":  # the plays per cluster of the same run
                trace = simulate(instance, make_policy(key, instance), 100, rng_streams(4).simulation)
                assert counts.tolist() == np.bincount(instance.clustering.labels[trace.arms], minlength=k).tolist()

    def test_arms_of_uneven_depth_are_logged_as_played(self):
        # leaves at depths 1 and 2: the trace holds each step's arm, whatever its leaf's depth
        tree = ClusterTree([[1, 2], [], [3, 4], [], []], [-1, 0, -1, 1, 2])
        inst = BanditInstance([0.5, 0.4, 0.6], tree=tree)
        policy = make_policy("hts", inst)
        chosen, select = [], policy.select
        policy.select = lambda t, rng: chosen.append(select(t, rng)) or chosen[-1]
        trace = simulate(inst, policy, 200, rng_streams(5).simulation)
        assert trace.arms.tolist() == chosen
        assert {tree.node_depth(tree.leaf_of_arm(a)) for a in chosen} == {1, 2}

    def test_both_loops_reject_an_arm_outside_the_instance_alike_and_credit_nothing(self):
        inst = _small_clustered_instance()
        ctx = build_instance({"kind": "contextual", "n_arms": 9, "n_clusters": 3, "dim": 4, "epsilon": 0.5}, rng_streams(6).instance)
        contexts = rng_streams(6).context.random((5, 4))
        runs = [
            (make_policy("tsc", inst), inst, lambda p: simulate(inst, p, 5, rng_streams(6).simulation)),
            (make_policy("lintsc", ctx), ctx, lambda p: simulate(ctx, p, 5, rng_streams(6).simulation, contexts=contexts)),
        ]
        for policy, instance, run in runs:
            credited = []
            policy.select = lambda *args, n=instance.n_arms: n  # a faulty policy's arm, one past the last
            policy.update = lambda *args, log=credited: log.append(args)
            with pytest.raises(ValueError, match=f"^unknown arm id {instance.n_arms}$"):
                run(policy)
            assert credited == []  # the first step fails before its update

    @pytest.mark.parametrize("factor", [0.5, 2])
    def test_a_policy_built_for_another_arm_count_is_rejected_before_the_first_draw(self, factor):
        # with fewer arms the policy would never play the instance's last ones, with more it would fail
        # only on drawing an arm the instance lacks
        bern = BanditInstance(np.linspace(0.1, 0.9, 10))
        ctx_spec = {"kind": "contextual", "n_arms": 12, "n_clusters": 3, "dim": 4, "epsilon": 0.5}
        ctx = build_instance(ctx_spec, rng_streams(6).instance)
        other_ctx = build_instance({**ctx_spec, "n_arms": int(12 * factor)}, rng_streams(6).instance)
        runs = [
            (bern, make_policy("ts", BanditInstance(np.full(int(10 * factor), 0.5))), {}),
            (ctx, make_policy("lints", other_ctx), {"contexts": rng_streams(6).context.random((5, 4))}),
        ]
        for instance, policy, kwargs in runs:
            rng = rng_streams(6).simulation
            state = rng.bit_generator.state
            message = f"^the policy is built for {int(instance.n_arms * factor)} arms, the instance has {instance.n_arms}$"
            with pytest.raises(ValueError, match=message):
                simulate(instance, policy, 5, rng, **kwargs)
            assert rng.bit_generator.state == state

    def test_flat_run_has_no_top_counts(self):
        inst = _small_clustered_instance()
        spec = {"kind": "bernoulli", "means": inst.means.tolist()}
        assert self._row("ts", spec, 20).top_counts is None

    def test_array_shape_validation(self):
        with pytest.raises(ValueError):
            SimulationTrace(
                seed=0,
                arms=np.zeros(3, dtype=np.int64),
                rewards=np.zeros(2),
                cum_regret=np.zeros(3),
            )


# ---------------------------------------------------------------------------
# Checks on outside input
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "build, match",
    [
        (lambda: ClusterTree([[1], []], [-1]), "^children and leaf_arms must have equal length$"),
        (lambda: ClusterTree([], []), "^tree must have at least one node$"),
        (lambda: ClusterTree.from_csr([0, 2, 1], [1], [-1, 0]),
         r"^ptr must rise from 0 to len\(kids\) in n_nodes \+ 1 offsets$"),
        (lambda: DisjointClustering([]), "^labels must be a non-empty 1-D sequence$"),
        (lambda: DisjointClustering([[0, 1]]), "^labels must be a non-empty 1-D sequence$"),
        (lambda: DisjointClustering([0, -1]), "^cluster ids must be non-negative$"),
        (lambda: BanditInstance([]), "^instance needs a non-empty 1-D array of arm means$"),
        (lambda: BanditInstance([[0.5, 0.2]]), "^instance needs a non-empty 1-D array of arm means$"),
        (lambda: BanditInstance([0.5, 0.2, 0.1], tree=ClusterTree.star(2)),
         "^tree leaf count does not match arm count$"),
        (lambda: ContextualInstance(np.ones(3), DisjointClustering([0, 0, 1])), r"^theta must be \(n_arms, dim\)$"),
        (lambda: ContextualInstance(np.ones((3, 2)), DisjointClustering([0, 1])),
         "^clustering size does not match arm count$"),
        (lambda: ContextualInstance([[1.0, np.nan]], DisjointClustering([0])), "^theta has non-finite entries$"),
        (lambda: simulate(BanditInstance([0.5]), make_policy("ts", BanditInstance([0.5])), 0, rng_streams(0).simulation),
         "^horizon must be >= 1$"),
    ],
    ids=["tree-unequal-lengths", "tree-empty", "tree-malformed-ptr", "labels-empty", "labels-2d",
         "labels-negative", "means-empty", "means-2d", "tree-arm-count", "theta-1d", "theta-clustering-size",
         "theta-non-finite", "simulate-horizon-0"],
)
def test_malformed_input_fails_with_its_own_message(build, match):
    with pytest.raises(ValueError, match=match):
        build()
