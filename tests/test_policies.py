"""Selection laws, update rules, and structural invariants of MAB policies."""
import copy
import inspect
import math
import pickle

import numpy as np
import pytest

from clusterbandit.core import (
    BanditInstance,
    ClusterTree,
    DisjointClustering,
    rng_streams,
)
from clusterbandit import contextual, policies
from clusterbandit.instances import gen_sorted_binary_tree, sorted_tree_from_means
from clusterbandit.policies import (
    BanditPolicy,
    ClusteredThompsonSampling,
    ClusteredUcb1,
    HierarchicalThompsonSampling,
    ThompsonSampling,
    TreeUcb,
    TsMax,
    Ucb1,
    make_policy,
)
from clusterbandit.simulate import simulate


def _beliefs(pol):
    """Each node's Beta counts (s, f) by node id; the policy keeps them in ``tree.slot`` order."""
    slot = pol.tree.slot
    return dict(enumerate(zip(pol._s[slot].tolist(), pol._f[slot].tolist())))


def _selection_freq(select, n_trials, n_entities, seed=0):
    """Empirical frequency of each entity over fresh-state selections."""
    rng = np.random.default_rng(seed)
    counts = np.zeros(n_entities)
    for _ in range(n_trials):
        counts[select(rng)] += 1
    return counts / n_trials


# ---------------------------------------------------------------------------
# Thompson sampling
# ---------------------------------------------------------------------------

class TestThompsonSampling:
    def test_single_arm(self):
        pol = ThompsonSampling(1)
        assert pol.select(1, np.random.default_rng(0)) == 0

    def test_concentrated_beliefs_dominate(self):
        rng = np.random.default_rng(1)
        pol = ThompsonSampling(2)
        leaves = pol.tree.slot[1:]  # arm a is leaf a+1 of the star; counts sit at its slot
        pol._s[leaves] = [1e6, 1.0]
        pol._f[leaves] = [1.0, 1e6]
        picks = sum(pol.select(1, rng) == 0 for _ in range(10_000))
        assert picks / 10_000 >= 0.999

    def test_fresh_state_symmetry(self):
        freq = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng), 10_000, 4
        )
        assert np.all(np.abs(freq - 0.25) < 0.02)

    def test_update_moves_only_chosen_arm(self):
        pol = ThompsonSampling(3)
        pol.update(1, 1.0)
        beliefs = _beliefs(pol)  # arm a is leaf a+1 of the star
        assert beliefs[2] == (2, 1)
        assert beliefs[1] == beliefs[3] == (1, 1)
        assert beliefs[0] == (2, 1)  # the root sums its leaves


TWO_CLUSTERS = DisjointClustering([0, 0, 1, 1])


def _two_cluster_policy():
    return ClusteredThompsonSampling(TWO_CLUSTERS)


def _path(pol, arm):
    """The root-to-leaf path of ``arm`` in a tsc tree: cluster c is node c+1."""
    return (0, TWO_CLUSTERS.label_of(arm) + 1, pol.tree.leaf_of_arm(arm))


class TestClusteredThompsonSampling:
    def test_singleton_clusters_symmetry(self):
        clustering = DisjointClustering([0, 1, 2, 3])
        freq = _selection_freq(
            lambda rng: ClusteredThompsonSampling(clustering).select(1, rng),
            10_000,
            4,
        )
        assert np.all(np.abs(freq - 0.25) < 0.02)

    def test_trained_cluster_dominates(self):
        rng = np.random.default_rng(2)
        picks = 0
        for _ in range(2_000):
            pol = _two_cluster_policy()
            pol._s[pol.tree.slot[1]] = 1e6  # cluster 0's success count
            picks += TWO_CLUSTERS.label_of(pol.select(1, rng)) == 0
        assert picks / 2_000 >= 0.99

    def test_containment(self):
        # the arm is the whole decision: its path in the tree runs through its own cluster
        rng = np.random.default_rng(3)
        pol = _two_cluster_policy()
        tree = pol.tree
        for t in range(1, 1001):
            arm = pol.select(t, rng)
            assert tuple(reversed(tree.path_to_root(tree.leaf_of_arm(arm)))) == _path(pol, arm)
            pol.update(arm, float(rng.integers(2)))

    def test_update_touches_exactly_two_beliefs(self):
        pol = _two_cluster_policy()
        pol.update(2, 1.0)
        beliefs = _beliefs(pol)
        leaf = pol.tree.leaf_of_arm
        assert beliefs[leaf(2)] == (2, 1)
        assert beliefs[2] == (2, 1)  # cluster 1
        assert beliefs[leaf(0)] == beliefs[leaf(1)] == beliefs[leaf(3)] == (1, 1)
        assert beliefs[1] == (1, 1)  # cluster 0
        assert beliefs[0] == (2, 1)  # the root sums the clusters

    def test_update_failure_reward(self):
        pol = _two_cluster_policy()
        pol.update(0, 0.0)
        assert _beliefs(pol)[pol.tree.leaf_of_arm(0)] == (1, 2)
        assert _beliefs(pol)[1] == (1, 2)

    def test_count_consistency_replay(self):
        rng = np.random.default_rng(4)
        pol = _two_cluster_policy()
        arm_s = np.ones(4)
        arm_f = np.ones(4)
        cl_s = np.ones(2)
        cl_f = np.ones(2)
        leaves = np.array([pol.tree.leaf_of_arm(a) for a in range(4)])
        for t in range(1, 1001):
            arm = pol.select(t, rng)
            r = float(rng.integers(2))
            pol.update(arm, r)
            arm_s[arm] += r
            arm_f[arm] += 1 - r
            cl_s[TWO_CLUSTERS.label_of(arm)] += r
            cl_f[TWO_CLUSTERS.label_of(arm)] += 1 - r
            # cluster pseudo-counts equal prior-adjusted member sums
            s, f = pol._s[pol.tree.slot], pol._f[pol.tree.slot]  # by node id
            for c in range(2):
                members = leaves[TWO_CLUSTERS.members(c)]
                assert s[c + 1] - 1 == pytest.approx((s[members] - 1).sum())
                assert f[c + 1] - 1 == pytest.approx((f[members] - 1).sum())
        assert np.array_equal(s[leaves], arm_s) and np.array_equal(f[leaves], arm_f)
        assert np.array_equal(s[1:3], cl_s) and np.array_equal(f[1:3], cl_f)

    def test_single_cluster_reduces_to_ts_law(self):
        clustering = DisjointClustering([0, 0, 0, 0])
        freq_tsc = _selection_freq(
            lambda rng: ClusteredThompsonSampling(clustering).select(1, rng),
            10_000,
            4,
            seed=5,
        )
        freq_ts = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng), 10_000, 4, seed=6
        )
        assert np.all(np.abs(freq_tsc - freq_ts) < 0.02)


# ---------------------------------------------------------------------------
# Hierarchical Thompson sampling
# ---------------------------------------------------------------------------

def _depth2_tree():
    # root -> 2 internal -> 4 leaves
    return ClusterTree(
        [[1, 2], [3, 4], [5, 6], [], [], [], []],
        [-1, -1, -1, 0, 1, 2, 3],
    )


class TestHierarchicalThompsonSampling:
    def test_depth_zero_tree(self):
        pol = HierarchicalThompsonSampling(ClusterTree([[]], [0]))
        assert pol.select(1, np.random.default_rng(0)) == 0
        pol.update(0, 1.0)  # the root is the arm's leaf: its path is the root alone
        assert _beliefs(pol) == {0: (2, 1)}

    def test_depth_one_matches_flat_ts_law(self):
        star = ClusterTree([[1, 2, 3, 4], [], [], [], []], [-1, 0, 1, 2, 3])
        freq_hts = _selection_freq(
            lambda rng: HierarchicalThompsonSampling(star).select(1, rng),
            10_000,
            4,
            seed=7,
        )
        freq_ts = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng), 10_000, 4, seed=8
        )
        assert np.all(np.abs(freq_hts - freq_ts) < 0.02)

    def test_trained_subtree_dominates(self):
        rng = np.random.default_rng(9)
        entered = 0
        for _ in range(2_000):
            pol = HierarchicalThompsonSampling(_depth2_tree())
            pol._s[pol.tree.slot[1]] = 1e6
            entered += pol.select(1, rng) in pol.tree.arms_under(1)
        assert entered / 2_000 >= 0.99

    def test_update_increments_exactly_path_nodes(self):
        pol = HierarchicalThompsonSampling(_depth2_tree())
        pol.update(0, 1.0)  # arm 0 is leaf 3, under node 1
        beliefs = _beliefs(pol)
        assert beliefs[0] == beliefs[1] == beliefs[3] == (2, 1)
        for v in (2, 4, 5, 6):
            assert beliefs[v] == (1, 1)

    def test_update_failure_on_fresh_state(self):
        pol = HierarchicalThompsonSampling(_depth2_tree())
        pol.update(3, 0.0)  # arm 3 is leaf 6, under node 2
        beliefs = _beliefs(pol)
        assert beliefs[0] == beliefs[2] == beliefs[6] == (1, 2)
        assert beliefs[1] == (1, 1)

    def test_parent_counts_equal_child_sums_after_run(self):
        tree_inst = gen_sorted_binary_tree(16, rng_streams(30).instance)
        pol = HierarchicalThompsonSampling(tree_inst.tree)
        rng = rng_streams(30).simulation
        simulate(tree_inst, pol, 1000, rng)
        tree = tree_inst.tree
        s, f = pol._s[tree.slot], pol._f[tree.slot]  # by node id
        for v in range(tree.n_nodes):
            kids = tree.children(v)
            if kids.size == 0:
                continue
            assert s[v] - 1 == pytest.approx((s[kids] - 1).sum())
            assert f[v] - 1 == pytest.approx((f[kids] - 1).sum())

    def test_update_credits_exactly_the_arms_path(self):
        rng = np.random.default_rng(10)
        tree = _depth2_tree()
        pol = HierarchicalThompsonSampling(tree)
        for t in range(1, 301):
            arm = pol.select(t, rng)
            before = _beliefs(pol)
            pol.update(arm, float(rng.integers(2)))
            moved = {v for v, b in _beliefs(pol).items() if b != before[v]}
            assert moved == set(tree.path_to_root(tree.leaf_of_arm(arm)))
            for node in moved:
                assert arm in tree.arms_under(node)


# ---------------------------------------------------------------------------
# UCB1
# ---------------------------------------------------------------------------

class TestUcb1:
    def test_initialization_order(self):
        pol = Ucb1(3)
        rng = np.random.default_rng(0)
        assert pol.select(1, rng) == 0
        pol.update(0, 1.0)
        assert pol.select(2, rng) == 1

    def test_index_evaluation(self):
        pol = Ucb1(2)
        leaves = pol.tree.slot[1:]  # arm a is leaf a+1 of the star; counts sit at its slot
        pol._n[leaves] = [10, 10]
        pol._q[leaves] = [0.9, 0.1]
        # direct index oracle: 0.9 + sqrt(2 ln 100 / 10) beats 0.1 + same bonus
        bonus = math.sqrt(2 * math.log(100) / 10)
        assert 0.9 + bonus > 0.1 + bonus
        assert pol.select(100, np.random.default_rng(0)) == 0

    def test_uniform_tie_break(self):
        rng = np.random.default_rng(11)
        pol = Ucb1(2)
        leaves = pol.tree.slot[1:]
        pol._n[leaves] = [5, 5]
        pol._q[leaves] = [0.4, 0.4]
        freq = sum(pol.select(50, rng) == 0 for _ in range(10_000)) / 10_000
        assert abs(freq - 0.5) < 0.02

    def test_time_validation(self):
        with pytest.raises(ValueError):
            Ucb1(2).select(0, np.random.default_rng(0))

    def test_update_credits_the_arms_leaf(self):
        pol = Ucb1(3)
        pol.update(1, 1.0)
        assert pol._n[pol.tree.slot[2]] == 1  # arm a is leaf a+1
        assert pol._n.sum() == 2  # the leaf and the root


class TestClusteredUcb1:
    def test_singleton_clusters_reduce_to_ucb1(self):
        inst = BanditInstance(
            [0.8, 0.5, 0.2], clustering=DisjointClustering([0, 1, 2])
        )
        flat = Ucb1(3)
        two = ClusteredUcb1(inst.clustering)
        rng_a, rng_b = np.random.default_rng(12), np.random.default_rng(12)
        reward_rng = np.random.default_rng(13)
        for t in range(1, 201):
            a = flat.select(t, rng_a)
            b = two.select(t, rng_b)
            assert a == b
            r = float(reward_rng.random() < inst.means[a])
            flat.update(a, r)
            two.update(b, r)

    def test_cluster_index_evaluation(self):
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = ClusteredUcb1(clustering)
        slot = pol.tree.slot  # cluster c is node c+1; counts sit at a node's slot
        leaves = slot[[pol.tree.leaf_of_arm(a) for a in range(4)]]
        pol._n[slot[[1, 2]]] = [100, 100]
        pol._q[slot[[1, 2]]] = [0.9, 0.1]
        pol._n[leaves] = [50, 50, 50, 50]
        pol._q[leaves] = [0.9, 0.8, 0.1, 0.2]
        arm = pol.select(1000, np.random.default_rng(0))
        assert clustering.label_of(arm) == 0
        assert arm == 0

    def test_round_robin_cluster_initialization(self):
        clustering = DisjointClustering([0, 0, 1, 1, 2, 2])
        pol = ClusteredUcb1(clustering)
        rng = np.random.default_rng(14)
        seen = []
        for t in range(1, 4):
            arm = pol.select(t, rng)
            seen.append(clustering.label_of(arm))
            pol.update(arm, 0.0)
        assert seen == [0, 1, 2]

    def test_update_credits_the_arms_cluster_and_leaf(self):
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = ClusteredUcb1(clustering)
        pol.update(2, 1.0)
        assert pol._n[pol.tree.slot[2]] == 1  # cluster 1 is node 2
        assert pol._n[pol.tree.slot[pol.tree.leaf_of_arm(2)]] == 1
        assert pol._n.sum() == 3  # the leaf, its cluster and the root

    def test_containment_and_aggregation(self):
        rng = np.random.default_rng(15)
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = ClusteredUcb1(clustering)
        total = {0: 0.0, 1: 0.0}
        count = {0: 0, 1: 0}
        for t in range(1, 501):
            arm = pol.select(t, rng)
            cluster = clustering.label_of(arm)
            r = float(rng.integers(2))
            pol.update(arm, r)
            total[cluster] += r
            count[cluster] += 1
        for c in (0, 1):
            if count[c]:
                assert pol._q[pol.tree.slot[c + 1]] == pytest.approx(total[c] / count[c])
                assert pol._n[pol.tree.slot[c + 1]] == count[c]


# ---------------------------------------------------------------------------
# TSMax
# ---------------------------------------------------------------------------

def _leaf_slots(pol, arms):
    """Slots of the leaves of ``arms`` in ``pol.tree``: where their counts sit."""
    return pol.tree.slot[[pol.tree.leaf_of_arm(a) for a in arms]]


class TestTsMax:
    def test_singleton_clusters_match_ts_law(self):
        clustering = DisjointClustering([0, 1, 2, 3])
        freq_max = _selection_freq(
            lambda rng: TsMax(clustering).select(1, rng), 10_000, 4, seed=16
        )
        freq_ts = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng), 10_000, 4, seed=17
        )
        assert np.all(np.abs(freq_max - freq_ts) < 0.02)

    def test_strong_arm_attracts_cluster_choice(self):
        # arm 1 becomes cluster 0's representative by a higher mean, then 1000
        # successes concentrate its belief near 1: cluster 0 (node 1) must win
        # nearly always. Were cluster 0 represented by its first arm instead,
        # both clusters would sample Beta(1, 1) and each win about half the rounds.
        rng = np.random.default_rng(18)
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = TsMax(clustering)
        for _ in range(1_000):
            pol.update(1, 1.0)
        # every node has fewer than _BLOCK_MIN children, so a select draws afresh and keeps no state
        picks = sum(clustering.label_of(pol.select(1, rng)) == 0 for _ in range(2_000))
        assert picks / 2_000 >= 0.99

    def test_fresh_uniform_cluster_choice(self):
        clustering = DisjointClustering([0, 0, 1, 1, 2, 2])
        freq = _selection_freq(
            lambda rng: clustering.label_of(TsMax(clustering).select(1, rng)), 10_000, 3, seed=19
        )
        assert np.all(np.abs(freq - 1 / 3) < 0.02)

    def test_representative_is_best_empirical_mean_lowest_index(self):
        clustering = DisjointClustering([0, 0, 0, 1])
        pol = TsMax(clustering)
        leaves = _leaf_slots(pol, range(4))
        pol._s[leaves] = [3, 3, 9, 1]
        pol._f[leaves] = [1, 1, 3, 1]  # arms 0,1 tie at 0.75; arm 2 also at 0.75

        def rep_arm(cluster):
            return pol.tree.leaf_arms[pol.tree.kids[pol._best_member(cluster)]]

        assert rep_arm(0) == 0  # lowest index among the tied maxima
        pol._s[leaves[1]] = 9
        pol._f[leaves[1]] = 1  # arm 1 now strictly best at 0.9
        assert rep_arm(0) == 1

    def test_update_is_arm_only(self):
        clustering = DisjointClustering([0, 0, 1])
        pol = TsMax(clustering)
        pol.update(0, 1.0)
        beliefs = _beliefs(pol)
        leaf = pol.tree.leaf_of_arm(0)
        assert beliefs[leaf] == (2, 1)
        # arm 0 stays cluster 0's representative, whose belief cluster 0 (node 1) copies
        assert beliefs[1] == (2, 1)
        # the other arms, the other cluster and the root keep the prior
        assert all(b == (1, 1) for v, b in beliefs.items() if v not in (leaf, 1))
        assert len(beliefs) == pol.tree.n_nodes

    def test_containment(self):
        # exactly one leaf moves, the played arm's, and it sits under the arm's own cluster;
        # besides it only that cluster's node may move, to its representative's belief
        rng = np.random.default_rng(20)
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = TsMax(clustering)
        tree = pol.tree
        for t in range(1, 301):
            arm = pol.select(t, rng)
            leaf = tree.leaf_of_arm(arm)
            cluster = clustering.label_of(arm) + 1
            assert tree.parent[leaf] == cluster
            before = _beliefs(pol)
            pol.update(arm, float(rng.integers(2)))
            after = _beliefs(pol)
            assert {v for v, b in after.items() if b != before[v]} - {cluster} == {leaf}
            assert after[cluster] == after[tree.kids[pol._best_member(cluster - 1)]]

    @pytest.mark.parametrize("n_clusters", [3, 8])
    def test_each_cluster_holds_its_best_members_belief_and_the_root_the_prior(self, n_clusters):
        # a root of fewer than _BLOCK_MIN clusters draws one scalar per cluster, a wider one reads blocks:
        # either way it draws from the clusters' own slots, which must follow their representatives
        rng = np.random.default_rng(22)
        labels = rng.permutation(np.arange(40) % n_clusters)
        instance = BanditInstance(rng.uniform(0.1, 0.9, 40), clustering=DisjointClustering(labels))
        pol = make_policy("tsmax", instance)
        tree = pol.tree
        for t in range(1, 401):
            arm = pol.select(t, rng)
            pol.update(arm, float(rng.random() < instance.means[arm]))
            beliefs = _beliefs(pol)
            for c in range(n_clusters):
                assert beliefs[c + 1] == beliefs[tree.kids[pol._best_member(c)]], (t, c)
            assert beliefs[0] == (1, 1)


# ---------------------------------------------------------------------------
# UCT
# ---------------------------------------------------------------------------

class TestTreeUcb:
    def test_depth_zero(self):
        pol = TreeUcb(ClusterTree([[]], [0]))
        assert pol.select(1, np.random.default_rng(0)) == 0

    def test_child_index_evaluation(self):
        tree = ClusterTree([[1, 2], [], []], [-1, 0, 1])
        pol = TreeUcb(tree)
        pol._n[tree.slot] = [100, 50, 50]  # by node id; the counts sit at tree.slot
        pol._q[tree.slot] = [0.5, 0.8, 0.2]
        # direct oracle: equal bonuses, higher mean wins
        assert pol.select(101, np.random.default_rng(0)) == 0

    def test_unvisited_children_first(self):
        tree = _depth2_tree()
        pol = TreeUcb(tree)
        rng = np.random.default_rng(21)
        first_nodes = []
        for t in range(1, 5):
            arm = pol.select(t, rng)
            first_nodes.append(tree.path_to_root(tree.leaf_of_arm(arm))[-2])  # the root child above it
            pol.update(arm, 0.0)
        # both root children explored before any index comparison
        assert set(first_nodes[:2]) == {1, 2}

    def test_path_statistics_propagate(self):
        tree = _depth2_tree()
        pol = TreeUcb(tree)
        pol.update(0, 1.0)  # leaf 3
        pol.update(1, 0.0)  # leaf 4
        n, q = pol._n[tree.slot], pol._q[tree.slot]  # by node id
        assert n[0] == 2 and q[0] == pytest.approx(0.5)
        assert n[1] == 2 and q[1] == pytest.approx(0.5)
        assert n[3] == 1 and q[3] == 1.0
        assert n[2] == 0


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

CONTEXTUAL_KEYS = ("lints", "lintsc", "linucb", "linucbc")
BERNOULLI_KEYS = ("hts", "ts", "tsc", "tsmax", "ucb1", "ucbc", "uct")
ALL_KEYS = sorted(BERNOULLI_KEYS + CONTEXTUAL_KEYS)
NEEDS = {"ts": "bernoulli", "ucb1": "bernoulli", "tsc": "clustering", "tsmax": "clustering", "ucbc": "clustering",
         "hts": "tree", "uct": "tree", **dict.fromkeys(CONTEXTUAL_KEYS, "contextual")}
ACCEPTED = {"bernoulli": {"flat", "clustering", "tree"}, "clustering": {"clustering"}, "tree": {"tree"},
            "contextual": {"contextual"}}
PARAMS = {"lints": {"v"}, "lintsc": {"v"}, "linucb": {"alpha"}, "linucbc": {"alpha"}}


def _one_instance_per_structure():
    """Four arms as each structure ``instances.spec_structure`` names; the contextual one has dimension 3."""
    means = [0.5, 0.4, 0.3, 0.2]
    clustering = DisjointClustering([0, 0, 1, 1])
    return {
        "flat": BanditInstance(means),
        "clustering": BanditInstance(means, clustering=clustering),
        "tree": sorted_tree_from_means(means),
        "contextual": contextual.ContextualInstance(np.ones((4, 3)), clustering),
    }


def test_the_registry_is_every_key_with_its_class():
    assert sorted(policies.POLICY_KEYS) == ALL_KEYS
    for key, cls in policies.POLICY_KEYS.items():
        assert cls.key == key and vars(cls)["key"] == key


@pytest.mark.parametrize("key", ALL_KEYS)
def test_make_policy_and_check_params_serve_every_key(key):
    cls = policies.POLICY_KEYS[key]
    assert cls.needs == NEEDS[key]
    for structure, instance in _one_instance_per_structure().items():
        assert instance.structure == structure
        if structure in ACCEPTED[NEEDS[key]]:
            policy = make_policy(key, instance)
            assert policy.key == key and type(policy) is cls
        else:  # the text the experiment config reports for a variant of that structure
            with pytest.raises(ValueError, match=f"^policy '{key}' needs a {NEEDS[key]} instance, got a {structure} instance$"):
                make_policy(key, instance)
    accepted = PARAMS.get(key, set())
    assert set(cls.params) == accepted
    for name, value in (("v", 0.5), ("alpha", 1.0), ("d", 3), ("gamma", 1.0)):
        if name in accepted:
            policies.check_params(key, {name: value})
        else:  # no policy takes d: the dimension comes from the instance
            with pytest.raises(ValueError, match=rf"^policy '{key}' does not accept parameters \['{name}'\]$"):
                policies.check_params(key, {name: value})
    if NEEDS[key] == "contextual":  # not even the instance's own dimension
        with pytest.raises(ValueError, match=rf"^policy '{key}' does not accept parameters \['d'\]$"):
            make_policy(key, _one_instance_per_structure()["contextual"], {"d": 3})

def test_check_params_returns_each_parameter_as_typed_reads_it():
    # make_policy passes these on, so a parameter's type is read from its class's params alone
    for key, given, read in (("lints", {"v": 1}, {"v": 1.0}), ("linucbc", {"alpha": np.float32(0.5)}, {"alpha": 0.5}),
                             ("ts", None, {}), ("ucb1", {}, {})):
        assert policies.check_params(key, given) == read
        assert all(type(value) is float for value in policies.check_params(key, given).values())

class TestMakePolicy:
    def test_all_keys(self):
        flat = BanditInstance([0.5, 0.4])
        clustered = BanditInstance(
            [0.5, 0.4], clustering=DisjointClustering([0, 1])
        )
        treed = sorted_tree_from_means([0.5, 0.4])
        assert make_policy("ts", flat).key == "ts"
        assert make_policy("ucb1", flat).key == "ucb1"
        assert make_policy("tsc", clustered).key == "tsc"
        assert make_policy("ucbc", clustered).key == "ucbc"
        assert make_policy("tsmax", clustered).key == "tsmax"
        assert make_policy("hts", treed).key == "hts"
        assert make_policy("uct", treed).key == "uct"

    def test_unknown_key(self):
        with pytest.raises(ValueError, match="unknown policy key"):
            make_policy("bogus", BanditInstance([0.5]))

    def test_structure_requirements(self):
        flat = BanditInstance([0.5, 0.4])
        with pytest.raises(ValueError, match="clustering"):
            make_policy("tsc", flat)
        with pytest.raises(ValueError, match="tree"):
            make_policy("hts", flat)

    def test_rejects_parameters(self):
        with pytest.raises(ValueError, match="parameters"):
            make_policy("ts", BanditInstance([0.5]), {"gamma": 1})

    def test_reward_validation(self):
        pol = make_policy("ts", BanditInstance([0.5]))
        with pytest.raises(ValueError):
            pol.update(0, 1.5)


# ---------------------------------------------------------------------------
# Tracer naming
# ---------------------------------------------------------------------------

@pytest.mark.parametrize(
    "module, base", [(policies, BanditPolicy), (contextual, contextual.ContextualPolicy)]
)
def test_policy_classes_with_own_select_or_update_name_their_key(module, base):
    # per-policy timings are named by the ``key`` of the class whose body
    # holds ``select``/``update``; a body without one reports no metric
    classes = [
        cls for cls in vars(module).values()
        if inspect.isclass(cls) and issubclass(cls, base) and cls.__module__ == module.__name__
    ]
    assert len(classes) >= 5
    for cls in classes:
        body = vars(cls)
        if "select" in body or "update" in body:
            assert isinstance(body.get("key"), str), cls.__name__


# ---------------------------------------------------------------------------
# The step: the arm check, copies and pickles
# ---------------------------------------------------------------------------

def _instance_for(key):
    """40 arms, as a binary tree for ``hts``/``uct`` and in 6 clusters for the others."""
    means = np.random.default_rng(11).random(40)
    if key in ("hts", "uct"):
        return sorted_tree_from_means(means)
    return BanditInstance(means, clustering=DisjointClustering(np.arange(40) % 6))


def _any_instance_for(key):
    """``_instance_for(key)``, or 40 arms in 6 clusters with 3-dimensional coefficients for a contextual key."""
    if key in CONTEXTUAL_KEYS:
        theta = np.random.default_rng(12).standard_normal((40, 3))
        return contextual.ContextualInstance(theta, DisjointClustering(np.arange(40) % 6))
    return _instance_for(key)


def _arrays(policy):
    return {k: v.tobytes() for k, v in vars(policy).items() if isinstance(v, np.ndarray)}


def _state(policy):
    """The bytes of every statistic: the policy's arrays, and its bank's for a contextual policy."""
    bank = vars(policy).get("_bank")
    return _arrays(policy), {} if bank is None else _arrays(bank)


def _run(policy, instance, rng, start, steps):
    out = []
    for t in range(start, start + steps):
        arm = policy.select(t, rng)
        reward = 1.0 if rng.random() < instance.means[arm] else 0.0
        policy.update(arm, reward)
        out.append((arm, reward))
    return out


@pytest.mark.parametrize("key", ALL_KEYS)
def test_update_rejects_an_arm_outside_the_tree_and_moves_nothing(key):
    # -1 would otherwise index the last leaf, and n_arms past the leaves
    instance = _any_instance_for(key)
    policy = make_policy(key, instance)
    x = (np.ones(instance.dim),) if policy.needs == "contextual" else ()  # the context a contextual update takes
    rng = np.random.default_rng(3)
    arm = policy.select(1, *x, rng)
    policy.update(arm, *x, 1.0)
    state = _state(policy)
    for bad in (-1, instance.n_arms):
        with pytest.raises(ValueError, match=f"^unknown arm id {bad}$"):
            policy.update(bad, *x, 1.0)
    bad_reward, message = (float("nan"), "non-finite reward") if x else (2.0, "outside")
    with pytest.raises(ValueError, match=message):
        policy.update(arm, *x, bad_reward)  # a played arm still has its reward checked
    assert _state(policy) == state  # a rejected update changes nothing


@pytest.mark.parametrize("key", ALL_KEYS)
def test_select_rejects_a_time_step_below_one(key):
    instance = _any_instance_for(key)
    policy = make_policy(key, instance)
    x = (np.ones(instance.dim),) if policy.needs == "contextual" else ()  # the context a contextual select takes
    rng = np.random.default_rng(4)
    state = rng.bit_generator.state
    for t in (0, -1, -5):
        with pytest.raises(ValueError, match=f"time step must be >= 1, got {t}"):
            policy.select(t, *x, rng)
    assert rng.bit_generator.state == state


@pytest.mark.parametrize("key", ALL_KEYS)
def test_an_equal_arm_of_another_int_type_updates_like_the_selected_one(key):
    # a replay feeds back ``trace.arms[i]``, a numpy integer, where select returned an int
    instance = _any_instance_for(key)
    original, replayed = make_policy(key, instance), make_policy(key, instance)
    rng, twin_rng, context_rng = np.random.default_rng(5), np.random.default_rng(5), np.random.default_rng(6)
    for t in range(1, 301):
        x = (context_rng.standard_normal(instance.dim),) if original.needs == "contextual" else ()
        a, b = original.select(t, *x, rng), replayed.select(t, *x, twin_rng)
        assert type(a) is int and a == b
        reward = rng.random() if x else float(rng.random() < instance.means[a])
        twin_rng.random()
        original.update(a, *x, reward)
        replayed.update(np.int64(b), *x, reward)
    assert _state(replayed) == _state(original)
    assert rng.bit_generator.state == twin_rng.bit_generator.state


@pytest.mark.parametrize("key", BERNOULLI_KEYS)
def test_deep_copies_and_pickles_continue_byte_identically(key):
    instance = _instance_for(key)
    policy = make_policy(key, instance)
    rng = np.random.default_rng(8)
    _run(policy, instance, rng, 1, 500)
    before = _arrays(policy)
    clones = [copy.deepcopy(policy), pickle.loads(pickle.dumps(policy))]
    rngs = [copy.deepcopy(rng) for _ in clones]
    traces = []
    for clone, clone_rng in zip(clones, rngs):
        traces.append(_run(clone, instance, clone_rng, 501, 500))
        assert _arrays(policy) == before  # the copy writes its own arrays only
    want = _run(policy, instance, rng, 501, 500)
    for clone, trace in zip(clones, traces):
        assert trace == want
        assert _arrays(clone) == _arrays(policy)


# the instance attribute each key's class is built from, and the tree it makes of it
ARGUMENT = {**dict.fromkeys(("ts", "ucb1", "lints", "linucb"), "n_arms"), "hts": "tree", "uct": "tree",
            **dict.fromkeys(("tsc", "tsmax", "ucbc", "lintsc", "linucbc"), "clustering")}
TREE_OF = {"n_arms": ClusterTree.star, "tree": lambda tree: tree, "clustering": ClusterTree.from_clustering}


@pytest.mark.parametrize("key", ALL_KEYS)
def test_a_class_built_from_its_argument_descends_the_tree_make_policy_gives_it(key):
    instance = _any_instance_for(key)
    arms = getattr(instance, ARGUMENT[key])
    args = (arms, instance.dim) if key in CONTEXTUAL_KEYS else (arms,)
    policy, made = policies.POLICY_KEYS[key](*args), make_policy(key, instance)
    assert policy.tree == made.tree == TREE_OF[ARGUMENT[key]](arms)
    assert _state(policy) == _state(made)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_flat_policies_descend_the_star(key):
    instance = _any_instance_for(key)
    policy = make_policy(key, instance)
    flat = key in ("ts", "ucb1", "lints", "linucb")
    assert policy.flat is flat
    assert (policy.tree == ClusterTree.star(instance.n_arms)) is flat
