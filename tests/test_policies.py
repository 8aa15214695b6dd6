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
    Choice,
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
        assert pol.select(1, np.random.default_rng(0)).arm == 0

    def test_concentrated_beliefs_dominate(self):
        rng = np.random.default_rng(1)
        pol = ThompsonSampling(2)
        leaves = pol.tree.slot[1:]  # arm a is leaf a+1 of the star; counts sit at its slot
        pol._s[leaves] = [1e6, 1.0]
        pol._f[leaves] = [1.0, 1e6]
        picks = sum(pol.select(1, rng).arm == 0 for _ in range(10_000))
        assert picks / 10_000 >= 0.999

    def test_fresh_state_symmetry(self):
        freq = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng).arm, 10_000, 4
        )
        assert np.all(np.abs(freq - 0.25) < 0.02)

    def test_update_moves_only_chosen_arm(self):
        pol = ThompsonSampling(3)
        pol.update(Choice(arm=1, path=(0, 2)), 1.0)
        beliefs = _beliefs(pol)  # arm a is leaf a+1 of the star
        assert beliefs[2] == (2, 1)
        assert beliefs[1] == beliefs[3] == (1, 1)
        assert beliefs[0] == (2, 1)  # the root sums its leaves

    def test_update_needs_the_star_path(self):
        with pytest.raises(ValueError):
            ThompsonSampling(3).update(Choice(arm=1), 1.0)


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
            lambda rng: ClusteredThompsonSampling(clustering).select(1, rng).arm,
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
            picks += pol.select(1, rng).path[1] == 1
        assert picks / 2_000 >= 0.99

    def test_containment(self):
        rng = np.random.default_rng(3)
        pol = _two_cluster_policy()
        for t in range(1, 1001):
            choice = pol.select(t, rng)
            assert choice.path == _path(pol, choice.arm)
            pol.update(choice, float(rng.integers(2)))

    def test_update_touches_exactly_two_beliefs(self):
        pol = _two_cluster_policy()
        pol.update(Choice(arm=2, path=_path(pol, 2)), 1.0)
        beliefs = _beliefs(pol)
        leaf = pol.tree.leaf_of_arm
        assert beliefs[leaf(2)] == (2, 1)
        assert beliefs[2] == (2, 1)  # cluster 1
        assert beliefs[leaf(0)] == beliefs[leaf(1)] == beliefs[leaf(3)] == (1, 1)
        assert beliefs[1] == (1, 1)  # cluster 0
        assert beliefs[0] == (2, 1)  # the root sums the clusters

    def test_update_failure_reward(self):
        pol = _two_cluster_policy()
        pol.update(Choice(arm=0, path=_path(pol, 0)), 0.0)
        assert _beliefs(pol)[pol.tree.leaf_of_arm(0)] == (1, 2)
        assert _beliefs(pol)[1] == (1, 2)

    def test_containment_violation_rejected(self):
        pol = _two_cluster_policy()
        with pytest.raises(ValueError):
            pol.update(Choice(arm=0, path=(0, 2, pol.tree.leaf_of_arm(0))), 1.0)

    def test_count_consistency_replay(self):
        rng = np.random.default_rng(4)
        pol = _two_cluster_policy()
        arm_s = np.ones(4)
        arm_f = np.ones(4)
        cl_s = np.ones(2)
        cl_f = np.ones(2)
        leaves = np.array([pol.tree.leaf_of_arm(a) for a in range(4)])
        for t in range(1, 1001):
            choice = pol.select(t, rng)
            r = float(rng.integers(2))
            pol.update(choice, r)
            arm_s[choice.arm] += r
            arm_f[choice.arm] += 1 - r
            cl_s[choice.path[1] - 1] += r
            cl_f[choice.path[1] - 1] += 1 - r
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
            lambda rng: ClusteredThompsonSampling(clustering).select(1, rng).arm,
            10_000,
            4,
            seed=5,
        )
        freq_ts = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng).arm, 10_000, 4, seed=6
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
        choice = pol.select(1, np.random.default_rng(0))
        assert choice.arm == 0
        assert choice.path == (0,)

    def test_depth_one_matches_flat_ts_law(self):
        star = ClusterTree([[1, 2, 3, 4], [], [], [], []], [-1, 0, 1, 2, 3])
        freq_hts = _selection_freq(
            lambda rng: HierarchicalThompsonSampling(star).select(1, rng).arm,
            10_000,
            4,
            seed=7,
        )
        freq_ts = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng).arm, 10_000, 4, seed=8
        )
        assert np.all(np.abs(freq_hts - freq_ts) < 0.02)

    def test_trained_subtree_dominates(self):
        rng = np.random.default_rng(9)
        entered = 0
        for _ in range(2_000):
            pol = HierarchicalThompsonSampling(_depth2_tree())
            pol._s[pol.tree.slot[1]] = 1e6
            entered += pol.select(1, rng).path[1] == 1
        assert entered / 2_000 >= 0.99

    def test_update_increments_exactly_path_nodes(self):
        pol = HierarchicalThompsonSampling(_depth2_tree())
        pol.update(Choice(arm=0, path=(0, 1, 3)), 1.0)
        beliefs = _beliefs(pol)
        assert beliefs[0] == beliefs[1] == beliefs[3] == (2, 1)
        for v in (2, 4, 5, 6):
            assert beliefs[v] == (1, 1)

    def test_update_failure_on_fresh_state(self):
        pol = HierarchicalThompsonSampling(_depth2_tree())
        pol.update(Choice(arm=3, path=(0, 2, 6)), 0.0)
        beliefs = _beliefs(pol)
        assert beliefs[0] == beliefs[2] == beliefs[6] == (1, 2)
        assert beliefs[1] == (1, 1)

    def test_invalid_path_rejected(self):
        pol = HierarchicalThompsonSampling(_depth2_tree())
        with pytest.raises(ValueError):
            pol.update(Choice(arm=0, path=(0, 2, 3)), 1.0)  # 3 is not a child of 2
        with pytest.raises(ValueError):
            pol.update(Choice(arm=0, path=(1, 3)), 1.0)  # does not start at root
        with pytest.raises(ValueError):
            pol.update(Choice(arm=1, path=(0, 1, 3)), 1.0)  # leaf maps to arm 0

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

    def test_containment_along_path(self):
        rng = np.random.default_rng(10)
        tree = _depth2_tree()
        pol = HierarchicalThompsonSampling(tree)
        for t in range(1, 301):
            choice = pol.select(t, rng)
            for node in choice.path:
                assert choice.arm in tree.arms_under(node)
            pol.update(choice, float(rng.integers(2)))


# ---------------------------------------------------------------------------
# UCB1
# ---------------------------------------------------------------------------

class TestUcb1:
    def test_initialization_order(self):
        pol = Ucb1(3)
        rng = np.random.default_rng(0)
        assert pol.select(1, rng).arm == 0
        pol.update(Choice(arm=0, path=(0, 1)), 1.0)
        assert pol.select(2, rng).arm == 1

    def test_index_evaluation(self):
        pol = Ucb1(2)
        leaves = pol.tree.slot[1:]  # arm a is leaf a+1 of the star; counts sit at its slot
        pol._n[leaves] = [10, 10]
        pol._q[leaves] = [0.9, 0.1]
        # direct index oracle: 0.9 + sqrt(2 ln 100 / 10) beats 0.1 + same bonus
        bonus = math.sqrt(2 * math.log(100) / 10)
        assert 0.9 + bonus > 0.1 + bonus
        assert pol.select(100, np.random.default_rng(0)).arm == 0

    def test_uniform_tie_break(self):
        rng = np.random.default_rng(11)
        pol = Ucb1(2)
        leaves = pol.tree.slot[1:]
        pol._n[leaves] = [5, 5]
        pol._q[leaves] = [0.4, 0.4]
        freq = sum(pol.select(50, rng).arm == 0 for _ in range(10_000)) / 10_000
        assert abs(freq - 0.5) < 0.02

    def test_time_validation(self):
        with pytest.raises(ValueError):
            Ucb1(2).select(0, np.random.default_rng(0))

    def test_update_needs_the_star_path(self):
        pol = Ucb1(3)
        for path in ((), (2,), (0, 1)):  # path-less, leaf only, another arm's leaf
            with pytest.raises(ValueError):
                pol.update(Choice(arm=1, path=path), 1.0)
        assert not pol._n.any()
        pol.update(Choice(arm=1, path=(0, 2)), 1.0)
        assert pol._n[pol.tree.slot[2]] == 1


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
            assert a.arm == b.arm
            r = float(reward_rng.random() < inst.means[a.arm])
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
        choice = pol.select(1000, np.random.default_rng(0))
        assert choice.path[:2] == (0, 1)
        assert choice.arm == 0

    def test_round_robin_cluster_initialization(self):
        clustering = DisjointClustering([0, 0, 1, 1, 2, 2])
        pol = ClusteredUcb1(clustering)
        rng = np.random.default_rng(14)
        seen = []
        for t in range(1, 4):
            choice = pol.select(t, rng)
            seen.append(choice.path[1] - 1)
            pol.update(choice, 0.0)
        assert seen == [0, 1, 2]

    def test_update_needs_the_tree_path(self):
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = ClusteredUcb1(clustering)
        leaf = pol.tree.leaf_of_arm
        # path-less, (cluster,), the other cluster, another arm's leaf
        for path in ((), (1,), (0, 1, leaf(2)), (0, 2, leaf(3))):
            with pytest.raises(ValueError):
                pol.update(Choice(arm=2, path=path), 1.0)
        assert not pol._n.any()
        pol.update(Choice(arm=2, path=(0, 2, leaf(2))), 1.0)
        assert pol._n[pol.tree.slot[2]] == 1

    def test_containment_and_aggregation(self):
        rng = np.random.default_rng(15)
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = ClusteredUcb1(clustering)
        total = {0: 0.0, 1: 0.0}
        count = {0: 0, 1: 0}
        for t in range(1, 501):
            choice = pol.select(t, rng)
            cluster = choice.path[1] - 1
            assert clustering.label_of(choice.arm) == cluster
            r = float(rng.integers(2))
            pol.update(choice, r)
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


def _path_to(pol, arm, cluster):
    return (0, cluster + 1, pol.tree.leaf_of_arm(arm))


class TestTsMax:
    def test_singleton_clusters_match_ts_law(self):
        clustering = DisjointClustering([0, 1, 2, 3])
        freq_max = _selection_freq(
            lambda rng: TsMax(clustering).select(1, rng).arm, 10_000, 4, seed=16
        )
        freq_ts = _selection_freq(
            lambda rng: ThompsonSampling(4).select(1, rng).arm, 10_000, 4, seed=17
        )
        assert np.all(np.abs(freq_max - freq_ts) < 0.02)

    def test_strong_arm_attracts_cluster_choice(self):
        # arm 1 becomes cluster 0's representative by a higher mean, then its
        # belief concentrates near 1: cluster 0 (node 1) must win nearly always.
        # Were cluster 0 represented by its first arm instead, both clusters
        # would sample Beta(1, 1) and each win about half the rounds.
        rng = np.random.default_rng(18)
        clustering = DisjointClustering([0, 0, 1, 1])
        picks = 0
        for _ in range(2_000):
            pol = TsMax(clustering)
            pol.update(Choice(arm=1, path=_path_to(pol, 1, 0)), 1.0)
            pol._s[_leaf_slots(pol, [1])] = 1e6
            picks += pol.select(1, rng).path[1] == 1
        assert picks / 2_000 >= 0.99

    def test_fresh_uniform_cluster_choice(self):
        clustering = DisjointClustering([0, 0, 1, 1, 2, 2])
        freq = _selection_freq(
            lambda rng: TsMax(clustering).select(1, rng).path[1] - 1, 10_000, 3, seed=19
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
        pol.update(Choice(arm=0, path=_path_to(pol, 0, 0)), 1.0)
        beliefs = _beliefs(pol)
        leaf = pol.tree.leaf_of_arm(0)
        assert beliefs[leaf] == (2, 1)
        # the other arms, both clusters and the root keep the prior
        assert all(b == (1, 1) for v, b in beliefs.items() if v != leaf)
        assert len(beliefs) == pol.tree.n_nodes

    @pytest.mark.parametrize("make", [
        lambda c: TsMax(c),
        lambda c: contextual.ClusteredLinThompson(c, 2),
    ])
    def test_update_needs_the_tree_path(self, make):
        pol = make(DisjointClustering([0, 0, 1]))
        update = pol.update if isinstance(pol, TsMax) else (lambda ch, r: pol.update(ch, np.ones(2), r))
        with pytest.raises(ValueError, match="invalid root-to-leaf path"):
            update(Choice(arm=2, path=(1,)), 1.0)  # the old (cluster,) path
        with pytest.raises(ValueError, match="does not map to arm 1"):
            update(Choice(arm=1, path=_path_to(pol, 0, 0)), 1.0)  # the leaf of arm 0
        with pytest.raises(ValueError, match="invalid root-to-leaf path"):
            update(Choice(arm=2, path=(0, 1, pol.tree.leaf_of_arm(2))), 1.0)  # arm 2 is in cluster 1
        update(Choice(arm=2, path=_path_to(pol, 2, 1)), 1.0)

    def test_containment(self):
        rng = np.random.default_rng(20)
        clustering = DisjointClustering([0, 0, 1, 1])
        pol = TsMax(clustering)
        for t in range(1, 301):
            choice = pol.select(t, rng)
            assert choice.path == _path_to(pol, choice.arm, clustering.label_of(choice.arm))
            pol.update(choice, float(rng.integers(2)))


# ---------------------------------------------------------------------------
# UCT
# ---------------------------------------------------------------------------

class TestTreeUcb:
    def test_depth_zero(self):
        pol = TreeUcb(ClusterTree([[]], [0]))
        assert pol.select(1, np.random.default_rng(0)).arm == 0

    def test_child_index_evaluation(self):
        tree = ClusterTree([[1, 2], [], []], [-1, 0, 1])
        pol = TreeUcb(tree)
        pol._n[tree.slot] = [100, 50, 50]  # by node id; the counts sit at tree.slot
        pol._q[tree.slot] = [0.5, 0.8, 0.2]
        # direct oracle: equal bonuses, higher mean wins
        choice = pol.select(101, np.random.default_rng(0))
        assert choice.arm == 0

    def test_unvisited_children_first(self):
        tree = _depth2_tree()
        pol = TreeUcb(tree)
        rng = np.random.default_rng(21)
        first_nodes = []
        for t in range(1, 5):
            choice = pol.select(t, rng)
            first_nodes.append(choice.path[1])
            pol.update(choice, 0.0)
        # both root children explored before any index comparison
        assert set(first_nodes[:2]) == {1, 2}

    def test_path_statistics_propagate(self):
        tree = _depth2_tree()
        pol = TreeUcb(tree)
        pol.update(Choice(arm=0, path=(0, 1, 3)), 1.0)
        pol.update(Choice(arm=1, path=(0, 1, 4)), 0.0)
        n, q = pol._n[tree.slot], pol._q[tree.slot]  # by node id
        assert n[0] == 2 and q[0] == pytest.approx(0.5)
        assert n[1] == 2 and q[1] == pytest.approx(0.5)
        assert n[3] == 1 and q[3] == 1.0
        assert n[2] == 0

    def test_invalid_path_rejected(self):
        pol = TreeUcb(_depth2_tree())
        with pytest.raises(ValueError):
            pol.update(Choice(arm=0, path=(0, 3)), 1.0)


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
PARAMS = {"lints": {"v", "d"}, "lintsc": {"v", "d"}, "linucb": {"alpha", "d"}, "linucbc": {"alpha", "d"}}


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
            policies.check_params(key, {name: value}, dim=3)
        else:
            with pytest.raises(ValueError, match=rf"^policy '{key}' does not accept parameters \['{name}'\]$"):
                policies.check_params(key, {name: value}, dim=3)
    if "d" in accepted:
        policies.check_params(key, {"d": 4})  # no dimension known: nothing to check d against
        with pytest.raises(ValueError, match="^parameter d=4 does not match instance dimension 3$"):
            policies.check_params(key, {"d": 4}, dim=3)
        instance = _one_instance_per_structure()["contextual"]
        assert make_policy(key, instance, {"d": 3}).key == key
        with pytest.raises(ValueError, match="does not match instance dimension 3"):
            make_policy(key, instance, {"d": 4})

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
            pol.update(Choice(arm=0), 1.5)


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
# The step: trust in the selected Choice, copies and pickles
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


def _run(policy, instance, rng, start, steps):
    out = []
    for t in range(start, start + steps):
        choice = policy.select(t, rng)
        reward = 1.0 if rng.random() < instance.means[choice.arm] else 0.0
        policy.update(choice, reward)
        out.append((choice.arm, choice.path, reward))
    return out


@pytest.fixture
def path_checks(monkeypatch):
    calls = []
    check = policies._TreeTables.check_path
    monkeypatch.setattr(policies._TreeTables, "check_path", lambda self, c: calls.append(c) or check(self, c))
    return calls


@pytest.mark.parametrize("key", BERNOULLI_KEYS)
def test_update_checks_every_choice_but_the_selected_one(key, path_checks):
    instance = _instance_for(key)
    policy = make_policy(key, instance)
    rng = np.random.default_rng(3)
    choice = policy.select(1, rng)
    policy.update(choice, 1.0)
    assert path_checks == []
    twin = Choice(arm=choice.arm, path=choice.path)
    assert twin == choice and twin is not choice
    policy.update(twin, 0.0)  # equal, but not the object select returned
    assert path_checks == [twin]
    state = _arrays(policy)
    other = next(a for a in range(instance.n_arms) if a != choice.arm)
    with pytest.raises(ValueError, match="path"):
        policy.update(Choice(arm=other, path=choice.path), 1.0)
    with pytest.raises(ValueError, match="path"):
        policy.update(Choice(arm=choice.arm, path=(0,) + choice.path), 1.0)
    assert _arrays(policy) == state  # a rejected update changes nothing
    policy.select(2, rng)
    with pytest.raises(ValueError, match="outside"):
        policy.update(policy._selected, 2.0)  # the selected Choice still has its reward checked


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
    assert rng.bit_generator.state == state and policy._selected is None


@pytest.mark.parametrize("key", BERNOULLI_KEYS)
def test_a_valid_copy_of_the_choice_updates_like_the_selected_one(key):
    instance = _instance_for(key)
    original, copied = make_policy(key, instance), make_policy(key, instance)
    rng, twin_rng = np.random.default_rng(5), np.random.default_rng(5)
    for t in range(1, 301):
        a, b = original.select(t, rng), copied.select(t, twin_rng)
        reward = float(rng.random() < instance.means[a.arm])
        twin_rng.random()
        original.update(a, reward)
        copied.update(Choice(arm=b.arm, path=b.path), reward)
    assert _arrays(copied) == _arrays(original)
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


def _pickled(obj):
    return pickle.loads(pickle.dumps(obj))


@pytest.mark.parametrize("clone", [copy.deepcopy, _pickled], ids=["deepcopy", "pickle"])
@pytest.mark.parametrize("key", BERNOULLI_KEYS)
def test_a_copy_trusts_only_a_choice_copied_together_with_it(key, clone, path_checks):
    instance = _instance_for(key)
    policy = make_policy(key, instance)
    rng = np.random.default_rng(9)
    _run(policy, instance, rng, 1, 50)
    choice = policy.select(51, rng)
    alone = clone(policy)
    together, together_choice = clone((policy, choice))
    assert together_choice == choice and together_choice is not choice
    together.update(together_choice, 1.0)
    assert path_checks == []  # its own copy of the Choice select returned: trusted
    alone.update(choice, 1.0)
    assert path_checks == [choice]  # the original's Choice: checked
    policy.update(choice, 1.0)
    assert path_checks == [choice]
    assert _arrays(alone) == _arrays(together) == _arrays(policy)


@pytest.mark.parametrize("key", ALL_KEYS)
def test_path_depth_is_the_tree_depth_plus_one_unless_flat(key):
    policy = make_policy(key, _any_instance_for(key))
    flat = key in ("ts", "ucb1", "lints", "linucb")
    assert policy.flat is flat
    assert policy.path_depth == (0 if flat else policy.tree.depth + 1)
