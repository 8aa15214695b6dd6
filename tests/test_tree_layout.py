"""The flat (CSR) cluster-tree layout against the per-node layout it replaced.

``RefClusterTree`` keeps the per-node tree: one child array and one
arms-under array per node, filled by a breadth-first walk over numpy
scalars. ``ref_balanced_tree``, ``ref_truncate_tree``, ``ref_kmeans_tree``
and ``ref_agglomerative_tree`` keep the recursive builders that numbered
nodes in creation order (depth-first preorder). Every tree kind must come
out of ``build_instance`` with the same node ids, children, leaf arms,
parents, depths, arms under each node, root paths and means, and must
leave the instance stream in the same state.

The file also pins that a chain-shaped merge tree of 20 000 leaves builds
without touching the recursion limit, and the memory the 5000-arm trees
and their policies hold, built and after a run of Thompson blocks.
"""
import gc
import sys
import tracemalloc

import numpy as np
import pytest

from clusterbandit.core import ClusterTree, rng_streams
from clusterbandit.harness import preset
from clusterbandit.instances import _merge_tree, build_instance, kmeans, reward_function
from clusterbandit.policies import _GROUP_MIN, make_policy
from clusterbandit.simulate import simulate

SEEDS = range(5)


class RefClusterTree:
    def __init__(self, children, leaf_arms):
        n_nodes = len(children)
        if n_nodes == 0:
            raise ValueError("tree must have at least one node")
        if len(leaf_arms) != n_nodes:
            raise ValueError("children and leaf_arms must have equal length")
        self._children = [np.asarray(kids, dtype=np.int64) for kids in children]
        self._leaf_arms = np.asarray(leaf_arms, dtype=np.int64)

        parent = np.full(n_nodes, -1, dtype=np.int64)
        depth = np.full(n_nodes, -1, dtype=np.int64)
        depth[0] = 0
        order = [0]
        for v in order:
            for c in self._children[v]:
                c = int(c)
                if not (0 <= c < n_nodes) or c == 0 or parent[c] != -1:
                    raise ValueError(f"malformed adjacency at node {v} -> {c}")
                parent[c] = v
                depth[c] = depth[v] + 1
                order.append(c)
        if len(order) != n_nodes:
            raise ValueError("tree has unreachable nodes")
        self._parent = parent
        self._depths = depth

        is_leaf = np.array([kids.size == 0 for kids in self._children])
        if ((self._leaf_arms >= 0) != is_leaf).any():
            raise ValueError("leaf/arm mapping must cover exactly the leaf nodes")
        arms = self._leaf_arms[is_leaf]
        n_arms = arms.size
        if n_arms == 0 or not np.array_equal(np.sort(arms), np.arange(n_arms)):
            raise ValueError("leaf arms must be a bijection onto 0..n_arms-1")

        under = [np.empty(0, dtype=np.int64)] * n_nodes
        for v in reversed(order):
            if is_leaf[v]:
                under[v] = np.asarray([self._leaf_arms[v]], dtype=np.int64)
            else:
                under[v] = np.concatenate([under[int(c)] for c in self._children[v]])
        self._arms_under = under

    @classmethod
    def star(cls, n_arms):
        return cls([range(1, n_arms + 1)] + [()] * n_arms, [-1, *range(n_arms)])

    @classmethod
    def from_clustering(cls, labels):
        labels = np.asarray(labels)
        k = int(labels.max()) + 1
        children = [range(1, k + 1)]
        leaf_arms = [-1] * (k + 1)
        for c in range(k):
            members = np.flatnonzero(labels == c).tolist()
            children.append(range(len(leaf_arms), len(leaf_arms) + len(members)))
            leaf_arms += members
        return cls(children + [()] * labels.size, leaf_arms)

    @property
    def n_nodes(self):
        return len(self._children)

    @property
    def root(self):
        return 0

    def children(self, node):
        return self._children[node]

    def is_leaf(self, node):
        return self._children[node].size == 0

    def arm_of_leaf(self, node):
        return int(self._leaf_arms[node])

    def arms_under(self, node):
        return self._arms_under[node]

    def path_to_root(self, node):
        path = [node]
        while self._parent[path[-1]] >= 0:
            path.append(int(self._parent[path[-1]]))
        return path


class _RefBuilder:
    def __init__(self):
        self.children = []
        self.leaf_arms = []

    def node(self):
        self.children.append([])
        self.leaf_arms.append(-1)
        return len(self.children) - 1

    def leaf(self, arm):
        nid = self.node()
        self.leaf_arms[nid] = int(arm)
        return nid

    def build(self):
        return RefClusterTree(self.children, self.leaf_arms)


def ref_balanced_tree(order):
    tb = _RefBuilder()

    def grow(lo, hi):
        if hi - lo == 1:
            return tb.leaf(order[lo])
        node = tb.node()
        mid = lo + (hi - lo + 1) // 2
        tb.children[node].append(grow(lo, mid))
        tb.children[node].append(grow(mid, hi))
        return node

    grow(0, order.size)
    return tb.build()


def ref_truncate_tree(tree, levels):
    tb = _RefBuilder()

    def clone(node, depth):
        if tree.is_leaf(node):
            return tb.leaf(tree.arm_of_leaf(node))
        nid = tb.node()
        if depth == levels:
            for arm in tree.arms_under(node):
                tb.children[nid].append(tb.leaf(arm))
        else:
            for child in tree.children(node):
                tb.children[nid].append(clone(int(child), depth + 1))
        return nid

    clone(tree.root, 0)
    return tb.build()


def ref_kmeans_tree(n_arms, branching, depth, reward_fn_id, rng):
    fn, dim = reward_function(reward_fn_id)
    features = rng.random((n_arms, dim))
    tb = _RefBuilder()

    def grow(arm_ids, level):
        if arm_ids.size == 1:
            return tb.leaf(arm_ids[0])
        node = tb.node()
        if level == depth:
            for arm in arm_ids:
                tb.children[node].append(tb.leaf(arm))
            return node
        k = min(branching, arm_ids.size)
        labels = kmeans(features[arm_ids], k, rng)
        for c in range(int(labels.max()) + 1):
            block = arm_ids[labels == c]
            if block.size:
                tb.children[node].append(grow(block, level + 1))
        return node

    grow(np.arange(n_arms, dtype=np.int64), 0)
    return fn(features), tb.build()


def ref_agglomerative_tree(features, linkage):
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    n = features.shape[0]
    merges = scipy_linkage(features, method=linkage)
    kids_sci = {n + k: (int(row[0]), int(row[1])) for k, row in enumerate(merges)}
    tb = _RefBuilder()

    def clone(sci):
        if sci < n:
            return tb.leaf(sci)
        node = tb.node()
        left, right = kids_sci[sci]
        tb.children[node].append(clone(left))
        tb.children[node].append(clone(right))
        return node

    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 3 * n + 100))
    try:
        clone(n + len(merges) - 1)
    finally:
        sys.setrecursionlimit(limit)
    return tb.build()


def _ref_sorted_means(n_arms, rng):
    means = rng.uniform(0.1, 0.8, size=n_arms)
    while np.unique(means).size < n_arms:
        means = rng.uniform(0.1, 0.8, size=n_arms)
    return means


def _ref_build(spec, rng):
    """(means, reference tree) of a tree spec, drawn from ``rng`` as the old builders drew."""
    kind = spec["kind"]
    if kind == "sorted_tree":
        means = _ref_sorted_means(spec["n_arms"], rng)
        tree = ref_balanced_tree(np.argsort(means, kind="stable"))
        if spec.get("levels") is not None:
            tree = ref_truncate_tree(tree, spec["levels"])
        return means, tree
    if kind == "kmeans_tree":
        return ref_kmeans_tree(spec["n_arms"], spec["branching"], spec["depth"], spec["reward_fn"], rng)
    fn, dim = reward_function(spec["reward_fn"])
    features = rng.random((spec["n_arms"], dim))
    return fn(features), ref_agglomerative_tree(features, spec.get("linkage", "single"))


def assert_same_tree(tree, ref):
    assert tree.n_nodes == ref.n_nodes
    assert np.array_equal(tree.leaf_arms, ref._leaf_arms)
    assert np.array_equal(tree.parent, ref._parent)
    assert tree.depth == int(ref._depths.max())
    for v in range(ref.n_nodes):
        assert tree.children(v).tolist() == ref.children(v).tolist(), v
        assert tree.arms_under(v).tolist() == ref.arms_under(v).tolist(), v
        assert tree.node_depth(v) == int(ref._depths[v]), v
        assert tree.path_to_root(v) == ref.path_to_root(v), v


TREE_SPECS = {
    "sorted": {"kind": "sorted_tree", "n_arms": 97},
    "sorted-levels-0": {"kind": "sorted_tree", "n_arms": 40, "levels": 0},
    "sorted-levels-2": {"kind": "sorted_tree", "n_arms": 97, "levels": 2},
    "sorted-levels-5": {"kind": "sorted_tree", "n_arms": 64, "levels": 5},
    "kmeans-depth-1": {"kind": "kmeans_tree", "n_arms": 300, "branching": 6, "depth": 1, "reward_fn": "sin-product"},
    "kmeans-depth-2": {"kind": "kmeans_tree", "n_arms": 300, "branching": 5, "depth": 2, "reward_fn": "bump-2d"},
    "kmeans-depth-3": {"kind": "kmeans_tree", "n_arms": 400, "branching": 15, "depth": 3, "reward_fn": "sin-product"},
    "kmeans-one-arm": {"kind": "kmeans_tree", "n_arms": 1, "branching": 2, "depth": 2, "reward_fn": "sin-product"},
    "agglomerative-single": {"kind": "agglomerative", "n_arms": 250, "reward_fn": "gaussian-mix-1d"},
    "agglomerative-complete": {"kind": "agglomerative", "n_arms": 250, "reward_fn": "bump-2d", "linkage": "complete"},
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", sorted(TREE_SPECS))
def test_builders_match_recursive_references(name, seed):
    rng = rng_streams(seed).instance
    instance = build_instance(TREE_SPECS[name], rng)
    ref_rng = rng_streams(seed).instance
    means, ref = _ref_build(TREE_SPECS[name], ref_rng)
    assert np.array_equal(instance.means, means)
    assert_same_tree(instance.tree, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_star_matches_reference(seed):
    n_arms = 1 + 37 * seed
    assert_same_tree(ClusterTree.star(n_arms), RefClusterTree.star(n_arms))


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("spec", [
    {"kind": "kmeans", "n_arms": 500, "n_clusters": 15, "reward_fn": "sin-product"},
    {"kind": "uniform", "n_arms": 60, "n_clusters": 7},
])
def test_from_labels_matches_reference(spec, seed):
    instance = build_instance(spec, rng_streams(seed).instance)
    reference = RefClusterTree.from_clustering(instance.labels)
    assert_same_tree(ClusterTree.from_labels(instance.labels), reference)
    assert_same_tree(instance.tree, reference)


def test_constructor_matches_reference_on_any_child_order():
    # ids out of preorder and children listed out of ascending order
    children = [[4, 1], [], [6, 3, 5], [], [2], [], []]
    leaf_arms = [-1, 2, -1, 0, -1, 3, 1]
    assert_same_tree(ClusterTree(children, leaf_arms), RefClusterTree(children, leaf_arms))
    assert ClusterTree(children, leaf_arms).slot.tolist() == [6, 1, 5, 3, 0, 4, 2]


@pytest.mark.parametrize("left_deep", [True, False])
def test_chain_merge_tree_needs_no_recursion_limit(left_deep):
    # A chain-shaped linkage, as single linkage gives on evenly spread 1-D
    # points: merge k joins the previous merge with leaf k+1. Fed in
    # directly, since scipy's distances on 20 000 points need about 1.6 GB.
    n = 20_000
    merges = np.zeros((n - 1, 4))
    merges[:, 0] = np.r_[0, n + np.arange(n - 2)]
    merges[:, 1] = np.arange(1, n)
    if not left_deep:
        merges[:, :2] = merges[:, 1::-1]
    limit = sys.getrecursionlimit()
    tree = _merge_tree(merges)
    assert sys.getrecursionlimit() == limit
    assert tree.depth == n - 1
    assert sorted(tree.arms_under(0).tolist()) == list(range(n))
    deepest = tree.leaf_of_arm(0)
    assert tree.node_depth(deepest) == n - 1
    assert len(tree.path_to_root(deepest)) == n


def _held_mb(build):
    """MB that ``build()``'s result still holds under tracemalloc."""
    gc.collect()
    tracemalloc.start()
    try:
        held = build()
        gc.collect()
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    del held
    return size / 1e6


def test_tree_instances_and_policies_hold_little_memory():
    specs = {v.name: v.spec for v in preset("hts-uct").variants}
    seed = preset("hts-uct").seeds[0]
    # warm one-time caches (imports, numpy internals) on a small tree first
    small = build_instance({**specs["L3"], "n_arms": 200}, rng_streams(seed).instance)
    make_policy("hts", small)
    make_policy("uct", small)

    def l3():
        instance = build_instance(specs["L3"], rng_streams(seed).instance)
        return instance, make_policy("hts", instance), make_policy("uct", instance)

    l1 = build_instance(specs["L1"], rng_streams(seed).instance)
    # the per-node layout held 6.1 MB and 2.29 MB
    assert _held_mb(l3) < 2.0
    assert _held_mb(lambda: make_policy("tsc", l1)) < 2.29 / 2


@pytest.mark.parametrize("preset_name, variant, key", [("hts-uct", "L3", "hts"), ("kmeans-large", "N1000-K32", "ts")])
def test_thompson_blocks_hold_little_memory_after_a_run(preset_name, variant, key):
    horizon = 3000
    spec = next(v.spec for v in preset(preset_name).variants if v.name == variant)
    seed = preset(preset_name).seeds[0]
    instance = build_instance(spec, rng_streams(seed).instance)
    assert make_policy(key, instance)._blocks == {}  # nothing is drawn ahead at construction

    def run():
        policy = make_policy(key, instance)
        simulate(instance, policy, horizon, rng_streams(seed).simulation)
        return policy

    run()  # warm one-time caches
    # lazy blocks, one per visited node, held +0.12 MB (hts); blocks held +0.26 MB for ts, whose 1000-arm
    # root now draws by groups, whose tables held +0.11 MB; one (n_nodes, 32) array made at construction
    # would hold 2.2 MB on L3
    assert _held_mb(run) - _held_mb(lambda: make_policy(key, instance)) < 0.5

    # blocks sit at visited nodes only, each with at most 32 rows and at most twice its node's visits
    policy = make_policy(key, instance)
    trace = simulate(instance, policy, horizon, rng_streams(seed).simulation)
    if key == "ts":  # the root drew by groups all run long, and so drew nothing ahead
        assert policy._blocks == {} and policy._groups[0].closed >= _GROUP_MIN
        return
    tree = policy.tree
    visits = dict.fromkeys(range(tree.n_nodes), 0)  # each node's visits: the plays of the arms under it
    for arm, plays in zip(*np.unique(trace.arms, return_counts=True)):
        for v in tree.path_to_root(tree.leaf_of_arm(int(arm))):
            visits[v] += int(plays)
    node_of = {int(tree.ptr[v]): v for v in range(tree.n_nodes) if tree.ptr[v] < tree.ptr[v + 1]}
    assert policy._blocks
    for lo, block in policy._blocks.items():
        v = node_of[lo]
        assert len(block.values) <= 32
        assert len(block.values) <= 2 * visits[v]
