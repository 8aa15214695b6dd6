"""Step-for-step oracle for the per-step code of the Thompson, TsMax, UCB and linear policies.

The Thompson references (``RefHts``, ``RefThompsonSampling``,
``RefClusteredThompsonSampling`` and ``RefTsMax``) pick through
``_choose``: ``law.GroupDraws``, the group contract written out plainly and
recomputed from the beliefs at every visit, at a node of at least
``_GROUP_MIN`` children of which at least ``_GROUP_MIN`` have s == 1 or
f == 1; else the argmax of ``_values``: a fresh scalar per child at a node
of fewer than ``_BLOCK_MIN`` children, else ``law.BlockDraws``, the block
contract written out plainly: per node (or per cluster, and a root key),
rows of pre-drawn values over the children's beliefs gathered by index, and
after an update the moved child, as a position in the node's child order.
Whether that law is Thompson sampling's is ``test_law.py``'s question,
against the per-visit kernel; here the kernels must draw exactly what the
contracts draw. Nodes of ``_GROUP_MIN - 1`` and ``_GROUP_MIN`` children,
and (with the threshold lowered) nodes that move from groups to blocks
mid-run and group tables under updates from outside ``select``, are checked
as well.

``RefThompsonSampling`` and ``RefClusteredThompsonSampling`` keep flat and
two-level Thompson sampling as their own kernels: one block over the arms,
or one over the clusters and one per cluster over its members. ``ts`` and
``tsc`` run the tree-descent kernel on a star and on the clustering's
two-level tree, and must reproduce their traces exactly, arm, reward and
regret.

``RefUcb1`` and ``RefClusteredUcb1`` likewise keep flat and two-level UCB1
as their own bodies over arm and cluster counts, with play-once rules that
rescan all counts for the first unplayed arm or cluster. ``ucb1`` and
``ucbc`` run ``uct``'s descent with the global log t on the same two trees
and must reproduce their traces exactly in the same way.

``RefUctGlobalLog`` is ``RefUct`` with the global log t, the reference for
``ucbc`` on its clustering's tree. On trees and clusterings with nodes of
``_BLOCK_MIN - 1``, ``_BLOCK_MIN``, ``_NARROW - 1``, ``_NARROW`` and
``_NARROW + 1`` children and a one-child chain, the descents' per-visit
Thompson draws (below ``_BLOCK_MIN``), blocks, list argmax (narrow nodes)
and array steps (wide nodes) must reproduce these references byte for
byte, UCB ties included.

The other reference policies below keep the straightforward per-step
bodies: tree descent through ``ClusterTree`` accessors and a tie count by
``sum``, and ``RefTsMax``, the arm-order two-level TsMax that recomputes
every cluster's representative at every step, draws the root's block over
the representatives' beliefs and marks cluster c moved on every update in
it. The references' updates take the arm alone, as the policies' do, and
find its cluster or its path in the clustering or the tree. The
table-driven descents, ``tsmax``'s included with the representatives that
``update`` keeps per played cluster, must reproduce their traces exactly,
arm, reward and regret, since they consume the generator in the same order. Updates from outside ``select``
move several children of one node between visits, which drops its block.

``RefLinearBank`` keeps the straightforward ridge-posterior kernel: a
three-operand ``einsum`` over the stacked inverses, ``rng.normal`` and
``np.outer``. The flat-row kernel of the contextual policies must reproduce
its traces exactly, arm, reward and regret.

``RefLinThompson``, ``RefClusteredLinThompson``, ``RefLinUcb`` and
``RefClusteredLinUcb`` keep one ``select``/``update`` per contextual policy
over ``GatherBank``: ``RefLinearBank``'s posteriors in the arm-ordered
layout, one bank per level, scored with the flat-row kernel on a whole bank
or on a cluster's members gathered by index. The contextual policies run one
descent over one bank in ``tree.slot`` order that reads a node's children
as a contiguous slice; they must reproduce the references' traces and end
with bit-equal posteriors, cluster c in row c and arm a in the row of its
leaf's slot.
"""
import functools
import math

import numpy as np
import pytest

from clusterbandit.contextual import RESOLVE_EVERY, _check_context
from clusterbandit.core import BanditInstance, ClusterTree, random_argmax, rng_streams
from clusterbandit.harness import preset
from clusterbandit.instances import build_instance, gen_context
from clusterbandit.policies import (
    _BLOCK_MIN,
    _NARROW,
    ClusteredThompsonSampling,
    ClusteredUcb1,
    HierarchicalThompsonSampling,
    ThompsonSampling,
    TreeUcb,
    TsMax,
    Ucb1,
    make_policy,
)
from clusterbandit import policies
from clusterbandit.simulate import simulate
from law import BlockDraws, GroupDraws

SEEDS = (0, 1, 2)
HORIZON = 2000


def _ref_random_argmax(values, rng):
    best = int(values.argmax())
    tied = values == values[best]
    if int(tied.sum()) > 1:
        ties = np.flatnonzero(tied)
        return int(ties[rng.integers(ties.size)])
    return best


def _ref_path(tree, arm):
    """The root-to-leaf node path of ``arm``, by the tree's accessors."""
    return tree.path_to_root(tree.leaf_of_arm(arm))[::-1]


def _position(items, item):
    return int(np.flatnonzero(np.asarray(items) == item)[0])


def _values(draws, key, s, f, rng):
    """One value per child of beliefs Beta(s, f): fresh scalars below ``_BLOCK_MIN`` children, else a block row."""
    if len(s) < _BLOCK_MIN:
        return np.array([rng.beta(a, b) for a, b in zip(s, f)])
    return draws.row(key, s, f, rng)


def _grouped(s, f):
    """Whether children of beliefs Beta(s, f) draw by groups: at least ``_GROUP_MIN`` of them, and as many
    closed-form (s == 1 or f == 1). The threshold is read at each call, so a test may patch it."""
    least = policies._GROUP_MIN
    return len(s) >= least and np.count_nonzero((s == 1.0) | (f == 1.0)) >= least


def _choose(draws, key, s, f, rng):
    """The position of the child played among children of beliefs Beta(s, f): ``GroupDraws`` where
    ``_grouped``, else the argmax of ``_values``, whose block the group draws leave as it is."""
    if _grouped(s, f):
        return GroupDraws().pick(s, f, rng)
    return _ref_random_argmax(_values(draws, key, s, f, rng), rng)


class RefHts(HierarchicalThompsonSampling):
    """Beliefs by node id, one block per node."""

    def __init__(self, tree):
        super().__init__(tree)
        self._draws = BlockDraws()

    def select(self, t, rng):
        tree = self.tree
        node = tree.root
        while tree.ptr[node] != tree.ptr[node + 1]:
            kids = tree.children(node)
            node = int(kids[_choose(self._draws, node, self._s[kids], self._f[kids], rng)])
        return int(tree.leaf_arms[node])

    def update(self, arm, reward):
        tree = self.tree
        path = _ref_path(tree, arm)
        fail = 1.0 - reward
        for v in path:
            self._s[v] += reward
            self._f[v] += fail
        for v, w in zip(path, path[1:]):
            self._draws.moved(v, _position(tree.children(v), w))


class RefThompsonSampling:
    def __init__(self, n_arms):
        self._s = np.ones(n_arms)
        self._f = np.ones(n_arms)
        self._draws = BlockDraws()

    def select(self, t, rng):
        return _choose(self._draws, "arms", self._s, self._f, rng)

    def update(self, arm, reward):
        self._s[arm] += reward
        self._f[arm] += 1.0 - reward
        self._draws.moved("arms", arm)


class RefClustering:
    """A clustering as the references read it: ``labels[a]`` is arm a's cluster, whose arms are found by a scan."""

    def __init__(self, labels):
        self.labels = np.asarray(labels, dtype=np.int64)
        self.n_arms, self.n_clusters = self.labels.size, int(self.labels.max()) + 1
        self._members = [np.flatnonzero(self.labels == c) for c in range(self.n_clusters)]

    def members(self, cluster):
        return self._members[cluster]

    def label_of(self, arm):
        return int(self.labels[arm])


class RefClusteredThompsonSampling:
    def __init__(self, labels):
        self.clustering = clustering = RefClustering(labels)
        n, k = clustering.n_arms, clustering.n_clusters
        self._s = np.ones(n)
        self._f = np.ones(n)
        self._cs = np.ones(k)
        self._cf = np.ones(k)
        self._draws = BlockDraws()

    def select(self, t, rng):
        cluster = _choose(self._draws, "clusters", self._cs, self._cf, rng)
        members = self.clustering.members(cluster)
        return int(members[_choose(self._draws, cluster, self._s[members], self._f[members], rng)])

    def update(self, arm, reward):
        cluster = self.clustering.label_of(arm)
        self._s[arm] += reward
        self._f[arm] += 1.0 - reward
        self._cs[cluster] += reward
        self._cf[cluster] += 1.0 - reward
        self._draws.moved("clusters", cluster)
        self._draws.moved(cluster, _position(self.clustering.members(cluster), arm))


class RefUct(TreeUcb):
    def _ref_log(self, t, parent_count):
        return math.log(parent_count)

    def select(self, t, rng):
        tree = self.tree
        node = tree.root
        while tree.ptr[node] != tree.ptr[node + 1]:
            kids = tree.children(node)
            counts = self._n[kids]
            fresh = np.flatnonzero(counts == 0)
            if fresh.size:
                node = int(kids[fresh[0]])
            else:
                idx = self._q[kids] + np.sqrt(2.0 * self._ref_log(t, self._n[node]) / counts)
                node = int(kids[_ref_random_argmax(idx, rng)])
        return int(tree.leaf_arms[node])

    def update(self, arm, reward):
        for v in _ref_path(self.tree, arm):
            self._n[v] += 1.0
            self._q[v] += (reward - self._q[v]) / self._n[v]


class RefUctGlobalLog(RefUct):
    """``RefUct`` with the global log t of ``ucb1`` and ``ucbc``."""

    def _ref_log(self, t, parent_count):
        return math.log(t)


class RefTsMax:
    def __init__(self, labels):
        self.clustering = clustering = RefClustering(labels)
        self._s = np.ones(clustering.n_arms)
        self._f = np.ones(clustering.n_arms)
        self._members = [clustering.members(c) for c in range(clustering.n_clusters)]
        self._draws = BlockDraws()

    def cluster_representatives(self):
        emp = self._s / (self._s + self._f)
        reps = np.empty(len(self._members), dtype=np.int64)
        for c, members in enumerate(self._members):
            reps[c] = members[int(np.argmax(emp[members]))]
        return reps

    def select(self, t, rng):
        reps = self.cluster_representatives()
        cluster = _choose(self._draws, "clusters", self._s[reps], self._f[reps], rng)
        members = self._members[cluster]
        return int(members[_choose(self._draws, cluster, self._s[members], self._f[members], rng)])

    def update(self, arm, reward):
        cluster = self.clustering.label_of(arm)
        self._s[arm] += reward
        self._f[arm] += 1.0 - reward
        self._draws.moved("clusters", cluster)  # its representative's belief, or its representative, moved
        self._draws.moved(cluster, _position(self._members[cluster], arm))


def _ref_ucb_index(means, counts, log_term):
    return means + np.sqrt(2.0 * log_term / counts)


class RefUcb1:
    def __init__(self, n_arms):
        self._n = np.zeros(n_arms)
        self._q = np.zeros(n_arms)

    def select(self, t, rng):
        unpulled = np.flatnonzero(self._n == 0)
        if unpulled.size:
            return int(unpulled[0])
        idx = _ref_ucb_index(self._q, self._n, math.log(t))
        return _ref_random_argmax(idx, rng)

    def update(self, a, reward):
        self._n[a] += 1.0
        self._q[a] += (reward - self._q[a]) / self._n[a]


class RefClusteredUcb1:
    def __init__(self, labels):
        self.clustering = clustering = RefClustering(labels)
        n, k = clustering.n_arms, clustering.n_clusters
        self._n = np.zeros(n)
        self._q = np.zeros(n)
        self._cn = np.zeros(k)
        self._cq = np.zeros(k)

    def select(self, t, rng):
        log_t = math.log(t)
        unvisited = np.flatnonzero(self._cn == 0)
        if unvisited.size:
            cluster = int(unvisited[0])
        else:
            cluster = _ref_random_argmax(_ref_ucb_index(self._cq, self._cn, log_t), rng)
        members = self.clustering.members(cluster)
        unpulled = members[self._n[members] == 0]
        if unpulled.size:
            arm = int(unpulled[0])
        else:
            idx = _ref_ucb_index(self._q[members], self._n[members], log_t)
            arm = int(members[_ref_random_argmax(idx, rng)])
        return arm

    def update(self, a, reward):
        cluster = self.clustering.label_of(a)
        self._n[a] += 1.0
        self._q[a] += (reward - self._q[a]) / self._n[a]
        self._cn[cluster] += 1.0
        self._cq[cluster] += (reward - self._cq[cluster]) / self._cn[cluster]


def _variant_spec(preset_name, variant):
    return next(v.spec for v in preset(preset_name).variants if v.name == variant)


SPECS = {
    "hts-uct/L2": _variant_spec("hts-uct", "L2"),
    "hts-uct/L3": _variant_spec("hts-uct", "L3"),
    "sorted-tree-256": {"kind": "sorted_tree", "n_arms": 256},
    "kmeans-large": _variant_spec("kmeans-large", "N1000-K32"),
    "kmeans-small": _variant_spec("kmeans-small", "N100-K10"),
    "strong-dominance": _variant_spec("fig-d-sweep", "d=0.1"),
    "appendix-uniform": _variant_spec("appendix-uniform", "N50-K10"),
    "hts-uct/L1": _variant_spec("hts-uct", "L1"),
}


@functools.lru_cache(maxsize=None)
def _instance(name, seed):
    return build_instance(SPECS[name], rng_streams(seed).instance)


def _tied_instance():
    # Means of exactly 0 and 1 keep the pseudo-counts of many arms equal, so
    # representatives tie inside clusters; labels interleave clusters so that
    # cluster order differs from arm order. Tied arms share their counts, so
    # which of them represents a cluster never shows in a trace: the tie rule
    # itself is checked on the representatives below.
    means = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
    labels = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    return BanditInstance(means, labels=labels)


def _slots_of_arms(policy, arms):
    """The slots of the leaves of ``arms`` in the policy's tree, where its counts sit."""
    return policy.tree.slot[[policy.tree.leaf_of_arm(a) for a in arms]]


def _arms_of_slots(policy, slots):
    return policy.tree.leaf_arms[policy.tree.kids[slots]].tolist()


def _assert_same_trace(instance, policy, reference, seed, horizon=HORIZON):
    got = simulate(instance, policy, horizon, rng_streams(seed).simulation)
    want = simulate(instance, reference, horizon, rng_streams(seed).simulation)
    assert np.array_equal(got.arms, want.arms)
    assert np.array_equal(got.rewards, want.rewards)
    assert np.array_equal(got.cum_regret, want.cum_regret)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["hts-uct/L2", "hts-uct/L3", "sorted-tree-256"])
@pytest.mark.parametrize("policy_cls, ref_cls", [(HierarchicalThompsonSampling, RefHts), (TreeUcb, RefUct)])
def test_tree_descent_matches_reference(name, seed, policy_cls, ref_cls):
    instance = _instance(name, seed)
    _assert_same_trace(instance, policy_cls(instance.tree), ref_cls(instance.tree), seed)


def _crossover_instance():
    """A tree with nodes of ``_BLOCK_MIN - 1``, ``_BLOCK_MIN``, ``_NARROW - 1``, ``_NARROW`` and
    ``_NARROW + 1`` children and a one-child chain; means of mostly 0 and 1 make UCB indices tie."""
    children, leaf_arms = [[]], [-1]

    def node(parent, arm=-1):
        children.append([])
        leaf_arms.append(arm)
        children[parent].append(len(children) - 1)
        return len(children) - 1

    n_arms = 0
    for width in (_BLOCK_MIN - 1, _BLOCK_MIN, _NARROW - 1, _NARROW, _NARROW + 1):
        v = node(0)
        for _ in range(width):
            n_arms += 1
            node(v, n_arms - 1)
    node(node(node(0)), n_arms)  # root -> a -> b -> leaf
    means = [(1.0, 0.0, 0.5, 0.0)[a % 4] for a in range(n_arms + 1)]
    return BanditInstance(means, tree=ClusterTree(children, leaf_arms))


def _crossover_clustering(root_width):
    """Clusters of ``_NARROW - 1``, ``_NARROW``, ``_NARROW + 1`` and one arm, then
    one-arm clusters up to ``root_width`` clusters; labels interleave arm order."""
    sizes = [_NARROW - 1, _NARROW, _NARROW + 1, 1] + [1] * (root_width - 4)
    labels = np.repeat(np.arange(len(sizes)), sizes)
    labels = labels[np.random.default_rng(len(sizes)).permutation(labels.size)]
    means = [(1.0, 0.0, 0.5, 0.0)[a % 4] for a in range(labels.size)]
    return BanditInstance(means, labels=labels)


class _CountingTies:
    """A generator proxy that counts ``integers`` calls: the tie-breaks."""

    def __init__(self, rng):
        self._rng, self.ties = rng, 0

    def __getattr__(self, name):
        return getattr(self._rng, name)

    def integers(self, *args, **kwargs):
        self.ties += 1
        return self._rng.integers(*args, **kwargs)


CROSSOVER = {
    "hts": (lambda inst: HierarchicalThompsonSampling(inst.tree), lambda inst: RefHts(inst.tree)),
    "uct": (lambda inst: TreeUcb(inst.tree), lambda inst: RefUct(inst.tree)),
    "tsc": (lambda inst: ClusteredThompsonSampling(inst.tree), lambda inst: RefHts(inst.tree)),
    "ucbc": (lambda inst: ClusteredUcb1(inst.tree), lambda inst: RefUctGlobalLog(inst.tree)),
    "tsmax": (lambda inst: TsMax(inst.tree), lambda inst: RefTsMax(inst.labels)),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "key, root_width",
    [("hts", None), ("uct", None),
     *((k, w) for k in ("tsc", "ucbc", "tsmax") for w in (4, _BLOCK_MIN, _NARROW + 1))],
)
def test_descents_match_references_across_the_narrow_crossover(key, root_width, seed):
    # both sides of _NARROW at every level, and a one-child chain: the scalar
    # and the array step draw and break ties alike
    instance = _crossover_instance() if root_width is None else _crossover_clustering(root_width)
    make, make_ref = CROSSOVER[key]
    policy, reference = make(instance), make_ref(instance)
    rng, ref_rng = _CountingTies(rng_streams(seed).simulation), _CountingTies(rng_streams(seed).simulation)
    got = simulate(instance, policy, HORIZON, rng)
    want = simulate(instance, reference, HORIZON, ref_rng)
    assert got.arms.tobytes() == want.arms.tobytes()
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.cum_regret.tobytes() == want.cum_regret.tobytes()
    assert rng._rng.bit_generator.state == ref_rng._rng.bit_generator.state
    assert rng.ties == ref_rng.ties
    if key in ("uct", "ucbc"):
        assert rng.ties > 20  # the UCB indices tie, and the tie rule is exercised
        stats = [(policy._n, reference._n), (policy._q, reference._q)]
    elif key == "tsmax":
        stats = []
    else:
        stats = [(policy._s, reference._s), (policy._f, reference._f)]
    for kept, ref in stats:  # the descents keep slot order, the references node order
        assert kept[policy.tree.slot].tobytes() == ref.tobytes()


@pytest.mark.parametrize("seed", SEEDS)
def test_tsmax_matches_reference_on_kmeans_large(seed):
    instance = _instance("kmeans-large", seed)
    _assert_same_trace(instance, TsMax(instance.tree), RefTsMax(instance.labels), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_tsmax_matches_reference_with_tied_representatives(seed):
    instance = _tied_instance()
    _assert_same_trace(instance, TsMax(instance.tree), RefTsMax(instance.labels), seed)


FLAT_AND_TWO_LEVEL = {
    "tsmax": (lambda inst: TsMax(inst.tree), lambda inst: RefTsMax(inst.labels)),
    "ucb1": (lambda inst: Ucb1(inst.n_arms), lambda inst: RefUcb1(inst.n_arms)),
    "ucbc": (lambda inst: ClusteredUcb1(inst.tree), lambda inst: RefClusteredUcb1(inst.labels)),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name", ["kmeans-large", "kmeans-small", "tied", "strong-dominance", "appendix-uniform", "hts-uct/L1"]
)
@pytest.mark.parametrize("key", sorted(FLAT_AND_TWO_LEVEL))
def test_kept_state_matches_rescanning_reference(key, name, seed):
    instance = _tied_instance() if name == "tied" else _instance(name, seed)
    make, make_ref = FLAT_AND_TWO_LEVEL[key]
    _assert_same_trace(instance, make(instance), make_ref(instance), seed)


# the kept state of the UCB and TsMax descents, and the Thompson blocks
EXTERNAL_UPDATES = {
    **FLAT_AND_TWO_LEVEL,
    "ts": (lambda inst: ThompsonSampling(inst.n_arms), lambda inst: RefThompsonSampling(inst.n_arms)),
    "tsc": (lambda inst: ClusteredThompsonSampling(inst.tree),
            lambda inst: RefClusteredThompsonSampling(inst.labels)),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", sorted(EXTERNAL_UPDATES))
def test_kept_state_matches_reference_after_external_updates(key, seed):
    # updates from outside select, in scrambled arm order, before the first
    # select and again between runs
    instance = _instance("kmeans-small", seed)
    make, make_ref = EXTERNAL_UPDATES[key]
    policy, reference = make(instance), make_ref(instance)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        arms = rng.choice(instance.n_arms, size=40, replace=False)
        rewards = rng.integers(0, 2, size=40).astype(float)
        for arm, reward in zip(arms.tolist(), rewards.tolist()):
            policy.update(arm, reward)
            reference.update(arm, reward)
        _assert_same_trace(instance, policy, reference, seed, horizon=300)
    if key == "tsmax":
        assert _arms_of_slots(policy, policy._reps) == reference.cluster_representatives().tolist()


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize(
    "name", ["kmeans-large", "kmeans-small", "strong-dominance", "appendix-uniform", "hts-uct/L1", "tied"]
)
@pytest.mark.parametrize("key", ["ts", "tsc"])
def test_thompson_descent_matches_own_beta_kernels(key, name, seed):
    instance = _tied_instance() if name == "tied" else _instance(name, seed)
    if key == "ts":
        policy, reference = ThompsonSampling(instance.n_arms), RefThompsonSampling(instance.n_arms)
    else:
        policy = ClusteredThompsonSampling(instance.tree)
        reference = RefClusteredThompsonSampling(instance.labels)
    _assert_same_trace(instance, policy, reference, seed)


# key -> (policy, reference) for the group tests; hts on a clustering descends its two-level tree
GROUPED = {
    **{key: EXTERNAL_UPDATES[key] for key in ("ts", "tsc", "tsmax")},
    "hts": (lambda inst: HierarchicalThompsonSampling(inst.tree),
            lambda inst: RefHts(inst.tree)),
}


def _counting_group_visits(policy):
    """Count the policy's visits that draw by groups, in ``policy.group_visits``."""
    pick_group = policy._pick_group
    policy.group_visits = 0

    def counted(*args):
        policy.group_visits += 1
        return pick_group(*args)

    policy._pick_group = counted
    return policy


def _group_crossover_instance(flat):
    """``_GROUP_MIN`` arms alone if ``flat``, else clusters of ``_GROUP_MIN - 1`` and ``_GROUP_MIN`` arms, labels
    interleaved. The arms of the ``_GROUP_MIN`` (every arm if ``flat``) have means of 0 and 1, which keep every
    belief there closed-form (s == 1 or f == 1) all run long; the others have means of 0.2."""
    least = policies._GROUP_MIN
    sizes = [least] if flat else [least - 1, least]
    labels = np.repeat(np.arange(len(sizes)), sizes)
    labels = labels[np.random.default_rng(len(sizes)).permutation(labels.size)]
    means = [(1.0, 0.0, 0.0)[a % 3] if sizes[c] == least else 0.2 for a, c in enumerate(labels)]
    return BanditInstance(means, labels=None if flat else labels)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", sorted(GROUPED))
def test_thompson_descents_match_references_across_the_group_crossover(key, seed):
    # a node of _GROUP_MIN children draws by groups, one of _GROUP_MIN - 1 by blocks
    instance = _group_crossover_instance(flat=key == "ts")
    make, make_ref = GROUPED[key]
    policy, reference = _counting_group_visits(make(instance)), make_ref(instance)
    widths = {int(lo): int(hi - lo) for lo, hi in zip(policy.tree.ptr[:-1], policy.tree.ptr[1:]) if hi > lo}
    assert sorted(widths[lo] for lo in policy._groups) == [policies._GROUP_MIN]
    assert key == "ts" or policies._GROUP_MIN - 1 in widths.values()
    rng, ref_rng = rng_streams(seed).simulation, rng_streams(seed).simulation
    got, want = simulate(instance, policy, HORIZON, rng), simulate(instance, reference, HORIZON, ref_rng)
    assert got.arms.tobytes() == want.arms.tobytes()
    assert got.cum_regret.tobytes() == want.cum_regret.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert policy.group_visits > 50
    # the node of _GROUP_MIN - 1 children drew by blocks
    assert key == "ts" or [widths[lo] for lo in policy._blocks if widths[lo] >= _BLOCK_MIN] == [policies._GROUP_MIN - 1]


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key, name, least", [
    ("ts", "kmeans-small", 40), ("tsc", "kmeans-small", 8), ("tsmax", "kmeans-small", 8), ("hts", "hts-uct/L2", 15),
])
def test_thompson_descents_switch_from_groups_to_blocks_mid_run(key, name, least, seed, monkeypatch):
    # with a lower threshold, nodes start on groups and move to blocks as their beliefs leave closed form
    monkeypatch.setattr(policies, "_GROUP_MIN", least)
    instance = _instance(name, seed)
    make, make_ref = GROUPED[key]
    policy, reference = _counting_group_visits(make(instance)), make_ref(instance)
    _assert_same_trace(instance, policy, reference, seed)
    assert policy.group_visits > 50
    assert any(table.closed < least and lo in policy._blocks for lo, table in policy._groups.items())


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", ["ts", "tsc", "tsmax"])
def test_group_tables_follow_external_updates(key, seed, monkeypatch):
    # updates from outside select, in scrambled arm order, before the first select and between runs
    monkeypatch.setattr(policies, "_GROUP_MIN", 8)
    instance = _instance("kmeans-small", seed)
    make, make_ref = GROUPED[key]
    policy, reference = make(instance), make_ref(instance)
    rng = np.random.default_rng(seed)
    for _ in range(2):
        arms = rng.choice(instance.n_arms, size=40, replace=False)
        rewards = rng.choice([0.0, 0.5, 1.0], size=40)
        for arm, reward in zip(arms.tolist(), rewards.tolist()):
            policy.update(arm, reward)
            reference.update(arm, reward)
        _assert_same_trace(instance, policy, reference, seed, horizon=300)
    for lo, table in policy._groups.items():  # each table files every child at its belief
        hi = lo + len(table.filed)
        assert table.filed == list(zip(policy._s[lo:hi].tolist(), policy._f[lo:hi].tolist()))
        closed = [(s, f) for s, f in table.filed if s == 1.0 or f == 1.0]
        assert table.keys == sorted(set(closed)) and table.closed == len(closed) == sum(map(len, table.members))


def test_tied_representatives_go_to_the_lowest_arm_id():
    instance = _tied_instance()
    policy, reference = TsMax(instance.tree), RefTsMax(instance.labels)

    def retaken():  # the policy's rule over every cluster, as arm ids
        return _arms_of_slots(policy, [policy._best_member(c) for c in range(3)])

    assert retaken() == _arms_of_slots(policy, policy._reps) == [0, 1, 2]
    # cluster 0 = arms 0, 3, 6, 9: arms 3 and 9 tie at the top
    policy._s[_slots_of_arms(policy, [3, 9])] = 3.0
    policy._f[_slots_of_arms(policy, [6])] = 4.0
    reference._s[[3, 9]] = 3.0
    reference._f[6] = 4.0
    assert retaken() == [3, 1, 2]
    assert retaken() == reference.cluster_representatives().tolist()


def test_kept_representatives_follow_falls_and_lower_id_ties():
    instance = _tied_instance()  # cluster 0 = arms 0, 3, 6, 9
    policy, reference = TsMax(instance.tree), RefTsMax(instance.labels)
    policy.select(1, np.random.default_rng(0))  # reads the representatives, moves none
    reference.select(1, np.random.default_rng(0))  # so that both hold the same blocks
    assert _arms_of_slots(policy, policy._reps) == [0, 1, 2]  # the uniform prior: each first leaf

    def play(arm, reward, rep):
        policy.update(arm, reward)
        reference.update(arm, reward)
        want = reference.cluster_representatives()
        assert _arms_of_slots(policy, policy._reps) == want.tolist()
        assert int(want[0]) == rep

    play(3, 1.0, rep=3)  # a higher mean takes over
    play(9, 1.0, rep=3)  # an equal mean with a higher id does not
    play(3, 0.0, rep=9)  # the representative falls: arm 9 is now the best
    play(0, 1.0, rep=0)  # an equal mean with a lower id wins the tie
    play(0, 0.5, rep=9)  # a fractional reward lowers the representative too
    play(6, 0.0, rep=9)  # another member falls: nothing changes
    _assert_same_trace(instance, policy, reference, seed=0, horizon=300)


class RefLinearBank:
    """The ridge posteriors by their textbook arithmetic; it forms x x' itself and ignores the step's ``xx``."""

    def __init__(self, n, dim, v):
        eye = np.eye(dim)
        self.v = float(v)
        self.B = np.tile(eye, (n, 1, 1))
        self.Binv = np.tile(eye, (n, 1, 1))
        self.F = np.zeros((n, dim))
        self.Mu = np.zeros((n, dim))
        self.counts = np.zeros(n, dtype=np.int64)

    def _quad(self, x, lo, hi):
        return np.maximum(np.einsum("nij,i,j->n", self.Binv[lo:hi], x, x), 0.0)

    def sample(self, x, xx, rng, lo, hi):
        return rng.normal(self.Mu[lo:hi] @ x, np.sqrt(self.v * self._quad(x, lo, hi)))

    def ucb(self, x, xx, alpha, lo, hi):
        return self.Mu[lo:hi] @ x + alpha * np.sqrt(self._quad(x, lo, hi))

    def update(self, i, x, xx, reward):
        u = self.Binv[i] @ x
        self.Binv[i] -= np.outer(u, u) / (1.0 + x @ u)
        self.B[i] += np.outer(x, x)
        self.F[i] += reward * x
        self.counts[i] += 1
        if self.counts[i] % RESOLVE_EVERY == 0:
            self.Binv[i] = np.linalg.inv(self.B[i])
            self.Mu[i] = np.linalg.solve(self.B[i], self.F[i])
        else:
            self.Mu[i] = self.Binv[i] @ self.F[i]


CTX_SPECS = {
    "ctx-small": _variant_spec("ctx-small", "k20-n400-eps0.5"),
    "ctx-large-eps05": _variant_spec("ctx-large-eps05", "k30-n900-eps0.5"),
    # two clusters over six arms: the cluster bank passes RESOLVE_EVERY updates
    "two-clusters": {"kind": "contextual", "n_arms": 6, "n_clusters": 2, "dim": 5, "epsilon": 0.5},
}


# case -> (instance spec, context kind): uniform contexts are non-negative, gaussian ones
# put signed entries into x, x x' and the scores the step computes in place
CTX_CASES = {
    **{name: (spec, "uniform") for name, spec in CTX_SPECS.items()},
    **{f"{name}-gaussian": (spec, "gaussian") for name, spec in CTX_SPECS.items()},
}


def _ctx_case(name, seed):
    """The instance and the context sequence of a case at a seed."""
    spec, kind = CTX_CASES[name]
    streams = rng_streams(seed)
    instance = build_instance(spec, streams.instance)
    return instance, gen_context(HORIZON, instance.dim, streams.context, kind)


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CTX_CASES))
@pytest.mark.parametrize("key", ["lints", "lintsc", "linucb", "linucbc"])
def test_linear_bank_matches_reference(name, seed, key):
    instance, contexts = _ctx_case(name, seed)
    policy = make_policy(key, instance)
    reference = make_policy(key, instance)
    bank = reference._bank
    reference._bank = RefLinearBank(bank.n, bank.dim, bank.v)
    got = simulate(instance, policy, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    want = simulate(instance, reference, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    assert np.array_equal(got.arms, want.arms)
    assert np.array_equal(got.rewards, want.rewards)
    assert np.array_equal(got.cum_regret, want.cum_regret)
    # the update is the same arithmetic, so the posteriors end bit-equal too
    for field in ("B", "Binv", "F", "Mu", "counts"):
        assert getattr(policy._bank, field).tobytes() == getattr(reference._bank, field).tobytes(), field
    if name.startswith("two-clusters") and not policy.flat:
        assert policy._bank.counts[:2].max() >= RESOLVE_EVERY  # a cluster row ran the dense re-solve


class GatherBank(RefLinearBank):
    """Ridge posteriors in arm (or cluster) order, scored with the flat-row kernel whole or gathered by index."""

    def _mean(self, x, subset):
        mu = self.Mu if subset is None else self.Mu[subset]
        return np.einsum("nk,k->n", mu, x)

    def _quad(self, x, subset):
        rows = self.Binv.reshape(len(self.Binv), -1)
        if subset is not None:
            rows = rows[subset]
        return np.maximum(np.einsum("nk,k->n", rows, (x[:, None] * x).ravel()), 0.0)

    def sample(self, x, rng, subset=None):
        mean = self._mean(x, subset)
        scale = np.sqrt(self.v * self._quad(x, subset))
        return mean + scale * rng.standard_normal(mean.size)

    def ucb(self, x, alpha, subset=None):
        return self._mean(x, subset) + alpha * np.sqrt(self._quad(x, subset))


class RefLinThompson:
    def __init__(self, n_arms, dim, v=1.0):
        self._arms = GatherBank(n_arms, dim, v)
        self.dim = dim

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        theta = self._arms.sample(x, rng)
        return random_argmax(theta, rng)

    def update(self, arm, x, reward):
        x = _check_context(x, self.dim)
        self._arms.update(arm, x, None, reward)


class RefClusteredLinThompson:
    def __init__(self, labels, dim, v=1.0):
        self.clustering = clustering = RefClustering(labels)
        self.dim = dim
        self._clusters = GatherBank(clustering.n_clusters, dim, v)
        self._arms = GatherBank(clustering.n_arms, dim, v)

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._clusters.sample(x, rng), rng)
        members = self.clustering.members(cluster)
        theta = self._arms.sample(x, rng, subset=members)
        return int(members[random_argmax(theta, rng)])

    def update(self, arm, x, reward):
        x = _check_context(x, self.dim)
        self._clusters.update(self.clustering.label_of(arm), x, None, reward)
        self._arms.update(arm, x, None, reward)


class RefLinUcb:
    def __init__(self, n_arms, dim, alpha=2.0):
        self._arms = GatherBank(n_arms, dim, 1.0)
        self.dim = dim
        self.alpha = float(alpha)

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        return random_argmax(self._arms.ucb(x, self.alpha), rng)

    def update(self, arm, x, reward):
        x = _check_context(x, self.dim)
        self._arms.update(arm, x, None, reward)


class RefClusteredLinUcb:
    def __init__(self, labels, dim, alpha=2.0):
        self.clustering = clustering = RefClustering(labels)
        self.dim = dim
        self.alpha = float(alpha)
        self._clusters = GatherBank(clustering.n_clusters, dim, 1.0)
        self._arms = GatherBank(clustering.n_arms, dim, 1.0)

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._clusters.ucb(x, self.alpha), rng)
        members = self.clustering.members(cluster)
        idx = self._arms.ucb(x, self.alpha, subset=members)
        return int(members[random_argmax(idx, rng)])

    def update(self, arm, x, reward):
        x = _check_context(x, self.dim)
        self._clusters.update(self.clustering.label_of(arm), x, None, reward)
        self._arms.update(arm, x, None, reward)


CTX_REFS = {
    "lints": lambda inst: RefLinThompson(inst.n_arms, inst.dim),
    "lintsc": lambda inst: RefClusteredLinThompson(inst.labels, inst.dim),
    "linucb": lambda inst: RefLinUcb(inst.n_arms, inst.dim),
    "linucbc": lambda inst: RefClusteredLinUcb(inst.labels, inst.dim),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CTX_CASES))
@pytest.mark.parametrize("key", sorted(CTX_REFS))
def test_contextual_policies_match_their_own_references(name, seed, key):
    instance, contexts = _ctx_case(name, seed)
    policy, reference = make_policy(key, instance), CTX_REFS[key](instance)
    got = simulate(instance, policy, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    want = simulate(instance, reference, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    assert got.arms.tobytes() == want.arms.tobytes()
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.cum_regret.tobytes() == want.cum_regret.tobytes()
    tree, bank = policy.tree, policy._bank
    k = 0 if policy.flat else int(tree.ptr[1])  # cluster c is row c
    arm_rows = tree.slot[[tree.leaf_of_arm(a) for a in range(instance.n_arms)]]
    assert hasattr(reference, "_clusters") == (k > 0)
    assert bank.n == k + instance.n_arms
    for field in ("B", "Binv", "F", "Mu", "counts"):
        got_rows = getattr(bank, field)
        assert got_rows[arm_rows].tobytes() == getattr(reference._arms, field).tobytes(), ("arms", field)
        if k:
            assert got_rows[:k].tobytes() == getattr(reference._clusters, field).tobytes(), ("clusters", field)
