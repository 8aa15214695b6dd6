"""Step-for-step oracle for the per-step code of the Thompson, TsMax, UCB and linear policies.

``RefThompsonSampling`` and ``RefClusteredThompsonSampling`` keep flat and
two-level Thompson sampling as their own Beta kernels: one draw per arm, or
one per cluster and then one per member of the chosen cluster. ``ts`` and
``tsc`` run the tree-descent kernel on a star and on the clustering's
two-level tree, and must reproduce their traces exactly, arm, reward and
regret; a ``tsc`` path ``(0, c+1, leaf)`` must name the reference's cluster c.

The reference policies below keep the straightforward per-step bodies: tree
descent through ``ClusterTree`` accessors, TsMax representatives recomputed
over every cluster at every step, UCB play-once rules that rescan all counts
for the first unplayed arm, and a tie count by ``sum``. The table-driven
descent, the representatives that ``update`` keeps per played cluster and
the first-unplayed pointers must reproduce their traces exactly, arm, path
and regret, since they consume the generator in the same order.

``RefLinearBank`` keeps the straightforward ridge-posterior kernel: a
three-operand ``einsum`` over the stacked inverses, ``rng.normal`` and
``np.outer``. The flat-row kernel of the contextual policies must reproduce
its traces exactly, arm, reward and regret.

``RefLinThompson``, ``RefClusteredLinThompson``, ``RefLinUcb`` and
``RefClusteredLinUcb`` keep one ``select``/``update`` per contextual policy.
``lints``/``lintsc`` hold the only flat and two-level bodies, and
``linucb``/``linucbc`` only change how a bank scores; they must reproduce
the references' traces and end with bit-equal banks.
"""
import functools
import math

import numpy as np
import pytest

from clusterbandit.contextual import RESOLVE_EVERY, _check_context, _LinearBank, make_contextual_policy
from clusterbandit.core import BanditInstance, DisjointClustering, random_argmax, rng_streams
from clusterbandit.harness import preset
from clusterbandit.instances import build_instance, gen_context
from clusterbandit.policies import (
    Choice,
    ClusteredThompsonSampling,
    ClusteredUcb1,
    HierarchicalThompsonSampling,
    ThompsonSampling,
    TreeUcb,
    TsMax,
    Ucb1,
)
from clusterbandit.simulate import simulate, simulate_contextual

SEEDS = (0, 1, 2)
HORIZON = 2000


def _ref_random_argmax(values, rng):
    best = int(values.argmax())
    tied = values == values[best]
    if int(tied.sum()) > 1:
        ties = np.flatnonzero(tied)
        return int(ties[rng.integers(ties.size)])
    return best


def _ref_check_path(tree, path):
    if not path or path[0] != tree.root or not tree.is_leaf(path[-1]):
        raise ValueError(f"invalid root-to-leaf path {path}")
    for v, w in zip(path, path[1:]):
        if int(tree.parent[w]) != v:
            raise ValueError(f"invalid root-to-leaf path {path}")


class RefHts(HierarchicalThompsonSampling):
    def select(self, t, rng):
        tree = self.tree
        node = tree.root
        path = [node]
        while not tree.is_leaf(node):
            kids = tree.children(node)
            theta = rng.beta(self._s[kids], self._f[kids])
            node = int(kids[_ref_random_argmax(theta, rng)])
            path.append(node)
        return Choice(arm=tree.arm_of_leaf(node), path=tuple(path))

    def update(self, choice, reward):
        tree = self.tree
        path = choice.path
        _ref_check_path(tree, path)
        if tree.arm_of_leaf(path[-1]) != choice.arm:
            raise ValueError(f"path leaf does not map to arm {choice.arm}")
        fail = 1.0 - reward
        for v in path:
            self._s[v] += reward
            self._f[v] += fail


class RefThompsonSampling:
    path_depth = 0

    def __init__(self, n_arms):
        self._s = np.ones(n_arms)
        self._f = np.ones(n_arms)

    def select(self, t, rng):
        theta = rng.beta(self._s, self._f)
        return Choice(arm=_ref_random_argmax(theta, rng))

    def update(self, choice, reward):
        self._s[choice.arm] += reward
        self._f[choice.arm] += 1.0 - reward


class RefClusteredThompsonSampling:
    path_depth = 1

    def __init__(self, clustering):
        self.clustering = clustering
        n, k = clustering.n_arms, clustering.n_clusters
        self._s = np.ones(n)
        self._f = np.ones(n)
        self._cs = np.ones(k)
        self._cf = np.ones(k)

    def select(self, t, rng):
        theta_c = rng.beta(self._cs, self._cf)
        cluster = _ref_random_argmax(theta_c, rng)
        members = self.clustering.members(cluster)
        theta_a = rng.beta(self._s[members], self._f[members])
        arm = int(members[_ref_random_argmax(theta_a, rng)])
        return Choice(arm=arm, path=(cluster,))

    def update(self, choice, reward):
        (cluster,) = choice.path
        if self.clustering.label_of(choice.arm) != cluster:
            raise ValueError(f"arm {choice.arm} is not in cluster {cluster}")
        self._s[choice.arm] += reward
        self._f[choice.arm] += 1.0 - reward
        self._cs[cluster] += reward
        self._cf[cluster] += 1.0 - reward


class RefUct(TreeUcb):
    def select(self, t, rng):
        tree = self.tree
        node = tree.root
        path = [node]
        while not tree.is_leaf(node):
            kids = tree.children(node)
            counts = self._n[kids]
            fresh = np.flatnonzero(counts == 0)
            if fresh.size:
                node = int(kids[fresh[0]])
            else:
                idx = self._q[kids] + np.sqrt(2.0 * math.log(self._n[node]) / counts)
                node = int(kids[_ref_random_argmax(idx, rng)])
            path.append(node)
        return Choice(arm=tree.arm_of_leaf(node), path=tuple(path))

    def update(self, choice, reward):
        path = choice.path
        _ref_check_path(self.tree, path)
        for v in path:
            self._n[v] += 1.0
            self._q[v] += (reward - self._q[v]) / self._n[v]


class RefTsMax(TsMax):
    def cluster_representatives(self):
        emp = self._s / (self._s + self._f)
        reps = np.empty(len(self._members), dtype=np.int64)
        for c, members in enumerate(self._members):
            reps[c] = members[int(np.argmax(emp[members]))]
        return reps

    def select(self, t, rng):
        reps = self.cluster_representatives()
        theta_c = rng.beta(self._s[reps], self._f[reps])
        cluster = _ref_random_argmax(theta_c, rng)
        members = self._members[cluster]
        theta_a = rng.beta(self._s[members], self._f[members])
        arm = int(members[_ref_random_argmax(theta_a, rng)])
        return Choice(arm=arm, path=(cluster,))


def _ref_ucb_index(means, counts, log_term):
    return means + np.sqrt(2.0 * log_term / counts)


class RefUcb1(Ucb1):
    def select(self, t, rng):
        unpulled = np.flatnonzero(self._n == 0)
        if unpulled.size:
            return Choice(arm=int(unpulled[0]))
        idx = _ref_ucb_index(self._q, self._n, math.log(t))
        return Choice(arm=_ref_random_argmax(idx, rng))


class RefClusteredUcb1(ClusteredUcb1):
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
        return Choice(arm=arm, path=(cluster,))


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
    # itself is checked on ``cluster_representatives`` below.
    means = [1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0]
    labels = [0, 1, 2, 0, 1, 2, 0, 1, 2, 0, 1, 2]
    return BanditInstance.from_means(means, clustering=DisjointClustering(labels))


def _assert_same_trace(instance, policy, reference, seed, horizon=HORIZON):
    got = simulate(instance, policy, horizon, rng_streams(seed).simulation)
    want = simulate(instance, reference, horizon, rng_streams(seed).simulation)
    assert np.array_equal(got.arms, want.arms)
    assert np.array_equal(got.paths, want.paths)
    assert np.array_equal(got.cum_regret, want.cum_regret)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["hts-uct/L2", "hts-uct/L3", "sorted-tree-256"])
@pytest.mark.parametrize("policy_cls, ref_cls", [(HierarchicalThompsonSampling, RefHts), (TreeUcb, RefUct)])
def test_tree_descent_matches_reference(name, seed, policy_cls, ref_cls):
    instance = _instance(name, seed)
    _assert_same_trace(instance, policy_cls(instance.tree), ref_cls(instance.tree), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_tsmax_matches_reference_on_kmeans_large(seed):
    instance = _instance("kmeans-large", seed)
    clustering = instance.clustering
    _assert_same_trace(instance, TsMax(clustering), RefTsMax(clustering), seed)


@pytest.mark.parametrize("seed", SEEDS)
def test_tsmax_matches_reference_with_tied_representatives(seed):
    instance = _tied_instance()
    _assert_same_trace(instance, TsMax(instance.clustering), RefTsMax(instance.clustering), seed)


FLAT_AND_TWO_LEVEL = {
    "tsmax": (lambda inst: TsMax(inst.clustering), lambda inst: RefTsMax(inst.clustering)),
    "ucb1": (lambda inst: Ucb1(inst.n_arms), lambda inst: RefUcb1(inst.n_arms)),
    "ucbc": (lambda inst: ClusteredUcb1(inst.clustering), lambda inst: RefClusteredUcb1(inst.clustering)),
}


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("name", ["kmeans-large", "kmeans-small", "tied"])
@pytest.mark.parametrize("key", sorted(FLAT_AND_TWO_LEVEL))
def test_kept_state_matches_rescanning_reference(key, name, seed):
    instance = _tied_instance() if name == "tied" else _instance(name, seed)
    make, make_ref = FLAT_AND_TWO_LEVEL[key]
    _assert_same_trace(instance, make(instance), make_ref(instance), seed)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("key", sorted(FLAT_AND_TWO_LEVEL))
def test_kept_state_matches_reference_after_external_updates(key, seed):
    # updates from outside select, in scrambled arm order, before the first
    # select and again between runs
    instance = _instance("kmeans-small", seed)
    make, make_ref = FLAT_AND_TWO_LEVEL[key]
    policy, reference = make(instance), make_ref(instance)
    rng = np.random.default_rng(seed)
    labels = instance.clustering.labels
    for _ in range(2):
        arms = rng.choice(instance.n_arms, size=40, replace=False)
        rewards = rng.integers(0, 2, size=40).astype(float)
        for arm, reward in zip(arms.tolist(), rewards.tolist()):
            path = () if key == "ucb1" else (int(labels[arm]),)
            policy.update(Choice(arm=arm, path=path), reward)
            reference.update(Choice(arm=arm, path=path), reward)
        _assert_same_trace(instance, policy, reference, seed, horizon=300)
    if key == "tsmax":
        assert np.array_equal(policy._reps, policy.cluster_representatives())


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
        policy = ClusteredThompsonSampling(instance.clustering)
        reference = RefClusteredThompsonSampling(instance.clustering)
    got = simulate(instance, policy, HORIZON, rng_streams(seed).simulation)
    want = simulate(instance, reference, HORIZON, rng_streams(seed).simulation)
    assert np.array_equal(got.arms, want.arms)
    assert np.array_equal(got.rewards, want.rewards)
    assert np.array_equal(got.cum_regret, want.cum_regret)
    if key == "ts":
        assert got.paths is None and want.paths is None
    else:
        assert np.array_equal(got.paths[:, 0], np.zeros(HORIZON, dtype=np.int64))
        assert np.array_equal(got.paths[:, 1] - 1, want.paths[:, 0])
        assert np.array_equal(policy.tree.leaf_arms[got.paths[:, 2]], got.arms)


def test_tied_representatives_go_to_the_lowest_arm_id():
    instance = _tied_instance()
    policy, reference = TsMax(instance.clustering), RefTsMax(instance.clustering)
    assert policy.cluster_representatives().tolist() == [0, 1, 2]
    # cluster 0 = arms 0, 3, 6, 9: arms 3 and 9 tie at the top
    for pol in (policy, reference):
        pol._s[[3, 9]] = 3.0
        pol._f[6] = 4.0
    assert policy.cluster_representatives().tolist() == [3, 1, 2]
    assert np.array_equal(policy.cluster_representatives(), reference.cluster_representatives())


def test_kept_representatives_follow_falls_and_lower_id_ties():
    instance = _tied_instance()  # cluster 0 = arms 0, 3, 6, 9
    labels = instance.clustering.labels.tolist()
    policy, reference = TsMax(instance.clustering), RefTsMax(instance.clustering)
    policy.select(1, np.random.default_rng(0))  # takes every representative
    assert policy._reps.tolist() == [0, 1, 2]

    def play(arm, reward, rep):
        for pol in (policy, reference):
            pol.update(Choice(arm=arm, path=(labels[arm],)), reward)
        want = reference.cluster_representatives()
        assert policy._reps.tolist() == want.tolist()
        assert int(want[0]) == rep

    play(3, 1.0, rep=3)  # a higher mean takes over
    play(9, 1.0, rep=3)  # an equal mean with a higher id does not
    play(3, 0.0, rep=9)  # the representative falls: arm 9 is now the best
    play(0, 1.0, rep=0)  # an equal mean with a lower id wins the tie
    play(0, 0.5, rep=9)  # a fractional reward lowers the representative too
    play(6, 0.0, rep=9)  # another member falls: nothing changes
    _assert_same_trace(instance, policy, reference, seed=0, horizon=300)


class RefLinearBank:
    def __init__(self, n, dim, v):
        eye = np.eye(dim)
        self.v = float(v)
        self.B = np.tile(eye, (n, 1, 1))
        self.Binv = np.tile(eye, (n, 1, 1))
        self.F = np.zeros((n, dim))
        self.Mu = np.zeros((n, dim))
        self.counts = np.zeros(n, dtype=np.int64)

    def _quad(self, x, subset):
        binv = self.Binv if subset is None else self.Binv[subset]
        return np.maximum(np.einsum("nij,i,j->n", binv, x, x), 0.0)

    def sample(self, x, rng, subset=None):
        mu = self.Mu if subset is None else self.Mu[subset]
        return rng.normal(mu @ x, np.sqrt(self.v * self._quad(x, subset)))

    def ucb(self, x, alpha, subset=None):
        mu = self.Mu if subset is None else self.Mu[subset]
        return mu @ x + alpha * np.sqrt(self._quad(x, subset))

    def update(self, i, x, reward):
        if not np.isfinite(reward):
            raise ValueError(f"non-finite reward {reward}")
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


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CTX_SPECS))
@pytest.mark.parametrize("key", ["lints", "lintsc", "linucb", "linucbc"])
def test_linear_bank_matches_reference(name, seed, key):
    streams = rng_streams(seed)
    instance = build_instance(CTX_SPECS[name], streams.instance)
    contexts = np.stack([gen_context(instance.dim, streams.context) for _ in range(HORIZON)])
    policy = make_contextual_policy(key, instance)
    reference = make_contextual_policy(key, instance)
    for attr in ("_clusters", "_arms"):
        if hasattr(reference, attr):
            bank = getattr(reference, attr)
            setattr(reference, attr, RefLinearBank(bank.n, bank.dim, bank.v))
    got = simulate_contextual(instance, policy, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    want = simulate_contextual(instance, reference, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    assert np.array_equal(got.arms, want.arms)
    assert np.array_equal(got.rewards, want.rewards)
    assert np.array_equal(got.cum_regret, want.cum_regret)
    # the update is the same arithmetic, so the posteriors end bit-equal too
    for attr in ("_clusters", "_arms"):
        if hasattr(policy, attr):
            bank, ref = getattr(policy, attr), getattr(reference, attr)
            for field in ("B", "Binv", "F", "Mu", "counts"):
                assert getattr(bank, field).tobytes() == getattr(ref, field).tobytes(), (attr, field)
    if name == "two-clusters" and hasattr(policy, "_clusters"):
        assert policy._clusters.counts.max() >= RESOLVE_EVERY  # the dense re-solve ran


class RefLinThompson:
    path_depth = 0

    def __init__(self, n_arms, dim, v=1.0):
        self._arms = _LinearBank(n_arms, dim, v)
        self.dim = dim

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        theta = self._arms.sample(x, rng)
        return Choice(arm=random_argmax(theta, rng))

    def update(self, choice, x, reward):
        x = _check_context(x, self.dim)
        self._arms.update(choice.arm, x, reward)


class RefClusteredLinThompson:
    path_depth = 1

    def __init__(self, clustering, dim, v=1.0):
        self.clustering = clustering
        self.dim = dim
        self._clusters = _LinearBank(clustering.n_clusters, dim, v)
        self._arms = _LinearBank(clustering.n_arms, dim, v)

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._clusters.sample(x, rng), rng)
        members = self.clustering.members(cluster)
        theta = self._arms.sample(x, rng, subset=members)
        arm = int(members[random_argmax(theta, rng)])
        return Choice(arm=arm, path=(cluster,))

    def update(self, choice, x, reward):
        x = _check_context(x, self.dim)
        (cluster,) = choice.path
        if self.clustering.label_of(choice.arm) != cluster:
            raise ValueError(f"arm {choice.arm} is not in cluster {cluster}")
        self._clusters.update(cluster, x, reward)
        self._arms.update(choice.arm, x, reward)


class RefLinUcb:
    path_depth = 0

    def __init__(self, n_arms, dim, alpha=2.0):
        self._arms = _LinearBank(n_arms, dim, 1.0)
        self.dim = dim
        self.alpha = float(alpha)

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        return Choice(arm=random_argmax(self._arms.ucb(x, self.alpha), rng))

    def update(self, choice, x, reward):
        x = _check_context(x, self.dim)
        self._arms.update(choice.arm, x, reward)


class RefClusteredLinUcb:
    path_depth = 1

    def __init__(self, clustering, dim, alpha=2.0):
        self.clustering = clustering
        self.dim = dim
        self.alpha = float(alpha)
        self._clusters = _LinearBank(clustering.n_clusters, dim, 1.0)
        self._arms = _LinearBank(clustering.n_arms, dim, 1.0)

    def select(self, t, x, rng):
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._clusters.ucb(x, self.alpha), rng)
        members = self.clustering.members(cluster)
        idx = self._arms.ucb(x, self.alpha, subset=members)
        arm = int(members[random_argmax(idx, rng)])
        return Choice(arm=arm, path=(cluster,))

    def update(self, choice, x, reward):
        x = _check_context(x, self.dim)
        (cluster,) = choice.path
        if self.clustering.label_of(choice.arm) != cluster:
            raise ValueError(f"arm {choice.arm} is not in cluster {cluster}")
        self._clusters.update(cluster, x, reward)
        self._arms.update(choice.arm, x, reward)


CTX_REFS = {
    "lints": lambda inst: RefLinThompson(inst.n_arms, inst.dim),
    "lintsc": lambda inst: RefClusteredLinThompson(inst.clustering, inst.dim),
    "linucb": lambda inst: RefLinUcb(inst.n_arms, inst.dim),
    "linucbc": lambda inst: RefClusteredLinUcb(inst.clustering, inst.dim),
}


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize("name", sorted(CTX_SPECS))
@pytest.mark.parametrize("key", sorted(CTX_REFS))
def test_contextual_policies_match_their_own_references(name, seed, key):
    streams = rng_streams(seed)
    instance = build_instance(CTX_SPECS[name], streams.instance)
    contexts = np.stack([gen_context(instance.dim, streams.context) for _ in range(HORIZON)])
    policy, reference = make_contextual_policy(key, instance), CTX_REFS[key](instance)
    got = simulate_contextual(instance, policy, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    want = simulate_contextual(instance, reference, HORIZON, rng_streams(seed).simulation, contexts=contexts)
    assert got.arms.tobytes() == want.arms.tobytes()
    assert got.rewards.tobytes() == want.rewards.tobytes()
    assert got.cum_regret.tobytes() == want.cum_regret.tobytes()
    if reference.path_depth:
        assert got.paths.tobytes() == want.paths.tobytes()
    else:
        assert got.paths is None and want.paths is None
    for attr in ("_clusters", "_arms"):
        assert hasattr(policy, attr) == hasattr(reference, attr)
        if hasattr(policy, attr):
            bank, ref = getattr(policy, attr), getattr(reference, attr)
            for field in ("B", "Binv", "F", "Mu", "counts"):
                assert getattr(bank, field).tobytes() == getattr(ref, field).tobytes(), (attr, field)
