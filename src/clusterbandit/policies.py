"""Bandit policies for flat, clustered, and tree-structured action sets.

Every policy exposes ``select(t, rng) -> Choice`` and
``update(choice, reward)``. A ``Choice`` carries the played arm plus the
root-to-leaf node path that led to it, so the simulator can log and replay
the full decision. Every policy, the contextual ones included, runs one
descent, ``BanditPolicy._descend``, and differs only in its per-node rule
``_pick`` and its ``update``: ``HierarchicalThompsonSampling`` for ``ts``,
``tsc`` and ``hts``, ``TsMax`` for ``tsmax``, and ``TreeUcb`` for ``ucb1``,
``ucbc`` and ``uct``. ``ts`` and ``ucb1`` are ``flat``: they descend
``ClusterTree.star(n)``, so their path to arm a is ``(0, a+1)`` and their
traces keep no paths; ``tsc``, ``tsmax`` and ``ucbc`` descend
``ClusterTree.from_clustering(c)``, so their path is ``(0, c+1, leaf)`` for
cluster c. ``tsmax`` samples each cluster through its best leaf instead of a
cluster belief. ``ucb1`` and ``ucbc`` differ from ``uct`` only in the log
term of the UCB index: the global log t instead of log N_parent.

Every policy class with a ``key``, the contextual ones included, declares
the instance structure it ``needs`` and the ``params`` it accepts, and is
recorded in ``POLICY_KEYS``; :func:`make_policy` and :func:`check_params`
serve all eleven keys from that one registry. The Bernoulli policies take
no parameters.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .core import (
    ClusterTree,
    DisjointClustering,
    _random_argmax_list,
    random_argmax,
    typed,
)

__all__ = [
    "Choice",
    "BanditPolicy",
    "ThompsonSampling",
    "ClusteredThompsonSampling",
    "HierarchicalThompsonSampling",
    "Ucb1",
    "ClusteredUcb1",
    "TsMax",
    "TreeUcb",
    "POLICY_KEYS",
    "check_params",
    "make_policy",
]


@dataclass(frozen=True, slots=True)
class Choice:
    """One selection: the arm played and the root-to-leaf node path that chose it."""

    arm: int
    path: tuple[int, ...] = ()


def _check_reward(reward: float) -> float:
    reward = float(reward)
    if not (0.0 <= reward <= 1.0):  # NaN fails both comparisons
        raise ValueError(f"reward {reward} outside [0, 1]")
    return reward


# Nodes with at most this many children draw one scalar per child and pick with
# a list argmax; wider ones make one array call. On numpy 2.4 one array
# ``rng.beta`` call costs about as much as 14-16 scalar ones.
_NARROW = 16


class _TreeTables:
    """The flat arrays of a cluster tree as descents read them.

    The children of node v are ``kids[ptr[v]:ptr[v+1]]``. Tree policies keep
    per-node statistics in slot order (``ClusterTree.slot``: a node's
    position in ``kids``, the root last), so ``stat[ptr[v]:ptr[v+1]]`` is a
    view of v's children's statistics. The arrays are read through
    memoryviews, which give Python ints and copy nothing.
    """

    __slots__ = ("tree", "ptr", "kids", "slot", "parent", "leaf_arm")

    def __init__(self, tree: ClusterTree) -> None:
        self.tree = tree
        self.ptr = memoryview(tree.ptr)
        self.kids = memoryview(tree.kids)
        self.slot = memoryview(tree.slot)
        self.parent = memoryview(tree.parent)
        self.leaf_arm = memoryview(tree.leaf_arms)

    def __reduce__(self):  # memoryviews do not pickle or copy; rebuild from the tree
        return _TreeTables, (self.tree,)

    def check_path(self, choice: Choice) -> tuple[int, ...]:
        """``choice.path`` if it runs from the root along tree edges to the leaf of ``choice.arm``."""
        path = choice.path
        if not path or path[0] != 0 or self.leaf_arm[path[-1]] < 0:
            raise ValueError(f"invalid root-to-leaf path {path}")
        parent = self.parent
        for v, w in zip(path, path[1:]):
            if parent[w] != v:
                raise ValueError(f"invalid root-to-leaf path {path}")
        if self.leaf_arm[path[-1]] != choice.arm:
            raise ValueError(f"path leaf does not map to arm {choice.arm}")
        return path


# key -> policy class: every class whose body sets a non-empty ``key``, recorded by
# ``BanditPolicy.__init_subclass__``. Importing this module imports the package,
# which imports ``contextual``, so the contextual classes are always recorded.
POLICY_KEYS: dict[str, type[BanditPolicy]] = {}


class BanditPolicy(ABC):
    """The one root-to-leaf descent of every policy, Bernoulli and contextual.

    ``_descend`` moves from the root of ``tree`` to the child ``_pick``
    returns until it reaches a leaf, whose arm is played; the children of the
    node in slot ``at`` are the slots ``[lo, hi)`` (``tree.slot`` order).
    ``path_depth`` is a logged path's width, 0 for ``flat`` policies. ``_path``
    trusts ``_selected``, the ``Choice`` the last ``select`` returned, and
    checks any other. Statistics are read through memoryviews, which give
    Python floats; ``_bind`` makes them. Copies and pickles drop memoryviews
    only and remake them, so a copy trusts only a ``Choice`` copied with it.

    ``needs`` is the instance structure a class runs on: ``"bernoulli"`` (any
    Bernoulli instance: flat, clustered or a tree), ``"clustering"``,
    ``"tree"`` or ``"contextual"``. ``params`` maps each parameter the class
    accepts to its type, as ``core.typed`` reads it, and its value check
    (None: checked by :func:`check_params` itself).
    """

    key: str = ""
    flat: bool = False
    needs: str = "bernoulli"
    params: dict[str, tuple[type, Callable[[float], None] | None]] = {}
    _selected: Choice | None = None

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if vars(cls).get("key"):
            POLICY_KEYS[cls.key] = cls

    @classmethod
    def accepts(cls, structure: str) -> bool:
        """Whether the class runs on an instance of ``structure``, named as ``instances.spec_structure`` names it."""
        return structure == cls.needs or (cls.needs == "bernoulli" and structure != "contextual")

    def __init__(self, tree: ClusterTree) -> None:
        self.tree = tree
        self.path_depth = 0 if self.flat else tree.depth + 1
        self._walk = _TreeTables(tree)

    def _bind(self) -> None:
        """Make the memoryviews the step reads, after construction, copy or unpickle."""

    def __getstate__(self) -> dict:  # memoryviews do not pickle or copy
        return {k: v for k, v in vars(self).items() if not isinstance(v, memoryview)}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind()

    def _path(self, choice: Choice) -> tuple[int, ...]:
        return choice.path if choice is self._selected else self._walk.check_path(choice)

    @abstractmethod
    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        """The offset in ``[0, hi - lo)`` of the child to move to from the node in slot ``at``."""

    def _descend(self, t: int, rng: np.random.Generator) -> Choice:
        if t < 1:
            raise ValueError(f"time step must be >= 1, got {t}")
        ptr, kids, pick = self._walk.ptr, self._walk.kids, self._pick
        node = 0
        at = len(kids)  # the slot of ``node``
        path = [node]
        lo, hi = ptr[0], ptr[1]
        while lo < hi:
            at = lo + pick(lo, hi, at, t, rng)
            node = kids[at]
            path.append(node)
            lo, hi = ptr[node], ptr[node + 1]
        choice = self._selected = Choice(arm=self._walk.leaf_arm[node], path=tuple(path))
        return choice

    def select(self, t: int, rng: np.random.Generator) -> Choice:
        """Choose an arm for step ``t`` (1-based), consuming only ``rng``."""
        return self._descend(t, rng)

    @abstractmethod
    def update(self, choice: Choice, reward: float) -> None:
        """Feed back the observed reward for a previous choice."""


# ---------------------------------------------------------------------------
# Thompson sampling family
# ---------------------------------------------------------------------------

class HierarchicalThompsonSampling(BanditPolicy):
    """Tree-recursive Thompson sampling.

    Keeps a Beta belief per tree node. Each round descends from the root:
    at every internal node it samples one value per child subtree and moves
    to the argmax child, until it reaches a leaf, whose arm is played. The
    reward updates every belief on the traversed root-to-leaf path, so each
    internal node's counts stay the prior-adjusted sum of its children's.
    The counts are kept in ``tree.slot`` order.

    Works on arbitrary trees: branching may vary and leaves may sit at
    different depths.
    """

    key = "hts"
    needs = "tree"

    def __init__(self, tree: ClusterTree) -> None:
        super().__init__(tree)
        self._s = np.ones(tree.n_nodes)
        self._f = np.ones(tree.n_nodes)
        self._bind()

    def _bind(self) -> None:
        self._sv, self._fv = memoryview(self._s), memoryview(self._f)

    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        """Sample the beliefs in slots [lo, hi), in order, and return the argmax's offset."""
        if hi - lo <= _NARROW:
            return _random_argmax_list(list(map(rng.beta, self._sv[lo:hi], self._fv[lo:hi])), rng)
        return random_argmax(rng.beta(self._s[lo:hi], self._f[lo:hi]), rng)

    def update(self, choice: Choice, reward: float) -> None:
        reward = _check_reward(reward)
        path = self._path(choice)
        fail = 1.0 - reward
        s, f, slot = self._sv, self._fv, self._walk.slot
        for v in path:
            i = slot[v]
            s[i] += reward
            f[i] += fail


class ThompsonSampling(HierarchicalThompsonSampling):
    """Beta-Bernoulli Thompson sampling over a flat action set.

    Tree descent on ``ClusterTree.star(n_arms)``: one Beta(s, f) belief per
    arm (leaf a+1) from the uniform prior, one sampled expected reward per
    arm each round, and the argmax is played. Traces keep no paths.
    """

    key = "ts"
    flat = True
    needs = "bernoulli"

    def __init__(self, n_arms: int) -> None:
        super().__init__(ClusterTree.star(n_arms))


class ClusteredThompsonSampling(HierarchicalThompsonSampling):
    """Two-level Thompson sampling over a disjoint clustering.

    Tree descent on ``ClusterTree.from_clustering(clustering)``: each round
    first samples one expected reward per cluster (node c+1) and commits to
    the argmax cluster, then samples among that cluster's arms only; the
    reward updates both, as on every descent path.
    """

    key = "tsc"
    needs = "clustering"

    def __init__(self, clustering: DisjointClustering) -> None:
        super().__init__(ClusterTree.from_clustering(clustering))


class TsMax(HierarchicalThompsonSampling):
    """Two-level Thompson sampling with best-member cluster proxies.

    Descent on ``ClusterTree.from_clustering(clustering)`` without cluster
    beliefs: each round every cluster (node c+1) is represented by the Beta
    belief of its leaf with the highest empirical mean s/(s+f) (ties going
    to the lowest arm id). One value is sampled from each representative,
    the argmax cluster wins, and ordinary Thompson sampling runs among its
    leaves. Only the played leaf's belief is updated.
    """

    key = "tsmax"
    needs = "clustering"

    def __init__(self, clustering: DisjointClustering) -> None:
        tree = ClusterTree.from_clustering(clustering)
        # Representatives as the root's _pick reads them (leaf slots), kept by update for
        # the played cluster only; at the uniform prior each cluster's first leaf.
        self._reps = tree.ptr[1:tree.ptr[1] + 1].copy()
        super().__init__(tree)

    def _bind(self) -> None:
        super()._bind()
        self._repv = memoryview(self._reps)

    def _best_member(self, cluster: int) -> int:
        lo, hi = self._walk.ptr[cluster + 1], self._walk.ptr[cluster + 2]
        s, f = self._s[lo:hi], self._f[lo:hi]
        return lo + int(np.argmax(s / (s + f)))  # first maximum: the lowest arm id

    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        """At the root (the only node whose children start at slot 0) draw representatives; below it, as ``hts``."""
        if lo:
            return HierarchicalThompsonSampling._pick(self, lo, hi, at, t, rng)
        reps = self._reps
        if len(reps) <= _NARROW:
            s, f = self._sv, self._fv
            return _random_argmax_list([rng.beta(s[r], f[r]) for r in self._repv], rng)
        return random_argmax(rng.beta(self._s[reps], self._f[reps]), rng)

    def update(self, choice: Choice, reward: float) -> None:
        reward = _check_reward(reward)
        path = self._path(choice)
        s, f, i = self._sv, self._fv, self._walk.slot[path[-1]]
        before = s[i] / (s[i] + f[i])
        s[i] += reward
        f[i] += 1.0 - reward
        reps, cluster = self._repv, path[1] - 1
        mean = s[i] / (s[i] + f[i])
        rep = reps[cluster]
        if rep == i and mean < before:  # the representative fell: re-take the cluster
            reps[cluster] = self._best_member(cluster)
        elif rep != i:  # only this leaf moved: it wins on a higher mean, or a tie and a lower arm id
            rep_mean = s[rep] / (s[rep] + f[rep])
            if mean > rep_mean or (mean == rep_mean and i < rep):
                reps[cluster] = i


# ---------------------------------------------------------------------------
# UCB family
# ---------------------------------------------------------------------------

def _ucb_index(means: np.ndarray, counts: np.ndarray, log_term: float) -> np.ndarray:
    return means + np.sqrt(2.0 * log_term / counts)


class TreeUcb(BanditPolicy):
    """UCB descent over a cluster tree.

    At each internal node, unvisited children are tried first (lowest index
    in child order); otherwise the child maximizing
    mean + sqrt(2 log_term / N_child) is taken. The reward and one visit
    propagate to every node on the played path. The log term is the only
    thing the UCB policies change: log N_parent here, the global log t for
    ``ucb1`` and ``ucbc``.
    """

    key = "uct"
    needs = "tree"

    def __init__(self, tree: ClusterTree) -> None:
        super().__init__(tree)
        self._n = np.zeros(tree.n_nodes)  # per node in tree.slot order, as for hts
        self._q = np.zeros(tree.n_nodes)
        self._bind()

    def _bind(self) -> None:
        self._nv, self._qv = memoryview(self._n), memoryview(self._q)

    def _log_term(self, t: int, parent_count: float) -> float:
        return math.log(parent_count)

    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        if hi - lo <= _NARROW:
            nv = self._nv
            counts = nv[lo:hi].tolist()
            least = min(counts)
            i = counts.index(least)
            if least:  # no unvisited child: the UCB index decides
                bonus = 2.0 * self._log_term(t, nv[at])
                index = [m + math.sqrt(bonus / c) for m, c in zip(self._qv[lo:hi].tolist(), counts)]
                i = _random_argmax_list(index, rng)
            return i
        counts = self._n[lo:hi]
        i = int(counts.argmin())
        if self._nv[lo + i]:
            i = random_argmax(_ucb_index(self._q[lo:hi], counts, self._log_term(t, self._nv[at])), rng)
        return i

    def update(self, choice: Choice, reward: float) -> None:
        reward = _check_reward(reward)
        path = self._path(choice)
        n, q, slot = self._nv, self._qv, self._walk.slot
        for v in path:
            i = slot[v]
            n[i] += 1.0
            q[i] += (reward - q[i]) / n[i]


class Ucb1(TreeUcb):
    """UCB1: empirical mean plus sqrt(2 ln t / N) exploration bonus.

    Descent on ``ClusterTree.star(n_arms)`` with the global log t: plays each
    arm (leaf a+1) once first, lowest index first, then the argmax index with
    uniform tie-breaking. Traces keep no paths.
    """

    key = "ucb1"
    flat = True
    needs = "bernoulli"

    def __init__(self, n_arms: int) -> None:
        super().__init__(ClusterTree.star(n_arms))

    def _log_term(self, t: int, parent_count: float) -> float:
        return math.log(t)


class ClusteredUcb1(TreeUcb):
    """Two-level UCB1 over a disjoint clustering.

    Descent on ``ClusterTree.from_clustering(clustering)`` with the global
    log t: the UCB1 index, with the play-once rule, picks a cluster (node
    c+1, whose statistics aggregate every reward observed from it) and then
    one of its arms.
    """

    key = "ucbc"
    needs = "clustering"

    def __init__(self, clustering: DisjointClustering) -> None:
        super().__init__(ClusterTree.from_clustering(clustering))

    def _log_term(self, t: int, parent_count: float) -> float:
        return math.log(t)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def check_params(key: str, params: dict | None, dim: int | None = None) -> None:
    """Reject an unknown key or parameter, a bad parameter value, and a ``d`` other than ``dim``.

    A class accepts only the ``params`` it declares, so configuration typos
    surface early: none for the Bernoulli policies, ``v`` and ``d`` for the
    contextual Thompson ones and ``alpha`` and ``d`` for the contextual UCB
    ones. ``d`` must match the instance dimension when both are known.
    """
    if key not in POLICY_KEYS:
        raise ValueError(f"unknown policy key '{key}'; valid keys: {sorted(POLICY_KEYS)}")
    accepted, params = POLICY_KEYS[key].params, params or {}
    unknown = set(params) - set(accepted)
    if unknown:
        raise ValueError(f"policy '{key}' does not accept parameters {sorted(unknown)}")
    for name, value in params.items():
        kind, check = accepted[name]
        value = typed(name, value, kind)
        if check is not None:
            check(value)
    d = params.get("d")
    if d is not None and dim is not None and d != dim:
        raise ValueError(f"parameter d={d} does not match instance dimension {dim}")


def make_policy(key: str, instance, params: dict | None = None) -> BanditPolicy:
    """Instantiate a policy by string key for a given instance, after :func:`check_params`.

    Flat policies take the instance's arm count, the others its clustering or
    tree; contextual policies also take its dimension, which ``d`` only checks.
    """
    check_params(key, params, getattr(instance, "dim", None))
    cls = POLICY_KEYS[key]
    if not cls.accepts(instance.structure):
        raise ValueError(f"policy '{key}' needs a {cls.needs} instance, got a {instance.structure} instance")
    arms = instance.n_arms if cls.flat else instance.tree if cls.needs == "tree" else instance.clustering
    args = (arms, instance.dim) if cls.needs == "contextual" else (arms,)
    return cls(*args, **{k: float(value) for k, value in (params or {}).items() if k != "d"})
