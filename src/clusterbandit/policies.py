"""Bandit policies for flat, clustered, and tree-structured action sets.

Every policy exposes ``select(t, rng) -> arm`` and ``update(arm, reward)``.
Every arm is exactly one leaf of the policy's tree, so the arm is the whole
decision: ``update`` credits the nodes on the way from the arm's leaf up to
the root, the path the descent took (``tsmax`` the leaf alone). Every policy,
the contextual ones included, runs one descent, ``BanditPolicy._descend``,
and differs only in its per-node rule ``_pick`` and its ``update``:
``HierarchicalThompsonSampling`` for ``ts``, ``tsc``, ``hts`` and ``tsmax``,
and ``TreeUcb`` for ``ucb1``, ``ucbc`` and ``uct``. The class decides the
tree ``BanditPolicy.__init__`` keeps: the ``flat`` ``ts`` and
``ucb1`` descend ``ClusterTree.star(n)``, where arm a is leaf a+1, and the
others the tree they are given: ``hts`` and ``uct`` any tree, ``tsc`` and
``ucbc`` (``ts`` and ``ucb1`` with ``flat = False``) and ``tsmax`` the
two-level tree ``ClusterTree.from_labels(labels)`` of a clustering, where
cluster c is node c+1, which an instance holds. ``tsmax``
changes only ``update``: a cluster's belief is a copy of its best leaf's.
``ucb1`` and ``ucbc`` differ from ``uct`` only in the log term of the UCB
index: the global log t instead of log N_parent.

A Thompson node draws one fresh value per child below ``_BLOCK_MIN``
children and reads pre-drawn blocks above; while at least ``_GROUP_MIN`` of
its children have a belief with s == 1 or f == 1, it draws once per group of
equal such beliefs instead. Each rule has the law of a fresh draw per child
per visit, which ``tests/law.py`` checks.

Every policy class with a ``key``, the contextual ones included, declares
the instance structure it ``needs`` and the ``params`` it accepts, and is
recorded in ``POLICY_KEYS``; :func:`make_policy` and :func:`check_params`
serve all eleven keys from that one registry. The Bernoulli policies take
no parameters.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
from bisect import bisect_left, insort
from typing import Callable

import numpy as np

from .core import (
    ClusterTree,
    _random_argmax_list,
    random_argmax,
    typed,
)

__all__ = [
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


def _check_reward(reward: float) -> float:
    reward = float(reward)
    if not (0.0 <= reward <= 1.0):  # NaN fails both comparisons
        raise ValueError(f"reward {reward} outside [0, 1]")
    return reward


# Nodes with at most this many children pick with a list argmax, wider ones
# with ``random_argmax``: the same index and the same generator use.
_NARROW = 16
# A Thompson node of at least _BLOCK_MIN children pre-draws its children's values
# for at most _BLOCK_ROWS visits per call. Below _BLOCK_MIN a fresh scalar draw per
# child and visit costs less than a block's upkeep (one call per visit to redraw
# the moved child): on numpy 2.4 a flat step broke even at about 5 arms, and a
# block made a 2-arm step 32% and the binary tree's step 47% slower.
_BLOCK_MIN = 5
_BLOCK_ROWS = 32
# A Thompson node of at least _GROUP_MIN children keeps its children grouped by belief (_Groups), and
# draws one value per group while at least _GROUP_MIN of them sit in a group. On numpy 2.4, flat ts on
# 1000 arms stepped at 40-45 us on groups against 93-95 us on blocks with 889 arms grouped, 60 against
# 72 with 540, and even at about 300; groups at every node of 5 or more children made tsc 2.6x and
# hts on 15-child nodes 1.9x slower, so the narrow nodes keep their blocks.
_GROUP_MIN = 400


# key -> policy class: every class whose body sets a non-empty ``key``, recorded by
# ``BanditPolicy.__init_subclass__``. Importing this module imports the package,
# which imports ``contextual``, so the contextual classes are always recorded.
POLICY_KEYS: dict[str, type[BanditPolicy]] = {}


class BanditPolicy(ABC):
    """The one root-to-leaf descent of every policy, Bernoulli and contextual.

    ``_descend`` moves from the root of ``tree`` to the child ``_pick``
    returns until it reaches a leaf, whose arm is played; the children of the
    node in slot ``at`` are the slots ``[lo, hi)`` (``tree.slot`` order).
    ``update`` finds the path again from the arm: ``_leaf`` checks the arm
    and gives its leaf, and ``tree.parent`` leads from there to the root.
    The tree's arrays and the statistics are read through memoryviews, which
    give Python numbers and copy nothing; ``_bind`` makes them. Copies and
    pickles drop memoryviews only and remake them.

    ``needs`` is the instance structure a class runs on: ``"bernoulli"`` (any
    Bernoulli instance: flat, clustered or a tree), ``"clustering"``,
    ``"tree"`` or ``"contextual"``. ``flat`` decides whether ``__init__``
    makes a star of an arm count or takes the tree it is given; a class that
    is neither flat nor needs a tree takes only a tree in
    ``ClusterTree.from_labels`` layout. ``params`` maps each parameter the class accepts to
    its type, as ``core.typed`` reads it, and its value check.
    """

    key: str = ""
    flat: bool = False
    needs: str = "bernoulli"
    params: dict[str, tuple[type, Callable[[float], None]]] = {}

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        if vars(cls).get("key"):
            POLICY_KEYS[cls.key] = cls

    @classmethod
    def accepts(cls, structure: str) -> bool:
        """Whether the class runs on an instance of ``structure``, named as ``instances.spec_structure`` names it."""
        return structure == cls.needs or (cls.needs == "bernoulli" and structure != "contextual")

    def __init__(self, arms: int | ClusterTree) -> None:
        """Take the tree the class declares: the star of an arm count if ``flat``, else the tree ``arms``,
        which a class that needs no tree rejects unless it is in ``ClusterTree.from_labels`` layout."""
        self.tree = ClusterTree.star(arms) if self.flat else arms
        if not self.flat and self.needs != "tree" and not arms.is_from_labels():
            raise ValueError(f"{type(self).__name__} needs a tree in ClusterTree.from_labels layout: "
                             "clusters 1..k under the root, each one's leaves in ascending arm order")

    def _bind(self) -> None:
        """Make the memoryviews the step reads, after construction, copy or unpickle: the tree's arrays
        here, a subclass's statistics in its own ``_bind``, which calls this one."""
        tree = self.tree
        self._ptr, self._kids, self._slot = memoryview(tree.ptr), memoryview(tree.kids), memoryview(tree.slot)
        self._parent, self._leaf_arms = memoryview(tree.parent), memoryview(tree.leaf_arms)
        self._leaf_of = memoryview(tree._leaf_of_arm)

    def __getstate__(self) -> dict:  # memoryviews do not pickle or copy
        return {k: v for k, v in vars(self).items() if not isinstance(v, memoryview)}

    def __setstate__(self, state: dict) -> None:
        vars(self).update(state)
        self._bind()

    def _leaf(self, arm: int) -> int:
        """The leaf of ``arm``; an arm outside ``[0, n_arms)`` is rejected, not wrapped."""
        if not 0 <= arm < len(self._leaf_of):
            raise ValueError(f"unknown arm id {arm}")
        return self._leaf_of[arm]

    @abstractmethod
    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        """The offset in ``[0, hi - lo)`` of the child to move to from the node in slot ``at``."""

    def _descend(self, t: int, rng: np.random.Generator) -> int:
        if t < 1:
            raise ValueError(f"time step must be >= 1, got {t}")
        ptr, kids, pick = self._ptr, self._kids, self._pick
        node = 0
        at = len(kids)  # the slot of ``node``
        lo, hi = ptr[0], ptr[1]
        while lo < hi:
            at = lo + pick(lo, hi, at, t, rng)
            node = kids[at]
            lo, hi = ptr[node], ptr[node + 1]
        return self._leaf_arms[node]

    def select(self, t: int, rng: np.random.Generator) -> int:
        """Choose an arm for step ``t`` (1-based), consuming only ``rng``."""
        return self._descend(t, rng)

    @abstractmethod
    def update(self, arm: int, reward: float) -> None:
        """Feed back the observed reward for a played arm."""


# ---------------------------------------------------------------------------
# Thompson sampling family
# ---------------------------------------------------------------------------

class _Block:
    """A node's pre-drawn child values: one row per visit, row ``next`` the next visit's.

    ``stale`` is the offset of the one child whose belief moved since its
    rows were drawn, or -1.
    """

    __slots__ = ("values", "next", "stale")

    def __init__(self, values: np.ndarray) -> None:
        self.values, self.next, self.stale = values, 0, -1


class _Groups:
    """A wide node's children by belief: the closed-form ones grouped by their exact (s, f), the others apart.

    A child is closed-form when s == 1 or f == 1. ``keys`` holds the
    closed-form beliefs in ascending order, so those of s == 1 come first;
    ``members[g]`` holds the ascending offsets of the children of belief
    ``keys[g]``, and ``params[g]`` the parameter its draw reads: f if
    s == 1, else s. ``others`` holds the ascending offsets of the other
    children, ``index`` their slots as an array (None until a visit needs
    it), and ``filed`` each child's belief as filed here.
    """

    __slots__ = ("keys", "params", "members", "others", "index", "filed")

    def __init__(self, width: int) -> None:  # every child at the uniform prior
        self.keys, self.params, self.members = [(1.0, 1.0)], [1.0], [list(range(width))]
        self.others, self.index, self.filed = [], None, [(1.0, 1.0)] * width

    @property
    def closed(self) -> int:
        """The number of closed-form children."""
        return len(self.filed) - len(self.others)

    def refile(self, i: int, s: float, f: float) -> None:
        """Move child ``i`` to its belief Beta(s, f)."""
        old, new = self.filed[i], (s, f)
        if old == new:  # a tsmax cluster whose representative's belief did not move
            return
        self.filed[i] = new
        keys, members, others = self.keys, self.members, self.others
        was, now = old[0] == 1.0 or old[1] == 1.0, s == 1.0 or f == 1.0
        if was:
            g = bisect_left(keys, old)
            group = members[g]
            del group[bisect_left(group, i)]
            if not group:
                del keys[g], members[g], self.params[g]
        else:
            del others[bisect_left(others, i)]
        if now:
            g = bisect_left(keys, new)
            if g == len(keys) or keys[g] != new:
                keys.insert(g, new)
                members.insert(g, [])
                self.params.insert(g, f if s == 1.0 else s)
            insort(members[g], i)
        else:
            insort(others, i)
        if was != now:
            self.index = None


class HierarchicalThompsonSampling(BanditPolicy):
    """Tree-recursive Thompson sampling.

    Keeps a Beta belief per tree node. Each round descends from the root:
    at every internal node it samples one value per child subtree and moves
    to the argmax child, until it reaches a leaf, whose arm is played. The
    reward updates every belief from the played leaf up to the root, so each
    internal node's counts stay the prior-adjusted sum of its children's.
    The counts are kept in ``tree.slot`` order; ``_pick`` draws each child's
    values from the counts in the child's own slot, which only ``update`` sets.

    A node of fewer than ``_BLOCK_MIN`` children draws one fresh scalar per
    child at every visit. A wider node draws its children's values ahead, in
    a block: one ``rng.beta`` call over the children's beliefs makes 1 row
    at the node's first visit, then twice the last block's rows whenever a
    block is used up, up to ``_BLOCK_ROWS``; each visit reads the next row.
    ``update`` marks, in each block above the played leaf, the child whose
    belief moved, and the node's next visit redraws that child's remaining
    rows with one call at its new belief; a second child moving first drops
    the block. Every visit so reads independent Beta(s, f) values at the current
    beliefs, the law of a fresh draw per child per visit. Blocks exist for
    visited nodes only.

    A node of at least ``_GROUP_MIN`` children also keeps its children in
    ``_Groups``, from construction on: those whose belief has s == 1 or
    f == 1 grouped by their exact (s, f), the others apart; ``update``
    refiles the one child that moved at each node above the played leaf.
    While at least ``_GROUP_MIN`` of them sit in groups, a visit draws one
    value per group and one per other child, afresh, and reads no block
    (``_pick_group``). Children of equal belief are exchangeable, so the
    maximum of a group's m draws, drawn as one value, and a uniform member
    of the group have the law of the group's argmax under m fresh draws; a
    visit so has the law of a fresh draw per child. Below that count the
    node reads its block: ``_moved`` marked every move meanwhile, so its
    unread rows are still independent draws at the current beliefs. On
    kmeans-large's 1000 arms, flat ``ts`` so draws about 220 values a step
    over 3000 steps (about 480 at the last), where a block row draws 1000.

    Works on arbitrary trees: branching may vary and leaves may sit at
    different depths.
    """

    key = "hts"
    needs = "tree"

    def __init__(self, arms: int | ClusterTree) -> None:
        super().__init__(arms)
        self._s = np.ones(self.tree.n_nodes)
        self._f = np.ones(self.tree.n_nodes)
        self._blocks: dict[int, _Block] = {}  # by the slot of a node's first child
        ptr = self.tree.ptr
        wide = np.flatnonzero(np.diff(ptr) >= _GROUP_MIN).tolist()
        self._groups = {int(ptr[v]): _Groups(int(ptr[v + 1] - ptr[v])) for v in wide}  # keyed as _blocks
        self._bind()

    def _bind(self) -> None:
        super()._bind()
        self._sv, self._fv = memoryview(self._s), memoryview(self._f)

    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        """The offset of the argmax of one value per child in slots [lo, hi): drawn afresh below
        ``_BLOCK_MIN`` children, by groups where the node's groups hold enough children, else read as the
        next row of the node's block."""
        s, f = self._sv, self._fv
        if hi - lo < _BLOCK_MIN:
            return _random_argmax_list(list(map(rng.beta, s[lo:hi], f[lo:hi])), rng)
        if hi - lo >= _GROUP_MIN:
            groups = self._groups[lo]
            if hi - lo - len(groups.others) >= _GROUP_MIN:  # enough closed-form children
                return self._pick_group(groups, lo, rng)
        block = self._blocks.get(lo)
        if block is None or block.next == len(block.values):  # first visit, or used up
            rows = 1 if block is None else min(2 * block.next, _BLOCK_ROWS)
            block = self._blocks[lo] = _Block(rng.beta(s[lo:hi], f[lo:hi], size=(rows, hi - lo)))
        elif block.stale >= 0:
            i, r = block.stale, block.next
            block.values[r:, i] = rng.beta(s[lo + i], f[lo + i], size=len(block.values) - r)
            block.stale = -1
        row = block.values[block.next]
        block.next += 1
        if hi - lo <= _NARROW:
            return _random_argmax_list(row.tolist(), rng)
        return random_argmax(row, rng)

    def _pick_group(self, groups: _Groups, lo: int, rng: np.random.Generator) -> int:
        """The offset of the argmax of one value per group of ``groups`` and one per other child.

        A group of m children of belief Beta(s, f) draws the maximum of m such
        draws by inversion, F^-1(V^(1/m)): V^(1/(s m)) at f == 1, and
        1 - (1 - V^(1/m))^(1/f) at s == 1. The G groups' V and one more uniform,
        which picks a uniform member of the winning group, come from one
        ``rng.random(G + 1)`` call; the other children's values from one
        ``rng.beta`` call, if there are any.
        """
        keys, members, others = groups.keys, groups.members, groups.others
        n = len(keys)
        ones = bisect_left(keys, (1.0, math.inf))  # the groups of s == 1
        u = rng.random(n + 1)
        x = np.log(u[:n]) / np.array(list(map(len, members)))
        param = np.array(groups.params)
        values = np.empty(n + len(others))
        values[:ones] = -np.expm1(np.log(-np.expm1(x[:ones])) / param[:ones])
        values[ones:n] = np.exp(x[ones:] / param[ones:])
        if others:
            if groups.index is None:
                groups.index = np.array(others) + lo
            values[n:] = rng.beta(self._s[groups.index], self._f[groups.index])
        w = random_argmax(values, rng)
        if w >= n:
            return others[w - n]
        group = members[w]
        return group[int(u[n] * len(group))]

    def _moved(self, leaf: int) -> None:
        """Mark, in the block of each node above ``leaf``, the child on the way to it: the one whose belief moved;
        and refile that child in the node's groups, if it has them."""
        blocks, groups, ptr, slot, parent = self._blocks, self._groups, self._ptr, self._slot, self._parent
        if not blocks and not groups:  # every node visited so far draws afresh
            return
        w, v = leaf, parent[leaf]
        while v >= 0:
            lo = ptr[v]
            i = slot[w] - lo
            block = blocks.get(lo)
            if block is not None:
                if block.stale < 0 or block.stale == i:
                    block.stale = i
                else:  # a second child moved before the next visit
                    del blocks[lo]
            if groups and lo in groups:
                groups[lo].refile(i, self._sv[lo + i], self._fv[lo + i])
            w, v = v, parent[v]

    def update(self, arm: int, reward: float) -> None:
        v = leaf = self._leaf(arm)
        reward = _check_reward(reward)
        fail = 1.0 - reward
        s, f, slot, parent = self._sv, self._fv, self._slot, self._parent
        while v >= 0:
            i = slot[v]
            s[i] += reward
            f[i] += fail
            v = parent[v]
        self._moved(leaf)


class ThompsonSampling(HierarchicalThompsonSampling):
    """Beta-Bernoulli Thompson sampling over a flat action set, made from an arm count.

    Tree descent on ``ClusterTree.star(n_arms)``: one Beta(s, f) belief per
    arm (leaf a+1) from the uniform prior, one sampled expected reward per
    arm each round, and the argmax is played.
    """

    key = "ts"
    flat = True
    needs = "bernoulli"


class ClusteredThompsonSampling(ThompsonSampling):
    """Two-level Thompson sampling over a disjoint clustering.

    Tree descent on ``ClusterTree.from_labels(labels)``: each round
    first samples one expected reward per cluster (node c+1) and commits to
    the argmax cluster, then samples among that cluster's arms only; the
    reward updates both, as on every descent.
    """

    key = "tsc"
    flat = False
    needs = "clustering"


class TsMax(HierarchicalThompsonSampling):
    """Two-level Thompson sampling with best-member cluster proxies.

    Descent on ``ClusterTree.from_labels(labels)`` where each cluster
    (node c+1, in slot c) holds a copy of the belief of its leaf with the
    highest empirical mean s/(s+f) (ties going to the lowest arm id), its
    representative, and the root keeps the prior. Only ``update`` differs
    from ``hts``: it credits the played leaf alone, settles its cluster's
    representative and copies that belief into the cluster's slot; any update
    in cluster c so marks the root's block column c moved.
    """

    key = "tsmax"
    needs = "clustering"

    def __init__(self, arms: ClusterTree) -> None:
        super().__init__(arms)
        ptr = self.tree.ptr
        # Each cluster's representative (a leaf slot), kept by update for the played cluster only;
        # at the uniform prior each cluster's first leaf, whose belief its cluster's slot already holds.
        self._reps = ptr[1:ptr[1] + 1].tolist()

    def _best_member(self, cluster: int) -> int:
        lo, hi = self._ptr[cluster + 1], self._ptr[cluster + 2]
        s, f = self._s[lo:hi], self._f[lo:hi]
        return lo + int(np.argmax(s / (s + f)))  # first maximum: the lowest arm id

    def update(self, arm: int, reward: float) -> None:
        leaf = self._leaf(arm)
        reward = _check_reward(reward)
        s, f, i = self._sv, self._fv, self._slot[leaf]
        before = s[i] / (s[i] + f[i])
        s[i] += reward
        f[i] += 1.0 - reward
        reps, cluster = self._reps, self._parent[leaf] - 1
        mean = s[i] / (s[i] + f[i])
        rep = reps[cluster]
        if rep == i and mean < before:  # the representative fell: re-take the cluster
            rep = reps[cluster] = self._best_member(cluster)
        elif rep != i:  # only this leaf moved: it wins on a higher mean, or a tie and a lower arm id
            rep_mean = s[rep] / (s[rep] + f[rep])
            if mean > rep_mean or (mean == rep_mean and i < rep):
                rep = reps[cluster] = i
        s[cluster], f[cluster] = s[rep], f[rep]  # the cluster's slot holds its representative's belief
        self._moved(leaf)  # the root's column of the cluster, whose leaf or representative moved


# ---------------------------------------------------------------------------
# UCB family
# ---------------------------------------------------------------------------

def _ucb_index(means: np.ndarray, counts: np.ndarray, log_term: float) -> np.ndarray:
    return means + np.sqrt(2.0 * log_term / counts)


class TreeUcb(BanditPolicy):
    """UCB descent over a cluster tree.

    At each internal node, unvisited children are tried first (lowest index
    in child order, found from a per-node cursor that only moves forward,
    since counts never fall); otherwise the child maximizing
    mean + sqrt(2 log_term / N_child) is taken. The reward and one visit
    propagate to every node from the played leaf up to the root. The log term is the only
    thing the UCB policies change: log N_parent here, the global log t for
    ``ucb1`` and ``ucbc``.
    """

    key = "uct"
    needs = "tree"

    def __init__(self, arms: int | ClusterTree) -> None:
        super().__init__(arms)
        self._n = np.zeros(self.tree.n_nodes)  # per node in tree.slot order, as for hts
        self._q = np.zeros(self.tree.n_nodes)
        # per node, by its slot: the offset below which every child has been visited (counts never fall)
        self._first_unvisited = np.zeros(self.tree.n_nodes, dtype=np.int64)
        self._bind()

    def _bind(self) -> None:
        super()._bind()
        self._nv, self._qv, self._cursor = memoryview(self._n), memoryview(self._q), memoryview(self._first_unvisited)

    def _log_term(self, t: int, parent_count: float) -> float:
        return math.log(parent_count)

    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        nv, cursor = self._nv, self._cursor
        i = cursor[at]
        if lo + i < hi:  # the lowest unvisited child, if any, sits at or after the cursor
            while lo + i < hi and nv[lo + i]:
                i += 1
            cursor[at] = i
            if lo + i < hi:
                return i
        # no unvisited child: the UCB index decides
        log_term = self._log_term(t, nv[at])
        if hi - lo <= _NARROW:
            bonus = 2.0 * log_term
            index = [m + math.sqrt(bonus / c) for m, c in zip(self._qv[lo:hi].tolist(), nv[lo:hi].tolist())]
            return _random_argmax_list(index, rng)
        return random_argmax(_ucb_index(self._q[lo:hi], self._n[lo:hi], log_term), rng)

    def update(self, arm: int, reward: float) -> None:
        v = self._leaf(arm)
        reward = _check_reward(reward)
        n, q, slot, parent = self._nv, self._qv, self._slot, self._parent
        while v >= 0:
            i = slot[v]
            n[i] += 1.0
            q[i] += (reward - q[i]) / n[i]
            v = parent[v]


class Ucb1(TreeUcb):
    """UCB1, made from an arm count: empirical mean plus sqrt(2 ln t / N) exploration bonus.

    Descent on ``ClusterTree.star(n_arms)`` with the global log t: plays each
    arm (leaf a+1) once first, lowest index first, then the argmax index with
    uniform tie-breaking.
    """

    key = "ucb1"
    flat = True
    needs = "bernoulli"

    def _log_term(self, t: int, parent_count: float) -> float:
        return math.log(t)


class ClusteredUcb1(Ucb1):
    """Two-level UCB1 over a disjoint clustering.

    Descent on ``ClusterTree.from_labels(labels)`` with the global
    log t: the UCB1 index, with the play-once rule, picks a cluster (node
    c+1, whose statistics aggregate every reward observed from it) and then
    one of its arms.
    """

    key = "ucbc"
    flat = False
    needs = "clustering"


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

def check_params(key: str, params: dict | None) -> dict:
    """The parameters as ``core.typed`` reads them; an unknown key or parameter or a bad value raises ValueError.

    A class accepts only the ``params`` it declares, so configuration typos
    surface early: none for the Bernoulli policies, ``v`` for the contextual
    Thompson ones and ``alpha`` for the contextual UCB ones.
    """
    if key not in POLICY_KEYS:
        raise ValueError(f"unknown policy key '{key}'; valid keys: {sorted(POLICY_KEYS)}")
    accepted, params = POLICY_KEYS[key].params, params or {}
    unknown = set(params) - set(accepted)
    if unknown:
        raise ValueError(f"policy '{key}' does not accept parameters {sorted(unknown)}")
    read = {name: typed(name, value, accepted[name][0]) for name, value in params.items()}
    for name, value in read.items():
        accepted[name][1](value)
    return read


def make_policy(key: str, instance, params: dict | None = None) -> BanditPolicy:
    """Instantiate a policy by string key for a given instance, with the parameters :func:`check_params` reads.

    Flat policies take the instance's arm count, the others its tree; contextual policies also take its
    dimension.
    """
    params = check_params(key, params)
    cls = POLICY_KEYS[key]
    if not cls.accepts(instance.structure):
        raise ValueError(f"policy '{key}' needs a {cls.needs} instance, got a {instance.structure} instance")
    arms = instance.n_arms if cls.flat else instance.tree
    args = (arms, instance.dim) if cls.needs == "contextual" else (arms,)
    return cls(*args, **params)
