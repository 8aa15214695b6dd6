"""Core domain types for bandits with clustered arms.

Defines the Bernoulli instance / clustering / tree containers shared by
every policy, the seeded-randomness contract, the simulation trace, and
``typed``, the one rule every value read from a config or spec passes.
"""
from __future__ import annotations

import numbers
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "DisjointClustering",
    "ClusterTree",
    "BanditInstance",
    "SimulationTrace",
    "RngStreams",
    "rng_streams",
    "random_argmax",
    "draw_reward",
    "typed",
]


_TYPE_NAMES = {int: "an integer", float: "a number", str: "a string", bool: "a boolean",
               list: "a list", dict: "an object"}


def typed(field: str, value, kind: type):
    """``value`` as ``kind``, else a ValueError ``<field>: must be an integer, got <value!r>``.

    An integer (``int``) is any integral real number and a number (``float``) any real one, never a bool, and
    each comes back as ``kind``; ``str``, ``bool`` and ``dict`` take exactly their type, ``list`` a list or tuple.
    """
    numeric = kind is int or kind is float
    ok = isinstance(value, numbers.Real) and not isinstance(value, bool) if numeric else \
        isinstance(value, (list, tuple) if kind is list else kind)
    if not ok or (kind is int and not isinstance(value, numbers.Integral) and not float(value).is_integer()):
        raise ValueError(f"{field}: must be {_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value) if numeric else value


# ---------------------------------------------------------------------------
# Randomness contract
# ---------------------------------------------------------------------------

class RngStreams(NamedTuple):
    """Independent generator streams derived from one master seed.

    ``instance`` feeds instance generation, ``simulation`` feeds policy
    sampling and reward draws, ``context`` feeds per-round context vectors.
    The streams are split by fixed offsets so that changing the policy (or
    how much randomness it consumes) never perturbs the generated instance
    or the context sequence: paired comparisons across algorithms see the
    identical environment realization for a given seed.
    """

    instance: np.random.Generator
    simulation: np.random.Generator
    context: np.random.Generator


def rng_streams(seed: int) -> RngStreams:
    """Split a master seed into the three fixed sub-streams."""
    return RngStreams(
        instance=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0,))),
        simulation=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(1,))),
        context=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(2,))),
    )


def random_argmax(values: np.ndarray, rng: np.random.Generator) -> int:
    """Index of the maximum value, ties broken uniformly at random.

    The RNG is consumed only when there actually is a tie, so policies with
    continuous samples stay byte-reproducible regardless of tie handling.
    """
    best = int(values.argmax())
    tied = values == values[best]
    if np.count_nonzero(tied) > 1:
        ties = np.flatnonzero(tied)
        return int(ties[rng.integers(ties.size)])
    return best


def _random_argmax_list(values: list[float], rng: np.random.Generator) -> int:
    """:func:`random_argmax` of a list of floats: the same index and the same generator use."""
    best = max(values)
    if values.count(best) > 1:
        ties = [i for i, v in enumerate(values) if v == best]
        return ties[rng.integers(len(ties))]
    return values.index(best)


# ---------------------------------------------------------------------------
# Arms, clusterings, trees
# ---------------------------------------------------------------------------

class DisjointClustering:
    """Partition of arms into non-empty clusters.

    Parameters
    ----------
    labels : sequence of int
        ``labels[a]`` is the cluster id of arm ``a``. Cluster ids must be
        exactly ``0..n_clusters-1`` with every cluster non-empty.
    """

    def __init__(self, labels: Sequence[int]) -> None:
        labels = np.asarray(labels, dtype=np.int64)
        if labels.ndim != 1 or labels.size == 0:
            raise ValueError("labels must be a non-empty 1-D sequence")
        n_clusters = int(labels.max()) + 1
        if labels.min() < 0:
            raise ValueError("cluster ids must be non-negative")
        counts = np.bincount(labels, minlength=n_clusters)
        if (counts == 0).any():
            empty = np.flatnonzero(counts == 0).tolist()
            raise ValueError(f"empty clusters: {empty}")
        # Arm ids by cluster, ascending within each: cluster c is _arms[_first[c]:_first[c+1]].
        self._labels, self._arms = labels, np.argsort(labels, kind="stable")
        self._first = np.concatenate(([0], np.cumsum(counts)))
        for a in (self._labels, self._arms, self._first):
            a.setflags(write=False)

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def n_arms(self) -> int:
        return int(self._labels.size)

    @property
    def n_clusters(self) -> int:
        return self._first.size - 1

    def label_of(self, arm: int) -> int:
        return int(self._labels[arm])

    def members(self, cluster: int) -> np.ndarray:
        """Arm ids of a cluster, ascending."""
        return self._arms[self._first[cluster]:self._first[cluster + 1]]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DisjointClustering) and np.array_equal(
            self._labels, other._labels
        )

    def __repr__(self) -> str:
        return f"DisjointClustering(n_arms={self.n_arms}, n_clusters={self.n_clusters})"


class ClusterTree:
    """Rooted tree whose leaves are arms, held as flat read-only arrays.

    Node 0 is the root. The children of node ``v`` are
    ``kids[ptr[v]:ptr[v+1]]``, in a fixed order (the order matters for
    deterministic initialization rules in UCB-style tree policies).
    ``slot[v]`` is v's position in ``kids``, and the root takes the last
    slot, ``n_nodes - 1``: values kept in slot order hold every node's
    children as one contiguous run. ``leaf_arms[v]`` is the arm id mapped to
    a leaf node, or -1 for internal nodes. Every arm maps to exactly one leaf
    and every leaf to exactly one arm. The arms under each node are one slice
    of a single depth-first ordered arm array.
    """

    def __init__(self, children: Sequence[Sequence[int]], leaf_arms: Sequence[int]) -> None:
        n_nodes = len(children)
        if len(leaf_arms) != n_nodes:
            raise ValueError("children and leaf_arms must have equal length")
        ptr = np.cumsum([0, *map(len, children)], dtype=np.int64)
        kids = np.array([c for row in children for c in row], dtype=np.int64)
        self._set_arrays(ptr, kids, np.array(leaf_arms, dtype=np.int64))

    @classmethod
    def from_csr(cls, ptr: np.ndarray, kids: np.ndarray, leaf_arms: np.ndarray) -> "ClusterTree":
        """Tree whose node v has the children ``kids[ptr[v]:ptr[v+1]]``; keeps the arrays read-only."""
        tree = cls.__new__(cls)
        tree._set_arrays(*(np.asarray(a, dtype=np.int64) for a in (ptr, kids, leaf_arms)))
        return tree

    def _set_arrays(self, ptr: np.ndarray, kids: np.ndarray, leaf_arms: np.ndarray) -> None:
        n_nodes = leaf_arms.size
        if n_nodes == 0:
            raise ValueError("tree must have at least one node")
        n_kids = np.diff(ptr)
        if ptr.shape != (n_nodes + 1,) or ptr[0] != 0 or ptr[-1] != kids.size or (n_kids < 0).any():
            raise ValueError("ptr must rise from 0 to len(kids) in n_nodes + 1 offsets")
        if not np.array_equal(np.sort(kids), np.arange(1, n_nodes)):
            raise ValueError("malformed adjacency: each node but the root must be one node's child")
        owner = np.repeat(np.arange(n_nodes), n_kids)  # the parent of kids[i]
        parent = np.full(n_nodes, -1, dtype=np.int64)
        parent[kids] = owner

        # Breadth-first levels; with one parent per node, nodes on a cycle
        # are never reached from the root.
        levels = []
        level = np.zeros(1, dtype=np.int64)
        while level.size:
            levels.append(level)
            counts = n_kids[level]
            ends = np.cumsum(counts)
            level = kids[np.arange(ends[-1]) + np.repeat(ptr[level] - ends + counts, counts)]
        if sum(map(len, levels)) != n_nodes:
            raise ValueError("tree has unreachable nodes")
        depth = np.empty(n_nodes, dtype=np.int64)
        for d, level in enumerate(levels):
            depth[level] = d

        is_leaf = n_kids == 0
        if ((leaf_arms >= 0) != is_leaf).any():
            raise ValueError("leaf/arm mapping must cover exactly the leaf nodes")
        leaves = np.flatnonzero(is_leaf)
        arms = leaf_arms[leaves]
        if not np.array_equal(np.sort(arms), np.arange(arms.size)):
            raise ValueError("leaf arms must be a bijection onto 0..n_arms-1")
        leaf_of_arm = np.empty(arms.size, dtype=np.int64)
        leaf_of_arm[arms] = leaves

        # Arms under each node: their count bottom-up, then the first
        # depth-first position top-down (a child starts after its earlier siblings).
        n_under = is_leaf.astype(np.int64)
        for level in reversed(levels[1:]):
            np.add.at(n_under, parent[level], n_under[level])
        before = np.cumsum(n_under[kids]) - n_under[kids]
        first = np.zeros(n_nodes, dtype=np.int64)
        first[kids] = before - before[ptr[owner]]
        for level in levels[1:]:
            first[level] += first[parent[level]]
        dfs_arms = np.empty(arms.size, dtype=np.int64)
        dfs_arms[first[leaves]] = arms

        slot = np.empty(n_nodes, dtype=np.int64)
        slot[kids] = np.arange(kids.size)
        slot[0] = n_nodes - 1
        for a in (ptr, kids, slot, parent, depth, leaf_arms, leaf_of_arm, dfs_arms, first, n_under):
            a.setflags(write=False)
        self.ptr, self.kids, self.slot, self.parent = ptr, kids, slot, parent
        self.leaf_arms, self._leaf_of_arm, self._depths = leaf_arms, leaf_of_arm, depth
        self._dfs_arms, self._first, self._n_under = dfs_arms, first, n_under

    @classmethod
    def star(cls, n_arms: int) -> "ClusterTree":
        """One-level tree: the root's children are leaves 1..n_arms, leaf a+1 holding arm a."""
        if n_arms < 1:
            raise ValueError("need at least one arm")
        ptr = np.full(n_arms + 2, n_arms, dtype=np.int64)
        ptr[0] = 0
        return cls.from_csr(ptr, np.arange(1, n_arms + 1), np.arange(-1, n_arms))

    @classmethod
    def from_clustering(cls, clustering: DisjointClustering) -> "ClusterTree":
        """Two-level tree of a clustering: cluster c is node c+1 under the root.

        Leaves follow the clusters, cluster by cluster in ascending arm order,
        so every node's children are one ascending contiguous run of ids.
        """
        k, n = clustering.n_clusters, clustering.n_arms
        ptr = np.concatenate(([0], k + clustering._first, np.full(n, k + n)))
        leaf_arms = np.concatenate((np.full(k + 1, -1), clustering._arms))
        return cls.from_csr(ptr, np.arange(1, k + n + 1), leaf_arms)

    @property
    def n_nodes(self) -> int:
        return int(self.leaf_arms.size)

    @property
    def n_arms(self) -> int:
        return int(self._leaf_of_arm.size)

    @property
    def root(self) -> int:
        return 0

    @property
    def depth(self) -> int:
        """Maximum leaf depth (levels below the root)."""
        return int(self._depths.max())

    def children(self, node: int) -> np.ndarray:
        return self.kids[self.ptr[node]:self.ptr[node + 1]]

    def leaf_of_arm(self, arm: int) -> int:
        return int(self._leaf_of_arm[arm])

    def arms_under(self, node: int) -> np.ndarray:
        """All arm ids in the subtree rooted at ``node``, in depth-first order."""
        first = self._first[node]
        return self._dfs_arms[first:first + self._n_under[node]]

    def node_depth(self, node: int) -> int:
        return int(self._depths[node])

    def path_to_root(self, node: int) -> list[int]:
        path = [node]
        while self.parent[path[-1]] >= 0:
            path.append(int(self.parent[path[-1]]))
        return path

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClusterTree)
            and np.array_equal(self.ptr, other.ptr)
            and np.array_equal(self.kids, other.kids)
            and np.array_equal(self.leaf_arms, other.leaf_arms)
        )

    def __repr__(self) -> str:
        return (
            f"ClusterTree(n_nodes={self.n_nodes}, n_arms={self.n_arms}, "
            f"depth={self.depth})"
        )


# ---------------------------------------------------------------------------
# Bandit instances
# ---------------------------------------------------------------------------

class BanditInstance:
    """A set of Bernoulli arms with an optional clustering or cluster tree.

    The arms are held as one read-only array of means. At most one of
    ``clustering`` / ``tree`` may be present; neither means a flat
    multi-armed bandit.
    """

    def __init__(
        self,
        means: Sequence[float],
        clustering: DisjointClustering | None = None,
        tree: ClusterTree | None = None,
    ) -> None:
        means = np.array(means, dtype=np.float64)
        if means.ndim != 1 or means.size == 0:
            raise ValueError("instance needs a non-empty 1-D array of arm means")
        outside = np.flatnonzero(~((means >= 0.0) & (means <= 1.0)))  # NaN is outside
        if outside.size:
            arm = int(outside[0])
            raise ValueError(f"arm {arm}: mean {means[arm]} outside [0, 1]")
        if clustering is not None and tree is not None:
            raise ValueError("instance may have a clustering or a tree, not both")
        if clustering is not None and clustering.n_arms != means.size:
            raise ValueError("clustering size does not match arm count")
        if tree is not None and tree.n_arms != means.size:
            raise ValueError("tree leaf count does not match arm count")
        self.clustering = clustering
        self.tree = tree
        self._means = means
        self._means.setflags(write=False)

    @property
    def n_arms(self) -> int:
        return int(self._means.size)

    @property
    def means(self) -> np.ndarray:
        return self._means

    @property
    def optimal_arm(self) -> int:
        """Lowest-indexed arm with maximal mean."""
        return int(np.argmax(self._means))

    @property
    def optimal_mean(self) -> float:
        return float(self._means.max())

    @property
    def has_unique_optimum(self) -> bool:
        return int((self._means == self._means.max()).sum()) == 1

    @property
    def structure(self) -> str:
        """``"clustering"``, ``"tree"`` or ``"flat"``, as ``instances.spec_structure`` names a spec's."""
        return "clustering" if self.clustering is not None else "tree" if self.tree is not None else "flat"

    def __repr__(self) -> str:
        return f"BanditInstance(n_arms={self.n_arms}, structure={self.structure})"


def draw_reward(instance: BanditInstance, arm: int, rng: np.random.Generator) -> float:
    """Bernoulli reward draw for one arm: 1.0 or 0.0."""
    if not 0 <= arm < instance.n_arms:
        raise ValueError(f"unknown arm id {arm}")
    return 1.0 if rng.random() < instance._means[arm] else 0.0


# ---------------------------------------------------------------------------
# Simulation traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one simulation run.

    ``arms[t]`` is the arm played at step t+1; its root-to-leaf path is the
    policy tree's path to that arm's leaf. ``cum_regret[t]`` is the
    cumulative pseudo-regret after step t+1: the ``np.cumsum`` of each chosen
    arm's gap to the best expected reward, added in step order.
    """

    seed: int | None
    arms: np.ndarray
    rewards: np.ndarray
    cum_regret: np.ndarray

    def __post_init__(self) -> None:
        n = self.arms.shape[0]
        if self.rewards.shape != (n,) or self.cum_regret.shape != (n,):
            raise ValueError("trace arrays must share one horizon")

    @property
    def horizon(self) -> int:
        return int(self.arms.shape[0])
