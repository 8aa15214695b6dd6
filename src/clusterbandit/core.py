"""Core domain types for bandits with clustered arms.

Defines the Bernoulli arm / clustering / tree containers shared by every
policy, the Beta belief view that Thompson-sampling policies report, the
seeded-randomness contract, and regret accounting on simulation traces.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "BernoulliArm",
    "DisjointClustering",
    "ClusterTree",
    "BetaBelief",
    "BanditInstance",
    "SimulationTrace",
    "RngStreams",
    "rng_streams",
    "random_argmax",
    "draw_reward",
    "regret_of",
]


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


# ---------------------------------------------------------------------------
# Arms, clusterings, trees
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BernoulliArm:
    """A single action with Bernoulli(mean) rewards."""

    id: int
    mean: float

    def __post_init__(self) -> None:
        if not (0.0 <= self.mean <= 1.0):
            raise ValueError(f"arm {self.id}: mean {self.mean} outside [0, 1]")


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
        self._labels = labels
        self._labels.setflags(write=False)
        self._members = [np.flatnonzero(labels == c) for c in range(n_clusters)]

    @property
    def labels(self) -> np.ndarray:
        return self._labels

    @property
    def n_arms(self) -> int:
        return int(self._labels.size)

    @property
    def n_clusters(self) -> int:
        return len(self._members)

    def label_of(self, arm: int) -> int:
        return int(self._labels[arm])

    def members(self, cluster: int) -> np.ndarray:
        """Arm ids of a cluster, ascending."""
        return self._members[cluster]

    def __eq__(self, other: object) -> bool:
        return isinstance(other, DisjointClustering) and np.array_equal(
            self._labels, other._labels
        )

    def __repr__(self) -> str:
        return f"DisjointClustering(n_arms={self.n_arms}, n_clusters={self.n_clusters})"


class ClusterTree:
    """Rooted tree whose leaves are arms.

    Node 0 is the root. ``children[v]`` lists the children of node ``v`` in
    a fixed order (the order matters for deterministic initialization rules
    in UCB-style tree policies). ``leaf_arms[v]`` is the arm id mapped to a
    leaf node, or -1 for internal nodes. Every arm maps to exactly one leaf
    and every leaf to exactly one arm.
    """

    def __init__(self, children: Sequence[Sequence[int]], leaf_arms: Sequence[int]) -> None:
        n_nodes = len(children)
        if n_nodes == 0:
            raise ValueError("tree must have at least one node")
        if len(leaf_arms) != n_nodes:
            raise ValueError("children and leaf_arms must have equal length")
        self._children = [np.asarray(kids, dtype=np.int64) for kids in children]
        self._leaf_arms = np.asarray(leaf_arms, dtype=np.int64)
        self._leaf_arms.setflags(write=False)

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
        self._parent.setflags(write=False)
        self._depths = depth

        is_leaf = np.array([kids.size == 0 for kids in self._children])
        if ((self._leaf_arms >= 0) != is_leaf).any():
            raise ValueError("leaf/arm mapping must cover exactly the leaf nodes")
        arms = self._leaf_arms[is_leaf]
        n_arms = arms.size
        if n_arms == 0 or not np.array_equal(np.sort(arms), np.arange(n_arms)):
            raise ValueError("leaf arms must be a bijection onto 0..n_arms-1")
        self._leaf_of_arm = np.empty(n_arms, dtype=np.int64)
        self._leaf_of_arm[arms] = np.flatnonzero(is_leaf)

        # Arms under each subtree, computed bottom-up in reverse BFS order.
        under: list[np.ndarray] = [np.empty(0, dtype=np.int64)] * n_nodes
        for v in reversed(order):
            if is_leaf[v]:
                under[v] = np.asarray([self._leaf_arms[v]], dtype=np.int64)
            else:
                under[v] = np.concatenate([under[int(c)] for c in self._children[v]])
        self._arms_under = under

    @classmethod
    def star(cls, n_arms: int) -> "ClusterTree":
        """One-level tree: the root's children are leaves 1..n_arms, leaf a+1 holding arm a."""
        if n_arms < 1:
            raise ValueError("need at least one arm")
        return cls([range(1, n_arms + 1)] + [()] * n_arms, [-1, *range(n_arms)])

    @classmethod
    def from_clustering(cls, clustering: DisjointClustering) -> "ClusterTree":
        """Two-level tree of a clustering: cluster c is node c+1 under the root.

        Leaves follow the clusters, cluster by cluster in ascending arm order,
        so every node's children are one ascending contiguous run of ids.
        """
        k = clustering.n_clusters
        children: list[Sequence[int]] = [range(1, k + 1)]
        leaf_arms = [-1] * (k + 1)
        for c in range(k):
            members = clustering.members(c).tolist()
            children.append(range(len(leaf_arms), len(leaf_arms) + len(members)))
            leaf_arms += members
        return cls(children + [()] * clustering.n_arms, leaf_arms)

    @property
    def n_nodes(self) -> int:
        return len(self._children)

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

    @property
    def parent(self) -> np.ndarray:
        return self._parent

    @property
    def leaf_arms(self) -> np.ndarray:
        return self._leaf_arms

    def children(self, node: int) -> np.ndarray:
        return self._children[node]

    def is_leaf(self, node: int) -> bool:
        return self._children[node].size == 0

    def arm_of_leaf(self, node: int) -> int:
        arm = int(self._leaf_arms[node])
        if arm < 0:
            raise ValueError(f"node {node} is not a leaf")
        return arm

    def leaf_of_arm(self, arm: int) -> int:
        return int(self._leaf_of_arm[arm])

    def arms_under(self, node: int) -> np.ndarray:
        """All arm ids in the subtree rooted at ``node``."""
        return self._arms_under[node]

    def node_depth(self, node: int) -> int:
        return int(self._depths[node])

    def path_to_root(self, node: int) -> list[int]:
        path = [node]
        while self._parent[path[-1]] >= 0:
            path.append(int(self._parent[path[-1]]))
        return path

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ClusterTree)
            and len(self._children) == len(other._children)
            and all(np.array_equal(a, b) for a, b in zip(self._children, other._children))
            and np.array_equal(self._leaf_arms, other._leaf_arms)
        )

    def __repr__(self) -> str:
        return (
            f"ClusterTree(n_nodes={self.n_nodes}, n_arms={self.n_arms}, "
            f"depth={self.depth})"
        )


# ---------------------------------------------------------------------------
# Beta beliefs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BetaBelief:
    """Beta(s, f) posterior over a Bernoulli mean.

    Pseudo-counts are real-valued so rewards in [0, 1] (not just {0, 1})
    update cleanly; binary rewards keep them integral. Both counts start at
    one (uniform prior) and never drop below one.
    """

    s: float = 1.0
    f: float = 1.0

    def __post_init__(self) -> None:
        if not (np.isfinite(self.s) and np.isfinite(self.f)):
            raise ValueError("pseudo-counts must be finite")
        if self.s < 1.0 or self.f < 1.0:
            raise ValueError(f"pseudo-counts must be >= 1, got ({self.s}, {self.f})")


# ---------------------------------------------------------------------------
# Bandit instances
# ---------------------------------------------------------------------------

class BanditInstance:
    """A set of Bernoulli arms with an optional clustering or cluster tree.

    At most one of ``clustering`` / ``tree`` may be present; neither means a
    flat multi-armed bandit.
    """

    def __init__(
        self,
        arms: Sequence[BernoulliArm],
        clustering: DisjointClustering | None = None,
        tree: ClusterTree | None = None,
    ) -> None:
        if len(arms) == 0:
            raise ValueError("instance needs at least one arm")
        ids = [a.id for a in arms]
        if ids != list(range(len(arms))):
            raise ValueError("arm ids must be 0..N-1 in order")
        if clustering is not None and tree is not None:
            raise ValueError("instance may have a clustering or a tree, not both")
        if clustering is not None and clustering.n_arms != len(arms):
            raise ValueError("clustering size does not match arm count")
        if tree is not None and tree.n_arms != len(arms):
            raise ValueError("tree leaf count does not match arm count")
        self.arms = tuple(arms)
        self.clustering = clustering
        self.tree = tree
        self._means = np.asarray([a.mean for a in arms], dtype=np.float64)
        self._means.setflags(write=False)

    @classmethod
    def from_means(
        cls,
        means: Sequence[float],
        clustering: DisjointClustering | None = None,
        tree: ClusterTree | None = None,
    ) -> "BanditInstance":
        arms = [BernoulliArm(i, float(m)) for i, m in enumerate(means)]
        return cls(arms, clustering=clustering, tree=tree)

    @property
    def n_arms(self) -> int:
        return len(self.arms)

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

    def __repr__(self) -> str:
        structure = (
            "flat"
            if self.clustering is None and self.tree is None
            else ("clustering" if self.clustering is not None else "tree")
        )
        return f"BanditInstance(n_arms={self.n_arms}, structure={structure})"


def draw_reward(instance: BanditInstance, arm: int, rng: np.random.Generator) -> float:
    """Bernoulli reward draw for one arm: 1.0 or 0.0."""
    if not 0 <= arm < instance.n_arms:
        raise ValueError(f"unknown arm id {arm}")
    return 1.0 if rng.random() < instance._means[arm] else 0.0


def regret_of(instance: BanditInstance, arm: int) -> float:
    """Instantaneous (pseudo-)regret of playing ``arm``: max mean minus its mean.

    Defined against the maximum even when the maximum is tied; audits flag
    non-unique optima separately.
    """
    if not 0 <= arm < instance.n_arms:
        raise ValueError(f"unknown arm id {arm}")
    return float(instance._means.max() - instance._means[arm])


# ---------------------------------------------------------------------------
# Simulation traces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimulationTrace:
    """Per-step record of one simulation run.

    ``paths`` holds each step's ``Choice.path``, padded with -1: a cluster
    id for ``tsmax``, ``ucbc`` and the clustered contextual policies, a
    root-to-leaf node path for tree descents (``hts``, ``uct``, and ``tsc``
    with ``(0, c+1, leaf)``); None for flat policies. ``cum_regret[t]`` is the
    cumulative pseudo-regret after step t+1 and equals the running sum of
    ``regret_of`` over the chosen arms.
    """

    seed: int | None
    arms: np.ndarray
    rewards: np.ndarray
    cum_regret: np.ndarray
    paths: np.ndarray | None = None

    def __post_init__(self) -> None:
        n = self.arms.shape[0]
        if self.rewards.shape != (n,) or self.cum_regret.shape != (n,):
            raise ValueError("trace arrays must share one horizon")
        if self.paths is not None and self.paths.shape[0] != n:
            raise ValueError("paths must match the horizon")

    @property
    def horizon(self) -> int:
        return int(self.arms.shape[0])

    def top_level_counts(self, n_entities: int) -> np.ndarray:
        """Plays per first path element, e.g. per cluster for ``tsmax``.

        Tree paths all start at the root; ``RunRow.top_counts`` counts root children.
        """
        if self.paths is None:
            raise ValueError("trace has no cluster paths")
        return np.bincount(self.paths[:, 0], minlength=n_entities)
