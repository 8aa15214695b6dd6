"""Synthetic instance generators, clustering routines, and instance audits.

Generators cover: separation/width-controlled clustered instances where the
optimal cluster dominates every other cluster, sorted balanced binary trees
over uniform arms, k-means clusterings (flat and recursively refined trees)
over smooth reward landscapes, agglomerative merge trees, uncorrelated
uniform instances, and linear contextual instances with perturbed cluster
centroids.

Every generator is a pure function of (spec, seed stream): identical seeds
reproduce identical instances. Instances serialize to JSON for exact replay.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .analysis import ClusterStats, cluster_stats
from .contextual import ContextualInstance
from .core import BanditInstance, ClusterTree, DisjointClustering

__all__ = [
    "REWARD_FUNCTIONS",
    "reward_function",
    "evaluate_reward_fn",
    "StrongDominanceSpec",
    "ContextualSpec",
    "gen_strong_dominance",
    "sorted_tree_from_means",
    "gen_sorted_binary_tree",
    "truncate_tree",
    "gen_kmeans_instance",
    "gen_kmeans_tree",
    "gen_agglomerative_tree",
    "gen_agglomerative_instance",
    "gen_uniform_instance",
    "gen_contextual",
    "gen_context",
    "kmeans",
    "kmeans_distortion",
    "DominanceReport",
    "verify_strong_dominance",
    "instance_to_json",
    "instance_from_json",
    "spec_structure",
    "build_instance",
]


# ---------------------------------------------------------------------------
# Reward landscapes
# ---------------------------------------------------------------------------

def _sin_product(features: np.ndarray) -> np.ndarray:
    x = features[:, 0]
    return 0.5 * (np.sin(13.0 * x) * np.sin(27.0 * x) + 1.0)


def _gaussian_mix_1d(features: np.ndarray) -> np.ndarray:
    x = features[:, 0]
    return 0.5 * (
        np.exp(-((0.1 - x) ** 2) / 0.05) + np.exp(-((0.9 - x) ** 2) / 0.8)
    )


def _bump_2d(features: np.ndarray) -> np.ndarray:
    x1, x2 = features[:, 0], features[:, 1]
    return (
        0.5 * np.exp(-100.0 * (0.2 - x1) ** 2)
        + 0.2 * np.exp(-100.0 * (0.7 - x1) ** 2)
        + 0.2 * np.exp(-100.0 * (0.7 - x2) ** 2)
    )


REWARD_FUNCTIONS: dict[str, tuple[Callable[[np.ndarray], np.ndarray], int]] = {
    "sin-product": (_sin_product, 1),
    "gaussian-mix-1d": (_gaussian_mix_1d, 1),
    "bump-2d": (_bump_2d, 2),
}


def reward_function(fn_id: str) -> tuple[Callable[[np.ndarray], np.ndarray], int]:
    """Look up a reward landscape by id, returning (function, feature dim)."""
    if fn_id not in REWARD_FUNCTIONS:
        raise ValueError(
            f"unknown reward function '{fn_id}'; valid ids: {sorted(REWARD_FUNCTIONS)}"
        )
    return REWARD_FUNCTIONS[fn_id]


def evaluate_reward_fn(fn_id: str, points: np.ndarray) -> np.ndarray:
    """Evaluate a reward landscape on an (n, dim) array of feature points."""
    fn, dim = reward_function(fn_id)
    points = np.atleast_2d(np.asarray(points, dtype=np.float64))
    if points.shape[1] != dim:
        raise ValueError(f"'{fn_id}' expects {dim}-d features, got {points.shape[1]}-d")
    return fn(points)


# ---------------------------------------------------------------------------
# Specs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StrongDominanceSpec:
    """Parameters of the dominance-by-construction generator.

    The optimal cluster holds ``optimal_cluster_size`` arms spanning exactly
    ``optimal_width`` below a 0.6 peak; each of the ``n_suboptimal_clusters``
    other clusters tops out exactly ``separation`` below the optimal
    cluster's worst arm and spans 0.1.
    """

    n_arms: int
    n_suboptimal_clusters: int
    optimal_cluster_size: int
    optimal_width: float
    separation: float

    def __post_init__(self) -> None:
        if self.optimal_cluster_size < 2:
            raise ValueError("optimal cluster needs at least 2 arms")
        if self.n_suboptimal_clusters < 1:
            raise ValueError("need at least one sub-optimal cluster")
        if self.n_arms - self.optimal_cluster_size < self.n_suboptimal_clusters:
            raise ValueError("not enough arms to populate every sub-optimal cluster")
        if not (0.0 <= self.optimal_width < 1.0):
            raise ValueError("optimal_width must be in [0, 1)")
        if self.separation <= 0.0:
            raise ValueError("separation must be positive")
        if 0.5 - self.optimal_width - self.separation < -1e-12:
            raise ValueError(
                "0.5 - optimal_width - separation must be >= 0 to keep means in [0, 1]"
            )


@dataclass(frozen=True)
class ContextualSpec:
    """Parameters of the linear contextual generator."""

    n_arms: int
    n_clusters: int
    dim: int = 5
    epsilon: float = 0.5

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.epsilon < 0:
            raise ValueError("epsilon must be >= 0")
        if not (1 <= self.n_clusters <= self.n_arms):
            raise ValueError("need 1 <= n_clusters <= n_arms")


# ---------------------------------------------------------------------------
# k-means
# ---------------------------------------------------------------------------

def _kmeans_pp_init(points: np.ndarray, k: int, rng: np.random.Generator) -> np.ndarray:
    """k-means++ seeds.

    Each D^2 draw is ``rng.choice(n, p=d2 / total)``'s own arithmetic
    (cumulative sum, normalised, one uniform, right-side search) without its
    per-call checks of ``p``; ``kmeans`` rejects non-finite points instead.
    """
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        if total <= 0.0:
            idx = int(rng.integers(n))
        else:
            cdf = (d2 / total).cumsum()
            cdf /= cdf[-1]
            idx = int(cdf.searchsorted(rng.random(), side="right"))
        centroids[i] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


def kmeans(
    points: np.ndarray, k: int, rng: np.random.Generator, max_iter: int = 100
) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding.

    Returns cluster labels in 0..k-1. Iterates until the assignment is
    stable or ``max_iter`` passes, whichever comes first; an emptied cluster
    is re-seeded to the point farthest from its current centroid. Raises
    ValueError for NaN or infinite points.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    if not np.isfinite(points).all():
        raise ValueError("points: k-means needs finite coordinates")
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if k == n:
        return np.arange(n, dtype=np.int64)

    centroids = _kmeans_pp_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        # Each cluster's points as one block, in ascending point order (the
        # stable sort), so each mean adds the same rows in the same order as
        # ``points[labels == c].mean(axis=0)``.
        grouped = points[np.argsort(labels, kind="stable")]
        sizes = np.bincount(labels, minlength=k).tolist()
        start = 0
        for c, m in enumerate(sizes):
            if m:
                centroids[c] = np.add.reduce(grouped[start:start + m], axis=0) / m
                start += m
            else:
                far = int(((points - centroids[c]) ** 2).sum(axis=1).argmax())
                centroids[c] = points[far]
    return labels


def kmeans_distortion(points: np.ndarray, labels: np.ndarray) -> float:
    """Total squared distance of points to their cluster centroids."""
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    out = 0.0
    for c in np.unique(labels):
        block = points[labels == c]
        out += float(((block - block.mean(axis=0)) ** 2).sum())
    return out


# ---------------------------------------------------------------------------
# Flat clustered generators
# ---------------------------------------------------------------------------

def _uniform_nonempty_labels(
    n_items: int, cluster_ids: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Uniform assignment over ``cluster_ids``, re-drawn until none is empty."""
    if n_items < cluster_ids.size:
        raise ValueError("fewer items than clusters")
    while True:
        pick = rng.integers(cluster_ids.size, size=n_items)
        if np.unique(pick).size == cluster_ids.size:
            return cluster_ids[pick]


def gen_strong_dominance(
    spec: StrongDominanceSpec, rng: np.random.Generator
) -> BanditInstance:
    """Instance where every optimal-cluster arm beats every other arm.

    Cluster 0 is the optimal cluster: its best arm has mean 0.6, its worst
    0.6 - w, and the rest are uniform in between. Every other cluster gets a
    best arm at exactly 0.6 - w - d, a worst at 0.5 - w - d when it has two
    or more arms, and the rest uniform in between; membership of the
    remaining arms is uniform over the sub-optimal clusters (re-drawn until
    none is empty). The realized optimal width is exactly w and every
    cluster distance exactly d.
    """
    n, k = spec.n_arms, spec.n_suboptimal_clusters
    a_star = spec.optimal_cluster_size
    w, d = spec.optimal_width, spec.separation

    labels = np.zeros(n, dtype=np.int64)
    labels[a_star:] = _uniform_nonempty_labels(
        n - a_star, np.arange(1, k + 1), rng
    )

    means = np.empty(n)
    means[0] = 0.6
    means[1] = 0.6 - w
    means[2:a_star] = rng.uniform(0.6 - w, 0.6, size=a_star - 2)
    top = 0.6 - w - d
    bottom = 0.5 - w - d
    for c in range(1, k + 1):
        members = np.flatnonzero(labels == c)
        means[members[0]] = top
        if members.size >= 2:
            means[members[1]] = bottom
        if members.size > 2:
            means[members[2:]] = rng.uniform(bottom, top, size=members.size - 2)
    return BanditInstance(means, clustering=DisjointClustering(labels))


def gen_uniform_instance(
    n_arms: int, n_clusters: int, rng: np.random.Generator
) -> BanditInstance:
    """Arms with U(0, 1) means assigned to clusters uniformly (no correlation)."""
    if not (1 <= n_clusters <= n_arms):
        raise ValueError("need 1 <= n_clusters <= n_arms")
    means = rng.uniform(0.0, 1.0, size=n_arms)
    labels = _uniform_nonempty_labels(n_arms, np.arange(n_clusters), rng)
    return BanditInstance(means, clustering=DisjointClustering(labels))


def gen_kmeans_instance(
    n_arms: int, n_clusters: int, reward_fn_id: str, rng: np.random.Generator
) -> BanditInstance:
    """Arms at uniform feature points, clustered by k-means on the features.

    Arm means come from the chosen reward landscape evaluated at the
    features, so nearby arms share similar means but nothing guarantees the
    optimal cluster dominates.
    """
    fn, dim = reward_function(reward_fn_id)
    features = rng.random((n_arms, dim))
    labels = kmeans(features, n_clusters, rng)
    labels = _compact_labels(labels)
    return BanditInstance(fn(features), clustering=DisjointClustering(labels))


def _compact_labels(labels: np.ndarray) -> np.ndarray:
    """Renumber labels to 0..K-1 dropping any unused ids."""
    _, compact = np.unique(labels, return_inverse=True)
    return compact.astype(np.int64)


# ---------------------------------------------------------------------------
# Tree builders
# ---------------------------------------------------------------------------

def _grow(root, expand: Callable[[object], list]) -> ClusterTree:
    """A tree numbered in depth-first preorder, the order a recursive builder numbers it.

    An item is an arm id (a Python int, made a leaf) or a subtree that
    ``expand`` turns into the list of its child items. Items are expanded
    in preorder from an explicit stack, so a builder that draws from a
    generator as it expands keeps its recursive draw order at any depth.
    """
    parent: list[int] = []
    leaf_arms: list[int] = []
    stack = [(root, -1)]
    while stack:
        item, up = stack.pop()
        node = len(parent)
        parent.append(up)
        if isinstance(item, int):
            leaf_arms.append(item)
        else:
            leaf_arms.append(-1)
            stack.extend((child, node) for child in reversed(expand(item)))
    # siblings are numbered in child order, so grouping by parent keeps it
    ups = np.asarray(parent[1:], dtype=np.int64)
    ptr = np.zeros(len(parent) + 1, dtype=np.int64)
    np.cumsum(np.bincount(ups, minlength=len(parent)), out=ptr[1:])
    return ClusterTree.from_csr(ptr, np.argsort(ups, kind="stable") + 1, np.asarray(leaf_arms))


def _balanced_tree(order: np.ndarray) -> ClusterTree:
    order = order.tolist()

    def item(lo: int, hi: int):
        return order[lo] if hi - lo == 1 else (lo, hi)

    def expand(span: tuple[int, int]) -> list:
        lo, hi = span
        mid = lo + (hi - lo + 1) // 2
        return [item(lo, mid), item(mid, hi)]

    return _grow(item(0, len(order)), expand)


def sorted_tree_from_means(means: Sequence[float]) -> BanditInstance:
    """Balanced binary tree over the given arms, leaves ordered by mean.

    Lower means go into the left subtree at every split; with distinct
    means this gives every subtree dominance over its left siblings.
    """
    means = np.asarray(means, dtype=np.float64)
    if means.size < 2:
        raise ValueError("need at least 2 arms")
    order = np.argsort(means, kind="stable")
    return BanditInstance(means, tree=_balanced_tree(order))


def gen_sorted_binary_tree(n_arms: int, rng: np.random.Generator) -> BanditInstance:
    """Uniform arms on (0.1, 0.8) under a mean-sorted balanced binary tree.

    Duplicate mean draws are re-drawn so the tree-level dominance audit
    holds with probability one. Tree depth is ceil(log2 N).
    """
    if n_arms < 2:
        raise ValueError("need at least 2 arms")
    means = rng.uniform(0.1, 0.8, size=n_arms)
    while np.unique(means).size < n_arms:
        means = rng.uniform(0.1, 0.8, size=n_arms)
    return sorted_tree_from_means(means)


def truncate_tree(tree: ClusterTree, levels: int) -> ClusterTree:
    """Tree with the internal structure cut at ``levels`` split levels.

    Nodes above the cutoff keep their structure; every internal node at the
    cutoff depth is replaced by a block whose children are its arms as
    direct leaves. ``levels=0`` yields the flat star (every arm under the
    root), ``levels >= depth`` reproduces the tree.
    """
    if levels < 0:
        raise ValueError("levels must be >= 0")
    leaf_arms = tree.leaf_arms.tolist()

    def item(node: int, depth: int):
        return leaf_arms[node] if leaf_arms[node] >= 0 else (node, depth)

    def expand(node_depth: tuple[int, int]) -> list:
        node, depth = node_depth
        if depth == levels:
            return tree.arms_under(node).tolist()
        return [item(child, depth + 1) for child in tree.children(node).tolist()]

    return _grow(item(tree.root, 0), expand)


def gen_kmeans_tree(
    n_arms: int,
    branching: int,
    depth: int,
    reward_fn_id: str,
    rng: np.random.Generator,
) -> BanditInstance:
    """Recursive k-means refinement of uniform feature points into a tree.

    Each node's arm set is split into up to ``branching`` children by
    k-means on the features, ``depth`` levels deep; arms hang as leaves
    below the deepest clusters. Sets smaller than the branching factor
    split into singletons. ``depth=1`` produces the same partition as
    :func:`gen_kmeans_instance` with ``n_clusters=branching`` on the same
    seed.
    """
    if branching < 2:
        raise ValueError("branching must be >= 2")
    if depth < 1:
        raise ValueError("depth must be >= 1")
    fn, dim = reward_function(reward_fn_id)
    features = rng.random((n_arms, dim))

    def item(arm_ids: np.ndarray, level: int):
        return int(arm_ids[0]) if arm_ids.size == 1 else (arm_ids, level)

    def expand(block: tuple[np.ndarray, int]) -> list:
        arm_ids, level = block
        if level == depth:
            return arm_ids.tolist()
        labels = kmeans(features[arm_ids], min(branching, arm_ids.size), rng)
        blocks = (arm_ids[labels == c] for c in range(int(labels.max()) + 1))
        return [item(block, level + 1) for block in blocks if block.size]

    tree = _grow(item(np.arange(n_arms, dtype=np.int64), 0), expand)
    return BanditInstance(fn(features), tree=tree)


def gen_agglomerative_tree(features: np.ndarray, linkage: str = "single") -> ClusterTree:
    """Binary merge tree from bottom-up agglomeration of feature points."""
    features = np.asarray(features, dtype=np.float64)
    if features.ndim == 1:
        features = features[:, None]
    n = features.shape[0]
    if n < 2:
        raise ValueError("need at least 2 feature points")
    # Imported here, its only use, so importing the package does not load scipy.
    from scipy.cluster.hierarchy import linkage as scipy_linkage

    return _merge_tree(scipy_linkage(features, method=linkage))


def _merge_tree(merges: np.ndarray) -> ClusterTree:
    """The binary tree of a scipy linkage matrix, its final merge the root.

    In scipy's numbering, leaves (arms) are 0..n-1 and merge k creates
    cluster n+k; the tree numbers nodes in preorder, left child first.
    """
    n = len(merges) + 1
    pairs = merges[:, :2].astype(np.int64).tolist()

    def item(cluster: int):
        return cluster if cluster < n else tuple(pairs[cluster - n])

    return _grow(tuple(pairs[-1]), lambda pair: [item(pair[0]), item(pair[1])])


def gen_agglomerative_instance(
    n_arms: int,
    reward_fn_id: str,
    rng: np.random.Generator,
    linkage: str = "single",
) -> BanditInstance:
    """Uniform feature points under an agglomerative merge tree.

    Draws the same features as :func:`gen_kmeans_instance` on the same seed
    so flat and tree structures over one arm population can be paired.
    """
    fn, dim = reward_function(reward_fn_id)
    features = rng.random((n_arms, dim))
    tree = gen_agglomerative_tree(features, linkage=linkage)
    return BanditInstance(fn(features), tree=tree)


# ---------------------------------------------------------------------------
# Contextual generator
# ---------------------------------------------------------------------------

def gen_contextual(spec: ContextualSpec, rng: np.random.Generator) -> ContextualInstance:
    """Linear contextual instance with perturbed cluster centroids.

    Each cluster gets a standard-normal centroid; each arm's coefficient
    vector is its cluster centroid plus epsilon times standard-normal
    noise, so epsilon controls the expected cluster diameter (epsilon=0
    collapses every cluster onto one coefficient vector).
    """
    labels = _uniform_nonempty_labels(spec.n_arms, np.arange(spec.n_clusters), rng)
    centroids = rng.standard_normal((spec.n_clusters, spec.dim))
    theta = centroids[labels] + spec.epsilon * rng.standard_normal(
        (spec.n_arms, spec.dim)
    )
    return ContextualInstance(theta, DisjointClustering(labels), epsilon=spec.epsilon)


def gen_context(dim: int, rng: np.random.Generator, kind: str = "uniform") -> np.ndarray:
    """One context vector: U([0,1]^d) by default, or standard normal."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if kind == "uniform":
        return rng.random(dim)
    if kind == "gaussian":
        return rng.standard_normal(dim)
    raise ValueError(f"unknown context distribution '{kind}'")


# ---------------------------------------------------------------------------
# Audits
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DominanceReport:
    """Result of the strong-dominance audit.

    ``violations`` lists (optimal-cluster arm, other arm) pairs whose mean
    difference is not positive; empty when the assumption holds.
    """

    holds: bool
    violations: tuple[tuple[int, int], ...]
    stats: ClusterStats


def verify_strong_dominance(instance: BanditInstance) -> DominanceReport:
    """Check that every optimal-cluster arm beats every other cluster's arms."""
    clustering = instance.clustering
    if clustering is None:
        raise ValueError("instance has no disjoint clustering")
    stats = cluster_stats(instance)
    means = instance.means
    star_arms = clustering.members(stats.optimal_cluster)
    violations: list[tuple[int, int]] = []
    for c in stats.suboptimal_clusters():
        if stats.distance[c] > 0.0:
            continue
        for a in star_arms:
            for b in clustering.members(int(c)):
                if means[a] - means[b] <= 0.0:
                    violations.append((int(a), int(b)))
    return DominanceReport(holds=not violations, violations=tuple(violations), stats=stats)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def instance_to_json(instance: BanditInstance | ContextualInstance) -> dict:
    """JSON-ready document describing a generated instance exactly."""
    if isinstance(instance, ContextualInstance):
        return {
            "kind": "contextual",
            "theta": instance.theta.tolist(),
            "labels": instance.clustering.labels.tolist(),
            "epsilon": instance.epsilon,
        }
    doc: dict = {"kind": "bernoulli", "means": instance.means.tolist()}
    if instance.clustering is not None:
        doc["clustering"] = {"labels": instance.clustering.labels.tolist()}
    if instance.tree is not None:
        doc["tree"] = {
            "children": [kids.tolist() for kids in
                         (instance.tree.children(v) for v in range(instance.tree.n_nodes))],
            "leaf_arms": instance.tree.leaf_arms.tolist(),
        }
    return doc


def instance_from_json(doc: dict) -> BanditInstance | ContextualInstance:
    """Rebuild an instance from its JSON document."""
    kind = doc.get("kind")
    if kind == "contextual":
        return ContextualInstance(
            np.asarray(doc["theta"], dtype=np.float64),
            DisjointClustering(doc["labels"]),
            epsilon=float(doc.get("epsilon", 0.0)),
        )
    if kind != "bernoulli":
        raise ValueError(f"unknown instance kind '{kind}'")
    clustering = None
    tree = None
    if doc.get("clustering") is not None:
        clustering = DisjointClustering(doc["clustering"]["labels"])
    if doc.get("tree") is not None:
        tree = ClusterTree(doc["tree"]["children"], doc["tree"]["leaf_arms"])
    return BanditInstance(doc["means"], clustering=clustering, tree=tree)


_SPEC_FIELDS: dict[str, tuple[set[str], set[str], str]] = {
    # kind -> (required fields, optional fields, structure of the instance)
    "strong_dominance": (
        {"n_arms", "n_suboptimal_clusters", "optimal_cluster_size", "optimal_width", "separation"},
        set(),
        "clustering",
    ),
    "sorted_tree": ({"n_arms"}, {"levels"}, "tree"),
    "kmeans": ({"n_arms", "n_clusters", "reward_fn"}, set(), "clustering"),
    "kmeans_tree": ({"n_arms", "branching", "depth", "reward_fn"}, set(), "tree"),
    "agglomerative": ({"n_arms", "reward_fn"}, {"linkage"}, "tree"),
    "uniform": ({"n_arms", "n_clusters"}, set(), "clustering"),
    "contextual": ({"n_arms", "n_clusters", "epsilon"}, {"dim"}, "contextual"),
    "bernoulli": ({"means"}, {"clustering", "tree"}, "flat"),
}


def spec_structure(spec: dict) -> str:
    """Check an instance spec's kind and fields, and name the structure it builds.

    Returns ``"flat"``, ``"clustering"``, ``"tree"`` or ``"contextual"``,
    without generating anything; a ``bernoulli`` document has the
    ``clustering`` or ``tree`` it holds. Raises ValueError naming the field.
    """
    if "kind" not in spec:
        raise ValueError("instance spec is missing the 'kind' field")
    kind = spec["kind"]
    if kind == "contextual" and "theta" in spec:
        return "contextual"
    if kind not in _SPEC_FIELDS:
        raise ValueError(
            f"unknown instance kind '{kind}'; valid kinds: {sorted(_SPEC_FIELDS)}"
        )
    required, optional, structure = _SPEC_FIELDS[kind]
    fields = set(spec) - {"kind", "meta"}
    missing = required - fields
    if missing:
        raise ValueError(f"instance spec '{kind}' is missing fields {sorted(missing)}")
    extra = fields - required - optional
    if extra:
        raise ValueError(f"instance spec '{kind}' has unknown fields {sorted(extra)}")
    if kind == "bernoulli":
        return next((key for key in ("clustering", "tree") if spec.get(key) is not None), "flat")
    return structure


def build_instance(spec: dict, rng: np.random.Generator) -> BanditInstance | ContextualInstance:
    """Generate (or deserialize) an instance from a JSON-style spec document.

    ``spec["kind"]`` picks the generator; remaining fields are its
    parameters. Serialized instances (kinds ``bernoulli`` / ``contextual``)
    are rebuilt as-is and ignore the random stream, so they stay fixed
    across seeds.
    """
    spec_structure(spec)
    kind = spec["kind"]
    if kind == "strong_dominance":
        return gen_strong_dominance(
            StrongDominanceSpec(
                n_arms=int(spec["n_arms"]),
                n_suboptimal_clusters=int(spec["n_suboptimal_clusters"]),
                optimal_cluster_size=int(spec["optimal_cluster_size"]),
                optimal_width=float(spec["optimal_width"]),
                separation=float(spec["separation"]),
            ),
            rng,
        )
    if kind == "sorted_tree":
        instance = gen_sorted_binary_tree(int(spec["n_arms"]), rng)
        levels = spec.get("levels")
        if levels is not None:
            assert instance.tree is not None
            instance = BanditInstance(instance.means, tree=truncate_tree(instance.tree, int(levels)))
        return instance
    if kind == "kmeans":
        return gen_kmeans_instance(
            int(spec["n_arms"]), int(spec["n_clusters"]), spec["reward_fn"], rng
        )
    if kind == "kmeans_tree":
        return gen_kmeans_tree(
            int(spec["n_arms"]),
            int(spec["branching"]),
            int(spec["depth"]),
            spec["reward_fn"],
            rng,
        )
    if kind == "agglomerative":
        return gen_agglomerative_instance(
            int(spec["n_arms"]), spec["reward_fn"], rng, linkage=spec.get("linkage", "single")
        )
    if kind == "uniform":
        return gen_uniform_instance(int(spec["n_arms"]), int(spec["n_clusters"]), rng)
    if kind == "contextual" and "theta" not in spec:
        return gen_contextual(
            ContextualSpec(
                n_arms=int(spec["n_arms"]),
                n_clusters=int(spec["n_clusters"]),
                dim=int(spec.get("dim", 5)),
                epsilon=float(spec["epsilon"]),
            ),
            rng,
        )
    return instance_from_json(spec)
