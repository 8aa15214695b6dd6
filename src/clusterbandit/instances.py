"""Synthetic instance generators, clustering routines, and instance (de)serialization.

Generators cover: separation/width-controlled clustered instances where the
optimal cluster dominates every other cluster, sorted balanced binary trees
over uniform arms, k-means clusterings (flat and recursively refined trees)
over smooth reward landscapes, agglomerative merge trees, uncorrelated
uniform instances, and linear contextual instances with perturbed cluster
centroids.

Every generator is a pure function of (spec, seed stream): identical seeds
reproduce identical instances. Instances serialize to JSON for exact replay.

``SPEC_KINDS`` is the one schema of the generated spec kinds. Every
generator takes its kind's fields by name, with the random stream as
``rng``, and runs its kind's ``check`` before its first draw. A config
reads its specs through the schema (:func:`spec_fields`) with no draw and no
build, running those checks, so a bad spec fails before any job with an
error naming the field.
"""
from __future__ import annotations

import math
from typing import Callable, NamedTuple, Sequence

import numpy as np

from .contextual import ContextualInstance
from .core import BanditInstance, ClusterTree, DisjointClustering, typed

__all__ = [
    "REWARD_FUNCTIONS",
    "reward_function",
    "evaluate_reward_fn",
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
    "CONTEXT_KINDS",
    "gen_context",
    "kmeans",
    "kmeans_distortion",
    "instance_to_json",
    "instance_from_json",
    "SpecKind",
    "SPEC_KINDS",
    "spec_fields",
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
            f"reward_fn: unknown reward function '{fn_id}'; valid ids: {sorted(REWARD_FUNCTIONS)}"
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
# Field checks
# ---------------------------------------------------------------------------

def _at_least(field: str, value, low) -> None:
    """Raise a ValueError naming ``field`` unless ``value >= low``."""
    if not value >= low:
        raise ValueError(f"{field}: must be >= {low}, got {value}")


def _check_n_clusters(n_arms: int, n_clusters: int) -> None:
    """Every one of ``n_clusters`` clusters gets at least one of ``n_arms`` arms."""
    if not 1 <= n_clusters <= n_arms:
        raise ValueError(f"n_clusters: must be in [1, n_arms], got n_clusters={n_clusters} with n_arms={n_arms}")


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
    """Uniform assignment over ``cluster_ids``, re-drawn until none is empty; needs ``n_items >= cluster_ids.size``."""
    while True:
        pick = rng.integers(cluster_ids.size, size=n_items)
        if np.unique(pick).size == cluster_ids.size:
            return cluster_ids[pick]


def _check_strong_dominance(n_arms: int, n_suboptimal_clusters: int, optimal_cluster_size: int,
                            optimal_width: float, separation: float) -> None:
    """``gen_strong_dominance``'s checks, made before its first draw."""
    _at_least("optimal_cluster_size", optimal_cluster_size, 2)
    _at_least("n_suboptimal_clusters", n_suboptimal_clusters, 1)
    # every sub-optimal cluster needs an arm
    _at_least("n_arms", n_arms, optimal_cluster_size + n_suboptimal_clusters)
    if not (0.0 <= optimal_width < 1.0):
        raise ValueError(f"optimal_width: must be in [0, 1), got {optimal_width}")
    if not separation > 0.0:
        raise ValueError(f"separation: must be > 0, got {separation}")
    if 0.5 - optimal_width - separation < -1e-12:
        raise ValueError(f"separation: optimal_width + separation must be <= 0.5, got {separation}")


def gen_strong_dominance(n_arms: int, n_suboptimal_clusters: int, optimal_cluster_size: int, optimal_width: float,
                         separation: float, rng: np.random.Generator) -> BanditInstance:
    """Instance where every optimal-cluster arm beats every other arm.

    Cluster 0 is the optimal cluster of A* arms: its best arm has mean 0.6,
    its worst 0.6 - w, and the rest are uniform in between. Every one of the
    K other clusters gets a best arm at exactly 0.6 - w - d, a worst at
    0.5 - w - d when it has two or more arms, and the rest uniform in
    between; membership of the remaining arms is uniform over the
    sub-optimal clusters (re-drawn until none is empty). The realized
    optimal width is exactly w and every cluster distance exactly d.
    """
    _check_strong_dominance(n_arms, n_suboptimal_clusters, optimal_cluster_size, optimal_width, separation)
    n, k, a_star, w, d = n_arms, n_suboptimal_clusters, optimal_cluster_size, optimal_width, separation

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
    _check_n_clusters(n_arms, n_clusters)
    means = rng.uniform(0.0, 1.0, size=n_arms)
    labels = _uniform_nonempty_labels(n_arms, np.arange(n_clusters), rng)
    return BanditInstance(means, clustering=DisjointClustering(labels))


def _check_kmeans(n_arms: int, n_clusters: int, reward_fn: str) -> tuple[Callable, int]:
    """``gen_kmeans_instance``'s checks, made before its first draw; returns the reward landscape."""
    _check_n_clusters(n_arms, n_clusters)
    return reward_function(reward_fn)


def gen_kmeans_instance(
    n_arms: int, n_clusters: int, reward_fn: str, rng: np.random.Generator
) -> BanditInstance:
    """Arms at uniform feature points, clustered by k-means on the features.

    Arm means come from the chosen reward landscape evaluated at the
    features, so nearby arms share similar means but nothing guarantees the
    optimal cluster dominates.
    """
    fn, dim = _check_kmeans(n_arms, n_clusters, reward_fn)
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


def _check_tree(n_arms: int = 2, levels: int | None = None) -> None:
    """A tree needs at least 2 arms, and a cut at ``levels`` (None: no cut) at least 0 levels."""
    _at_least("n_arms", n_arms, 2)
    if levels is not None:
        _at_least("levels", levels, 0)


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
    _check_tree(means.size)
    order = np.argsort(means, kind="stable")
    return BanditInstance(means, tree=_balanced_tree(order))


def gen_sorted_binary_tree(n_arms: int, rng: np.random.Generator) -> BanditInstance:
    """Uniform arms on (0.1, 0.8) under a mean-sorted balanced binary tree.

    Duplicate mean draws are re-drawn so the tree-level dominance audit
    holds with probability one. Tree depth is ceil(log2 N).
    """
    _check_tree(n_arms)
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
    _check_tree(levels=levels)
    leaf_arms = tree.leaf_arms.tolist()

    def item(node: int, depth: int):
        return leaf_arms[node] if leaf_arms[node] >= 0 else (node, depth)

    def expand(node_depth: tuple[int, int]) -> list:
        node, depth = node_depth
        if depth == levels:
            return tree.arms_under(node).tolist()
        return [item(child, depth + 1) for child in tree.children(node).tolist()]

    return _grow(item(tree.root, 0), expand)


def _sorted_tree(n_arms: int, levels: int | None, rng: np.random.Generator) -> BanditInstance:
    """:func:`gen_sorted_binary_tree` cut by :func:`truncate_tree` at ``levels`` (None: no cut)."""
    instance = gen_sorted_binary_tree(n_arms, rng)
    return instance if levels is None else BanditInstance(instance.means, tree=truncate_tree(instance.tree, levels))


def _check_kmeans_tree(n_arms: int, branching: int, depth: int, reward_fn: str) -> tuple[Callable, int]:
    """``gen_kmeans_tree``'s checks, made before its first draw; returns the reward landscape."""
    _at_least("n_arms", n_arms, 1)
    _at_least("branching", branching, 2)
    _at_least("depth", depth, 1)
    return reward_function(reward_fn)


def gen_kmeans_tree(
    n_arms: int,
    branching: int,
    depth: int,
    reward_fn: str,
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
    fn, dim = _check_kmeans_tree(n_arms, branching, depth, reward_fn)
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
    _check_tree(features.shape[0])
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


# scipy's linkage methods, named here so a config is checked without importing scipy
_LINKAGES = ("single", "complete", "average", "weighted", "centroid", "median", "ward")


def _check_agglomerative(n_arms: int, reward_fn: str, linkage: str) -> tuple[Callable, int]:
    """``gen_agglomerative_instance``'s checks, made before its first draw; returns the reward landscape."""
    _check_tree(n_arms)
    if linkage not in _LINKAGES:
        raise ValueError(f"linkage: unknown method '{linkage}'; valid methods: {list(_LINKAGES)}")
    return reward_function(reward_fn)


def gen_agglomerative_instance(
    n_arms: int,
    reward_fn: str,
    rng: np.random.Generator,
    linkage: str = "single",
) -> BanditInstance:
    """Uniform feature points under an agglomerative merge tree.

    Draws the same features as :func:`gen_kmeans_instance` on the same seed
    so flat and tree structures over one arm population can be paired.
    """
    fn, dim = _check_agglomerative(n_arms, reward_fn, linkage)
    features = rng.random((n_arms, dim))
    tree = gen_agglomerative_tree(features, linkage=linkage)
    return BanditInstance(fn(features), tree=tree)


# ---------------------------------------------------------------------------
# Contextual generator
# ---------------------------------------------------------------------------

def _check_contextual(n_arms: int, n_clusters: int, epsilon: float, dim: int) -> None:
    """``gen_contextual``'s checks, made before its first draw."""
    _at_least("dim", dim, 1)
    if not (0.0 <= epsilon < math.inf):
        raise ValueError(f"epsilon: must be finite and >= 0, got {epsilon}")
    _check_n_clusters(n_arms, n_clusters)


def gen_contextual(n_arms: int, n_clusters: int, epsilon: float, rng: np.random.Generator,
                   dim: int = 5) -> ContextualInstance:
    """Linear contextual instance with perturbed cluster centroids.

    Each cluster gets a standard-normal centroid; each arm's coefficient
    vector is its cluster centroid plus epsilon times standard-normal
    noise, so epsilon controls the expected cluster diameter (epsilon=0
    collapses every cluster onto one coefficient vector).
    """
    _check_contextual(n_arms, n_clusters, epsilon, dim)
    labels = _uniform_nonempty_labels(n_arms, np.arange(n_clusters), rng)
    centroids = rng.standard_normal((n_clusters, dim))
    theta = centroids[labels] + epsilon * rng.standard_normal((n_arms, dim))
    return ContextualInstance(theta, DisjointClustering(labels), epsilon=epsilon)


# each context distribution by name: the name of the generator method that draws one (dim,) vector (a name, as
# reading ``np.random.Generator`` here would import ``numpy.random`` with this module)
CONTEXT_KINDS = {"uniform": "random", "gaussian": "standard_normal"}


def gen_context(dim: int, rng: np.random.Generator, kind: str = "uniform") -> np.ndarray:
    """One context vector of a ``CONTEXT_KINDS`` distribution: U([0,1]^d) by default, or standard normal."""
    _at_least("dim", dim, 1)
    if kind not in CONTEXT_KINDS:
        raise ValueError(f"unknown context distribution '{kind}'")
    return getattr(rng, CONTEXT_KINDS[kind])(dim)


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


def _numbers(field: str, values, kind: type, depth: int) -> list:
    """``values``, a list of ``kind`` entries (``depth`` 1) or a list of such lists (2), each entry read
    through ``core.typed`` under its own name, ``theta[2][1]``."""
    values = typed(field, values, list)
    if depth == 1:
        return [typed(f"{field}[{i}]", v, kind) for i, v in enumerate(values)]
    return [_numbers(f"{field}[{i}]", row, kind, depth - 1) for i, row in enumerate(values)]


def _read(doc: dict, field: str, kind: type, depth: int) -> list:
    """The entry of ``doc`` that ``field`` names last (``labels`` for ``clustering.labels``) through
    :func:`_numbers`; a missing entry fails naming the field."""
    key = field.rpartition(".")[2]
    if key not in doc:
        raise ValueError(f"{field}: missing")
    return _numbers(field, doc[key], kind, depth)


def instance_from_json(doc: dict) -> BanditInstance | ContextualInstance:
    """Rebuild an instance from its JSON document; ``clustering`` and ``tree`` are read as objects and
    every number through ``core.typed`` (``means``, ``theta`` and ``epsilon`` as numbers, labels, child
    ids and leaf arms as integers), so a missing field, a bool, a string or a fraction fails naming it."""
    kind = doc.get("kind")
    if kind == "contextual":
        return ContextualInstance(
            np.asarray(_read(doc, "theta", float, 2), dtype=np.float64),
            DisjointClustering(_read(doc, "labels", int, 1)),
            epsilon=typed("epsilon", doc.get("epsilon", 0.0), float),
        )
    if kind != "bernoulli":
        raise ValueError(f"unknown instance kind '{kind}'")
    clustering = None
    tree = None
    if doc.get("clustering") is not None:
        labels = _read(typed("clustering", doc["clustering"], dict), "clustering.labels", int, 1)
        clustering = DisjointClustering(labels)
    if doc.get("tree") is not None:
        adjacency = typed("tree", doc["tree"], dict)
        tree = ClusterTree(_read(adjacency, "tree.children", int, 2), _read(adjacency, "tree.leaf_arms", int, 1))
    return BanditInstance(_read(doc, "means", float, 1), clustering=clustering, tree=tree)


# ---------------------------------------------------------------------------
# Spec schema
# ---------------------------------------------------------------------------

class SpecKind(NamedTuple):
    """A generated kind: the structure it builds, its fields' types (``core.typed`` kinds), its optional fields'
    defaults, its range checks that need no draw, and its generator; both take the typed fields by name."""

    structure: str
    required: dict[str, type]
    optional: dict[str, tuple[type, object]]
    check: Callable[..., object]
    generate: Callable[..., BanditInstance | ContextualInstance]


SPEC_KINDS: dict[str, SpecKind] = {
    "strong_dominance": SpecKind(
        "clustering", {"n_arms": int, "n_suboptimal_clusters": int, "optimal_cluster_size": int,
                       "optimal_width": float, "separation": float}, {},
        _check_strong_dominance, gen_strong_dominance),
    "sorted_tree": SpecKind("tree", {"n_arms": int}, {"levels": (int, None)}, _check_tree, _sorted_tree),
    "kmeans": SpecKind("clustering", {"n_arms": int, "n_clusters": int, "reward_fn": str}, {},
                       _check_kmeans, gen_kmeans_instance),
    "kmeans_tree": SpecKind("tree", {"n_arms": int, "branching": int, "depth": int, "reward_fn": str}, {},
                            _check_kmeans_tree, gen_kmeans_tree),
    "agglomerative": SpecKind("tree", {"n_arms": int, "reward_fn": str}, {"linkage": (str, "single")},
                              _check_agglomerative, gen_agglomerative_instance),
    "uniform": SpecKind("clustering", {"n_arms": int, "n_clusters": int}, {}, _check_n_clusters, gen_uniform_instance),
    "contextual": SpecKind("contextual", {"n_arms": int, "n_clusters": int, "epsilon": float}, {"dim": (int, 5)},
                           _check_contextual, gen_contextual),
}
# a serialized document's (required, optional) fields, as ``instance_to_json`` writes it
_DOCUMENT_FIELDS = {"bernoulli": ({"means"}, {"clustering", "tree"}), "contextual": ({"theta", "labels"}, {"epsilon"})}


def spec_fields(spec: dict) -> dict | None:
    """A spec's typed, range-checked fields as its generator takes them, an optional one missing or null at its
    default; None for a serialized document (``bernoulli``, or ``contextual`` with ``theta``), whose top-level
    field names are checked here and the rest by :func:`instance_from_json`. Raises ValueError naming the field."""
    if "kind" not in typed("instance", spec, dict):
        raise ValueError("instance spec is missing the 'kind' field")
    name = typed("kind", spec["kind"], str)
    document = name == "bernoulli" or (name == "contextual" and "theta" in spec)
    if not document and name not in SPEC_KINDS:
        raise ValueError(f"unknown instance kind '{name}'; valid kinds: {sorted({*SPEC_KINDS, 'bernoulli'})}")
    kind = SPEC_KINDS.get(name)
    required, optional = _DOCUMENT_FIELDS[name] if document else (set(kind.required), set(kind.optional))
    fields = set(spec) - {"kind", "meta"}
    for problem, names in (("is missing", required - fields), ("has unknown", fields - required - optional)):
        if names:
            raise ValueError(f"instance spec '{name}' {problem} fields {sorted(names)}")
    if document:
        return None
    values = {field: typed(field, spec[field], t) for field, t in kind.required.items()}
    for field, (t, default) in kind.optional.items():
        values[field] = default if spec.get(field) is None else typed(field, spec[field], t)
    kind.check(**values)
    return values


def spec_structure(spec: dict) -> str:
    """Check a spec and name the structure it builds: ``"flat"``, ``"clustering"``, ``"tree"`` or
    ``"contextual"``. A generated kind is checked by :func:`spec_fields`; a serialized document is parsed
    whole by :func:`instance_from_json`, and its structure is the parsed instance's."""
    if spec_fields(spec) is not None:
        return SPEC_KINDS[spec["kind"]].structure
    return instance_from_json(spec).structure


def build_instance(spec: dict, rng: np.random.Generator) -> BanditInstance | ContextualInstance:
    """Generate (or deserialize) an instance from a JSON-style spec document.

    ``spec["kind"]`` picks the generator; its fields, read by
    :func:`spec_fields`, are the parameters. Serialized instances are
    rebuilt as-is and ignore the random stream, so they stay fixed across seeds.
    """
    fields = spec_fields(spec)
    if fields is None:
        return instance_from_json(spec)
    return SPEC_KINDS[spec["kind"]].generate(**fields, rng=rng)
