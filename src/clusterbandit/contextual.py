"""Linear contextual bandit policies with clustered arms.

Every node of a policy's tree below the root carries a ridge posterior over
a d-dimensional coefficient vector: a precision matrix B starting at the
identity, a reward-weighted context sum f, and the mean B^-1 f. Thompson
variants sample a scalar score per node from N(mu'x, v x'B^-1 x); UCB
variants score with mu'x + alpha sqrt(x'B^-1 x).

Every policy is one descent, ``ContextualPolicy.select``/``update``, over
one ``_LinearBank`` with a row per non-root node in ``tree.slot`` order, so
the children of node v are the contiguous rows ``ptr[v]:ptr[v+1]``. Each
step scores the children of the current node and moves to the argmax,
from the root to a leaf; the observed (context, reward) pair updates the
row of every non-root node on the path. ``lints`` and ``linucb`` descend
``ClusterTree.star(n)``, so their path to arm a is ``(0, a+1)`` and their
traces keep no paths, as for ``ts``; ``lintsc`` and ``linucbc`` descend
``ClusterTree.from_clustering(c)``, so their path is ``(0, c+1, leaf)`` for
cluster c, as for ``tsc``. The UCB variants only score rows with
``_LinearBank.ucb`` instead of ``_LinearBank.sample``. Inverses are
maintained with rank-one updates and re-solved densely every 1000 updates
per row to cap numerical drift.

The bank reads its inverses as flat ``(n, d*d)`` rows, so x'B^-1 x for
every row of a slice is one product of those rows with the flattened x x'.
Scores of bit-equal posteriors must stay bit-equal wherever the rows sit:
UCB ties between unplayed arms are common, and a tie that rounding breaks
changes the trace. So mu'x and x'B^-1 x use ``einsum``, which sums each row
alone, and never a BLAS product (``@``, ``np.dot``), which rounds equal rows
differently by their position in the matrix.
"""
from __future__ import annotations

import math
from abc import ABC, abstractmethod
import numpy as np

from .core import ClusterTree, DisjointClustering, random_argmax
from .policies import Choice, _TreeTables

__all__ = [
    "ContextualInstance",
    "ContextualPolicy",
    "LinThompson",
    "ClusteredLinThompson",
    "LinUcb",
    "ClusteredLinUcb",
    "CONTEXTUAL_POLICY_KEYS",
    "check_params",
    "make_contextual_policy",
]

RESOLVE_EVERY = 1000


def _check_context(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"context shape {x.shape} does not match dimension {dim}")
    if not np.isfinite(x).all():
        raise ValueError("context has non-finite entries")
    return x


def _check_v(v: float) -> None:
    if not (math.isfinite(v) and v > 0):
        raise ValueError(f"v: sampling-variance scale must be finite and > 0, got {v}")


def _check_alpha(alpha: float) -> None:
    if not (math.isfinite(alpha) and alpha >= 0):
        raise ValueError(f"alpha: exploration weight must be finite and >= 0, got {alpha}")


# ---------------------------------------------------------------------------
# Stacked posteriors (vectorized across entities)
# ---------------------------------------------------------------------------

class _LinearBank:
    """Ridge posteriors for n rows, stored stacked; scores read the rows ``lo:hi``."""

    def __init__(self, n: int, dim: int, v: float) -> None:
        if dim < 1:
            raise ValueError(f"dim: must be >= 1, got {dim}")
        _check_v(v)
        self.n = n
        self.dim = dim
        self.v = float(v)
        eye = np.eye(dim)
        self.B = np.tile(eye, (n, 1, 1))
        self.Binv = np.tile(eye, (n, 1, 1))
        self.F = np.zeros((n, dim))
        self.Mu = np.zeros((n, dim))
        self.counts = np.zeros(n, dtype=np.int64)

    def _mean(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return np.einsum("nk,k->n", self.Mu[lo:hi], x)

    def _quad(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        rows = self.Binv.reshape(self.n, -1)[lo:hi]  # a view, made per call so copies of a bank stay whole
        return np.maximum(np.einsum("nk,k->n", rows, (x[:, None] * x).ravel()), 0.0)

    def sample(self, x: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        mean = self._mean(x, lo, hi)
        scale = np.sqrt(self.v * self._quad(x, lo, hi))
        # the draws and the arithmetic of rng.normal(mean, scale), without its broadcasting
        return mean + scale * rng.standard_normal(mean.size)

    def ucb(self, x: np.ndarray, alpha: float, lo: int, hi: int) -> np.ndarray:
        return self._mean(x, lo, hi) + alpha * np.sqrt(self._quad(x, lo, hi))

    def update(self, i: int, x: np.ndarray, reward: float) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"non-finite reward {reward}")
        binv, b, f = self.Binv[i], self.B[i], self.F[i]
        u = binv @ x
        binv -= u[:, None] * u / (1.0 + x @ u)
        b += x[:, None] * x
        f += reward * x
        self.counts[i] += 1
        if self.counts[i] % RESOLVE_EVERY == 0:
            binv[...] = np.linalg.inv(b)
            self.Mu[i] = np.linalg.solve(b, f)
        else:
            self.Mu[i] = binv @ f


# ---------------------------------------------------------------------------
# Contextual environment
# ---------------------------------------------------------------------------

class ContextualInstance:
    """Linear-reward environment with clustered arm coefficients.

    Arm j responds to context x with expected reward theta_j'x; the
    realized reward is uniform on the interval between 0 and twice the
    expectation (the interval is reversed when the expectation is negative
    and collapses to a point mass at zero expectation), so its mean is
    exactly theta_j'x.
    """

    def __init__(self, theta: np.ndarray, clustering: DisjointClustering, epsilon: float = 0.0) -> None:
        theta = np.asarray(theta, dtype=np.float64)
        if theta.ndim != 2:
            raise ValueError("theta must be (n_arms, dim)")
        if clustering.n_arms != theta.shape[0]:
            raise ValueError("clustering size does not match arm count")
        if not np.all(np.isfinite(theta)):
            raise ValueError("theta has non-finite entries")
        self.theta = theta
        self.theta.setflags(write=False)
        self.clustering = clustering
        self.epsilon = float(epsilon)

    @property
    def n_arms(self) -> int:
        return int(self.theta.shape[0])

    @property
    def dim(self) -> int:
        return int(self.theta.shape[1])

    def expected_reward(self, arm: int, x: np.ndarray) -> float:
        if not 0 <= arm < self.n_arms:
            raise ValueError(f"unknown arm id {arm}")
        return float(self.theta[arm] @ x)

    def expected_rewards(self, x: np.ndarray) -> np.ndarray:
        return self.theta @ x

    def draw_reward(self, arm: int, x: np.ndarray, rng: np.random.Generator) -> float:
        m = self.expected_reward(arm, x)
        lo, hi = (0.0, 2.0 * m) if m >= 0.0 else (2.0 * m, 0.0)
        return float(rng.uniform(lo, hi))

    def __repr__(self) -> str:
        return (
            f"ContextualInstance(n_arms={self.n_arms}, dim={self.dim}, "
            f"n_clusters={self.clustering.n_clusters}, epsilon={self.epsilon})"
        )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class ContextualPolicy(ABC):
    """The descent every contextual policy runs, over one bank in ``tree.slot`` order.

    ``select`` scores the children of each node on its way down, rows
    ``ptr[v]:ptr[v+1]`` of the bank, with ``_score`` and moves to the argmax
    child. ``update`` credits the (context, reward) pair to the row of every
    non-root node on the path. ``_selected`` and ``_seen`` are the ``Choice``
    the last ``select`` returned and the checked context it scored: ``update``
    given both objects trusts them, and checks any other pair.
    """

    key: str = ""
    path_depth: int = 0
    _selected: Choice | None = None
    _seen: np.ndarray | None = None

    def _trusts(self, choice: Choice, x: np.ndarray) -> bool:
        return choice is self._selected and x is self._seen

    def __init__(self, tree: ClusterTree, dim: int, v: float) -> None:
        self.tree = tree
        self._walk = _TreeTables(tree)
        self.dim = dim
        self.v = float(v)
        self._bank = _LinearBank(len(tree.kids), dim, v)

    @abstractmethod
    def _score(self, x: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """One score per bank row in ``[lo, hi)``."""

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        """Choose an arm for context ``x`` at step ``t``."""
        x = self._seen = _check_context(x, self.dim)
        ptr, kids = self._walk.ptr, self._walk.kids
        node = 0
        path = [node]
        lo, hi = ptr[0], ptr[1]
        while lo < hi:
            node = kids[lo + random_argmax(self._score(x, rng, lo, hi), rng)]
            path.append(node)
            lo, hi = ptr[node], ptr[node + 1]
        choice = self._selected = Choice(arm=self._walk.leaf_arm[node], path=tuple(path))
        return choice

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        """Feed back the reward observed for ``choice`` under context ``x``."""
        if self._trusts(choice, x):
            path = choice.path
        else:
            x, path = _check_context(x, self.dim), self._walk.check_path(choice)
        slot = self._walk.slot
        for v in path[1:]:
            self._bank.update(slot[v], x, reward)


class LinThompson(ContextualPolicy):
    """Linear Thompson sampling over a flat action set: the descent on ``ClusterTree.star(n_arms)``.

    Arm a is leaf a+1 and bank row a. Traces keep no paths.
    """

    key = "lints"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0) -> None:
        super().__init__(ClusterTree.star(n_arms), dim, v)

    def _score(self, x: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """One score per row in ``[lo, hi)``: a posterior draw."""
        return self._bank.sample(x, rng, lo, hi)


class ClusteredLinThompson(ContextualPolicy):
    """Two-level linear Thompson sampling over a disjoint clustering.

    The descent on ``ClusterTree.from_clustering(clustering)``: cluster
    posteriors (rows ``0..k-1``) pick the cluster, node c+1, and then the
    posteriors of its arms, one contiguous run of rows, pick the arm; both
    levels are updated with the same observed (context, reward) pair.
    """

    key = "lintsc"
    path_depth = 3
    _score = LinThompson._score

    def __init__(self, clustering: DisjointClustering, dim: int, v: float = 1.0) -> None:
        super().__init__(ClusterTree.from_clustering(clustering), dim, v)


class LinUcb(LinThompson):
    """Linear UCB: mean score plus alpha times the posterior width."""

    key = "linucb"

    def __init__(self, n_arms: int, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        super().__init__(n_arms, dim)
        self.alpha = float(alpha)

    def _score(self, x: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """One score per row in ``[lo, hi)``: its upper confidence index."""
        return self._bank.ucb(x, self.alpha, lo, hi)


class ClusteredLinUcb(ClusteredLinThompson):
    """Two-level linear UCB over a disjoint clustering."""

    key = "linucbc"
    _score = LinUcb._score

    def __init__(self, clustering: DisjointClustering, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        super().__init__(clustering, dim)
        self.alpha = float(alpha)


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------

# key -> (class, accepted parameters)
_REGISTRY = {
    "lints": (LinThompson, {"v", "d"}),
    "lintsc": (ClusteredLinThompson, {"v", "d"}),
    "linucb": (LinUcb, {"alpha", "d"}),
    "linucbc": (ClusteredLinUcb, {"alpha", "d"}),
}

CONTEXTUAL_POLICY_KEYS: tuple[str, ...] = tuple(sorted(_REGISTRY))


def check_params(key: str, params: dict | None, dim: int | None = None) -> None:
    """Reject an unknown key or parameter, a bad ``v`` or ``alpha``, and a ``d`` other than ``dim``.

    Accepted parameters: ``v`` for the Thompson variants, ``alpha`` for the
    UCB variants, and an optional ``d`` that must match the instance
    dimension when both are known.
    """
    if key not in _REGISTRY:
        raise ValueError(
            f"unknown contextual policy key '{key}'; valid keys: {sorted(_REGISTRY)}"
        )
    params = params or {}
    unknown = set(params) - _REGISTRY[key][1]
    if unknown:
        raise ValueError(f"policy '{key}' does not accept parameters {sorted(unknown)}")
    for name, check in (("v", _check_v), ("alpha", _check_alpha)):
        if name in params:
            check(float(params[name]))
    d = params.get("d")
    if d is not None and dim is not None and d != dim:
        raise ValueError(f"parameter d={d} does not match instance dimension {dim}")


def make_contextual_policy(
    key: str, instance: ContextualInstance, params: dict | None = None
) -> ContextualPolicy:
    """Instantiate a contextual policy by string key, after :func:`check_params`.

    The flat policies take the instance's arm count, the two-level ones its
    clustering; ``d`` only checks the dimension.
    """
    check_params(key, params, instance.dim)
    cls = _REGISTRY[key][0]
    arms = instance.clustering if issubclass(cls, ClusteredLinThompson) else instance.n_arms
    return cls(arms, instance.dim, **{k: float(value) for k, value in (params or {}).items() if k != "d"})
