"""Linear contextual bandit policies with clustered arms.

Each arm (and, for the clustered variants, each cluster) carries a ridge
posterior over a d-dimensional coefficient vector: a precision matrix B
starting at the identity, a reward-weighted context sum f, and the mean
B^-1 f. Thompson variants sample a scalar score per entity from
N(mu'x, v x'B^-1 x); UCB variants score with mu'x + alpha sqrt(x'B^-1 x).

Posteriors are stacked across entities in ``_LinearBank``. Inverses are
maintained with rank-one updates and re-solved densely every 1000 updates
per entity to cap numerical drift. ``LinThompson`` and
``ClusteredLinThompson`` hold the flat and the two-level ``select``/
``update``; ``LinUcb`` and ``ClusteredLinUcb`` run the same bodies and only
score a bank with ``_LinearBank.ucb`` instead of ``_LinearBank.sample``.
Flat variants keep no path. The two-level ones descend
``ClusterTree.from_clustering``, so their path is ``(0, c+1, leaf)`` for
cluster c, as for ``tsc``.

The bank reads its inverses as flat ``(n, d*d)`` rows, so x'B^-1 x for
every entity is one product of those rows with the flattened x x'. Scores
of bit-equal posteriors must stay bit-equal wherever the entities sit: UCB
ties between unplayed arms are common, and a tie that rounding breaks
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
    """Ridge posteriors for n entities, stored stacked for vector scoring."""

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

    def _mean(self, x: np.ndarray, subset: np.ndarray | None) -> np.ndarray:
        mu = self.Mu if subset is None else self.Mu[subset]
        return np.einsum("nk,k->n", mu, x)

    def _quad(self, x: np.ndarray, subset: np.ndarray | None) -> np.ndarray:
        rows = self.Binv.reshape(self.n, -1)  # a view, made per call so copies of a bank stay whole
        if subset is not None:
            rows = rows[subset]
        return np.maximum(np.einsum("nk,k->n", rows, (x[:, None] * x).ravel()), 0.0)

    def sample(self, x: np.ndarray, rng: np.random.Generator, subset: np.ndarray | None = None) -> np.ndarray:
        mean = self._mean(x, subset)
        scale = np.sqrt(self.v * self._quad(x, subset))
        # the draws and the arithmetic of rng.normal(mean, scale), without its broadcasting
        return mean + scale * rng.standard_normal(mean.size)

    def ucb(self, x: np.ndarray, alpha: float, subset: np.ndarray | None = None) -> np.ndarray:
        return self._mean(x, subset) + alpha * np.sqrt(self._quad(x, subset))

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
    """Select/update interface for contextual policies.

    ``_selected`` and ``_seen`` are the ``Choice`` the last ``select`` returned
    and the checked context it scored: ``update`` given both objects trusts
    them, and checks any other pair.
    """

    key: str = ""
    path_depth: int = 0
    _selected: Choice | None = None
    _seen: np.ndarray | None = None

    def _trusts(self, choice: Choice, x: np.ndarray) -> bool:
        return choice is self._selected and x is self._seen

    @abstractmethod
    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        """Choose an arm for context ``x`` at step ``t``."""

    @abstractmethod
    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        """Feed back the reward observed for ``choice`` under context ``x``."""


class LinThompson(ContextualPolicy):
    """Linear Thompson sampling over a flat action set."""

    key = "lints"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0) -> None:
        self._arms = _LinearBank(n_arms, dim, v)
        self.dim = dim
        self.v = float(v)

    def _score(
        self, bank: _LinearBank, x: np.ndarray, rng: np.random.Generator, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """One score per entity of ``bank`` (or of ``subset``): a posterior draw."""
        return bank.sample(x, rng, subset)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = self._seen = _check_context(x, self.dim)
        choice = self._selected = Choice(arm=random_argmax(self._score(self._arms, x, rng), rng))
        return choice

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        if not self._trusts(choice, x):
            x = _check_context(x, self.dim)
        self._arms.update(choice.arm, x, reward)


class ClusteredLinThompson(ContextualPolicy):
    """Two-level linear Thompson sampling over a disjoint clustering.

    Descent on ``ClusterTree.from_clustering(clustering)``: cluster-level
    posteriors pick the cluster (node c+1), arm-level posteriors pick the
    arm among ``tree.arms_under(c+1)``; both levels are updated with the
    same observed (context, reward) pair.
    """

    key = "lintsc"
    path_depth = 3
    _score = LinThompson._score

    def __init__(self, clustering: DisjointClustering, dim: int, v: float = 1.0) -> None:
        self.tree = ClusterTree.from_clustering(clustering)
        self._walk = _TreeTables(self.tree)
        self.dim = dim
        self.v = float(v)
        self._clusters = _LinearBank(clustering.n_clusters, dim, v)
        self._arms = _LinearBank(clustering.n_arms, dim, v)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = self._seen = _check_context(x, self.dim)
        node = random_argmax(self._score(self._clusters, x, rng), rng) + 1
        i = random_argmax(self._score(self._arms, x, rng, self.tree.arms_under(node)), rng)
        leaf = self._walk.kids[self._walk.ptr[node] + i]
        choice = self._selected = Choice(arm=self._walk.leaf_arm[leaf], path=(0, node, leaf))
        return choice

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        if self._trusts(choice, x):
            path = choice.path
        else:
            x, path = _check_context(x, self.dim), self._walk.check_path(choice)
        self._clusters.update(path[1] - 1, x, reward)
        self._arms.update(choice.arm, x, reward)


class LinUcb(LinThompson):
    """Linear UCB: mean score plus alpha times the posterior width."""

    key = "linucb"

    def __init__(self, n_arms: int, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        super().__init__(n_arms, dim)
        self.alpha = float(alpha)

    def _score(
        self, bank: _LinearBank, x: np.ndarray, rng: np.random.Generator, subset: np.ndarray | None = None
    ) -> np.ndarray:
        """One score per entity of ``bank`` (or of ``subset``): its upper confidence index."""
        return bank.ucb(x, self.alpha, subset)


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
