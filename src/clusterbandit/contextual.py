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

from .core import DisjointClustering, random_argmax
from .policies import Choice

__all__ = [
    "ContextualInstance",
    "ContextualPolicy",
    "LinThompson",
    "ClusteredLinThompson",
    "LinUcb",
    "ClusteredLinUcb",
    "CONTEXTUAL_POLICY_KEYS",
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
        if not (math.isfinite(v) and v > 0):
            raise ValueError(f"v: sampling-variance scale must be finite and > 0, got {v}")
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
    """Select/update interface for contextual policies."""

    key: str = ""
    path_depth: int = 0

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
        x = _check_context(x, self.dim)
        return Choice(arm=random_argmax(self._score(self._arms, x, rng), rng))

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        x = _check_context(x, self.dim)
        self._arms.update(choice.arm, x, reward)


class ClusteredLinThompson(ContextualPolicy):
    """Two-level linear Thompson sampling over a disjoint clustering.

    Cluster-level posteriors pick the cluster, arm-level posteriors pick
    the arm within it; both levels are updated with the same observed
    (context, reward) pair.
    """

    key = "lintsc"
    path_depth = 1
    _score = LinThompson._score

    def __init__(self, clustering: DisjointClustering, dim: int, v: float = 1.0) -> None:
        self.clustering = clustering
        self.dim = dim
        self.v = float(v)
        self._clusters = _LinearBank(clustering.n_clusters, dim, v)
        self._arms = _LinearBank(clustering.n_arms, dim, v)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._score(self._clusters, x, rng), rng)
        members = self.clustering.members(cluster)
        arm = int(members[random_argmax(self._score(self._arms, x, rng, members), rng)])
        return Choice(arm=arm, path=(cluster,))

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        x = _check_context(x, self.dim)
        (cluster,) = choice.path
        if self.clustering.label_of(choice.arm) != cluster:
            raise ValueError(f"arm {choice.arm} is not in cluster {cluster}")
        self._clusters.update(cluster, x, reward)
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

_ALLOWED_PARAMS = {
    "lints": {"v", "d"},
    "lintsc": {"v", "d"},
    "linucb": {"alpha", "d"},
    "linucbc": {"alpha", "d"},
}

CONTEXTUAL_POLICY_KEYS: tuple[str, ...] = tuple(sorted(_ALLOWED_PARAMS))


def make_contextual_policy(
    key: str, instance: ContextualInstance, params: dict | None = None
) -> ContextualPolicy:
    """Instantiate a contextual policy by string key.

    Accepted parameters: ``v`` for the Thompson variants, ``alpha`` for the
    UCB variants, and an optional ``d`` that must match the instance
    dimension when given.
    """
    if key not in _ALLOWED_PARAMS:
        raise ValueError(
            f"unknown contextual policy key '{key}'; valid keys: {sorted(_ALLOWED_PARAMS)}"
        )
    params = dict(params or {})
    unknown = set(params) - _ALLOWED_PARAMS[key]
    if unknown:
        raise ValueError(f"policy '{key}' does not accept parameters {sorted(unknown)}")
    d = params.pop("d", None)
    if d is not None and int(d) != instance.dim:
        raise ValueError(f"parameter d={d} does not match instance dimension {instance.dim}")
    dim = instance.dim
    if key == "lints":
        return LinThompson(instance.n_arms, dim, v=float(params.get("v", 1.0)))
    if key == "lintsc":
        return ClusteredLinThompson(instance.clustering, dim, v=float(params.get("v", 1.0)))
    if key == "linucb":
        return LinUcb(instance.n_arms, dim, alpha=float(params.get("alpha", 2.0)))
    return ClusteredLinUcb(instance.clustering, dim, alpha=float(params.get("alpha", 2.0)))
