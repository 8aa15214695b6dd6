"""Linear contextual bandit policies with clustered arms.

Each arm (and, for the clustered variants, each cluster) carries a ridge
posterior over a d-dimensional coefficient vector: a precision matrix B
starting at the identity, a reward-weighted context sum f, and the mean
B^-1 f. Thompson variants sample a scalar score per entity from
N(mu'x, v x'B^-1 x); UCB variants score with mu'x + alpha sqrt(x'B^-1 x).

Posteriors are stacked across entities in ``_LinearBank``; ``LinearBelief``
is a bank of one. Inverses are maintained with rank-one updates and
re-solved densely every 1000 updates per entity to cap numerical drift.

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
    "LinearBelief",
    "lin_sample",
    "lin_update",
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

    def belief(self, i: int) -> LinearBelief:
        """An independent copy of entity ``i``'s posterior."""
        out = LinearBelief(self.dim, self.v)
        for name in ("B", "Binv", "F", "Mu", "counts"):
            getattr(out._bank, name)[0] = getattr(self, name)[i]
        return out


# ---------------------------------------------------------------------------
# Single ridge posterior
# ---------------------------------------------------------------------------

class LinearBelief:
    """Ridge posterior over one d-dimensional coefficient vector.

    Starts at B = I, f = 0, mu = 0. ``update`` adds one (context, reward)
    observation: B += x x', f += r x, mu = B^-1 f, with the cached inverse
    maintained by the Sherman-Morrison identity and refreshed by a dense
    solve every ``RESOLVE_EVERY`` updates. The state is a one-entity
    ``_LinearBank``.
    """

    def __init__(self, dim: int, v: float = 1.0) -> None:
        if dim < 1:
            raise ValueError("dimension must be >= 1")
        self._bank = _LinearBank(1, dim, v)
        self.dim, self.v = dim, self._bank.v

    b_matrix = property(lambda self: self._bank.B[0], doc="Precision matrix B.")
    b_inv = property(lambda self: self._bank.Binv[0], doc="Cached inverse of B.")
    f_vec = property(lambda self: self._bank.F[0], doc="Reward-weighted context sum f.")
    mu_vec = property(lambda self: self._bank.Mu[0], doc="Posterior mean B^-1 f.")
    n_updates = property(lambda self: int(self._bank.counts[0]), doc="Observations so far.")

    def copy(self) -> "LinearBelief":
        return self._bank.belief(0)

    def update(self, x: np.ndarray, reward: float) -> None:
        self._bank.update(0, _check_context(x, self.dim), reward)

    def sample(self, x: np.ndarray, rng: np.random.Generator) -> float:
        return float(self._bank.sample(_check_context(x, self.dim), rng)[0])

    def ucb_index(self, x: np.ndarray, alpha: float) -> float:
        return float(self._bank.ucb(_check_context(x, self.dim), alpha)[0])


def lin_sample(belief: LinearBelief, x: np.ndarray, rng: np.random.Generator) -> float:
    """Gaussian score draw N(mu'x, v x'B^-1 x) from one belief."""
    return belief.sample(x, rng)


def lin_update(belief: LinearBelief, x: np.ndarray, reward: float) -> LinearBelief:
    """Posterior after one (context, reward) observation; the input is unchanged."""
    out = belief.copy()
    out.update(x, reward)
    return out


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

    def best_expected(self, x: np.ndarray) -> float:
        return float((self.theta @ x).max())

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

    def arm_belief(self, arm: int) -> LinearBelief:
        """A copy of one arm's posterior (every policy keeps its arms in ``_arms``)."""
        return self._arms.belief(arm)


class LinThompson(ContextualPolicy):
    """Linear Thompson sampling over a flat action set."""

    key = "lints"

    def __init__(self, n_arms: int, dim: int, v: float = 1.0) -> None:
        self._arms = _LinearBank(n_arms, dim, v)
        self.dim = dim
        self.v = float(v)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = _check_context(x, self.dim)
        theta = self._arms.sample(x, rng)
        return Choice(arm=random_argmax(theta, rng))

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

    def __init__(self, clustering: DisjointClustering, dim: int, v: float = 1.0) -> None:
        self.clustering = clustering
        self.dim = dim
        self.v = float(v)
        self._clusters = _LinearBank(clustering.n_clusters, dim, v)
        self._arms = _LinearBank(clustering.n_arms, dim, v)

    def cluster_belief(self, cluster: int) -> LinearBelief:
        return self._clusters.belief(cluster)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._clusters.sample(x, rng), rng)
        members = self.clustering.members(cluster)
        theta = self._arms.sample(x, rng, subset=members)
        arm = int(members[random_argmax(theta, rng)])
        return Choice(arm=arm, path=(cluster,))

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        x = _check_context(x, self.dim)
        (cluster,) = choice.path
        if self.clustering.label_of(choice.arm) != cluster:
            raise ValueError(f"arm {choice.arm} is not in cluster {cluster}")
        self._clusters.update(cluster, x, reward)
        self._arms.update(choice.arm, x, reward)


class LinUcb(ContextualPolicy):
    """Linear UCB: mean score plus alpha times the posterior width."""

    key = "linucb"

    def __init__(self, n_arms: int, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        self._arms = _LinearBank(n_arms, dim, 1.0)
        self.dim = dim
        self.alpha = float(alpha)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = _check_context(x, self.dim)
        return Choice(arm=random_argmax(self._arms.ucb(x, self.alpha), rng))

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        x = _check_context(x, self.dim)
        self._arms.update(choice.arm, x, reward)


class ClusteredLinUcb(ContextualPolicy):
    """Two-level linear UCB over a disjoint clustering."""

    key = "linucbc"
    path_depth = 1

    def __init__(self, clustering: DisjointClustering, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        self.clustering = clustering
        self.dim = dim
        self.alpha = float(alpha)
        self._clusters = _LinearBank(clustering.n_clusters, dim, 1.0)
        self._arms = _LinearBank(clustering.n_arms, dim, 1.0)

    def cluster_belief(self, cluster: int) -> LinearBelief:
        return self._clusters.belief(cluster)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        x = _check_context(x, self.dim)
        cluster = random_argmax(self._clusters.ucb(x, self.alpha), rng)
        members = self.clustering.members(cluster)
        idx = self._arms.ucb(x, self.alpha, subset=members)
        arm = int(members[random_argmax(idx, rng)])
        return Choice(arm=arm, path=(cluster,))

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        x = _check_context(x, self.dim)
        (cluster,) = choice.path
        if self.clustering.label_of(choice.arm) != cluster:
            raise ValueError(f"arm {choice.arm} is not in cluster {cluster}")
        self._clusters.update(cluster, x, reward)
        self._arms.update(choice.arm, x, reward)


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
