"""Linear contextual bandit policies with clustered arms.

Every node of a policy's tree below the root carries a ridge posterior over
a d-dimensional coefficient vector: a precision matrix B starting at the
identity, a reward-weighted context sum f, and the mean B^-1 f. Thompson
variants sample a scalar score per node from N(mu'x, v x'B^-1 x); UCB
variants score with mu'x + alpha sqrt(x'B^-1 x).

Every policy is a ``ContextualPolicy``, a ``policies.BanditPolicy`` that
``needs`` a contextual instance and is made by ``policies.make_policy``. It
runs the Bernoulli policies' one descent, time rule, copy rule and path
check over one ``_LinearBank`` with a row per non-root node in ``tree.slot``
order, so the children of node v are the contiguous rows
``ptr[v]:ptr[v+1]``. At each node ``_pick`` scores the children and moves to
the argmax, from the root to a leaf; the observed (context, reward) pair
updates the row of every non-root node on the path. ``lints`` and ``linucb``
are ``flat``: they descend ``ClusterTree.star(n)``, so their path to arm a
is ``(0, a+1)`` and their traces keep no paths, as for ``ts``; ``lintsc``
and ``linucbc`` descend ``ClusterTree.from_clustering(c)``, so their path is
``(0, c+1, leaf)`` for cluster c, as for ``tsc``. The UCB variants only
score rows with ``_LinearBank.ucb`` instead of ``_LinearBank.sample``.
Inverses are maintained with rank-one updates and re-solved densely every
1000 updates per row to cap numerical drift.

The bank reads its inverses as flat ``(n, d*d)`` rows, so x'B^-1 x for
every row of a slice is one product of those rows with the flattened x x'.
``select`` forms that flattened x x' once per step (``_outer``); every
level's scores read it, and ``update`` adds it to the precision of every
path row. ``update`` forms it anew only for a (choice, context) pair other
than the one ``select`` returned and saw.
Scores of bit-equal posteriors must stay bit-equal wherever the rows sit:
UCB ties between unplayed arms are common, and a tie that rounding breaks
changes the trace. So mu'x and x'B^-1 x use ``einsum``, which sums each row
alone, and never a BLAS product (``@``, ``np.dot``), which rounds equal rows
differently by their position in the matrix.

The scores and the rank-one update work in place on their own temporaries.
Where that reorders an operation, the swap is one IEEE makes exact: a*b is
b*a and a+b is b+a, so ``v * quad``, ``scale * z``, ``mean + scale * z`` and
``mean + alpha * width`` give the same bits as the in-place ``quad *= v``,
``z *= scale``, ``z += mean`` and ``width += mean``.
"""
from __future__ import annotations

import math
from abc import abstractmethod
import numpy as np

from .core import ClusterTree, DisjointClustering, random_argmax
from .policies import BanditPolicy, Choice

__all__ = [
    "ContextualInstance",
    "ContextualPolicy",
    "LinThompson",
    "ClusteredLinThompson",
    "LinUcb",
    "ClusteredLinUcb",
]

RESOLVE_EVERY = 1000


def _check_context(x: np.ndarray, dim: int) -> np.ndarray:
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (dim,):
        raise ValueError(f"context shape {x.shape} does not match dimension {dim}")
    if not np.isfinite(x).all():
        raise ValueError("context has non-finite entries")
    return x


def _outer(x: np.ndarray) -> np.ndarray:
    """The flattened outer product x x', as the bank's scores and updates read it."""
    return (x[:, None] * x).ravel()


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
    """Ridge posteriors for n rows, stored stacked; scores read the rows ``lo:hi``.

    Callers pass the context x with its flattened outer product ``xx``
    (:func:`_outer`), formed once per step. The scores and the update compute
    in place, with only the exact operand swaps the module docstring lists,
    so they give the bits of the textbook expressions. ``_binv_rows`` and
    ``_b_rows`` are flat ``(n, d*d)`` views of ``Binv`` and ``B``, and
    ``_count`` reads the counts as Python ints; views do not survive a copy
    or a pickle, so ``__setstate__`` remakes them.
    """

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
        self._bind()

    def _bind(self) -> None:
        self._binv_rows = self.Binv.reshape(self.n, self.dim * self.dim)
        self._b_rows = self.B.reshape(self.n, self.dim * self.dim)
        self._count = memoryview(self.counts)

    def __getstate__(self) -> dict:
        state = self.__dict__.copy()
        for name in ("_binv_rows", "_b_rows", "_count"):
            del state[name]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._bind()

    def _mean(self, x: np.ndarray, lo: int, hi: int) -> np.ndarray:
        return np.einsum("nk,k->n", self.Mu[lo:hi], x)

    def _quad(self, xx: np.ndarray, lo: int, hi: int) -> np.ndarray:
        quad = np.einsum("nk,k->n", self._binv_rows[lo:hi], xx)
        return np.maximum(quad, 0.0, out=quad)

    def sample(self, x: np.ndarray, xx: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        mean = self._mean(x, lo, hi)
        scale = self._quad(xx, lo, hi)
        scale *= self.v
        np.sqrt(scale, out=scale)
        # the draws and the arithmetic of rng.normal(mean, scale), without its broadcasting
        z = rng.standard_normal(hi - lo)
        z *= scale
        z += mean
        return z

    def ucb(self, x: np.ndarray, xx: np.ndarray, alpha: float, lo: int, hi: int) -> np.ndarray:
        width = self._quad(xx, lo, hi)
        np.sqrt(width, out=width)
        width *= alpha
        width += self._mean(x, lo, hi)
        return width

    def update(self, i: int, x: np.ndarray, xx: np.ndarray, reward: float) -> None:
        if not math.isfinite(reward):
            raise ValueError(f"non-finite reward {reward}")
        binv, b, f, mu = self.Binv[i], self._b_rows[i], self.F[i], self.Mu[i]
        u = binv @ x
        step = u[:, None] * u
        step /= 1.0 + x @ u
        binv -= step
        b += xx
        f += reward * x
        count = self._count[i] + 1
        self._count[i] = count
        if count % RESOLVE_EVERY == 0:
            precision = self.B[i]
            binv[...] = np.linalg.inv(precision)
            mu[...] = np.linalg.solve(precision, f)
        else:
            np.matmul(binv, f, out=mu)


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

    structure = "contextual"  # as ``instances.spec_structure`` names a contextual spec's

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
        """``rng.uniform(lo, hi)`` on the reward interval, as its own arithmetic ``lo + (hi - lo) * U``.

        One scalar ``rng.random()`` gives the same bits and leaves the
        generator in the same state; a non-finite range raises ``uniform``'s
        ``OverflowError`` before any draw.
        """
        m = self.expected_reward(arm, x)
        lo, hi = (0.0, 2.0 * m) if m >= 0.0 else (2.0 * m, 0.0)
        width = hi - lo
        if not math.isfinite(width):
            raise OverflowError("high - low range exceeds valid bounds")
        return lo + width * rng.random()

    def __repr__(self) -> str:
        return (
            f"ContextualInstance(n_arms={self.n_arms}, dim={self.dim}, "
            f"n_clusters={self.clustering.n_clusters}, epsilon={self.epsilon})"
        )


# ---------------------------------------------------------------------------
# Policies
# ---------------------------------------------------------------------------

class ContextualPolicy(BanditPolicy):
    """The descent every contextual policy runs, over one bank in ``tree.slot`` order.

    ``_pick`` scores the children of each node on the way down, rows
    ``ptr[v]:ptr[v+1]`` of the bank, with ``_score`` and moves to the argmax
    child. ``update`` credits the (context, reward) pair to the row of every
    non-root node on the path. ``_seen`` and ``_xx`` are the checked context
    the last ``select`` scored and its flattened outer product: ``update``
    given ``_selected`` and ``_seen`` trusts them and reuses ``_xx``, so a
    context must not change in place between the two calls; any other pair
    is checked and its outer product formed anew.
    """

    key: str = ""  # a class body with its own select/update declares the key its timings are named by
    needs = "contextual"
    params = {"v": (float, _check_v), "d": (int, None)}
    _seen: np.ndarray | None = None
    _xx: np.ndarray | None = None

    def _trusts(self, choice: Choice, x: np.ndarray) -> bool:
        return choice is self._selected and x is self._seen

    def __init__(self, tree: ClusterTree, dim: int, v: float) -> None:
        super().__init__(tree)
        self.dim = dim
        self.v = float(v)
        self._bank = _LinearBank(len(tree.kids), dim, v)

    @abstractmethod
    def _score(self, x: np.ndarray, xx: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """One score per bank row in ``[lo, hi)``; ``xx`` is ``_outer(x)``."""

    def _pick(self, lo: int, hi: int, at: int, t: int, rng: np.random.Generator) -> int:
        return random_argmax(self._score(self._seen, self._xx, rng, lo, hi), rng)

    def select(self, t: int, x: np.ndarray, rng: np.random.Generator) -> Choice:
        """Choose an arm for context ``x`` at step ``t`` (1-based), consuming only ``rng``."""
        x = self._seen = _check_context(x, self.dim)
        self._xx = _outer(x)
        return self._descend(t, rng)

    def update(self, choice: Choice, x: np.ndarray, reward: float) -> None:
        """Feed back the reward observed for ``choice`` under context ``x``."""
        if self._trusts(choice, x):
            path, xx = choice.path, self._xx
        else:
            x, path = _check_context(x, self.dim), self._walk.check_path(choice)
            xx = _outer(x)
        bank, slot = self._bank, self._walk.slot
        for v in path[1:]:
            bank.update(slot[v], x, xx, reward)


class LinThompson(ContextualPolicy):
    """Linear Thompson sampling over a flat action set: the descent on ``ClusterTree.star(n_arms)``.

    Arm a is leaf a+1 and bank row a. Traces keep no paths.
    """

    key = "lints"
    flat = True

    def __init__(self, n_arms: int, dim: int, v: float = 1.0) -> None:
        super().__init__(ClusterTree.star(n_arms), dim, v)

    def _score(self, x: np.ndarray, xx: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """One score per row in ``[lo, hi)``: a posterior draw."""
        return self._bank.sample(x, xx, rng, lo, hi)


class ClusteredLinThompson(ContextualPolicy):
    """Two-level linear Thompson sampling over a disjoint clustering.

    The descent on ``ClusterTree.from_clustering(clustering)``: cluster
    posteriors (rows ``0..k-1``) pick the cluster, node c+1, and then the
    posteriors of its arms, one contiguous run of rows, pick the arm; both
    levels are updated with the same observed (context, reward) pair.
    """

    key = "lintsc"
    _score = LinThompson._score

    def __init__(self, clustering: DisjointClustering, dim: int, v: float = 1.0) -> None:
        super().__init__(ClusterTree.from_clustering(clustering), dim, v)


class LinUcb(LinThompson):
    """Linear UCB: mean score plus alpha times the posterior width."""

    key = "linucb"
    params = {"alpha": (float, _check_alpha), "d": (int, None)}

    def __init__(self, n_arms: int, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        super().__init__(n_arms, dim)
        self.alpha = float(alpha)

    def _score(self, x: np.ndarray, xx: np.ndarray, rng: np.random.Generator, lo: int, hi: int) -> np.ndarray:
        """One score per row in ``[lo, hi)``: its upper confidence index."""
        return self._bank.ucb(x, xx, self.alpha, lo, hi)


class ClusteredLinUcb(ClusteredLinThompson):
    """Two-level linear UCB over a disjoint clustering."""

    key = "linucbc"
    params = LinUcb.params
    _score = LinUcb._score

    def __init__(self, clustering: DisjointClustering, dim: int, alpha: float = 2.0) -> None:
        _check_alpha(alpha)
        super().__init__(clustering, dim)
        self.alpha = float(alpha)
