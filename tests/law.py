"""A law-equivalence gate for Thompson-sampling kernels that consume the generator differently.

A kernel that draws its Beta values in another order or amount changes every
output byte, so a byte-for-byte oracle cannot check it; this gate checks
instead that its runs follow the same law as the reference's. Its parameters
are fixed here, before any such kernel, and are not tuned to a candidate:

- instances: criterion 5's two-cluster instance, criterion 1's strong-dominance
  instance (N=100, K=10, A*=10, w=0.1, d=0.1), the sorted binary tree of 256
  arms (8 levels) and the kmeans-large preset's 1000 arms, each built from the
  instance stream of seed 0;
- runs: ``simulate`` for ``HORIZON`` = 400 steps, the reference on the
  simulation streams of seeds 0-199 and the candidate on seeds 1000-1199
  (a calibration candidate on seeds 2000-2199);
- checks: two-sample KS tests on the final regret, on the plays of the
  optimal root child (the root child of the reference's tree above the optimal
  arm, counted from the arms played) and on the replays (steps that play the
  previous step's arm again) after a failure and after a success, and
  chi-square tests of homogeneity on the arm played at t = 1, 10, 100 and
  400, whose columns with an expected count below 5 are pooled into one;
- one ``ALPHA`` = 0.001 for the whole run, Bonferroni-split over its checks.

The reference is the per-visit kernel: every child of a visited node drawn
afresh at every visit (``PerVisit``, a ``_pick`` override of the shipped
policies). ``BlockDraws`` is the block contract written out plainly: per node,
rows of pre-drawn values, one row per visit, 1, 2, 4, ... up to ``BLOCK_ROWS``
rows per refill, the moved child's remaining rows redrawn at the next visit,
and the block dropped when a second child moves first. ``GroupDraws`` is the
group contract of the nodes of at least ``_GROUP_MIN`` children, likewise.

The known-wrong candidates the gate must reject are here too: Beta(s, f + 1)
at the leaves, a block whose moved child is never redrawn, and two group
draws: a group's maximum drawn without the 1/m power, so as one draw, and
its first member played instead of a uniform one. A stale value
of the child just played shows first in how often it is played again, which
is what the two replay checks count; without them no check resolved a
never-redrawn block at 200 seeds.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.stats

from clusterbandit.core import _random_argmax_list, random_argmax, rng_streams
from clusterbandit.instances import build_instance
from clusterbandit.policies import (
    _NARROW,
    ClusteredThompsonSampling,
    HierarchicalThompsonSampling,
    ThompsonSampling,
    TsMax,
    make_policy,
)
from clusterbandit.simulate import simulate

ALPHA = 0.001
HORIZON = 400
REFERENCE_SEEDS = range(0, 200)
CANDIDATE_SEEDS = range(1000, 1200)
CALIBRATION_SEEDS = range(2000, 2200)
STEPS = (1, 10, 100, 400)
MIN_EXPECTED = 5.0
BLOCK_ROWS = 32

INSTANCES = {
    # criterion 5's TWO_CLUSTER_INSTANCE
    "criterion-5": {"kind": "bernoulli", "means": [0.6, 0.55, 0.4, 0.35], "clustering": {"labels": [0, 0, 1, 1]}},
    "criterion-1": {"kind": "strong_dominance", "n_arms": 100, "n_suboptimal_clusters": 10,
                    "optimal_cluster_size": 10, "optimal_width": 0.1, "separation": 0.1},
    "sorted-tree-256": {"kind": "sorted_tree", "n_arms": 256},
    # the kmeans-large preset's instance: flat ts draws by groups at its 1000-arm root
    "kmeans-1000": {"kind": "kmeans", "n_arms": 1000, "n_clusters": 32, "reward_fn": "sin-product"},
}


@functools.lru_cache(maxsize=None)
def instance(name: str):
    return build_instance(INSTANCES[name], rng_streams(0).instance)


# ---------------------------------------------------------------------------
# The reference: every child drawn at every visit
# ---------------------------------------------------------------------------

class PerVisit:
    """The per-visit kernel as a ``_pick`` override: a fresh value per child at every visit."""

    def _pick(self, lo, hi, at, t, rng):
        if hi - lo <= _NARROW:
            return _random_argmax_list(list(map(rng.beta, self._sv[lo:hi], self._fv[lo:hi])), rng)
        return random_argmax(rng.beta(self._s[lo:hi], self._f[lo:hi]), rng)


class PerVisitHts(PerVisit, HierarchicalThompsonSampling):
    pass


class PerVisitTs(PerVisit, ThompsonSampling):
    pass


class PerVisitTsc(PerVisit, ClusteredThompsonSampling):
    pass


class PerVisitTsMax(TsMax):
    """The root draws one fresh value per cluster representative, the clusters as ``PerVisit``."""

    def _pick(self, lo, hi, at, t, rng):
        if lo:
            return PerVisit._pick(self, lo, hi, at, t, rng)
        reps = self._reps
        return random_argmax(rng.beta(self._s[reps], self._f[reps]), rng)


REFERENCES: dict[str, Callable] = {
    "hts": lambda inst: PerVisitHts(inst.tree),
    "ts": lambda inst: PerVisitTs(inst.n_arms),
    "tsc": lambda inst: PerVisitTsc(inst.clustering),
    "tsmax": lambda inst: PerVisitTsMax(inst.clustering),
}


# ---------------------------------------------------------------------------
# The block contract, plainly
# ---------------------------------------------------------------------------

class _Block:
    def __init__(self, values):
        self.values, self.next, self.stale = values, 0, None


class BlockDraws:
    """Per node key, a block of pre-drawn Beta values: one row per visit of the node.

    ``row`` refills a used-up block with one call over the children's current
    beliefs, 1 row at the first refill and twice the last block's rows after,
    up to ``BLOCK_ROWS``; otherwise it first redraws the remaining rows of the
    child ``moved`` named with one call at that child's current belief.
    ``moved`` on a block with another moved child pending drops the block.
    """

    def __init__(self):
        self.blocks = {}

    def row(self, key, s, f, rng) -> np.ndarray:
        """The next row of values for children with beliefs Beta(s, f) (arrays in child order)."""
        block = self.blocks.get(key)
        if block is None or block.next == len(block.values):
            rows = 1 if block is None else min(2 * len(block.values), BLOCK_ROWS)
            block = self.blocks[key] = _Block(rng.beta(s, f, size=(rows, len(s))))
        elif block.stale is not None:
            i = block.stale
            block.values[block.next:, i] = rng.beta(s[i], f[i], size=len(block.values) - block.next)
            block.stale = None
        block.next += 1
        return block.values[block.next - 1]

    def moved(self, key, child) -> None:
        """The belief of ``child`` (its position in the node's child order) moved."""
        block = self.blocks.get(key)
        if block is None:
            return
        if block.stale is None or block.stale == child:
            block.stale = child
        else:
            del self.blocks[key]


# ---------------------------------------------------------------------------
# The group contract, plainly
# ---------------------------------------------------------------------------

class GroupDraws:
    """One value per group of children that share a closed-form belief, one per other child, at every visit.

    A child is closed-form when s == 1 or f == 1. The closed-form children
    are grouped by their exact (s, f), the groups in ascending (s, f) and each
    group's members in child order. One ``rng.random(G + 1)`` call gives the G
    groups' uniforms V and one more uniform U; a group of m children of belief
    Beta(s, f) takes the maximum of m such draws, F^-1(V^(1/m)): with
    x = log(V) / m, exp(x / s) at f == 1 and -expm1(log(-expm1(x)) / f) at
    s == 1. One ``rng.beta`` call, if there are any, gives the other
    children's values in child order. The argmax of the group values and
    then the others' values, ties broken as ``random_argmax`` breaks them,
    is played; a group plays its member number floor(U m).

    ``power=False`` (the maximum drawn as one draw, without the 1/m power)
    and ``first=True`` (a group's first member played) are the two
    known-wrong variants the gate must reject.
    """

    def __init__(self, power: bool = True, first: bool = False):
        self.power, self.first = power, first

    def pick(self, s, f, rng) -> int:
        """The child offset played among children of beliefs Beta(s, f) (arrays in child order)."""
        closed = np.flatnonzero((s == 1.0) | (f == 1.0))
        others = np.flatnonzero((s != 1.0) & (f != 1.0))
        # complex numbers sort by real part, then imaginary part: the groups in ascending (s, f)
        keys, group = np.unique(s[closed] + 1j * f[closed], return_inverse=True)
        gs, gf, m = keys.real, keys.imag, np.bincount(group)
        u = rng.random(len(keys) + 1)
        x = np.log(u[:-1]) / (m if self.power else 1.0)
        values = np.where(gs == 1.0, -np.expm1(np.log(-np.expm1(x)) / gf), np.exp(x / gs))
        if others.size:
            values = np.concatenate((values, rng.beta(s[others], f[others])))
        w = random_argmax(values, rng)
        if w >= len(keys):
            return int(others[w - len(keys)])
        return int(closed[group == w][0 if self.first else int(u[-1] * m[w])])


# ---------------------------------------------------------------------------
# Known-wrong candidates
# ---------------------------------------------------------------------------

class LeafBetaOffByOne(PerVisitTsc):
    """Draws Beta(s, f + 1) at the leaves."""

    def _pick(self, lo, hi, at, t, rng):
        if at == len(self._kids):  # the root: clusters as the reference
            return super()._pick(lo, hi, at, t, rng)
        return random_argmax(rng.beta(self._s[lo:hi], self._f[lo:hi] + 1.0), rng)


class NeverRedrawn:
    """Blocks of pre-drawn values whose moved child is never redrawn: a used-up block's refill is the only draw."""

    def _pick(self, lo, hi, at, t, rng):
        draws = self.__dict__.setdefault("_never_redrawn", BlockDraws())
        return random_argmax(draws.row(lo, self._s[lo:hi], self._f[lo:hi], rng), rng)


class NeverRedrawnTs(NeverRedrawn, ThompsonSampling):
    pass


class NeverRedrawnTsc(NeverRedrawn, ClusteredThompsonSampling):
    pass


class Grouped:
    """Every node drawn by ``GroupDraws`` with the class's ``draws``."""

    draws = GroupDraws()

    def _pick(self, lo, hi, at, t, rng):
        return self.draws.pick(self._s[lo:hi], self._f[lo:hi], rng)


class GroupMaxWithoutPower(Grouped, ThompsonSampling):
    draws = GroupDraws(power=False)


class GroupFirstMember(Grouped, ThompsonSampling):
    draws = GroupDraws(first=True)


WRONG: dict[str, Callable] = {
    "leaf-beta-f+1": lambda inst: LeafBetaOffByOne(inst.clustering),
    "ts-for-tsc": lambda inst: ThompsonSampling(inst.n_arms),
    "never-redrawn-tsc": lambda inst: NeverRedrawnTsc(inst.clustering),
    "never-redrawn-ts": lambda inst: NeverRedrawnTs(inst.n_arms),
    "group-max-without-power": lambda inst: GroupMaxWithoutPower(inst.n_arms),
    "group-first-member": lambda inst: GroupFirstMember(inst.n_arms),
}


# ---------------------------------------------------------------------------
# The gate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Sample:
    """Per seed: the final regret, the plays of the optimal root child, the replays after a failure and after
    a success, and the arm played at each of ``STEPS``."""

    final_regret: np.ndarray
    optimal_plays: np.ndarray
    replays_after_failure: np.ndarray
    replays_after_success: np.ndarray
    arms_at: np.ndarray


def optimal_root_child_arms(policy, inst) -> np.ndarray:
    """The arms under the root child of ``policy``'s tree that holds the optimal arm."""
    tree = policy.tree
    path = tree.path_to_root(tree.leaf_of_arm(inst.optimal_arm))
    return tree.arms_under(path[-2])


def sample(name: str, make: Callable, seeds: range, reference_key: str) -> Sample:
    """Run ``make(instance)`` on the simulation stream of each seed; the optimal root child is the reference's."""
    inst = instance(name)
    optimal = optimal_root_child_arms(REFERENCES[reference_key](inst), inst)
    rows = []
    for seed in seeds:
        trace = simulate(inst, make(inst), HORIZON, rng_streams(seed).simulation)
        arms, success = trace.arms, trace.rewards[:-1] > 0
        replay = arms[1:] == arms[:-1]
        rows.append((trace.cum_regret[-1], np.isin(arms, optimal).sum(), (replay & ~success).sum(),
                     (replay & success).sum(), arms[[t - 1 for t in STEPS]]))
    return Sample(*(np.array(column) for column in zip(*rows)))


@functools.lru_cache(maxsize=None)
def reference_sample(name: str, key: str) -> Sample:
    return sample(name, REFERENCES[key], REFERENCE_SEEDS, key)


def chi_square_p(a: np.ndarray, b: np.ndarray) -> float:
    """p of a chi-square test that ``a`` and ``b`` come from one categorical law.

    Columns whose expected count is below ``MIN_EXPECTED`` in either row are
    pooled into one; a pool still below it joins the smallest other column.
    With fewer than two columns left there is nothing to test, and p is 1.
    """
    cats = np.union1d(a, b)
    table = np.array([[np.count_nonzero(x == c) for c in cats] for x in (a, b)], dtype=float)
    expected = table.sum(axis=1, keepdims=True) * table.sum(axis=0) / table.sum()
    low = (expected < MIN_EXPECTED).any(axis=0)
    kept, pool = table[:, ~low], table[:, low].sum(axis=1, keepdims=True)
    if low.any():
        pool_expected = table.sum(axis=1, keepdims=True) * pool.sum() / table.sum()
        if (pool_expected < MIN_EXPECTED).any() and kept.shape[1]:
            smallest = int(kept.sum(axis=0).argmin())
            kept[:, smallest:smallest + 1] += pool
        else:
            kept = np.hstack([kept, pool])
    if kept.shape[1] < 2:
        return 1.0
    return float(scipy.stats.chi2_contingency(kept, correction=False).pvalue)


def p_values(reference: Sample, candidate: Sample) -> dict[str, float]:
    """Every check of one run, by name."""
    checks = {
        "ks final regret": scipy.stats.ks_2samp(reference.final_regret, candidate.final_regret).pvalue,
        "ks optimal root-child plays": scipy.stats.ks_2samp(reference.optimal_plays, candidate.optimal_plays).pvalue,
        "ks replays after a failure": scipy.stats.ks_2samp(
            reference.replays_after_failure, candidate.replays_after_failure).pvalue,
        "ks replays after a success": scipy.stats.ks_2samp(
            reference.replays_after_success, candidate.replays_after_success).pvalue,
    }
    for j, t in enumerate(STEPS):
        checks[f"chi2 arm at t={t}"] = chi_square_p(reference.arms_at[:, j], candidate.arms_at[:, j])
    return {name: float(p) for name, p in checks.items()}


def gate(name: str, key: str, make: Callable, seeds: range = CANDIDATE_SEEDS) -> tuple[bool, dict[str, float]]:
    """Whether ``make`` passes against the ``key`` reference on instance ``name``, and each check's p."""
    p = p_values(reference_sample(name, key), sample(name, make, seeds, key))
    return min(p.values()) >= ALPHA / len(p), p


def kernel(key: str) -> Callable:
    """The shipped policy of ``key``."""
    return lambda inst: make_policy(key, inst)
