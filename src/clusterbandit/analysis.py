"""Clustering-quality statistics and regret-bound calculators.

Implements the Bernoulli KL divergence, per-cluster width/distance/gap
statistics with the clustering-quality ratio gamma, the instance-dependent
and instance-independent upper-bound formulas for two-level and tree
Thompson sampling, the asymptotic lower-bound reference curve, the table
of the bounds that apply to each instance structure (``instance_bounds``),
the strong-dominance and tree-dominance audits, and trace aggregation
helpers.

The instance bounds are asymptotic leading terms: o(log T) remainders are
not computable and are surfaced through an explicit caveat string, never
added silently. The two minimax curves are shapes with a unit leading
constant, whose caveat is ``REFERENCE_CURVE_CAVEAT``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import BanditInstance

__all__ = [
    "kl_bernoulli",
    "ClusterStats",
    "cluster_stats",
    "InstanceBound",
    "tsc_instance_bound",
    "tsc_minimax_bound",
    "minimax_lower_reference",
    "hts_instance_bound",
    "lai_robbins_lower",
    "instance_bounds",
    "bound_caveat",
    "DominanceReport",
    "verify_strong_dominance",
    "TreeDominanceViolation",
    "TreeDominanceReport",
    "audit_hierarchical_dominance",
    "TraceSummary",
    "aggregate_curves",
    "pooled_std",
]

LEADING_TERM_CAVEAT = (
    "asymptotic leading term; the o(log T) remainder is not computable and "
    "is not included"
)
# the caveat of the two plain-number curves, ``tsc_minimax_bound`` and ``minimax_lower_reference``
REFERENCE_CURVE_CAVEAT = "reference curve shape with a unit leading constant, not a certified bound"


def kl_bernoulli(p: float, q: float) -> float:
    """KL divergence between Bernoulli(p) and Bernoulli(q), in nats.

    Uses the conventions 0*log(0) = 0 and D(p, q) = +inf when q is 0 or 1
    while p differs from it. The infinity is returned as an explicit
    ``math.inf`` sentinel rather than raised.
    """
    if not (0.0 <= p <= 1.0 and 0.0 <= q <= 1.0):
        raise ValueError(f"KL arguments must be in [0, 1], got ({p}, {q})")
    if q in (0.0, 1.0):
        return 0.0 if p == q else math.inf
    out = 0.0
    if p > 0.0:
        out += p * math.log(p / q)
    if p < 1.0:
        out += (1.0 - p) * math.log((1.0 - p) / (1.0 - q))
    return out


# ---------------------------------------------------------------------------
# Cluster statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ClusterStats:
    """Per-cluster and instance-level clustering-quality statistics.

    Arrays are indexed by cluster id. ``distance[c]`` (the smallest mean gap
    between the optimal cluster's arms and cluster c's arms) is NaN for the
    optimal cluster itself, where it is undefined. ``gamma_c`` is the ratio
    of the optimal cluster's width to ``distance``, zero for the optimal
    cluster, and ``gamma`` is the sum of the ratios divided by the number of
    sub-optimal clusters.
    """

    mu_star: float
    optimal_arm: int
    optimal_cluster: int
    a_star: int
    k_suboptimal: int
    w_star: float
    gamma: float
    unique_optimum: bool
    mu_bar: np.ndarray
    mu_under: np.ndarray
    width: np.ndarray
    distance: np.ndarray
    gap: np.ndarray
    gamma_c: np.ndarray
    arm_gaps: np.ndarray
    optimal_cluster_means: np.ndarray

    @property
    def n_clusters(self) -> int:
        return int(self.mu_bar.size)

    def suboptimal_clusters(self) -> np.ndarray:
        ids = np.arange(self.n_clusters)
        return ids[ids != self.optimal_cluster]

    def to_json(self) -> dict:
        def _clean(arr: np.ndarray) -> list:
            return [None if not math.isfinite(v) else float(v) for v in arr]

        return {
            "mu_star": self.mu_star,
            "optimal_arm": self.optimal_arm,
            "optimal_cluster": self.optimal_cluster,
            "a_star": self.a_star,
            "k_suboptimal": self.k_suboptimal,
            "w_star": self.w_star,
            "gamma": None if not math.isfinite(self.gamma) else self.gamma,
            "unique_optimum": self.unique_optimum,
            "mu_bar": self.mu_bar.tolist(),
            "mu_under": self.mu_under.tolist(),
            "width": self.width.tolist(),
            "distance": _clean(self.distance),
            "gap": self.gap.tolist(),
            "gamma_c": _clean(self.gamma_c),
            "arm_gaps": self.arm_gaps.tolist(),
        }


def cluster_stats(instance: BanditInstance) -> ClusterStats:
    """Compute all clustering-quality statistics of a clustered instance."""
    if instance.labels is None:
        raise ValueError("instance has no disjoint clustering")
    labels, means = instance.labels, instance.means
    mu_star = float(means.max())
    optimal_arm = instance.optimal_arm
    c_star = int(labels[optimal_arm])
    star_arms = instance.tree.arms_under(c_star + 1)
    n_clusters = int(labels.max()) + 1

    mu_bar = np.full(n_clusters, -np.inf)
    mu_under = np.full(n_clusters, np.inf)
    np.maximum.at(mu_bar, labels, means)
    np.minimum.at(mu_under, labels, means)
    width = mu_bar - mu_under
    gap = mu_star - mu_bar

    distance = mu_under[c_star] - mu_bar
    distance[c_star] = np.nan

    w_star = float(width[c_star])
    gamma_c = np.zeros(n_clusters)
    for c in range(n_clusters):
        if c == c_star:
            continue
        d = float(distance[c])
        if d == 0.0:
            gamma_c[c] = math.inf if w_star > 0.0 else 0.0
        else:
            gamma_c[c] = w_star / d
    k_suboptimal = n_clusters - 1
    gamma = float(gamma_c.sum() / k_suboptimal) if k_suboptimal > 0 else 0.0

    return ClusterStats(
        mu_star=mu_star,
        optimal_arm=optimal_arm,
        optimal_cluster=c_star,
        a_star=int(star_arms.size),
        k_suboptimal=k_suboptimal,
        w_star=w_star,
        gamma=gamma,
        unique_optimum=instance.has_unique_optimum,
        mu_bar=mu_bar,
        mu_under=mu_under,
        width=width,
        distance=distance,
        gap=gap,
        gamma_c=gamma_c,
        arm_gaps=mu_star - means,
        optimal_cluster_means=np.sort(means[star_arms]),
    )


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InstanceBound:
    """Evaluated regret-bound curve point.

    ``coefficient`` multiplies log T (``leading = coefficient * log T``);
    ``loglog_coefficient`` multiplies log log T when the bound carries an
    explicit companion term, else it is zero. ``finite`` is False when a
    degenerate instance makes the bound vacuous (a KL denominator of zero),
    and ``dominance_ok`` is False when the dominance assumption behind the
    formula fails on the instance (the value is then computed from the
    well-defined terms only).
    """

    coefficient: float
    leading: float
    loglog_coefficient: float = 0.0
    loglog: float = 0.0
    finite: bool = True
    dominance_ok: bool = True
    caveat: str = LEADING_TERM_CAVEAT
    warnings: tuple[str, ...] = ()


def _check_horizon(T: float) -> float:
    if not (math.isfinite(T) and T >= 2):
        raise ValueError(f"horizon: must be finite and >= 2, got {T}")
    return float(T)


def _check_eps(eps: float) -> None:
    if not (math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps: must be finite and > 0, got {eps}")


def _optimal_cluster_arm_sum(stats: ClusterStats, warnings: list[str]) -> float:
    """Sum of gap_a / D(mu_a, mu*) over sub-optimal arms of the optimal cluster.

    The optimal arm contributes no regret and is excluded; arms tied with it
    would produce 0/0 terms and are skipped with a warning.
    """
    out = 0.0
    for mu_a in stats.optimal_cluster_means:
        mu_a = float(mu_a)
        gap_a = stats.mu_star - mu_a
        if gap_a == 0.0:
            continue
        div = kl_bernoulli(mu_a, stats.mu_star)
        if div == 0.0:
            warnings.append(f"optimal-cluster arm with mean {mu_a}: zero divergence, term skipped")
            continue
        if math.isinf(div):
            warnings.append(f"optimal-cluster arm with mean {mu_a}: infinite divergence, term is zero")
            continue
        out += gap_a / div
    if not stats.unique_optimum:
        warnings.append("no unique optimal arm; bound premises violated")
    return out


def tsc_instance_bound(stats: ClusterStats, T: float, eps: float = 0.1) -> InstanceBound:
    """Instance-dependent leading-term upper bound for two-level TS.

    Sums, over sub-optimal clusters, the cluster gap divided by the KL
    divergence between the cluster's best mean and the optimal cluster's
    worst mean, plus the usual per-arm term inside the optimal cluster; the
    whole sum is scaled by (1 + eps) and multiplies log T. The identical
    coefficient multiplies the companion log log T term.
    """
    T = _check_horizon(T)
    _check_eps(eps)
    warnings: list[str] = []
    dominance_ok = True
    finite = True

    coeff = 0.0
    floor_star = float(stats.mu_under[stats.optimal_cluster])
    for c in stats.suboptimal_clusters():
        if not stats.distance[c] > 0.0:
            dominance_ok = False
        gap_c = float(stats.gap[c])
        div = kl_bernoulli(float(stats.mu_bar[c]), floor_star)
        if div == 0.0:
            if gap_c > 0.0:
                finite = False
                warnings.append(
                    f"cluster {c}: best mean equals the optimal cluster's worst mean; "
                    "bound is unbounded"
                )
            continue
        if math.isinf(div):
            warnings.append(f"cluster {c}: infinite divergence, term is zero")
            continue
        coeff += gap_c / div

    coeff += _optimal_cluster_arm_sum(stats, warnings)
    coeff *= 1.0 + eps

    if not finite:
        coeff = math.inf
    log_t, loglog_t = math.log(T), math.log(math.log(T))
    return InstanceBound(
        coefficient=coeff,
        leading=coeff * log_t,
        loglog_coefficient=coeff,
        loglog=coeff * loglog_t,
        finite=finite,
        dominance_ok=dominance_ok,
        warnings=tuple(warnings),
    )


def tsc_minimax_bound(stats: ClusterStats, T: float) -> float:
    """Instance-independent shape curve sqrt((A* + K(1+gamma)) T log T).

    Unit leading constant; intended as a reference curve, not a certified
    numeric bound. The size term can only be negative when strong dominance
    fails (gamma < -1 - A*/K); the curve is then undefined and ``math.inf``
    is returned.
    """
    T = _check_horizon(T)
    size_term = stats.a_star + stats.k_suboptimal * (1.0 + stats.gamma)
    if size_term < 0.0:
        return math.inf
    return math.sqrt(size_term * T * math.log(T))


def minimax_lower_reference(stats: ClusterStats, T: float) -> float:
    """Reference curve sqrt((A* + K) T) for the minimax lower bound."""
    T = _check_horizon(T)
    return math.sqrt((stats.a_star + stats.k_suboptimal) * T)


def lai_robbins_lower(stats: ClusterStats, T: float) -> InstanceBound:
    """Asymptotic instance-dependent lower-bound reference curve.

    Within the optimal cluster the per-arm terms are the classical ones;
    each sub-optimal cluster contributes its gap divided by the divergence
    between the cluster's *worst* mean and the optimal mean. Terms with an
    infinite divergence are dropped with a warning.
    """
    T = _check_horizon(T)
    warnings: list[str] = []
    coeff = _optimal_cluster_arm_sum(stats, warnings)
    for c in stats.suboptimal_clusters():
        gap_c = float(stats.gap[c])
        div = kl_bernoulli(float(stats.mu_under[c]), stats.mu_star)
        if math.isinf(div):
            warnings.append(f"cluster {c}: infinite divergence, term dropped")
            continue
        if div == 0.0:
            warnings.append(f"cluster {c}: zero divergence, term dropped")
            continue
        coeff += gap_c / div
    return InstanceBound(
        coefficient=coeff,
        leading=coeff * math.log(T),
        caveat="asymptotic lower-bound reference (lim inf of regret / log T)",
        warnings=tuple(warnings),
    )


def _off_path_siblings(instance: BanditInstance):
    """Every sibling subtree branching off the root-to-optimal-leaf path.

    Yields (on-path child, sibling, min mean under the on-path child, max
    mean under the sibling), walking down from the root.
    """
    tree = instance.tree
    assert tree is not None
    means = instance.means
    path = tree.path_to_root(tree.leaf_of_arm(instance.optimal_arm))
    path.reverse()
    for v, nxt in zip(path, path[1:]):
        opt_min = float(means[tree.arms_under(nxt)].min())
        for sib in tree.children(v).tolist():
            if sib != nxt:
                yield nxt, sib, opt_min, float(means[tree.arms_under(sib)].max())


def hts_instance_bound(instance: BanditInstance, T: float, eps: float = 0.1) -> InstanceBound:
    """Instance-dependent leading-term upper bound for tree-recursive TS.

    Walks the root-to-optimal-leaf path; every sibling subtree S branching
    off the path contributes (mu* - max S) / (min_opt - max S)^2, where
    min_opt is the smallest mean inside the on-path subtree at the same
    level. At the leaf level this reduces to the classical 1/gap terms, and
    for a depth-1 structure it reduces to the two-level bound with the
    squared-distance (Pinsker-style) denominators.

    Sibling terms with a non-positive denominator (tree dominance violated)
    are skipped and ``dominance_ok`` is set to False.
    """
    if instance.structure != "tree":
        raise ValueError("instance has no cluster tree")
    T = _check_horizon(T)
    _check_eps(eps)
    mu_star = instance.optimal_mean

    warnings: list[str] = []
    dominance_ok = True
    coeff = 0.0
    for _, sib, opt_min, sib_max in _off_path_siblings(instance):
        dist = opt_min - sib_max
        if dist <= 0.0:
            dominance_ok = False
            warnings.append(f"subtree {sib}: non-positive distance {dist:.6g}, term skipped")
            continue
        coeff += (mu_star - sib_max) / (dist * dist)
    if not instance.has_unique_optimum:
        warnings.append("no unique optimal arm; bound premises violated")

    coeff *= 1.0 + eps
    return InstanceBound(
        coefficient=coeff,
        leading=coeff * math.log(T),
        dominance_ok=dominance_ok,
        warnings=tuple(warnings),
    )


def instance_bounds(
    instance: BanditInstance, T: float, eps: float = 0.1
) -> dict[str, InstanceBound | float]:
    """Every bound that applies to ``instance.structure``, by name.

    A clustering has ``tsc_instance``, ``tsc_minimax``, ``lai_robbins_lower``
    and ``minimax_lower_reference``; a tree has ``hts_instance``; a flat or
    contextual instance has none. The two reference curves are plain values;
    ``bound_caveat`` gives each entry's caveat.
    """
    if instance.structure == "clustering":
        stats = cluster_stats(instance)
        return {
            "tsc_instance": tsc_instance_bound(stats, T, eps),
            "tsc_minimax": tsc_minimax_bound(stats, T),
            "lai_robbins_lower": lai_robbins_lower(stats, T),
            "minimax_lower_reference": minimax_lower_reference(stats, T),
        }
    if instance.structure == "tree":
        return {"hts_instance": hts_instance_bound(instance, T, eps)}
    return {}


def bound_caveat(bound: InstanceBound | float) -> str:
    """The caveat of one entry of ``instance_bounds``: an ``InstanceBound``'s own, a reference curve's
    ``REFERENCE_CURVE_CAVEAT``."""
    return bound.caveat if isinstance(bound, InstanceBound) else REFERENCE_CURVE_CAVEAT


# ---------------------------------------------------------------------------
# Dominance audits
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
    stats = cluster_stats(instance)
    tree, means = instance.tree, instance.means
    star_arms = tree.arms_under(stats.optimal_cluster + 1)
    violations: list[tuple[int, int]] = []
    for c in stats.suboptimal_clusters():
        if stats.distance[c] > 0.0:
            continue
        for a in star_arms:
            for b in tree.arms_under(int(c) + 1):
                if means[a] - means[b] <= 0.0:
                    violations.append((int(a), int(b)))
    return DominanceReport(holds=not violations, violations=tuple(violations), stats=stats)


@dataclass(frozen=True)
class TreeDominanceViolation:
    level: int
    optimal_child: int
    sibling: int
    optimal_min: float
    sibling_max: float


@dataclass(frozen=True)
class TreeDominanceReport:
    holds: bool
    violations: tuple[TreeDominanceViolation, ...]


def audit_hierarchical_dominance(instance: BanditInstance) -> TreeDominanceReport:
    """Check tree-level dominance along the optimal path.

    At every node on the root-to-optimal-leaf path, the minimum mean inside
    the on-path child subtree must exceed the maximum mean of every sibling
    subtree. A depth-0 tree passes vacuously.
    """
    if instance.structure != "tree":
        raise ValueError("instance has no cluster tree")
    violations = tuple(
        TreeDominanceViolation(instance.tree.node_depth(nxt), nxt, sib, opt_min, sib_max)
        for nxt, sib, opt_min, sib_max in _off_path_siblings(instance)
        if not opt_min > sib_max
    )
    return TreeDominanceReport(holds=not violations, violations=violations)


# ---------------------------------------------------------------------------
# Trace aggregation
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TraceSummary:
    """Pointwise mean and sample standard deviation across seeds."""

    n: int
    mean_curve: np.ndarray
    std_curve: np.ndarray

    @property
    def final_mean(self) -> float:
        return float(self.mean_curve[-1])

    @property
    def final_std(self) -> float:
        return float(self.std_curve[-1])


def aggregate_curves(curves: np.ndarray) -> TraceSummary:
    """Summarize a (runs x steps) stack of cumulative-regret curves."""
    curves = np.asarray(curves, dtype=np.float64)
    if curves.ndim != 2 or curves.shape[0] < 1:
        raise ValueError("need a non-empty 2-D stack of curves")
    n = curves.shape[0]
    mean = curves.mean(axis=0)
    std = curves.std(axis=0, ddof=1) if n > 1 else np.zeros(curves.shape[1])
    return TraceSummary(n=n, mean_curve=mean, std_curve=std)


def pooled_std(std_a: float, n_a: int, std_b: float, n_b: int) -> float:
    """Pooled sample standard deviation of two groups."""
    if n_a < 1 or n_b < 1:
        raise ValueError("group sizes must be >= 1")
    dof = n_a + n_b - 2
    if dof <= 0:
        return 0.0
    pooled_var = ((n_a - 1) * std_a ** 2 + (n_b - 1) * std_b ** 2) / dof
    return math.sqrt(pooled_var)
