"""Multi-level Thompson sampling for bandits with clustered arms.

Simulation library and benchmark harness: two-level and tree-recursive
Thompson sampling with UCB-style baselines, linear contextual variants,
synthetic instance generators, dominance audits and regret-bound
calculators, and a reproducible experiment runner with CSV/JSON/SVG export.
"""
from .analysis import (
    ClusterStats,
    InstanceBound,
    TraceSummary,
    aggregate_curves,
    audit_hierarchical_dominance,
    cluster_stats,
    hts_instance_bound,
    instance_bounds,
    kl_bernoulli,
    lai_robbins_lower,
    minimax_lower_reference,
    pooled_std,
    tsc_instance_bound,
    tsc_minimax_bound,
    verify_strong_dominance,
)
from .contextual import (
    ContextualInstance,
    ContextualPolicy,
    ClusteredLinThompson,
    ClusteredLinUcb,
    LinThompson,
    LinUcb,
)
from .core import (
    BanditInstance,
    ClusterTree,
    DisjointClustering,
    SimulationTrace,
    draw_reward,
    random_argmax,
    rng_streams,
)
from .harness import (
    ConfigError,
    JobError,
    ExperimentConfig,
    ExperimentResult,
    InstanceVariant,
    PolicySpec,
    export_result,
    load_results_json,
    preset,
    preset_names,
    run_experiment,
)
from .instances import (
    build_instance,
    gen_agglomerative_instance,
    gen_agglomerative_tree,
    gen_context,
    gen_contextual,
    gen_kmeans_instance,
    gen_kmeans_tree,
    gen_sorted_binary_tree,
    gen_strong_dominance,
    gen_uniform_instance,
    instance_from_json,
    instance_to_json,
    kmeans,
    sorted_tree_from_means,
    truncate_tree,
)
from .policies import (
    BanditPolicy,
    ClusteredThompsonSampling,
    ClusteredUcb1,
    HierarchicalThompsonSampling,
    ThompsonSampling,
    TreeUcb,
    TsMax,
    Ucb1,
    make_policy,
)
from .simulate import simulate

__version__ = "0.1.0"
