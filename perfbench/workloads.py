"""Benchmark workloads: which preset, at how many seeds and workers.

Each workload is a built-in preset of ``clusterbandit.harness``. The
benchmark replaces only the preset's seed list (``n_seeds`` consecutive
seeds from the seed base given on the command line) and, in smoke mode, the
horizon; everything else is the preset as a user would run it. Why each
workload was chosen is recorded in BENCHMARK.json.
"""
from __future__ import annotations

from dataclasses import dataclass

# Seed base used when none is given, and one seed base kept out of any tuning
# so that a claimed gain can be re-checked on inputs nobody looked at.
DEFAULT_SEED = 0
HELDOUT_SEED = 104729

# Smoke mode: every workload at a tiny size, through the same code paths.
SMOKE_HORIZON = 60
SMOKE_SEEDS = 2


@dataclass(frozen=True)
class Workload:
    name: str
    preset: str
    workers: int
    n_seeds: int


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(name="flat-kmeans", preset="kmeans-large", workers=1, n_seeds=2),
        Workload(name="tree-bounds", preset="hts-uct", workers=2, n_seeds=2),
        Workload(name="contextual", preset="ctx-large-eps05", workers=1, n_seeds=2),
    )
}


def seed_list(seed: int, n_seeds: int) -> list[int]:
    return list(range(seed, seed + n_seeds))


def config_doc(workload: Workload, seed: int, smoke: bool) -> dict:
    """The experiment config the program receives for one benchmark run."""
    from clusterbandit.harness import preset

    doc = preset(workload.preset).to_json()
    doc["seeds"] = seed_list(seed, SMOKE_SEEDS if smoke else workload.n_seeds)
    if smoke:
        doc["horizon"] = SMOKE_HORIZON
    return doc


def probe_jobs(workload: Workload, seed: int, smoke: bool) -> list[tuple]:
    """Jobs that give a traced run the per-policy metrics of the policies it does not run.

    For each such policy, the ``harness._run_job`` payload of the first
    workload that runs it, on the last variant it runs on there, at that
    workload's first seed: a job that workload itself runs.
    """
    from clusterbandit.harness import ExperimentConfig

    jobs: dict[str, tuple] = {p["key"]: () for p in config_doc(workload, seed, smoke)["policies"]}
    for home in WORKLOADS.values():
        config = ExperimentConfig.from_json(config_doc(home, seed, smoke))
        for p in config.policies:
            if p.key in jobs:
                continue
            variant = [v for v in config.variants if p.runs_on(v.name)][-1]
            jobs[p.key] = (variant.name, variant.spec, p.key, p.params, p.name, config.seeds[0],
                           config.horizon, config.stride, config.context_kind)
    return [job for job in jobs.values() if job]
