"""Interleaved A/B timing of the policy step of two source trees, in one interpreter.

    python tools/ab_steps.py PARENT_SRC CHANGE_SRC [--keys lints,lintsc]
        [--spec JSON] [--horizon 1000] [--seed 0] [--rounds 12]

Each ``*_SRC`` is a directory holding a ``clusterbandit`` package (a
checkout's ``src``). The two packages are imported under their own names,
``ab_parent`` and ``ab_change``, so both run in one process: the same
interpreter, allocator and CPU, which rules out most of the drift between
two separately started benchmark processes.

Each tree builds the instance of ``--spec`` (default: the ``ctx-large-eps05``
variant) from the instance stream of ``--seed``, with the context sequence of
that seed for a contextual spec. One job is a fresh policy plus one
simulation run of ``--horizon`` steps on the simulation stream of ``--seed``,
made by the tree's ``make_policy`` and run by its ``simulate``. Every round
runs one job per key on each tree, the first tree alternating between
rounds, and times it with ``time.perf_counter``.

Per key, the report gives the median µs/step of each tree, the median of the
per-round ratios change/parent, how many rounds the change was faster, and
whether the two trees' traces (arms, rewards, cumulative regret) were
byte-identical in every round; the exit status is 1 if any key's were not,
also when the reader of the report closes it early (``| head -1``).
A step's root-to-leaf path is a function of its arm, so the comparison
holds between trees whose traces carry other fields too.
"""
from __future__ import annotations

import argparse
import importlib
import importlib.util
import json
import os
import statistics
import sys
import time
from pathlib import Path

CTX_LARGE_EPS05 = {"kind": "contextual", "n_arms": 900, "n_clusters": 30, "dim": 5, "epsilon": 0.5}
CONTEXTUAL_KEYS = ("lints", "lintsc", "linucb", "linucbc")


def load_tree(src: Path, name: str):
    """Import ``src/clusterbandit`` as the package ``name``; the package's imports are relative."""
    package = Path(src).resolve() / "clusterbandit"
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    if spec is None:
        raise SystemExit(f"no clusterbandit package under {src}")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


class Side:
    """One tree's instance, contexts and job runner."""

    def __init__(self, name: str, src: Path, spec: dict, horizon: int, seed: int) -> None:
        load_tree(src, name)
        self.core = importlib.import_module(f"{name}.core")
        self.simulate = importlib.import_module(f"{name}.simulate")
        self.policies = importlib.import_module(f"{name}.policies")
        instances = importlib.import_module(f"{name}.instances")
        streams = self.core.rng_streams(seed)
        self.instance = instances.build_instance(spec, streams.instance)
        self.kwargs = {}
        if self.instance.structure == "contextual":  # the harness's uniform draw, whatever the tree's gen_context
            self.kwargs = {"contexts": streams.context.random((horizon, self.instance.dim))}
        self.horizon, self.seed = horizon, seed

    def job(self, key: str):
        """(seconds, trace) of one fresh policy run on the seed's simulation stream."""
        rng = self.core.rng_streams(self.seed).simulation
        start = time.perf_counter()
        policy = self.policies.make_policy(key, self.instance)
        trace = self.simulate.simulate(self.instance, policy, self.horizon, rng, **self.kwargs)
        return time.perf_counter() - start, trace


def _trace_bytes(trace) -> tuple[bytes, ...]:
    return trace.arms.tobytes(), trace.rewards.tobytes(), trace.cum_regret.tobytes()


def compare(parent: Side, change: Side, keys: list[str], rounds: int) -> dict:
    """Per key: the µs/step of each side per round, and whether every pair of traces matched."""
    times = {key: ([], []) for key in keys}
    identical = dict.fromkeys(keys, True)
    for r in range(rounds):
        for key in keys:
            order = (0, 1) if r % 2 == 0 else (1, 0)
            out = [None, None]
            for side in order:
                out[side] = (parent, change)[side].job(key)
            for side in (0, 1):
                times[key][side].append(out[side][0] / parent.horizon * 1e6)
            identical[key] &= _trace_bytes(out[0][1]) == _trace_bytes(out[1][1])
    report = {}
    for key, (a, b) in times.items():
        ratios = [y / x for x, y in zip(a, b)]
        report[key] = {
            "parent_us_per_step": statistics.median(a),
            "change_us_per_step": statistics.median(b),
            "ratio_median": statistics.median(ratios),
            "change_faster": sum(y < x for x, y in zip(a, b)),
            "rounds": rounds,
            "identical": identical[key],
        }
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="source directory of the parent tree")
    parser.add_argument("change", type=Path, help="source directory of the changed tree")
    parser.add_argument("--keys", default=",".join(CONTEXTUAL_KEYS), help="comma-separated policy keys")
    parser.add_argument("--spec", default=json.dumps(CTX_LARGE_EPS05), help="instance spec document (JSON)")
    parser.add_argument("--horizon", type=int, default=1000)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=12)
    args = parser.parse_args(argv)
    if args.horizon < 1 or args.rounds < 1:
        parser.error("--horizon and --rounds must be >= 1")
    keys = [k for k in args.keys.split(",") if k]
    spec = json.loads(args.spec)
    parent = Side("ab_parent", args.parent, spec, args.horizon, args.seed)
    change = Side("ab_change", args.change, spec, args.horizon, args.seed)
    report = compare(parent, change, keys, args.rounds)
    try:
        print(f"{'key':<9} {'parent us/step':>14} {'change us/step':>14} {'ratio':>7} {'faster':>7}  identical")
        for key, row in report.items():
            print(
                f"{key:<9} {row['parent_us_per_step']:>14.1f} {row['change_us_per_step']:>14.1f} "
                f"{row['ratio_median']:>7.3f} {row['change_faster']:>3}/{row['rounds']:<3}  "
                f"{'yes' if row['identical'] else 'NO'}"
            )
        print(json.dumps(report, sort_keys=True))
        sys.stdout.flush()
    except BrokenPipeError:  # the reader closed the pipe, as `| head -1` does: the rest of the report goes nowhere
        # point stdout at devnull, as the signal module's docs advise, so the flush at exit does not fail again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    return 0 if all(row["identical"] for row in report.values()) else 1


if __name__ == "__main__":
    raise SystemExit(main())
