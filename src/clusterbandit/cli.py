"""Command-line interface.

Subcommands:

* ``list-presets`` -- names of the built-in experiment suites.
* ``generate``     -- realize an instance spec into a replayable JSON file.
* ``run``          -- run a preset or a config file and export results.
* ``audit``        -- dominance checks and cluster statistics for an instance.
* ``bounds``       -- theoretical reference values for an instance.

Exit codes: 0 on success, 2 on configuration errors (with a diagnostic
naming the offending field), 1 on I/O failures.
"""
from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from .analysis import InstanceBound, audit_hierarchical_dominance, instance_bounds, verify_strong_dominance
from .core import rng_streams
from .harness import (
    ConfigError,
    EXPORT_FORMATS,
    ExperimentConfig,
    check_formats,
    export_result,
    preset,
    preset_names,
    run_experiment,
)
from .instances import build_instance, instance_to_json

__all__ = ["main"]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clusterbandit",
        description="Bandit simulations with clustered arms: run experiments, "
        "generate instances, audit assumptions, evaluate bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list-presets", help="list built-in experiment presets")

    p_gen = sub.add_parser("generate", help="generate an instance from a spec JSON")
    p_gen.add_argument("--spec", required=True, help="path to an instance spec JSON")
    p_gen.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    p_gen.add_argument("--out", required=True, help="output path for the instance JSON")

    p_run = sub.add_parser("run", help="run an experiment preset or config")
    src = p_run.add_mutually_exclusive_group(required=True)
    src.add_argument("--preset", help="preset name (see list-presets)")
    src.add_argument("--config", help="path to an experiment config JSON")
    p_run.add_argument("--seeds", type=int, help="override: number of seeds")
    p_run.add_argument("--base-seed", type=int, help="override: first seed")
    p_run.add_argument("--horizon", type=int, help="override: horizon T")
    p_run.add_argument("--stride", type=int, help="override: logging stride")
    p_run.add_argument("--bounds", action="store_true", help="also compute bound rows")
    p_run.add_argument("--out", default="results", help="output directory")
    p_run.add_argument(
        "--format",
        default="csv,json",
        help=f"comma-separated export formats: {', '.join(EXPORT_FORMATS)}",
    )
    p_run.add_argument("--workers", type=int, default=1, help="parallel workers")

    for name, helptext in (
        ("audit", "dominance audits and cluster statistics"),
        ("bounds", "theoretical reference values"),
    ):
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--instance", help="path to an instance JSON")
        p.add_argument("--spec", help="path to an instance spec JSON (with --seed)")
        p.add_argument("--seed", type=int, default=0, help="master seed for --spec")
        p.add_argument("--out", help="write the report here instead of stdout")
        if name == "bounds":
            p.add_argument("--horizon", type=float, default=3000.0)
            p.add_argument("--eps", type=float, default=0.1)
    return parser


def _load_instance(args: argparse.Namespace):
    if bool(args.instance) == bool(args.spec):
        raise ConfigError("instance: provide exactly one of --instance or --spec")
    if args.instance:
        doc = json.loads(Path(args.instance).read_text())
        return build_instance(doc, rng_streams(0).instance)
    spec = json.loads(Path(args.spec).read_text())
    return build_instance(spec, rng_streams(args.seed).instance)


def _emit(doc: dict, out: str | None) -> None:
    # a non-finite float, which JSON cannot hold, goes out as null
    text = json.dumps(json.loads(json.dumps(doc), parse_constant=lambda _: None), indent=2)
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _cmd_generate(args: argparse.Namespace) -> int:
    spec = json.loads(Path(args.spec).read_text())
    instance = build_instance(spec, rng_streams(args.seed).instance)
    doc = instance_to_json(instance)
    doc["meta"] = {"spec": spec, "seed": args.seed}
    Path(args.out).write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    formats = check_formats(f.strip() for f in args.format.split(",") if f.strip())
    if args.preset:
        config = preset(args.preset)
    else:
        config = ExperimentConfig.from_json(json.loads(Path(args.config).read_text()))

    overrides: dict = {}
    if args.seeds is not None or args.base_seed is not None:
        base = args.base_seed if args.base_seed is not None else config.seeds[0]
        count = args.seeds if args.seeds is not None else len(config.seeds)
        overrides["seeds"] = tuple(range(base, base + count))
    if args.horizon is not None:
        overrides["horizon"] = args.horizon
    if args.stride is not None:
        overrides["stride"] = args.stride
    if args.bounds:
        overrides["bounds"] = True
    config = dataclasses.replace(config, **overrides)

    result = run_experiment(config, workers=args.workers)
    written = export_result(result, args.out, formats)
    for s in result.summaries:
        print(
            f"{s.experiment_id} {s.policy}: final regret "
            f"{s.summary.final_mean:.2f} +/- {s.summary.final_std:.2f} "
            f"({s.summary.n} seeds)"
        )
    for path in written:
        print(f"wrote {path}")
    return 0


def _cmd_audit(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if instance.structure == "contextual":
        raise ConfigError("instance: audits apply to Bernoulli instances only")
    doc: dict = {"n_arms": instance.n_arms, "unique_optimum": instance.has_unique_optimum}
    if instance.structure == "clustering":
        report = verify_strong_dominance(instance)
        doc["strong_dominance"] = {"holds": report.holds, "violations": report.violations}
        doc["cluster_stats"] = report.stats.to_json()
    elif instance.structure == "tree":
        doc["hierarchical_dominance"] = dataclasses.asdict(audit_hierarchical_dominance(instance))
    else:
        doc["note"] = "flat instance: no clustering structure to audit"
    _emit(doc, args.out)
    return 0


def _cmd_bounds(args: argparse.Namespace) -> int:
    instance = _load_instance(args)
    if instance.structure == "contextual":
        raise ConfigError(
            "instance: bound formulas apply to Bernoulli instances only "
            "(contextual regret analysis is out of scope)"
        )
    bounds = instance_bounds(instance, args.horizon, args.eps)
    if not bounds:
        raise ConfigError("instance: flat instance has no clustering bounds")
    doc = {name: dataclasses.asdict(b) if isinstance(b, InstanceBound) else b for name, b in bounds.items()}
    _emit({"horizon": args.horizon, "eps": args.eps, **doc}, args.out)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "list-presets":
            for name in preset_names():
                print(name)
            return 0
        if args.command == "generate":
            return _cmd_generate(args)
        if args.command == "run":
            return _cmd_run(args)
        if args.command == "audit":
            return _cmd_audit(args)
        if args.command == "bounds":
            return _cmd_bounds(args)
        parser.error(f"unknown command {args.command}")
        return 2
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
