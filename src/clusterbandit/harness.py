"""Experiment runner: configs, presets, seed fan-out, and result export.

An experiment is a set of instance variants, a set of policies, a horizon,
and a list of seeds. For every (variant, seed) the instance is generated
from the seed's instance sub-stream and a contextual job's context sequence
from its context sub-stream, so every policy sees the identical instance
realization and context sequence. Tasks fan out over (variant, seed) across
worker processes; each task builds its instance once, runs every policy of
the variant on it as one (variant, policy, seed) job, and computes the
instance's bound values when bounds are requested. Every run is logged at
the steps of one ``logging_grid``, a fact of the result. Aggregation
sorts on (variant, policy, seed) first, so output is byte-identical
regardless of scheduling. A config built in Python is read exactly as one
from JSON: when it is made, every field is read through ``core.typed`` and
every spec through ``instances.spec_fields``, so a bad one fails before any
job with a ``ConfigError`` naming the field. Its defaults live in the
dataclass, and a config given no variants, policies, seeds or horizon fails
naming the field; ``from_json`` reads only a document's shape, and a key it
does not know fails naming the key and its entry.

Results export to CSV (one row per logged step), JSON (config plus
summaries, round-trippable), and SVG (mean regret curve per policy with a
shaded +/-1 standard deviation band). The writers stream: CSV goes out one
run row at a time, JSON through ``json.dump``, and each SVG curve as soon as
its points are formatted, so no writer holds a whole document. At the
kmeans-large preset's full 100 seeds (1.5 M CSV lines, 83 MB), writing the
CSV adds about 1 MB of peak RSS to the 60 MB the results take, where a
writer that builds the whole document first peaks at about 390 MB.
"""
from __future__ import annotations

import copy
import csv
import io
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Sequence, TextIO

import numpy as np

from .analysis import InstanceBound, TraceSummary, aggregate_curves, bound_caveat, instance_bounds
from .contextual import ContextualInstance
from .core import BanditInstance, RngStreams, rng_streams, typed
from .instances import CONTEXT_KINDS, SPEC_KINDS, build_instance, gen_context, spec_structure
from .policies import POLICY_KEYS, check_params, make_policy
from .simulate import simulate

__all__ = [
    "ConfigError",
    "JobError",
    "PolicySpec",
    "InstanceVariant",
    "ExperimentConfig",
    "RunRow",
    "ExperimentResult",
    "run_experiment",
    "EXPORT_FORMATS",
    "check_formats",
    "export_result",
    "load_results_json",
    "preset",
    "preset_names",
    "logging_grid",
]

FULL_RESOLUTION_LIMIT = 10_000
EXPORT_FORMATS = ("csv", "json", "svg")


class ConfigError(ValueError):
    """Invalid experiment configuration; the message names the field."""


class JobError(RuntimeError):
    """A job failed with an error other than ``ValueError``; the message names its job and the error's type."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicySpec:
    """One policy entry: key, hyperparameters, optional variant filter."""

    key: str
    params: dict = field(default_factory=dict)
    variants: tuple[str, ...] | None = None
    label: str | None = None

    @property
    def name(self) -> str:
        if self.label:
            return self.label
        if self.params:
            inner = ",".join(f"{k}={self.params[k]}" for k in sorted(self.params))
            return f"{self.key}({inner})"
        return self.key

    def runs_on(self, variant_name: str) -> bool:
        return self.variants is None or variant_name in self.variants

    def to_json(self) -> dict:
        doc: dict = {"key": self.key}
        if self.params:
            doc["params"] = dict(self.params)
        if self.variants is not None:
            doc["variants"] = list(self.variants)
        if self.label is not None:
            doc["label"] = self.label
        return doc


@dataclass(frozen=True)
class InstanceVariant:
    """Named instance spec; one experiment id per variant."""

    name: str
    spec: dict

    def to_json(self) -> dict:
        return {"name": self.name, "spec": self.spec}


@dataclass(frozen=True)
class ExperimentConfig:
    name: str = "experiment"
    variants: tuple[InstanceVariant, ...] = ()
    policies: tuple[PolicySpec, ...] = ()
    horizon: int = 0
    seeds: tuple[int, ...] = ()
    stride: int | None = None
    bounds: bool = False
    eps: float = 0.1
    context_kind: str = "uniform"

    def __post_init__(self) -> None:
        try:  # each field as ``typed`` reads it (a numpy scalar becomes the int or float JSON writes), set past frozen
            vars(self).update(
                seeds=tuple(typed("seeds", s, int) for s in typed("seeds", self.seeds, list)),
                policies=tuple(_read_policy(f"policies[{i}]", p)
                               for i, p in enumerate(typed("policies", self.policies, list))),
                variants=tuple(_read_variant(f"instances[{i}]", v)
                               for i, v in enumerate(typed("instances", self.variants, list))),
                name=typed("name", self.name, str),
                horizon=typed("horizon", self.horizon, int),
                stride=None if self.stride is None else typed("stride", self.stride, int),
                bounds=typed("bounds", self.bounds, bool),
                eps=typed("eps", self.eps, float),
                context_kind=typed("context_kind", self.context_kind, str),
            )
        except ValueError as exc:  # ``typed``'s error names its field
            raise ConfigError(str(exc)) from exc
        if self.horizon < 1:
            raise ConfigError(f"horizon: must be >= 1, got {self.horizon}")
        if self.bounds and self.horizon < 2:
            raise ConfigError(f"horizon: bounds need a horizon >= 2, got {self.horizon}")
        if self.context_kind not in CONTEXT_KINDS:
            raise ConfigError(f"context_kind: unknown distribution '{self.context_kind}' ({', '.join(CONTEXT_KINDS)})")
        if not self.policies:
            raise ConfigError("policies: need at least one policy")
        if not self.seeds:
            raise ConfigError("seeds: need at least one seed")
        if len(set(self.seeds)) != len(self.seeds):
            dups = sorted(s for s in set(self.seeds) if self.seeds.count(s) > 1)
            raise ConfigError(f"seeds: duplicate seeds {dups}")
        if min(self.seeds) < 0:
            raise ConfigError(f"seeds: must be >= 0, got {sorted(s for s in self.seeds if s < 0)}")
        if not (math.isfinite(self.eps) and self.eps > 0):
            raise ConfigError(f"eps: must be finite and > 0, got {self.eps}")
        if not self.variants:
            raise ConfigError("instances: need at least one instance spec")
        if self.stride is not None and self.stride < 1:
            raise ConfigError(f"stride: must be >= 1, got {self.stride}")
        for p in self.policies:
            try:
                check_params(p.key, p.params)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"policies: '{p.name}': {exc}") from exc
        labels = [p.name for p in self.policies]
        if len(set(labels)) != len(labels):
            raise ConfigError("policies: duplicate policy labels; set explicit labels")
        names = [v.name for v in self.variants]
        if len(set(names)) != len(names):
            raise ConfigError("instances: duplicate variant names")
        files: dict[str, str] = {}  # variant name by the SVG file name write_svgs gives it
        for name in names:
            if (other := files.setdefault(_safe_name(name), name)) != name:
                raise ConfigError(f"instances: variants '{other}' and '{name}' both export to the SVG file name "
                                  f"'{_safe_name(name)}'")
        for p in self.policies:
            if p.variants is not None and (not p.variants or not set(p.variants) <= set(names)):
                raise ConfigError(
                    f"policies: '{p.name}' variants filter {list(p.variants)} must name "
                    f"variants of the config {names}"
                )
        for v in self.variants:
            try:
                has = spec_structure(v.spec)
                json.dumps(v.spec, sort_keys=True)  # the instance cache key and the JSON export
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"instances: variant '{v.name}' spec: {exc}") from exc
            for p in filter(lambda p: p.runs_on(v.name), self.policies):
                cls = POLICY_KEYS[p.key]
                if not cls.accepts(has):
                    raise ConfigError(
                        f"policies: '{p.name}' needs a {cls.needs} instance but variant '{v.name}' "
                        f"(kind '{v.spec['kind']}') builds a {has} instance"
                    )

    def experiment_id(self, variant: str) -> str:
        return f"{self.name}/{variant}"

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "horizon": self.horizon,
            "seeds": list(self.seeds),
            "stride": self.stride,
            "bounds": self.bounds,
            "eps": self.eps,
            "context_kind": self.context_kind,
            "policies": [p.to_json() for p in self.policies],
            "instances": [v.to_json() for v in self.variants],
        }

    @staticmethod
    def from_json(doc: dict) -> "ExperimentConfig":
        """The config of the fields a JSON document holds, the others at their defaults. Only the document's shape
        is read here: its containers are lists of objects, each policy has a ``key``, and ``seeds`` may be a range."""
        try:
            _known("config", doc, _FIELD_KEYS + ("policies", "instances", "instance"))
            fields = {k: doc[k] for k in _FIELD_KEYS if k in doc}
            if isinstance(fields.get("seeds"), dict):  # {"base": b, "count": n}
                _known("seeds", fields["seeds"], ("base", "count"))
                base, count = (typed(f"seeds.{k}", fields["seeds"].get(k, 0), int) for k in ("base", "count"))
                if count < 1:
                    raise ConfigError("seeds.count: must be >= 1")
                fields["seeds"] = tuple(range(base, base + count))
            if "policies" in doc:
                entries = typed("policies", doc["policies"], list)
                for i, entry in enumerate(entries):
                    if "key" not in _known(f"policies[{i}]", typed(f"policies[{i}]", entry, dict), _ENTRY_KEYS):
                        raise ConfigError("policies: entry missing 'key'")
                fields["policies"] = tuple(PolicySpec(**p) for p in entries)
            if "instance" in doc and "instances" in doc:
                raise ConfigError("instances: give 'instance' or 'instances', not both")
            if "instances" in doc:  # an unnamed entry i is named v<i>
                entries = typed("instances", doc["instances"], list)
                for i, v in enumerate(entries):
                    if "spec" not in _known(f"instances[{i}]", typed(f"instances[{i}]", v, dict), ("name", "spec")):
                        raise ConfigError(f"instances[{i}].spec: missing")
                fields["variants"] = tuple(InstanceVariant(v.get("name", f"v{i}"), v["spec"])
                                           for i, v in enumerate(entries))
            elif "instance" in doc:
                fields["variants"] = (InstanceVariant("default", typed("instance", doc["instance"], dict)),)
            else:
                raise ConfigError("instances: missing ('instance' or 'instances')")
            return ExperimentConfig(**fields)
        except ValueError as exc:  # a ConfigError, or ``typed``'s error naming its field
            raise ConfigError(str(exc)) from exc
        except (KeyError, TypeError) as exc:
            raise ConfigError(f"invalid config document: {exc}") from exc


# the keys of a config document that name a field of the config as they are, and those of a policy entry
_FIELD_KEYS = ("name", "horizon", "seeds", "stride", "bounds", "eps", "context_kind")
_ENTRY_KEYS = ("key", "params", "variants", "label")


def _known(field: str, doc: dict, keys: tuple[str, ...]) -> dict:
    """``doc``, if it holds only ``keys``; else a ``ConfigError`` that names ``field`` and each unknown key."""
    unknown = [k for k in doc if k not in keys]
    if unknown:
        raise ConfigError(f"{field}: unknown keys {unknown}; known keys: {', '.join(keys)}")
    return doc


def _read_variant(field: str, v: InstanceVariant) -> InstanceVariant:
    """``v`` with its name and a copy of its spec read through ``typed`` under their names in the config."""
    if not isinstance(v, InstanceVariant):
        raise ValueError(f"{field}: must be an InstanceVariant, got {v!r}")
    return InstanceVariant(typed(f"{field}.name", v.name, str), copy.deepcopy(typed(f"{field}.spec", v.spec, dict)))


def _read_policy(field: str, p: PolicySpec) -> PolicySpec:
    """``p`` with every field read through ``typed`` under its name in the config, such as ``policies[1].label``."""
    if not isinstance(p, PolicySpec):
        raise ValueError(f"{field}: must be a PolicySpec, got {p!r}")
    key = typed(f"{field}.key", p.key, str)
    declared = POLICY_KEYS[key].params if key in POLICY_KEYS else {}
    # a declared value is stored as read (1 and 1.0 label one policy); an unknown key or name fails later
    params = {name: typed(f"{field}.params.{name}", value, declared[name][0]) if name in declared else value
              for name, value in typed(f"{field}.params", p.params, dict).items()}
    names = p.variants if p.variants is None else typed(f"{field}.variants", p.variants, list)
    variants = names if names is None else tuple(typed(f"{field}.variants[{j}]", n, str) for j, n in enumerate(names))
    return PolicySpec(key, params, variants, p.label if p.label is None else typed(f"{field}.label", p.label, str))


def logging_grid(horizon: int, stride: int | None = None) -> np.ndarray:
    """Logged step indices: every ``stride`` steps plus the final step.

    The default stride is 1 up to a 10^4 horizon and 10 beyond it.
    """
    if stride is None:
        stride = 1 if horizon <= FULL_RESOLUTION_LIMIT else 10
    ts = np.arange(stride, horizon + 1, stride, dtype=np.int64)
    if ts.size == 0 or ts[-1] != horizon:
        ts = np.append(ts, horizon)
    return ts


# ---------------------------------------------------------------------------
# Job execution
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunRow:
    """Logged curve of one (variant, policy, seed) simulation, at the steps of its result's ``ts``."""

    variant: str
    policy: str
    seed: int
    regret: np.ndarray
    top_counts: np.ndarray | None

    @property
    def final_regret(self) -> float:
        return float(self.regret[-1])


# (key, instance): the last instance built in this process, keyed on (canonical spec JSON, seed), so the back to
# back jobs of one (variant, seed) task build it once. It stays while ``_run_job(payload)`` is the job boundary
# that perfbench traces and calls; instances are read-only, so sharing one is safe.
_last_instance: tuple | None = None


def _instance(
    variant_name: str, spec: dict, seed: int, streams: RngStreams
) -> BanditInstance | ContextualInstance:
    global _last_instance
    key = (json.dumps(spec, sort_keys=True), seed)
    if _last_instance is not None and _last_instance[0] == key:
        return _last_instance[1]
    _last_instance = None  # release the old instance before building the next
    try:
        instance = build_instance(spec, streams.instance)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(
            f"instances: variant '{variant_name}' at seed {seed}: {exc}"
        ) from exc
    _last_instance = (key, instance)
    return instance


def _run_job(payload: tuple) -> RunRow:
    variant_name, spec, key, params, label, seed, horizon, stride, context_kind = payload
    streams = rng_streams(seed)
    instance = _instance(variant_name, spec, seed, streams)
    try:  # the config has matched every policy to its variants' instance kind
        policy = make_policy(key, instance, params)
        contexts = gen_context(horizon, instance.dim, streams.context, context_kind) \
            if policy.needs == "contextual" else None
        trace = simulate(instance, policy, horizon, streams.simulation, seed=seed, contexts=contexts)
    except ValueError as exc:
        raise ConfigError(f"policies: '{label}' on variant '{variant_name}' at seed {seed}: {exc}") from exc
    except Exception as exc:
        raise JobError(
            f"policies: '{label}' on variant '{variant_name}' at seed {seed}: {type(exc).__name__}: {exc}"
        ) from exc

    return RunRow(variant_name, label, seed, trace.cum_regret[logging_grid(horizon, stride) - 1],
                  _top_counts(policy, trace))


def _top_counts(policy, trace) -> np.ndarray | None:
    """Plays per child of the policy tree's root, per cluster on a two-level tree; None for a ``flat`` policy.

    The length is fixed by the instance (root children in ``children(0)``
    order), whichever of them the run played. The arms under each root
    child are one run of the root's depth-first arm order, starting where
    the child's subtree starts, so each child's plays are one sum over it.
    """
    if policy.flat:
        return None
    tree = policy.tree
    n_kids = int(tree.ptr[1])
    if not n_kids:  # a one-arm tree: every path is the root alone
        return np.array([trace.horizon])
    plays = np.bincount(trace.arms, minlength=tree.n_arms)[tree.arms_under(0)]
    return np.add.reduceat(plays, tree._first[tree.kids[:n_kids]])


def _run_task(task: tuple) -> tuple[list[RunRow], tuple | None]:
    """Run the jobs of one (variant, seed) on one instance build; add its bounds if asked.

    ``task`` is (variant name, spec, seed, job payloads, (T, eps) or None).
    """
    variant_name, spec, seed, payloads, bound_args = task
    rows = [_run_job(p) for p in payloads]
    if bound_args is None:
        return rows, None
    instance = _instance(variant_name, spec, seed, rng_streams(seed))
    return rows, _seed_bounds(instance, *bound_args)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PolicySummary:
    experiment_id: str
    variant: str
    policy: str
    ts: np.ndarray
    summary: TraceSummary

    def to_json(self) -> dict:
        return {
            "experiment_id": self.experiment_id,
            "policy": self.policy,
            "n_seeds": self.summary.n,
            "final_mean": self.summary.final_mean,
            "final_std": self.summary.final_std,
            "ts": self.ts.tolist(),
            "mean_curve": self.summary.mean_curve.tolist(),
            "std_curve": self.summary.std_curve.tolist(),
        }


@dataclass(frozen=True)
class ExperimentResult:
    config: ExperimentConfig
    rows: tuple[RunRow, ...]
    summaries: tuple[PolicySummary, ...]
    bounds: tuple[dict, ...] = ()

    @property
    def ts(self) -> np.ndarray:
        """The logged steps of every row and summary: ``logging_grid(config.horizon, config.stride)``."""
        return logging_grid(self.config.horizon, self.config.stride)

    def summary_for(self, variant: str, policy: str) -> PolicySummary:
        for s in self.summaries:
            if s.variant == variant and s.policy == policy:
                return s
        raise KeyError(f"no summary for ({variant!r}, {policy!r})")

    def rows_for(self, variant: str, policy: str) -> list[RunRow]:
        return [r for r in self.rows if r.variant == variant and r.policy == policy]

    def final_regrets(self, variant: str, policy: str) -> np.ndarray:
        return np.asarray([r.final_regret for r in self.rows_for(variant, policy)])

    def to_json(self) -> dict:
        return {
            "config": self.config.to_json(),
            "summaries": [s.to_json() for s in self.summaries],
            "bounds": list(self.bounds),
        }


def run_experiment(config: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run all (variant, policy, seed) jobs and aggregate per policy.

    One task per (variant, seed) runs every policy of that variant, so each
    instance is built once.
    """
    if workers < 1:
        raise ConfigError(f"workers: must be >= 1, got {workers}")
    bound_args = (float(config.horizon), config.eps) if config.bounds else None
    tasks = [
        (v.name, v.spec, seed, [
            (v.name, v.spec, p.key, p.params, p.name, seed, config.horizon, config.stride,
             config.context_kind)
            for p in config.policies
            if p.runs_on(v.name)
        ], bound_args)
        for v in config.variants
        for seed in config.seeds
    ]
    # a variant no policy runs on still gets its bound rows
    tasks = [task for task in tasks if task[3] or config.bounds]
    if workers > 1 and len(tasks) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            chunksize = max(1, len(tasks) // (4 * workers))
            done = list(pool.map(_run_task, tasks, chunksize=chunksize))
    else:
        done = [_run_task(task) for task in tasks]
    rows = [row for task_rows, _ in done for row in task_rows]
    rows.sort(key=lambda r: (r.variant, r.policy, r.seed))

    ts = logging_grid(config.horizon, config.stride)
    summaries = []
    for v in config.variants:
        for p in config.policies:
            if not p.runs_on(v.name):
                continue
            group = [r for r in rows if r.variant == v.name and r.policy == p.name]
            summaries.append(PolicySummary(config.experiment_id(v.name), v.name, p.name, ts,
                                           aggregate_curves(np.stack([r.regret for r in group]))))

    bounds = ()
    if config.bounds:
        bounds = _bound_rows(config, {(t[0], t[2]): b for t, (_, b) in zip(tasks, done)})
    return ExperimentResult(
        config=config, rows=tuple(rows), summaries=tuple(summaries), bounds=bounds
    )


def _seed_bounds(
    instance: BanditInstance | ContextualInstance, T: float, eps: float
) -> tuple[bool, dict[str, tuple[float, str]]] | None:
    """(dominance holds, (value, caveat) by bound name) of one instance's ``analysis.instance_bounds``; None
    where no bound applies. Dominance holds when every ``InstanceBound`` says so; an ``InstanceBound``'s value
    is its ``leading`` term, and each caveat is ``analysis.bound_caveat``'s."""
    bounds = instance_bounds(instance, T, eps)
    if not bounds:
        return None
    formulas = [b for b in bounds.values() if isinstance(b, InstanceBound)]
    return all(b.dominance_ok for b in formulas), {
        name: (b.leading if isinstance(b, InstanceBound) else b, bound_caveat(b)) for name, b in bounds.items()
    }


def _bound_rows(
    config: ExperimentConfig, seed_bounds: dict[tuple[str, int], tuple | None]
) -> tuple[dict, ...]:
    """Per-variant theoretical reference values, averaged over seeds in ``config.seeds`` order, each with its
    bound's caveat; a mean over a non-finite value is None, written as JSON ``null``.

    ``seed_bounds`` maps (variant name, seed) to ``_seed_bounds`` of that instance.
    """
    out: list[dict] = []
    for v in config.variants:
        found = [seed_bounds[(v.name, seed)] for seed in config.seeds]
        found = [b for b in found if b is not None]
        for name in sorted(found[0][1]) if found else ():
            arr = np.asarray([values[name][0] for _, values in found])
            out.append(
                {
                    "experiment_id": config.experiment_id(v.name),
                    "bound": name,
                    "mean_value_at_horizon": float(arr.mean()) if np.isfinite(arr).all() else None,
                    "n_seeds": int(arr.size),
                    "dominance_ok_fraction": sum(int(ok) for ok, _ in found) / len(found),
                    "note": found[0][1][name][1],
                }
            )
    return tuple(out)


# ---------------------------------------------------------------------------
# Export
# ---------------------------------------------------------------------------

def write_csv(result: ExperimentResult, path: Path) -> None:
    """One line per logged step, written one run row at a time."""
    steps = [f"{t}," for t in result.ts.tolist()]
    with path.open("w") as fh:
        fh.write("experiment_id,policy,seed,t,cumulative_regret\n")
        for row in result.rows:
            prefix = _csv_fields(result.config.experiment_id(row.variant), row.policy, row.seed)
            fh.write("".join([f"{prefix}{t}{value!r}\n" for t, value in zip(steps, row.regret.tolist())]))


def _csv_fields(*fields) -> str:
    """The start of a CSV line: ``fields`` as ``csv.writer`` writes them (quoted, with quotes doubled, where one
    holds a comma, a quote or a line break), then the comma before the next field."""
    line = io.StringIO()
    csv.writer(line).writerow(fields)
    return line.getvalue()[:-2] + ","  # less the writer's "\r\n"


def write_json(result: ExperimentResult, path: Path) -> None:
    with path.open("w") as fh:
        json.dump(result.to_json(), fh, indent=2)
        fh.write("\n")


def load_results_json(path: Path) -> dict:
    """Re-import an exported JSON document."""
    return json.loads(Path(path).read_text())


_PALETTE = (
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
    "#8c564b", "#e377c2", "#17becf", "#bcbd22", "#7f7f7f",
)


# what XML character data or a double-quoted attribute value would not keep as written
_XML_ESCAPES = str.maketrans({"&": "&amp;", "<": "&lt;", ">": "&gt;", '"': "&quot;",
                              "\t": "&#9;", "\n": "&#10;", "\r": "&#13;"})


def _write_svg(fh: TextIO, title: str, summaries: Sequence[PolicySummary]) -> None:
    """Write one SVG document, each curve's points computed on whole arrays.

    ``sx``/``sy`` take scalars (axis ticks) and arrays (curves) alike, and
    give the same doubles either way.
    """
    width, height = 860.0, 520.0
    ml, mr, mt, mb = 70.0, 190.0, 40.0, 50.0
    pw, ph = width - ml - mr, height - mt - mb

    t_max = max(float(s.ts[-1]) for s in summaries)
    y_max = max(float((s.summary.mean_curve + s.summary.std_curve).max()) for s in summaries)
    y_max = max(y_max, 1e-9)

    def sx(t):
        return ml + pw * t / t_max

    def sy(y):
        return mt + ph * (1.0 - y / y_max)

    def points(xs: np.ndarray, ys: np.ndarray) -> str:
        return " ".join(f"{x:.2f},{y:.2f}" for x, y in zip(xs.tolist(), ys.tolist()))

    def put(line: str) -> None:
        fh.write(line)
        fh.write("\n")

    title = title.translate(_XML_ESCAPES)

    put(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}" '
        f'viewBox="0 0 {width:.0f} {height:.0f}">'
    )
    put(f'<title>{title}</title>')
    put(f'<rect x="0" y="0" width="{width:.0f}" height="{height:.0f}" fill="white"/>')
    put(f'<line x1="{ml:.1f}" y1="{mt + ph:.1f}" x2="{ml + pw:.1f}" y2="{mt + ph:.1f}" stroke="black"/>')
    put(f'<line x1="{ml:.1f}" y1="{mt:.1f}" x2="{ml:.1f}" y2="{mt + ph:.1f}" stroke="black"/>')
    put(f'<text x="{ml + pw / 2:.1f}" y="{height - 12:.1f}" text-anchor="middle" font-size="13">t</text>')
    put(
        f'<text x="16" y="{mt + ph / 2:.1f}" text-anchor="middle" font-size="13" '
        f'transform="rotate(-90 16 {mt + ph / 2:.1f})">cumulative regret</text>'
    )
    put(f'<text x="{ml + pw / 2:.1f}" y="22" text-anchor="middle" font-size="14">{title}</text>')
    for frac in (0.0, 0.25, 0.5, 0.75, 1.0):
        t_tick, y_tick = frac * t_max, frac * y_max
        put(
            f'<text x="{sx(t_tick):.1f}" y="{mt + ph + 16:.1f}" text-anchor="middle" '
            f'font-size="11">{t_tick:.0f}</text>'
        )
        put(
            f'<text x="{ml - 6:.1f}" y="{sy(y_tick) + 4:.1f}" text-anchor="end" '
            f'font-size="11">{y_tick:.1f}</text>'
        )

    for i, s in enumerate(summaries):
        color, label = _PALETTE[i % len(_PALETTE)], s.policy.translate(_XML_ESCAPES)
        xs = sx(s.ts.astype(float))
        mean, std = s.summary.mean_curve, s.summary.std_curve
        # the band runs right along its upper edge and back along its lower one
        upper = points(xs, sy(np.minimum(mean + std, y_max)))
        lower = points(xs[::-1], sy(np.maximum(mean - std, 0.0))[::-1])
        put(
            f'<polygon class="band" data-policy="{label}" fill="{color}" '
            f'fill-opacity="0.15" stroke="none" points="{upper} {lower}"/>'
        )
        put(
            f'<polyline class="mean" data-policy="{label}" fill="none" '
            f'stroke="{color}" stroke-width="1.6" points="{points(xs, sy(mean))}"/>'
        )
        ly = mt + 16 + 18 * i
        put(
            f'<line x1="{ml + pw + 12:.1f}" y1="{ly:.1f}" x2="{ml + pw + 36:.1f}" '
            f'y2="{ly:.1f}" stroke="{color}" stroke-width="2"/>'
        )
        put(f'<text x="{ml + pw + 42:.1f}" y="{ly + 4:.1f}" font-size="12">{label}</text>')
    put("</svg>")


def write_svgs(result: ExperimentResult, out_dir: Path) -> list[Path]:
    paths = []
    for v in result.config.variants:
        group = [s for s in result.summaries if s.variant == v.name]
        if not group:
            continue
        path = out_dir / f"{_safe_name(result.config.name)}__{_safe_name(v.name)}.svg"
        with path.open("w") as fh:
            _write_svg(fh, result.config.experiment_id(v.name), group)
        paths.append(path)
    return paths


def _safe_name(name: str) -> str:
    return "".join(c if c.isalnum() or c in "-_." else "-" for c in name)


def export_result(
    result: ExperimentResult, out_dir: Path | str, formats: Sequence[str] = ("csv", "json")
) -> list[Path]:
    """Write the requested formats into ``out_dir`` and return the paths."""
    formats = check_formats(formats)
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    written: list[Path] = []
    base = _safe_name(result.config.name)
    for fmt in formats:
        if fmt == "csv":
            path = out_dir / f"{base}.csv"
            write_csv(result, path)
            written.append(path)
        elif fmt == "json":
            path = out_dir / f"{base}.json"
            write_json(result, path)
            written.append(path)
        else:
            written.extend(write_svgs(result, out_dir))
    return written


def check_formats(formats: Sequence[str]) -> tuple[str, ...]:
    """The export formats as a tuple; none, an unknown one or a repeated one is a ``ConfigError``."""
    formats = tuple(formats)
    if not formats:
        raise ConfigError(f"format: no export format given ({', '.join(EXPORT_FORMATS)})")
    for i, fmt in enumerate(formats):
        if fmt not in EXPORT_FORMATS:
            raise ConfigError(f"format: unknown export format '{fmt}' ({', '.join(EXPORT_FORMATS)})")
        if fmt in formats[:i]:
            raise ConfigError(f"format: export format '{fmt}' given twice")
    return formats


# ---------------------------------------------------------------------------
# Presets
# ---------------------------------------------------------------------------

def _policies(*keys: str, **kw) -> list[dict]:
    return [{"key": k, **kw} for k in keys]


def _preset_docs() -> dict[str, dict]:
    docs: dict[str, dict] = {}
    # the figure sweeps of the dominance generator: (name, seed base, variant label, values, fields of a value)
    fields = SPEC_KINDS["strong_dominance"].required
    for name, base, label, values, args in (
        ("fig-d-sweep", 1000, "d", (0.05, 0.1, 0.2, 0.3), lambda d: (100, 10, 10, 0.1, d)),
        ("fig-w-sweep", 1100, "w", (0.0, 0.1, 0.2, 0.3), lambda w: (100, 10, 10, w, 0.1)),
        ("fig-n-sweep", 1200, "N", (25, 100, 400), lambda n: (n, math.isqrt(n), math.isqrt(n), 0.1, 0.1)),
        ("fig-k-sweep", 1300, "K", (2, 5, 10, 20, 45), lambda k: (100, k, 10, 0.1, 0.1)),
        ("fig-a-sweep", 1400, "A", (2, 5, 10, 25, 50), lambda a: (100, 10, a, 0.1, 0.1)),
    ):
        docs[name] = {
            "name": name,
            "horizon": 3000,
            "seeds": {"base": base, "count": 50},
            "policies": _policies("ts", "tsc"),
            "instances": [
                {"name": f"{label}={v}", "spec": {"kind": "strong_dominance", **dict(zip(fields, args(v)))}}
                for v in values
            ],
        }
    docs["fig-depth"] = {
        "name": "fig-depth",
        "horizon": 3000,
        "seeds": {"base": 1500, "count": 50},
        "policies": _policies("hts"),
        "instances": [
            {"name": f"L={lv}", "spec": {"kind": "sorted_tree", "n_arms": 256, "levels": lv}}
            for lv in (0, 1, 2, 4, 8)
        ],
    }
    docs["kmeans-small"] = {
        "name": "kmeans-small",
        "horizon": 3000,
        "seeds": {"base": 1600, "count": 100},
        "policies": _policies("ts", "tsc", "ucb1", "ucbc", "tsmax"),
        "instances": [
            {
                "name": "N100-K10",
                "spec": {"kind": "kmeans", "n_arms": 100, "n_clusters": 10, "reward_fn": "sin-product"},
            }
        ],
    }
    docs["kmeans-large"] = {
        "name": "kmeans-large",
        "horizon": 3000,
        "seeds": {"base": 1700, "count": 100},
        "policies": _policies("ts", "tsc", "ucb1", "ucbc", "tsmax"),
        "instances": [
            {
                "name": "N1000-K32",
                "spec": {"kind": "kmeans", "n_arms": 1000, "n_clusters": 32, "reward_fn": "sin-product"},
            }
        ],
    }
    docs["hts-uct"] = {
        "name": "hts-uct",
        "horizon": 3000,
        "seeds": {"base": 1800, "count": 100},
        "policies": [
            {"key": "tsc", "variants": ["L1"]},
            {"key": "hts", "variants": ["L2", "L3"]},
            {"key": "uct", "variants": ["L2", "L3"]},
        ],
        "instances": [
            {
                "name": "L1",
                "spec": {"kind": "kmeans", "n_arms": 5000, "n_clusters": 15, "reward_fn": "sin-product"},
            },
            {
                "name": "L2",
                "spec": {"kind": "kmeans_tree", "n_arms": 5000, "branching": 15, "depth": 2, "reward_fn": "sin-product"},
            },
            {
                "name": "L3",
                "spec": {"kind": "kmeans_tree", "n_arms": 5000, "branching": 15, "depth": 3, "reward_fn": "sin-product"},
            },
        ],
    }
    for preset_name, (k, n, eps_val, base) in {
        "ctx-small": (20, 400, 0.5, 1900),
        "ctx-large-eps05": (30, 900, 0.5, 2000),
        "ctx-large-eps01": (30, 900, 0.1, 2100),
    }.items():
        docs[preset_name] = {
            "name": preset_name,
            "horizon": 2000,
            "seeds": {"base": base, "count": 25},
            "policies": [
                {"key": "lints", "params": {"v": 1.0}},
                {"key": "lintsc", "params": {"v": 1.0}},
                {"key": "linucb", "params": {"alpha": 2.0}},
                {"key": "linucbc", "params": {"alpha": 2.0}},
            ],
            "instances": [
                {
                    "name": f"k{k}-n{n}-eps{eps_val}",
                    "spec": {"kind": "contextual", "n_arms": n, "n_clusters": k, "dim": 5, "epsilon": eps_val},
                }
            ],
        }
    docs["appendix-2d"] = {
        "name": "appendix-2d",
        "horizon": 20000,
        "seeds": {"base": 2200, "count": 25},
        "policies": [
            {"key": "tsc", "variants": ["kmeans-K20"]},
            {"key": "hts", "variants": ["agglomerative"]},
            {"key": "uct", "variants": ["agglomerative"]},
        ],
        "instances": [
            {
                "name": "kmeans-K20",
                "spec": {"kind": "kmeans", "n_arms": 500, "n_clusters": 20, "reward_fn": "bump-2d"},
            },
            {
                "name": "agglomerative",
                "spec": {"kind": "agglomerative", "n_arms": 500, "reward_fn": "bump-2d"},
            },
        ],
    }
    docs["appendix-gaussian"] = {
        "name": "appendix-gaussian",
        "horizon": 25000,
        "seeds": {"base": 2300, "count": 25},
        "policies": [
            {"key": "tsc", "variants": ["kmeans-K5"]},
            {"key": "hts", "variants": ["agglomerative"]},
            {"key": "uct", "variants": ["agglomerative"]},
        ],
        "instances": [
            {
                "name": "kmeans-K5",
                "spec": {"kind": "kmeans", "n_arms": 50, "n_clusters": 5, "reward_fn": "gaussian-mix-1d"},
            },
            {
                "name": "agglomerative",
                "spec": {"kind": "agglomerative", "n_arms": 50, "reward_fn": "gaussian-mix-1d"},
            },
        ],
    }
    docs["appendix-uniform"] = {
        "name": "appendix-uniform",
        "horizon": 3000,
        "seeds": {"base": 2400, "count": 25},
        "policies": _policies("ts", "tsc"),
        "instances": [
            {"name": "N50-K10", "spec": {"kind": "uniform", "n_arms": 50, "n_clusters": 10}}
        ],
    }
    return docs


def preset_names() -> list[str]:
    return sorted(_preset_docs())


def preset(name: str) -> ExperimentConfig:
    """Experiment configuration of a named preset suite."""
    docs = _preset_docs()
    if name not in docs:
        raise ConfigError(
            f"preset: unknown preset '{name}'; valid presets: {', '.join(sorted(docs))}"
        )
    return ExperimentConfig.from_json(docs[name])
