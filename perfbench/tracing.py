"""Spans and counts around the public calls of every clusterbandit module.

``instrument`` replaces each public function of the package modules, the
job boundary ``harness._run_job`` and the ``select``/``update`` methods of
every policy class with wrappers that record a span (name, start, end,
parent) in a ``Tracer``. The program's files are not changed: the wrappers
are installed in the traced interpreter only.

Inside ``simulate``/``simulate_contextual`` the module-function wrappers are
taken out again, so the step loop carries only the ``select``/``update``
spans: those have no traced children, and everything else a step does (reward
draw, ``expected_rewards``, regret bookkeeping, path logging) is the
simulate call's own time. What the remaining wrappers cost is measured on a
no-op (``span_costs``) and subtracted from every timed figure: each span loses
the cost of its own wrapper and that of every span nested in it.

Generator calls and variates are counted in a separate, untimed pass
(``Tracer.counting``), in which simulate receives a counting proxy of its
``Generator``; the proxy returns the generator's own values.

Spans stay in memory and are written once, at the end of the run.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import json
import time
from pathlib import Path

import numpy as np

LAYERS = ("core", "policies", "contextual", "simulate", "instances", "analysis", "harness", "cli")
JOB = "harness._run_job"
SIMULATE = ("simulate.simulate", "simulate.simulate_contextual")
EXPORTS = {"csv": "harness.write_csv", "json": "harness.write_json", "svg": "harness.write_svgs"}
AGGREGATES = ("analysis.aggregate_curves", "analysis.aggregate_traces")


class CountingGenerator:
    """Delegates to a ``numpy.random.Generator``, counting calls and variates."""

    def __init__(self, rng: np.random.Generator) -> None:
        self._rng = rng
        self.calls = 0
        self.draws = 0

    def __getattr__(self, name: str):
        attr = getattr(self._rng, name)
        if not callable(attr):
            return attr

        def counted(*args, **kwargs):
            out = attr(*args, **kwargs)
            self.calls += 1
            self.draws += int(np.size(out))
            return out

        return counted


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.spans: list[list[int]] = []  # [name id, start ns, end ns, parent index]
        self._open = [-1]
        # simulate span index -> (policy key, horizon)
        self.sims: dict[int, tuple[str, int]] = {}
        # while ``counting``: policy key -> [steps, rng calls, rng draws]
        self.counting = False
        self.rng: dict[str, list[int]] = {}
        self.payloads: list[tuple] = []  # every job payload, in call order
        # (variant spec, master seed) of every build_instance call, by span index
        self.builds: dict[int, tuple[str, int | None]] = {}
        self._seed_of: dict[int, int] = {}
        self._streams: list = []  # keeps stream objects alive so ids stay unique
        self._bindings: list[tuple[object, str, object, object]] = []  # namespace, name, plain, traced

    def name_id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def call(self, nid: int, fn, args, kwargs):
        rec = [nid, 0, 0, self._open[-1]]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        rec[1] = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter_ns()
            self._open.pop()

    def bind(self, traced: bool) -> None:
        """Install the module-function wrappers, or put the plain functions back."""
        for namespace, name, plain, wrapper in self._bindings:
            setattr(namespace, name, wrapper if traced else plain)

    def dump(self, path: Path) -> None:
        path.write_text(json.dumps({"names": self.names, "spans": self.spans}, separators=(",", ":")))


# ---------------------------------------------------------------------------
# Instrumentation
# ---------------------------------------------------------------------------

def _function_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        return tracer.call(nid, fn, args, kwargs)

    return traced


def _method_wrapper(tracer: Tracer, layer: str, fn):
    ids: dict[type, int] = {}

    @functools.wraps(fn)
    def traced(self, *args, **kwargs):
        nid = ids.get(type(self))
        if nid is None:
            nid = ids[type(self)] = tracer.name_id(f"{layer}.{fn.__name__}.{type(self).key}")
        return tracer.call(nid, fn, (self, *args), kwargs)

    return traced


def _simulate_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)
    signature = inspect.signature(fn)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        key = type(bound.arguments["policy"]).key
        horizon = int(bound.arguments["horizon"])
        counter = None
        if tracer.counting:
            counter = bound.arguments["rng"] = CountingGenerator(bound.arguments["rng"])
        tracer.sims[len(tracer.spans)] = (key, horizon)
        tracer.bind(False)
        try:
            out = tracer.call(nid, fn, bound.args, bound.kwargs)
        finally:
            tracer.bind(True)
        if counter is not None:
            totals = tracer.rng.setdefault(key, [0, 0, 0])
            totals[0] += horizon
            totals[1] += counter.calls
            totals[2] += counter.draws
        return out

    return traced


def _job_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(payload):
        tracer.payloads.append(payload)
        return tracer.call(nid, fn, (payload,), {})

    return traced


def _streams_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(seed):
        streams = tracer.call(nid, fn, (seed,), {})
        tracer._streams.append(streams)
        tracer._seed_of[id(streams.instance)] = int(seed)
        return streams

    return traced


def _build_wrapper(tracer: Tracer, name: str, fn):
    nid = tracer.name_id(name)

    @functools.wraps(fn)
    def traced(spec, rng):
        tracer.builds[len(tracer.spans)] = (json.dumps(spec, sort_keys=True), tracer._seed_of.get(id(rng)))
        return tracer.call(nid, fn, (spec, rng), {})

    return traced


WRAPPERS = {
    **{name: _simulate_wrapper for name in SIMULATE},
    JOB: _job_wrapper,
    "core.rng_streams": _streams_wrapper,
    "instances.build_instance": _build_wrapper,
}


def instrument(tracer: Tracer) -> None:
    """Wrap the public calls of every package module, in every namespace."""
    package = importlib.import_module("clusterbandit")
    modules = {layer: importlib.import_module(f"clusterbandit.{layer}") for layer in LAYERS}
    namespaces = [package, *modules.values()]
    for layer, module in modules.items():
        for attr, obj in list(vars(module).items()):
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            name = f"{layer}.{attr}"
            if inspect.isfunction(obj) and (not attr.startswith("_") or name == JOB):
                wrapped = WRAPPERS.get(name, _function_wrapper)(tracer, name, obj)
                for ns in namespaces:
                    for other, value in list(vars(ns).items()):
                        if value is obj:
                            tracer._bindings.append((ns, other, obj, wrapped))
            elif inspect.isclass(obj) and isinstance(vars(obj).get("key"), str):
                for meth in ("select", "update"):
                    if meth in vars(obj):
                        setattr(obj, meth, _method_wrapper(tracer, layer, vars(obj)[meth]))
    tracer.bind(True)


# ---------------------------------------------------------------------------
# Extra passes after the program run
# ---------------------------------------------------------------------------

def run_jobs(tracer: Tracer, probes: list[tuple]) -> tuple[int, int]:
    """Time the ``probes`` jobs, then count generator use in the run's and the probes' jobs.

    Every job goes through the program's own (traced) ``harness._run_job``.
    The count pass re-runs the run's jobs at its first seed. Returns the span
    index where the run's spans end and where the timed probes' spans end.
    """
    job = importlib.import_module("clusterbandit.harness")._run_job
    run_end = len(tracer.spans)
    first_seed = min(p[5] for p in tracer.payloads)
    counted = [p for p in tracer.payloads if p[5] == first_seed] + probes
    for payload in probes:
        job(payload)
    probe_end = len(tracer.spans)
    tracer.counting = True
    try:
        for payload in counted:
            job(payload)
    finally:
        tracer.counting = False
    return run_end, probe_end


# ---------------------------------------------------------------------------
# Calibration and primitive floors
# ---------------------------------------------------------------------------

def _per_call_s(fn, calls: int, repeats: int = 7) -> float:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        samples.append((time.perf_counter() - start) / calls)
    return float(np.median(samples))


class _Noop:
    key = "noop"

    def select(self) -> None:
        return None


def span_costs(calls: int = 20000, repeats: int = 9) -> tuple[float, float]:
    """What one traced method call costs its caller, and what it adds to its own span, in ns.

    Measured on a no-op method, after one warm-up round: the first is the
    median difference between a traced and a plain call, over rounds that
    alternate the two; the second is the median no-op span duration minus the
    median plain call.
    """
    tracer = Tracer()
    traced = type("_Traced", (_Noop,), {"select": _method_wrapper(tracer, "calibrate", _Noop.select)})()
    plain = _Noop()
    _per_call_s(traced.select, calls, 1)
    warm = len(tracer.spans)
    plain_s, extra_s = [], []
    for _ in range(repeats):
        plain_s.append(_per_call_s(plain.select, calls, 1))
        extra_s.append(_per_call_s(traced.select, calls, 1) - plain_s[-1])
    recorded_ns = float(np.median([end - start for _, start, end, _ in tracer.spans[warm:]]))
    plain_ns = float(np.median(plain_s)) * 1e9
    return max(0.0, float(np.median(extra_s)) * 1e9), max(0.0, recorded_ns - plain_ns)


def primitive_floors() -> dict[str, float]:
    """Cost of one Beta call, of one Beta variate, and of one tie-break."""
    from clusterbandit.core import random_argmax

    rng = np.random.default_rng(0)
    one, many = np.ones(1), np.ones(1000)
    call_s = _per_call_s(lambda: rng.beta(one, one), 2000)
    thousand_s = _per_call_s(lambda: rng.beta(many, many), 200)
    values = rng.random(1000)
    argmax_s = _per_call_s(lambda: random_argmax(values, rng), 2000)
    return {
        "core.beta_call_us": call_s * 1e6,
        "core.beta_ns_per_draw": (thousand_s - call_s) / 999 * 1e9,
        "core.random_argmax_us": argmax_s * 1e6,
    }


# ---------------------------------------------------------------------------
# Per-layer metrics from spans
# ---------------------------------------------------------------------------

def own_ns(tracer: Tracer, lo: int, hi: int, costs: tuple[float, float]) -> list[float]:
    """Duration of each span in [lo, hi) without the tracer's cost.

    A span loses the cost its own wrapper adds inside it and, for each span
    nested in it at any depth, the full cost of that nested traced call.
    """
    call_ns, inside_ns = costs
    spans = tracer.spans
    nested = [0] * (hi - lo)
    for i in range(hi - 1, lo - 1, -1):
        parent = spans[i][3]
        if parent >= lo:
            nested[parent - lo] += nested[i - lo] + 1
    return [spans[i][2] - spans[i][1] - inside_ns - nested[i - lo] * call_ns for i in range(lo, hi)]


def _percentiles(durations_ns: list[float]) -> tuple[float, float]:
    us = np.asarray(durations_ns, dtype=np.float64) / 1e3
    return float(np.percentile(us, 50)), float(np.percentile(us, 99))


def policy_metrics(tracer: Tracer, lo: int, hi: int, costs: tuple[float, float]) -> dict[str, float]:
    """Per-policy step metrics from the spans with index in [lo, hi) and the counted pass."""
    names, spans = tracer.names, tracer.spans
    own = own_ns(tracer, lo, hi, costs)
    durations: dict[str, list[float]] = {}
    child_ns: dict[int, float] = {}
    for i in range(lo, hi):
        name = names[spans[i][0]]
        parts = name.split(".")
        if len(parts) == 3 and parts[1] in ("select", "update"):
            durations.setdefault(name, []).append(own[i - lo])
            parent = spans[i][3]
            child_ns[parent] = child_ns.get(parent, 0.0) + own[i - lo]
    totals: dict[str, list[float]] = {}  # key -> [steps, simulate self ns]
    for index, (key, horizon) in tracer.sims.items():
        if lo <= index < hi:
            t = totals.setdefault(key, [0, 0.0])
            t[0] += horizon
            t[1] += own[index - lo] - child_ns.get(index, 0.0)
    out: dict[str, float] = {}
    for key, (steps, self_ns) in sorted(totals.items()):
        out[f"simulate.self_us_per_step.{key}"] = self_ns / steps / 1e3
    for key, (steps, calls, draws) in sorted(tracer.rng.items()):
        out[f"core.rng.calls_per_step.{key}"] = calls / steps
        out[f"core.rng.draws_per_step.{key}"] = draws / steps
    for name, values in sorted(durations.items()):
        layer, meth, key = name.split(".")
        p50, p99 = _percentiles(values)
        out[f"{layer}.{meth}_us.{key}.p50"] = p50
        out[f"{layer}.{meth}_us.{key}.p99"] = p99
    return out


def run_metrics(tracer: Tracer, lo: int, hi: int, costs: tuple[float, float]) -> dict[str, float]:
    """Instance, analysis and harness metrics of the run in spans [lo, hi)."""
    names, spans = tracer.names, tracer.spans
    own = own_ns(tracer, lo, hi, costs)
    by_name: dict[str, list[int]] = {}
    for i in range(lo, hi):
        by_name.setdefault(names[spans[i][0]], []).append(i)

    def total_s(indices) -> float:
        return sum(own[i - lo] for i in indices) / 1e9

    jobs = by_name.get(JOB, [])
    job_s = [total_s([i]) for i in jobs]
    builds = by_name.get("instances.build_instance", [])
    distinct = {tracer.builds[i] for i in builds}
    out = {
        "instances.build_calls": float(len(builds)),
        "instances.build_s": total_s(builds),
        "instances.build_reuse": len(distinct) / len(builds) if builds else 1.0,
        "instances.gen_context_calls": float(len(by_name.get("instances.gen_context", []))),
        "analysis.aggregate_s": total_s(i for name in AGGREGATES for i in by_name.get(name, [])),
        "harness.jobs": float(len(jobs)),
        "harness.job_s.p50": float(np.median(job_s)) if job_s else 0.0,
        "harness.job_s.max": max(job_s, default=0.0),
        "harness.serial_s": total_s(by_name.get("cli.main", [])) - sum(job_s),
    }
    for fmt, name in EXPORTS.items():
        out[f"harness.export_s.{fmt}"] = total_s(by_name.get(name, []))
    return out
