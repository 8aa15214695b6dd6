"""One ``clusterbandit run`` in a fresh interpreter, timed by phase.

Usage: python3 perfbench/child.py SPEC.json

SPEC names the config file, the output directory, the worker count, the mode
(``setup`` stops after set-up) and whether to trace. The child writes a report
JSON next to SPEC with the monotonic time at which set-up ended, the wall and
CPU time of the run and its peak memory. A traced child then times the probe
jobs of the policies the workload does not run, counts generator use in a
separate pass (tracing.run_jobs), adds the per-layer metrics and writes its
spans; the wall and CPU time cover the program run only.
"""
from __future__ import annotations

import json
import resource
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path


def _cpu_s() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        usage = resource.getrusage(who)
        total += usage.ru_utime + usage.ru_stime
    return total


def _peak_rss_kb() -> int:
    """High-water RSS of this process since it started.

    ``ru_maxrss`` of a process started by fork and exec also covers the
    launching process's peak, so read the kernel's own counter when it exists.
    """
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text())
    import clusterbandit.cli
    from clusterbandit.harness import ExperimentConfig

    ExperimentConfig.from_json(json.loads(Path(spec["config"]).read_text()))
    report: dict = {"setup_end": time.monotonic()}
    report_path = Path(spec["report"])
    if spec["mode"] == "setup":
        report_path.write_text(json.dumps(report))
        return 0

    tracer = None
    if spec["trace"]:
        import tracing

        report["layers"] = tracing.primitive_floors()
        costs = tracing.span_costs()
        tracer = tracing.Tracer()
        tracing.instrument(tracer)

    argv = ["run", "--config", spec["config"], "--out", spec["out"], "--format", "csv,json,svg",
            "--workers", str(spec["workers"])]
    cpu0 = _cpu_s()
    start = time.monotonic()
    with open(spec["log"], "a") as log, redirect_stdout(log):
        rc = clusterbandit.cli.main(argv)
    report["wall_s"] = time.monotonic() - start
    report["cpu_s"] = _cpu_s() - cpu0
    report["rss_main_kb"] = _peak_rss_kb()
    report["rss_worker_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss

    if tracer is not None:
        from workloads import WORKLOADS, probe_jobs

        probes = probe_jobs(WORKLOADS[spec["workload"]], spec["seed"], spec["smoke"])
        run_end, probe_end = tracing.run_jobs(tracer, probes)
        layers = report["layers"]
        layers.update(tracing.run_metrics(tracer, 0, run_end, costs))
        layers.update(tracing.policy_metrics(tracer, 0, probe_end, costs))
        tracer.dump(Path(spec["spans"]))
    report_path.write_text(json.dumps(report))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
