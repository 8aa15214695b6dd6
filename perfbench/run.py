"""clusterbandit benchmark: preset workloads through ``clusterbandit run``.

Run from the repository root:

    python3 perfbench/run.py --workload flat-kmeans --seed 0 --seconds 25 --trace 0
    python3 perfbench/run.py --smoke            # every workload, tiny size, both modes

``--trace 0`` repeats the workload's run, each time in a fresh interpreter,
for about ``--seconds`` seconds and reports the end-to-end metrics: medians of
wall time, throughput, CPU time and peak memory over the repeats, and the
median set-up time over several fresh interpreters. ``--trace 1`` runs the
workload untraced at 1 and 2 workers and traced at 1 worker, and reports the
per-layer metrics of tracing.py, the pool speed-up and the tracing overhead.

Every run passes the output check of checks.py; repeats at one seed base must
write identical bytes. The last line of standard output is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` (jobs) and ``metrics``.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from checks import check_run, digest_mismatches, digests, expected_jobs
from workloads import DEFAULT_SEED, HELDOUT_SEED, WORKLOADS, config_doc

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
REFERENCE = HERE / "reference.json"
MIN_REPEATS = 3
SETUP_PROBES = 3
DEADLINE_S = 170.0


def declared_units() -> dict[str, str]:
    """Unit of every metric, as BENCHMARK.json declares it."""
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in doc["end_to_end"] + doc["per_layer"]}


def environment(root: Path) -> dict:
    def version(dist: str) -> str | None:
        try:
            return metadata.version(dist)
        except metadata.PackageNotFoundError:
            return None

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": version("numpy"),
        "scipy": version("scipy"),
        "git_sha": git_sha(root),
        "workers": {w.name: w.workers for w in WORKLOADS.values()},
        "blas_threads": 1,
    }


def git_sha(root: Path) -> str | None:
    """HEAD of the checkout, read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _summary(values: list[float]) -> str:
    return (f"median {statistics.median(values):.4g}, min {min(values):.4g}, "
            f"max {max(values):.4g} (n={len(values)})")


class Bench:
    """One benchmark invocation: a workload at one seed base and size."""

    def __init__(self, root: Path, workload: str, seed: int, smoke: bool) -> None:
        self.root = root
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.smoke = smoke
        self.started = time.monotonic()
        self.tmp = root / ".perfbench-out" / f"{workload}-{os.getpid()}"
        shutil.rmtree(self.tmp, ignore_errors=True)
        self.tmp.mkdir(parents=True)
        self.config = config_doc(self.workload, seed, smoke)
        self.config_path = self.tmp / "config.json"
        self.config_path.write_text(json.dumps(self.config, indent=2))
        self.jobs = expected_jobs(self.config)
        self.steps = self.jobs * self.config["horizon"]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self._digests: dict[str, str] | None = None
        self._launches = 0
        self.reference = None
        if REFERENCE.is_file():
            recorded = json.loads(REFERENCE.read_text())["workloads"].get(workload, {})
            self.reference = recorded.get("smoke" if smoke else "full")

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    def env(self) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
            env[var] = "1"
        env["TMPDIR"] = str(self.tmp)
        return env

    def launch(self, mode: str, workers: int = 1, trace: bool = False) -> dict | None:
        """Start a fresh interpreter on child.py and return its report, or None if it failed."""
        self._launches += 1
        run_dir = self.tmp / f"{self._launches:03d}-{mode}"
        run_dir.mkdir()
        spec = {
            "config": str(self.config_path),
            "out": str(run_dir / "out"),
            "report": str(run_dir / "report.json"),
            "log": str(run_dir / "log.txt"),
            "spans": str(self.root / ".perfbench-out" / f"{self.workload.name}.spans.json"),
            "workers": workers,
            "mode": mode,
            "trace": trace,
            "workload": self.workload.name,
            "seed": self.seed,
            "smoke": self.smoke,
        }
        spec_path = run_dir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        timeout = max(5.0, DEADLINE_S - (time.monotonic() - self.started))
        start = time.monotonic()
        with open(spec["log"], "a") as log:
            proc = subprocess.Popen(
                [sys.executable, str(CHILD), str(spec_path)],
                cwd=self.root, env=self.env(), stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )
            try:
                rc = proc.wait(timeout=timeout)
            except subprocess.TimeoutExpired:
                rc = None
            finally:
                try:
                    os.killpg(proc.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                proc.wait()
        report_path = Path(spec["report"])
        if rc != 0 or not report_path.is_file():
            tail = Path(spec["log"]).read_text()[-2000:]
            print(f"{mode} run failed (exit {rc}):\n{tail}", file=sys.stderr)
            return None
        report = json.loads(report_path.read_text())
        report["setup_s"] = report["setup_end"] - start
        report["dir"] = run_dir
        return report

    def program_run(self, workers: int, trace: bool = False) -> dict | None:
        """One checked run: counts its jobs, and fails them all on any problem."""
        report = self.launch("run", workers, trace)
        self.attempted += self.jobs
        problems = []
        if report is None:
            problems.append(f"a run at {workers} worker(s) did not finish")
        else:
            out = report["dir"] / "out"
            got = digests(out)
            if self._digests is None:
                self._digests = got
                if self.reference is None:
                    problems.append("reference: no recorded reference for this workload and size")
                problems += check_run(out, self.config, self.reference)
                self.report_digest(got)
            elif got != self._digests:
                problems.append(f"output bytes at {workers} worker(s), trace {int(trace)} differ "
                                f"from the first run: {digest_mismatches(got, self._digests)}")
            report["export_bytes"] = sum(p.stat().st_size for p in out.iterdir())
            shutil.rmtree(out)
        if problems:
            self.failed += self.jobs
            self.problems.extend(problems)
            return None
        return report

    def report_digest(self, got: dict[str, str]) -> None:
        if self.seed != DEFAULT_SEED or self.reference is None:
            return
        changed = digest_mismatches(got, self.reference["default_seed_digests"])
        if changed:
            print(f"digest: {self.workload.name} outputs at the default seed differ from the "
                  f"recorded digests: {', '.join(changed)}")

    def time_left(self, seconds: float, round_s: float) -> bool:
        return time.monotonic() - self.measure_start + round_s <= seconds

    # -- modes --------------------------------------------------------------

    def end_to_end(self, seconds: float) -> dict:
        self.launch("setup")  # compiles bytecode; not counted
        setups = [r["setup_s"] for r in (self.launch("setup") for _ in range(SETUP_PROBES)) if r]
        runs = []
        self.measure_start = time.monotonic()
        while True:
            start = time.monotonic()
            report = self.program_run(self.workload.workers)
            if report is not None:
                runs.append(report)
                setups.append(report["setup_s"])
            if self.attempted // self.jobs >= MIN_REPEATS and not self.time_left(
                seconds, time.monotonic() - start
            ):
                break
        if not runs:
            return {}
        walls = [r["wall_s"] for r in runs]
        cpus = [r["cpu_s"] for r in runs]
        main_mb = [r["rss_main_kb"] / 1024 for r in runs]
        worker_mb = [r["rss_worker_kb"] / 1024 for r in runs]
        peaks = [max(m, w) for m, w in zip(main_mb, worker_mb)]
        wall = statistics.median(walls)
        print(f"wall_s       {_summary(walls)} s")
        print(f"steps_per_s  {self.steps / wall:.1f} 1/s ({self.jobs} jobs x {self.config['horizon']} "
              f"steps at {len(self.config['seeds'])} seeds, over the median wall_s)")
        print(f"cpu_s        {_summary(cpus)} s")
        print(f"setup_s      {_summary(setups)} s")
        print(f"peak_rss_mb  {_summary(peaks)} MB (main {statistics.median(main_mb):.1f}, "
              f"largest worker {statistics.median(worker_mb):.1f})")
        return {
            "wall_s": wall,
            "steps_per_s": self.steps / wall,
            "cpu_s": statistics.median(cpus),
            "setup_s": statistics.median(setups),
            "peak_rss_mb": statistics.median(peaks),
        }

    def traced(self, seconds: float) -> dict:
        self.launch("setup")  # compiles bytecode; not counted
        untraced_1, traced_1, untraced_2, layers = [], [], [], None
        self.measure_start = time.monotonic()
        while True:
            start = time.monotonic()
            for workers, trace, walls in ((1, False, untraced_1), (1, True, traced_1), (2, False, untraced_2)):
                report = self.program_run(workers, trace)
                if report is None:
                    continue
                walls.append(report["wall_s"])
                if trace and layers is None:
                    layers = dict(report["layers"])
                    layers["harness.export_bytes"] = float(report["export_bytes"])
            if not self.time_left(seconds, time.monotonic() - start):
                break
        if layers is None or not untraced_1 or not untraced_2:
            return {}
        wall_1 = statistics.median(untraced_1)
        layers["harness.pool_speedup"] = wall_1 / statistics.median(untraced_2)
        layers["trace.overhead_s"] = statistics.median(traced_1) - wall_1
        print(f"untraced wall at 1 worker {_summary(untraced_1)} s; at 2 workers "
              f"{_summary(untraced_2)} s; traced at 1 worker {_summary(traced_1)} s")
        return layers


def run_one(root: Path, workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    bench = Bench(root, workload, seed, smoke)
    try:
        w = bench.workload
        print("env " + json.dumps({**environment(root), "seeds": bench.config["seeds"],
                                   "default_seed": DEFAULT_SEED, "heldout_seed": HELDOUT_SEED}))
        print(f"workload {w.name}: preset {w.preset}, workers {w.workers}, "
              f"horizon {bench.config['horizon']}, {bench.jobs} jobs per run")
        values = bench.traced(seconds) if trace else bench.end_to_end(seconds)
    finally:
        bench.close()
    for problem in bench.problems:
        print(f"check failed: {problem}")
    failed_frac = bench.failed / bench.attempted if bench.attempted else 1.0
    print(f"failed_frac  {failed_frac:.4g} ({bench.failed} of {bench.attempted} jobs)")
    correct = not bench.problems and bool(values)
    units = declared_units()
    metrics = {name: {"value": value, "unit": units[name]} for name, value in sorted(values.items())}
    return {"correct": correct, "attempted": max(bench.attempted, 1), "failed": bench.failed,
            "metrics": metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED, help="seed base of the workload")
    parser.add_argument("--seconds", type=float, default=25.0, help="measuring time per invocation")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny size, no minimum run time; without --workload, every workload "
                        "in both modes")
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if args.workload is None and not args.smoke:
        parser.error("--workload is required unless --smoke is given")

    root = Path.cwd()
    package = root / "src" / "clusterbandit" / "__init__.py"
    if not package.is_file():
        print(f"error: no clusterbandit sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(root / "src"))
    import clusterbandit

    if Path(clusterbandit.__file__).resolve() != package.resolve():
        print(f"error: imported clusterbandit from {clusterbandit.__file__}, not {package}",
              file=sys.stderr)
        return 2

    if args.workload is not None:
        print(json.dumps(run_one(root, args.workload, args.seed, args.seconds, bool(args.trace), args.smoke)))
        return 0
    ok = True
    for name in WORKLOADS:
        for trace in (False, True):
            result = run_one(root, name, args.seed, 0.0, trace, smoke=True)
            ok = ok and result["correct"]
            print(json.dumps(result))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
