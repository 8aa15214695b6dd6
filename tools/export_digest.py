"""The sha256 of every file a source tree's CLI exports, for a byte-identity check between two trees.

    python tools/export_digest.py SRC OUT

``SRC`` is a directory holding a ``clusterbandit`` package (a checkout's
``src``); its CLI runs in a subprocess with ``SRC`` first on ``PYTHONPATH``.
Into the directory ``OUT`` it writes:

* ``run/<preset>/plain`` and ``run/<preset>/bounds``: every preset run with
  ``--seeds 2 --horizon 300 --format csv,json,svg``, without and with
  ``--bounds``;
* ``run/gaussian-contexts/plain``: the contextual config ``GAUSSIAN_CONTEXTS``
  run with ``--format csv,json,svg``, as no preset draws Gaussian contexts;
* ``generate/<kind>.json``: ``generate`` of one small spec of each generated
  kind (``SPECS``) at seed 0;
* ``audit/<kind>.json`` and ``bounds/<kind>.json``: ``audit`` and ``bounds``
  of each generated Bernoulli document.

It prints one ``sha256 path`` line per file, the path relative to ``OUT``, in
path order, so the outputs for two trees diff empty exactly when the trees
export the same bytes:

    python tools/export_digest.py parent/src /tmp/parent-out > parent.txt
    python tools/export_digest.py src /tmp/change-out > change.txt
    diff parent.txt change.txt

A failing CLI call stops the script with its exit status and output.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

# one small spec of each generated kind, as instances.SPEC_KINDS names them
SPECS = {
    "strong_dominance": {"n_arms": 30, "n_suboptimal_clusters": 4, "optimal_cluster_size": 5,
                         "optimal_width": 0.1, "separation": 0.05},
    "sorted_tree": {"n_arms": 16, "levels": 3},
    "kmeans": {"n_arms": 30, "n_clusters": 4, "reward_fn": "sin-product"},
    "kmeans_tree": {"n_arms": 30, "branching": 3, "depth": 2, "reward_fn": "gaussian-mix-1d"},
    "agglomerative": {"n_arms": 20, "reward_fn": "sin-product"},
    "uniform": {"n_arms": 30, "n_clusters": 4},
    "contextual": {"n_arms": 30, "n_clusters": 4, "epsilon": 0.5},
}
RUN_ARGS = ("--seeds", "2", "--horizon", "300", "--format", "csv,json,svg")
GAUSSIAN_CONTEXTS = {
    "name": "gaussian-contexts", "horizon": 300, "seeds": [0, 1], "context_kind": "gaussian",
    "policies": [{"key": key} for key in ("lints", "lintsc", "linucb", "linucbc")],
    "instance": {"kind": "contextual", **SPECS["contextual"]},
}


def cli(src: Path, *args: str) -> str:
    """Run ``python -m clusterbandit.cli ARGS`` on the package under ``src`` and return its stdout."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "clusterbandit.cli", *args], env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        sys.stderr.write(f"clusterbandit {' '.join(args)} exited {proc.returncode}\n{proc.stdout}{proc.stderr}")
        raise SystemExit(proc.returncode)
    return proc.stdout


def export_all(src: Path, out: Path, presets: list[str] | None) -> None:
    """Write every export of ``src``'s CLI under ``out``."""
    for name in presets or cli(src, "list-presets").split():
        for mode, extra in (("plain", ()), ("bounds", ("--bounds",))):
            cli(src, "run", "--preset", name, *RUN_ARGS, *extra, "--out", str(out / "run" / name / mode))
    config = out / "run" / "gaussian-contexts.config"
    config.parent.mkdir(parents=True, exist_ok=True)
    config.write_text(json.dumps(GAUSSIAN_CONTEXTS))
    cli(src, "run", "--config", str(config), "--format", "csv,json,svg",
        "--out", str(out / "run" / "gaussian-contexts" / "plain"))
    config.unlink()
    for sub in ("generate", "audit", "bounds"):
        (out / sub).mkdir(parents=True, exist_ok=True)
    for kind, fields in SPECS.items():
        spec = out / "generate" / f"{kind}.spec"
        spec.write_text(json.dumps({"kind": kind, **fields}))
        doc = out / "generate" / f"{kind}.json"
        cli(src, "generate", "--spec", str(spec), "--seed", "0", "--out", str(doc))
        spec.unlink()
        if kind != "contextual":
            for sub in ("audit", "bounds"):
                cli(src, sub, "--instance", str(doc), "--out", str(out / sub / f"{kind}.json"))


def main(argv: list[str] | None = None, presets: list[str] | None = None) -> int:
    """Export and digest every preset, or only ``presets`` when a caller names them."""
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("src", type=Path, help="directory holding the clusterbandit package")
    parser.add_argument("out", type=Path, help="directory to export into (must be empty or absent)")
    args = parser.parse_args(argv)
    if args.out.exists() and any(args.out.iterdir()):
        parser.error(f"{args.out} is not empty")
    export_all(args.src.resolve(), args.out, presets)
    for path in sorted(p for p in args.out.rglob("*") if p.is_file()):
        print(hashlib.sha256(path.read_bytes()).hexdigest(), path.relative_to(args.out).as_posix())
    return 0


if __name__ == "__main__":
    sys.exit(main())
