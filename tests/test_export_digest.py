"""``tools/export_digest.py`` end to end on one small preset, so that it cannot rot.

One run digests every file it exported, by its path under the output
directory in path order: both runs of the preset and the one run on Gaussian
contexts with their CSV, JSON and SVG exports, the ``generate`` document of
every spec kind, and the ``audit`` and ``bounds`` reports of every Bernoulli
one.
"""
import hashlib
import importlib.util
import json
import re
import subprocess
import sys
from pathlib import Path

from clusterbandit.instances import SPEC_KINDS

ROOT = Path(__file__).resolve().parent.parent


def _tool():
    spec = importlib.util.spec_from_file_location("export_digest", ROOT / "tools" / "export_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _export_digest(out):
    return subprocess.run([sys.executable, "tools/export_digest.py", "src", str(out)],
                          cwd=ROOT, capture_output=True, text=True, timeout=300)


def test_every_spec_kind_has_a_spec():
    assert sorted(_tool().SPECS) == sorted(SPEC_KINDS)


def test_one_preset_digests_every_export(tmp_path, capsys):
    out = tmp_path / "out"
    assert _tool().main([str(ROOT / "src"), str(out)], presets=["kmeans-small"]) == 0
    lines = capsys.readouterr().out.splitlines()
    digests = dict(line.split(" ", 1)[::-1] for line in lines)
    assert all(re.fullmatch(r"[0-9a-f]{64} \S+", line) for line in lines)
    files = sorted(p.relative_to(out).as_posix() for p in out.rglob("*") if p.is_file())
    assert list(digests) == files
    for path, digest in digests.items():
        assert hashlib.sha256((out / path).read_bytes()).hexdigest() == digest, path
    for mode in ("plain", "bounds"):
        run = {p for p in files if p.startswith(f"run/kmeans-small/{mode}/")}
        assert {p.rsplit(".", 1)[1] for p in run} == {"csv", "json", "svg"}, mode
    gaussian = {p for p in files if p.startswith("run/gaussian-contexts/")}
    assert gaussian == {f"run/gaussian-contexts/plain/gaussian-contexts{end}"
                        for end in (".csv", ".json", "__default.svg")}
    assert {p.split("/")[1] for p in files if p.startswith("run/")} == {"kmeans-small", "gaussian-contexts"}
    doc = json.loads((out / "run/gaussian-contexts/plain/gaussian-contexts.json").read_text())
    assert doc["config"]["context_kind"] == "gaussian"
    bernoulli = [kind for kind, schema in SPEC_KINDS.items() if schema.structure != "contextual"]
    assert {p for p in files if not p.startswith("run/")} == {
        *(f"generate/{kind}.json" for kind in SPEC_KINDS),
        *(f"{report}/{kind}.json" for kind in bernoulli for report in ("audit", "bounds")),
    }


def test_a_non_empty_output_directory_is_refused(tmp_path):
    (tmp_path / "stale.csv").write_text("")
    proc = _export_digest(tmp_path)
    assert proc.returncode == 2 and "is not empty" in proc.stderr
