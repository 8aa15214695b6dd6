"""Command-line interface end to end on tiny workloads."""
import json
import math
import re
import subprocess
import sys

import pytest

from clusterbandit import cli, harness
from clusterbandit.analysis import hts_instance_bound, instance_bounds
from clusterbandit.cli import main
from clusterbandit.core import rng_streams
from clusterbandit.harness import ConfigError, ExperimentConfig, run_experiment
from clusterbandit.instances import build_instance

SD_SPEC = {
    "kind": "strong_dominance",
    "n_arms": 12,
    "n_suboptimal_clusters": 2,
    "optimal_cluster_size": 3,
    "optimal_width": 0.1,
    "separation": 0.1,
}


CTX_DOC = {"kind": "contextual", "theta": [[0.1, 0.2], [0.3, 0.4]], "labels": [0, 1], "epsilon": 0.0}

FLAT_DOC = {"kind": "bernoulli", "means": [0.5, 0.2]}
TREE_SPEC = {"kind": "sorted_tree", "n_arms": 8}
# at seed 0 this clustering (hts-uct's L1) has gamma < -1 - A*/K, so its tsc_minimax is infinite
L1_SPEC = {"kind": "kmeans", "n_arms": 5000, "n_clusters": 15, "reward_fn": "sin-product"}


def _strict_json(text: str):
    """``text`` as JSON, failing on NaN and Infinity, which JSON does not have."""
    def reject(name):
        raise ValueError(f"not JSON: {name}")

    return json.loads(text, parse_constant=reject)


@pytest.fixture
def spec_file(tmp_path):
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(SD_SPEC))
    return path


class TestListPresets:
    def test_prints_all_names(self, capsys):
        assert main(["list-presets"]) == 0
        out = capsys.readouterr().out.strip().split("\n")
        assert len(out) == 15
        assert "fig-d-sweep" in out and "ctx-small" in out


class TestGenerate:
    def test_generates_replayable_instance(self, tmp_path, spec_file, capsys):
        out = tmp_path / "instance.json"
        assert main(["generate", "--spec", str(spec_file), "--seed", "3", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "bernoulli"
        assert len(doc["means"]) == 12
        assert doc["meta"]["seed"] == 3

    def test_same_seed_same_instance(self, tmp_path, spec_file):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        main(["generate", "--spec", str(spec_file), "--seed", "5", "--out", str(a)])
        main(["generate", "--spec", str(spec_file), "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


class TestRun:
    def test_config_run_writes_outputs(self, tmp_path, capsys):
        config = {
            "name": "cli-tiny",
            "horizon": 30,
            "seeds": [1, 2],
            "policies": [{"key": "ts"}, {"key": "tsc"}],
            "instance": SD_SPEC,
        }
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        out_dir = tmp_path / "results"
        code = main(
            ["run", "--config", str(cfg), "--out", str(out_dir), "--format", "csv,json,svg"]
        )
        assert code == 0
        assert (out_dir / "cli-tiny.csv").exists()
        assert (out_dir / "cli-tiny.json").exists()
        assert list(out_dir.glob("*.svg"))
        stdout = capsys.readouterr().out
        assert "final regret" in stdout

    def test_preset_with_overrides(self, tmp_path, capsys):
        code = main(
            [
                "run",
                "--preset",
                "appendix-uniform",
                "--seeds",
                "2",
                "--horizon",
                "25",
                "--out",
                str(tmp_path),
            ]
        )
        assert code == 0
        doc = json.loads((tmp_path / "appendix-uniform.json").read_text())
        assert doc["config"]["horizon"] == 25
        assert len(doc["config"]["seeds"]) == 2

    @pytest.mark.parametrize("name", harness.preset_names())
    def test_overrides_replace_only_their_fields(self, tmp_path, monkeypatch, name):
        runs = []

        def record(config, workers=None):  # stop before any job
            runs.append(config)
            raise harness.ConfigError("recorded")

        monkeypatch.setattr(cli, "run_experiment", record)
        out = str(tmp_path)
        assert main(["run", "--preset", name, "--out", out]) == 2
        argv = ["run", "--preset", name, "--seeds", "2", "--base-seed", "7", "--horizon", "30",
                "--stride", "3", "--bounds", "--out", out]
        assert main(argv) == 2
        doc = {**harness.preset(name).to_json(), "seeds": [7, 8], "horizon": 30, "stride": 3, "bounds": True}
        assert runs == [harness.preset(name), harness.ExperimentConfig.from_json(doc)]
        assert runs[1].to_json() == doc

    def test_unknown_preset_exit_code(self, capsys):
        assert main(["run", "--preset", "bogus", "--out", "/tmp/x"]) == 2
        assert "valid presets" in capsys.readouterr().err

    def test_invalid_config_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"name": "broken", "horizon": 0, "seeds": [1],
                                   "policies": [{"key": "ts"}], "instance": SD_SPEC}))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path)]) == 2
        assert "horizon" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "option, value, field",
        [("--format", "csv,xml", "format"), ("--format", "", "format"), ("--format", " , ", "format"),
         ("--workers", "0", "workers"), ("--workers", "-3", "workers")],
    )
    def test_bad_format_or_workers_fails_before_any_job(self, tmp_path, monkeypatch, capsys, option, value, field):
        self._assert_fails_before_any_job(tmp_path, monkeypatch, capsys, [option, value], field)

    @pytest.mark.parametrize(
        "args, field", [(["--base-seed", "-1"], "seeds"), (["--horizon", "1", "--bounds"], "horizon")]
    )
    def test_negative_seed_or_short_bound_horizon_fails_before_any_job(
        self, tmp_path, monkeypatch, capsys, args, field
    ):
        self._assert_fails_before_any_job(tmp_path, monkeypatch, capsys, args, field)

    @staticmethod
    def _assert_fails_before_any_job(tmp_path, monkeypatch, capsys, args, field):
        jobs = []
        run_job = harness._run_job
        monkeypatch.setattr(harness, "_run_job", lambda payload: jobs.append(payload) or run_job(payload))
        out_dir = tmp_path / "results"
        argv = ["run", "--preset", "appendix-uniform", "--seeds", "1", "--horizon", "20",
                "--out", str(out_dir), *args]
        assert main(argv) == 2
        assert f"error: {field}: " in capsys.readouterr().err
        assert jobs == []
        assert not out_dir.exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps({"name": "t", "horizon": 5, "seeds": [1],
                                   "policies": [{"key": "ts"}], "instance": SD_SPEC}))
        blocker = tmp_path / "blocker"
        blocker.write_text("not a directory")
        assert main(["run", "--config", str(cfg), "--out", str(blocker / "sub")]) == 1
        assert "i/o error" in capsys.readouterr().err


class TestAuditAndBounds:
    def test_audit_clustered_instance(self, tmp_path, spec_file, capsys):
        inst = tmp_path / "inst.json"
        main(["generate", "--spec", str(spec_file), "--seed", "7", "--out", str(inst)])
        capsys.readouterr()
        assert main(["audit", "--instance", str(inst)]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["strong_dominance"]["holds"] is True
        assert doc["cluster_stats"]["a_star"] == 3

    def test_audit_tree_instance(self, tmp_path, capsys):
        spec = tmp_path / "tree-spec.json"
        spec.write_text(json.dumps({"kind": "sorted_tree", "n_arms": 8}))
        assert main(["audit", "--spec", str(spec), "--seed", "2"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["hierarchical_dominance"]["holds"] is True

    def test_bounds_report(self, tmp_path, spec_file, capsys):
        assert main(
            ["bounds", "--spec", str(spec_file), "--seed", "2", "--horizon", "3000", "--eps", "0.1"]
        ) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["tsc_instance"]["finite"] is True
        assert doc["tsc_instance"]["leading"] > 0
        assert doc["lai_robbins_lower"]["leading"] <= doc["tsc_instance"]["leading"]
        assert "caveat" in doc["tsc_instance"]

    def test_bounds_requires_structure(self, tmp_path, capsys):
        inst = tmp_path / "flat.json"
        inst.write_text(json.dumps({"kind": "bernoulli", "means": [0.5, 0.2]}))
        assert main(["bounds", "--instance", str(inst)]) == 2

    @pytest.mark.parametrize(
        "command, doc, code, out, err",
        [
            ("audit", {"kind": "bernoulli", "means": [0.5, 0.2]}, 0,
             {"n_arms": 2, "unique_optimum": True, "note": "flat instance: no clustering structure to audit"}, ""),
            ("audit", CTX_DOC, 2, "", "error: instance: audits apply to Bernoulli instances only\n"),
            ("bounds", CTX_DOC, 2, "", "error: instance: bound formulas apply to Bernoulli instances only "
                                         "(contextual regret analysis is out of scope)\n"),
        ],
        ids=["audit-flat", "audit-contextual", "bounds-contextual"],
    )
    def test_audit_and_bounds_by_structure(self, tmp_path, capsys, command, doc, code, out, err):
        inst = tmp_path / "inst.json"
        inst.write_text(json.dumps(doc))
        assert main([command, "--instance", str(inst)]) == code
        captured = capsys.readouterr()
        assert (json.loads(captured.out) if code == 0 else captured.out) == out
        assert captured.err == err

    def test_bounds_tree_instance(self, tmp_path, capsys):
        spec = {"kind": "sorted_tree", "n_arms": 8}
        path = tmp_path / "tree-spec.json"
        path.write_text(json.dumps(spec))
        assert main(["bounds", "--spec", str(path), "--seed", "2", "--horizon", "3000", "--eps", "0.1"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert set(doc) == {"horizon", "eps", "hts_instance"}
        ib = hts_instance_bound(build_instance(spec, rng_streams(2).instance), 3000, 0.1)
        assert doc["hts_instance"] == {
            "coefficient": ib.coefficient, "leading": ib.leading, "loglog_coefficient": ib.loglog_coefficient,
            "loglog": ib.loglog, "finite": ib.finite, "dominance_ok": ib.dominance_ok, "caveat": ib.caveat,
            "warnings": list(ib.warnings),
        }
        assert ib.finite and ib.leading > 0

    def test_exactly_one_source_required(self, capsys):
        assert main(["audit"]) == 2

    @pytest.mark.parametrize(
        "command, spec, seed",
        [("audit", FLAT_DOC, 0), ("audit", SD_SPEC, 2), ("audit", TREE_SPEC, 2), ("audit", L1_SPEC, 0),
         ("bounds", SD_SPEC, 2), ("bounds", TREE_SPEC, 2), ("bounds", L1_SPEC, 0)],
        ids=["audit-flat", "audit-clustered", "audit-tree", "audit-L1", "bounds-clustered", "bounds-tree",
             "bounds-L1"],
    )
    def test_reports_are_standard_json(self, tmp_path, capsys, command, spec, seed):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        horizon = ["--horizon", "60"] if command == "bounds" else []
        assert main([command, "--spec", str(path), "--seed", str(seed), *horizon]) == 0
        doc = _strict_json(capsys.readouterr().out)
        if command == "bounds":
            instance = build_instance(spec, rng_streams(seed).instance)
            assert list(doc) == ["horizon", "eps", *instance_bounds(instance, 60.0, 0.1)]
        if command == "bounds" and spec is L1_SPEC:
            assert doc["tsc_minimax"] is None

    def test_run_bounds_reports_the_one_table(self, tmp_path):
        specs = {"clustered": SD_SPEC, "tree": TREE_SPEC, "flat": FLAT_DOC,
                 "contextual": {"kind": "contextual", "n_arms": 6, "n_clusters": 2, "dim": 3, "epsilon": 0.2}}
        config = {"name": "table", "horizon": 300, "seeds": [3, 4], "bounds": True, "eps": 0.2,
                  "policies": [{"key": "ts", "variants": ["flat"]}],
                  "instances": [{"name": name, "spec": spec} for name, spec in specs.items()]}
        cfg = tmp_path / "config.json"
        cfg.write_text(json.dumps(config))
        assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 0
        rows = json.loads((tmp_path / "out" / "table.json").read_text())["bounds"]
        for name, spec in specs.items():
            for seed in config["seeds"]:
                table = instance_bounds(build_instance(spec, rng_streams(seed).instance), 300.0, 0.2)
                assert [b["bound"] for b in rows if b["experiment_id"] == f"table/{name}"] == sorted(table)
        assert {b["experiment_id"] for b in rows} == {"table/clustered", "table/tree"}

    @pytest.mark.parametrize(
        "structure, field",
        [({"clustering": {}}, "clustering.labels"),
         ({"tree": {"leaf_arms": [-1, 0, 1]}}, "tree.children"),
         ({"tree": {"children": [[1, 2], [], []]}}, "tree.leaf_arms")],
        ids=["clustering-labels", "tree-children", "tree-leaf-arms"],
    )
    def test_document_missing_nested_field_fails_naming_it(self, tmp_path, capsys, structure, field):
        doc = {**FLAT_DOC, **structure}
        path = tmp_path / "inst.json"
        path.write_text(json.dumps(doc))
        for command in ("audit", "bounds"):
            assert main([command, "--instance", str(path)]) == 2
            assert capsys.readouterr() == ("", f"error: {field}: missing\n")
        config = ExperimentConfig.from_json(
            {"name": "missing", "horizon": 10, "seeds": [1], "policies": [{"key": "ts"}], "instance": doc}
        )
        match = rf"^instances: variant 'default' at seed 1: {re.escape(field)}: missing$"
        with pytest.raises(ConfigError, match=match):
            run_experiment(config)

    @pytest.mark.parametrize("text, shown", [("5", "5"), ("null", "None"), ("[]", "[]")])
    def test_document_that_is_not_an_object_exits_2(self, tmp_path, capsys, text, shown):
        path = tmp_path / "doc.json"
        path.write_text(text)
        out = tmp_path / "out.json"
        for argv in (["audit", "--instance", str(path)], ["generate", "--spec", str(path), "--out", str(out)]):
            assert main(argv) == 2
            assert capsys.readouterr() == ("", f"error: instance: must be an object, got {shown}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "option, value, message",
        [("--horizon", "nan", "horizon: must be finite and >= 2, got nan"),
         ("--horizon", "inf", "horizon: must be finite and >= 2, got inf"),
         ("--eps", "nan", "eps: must be finite and > 0, got nan"),
         ("--eps", "inf", "eps: must be finite and > 0, got inf")],
    )
    def test_bounds_rejects_a_non_finite_horizon_or_eps(self, spec_file, capsys, option, value, message):
        assert main(["bounds", "--spec", str(spec_file), option, value]) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestRunBounds:
    def test_bounds_on_a_clustering_without_dominance(self, tmp_path, capsys):
        # At seed 0 the L1 clustering of hts-uct has gamma < -1 - A*/K.
        out = tmp_path / "out"
        assert main(
            ["run", "--preset", "hts-uct", "--base-seed", "0", "--seeds", "1",
             "--horizon", "60", "--bounds", "--out", str(out)]
        ) == 0
        doc = json.loads((out / "hts-uct.json").read_text())
        (minimax,) = [b for b in doc["bounds"] if b["bound"] == "tsc_minimax"]
        assert minimax["mean_value_at_horizon"] == math.inf
        assert minimax["dominance_ok_fraction"] == 0.0


class TestConsoleEntryPoint:
    def test_installed_script(self):
        proc = subprocess.run(
            [sys.executable, "-m", "clusterbandit.cli", "list-presets"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert "kmeans-small" in proc.stdout

    def test_import_loads_no_scipy(self):
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys, clusterbandit.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"
