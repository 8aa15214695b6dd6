"""Experiment runner: config parsing, determinism, pairing, exports, presets."""
import csv
import dataclasses
import functools
import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
import xml.etree.ElementTree as ET
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from clusterbandit import harness
from clusterbandit.analysis import (
    cluster_stats,
    lai_robbins_lower,
    minimax_lower_reference,
    tsc_instance_bound,
    tsc_minimax_bound,
)
from clusterbandit.core import rng_streams
from clusterbandit.harness import (
    ConfigError,
    ExperimentConfig,
    InstanceVariant,
    JobError,
    PolicySpec,
    export_result,
    load_results_json,
    logging_grid,
    preset,
    preset_names,
    run_experiment,
)
from clusterbandit.instances import (
    CONTEXT_KINDS,
    SPEC_KINDS,
    build_instance,
    gen_context,
    instance_to_json,
    spec_fields,
)
from clusterbandit.policies import POLICY_KEYS, make_policy
from clusterbandit.simulate import simulate

TINY_SD_SPEC = {
    "kind": "strong_dominance",
    "n_arms": 12,
    "n_suboptimal_clusters": 2,
    "optimal_cluster_size": 3,
    "optimal_width": 0.1,
    "separation": 0.1,
}

TINY_CTX_SPEC = {"kind": "contextual", "n_arms": 9, "n_clusters": 3, "dim": 4, "epsilon": 0.5}


# A good spec of every generated kind, and for each field a value out of its range
GOOD_SPECS = {
    "strong_dominance": TINY_SD_SPEC,
    "sorted_tree": {"kind": "sorted_tree", "n_arms": 8, "levels": 1},
    "kmeans": {"kind": "kmeans", "n_arms": 20, "n_clusters": 3, "reward_fn": "sin-product"},
    "kmeans_tree": {"kind": "kmeans_tree", "n_arms": 20, "branching": 3, "depth": 2, "reward_fn": "sin-product"},
    "agglomerative": {"kind": "agglomerative", "n_arms": 12, "reward_fn": "bump-2d", "linkage": "average"},
    "uniform": {"kind": "uniform", "n_arms": 12, "n_clusters": 3},
    "contextual": TINY_CTX_SPEC,
}
OUT_OF_RANGE = {
    "strong_dominance": {"n_arms": 4, "n_suboptimal_clusters": 0, "optimal_cluster_size": 1,
                         "optimal_width": 1.0, "separation": 0.0},
    "sorted_tree": {"n_arms": 1, "levels": -1},
    "kmeans": {"n_arms": 2, "n_clusters": 50, "reward_fn": "sin"},
    "kmeans_tree": {"n_arms": 0, "branching": 1, "depth": 0, "reward_fn": "sin"},
    "agglomerative": {"n_arms": 1, "reward_fn": "sin", "linkage": "nearest"},
    "uniform": {"n_arms": 2, "n_clusters": 0},
    "contextual": {"n_arms": 2, "n_clusters": 0, "dim": 0, "epsilon": -0.5},
}
WRONG_TYPES = {int: [True, 2.5, "3"], float: [True, "3"], str: [True, 3]}
POLICY_FOR = {"clustering": "tsc", "tree": "hts", "contextual": "lints"}


def _field_type(kind, field):
    schema = SPEC_KINDS[kind]
    return schema.required[field] if field in schema.required else schema.optional[field][0]


BAD_SPEC_CASES = [
    (kind, field, bad)
    for kind, fields in OUT_OF_RANGE.items()
    for field, out_of_range in fields.items()
    for bad in [*WRONG_TYPES[_field_type(kind, field)], out_of_range]
]


def _bad_spec_doc(kind, field, bad):
    """A config with a good variant 'a' and variant 'b' whose ``field`` is ``bad``."""
    good = GOOD_SPECS[kind]
    return {
        "name": "tiny",
        "horizon": 40,
        "seeds": [1, 2, 3],
        "policies": [{"key": POLICY_FOR[SPEC_KINDS[kind].structure]}],
        "instances": [{"name": "a", "spec": good}, {"name": "b", "spec": {**good, field: bad}}],
    }


def _tiny_config(**overrides):
    doc = {
        "name": "tiny",
        "horizon": 40,
        "seeds": [1, 2, 3],
        "policies": [{"key": "ts"}, {"key": "tsc"}],
        "instance": TINY_SD_SPEC,
    }
    if "instances" in overrides:  # the variants replace the one instance
        del doc["instance"]
    doc.update(overrides)
    return ExperimentConfig.from_json(doc)


def _variants(entries):
    """A config document edit that replaces the document's one ``instance`` with the variants ``entries``."""
    def edit(doc):
        del doc["instance"]
        doc["instances"] = entries
    return edit


def _built_directly(**fields):
    """``_tiny_config``'s twin built in Python: the dataclasses made directly, with ``fields`` in place of its own."""
    return ExperimentConfig(**{"name": "tiny", "horizon": 40, "seeds": (1, 2, 3),
                               "policies": (PolicySpec("ts"), PolicySpec("tsc")),
                               "variants": (InstanceVariant("default", TINY_SD_SPEC),), **fields})


class TestLoggingGrid:
    def test_stride_one_by_default_at_small_horizons(self):
        assert logging_grid(10).tolist() == list(range(1, 11))

    def test_coarse_default_beyond_full_resolution_limit(self):
        grid = logging_grid(20_001)
        assert grid[0] == 10 and grid[-1] == 20_001
        assert grid[1] - grid[0] == 10

    def test_explicit_stride_includes_final_step(self):
        assert logging_grid(25, 10).tolist() == [10, 20, 25]

    def test_stride_larger_than_horizon(self):
        assert logging_grid(5, 100).tolist() == [5]


class TestConfigValidation:
    def test_empty_policy_list(self):
        with pytest.raises(ConfigError, match="policies"):
            _tiny_config(policies=[])

    def test_bad_horizon(self):
        with pytest.raises(ConfigError, match="horizon"):
            _tiny_config(horizon=0)

    def test_unknown_policy_key(self):
        with pytest.raises(ConfigError, match="unknown policy key"):
            _tiny_config(policies=[{"key": "mystery"}])

    def test_missing_seeds(self):
        with pytest.raises(ConfigError, match="seeds"):
            ExperimentConfig.from_json(
                {"name": "x", "horizon": 10, "policies": [{"key": "ts"}], "instance": TINY_SD_SPEC}
            )

    def test_seed_range_form(self):
        config = _tiny_config(seeds={"base": 10, "count": 4})
        assert config.seeds == (10, 11, 12, 13)

    def test_duplicate_policy_labels(self):
        with pytest.raises(ConfigError, match="duplicate"):
            _tiny_config(policies=[{"key": "ts"}, {"key": "ts"}])

    def test_policy_params_are_stored_as_read_so_equal_values_share_one_label(self):
        doc = {"name": "ctx", "horizon": 5, "seeds": [0], "instance": TINY_CTX_SPEC,
               "policies": [{"key": "lints", "params": {"v": 1}}, {"key": "linucb", "params": {"alpha": 2}}]}
        config = ExperimentConfig.from_json(doc)
        assert [p.name for p in config.policies] == ["lints(v=1.0)", "linucb(alpha=2.0)"]
        written = [p["params"] for p in config.to_json()["policies"]]
        assert written == [{"v": 1.0}, {"alpha": 2.0}] and all(type(v) is float for d in written for v in d.values())
        doc["policies"] = [{"key": "lints", "params": {"v": 1}}, {"key": "lints", "params": {"v": 1.0}}]
        with pytest.raises(ConfigError, match="^policies: duplicate policy labels"):
            ExperimentConfig.from_json(doc)  # one policy listed twice
        # the same policies built in Python: 'lints(v=1)' and 'lints(v=1.0)' used to run one policy twice
        variants = (InstanceVariant("ctx", TINY_CTX_SPEC),)
        config = _built_directly(variants=variants, policies=(PolicySpec("lints", {"v": 1}),))
        assert config.policies[0].name == "lints(v=1.0)" and type(config.policies[0].params["v"]) is float
        with pytest.raises(ConfigError, match="^policies: duplicate policy labels"):
            _built_directly(variants=variants,
                            policies=(PolicySpec("lints", {"v": 1}), PolicySpec("lints", {"v": 1.0})))

    def test_numpy_integers_in_a_config_built_directly(self, tmp_path):
        # seeds are stored as ints, which JSON writes; a spec JSON cannot write is rejected when the config is made
        config = dataclasses.replace(_tiny_config(horizon=5), seeds=(np.int64(4), np.int32(2)))
        assert config.seeds == (4, 2) and all(type(s) is int for s in config.seeds)
        (path,) = export_result(run_experiment(config), tmp_path, ["json"])
        assert json.loads(path.read_text())["config"]["seeds"] == [4, 2]
        variant = harness.InstanceVariant("np-arms", {**TINY_SD_SPEC, "n_arms": np.int64(12)})
        with pytest.raises(ConfigError, match="^instances: variant 'np-arms' spec: .*int64"):
            dataclasses.replace(config, variants=(variant,))

    @pytest.mark.parametrize("horizon", [5.0, np.int64(5)])
    def test_a_config_built_with_numpy_scalars_and_list_filters_reads_like_its_json(self, tmp_path, horizon):
        # horizon=5.0 used to fail inside the job, np.int64(5) at the JSON export after every job
        config = ExperimentConfig(
            name="np", horizon=horizon, seeds=[np.int32(3), np.int64(1)], stride=np.int64(2), eps=np.float32(0.25),
            policies=[PolicySpec("ts", variants=["a"]), PolicySpec("tsc", variants=["a", "b"], label="c")],
            variants=[InstanceVariant("a", TINY_SD_SPEC), InstanceVariant("b", TINY_SD_SPEC)],
        )
        assert (config.horizon, config.seeds, config.stride, config.eps) == (5, (3, 1), 2, 0.25)
        assert {type(v) for v in (config.horizon, *config.seeds, config.stride)} == {int} and type(config.eps) is float
        assert isinstance(config.policies, tuple) and isinstance(config.variants, tuple)
        assert [p.variants for p in config.policies] == [("a",), ("a", "b")]
        assert ExperimentConfig.from_json(config.to_json()) == config
        (path,) = export_result(run_experiment(config), tmp_path, ["json"])
        assert json.loads(path.read_text())["config"] == config.to_json()

    def test_a_config_keeps_its_own_copy_of_each_spec_params_and_filter(self):
        spec, params, names = dict(TINY_CTX_SPEC), {"v": 1.0}, ["ctx"]
        document = {"kind": "bernoulli", "means": [0.1, 0.2], "clustering": {"labels": [0, 1]}}
        config = _built_directly(
            variants=(InstanceVariant("ctx", spec), InstanceVariant("doc", document)),
            policies=(PolicySpec("lints", params, names), PolicySpec("ts", variants=("doc",))),
        )
        before = config.to_json()
        spec["n_arms"], params["v"] = 2, -1.0
        names.append("doc")
        document["means"][0], document["clustering"]["labels"][1] = 0.9, 0
        assert config.to_json() == before
        assert config.variants[0].spec == TINY_CTX_SPEC and config.policies[0].params == {"v": 1.0}

    def test_duplicate_labels_resolved_by_params_or_label(self):
        config = _tiny_config(
            policies=[{"key": "ts", "label": "ts-a"}, {"key": "ts", "label": "ts-b"}]
        )
        assert {p.name for p in config.policies} == {"ts-a", "ts-b"}

    def test_config_json_roundtrip(self):
        config = _tiny_config()
        assert ExperimentConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("key, params", [("lints", {"v": -1}), ("linucbc", {"alpha": float("nan")})])
    def test_bad_contextual_hyperparameter_names_policy_and_field(self, key, params):
        doc = {
            "name": "ctx",
            "horizon": 5,
            "seeds": [0],
            "policies": [{"key": key, "params": params, "label": "bad-policy"}],
            "instances": [
                {"name": "ctx-variant", "spec": {"kind": "contextual", "n_arms": 6, "n_clusters": 2, "dim": 3, "epsilon": 0.5}}
            ],
        }
        with pytest.raises(ConfigError, match="^policies: 'bad-policy': ") as err:
            run_experiment(ExperimentConfig.from_json(doc))
        assert next(iter(params)) + ": " in str(err.value)

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda doc: doc.update(seeds=[]), "^seeds: need at least one seed$"),
            (lambda doc: doc.update(seeds={"base": 3, "count": 0}), r"^seeds\.count: must be >= 1$"),
            (_variants([]), "^instances: need at least one instance spec$"),
            (lambda doc: doc.pop("instance"), r"^instances: missing \('instance' or 'instances'\)$"),
            (lambda doc: doc.update(stride=0), "^stride: must be >= 1, got 0$"),
            (_variants([{"name": "a", "spec": TINY_SD_SPEC}] * 2), "^instances: duplicate variant names$"),
            # both were read as the variants alone, the one instance dropped without a word
            (lambda doc: doc.update(instances=[{"name": "a", "spec": TINY_SD_SPEC}]),
             r"^instances: give 'instance' or 'instances', not both$"),
            (lambda doc: doc.update(policies=[{"key": "ts"}, {"label": "tsc"}]), "^policies: entry missing 'key'$"),
            # each of these typos was dropped, and the config ran without bounds, stride or label
            (lambda doc: doc.update(bound=True), r"^config: unknown keys \['bound'\]; known keys: name, horizon, "),
            (lambda doc: doc.update(strid=2, bound=True), r"^config: unknown keys \['strid', 'bound'\]; "),
            (lambda doc: doc.update(policies=[{"key": "ts"}, {"key": "tsc", "lable": "x"}]),
             r"^policies\[1\]: unknown keys \['lable'\]; known keys: key, params, variants, label$"),
            (_variants([{"name": "a", "spec": TINY_SD_SPEC, "nmae": "b"}]),
             r"^instances\[0\]: unknown keys \['nmae'\]; known keys: name, spec$"),
            (lambda doc: doc.update(seeds={"base": 3, "cuont": 2}), r"^seeds: unknown keys \['cuont'\]; "),
        ],
        ids=["no-seeds", "seed-count-0", "no-instances", "no-instance-field", "stride-0", "duplicate-variants",
             "instance-and-instances", "policy-without-key", "unknown-key", "unknown-keys", "unknown-policy-key", "unknown-variant-key",
             "unknown-seeds-key"],
    )
    def test_config_shape_errors_name_their_field(self, edit, match):
        doc = {"name": "tiny", "horizon": 40, "seeds": [1, 2, 3], "policies": [{"key": "ts"}], "instance": TINY_SD_SPEC}
        edit(doc)
        with pytest.raises(ConfigError, match=match):
            ExperimentConfig.from_json(doc)

    @pytest.mark.parametrize("names", [("w=0.1", "w-0.1"), ("a b", "a/b"), ("x", "y", "c:d", "c?d")])
    def test_variant_names_sharing_a_file_name_rejected(self, names):
        variants = [{"name": name, "spec": TINY_SD_SPEC} for name in names]
        first, second = names[-2:]
        with pytest.raises(ConfigError, match=rf"^instances: variants '{re.escape(first)}' and '{re.escape(second)}' "):
            _tiny_config(instances=variants)

    def test_duplicate_seeds_rejected(self):
        # a repeated seed would run twice and count twice in n_seeds
        with pytest.raises(ConfigError, match=r"seeds: duplicate seeds \[1\]"):
            _tiny_config(seeds=[1, 2, 1])

    @pytest.mark.parametrize("variants", [["typo"], [], ["a", "typo"]])
    def test_variant_filter_must_name_config_variants(self, variants):
        # a filter naming no variant would drop the policy from the run silently
        with pytest.raises(ConfigError, match=r"policies: 'tsc' variants filter .* must name variants"):
            _tiny_config(
                policies=[{"key": "ts"}, {"key": "tsc", "variants": variants}],
                instances=[{"name": "a", "spec": TINY_SD_SPEC}, {"name": "b", "spec": TINY_SD_SPEC}],
            )

    @pytest.mark.parametrize("eps", [0.0, -0.1, float("nan"), float("inf")])
    def test_eps_must_be_finite_and_positive(self, eps):
        # checked when the config is made, before any job runs, bounds or not
        with pytest.raises(ConfigError, match="eps: must be finite and > 0"):
            _tiny_config(eps=eps)
        with pytest.raises(ConfigError, match="eps: "):
            _tiny_config(eps=eps, bounds=True)

    def test_contextual_spec_horizon_is_an_unknown_field(self):
        # the run's horizon is the config's; a spec-level one was never read
        with pytest.raises(ConfigError, match=r"variant 'default' .*unknown fields \['horizon'\]"):
            _tiny_config(instance={**TINY_CTX_SPEC, "horizon": 2000}, policies=[{"key": "lints"}])

    @staticmethod
    def _count_jobs(monkeypatch):
        jobs = []
        run_job = harness._run_job
        monkeypatch.setattr(harness, "_run_job", lambda payload: jobs.append(payload) or run_job(payload))
        return jobs

    @pytest.mark.parametrize(
        "spec, match",
        [
            ({**TINY_SD_SPEC, "kind": "kmean"}, r"variant 'b' spec: unknown instance kind 'kmean'"),
            ({k: v for k, v in TINY_SD_SPEC.items() if k != "separation"},
             r"variant 'b' spec: .*missing fields \['separation'\]"),
            ({**TINY_SD_SPEC, "n_clusters": 3}, r"variant 'b' spec: .*unknown fields \['n_clusters'\]"),
            ({"n_arms": 4}, r"variant 'b' spec: .*missing the 'kind' field"),
        ],
    )
    def test_bad_spec_in_a_later_variant_fails_before_any_job(self, monkeypatch, spec, match):
        jobs = self._count_jobs(monkeypatch)
        doc = {"instances": [{"name": "a", "spec": TINY_SD_SPEC}, {"name": "b", "spec": spec}]}
        with pytest.raises(ConfigError, match="instances: " + match):
            run_experiment(_tiny_config(**doc))
        assert jobs == []

    def test_bad_spec_cases_cover_every_field_of_every_kind(self):
        assert set(GOOD_SPECS) == set(OUT_OF_RANGE) == set(SPEC_KINDS)
        for kind, schema in SPEC_KINDS.items():
            assert set(OUT_OF_RANGE[kind]) == {*schema.required, *schema.optional}
            good = _tiny_config(policies=[{"key": POLICY_FOR[schema.structure]}], instance=GOOD_SPECS[kind], seeds=[1])
            assert run_experiment(good).rows

    @pytest.mark.parametrize("kind, field, bad", BAD_SPEC_CASES, ids=[f"{k}-{f}-{b!r}" for k, f, b in BAD_SPEC_CASES])
    def test_bad_spec_fields_fail_before_any_job(self, monkeypatch, kind, field, bad):
        # each of these used to run the 3 jobs of variant 'a' first, or to run with a truncated or coerced value
        jobs = self._count_jobs(monkeypatch)
        with pytest.raises(ConfigError, match=rf"^instances: variant 'b' spec: (.* )?{field}\b"):
            run_experiment(ExperimentConfig.from_json(_bad_spec_doc(kind, field, bad)))
        assert jobs == []

    def test_spec_fields_are_typed_and_take_their_defaults(self):
        assert spec_fields({**TINY_CTX_SPEC, "n_arms": 9.0, "epsilon": 1}) == {
            "n_arms": 9, "n_clusters": 3, "dim": 4, "epsilon": 1.0}
        no_dim = {k: v for k, v in TINY_CTX_SPEC.items() if k != "dim"}
        assert spec_fields(no_dim)["dim"] == spec_fields({**no_dim, "dim": None})["dim"] == 5
        assert spec_fields({"kind": "agglomerative", "n_arms": 4, "reward_fn": "bump-2d"})["linkage"] == "single"
        assert spec_fields({"kind": "sorted_tree", "n_arms": 4})["levels"] is None
        assert spec_fields({"kind": "bernoulli", "means": [0.5, 0.25]}) is None
        # the spec is echoed into the results as given
        config = _tiny_config(instance={**TINY_SD_SPEC, "n_arms": 12.0})
        assert config.to_json()["instances"][0]["spec"]["n_arms"] == 12.0

    def test_config_checks_import_no_scipy_and_build_nothing(self):
        # setup_s times the config parse: it must not pay for scipy's import or for any build
        script = textwrap.dedent("""
            import json, sys
            from clusterbandit import harness, instances

            def no_build(spec, rng):
                raise AssertionError("build_instance called while a config was made")

            instances.build_instance = harness.build_instance = no_build
            presets = [harness.preset(name) for name in harness.preset_names()]
            for doc in json.load(sys.stdin):
                try:
                    harness.ExperimentConfig.from_json(doc)
                except harness.ConfigError:
                    pass
            print(len(presets), "scipy" in sys.modules)
        """)
        src = str(Path(harness.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        docs = json.dumps([_bad_spec_doc(*case) for case in BAD_SPEC_CASES])
        out = subprocess.run([sys.executable, "-c", script], input=docs, capture_output=True, text=True, env=env)
        assert out.returncode == 0, out.stderr
        assert out.stdout.split() == [str(len(preset_names())), "False"]

    @pytest.mark.parametrize(
        "overrides, field, bad, kind",
        [
            ({"eps": True}, "eps", True, "number"),
            ({"eps": "0.2"}, "eps", "0.2", "number"),
            ({"policies": [{"key": "lints", "params": {"v": True}}]}, "policies[0].params.v", True, "number"),
            ({"policies": [{"key": "lints", "params": {"v": "1"}}]}, "policies[0].params.v", "1", "number"),
            ({"policies": [{"key": "lints"}, {"key": "linucb", "params": {"alpha": "2"}}]},
             "policies[1].params.alpha", "2", "number"),
            ({"policies": [{"key": "linucbc", "params": {"alpha": False}}]},
             "policies[0].params.alpha", False, "number"),
        ],
    )
    def test_typed_numbers_and_params_fail_before_any_job(self, monkeypatch, overrides, field, bad, kind):
        # "eps": true ran with eps = 1.0, "eps": "0.2" with 0.2, and {"v": true} as 'lints(v=True)'
        jobs = self._count_jobs(monkeypatch)
        article = "an" if kind == "integer" else "a"
        match = rf"^{re.escape(field)}: must be {article} {kind}, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=match):
            run_experiment(_tiny_config(**{"instance": TINY_CTX_SPEC, **overrides}))
        assert jobs == []
        # the same values given to the policy registry directly
        for name, value in overrides.get("policies", [{}])[-1].get("params", {}).items():
            with pytest.raises(ValueError, match=rf"^{name}: must be {article} {kind}"):
                make_policy(overrides["policies"][-1]["key"], build_instance(TINY_CTX_SPEC, rng_streams(0).instance),
                            {name: value})

    @pytest.mark.parametrize(
        "fields, field, bad",
        [
            ({"eps": True}, "eps", True),
            ({"eps": "0.2"}, "eps", "0.2"),
            ({"eps": "x"}, "eps", "x"),
            ({"policies": (PolicySpec("lints", {"v": True}),)}, "policies[0].params.v", True),
            ({"policies": (PolicySpec("lints", {"v": "1"}),)}, "policies[0].params.v", "1"),
            ({"policies": (PolicySpec("lints"), PolicySpec("linucb", {"alpha": "2"}))},
             "policies[1].params.alpha", "2"),
            ({"policies": (PolicySpec("linucbc", {"alpha": False}),)}, "policies[0].params.alpha", False),
        ],
    )
    def test_typed_numbers_and_params_fail_before_any_job_in_a_config_built_directly(
        self, monkeypatch, fields, field, bad
    ):
        # eps="x" raised a bare TypeError, and {"v": True} failed as 'lints(v=True)', not as the field of its entry
        jobs = self._count_jobs(monkeypatch)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: must be a number, got {re.escape(repr(bad))}$"):
            run_experiment(_built_directly(**{"variants": (InstanceVariant("ctx", TINY_CTX_SPEC),),
                                              "policies": (PolicySpec("lints"),), **fields}))
        assert jobs == []

    @pytest.mark.parametrize(
        "overrides, match",
        [
            ({"policies": [{"key": "ts"}, {"key": "tsc", "variants": "ab"}]},
             r"^policies\[1\]\.variants: must be a list, got 'ab'$"),
            ({"policies": [{"key": "ts"}, {"key": "tsc", "variants": ["a", 2]}]},
             r"^policies\[1\]\.variants\[1\]: must be a string, got 2$"),
            ({"policies": [{"key": "ts"}, {"key": "tsc", "params": None}]},
             r"^policies\[1\]\.params: must be an object, got None$"),
            ({"policies": [{"key": "ts"}, "tsc"]}, r"^policies\[1\]: must be an object, got 'tsc'$"),
            ({"instances": [{"name": "a", "spec": TINY_SD_SPEC}, {"name": "b", "spec": "kmeans"}]},
             r"^instances\[1\]\.spec: must be an object, got 'kmeans'$"),
            ({"instance": "kmeans"}, r"^instance: must be an object, got 'kmeans'$"),
            ({"instances": {"a": TINY_SD_SPEC}}, r"^instances: must be a list, got \{"),
            ({"policies": {"key": "ts"}}, r"^policies: must be a list, got \{"),
        ],
        ids=["variants-string", "variants-element", "params-null", "policy-string", "spec-string",
             "instance-string", "instances-object", "policies-object"],
    )
    def test_container_fields_name_themselves(self, monkeypatch, overrides, match):
        # "variants": "ab" was split into ['a', 'b'], and a null params or a string spec failed with Python's own text
        jobs = self._count_jobs(monkeypatch)
        doc = {"instances": [{"name": "a", "spec": TINY_SD_SPEC}, {"name": "b", "spec": TINY_SD_SPEC}], **overrides}
        if "instance" in overrides:
            del doc["instances"]
        with pytest.raises(ConfigError, match=match):
            run_experiment(_tiny_config(**doc))
        assert jobs == []

    @pytest.mark.parametrize(
        "fields, match",
        [
            ({"policies": (PolicySpec("ts"), PolicySpec("tsc", variants="ab"))},
             r"^policies\[1\]\.variants: must be a list, got 'ab'$"),
            ({"policies": (PolicySpec("ts"), PolicySpec("tsc", variants=("a", 2)))},
             r"^policies\[1\]\.variants\[1\]: must be a string, got 2$"),
            ({"policies": (PolicySpec("ts"), PolicySpec("tsc", None))},
             r"^policies\[1\]\.params: must be an object, got None$"),
            ({"variants": (InstanceVariant("a", TINY_SD_SPEC), InstanceVariant("b", "kmeans"))},
             r"^instances\[1\]\.spec: must be an object, got 'kmeans'$"),
            ({"variants": {"a": TINY_SD_SPEC}}, r"^instances: must be a list, got \{"),
            ({"policies": {"key": "ts"}}, r"^policies: must be a list, got \{"),
            ({"policies": PolicySpec("ts")}, r"^policies: must be a list, got PolicySpec\("),
            ({"seeds": 5}, r"^seeds: must be a list, got 5$"),
            # these failed with a bare AttributeError: 'dict' object has no attribute 'key' (or 'name')
            ({"policies": (PolicySpec("ts"), {"key": "tsc"})},
             r"^policies\[1\]: must be a PolicySpec, got \{'key': 'tsc'\}$"),
            ({"variants": (InstanceVariant("a", TINY_SD_SPEC), {"name": "b", "spec": TINY_SD_SPEC})},
             r"^instances\[1\]: must be an InstanceVariant, got \{'name': 'b', "),
        ],
        ids=["variants-string", "variants-element", "params-null", "spec-string", "instances-object",
             "policies-object", "policies-one-spec", "seeds-number", "policy-dict", "variant-dict"],
    )
    def test_container_fields_name_themselves_in_a_config_built_directly(self, monkeypatch, fields, match):
        # variants="ab" was read as ['a', 'b'] by the filter check and as a substring by runs_on
        jobs = self._count_jobs(monkeypatch)
        variants = (InstanceVariant("a", TINY_SD_SPEC), InstanceVariant("b", TINY_SD_SPEC))
        with pytest.raises(ConfigError, match=match):
            run_experiment(_built_directly(**{"variants": variants, **fields}))
        assert jobs == []

    @pytest.mark.parametrize(
        "key, spec, match",
        [
            ("hts", {"kind": "kmeans", "n_arms": 20, "n_clusters": 3, "reward_fn": "sin-product"},
             r"'hts' needs a tree instance but variant 'b' \(kind 'kmeans'\) builds a clustering instance"),
            ("uct", {"kind": "bernoulli", "means": [0.1, 0.2], "clustering": {"labels": [0, 1]}},
             r"'uct' needs a tree instance but variant 'b' \(kind 'bernoulli'\) builds a clustering"),
            ("tsc", {"kind": "sorted_tree", "n_arms": 8},
             r"'tsc' needs a clustering instance but variant 'b' \(kind 'sorted_tree'\) builds a tree"),
            ("ucbc", {"kind": "bernoulli", "means": [0.1, 0.2]},
             r"'ucbc' needs a clustering instance but .* builds a flat instance"),
            ("tsmax", {"kind": "bernoulli", "means": [0.1, 0.2], "clustering": None},
             r"'tsmax' needs a clustering instance but .* builds a flat instance"),
            ("lints", TINY_SD_SPEC, r"'lints' needs a contextual instance but variant 'b'"),
            ("ts", TINY_CTX_SPEC, r"'ts' needs a bernoulli instance but variant 'b' \(kind 'contextual'\)"),
        ],
    )
    def test_structure_need_fails_before_any_job(self, monkeypatch, key, spec, match):
        jobs = self._count_jobs(monkeypatch)
        doc = {
            "policies": [{"key": "ucb1", "variants": ["a"]}, {"key": key, "variants": ["b"]}],
            "instances": [{"name": "a", "spec": TINY_SD_SPEC}, {"name": "b", "spec": spec}],
        }
        with pytest.raises(ConfigError, match="policies: " + match):
            run_experiment(_tiny_config(**doc))
        assert jobs == []

    @pytest.mark.parametrize(
        "key, params, match",
        [
            ("tsc", {"x": 1}, r": 'tsc\(x=1\)': policy 'tsc' does not accept parameters \['x'\]$"),
            ("linucb", {"v": 1.0}, r": 'linucb\(v=1.0\)': .*does not accept parameters \['v'\]$"),
            ("linucb", {"alpha": -1}, r": 'linucb\(alpha=-1\.0\)': alpha: .*>= 0, got -1"),
            ("lints", {"v": 0}, r": 'lints\(v=0\.0\)': v: .*> 0, got 0"),
            # the dimension comes from the instance: d is no parameter, whatever its value or type
            ("lints", {"d": 7}, r": 'lints\(d=7\)': policy 'lints' does not accept parameters \['d'\]$"),
            ("lints", {"d": 5}, r": 'lints\(d=5\)': policy 'lints' does not accept parameters \['d'\]$"),
            ("lints", {"d": 5.5}, r": 'lints\(d=5\.5\)': policy 'lints' does not accept parameters \['d'\]$"),
            ("lintsc", {"d": True}, r": 'lintsc\(d=True\)': policy 'lintsc' does not accept parameters \['d'\]$"),
            ("linucbc", {"d": "4"}, r": 'linucbc\(d=4\)': policy 'linucbc' does not accept parameters \['d'\]$"),
        ],
        ids=["tsc-x", "linucb-v", "linucb-alpha", "lints-v", "lints-d", "lints-own-d", "lints-fractional-d",
             "lintsc-bool-d", "linucbc-string-d"],
    )
    def test_bad_policy_params_fail_before_any_job(self, monkeypatch, key, params, match):
        # each of these used to run every job of variant 'a' before failing
        jobs = self._count_jobs(monkeypatch)
        ctx = {k: v for k, v in TINY_CTX_SPEC.items() if k != "dim"}  # the default dimension, 5
        spec = TINY_SD_SPEC if key == "tsc" else ctx
        doc = {
            "policies": [{"key": "ucb1" if key == "tsc" else "lints", "variants": ["a"]},
                         {"key": key, "params": params, "variants": ["b"]}],
            "instances": [{"name": "a", "spec": spec}, {"name": "b", "spec": spec}],
        }
        with pytest.raises(ConfigError, match="^policies" + match):
            run_experiment(_tiny_config(**doc))
        assert jobs == []

    def test_serialized_contextual_dimension_fails_before_any_job(self, monkeypatch):
        # a serialized spec's dimension is its theta's width, which the policy reads from the instance
        jobs = self._count_jobs(monkeypatch)
        spec = instance_to_json(build_instance(TINY_CTX_SPEC, rng_streams(0).instance))
        for d in (5, 4):  # another width and the spec's own: d is no parameter
            doc = {
                "policies": [{"key": "lints", "params": {"d": d}}],
                "instances": [{"name": "a", "spec": {**TINY_CTX_SPEC, "dim": 5}}, {"name": "b", "spec": spec}],
            }
            with pytest.raises(ConfigError, match=rf"^policies: 'lints\(d={d}\)': policy 'lints' does not accept parameters \['d'\]$"):
                run_experiment(_tiny_config(**doc))
        assert jobs == []
        assert run_experiment(_tiny_config(policies=[{"key": "lints"}], instance=spec)).rows

    @pytest.mark.parametrize(
        "edit, match",
        [
            (lambda spec: {**spec, "bogus": 1}, r"has unknown fields \['bogus'\]"),
            (lambda spec: {k: v for k, v in spec.items() if k != "labels"}, r"is missing fields \['labels'\]"),
        ],
        ids=["unknown-field", "missing-labels"],
    )
    def test_serialized_contextual_spec_fields_fail_before_any_job(self, monkeypatch, edit, match):
        # a serialized spec used to skip the field check and fail only when variant 'b' was built
        jobs = self._count_jobs(monkeypatch)
        spec = instance_to_json(build_instance(TINY_CTX_SPEC, rng_streams(0).instance))
        doc = {
            "policies": [{"key": "lints"}],
            "instances": [{"name": "a", "spec": TINY_CTX_SPEC}, {"name": "b", "spec": edit(spec)}],
        }
        with pytest.raises(ConfigError, match=r"^instances: variant 'b' spec: instance spec 'contextual' " + match):
            run_experiment(_tiny_config(**doc))
        assert jobs == []
        # what instance_to_json writes, without its optional epsilon, and with generate's meta, all run
        no_epsilon = {k: v for k, v in spec.items() if k != "epsilon"}
        for ok in (spec, no_epsilon, {**spec, "meta": {"spec": TINY_CTX_SPEC, "seed": 0}}):
            assert run_experiment(_tiny_config(policies=[{"key": "lints"}], instance=ok)).rows

    @pytest.mark.parametrize(
        "bad, message",
        [
            ({"kind": "bernoulli", "means": [0.5, 0.2], "clustering": {}}, "clustering.labels: missing"),
            ({"kind": "bernoulli", "means": [0.5, 0.2], "tree": {"leaf_arms": [-1, 0, 1]}}, "tree.children: missing"),
            ({"kind": "bernoulli", "means": [0.5, 0.2], "clustering": {"labels": [0]}},
             "clustering size does not match arm count"),
            ({"kind": "contextual", "theta": [[0.1, 0.2], [0.3, 0.4]], "labels": [0, 1.5]},
             "labels[1]: must be an integer, got 1.5"),
        ],
        ids=["missing-labels", "missing-children", "short-labels", "fractional-label"],
    )
    def test_serialized_document_fails_when_the_config_is_made(self, monkeypatch, bad, message):
        # a document's nested fields used to be read only when its instance was built, so the jobs of
        # variant 'good' at both seeds ran before variant 'bad' failed
        jobs = self._count_jobs(monkeypatch)
        doc = {"seeds": [1, 2], "instances": [{"name": "good", "spec": TINY_SD_SPEC}, {"name": "bad", "spec": bad}]}
        with pytest.raises(ConfigError, match=rf"^instances: variant 'bad' spec: {re.escape(message)}$"):
            _tiny_config(**doc)
        assert jobs == []

    @pytest.mark.parametrize(
        "overrides, field, bad",
        [
            ({"seeds": [1.5]}, "seeds", 1.5),
            ({"seeds": [0, True]}, "seeds", True),
            ({"seeds": {"base": 0.5, "count": 2}}, "seeds.base", 0.5),
            ({"seeds": {"base": 0, "count": 2.5}}, "seeds.count", 2.5),
            ({"horizon": 2.9}, "horizon", 2.9),
            ({"horizon": True}, "horizon", True),
            ({"horizon": float("inf")}, "horizon", float("inf")),
            ({"stride": 1.5}, "stride", 1.5),
            ({"stride": True}, "stride", True),
        ],
    )
    def test_non_integral_numbers_fail_before_any_job(self, monkeypatch, overrides, field, bad):
        # each of these used to be truncated by int(): seed 1, 2 steps, every step, 1 step
        jobs = self._count_jobs(monkeypatch)
        match = rf"^{re.escape(field)}: must be an integer, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=match):
            run_experiment(_tiny_config(**overrides))
        assert jobs == []

    @pytest.mark.parametrize(
        "overrides, field, bad",
        [
            ({"bounds": "false"}, "bounds", "false"),
            ({"bounds": 1}, "bounds", 1),
            ({"bounds": None}, "bounds", None),
            ({"name": None}, "name", None),
            ({"name": 3}, "name", 3),
            ({"instances": [{"name": "a", "spec": TINY_SD_SPEC}, {"name": None, "spec": TINY_SD_SPEC}]},
             "instances[1].name", None),
            ({"policies": [{"key": "ts"}, {"key": "tsc", "label": 7}]}, "policies[1].label", 7),
        ],
    )
    def test_untyped_fields_fail_before_any_job(self, monkeypatch, overrides, field, bad):
        # "bounds": "false" used to run with bounds on, a null name to name the experiment or variant 'None'
        jobs = self._count_jobs(monkeypatch)
        kind = "boolean" if field == "bounds" else "string"
        match = rf"^{re.escape(field)}: must be a {kind}, got {re.escape(repr(bad))}$"
        with pytest.raises(ConfigError, match=match):
            run_experiment(_tiny_config(**overrides))
        assert jobs == []

    @pytest.mark.parametrize(
        "fields, field, bad",
        [
            ({"seeds": (1.5,)}, "seeds", 1.5),
            ({"seeds": [0, True]}, "seeds", True),
            ({"horizon": 2.9}, "horizon", 2.9),
            ({"horizon": True}, "horizon", True),
            ({"horizon": float("inf")}, "horizon", float("inf")),
            ({"horizon": "5"}, "horizon", "5"),
            ({"stride": 1.5}, "stride", 1.5),
            ({"stride": True}, "stride", True),
            ({"stride": np.float64(2.5)}, "stride", np.float64(2.5)),
        ],
    )
    def test_non_integral_numbers_fail_before_any_job_in_a_config_built_directly(self, monkeypatch, fields, field, bad):
        # a config built in Python was read for its seeds only: horizon=2.9 failed inside a job, "5" without a name
        jobs = self._count_jobs(monkeypatch)
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: must be an integer, got {re.escape(repr(bad))}$"):
            run_experiment(_built_directly(**fields))
        assert jobs == []

    @pytest.mark.parametrize(
        "fields, field, bad",
        [
            ({"bounds": "false"}, "bounds", "false"),
            ({"bounds": 1}, "bounds", 1),
            ({"bounds": None}, "bounds", None),
            ({"name": None}, "name", None),
            ({"name": 3}, "name", 3),
            ({"variants": (InstanceVariant("a", TINY_SD_SPEC), InstanceVariant(None, TINY_SD_SPEC))},
             "instances[1].name", None),
            ({"policies": (PolicySpec("ts"), PolicySpec("tsc", label=7))}, "policies[1].label", 7),
            ({"policies": (PolicySpec(3),)}, "policies[0].key", 3),
            ({"context_kind": None}, "context_kind", None),
        ],
    )
    def test_untyped_fields_fail_before_any_job_in_a_config_built_directly(self, monkeypatch, fields, field, bad):
        # bounds=1 was accepted, and name=3 and label=7 ran every job and failed in the export
        jobs = self._count_jobs(monkeypatch)
        kind = "boolean" if field == "bounds" else "string"
        with pytest.raises(ConfigError, match=rf"^{re.escape(field)}: must be a {kind}, got {re.escape(repr(bad))}$"):
            run_experiment(_built_directly(**fields))
        assert jobs == []

    def test_typed_fields_keep_their_values_and_defaults(self):
        config = _tiny_config(bounds=False, policies=[{"key": "ts", "label": "ts-a"}],
                              instances=[{"name": "a", "spec": TINY_SD_SPEC}, {"spec": TINY_SD_SPEC}])
        assert (config.name, config.bounds) == ("tiny", False)
        assert [v.name for v in config.variants] == ["a", "v1"] and config.policies[0].label == "ts-a"
        doc = config.to_json()
        del doc["name"], doc["bounds"]
        defaults = ExperimentConfig.from_json(doc)
        assert (defaults.name, defaults.bounds) == ("experiment", False)

    def test_integral_floats_are_integers(self):
        floats = _tiny_config(seeds=[1.0, 2.0], horizon=40.0, stride=2.0)
        assert floats == _tiny_config(seeds=[1, 2], horizon=40, stride=2)
        assert _tiny_config(seeds={"base": 3.0, "count": 2.0}).seeds == (3, 4)

    @pytest.mark.parametrize("seeds", [[3, -1], {"base": -1, "count": 2}])
    def test_negative_seeds_fail_before_any_job(self, monkeypatch, seeds):
        jobs = self._count_jobs(monkeypatch)
        with pytest.raises(ConfigError, match=r"^seeds: must be >= 0, got \[-1\]"):
            run_experiment(_tiny_config(seeds=seeds))
        assert jobs == []

    def test_bounds_need_a_horizon_of_two(self, monkeypatch):
        jobs = self._count_jobs(monkeypatch)
        with pytest.raises(ConfigError, match=r"^horizon: bounds need a horizon >= 2, got 1"):
            run_experiment(_tiny_config(horizon=1, bounds=True))
        assert jobs == []
        assert _tiny_config(horizon=1).horizon == 1  # without bounds one step is a run
        assert _tiny_config(horizon=2, bounds=True).bounds

    @pytest.mark.parametrize("workers", [0, -3])
    def test_workers_below_one_fail_before_any_job(self, monkeypatch, workers):
        jobs = self._count_jobs(monkeypatch)
        with pytest.raises(ConfigError, match="^workers: must be >= 1"):
            run_experiment(_tiny_config(), workers=workers)
        assert jobs == []

    def test_structure_needs_met_by_bernoulli_documents(self):
        tree = {"children": [[1, 2], [], []], "leaf_arms": [-1, 0, 1]}
        config = _tiny_config(
            policies=[{"key": "ts"}, {"key": "hts", "variants": ["tree"]}, {"key": "tsc", "variants": ["clustered"]}],
            instances=[
                {"name": "tree", "spec": {"kind": "bernoulli", "means": [0.1, 0.2], "tree": tree}},
                {"name": "clustered", "spec": {"kind": "bernoulli", "means": [0.1, 0.2], "clustering": {"labels": [0, 1]}}},
            ],
        )
        assert len(run_experiment(config).rows) == 4 * len(config.seeds)


class TestRunExperiment:
    def test_summary_mean_is_mean_of_finals(self):
        result = run_experiment(_tiny_config())
        for s in result.summaries:
            finals = result.final_regrets(s.variant, s.policy)
            assert s.summary.final_mean == pytest.approx(finals.mean(), rel=1e-12)
            assert len(finals) == 3

    def test_adding_policy_changes_no_other_traces(self):
        base = run_experiment(_tiny_config(policies=[{"key": "ts"}]))
        both = run_experiment(_tiny_config(policies=[{"key": "ts"}, {"key": "ucb1"}]))
        for row_a in base.rows:
            row_b = next(
                r for r in both.rows
                if r.policy == "ts" and r.seed == row_a.seed and r.variant == row_a.variant
            )
            assert np.array_equal(row_a.regret, row_b.regret)

    def test_parallel_equals_serial(self):
        serial = run_experiment(_tiny_config())
        parallel = run_experiment(_tiny_config(), workers=2)
        for a, b in zip(serial.rows, parallel.rows):
            assert (a.variant, a.policy, a.seed) == (b.variant, b.policy, b.seed)
            assert np.array_equal(a.regret, b.regret)

    def test_variant_filter(self):
        config = ExperimentConfig.from_json(
            {
                "name": "filtered",
                "horizon": 20,
                "seeds": [1],
                "policies": [
                    {"key": "ts", "variants": ["a"]},
                    {"key": "tsc", "variants": ["a", "b"]},
                ],
                "instances": [
                    {"name": "a", "spec": TINY_SD_SPEC},
                    {"name": "b", "spec": TINY_SD_SPEC},
                ],
            }
        )
        result = run_experiment(config)
        combos = {(r.variant, r.policy) for r in result.rows}
        assert combos == {("a", "ts"), ("a", "tsc"), ("b", "tsc")}

    def test_contextual_through_harness(self):
        config = ExperimentConfig.from_json(
            {
                "name": "ctx",
                "horizon": 30,
                "seeds": [1, 2],
                "policies": [{"key": "lints"}, {"key": "lintsc"}],
                "instance": {
                    "kind": "contextual",
                    "n_arms": 6,
                    "n_clusters": 2,
                    "dim": 3,
                    "epsilon": 0.2,
                },
            }
        )
        result = run_experiment(config)
        assert len(result.rows) == 4
        assert all(np.all(np.diff(r.regret) >= -1e-12) for r in result.rows)

    def test_policy_instance_kind_mismatch(self):
        with pytest.raises(ConfigError, match="contextual"):
            run_experiment(_tiny_config(policies=[{"key": "lints"}]))

    def test_selectable_context_distribution(self):
        doc = {
            "name": "ctx-kind",
            "horizon": 20,
            "seeds": [1],
            "policies": [{"key": "lints"}],
            "context_kind": "gaussian",
            "instance": {"kind": "contextual", "n_arms": 4, "n_clusters": 2, "dim": 3, "epsilon": 0.2},
        }
        uniform = run_experiment(ExperimentConfig.from_json({**doc, "context_kind": "uniform"}))
        gaussian = run_experiment(ExperimentConfig.from_json(doc))
        assert not np.array_equal(
            uniform.rows[0].regret, gaussian.rows[0].regret
        )  # different context law, same seed
        with pytest.raises(ConfigError, match="context_kind"):
            ExperimentConfig.from_json({**doc, "context_kind": "cauchy"})

    def test_the_config_and_the_generator_read_one_table_of_context_kinds(self, monkeypatch):
        for kind, draw in (("uniform", "random"), ("gaussian", "standard_normal")):  # the generator calls as they were
            assert gen_context(4, rng_streams(3).context, kind).tobytes() == \
                getattr(rng_streams(3).context, draw)(4).tobytes()
        monkeypatch.setitem(CONTEXT_KINDS, "exponential", "standard_exponential")
        assert gen_context(3, rng_streams(0).context, "exponential").tobytes() == \
            rng_streams(0).context.standard_exponential(3).tobytes()
        config = _tiny_config(context_kind="exponential", policies=[{"key": "lints"}], instance=TINY_CTX_SPEC)
        assert run_experiment(config).rows
        match = r"^context_kind: unknown distribution 'cauchy' \(uniform, gaussian, exponential\)$"
        with pytest.raises(ConfigError, match=match):
            _tiny_config(context_kind="cauchy", policies=[{"key": "lints"}], instance=TINY_CTX_SPEC)

    def test_tree_policy_on_clustered_instance_rejected(self):
        with pytest.raises(ConfigError, match="tree"):
            run_experiment(_tiny_config(policies=[{"key": "hts"}]))

    def test_top_counts_present_for_two_level_policies(self):
        result = run_experiment(_tiny_config())
        for row in result.rows:
            if row.policy == "tsc":
                assert row.top_counts is not None
                assert row.top_counts.sum() == 40
            else:
                assert row.top_counts is None

    def test_bounds_rows(self):
        result = run_experiment(_tiny_config(bounds=True))
        names = {b["bound"] for b in result.bounds}
        assert {"tsc_instance", "tsc_minimax", "lai_robbins_lower"} <= names
        for b in result.bounds:
            assert b["dominance_ok_fraction"] == 1.0


class TestTopCounts:
    HORIZON = 9  # fewer steps than flat clusters, so some are never played
    SPECS = {
        "flat": {"kind": "kmeans", "n_arms": 60, "n_clusters": 12, "reward_fn": "sin-product"},
        "tree": {"kind": "kmeans_tree", "n_arms": 60, "branching": 5, "depth": 2, "reward_fn": "sin-product"},
    }

    @classmethod
    def _result(cls):
        return run_experiment(
            ExperimentConfig.from_json(
                {
                    "name": "top",
                    "horizon": cls.HORIZON,
                    "seeds": [0, 1, 2, 3],
                    "policies": [
                        *({"key": k, "variants": ["flat"]} for k in ("tsc", "tsmax", "ucbc")),
                        *({"key": k, "variants": ["tree"]} for k in ("hts", "uct")),
                    ],
                    "instances": [{"name": n, "spec": spec} for n, spec in cls.SPECS.items()],
                }
            )
        )

    def test_fixed_length_and_sum_to_horizon(self):
        result = self._result()
        n_top = {
            "flat": build_instance(self.SPECS["flat"], rng_streams(0).instance).labels.max() + 1,
            "tree": build_instance(self.SPECS["tree"], rng_streams(0).instance).tree.children(0).size,
        }
        assert len(result.rows) == 5 * 4
        for row in result.rows:
            assert row.top_counts.shape == (n_top[row.variant],), (row.variant, row.policy, row.seed)
            assert row.top_counts.sum() == self.HORIZON

    def test_counts_plays_under_each_top_level_choice(self):
        result = self._result()
        for row in result.rows:
            streams = rng_streams(row.seed)
            instance = build_instance(self.SPECS[row.variant], streams.instance)
            trace = simulate(instance, make_policy(row.policy, instance), self.HORIZON, streams.simulation)
            if instance.labels is not None:  # the plays of each cluster, by the labels
                want = np.bincount(instance.labels[trace.arms], minlength=instance.labels.max() + 1).tolist()
            else:
                tree = instance.tree
                want = [int(np.isin(trace.arms, tree.arms_under(c)).sum()) for c in tree.children(0).tolist()]
            assert row.top_counts.tolist() == want, (row.variant, row.policy, row.seed)

    def test_one_arm_tree_counts_the_root(self):
        config = _tiny_config(
            horizon=7, policies=[{"key": "hts"}, {"key": "uct"}],
            instance={"kind": "kmeans_tree", "n_arms": 1, "branching": 2, "depth": 1, "reward_fn": "sin-product"},
        )
        for row in run_experiment(config).rows:
            assert row.top_counts.tolist() == [7]

    # per structure a non-flat key runs on: a kmeans clustering, an agglomerative tree with leaves at
    # several depths, a contextual clustering; and each with one arm
    PATH_SPECS = {
        "clustering": {"kind": "kmeans", "n_arms": 60, "n_clusters": 12, "reward_fn": "sin-product"},
        "tree": {"kind": "agglomerative", "n_arms": 40, "reward_fn": "bump-2d", "linkage": "average"},
        "contextual": TINY_CTX_SPEC,
    }
    ONE_ARM_SPECS = {
        "clustering": {"kind": "kmeans", "n_arms": 1, "n_clusters": 1, "reward_fn": "sin-product"},
        "tree": {"kind": "kmeans_tree", "n_arms": 1, "branching": 2, "depth": 1, "reward_fn": "sin-product"},
        "contextual": {**TINY_CTX_SPEC, "n_arms": 1, "n_clusters": 1},
    }

    @pytest.mark.parametrize("specs", [PATH_SPECS, ONE_ARM_SPECS], ids=["arms", "one-arm"])
    @pytest.mark.parametrize("key", sorted(POLICY_KEYS))
    def test_counts_the_root_child_on_each_played_arms_path(self, monkeypatch, key, specs):
        # per step, the root child on tree.path_to_root(tree.leaf_of_arm(arm)), or the root of a
        # one-leaf tree; flat policies keep no counts
        runs = []

        def traced(instance, policy, *args, **kwargs):
            runs.append((policy, simulate(instance, policy, *args, **kwargs)))
            return runs[-1][1]
        monkeypatch.setattr(harness, "simulate", traced)
        needs = POLICY_KEYS[key].needs
        spec = specs["clustering" if needs == "bernoulli" else needs]
        doc = {"name": "paths", "horizon": 60, "seeds": [0, 1], "policies": [{"key": key}], "instance": spec}
        rows = run_experiment(ExperimentConfig.from_json(doc)).rows
        assert [row.seed for row in rows] == [0, 1] and len(runs) == 2
        for row, (policy, trace) in zip(rows, runs):
            if policy.flat:
                assert row.top_counts is None
                continue
            tree = policy.tree
            if needs == "tree" and specs is self.PATH_SPECS:
                assert len({tree.node_depth(tree.leaf_of_arm(a)) for a in range(tree.n_arms)}) > 1
            tops = tree.children(0).tolist()
            paths = [tree.path_to_root(tree.leaf_of_arm(arm)) for arm in trace.arms.tolist()]
            want = np.bincount([tops.index(path[-2]) for path in paths], minlength=len(tops)) if tops else [60]
            assert row.top_counts.tolist() == list(want), (key, row.seed)


class TestInstanceReuse:
    @staticmethod
    def _two_variant_config():
        return ExperimentConfig.from_json(
            {
                "name": "reuse",
                "horizon": 30,
                "seeds": [1, 2, 3],
                "policies": [{"key": "ts"}, {"key": "tsc"}, {"key": "tsmax", "variants": ["b"]}],
                "instances": [
                    {"name": "a", "spec": TINY_SD_SPEC},
                    {"name": "b", "spec": {**TINY_SD_SPEC, "separation": 0.3}},
                ],
            }
        )

    def test_one_build_per_variant_and_seed(self, monkeypatch):
        builds = []
        build = harness.build_instance

        def counting_build(spec, rng):
            builds.append(spec)
            return build(spec, rng)

        monkeypatch.setattr(harness, "build_instance", counting_build)
        monkeypatch.setattr(harness, "_last_instance", None)
        config = self._two_variant_config()
        result = run_experiment(config)
        assert len(builds) == len(config.variants) * len(config.seeds)
        assert len(result.rows) == (2 + 3) * len(config.seeds)

    def test_rows_equal_a_fresh_build_per_job(self, monkeypatch):
        config = self._two_variant_config()
        result = run_experiment(config)
        specs = {v.name: v.spec for v in config.variants}
        keys = {p.name: p.key for p in config.policies}
        for row in result.rows:
            monkeypatch.setattr(harness, "_last_instance", None)
            fresh = harness._run_job(
                (row.variant, specs[row.variant], keys[row.policy], {}, row.policy, row.seed,
                 config.horizon, config.stride, config.context_kind)
            )
            assert np.array_equal(row.ts, fresh.ts)
            assert np.array_equal(row.regret, fresh.regret)
            assert np.array_equal(row.top_counts, fresh.top_counts)

    def test_variant_name_reused_with_another_spec(self, monkeypatch):
        def config(separation):
            return ExperimentConfig.from_json(
                {
                    "name": "same-name",
                    "horizon": 40,
                    "seeds": [1],
                    "policies": [{"key": "ts"}],
                    "instances": [
                        {"name": "v", "spec": {**TINY_SD_SPEC, "separation": separation}}
                    ],
                }
            )

        first = run_experiment(config(0.1))
        second = run_experiment(config(0.3))
        assert not np.array_equal(first.rows[0].regret, second.rows[0].regret)
        monkeypatch.setattr(harness, "_last_instance", None)
        fresh = run_experiment(config(0.3))
        assert np.array_equal(second.rows[0].regret, fresh.rows[0].regret)

    def test_build_failure_names_variant_and_seed(self, monkeypatch):
        # a spec's draw-free checks run when the config is made (5 arms in 8 clusters fails there),
        # so a build that fails at all fails in the draws; this one fails at every seed
        with pytest.raises(ConfigError, match=r"variant 'too-many-clusters' spec: n_clusters: .*n_arms=5"):
            ExperimentConfig.from_json({
                "horizon": 10, "seeds": [4, 5], "policies": [{"key": "ts"}],
                "instances": [{"name": "too-many-clusters",
                               "spec": {"kind": "kmeans", "n_arms": 5, "n_clusters": 8, "reward_fn": "sin-product"}}],
            })

        def failing_build(spec, rng):
            raise ValueError("build failed")

        monkeypatch.setattr(harness, "build_instance", failing_build)
        monkeypatch.setattr(harness, "_last_instance", None)
        config = ExperimentConfig.from_json(
            {
                "name": "bad-build",
                "horizon": 10,
                "seeds": [4, 5],
                "policies": [{"key": "ts"}],
                "instances": [
                    {
                        "name": "failing-build",
                        "spec": {"kind": "kmeans", "n_arms": 5, "n_clusters": 3,
                                 "reward_fn": "sin-product"},
                    }
                ],
            }
        )
        for workers in (1, 2):
            with pytest.raises(ConfigError, match="variant 'failing-build' at seed 4: build failed"):
                run_experiment(config, workers=workers)

    def test_policy_failure_names_variant_policy_and_seed(self, monkeypatch):
        def failing_at_seed_5(*args, seed=None, **kwargs):
            if seed == 5:
                raise ValueError("step failed")
            return simulate(*args, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "simulate", failing_at_seed_5)
        config = ExperimentConfig.from_json(
            {
                "name": "bad-job",
                "horizon": 10,
                "seeds": [4, 5],
                "policies": [{"key": "lintsc"}],
                "instances": [{"name": "ctx-variant", "spec": TINY_CTX_SPEC}],
            }
        )
        for workers in (1, 2):
            with pytest.raises(ConfigError, match="policies: 'lintsc' on variant 'ctx-variant' at seed 5: step failed"):
                run_experiment(config, workers=workers)

    def test_any_job_error_names_variant_policy_seed_and_its_type(self, monkeypatch):
        def overflowing_at_seed_5(*args, seed=None, **kwargs):
            if seed == 5:
                raise FloatingPointError("overflow in step")
            return simulate(*args, seed=seed, **kwargs)

        monkeypatch.setattr(harness, "simulate", overflowing_at_seed_5)
        config = ExperimentConfig.from_json(
            {
                "name": "bad-job",
                "horizon": 10,
                "seeds": [4, 5],
                "policies": [{"key": "lintsc"}],
                "instances": [{"name": "ctx-variant", "spec": TINY_CTX_SPEC}],
            }
        )
        want = "policies: 'lintsc' on variant 'ctx-variant' at seed 5: FloatingPointError: overflow in step"
        for workers in (1, 2):
            with pytest.raises(JobError) as err:
                run_experiment(config, workers=workers)
            assert str(err.value) == want
            assert not isinstance(err.value, ValueError)  # a run-time failure, not a config error
            cause = err.value.__cause__
            if workers == 1:
                assert isinstance(cause, FloatingPointError)
            else:  # a worker's cause comes back as its formatted traceback
                assert "FloatingPointError: overflow in step" in str(cause)


class TestContextAndBoundReuse:
    def test_contexts_drawn_once_per_variant_and_seed(self, monkeypatch):
        calls = []
        gen = harness.gen_context

        def counting_gen(dim, rng, kind="uniform"):
            calls.append(dim)
            return gen(dim, rng, kind)

        monkeypatch.setattr(harness, "gen_context", counting_gen)
        monkeypatch.setattr(harness, "_last_instance", None)
        config = ExperimentConfig.from_json(
            {
                "name": "ctx-reuse",
                "horizon": 30,
                "seeds": [7],
                "policies": [{"key": k} for k in ("lints", "lintsc", "linucb", "linucbc")],
                "instance": TINY_CTX_SPEC,
            }
        )
        result = run_experiment(config)
        assert len(calls) == 30  # one per step, not one per step and policy
        assert not harness._last_instance[3].flags.writeable
        # each row equals a run on contexts drawn afresh for its job
        for row in result.rows:
            streams = rng_streams(row.seed)
            instance = build_instance(TINY_CTX_SPEC, streams.instance)
            contexts = np.stack([gen(instance.dim, streams.context) for _ in range(30)])
            policy = make_policy(row.policy, instance)
            trace = simulate(instance, policy, 30, streams.simulation, contexts=contexts)
            assert np.array_equal(row.regret, trace.cum_regret[row.ts - 1])

    @pytest.mark.parametrize("workers", [1, 2])
    def test_bounds_build_each_instance_once(self, monkeypatch, tmp_path, workers):
        log = tmp_path / "builds.log"
        build = harness.build_instance

        def counting_build(spec, rng):
            with open(log, "a") as fh:  # workers append here too
                fh.write("build\n")
            return build(spec, rng)

        monkeypatch.setattr(harness, "build_instance", counting_build)
        monkeypatch.setattr(harness, "_last_instance", None)
        # forked workers inherit the counting build function
        fork = multiprocessing.get_context("fork")
        monkeypatch.setattr(
            harness, "ProcessPoolExecutor", functools.partial(ProcessPoolExecutor, mp_context=fork)
        )
        result = run_experiment(_tiny_config(bounds=True), workers=workers)
        assert len(log.read_text().split()) == 3
        assert {b["bound"] for b in result.bounds} == {
            "tsc_instance", "tsc_minimax", "lai_robbins_lower", "minimax_lower_reference"
        }

    def test_bound_rows_equal_a_fresh_build_per_seed(self):
        config = _tiny_config(bounds=True, horizon=500, eps=0.2)
        T = float(config.horizon)
        expected = {"tsc_instance": [], "tsc_minimax": [], "lai_robbins_lower": [], "minimax_lower_reference": []}
        for seed in config.seeds:
            stats = cluster_stats(build_instance(TINY_SD_SPEC, rng_streams(seed).instance))
            expected["tsc_instance"].append(tsc_instance_bound(stats, T, config.eps).leading)
            expected["tsc_minimax"].append(tsc_minimax_bound(stats, T))
            expected["lai_robbins_lower"].append(lai_robbins_lower(stats, T).leading)
            expected["minimax_lower_reference"].append(minimax_lower_reference(stats, T))
        for workers in (1, 2):
            rows = run_experiment(config, workers=workers).bounds
            assert [b["bound"] for b in rows] == sorted(expected)
            for b in rows:
                assert b["mean_value_at_horizon"] == float(np.mean(expected[b["bound"]]))
                assert b["n_seeds"] == len(config.seeds)

    def test_variant_without_policies_keeps_its_bound_rows(self):
        config = ExperimentConfig.from_json(
            {
                "name": "unplayed",
                "horizon": 20,
                "seeds": [1, 2],
                "bounds": True,
                "policies": [{"key": "ts", "variants": ["played"]}],
                "instances": [
                    {"name": "played", "spec": TINY_SD_SPEC},
                    {"name": "unplayed", "spec": {"kind": "sorted_tree", "n_arms": 8}},
                ],
            }
        )
        result = run_experiment(config)
        assert {r.variant for r in result.rows} == {"played"}
        (tree_row,) = [b for b in result.bounds if b["experiment_id"] == "unplayed/unplayed"]
        assert tree_row["bound"] == "hts_instance" and tree_row["n_seeds"] == 2


class TestExports:
    def test_csv_schema_and_row_count(self, tmp_path):
        config = ExperimentConfig.from_json(
            {
                "name": "csv-schema",
                "horizon": 10,
                "seeds": [5],
                "stride": 1,
                "policies": [{"key": "ts"}],
                "instance": TINY_SD_SPEC,
            }
        )
        result = run_experiment(config)
        (path,) = export_result(result, tmp_path, formats=("csv",))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "experiment_id,policy,seed,t,cumulative_regret"
        assert len(lines) == 1 + 10
        assert lines[1].startswith("csv-schema/default,ts,5,1,")

    def test_byte_identical_reruns(self, tmp_path):
        for sub in ("a", "b"):
            result = run_experiment(_tiny_config(), workers=2 if sub == "b" else 1)
            export_result(result, tmp_path / sub, formats=("csv", "json"))
        assert (tmp_path / "a" / "tiny.csv").read_bytes() == (tmp_path / "b" / "tiny.csv").read_bytes()
        assert (tmp_path / "a" / "tiny.json").read_bytes() == (tmp_path / "b" / "tiny.json").read_bytes()

    def test_json_roundtrip_identical_summaries(self, tmp_path):
        result = run_experiment(_tiny_config())
        (path,) = export_result(result, tmp_path, formats=("json",))
        loaded = load_results_json(path)
        assert loaded == result.to_json()

    def test_svg_structure(self, tmp_path):
        result = run_experiment(_tiny_config())
        paths = export_result(result, tmp_path, formats=("svg",))
        assert len(paths) == 1
        root = ET.fromstring(paths[0].read_text())
        ns = "{http://www.w3.org/2000/svg}"
        polylines = [e for e in root.iter(f"{ns}polyline") if e.get("class") == "mean"]
        bands = [e for e in root.iter(f"{ns}polygon") if e.get("class") == "band"]
        assert {p.get("data-policy") for p in polylines} == {"ts", "tsc"}
        assert {p.get("data-policy") for p in bands} == {"ts", "tsc"}

    def test_csv_quotes_names_with_commas_quotes_and_line_breaks(self, tmp_path):
        labels = ["ts, fast", 'tsc "b"', "ts\nnew line"]
        result = run_experiment(_tiny_config(
            name="c",
            seeds=[1],
            policies=[{"key": key, "label": label} for key, label in zip(("ts", "tsc", "ts"), labels)],
            instances=[{"name": "a,b", "spec": TINY_SD_SPEC}],
        ))
        (path,) = export_result(result, tmp_path, formats=("csv",))
        with path.open(newline="") as fh:
            header, *rows = list(csv.reader(fh))
        assert header == ["experiment_id", "policy", "seed", "t", "cumulative_regret"]
        assert len(rows) == 3 * 40 and {len(row) for row in rows} == {5}
        assert {row[0] for row in rows} == {"c/a,b"}
        assert [row[1] for row in rows[::40]] == sorted(labels)
        for row, run in zip(rows[::40], result.rows):
            assert (int(row[2]), int(row[3]), float(row[4])) == (run.seed, 1, run.regret[0])

    def test_svg_escapes_title_and_labels(self, tmp_path):
        labels = ['ts "<fast>" & co', "tsc\tnew\nline"]
        result = run_experiment(_tiny_config(
            name="a<b>&c",
            policies=[{"key": "ts", "label": labels[0]}, {"key": "tsc", "label": labels[1]}],
        ))
        (path,) = export_result(result, tmp_path, formats=("svg",))
        root = ET.parse(path).getroot()
        ns = "{http://www.w3.org/2000/svg}"
        assert root.find(f"{ns}title").text == "a<b>&c/default"
        texts = [e.text for e in root.iter(f"{ns}text")]
        assert "a<b>&c/default" in texts and set(labels) <= set(texts)
        for tag, cls in (("polyline", "mean"), ("polygon", "band")):
            drawn = [e.get("data-policy") for e in root.iter(f"{ns}{tag}") if e.get("class") == cls]
            assert drawn == labels

    def test_unknown_format(self, tmp_path):
        result = run_experiment(_tiny_config())
        with pytest.raises(ConfigError, match="format"):
            export_result(result, tmp_path, formats=("parquet",))

    @pytest.mark.parametrize("formats", [("csv", "xml"), (), ("json", "csv", "json")])
    def test_bad_formats_write_nothing(self, tmp_path, formats):
        result = run_experiment(_tiny_config())
        with pytest.raises(ConfigError, match="^format: "):
            export_result(result, tmp_path / "out", formats=formats)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("formats", [["csv", "csv"], ["svg", "json", "svg"]])
    def test_a_repeated_format_is_rejected_by_name(self, formats):
        # a repeated format would write its files twice and list each path twice
        with pytest.raises(ConfigError, match=f"^format: export format '{formats[-1]}' given twice$"):
            harness.check_formats(formats)


class TestPresets:
    def test_all_presets_parse(self):
        names = preset_names()
        assert len(names) == 15
        for name in names:
            config = preset(name)
            assert config.horizon >= 1 and config.seeds

    def test_unknown_preset_lists_valid_names(self):
        with pytest.raises(ConfigError, match="fig-d-sweep"):
            preset("nope")

    def test_fig_d_sweep_parameters(self):
        config = preset("fig-d-sweep")
        assert config.horizon == 3000
        assert len(config.seeds) == 50
        seps = [v.spec["separation"] for v in config.variants]
        assert seps == [0.05, 0.1, 0.2, 0.3]
        assert all(v.spec["n_arms"] == 100 for v in config.variants)
        assert all(v.spec["optimal_width"] == 0.1 for v in config.variants)

    def test_fig_depth_parameters(self):
        config = preset("fig-depth")
        assert config.horizon == 3000 and len(config.seeds) == 50
        assert [v.spec["levels"] for v in config.variants] == [0, 1, 2, 4, 8]
        assert {p.key for p in config.policies} == {"hts"}

    def test_kmeans_large_parameters(self):
        config = preset("kmeans-large")
        (variant,) = config.variants
        assert variant.spec["n_arms"] == 1000 and variant.spec["n_clusters"] == 32
        assert len(config.seeds) == 100
        assert {p.key for p in config.policies} == {"ts", "tsc", "ucb1", "ucbc", "tsmax"}

    def test_hts_uct_parameters(self):
        config = preset("hts-uct")
        by_name = {v.name: v.spec for v in config.variants}
        assert by_name["L1"]["n_clusters"] == 15 and by_name["L1"]["n_arms"] == 5000
        assert by_name["L2"]["depth"] == 2 and by_name["L3"]["depth"] == 3
        assert all(v["n_arms"] == 5000 for v in by_name.values())
        tsc = next(p for p in config.policies if p.key == "tsc")
        assert tsc.variants == ("L1",)

    def test_contextual_presets_parameters(self):
        for name, (k, n, eps_val) in {
            "ctx-small": (20, 400, 0.5),
            "ctx-large-eps05": (30, 900, 0.5),
            "ctx-large-eps01": (30, 900, 0.1),
        }.items():
            config = preset(name)
            (variant,) = config.variants
            assert variant.spec["n_clusters"] == k
            assert variant.spec["n_arms"] == n
            assert variant.spec["epsilon"] == eps_val
            assert config.horizon == 2000 and len(config.seeds) == 25
            params = {p.key: p.params for p in config.policies}
            assert params["lints"] == {"v": 1.0}
            assert params["linucb"] == {"alpha": 2.0}

    def test_appendix_uniform_parameters(self):
        config = preset("appendix-uniform")
        (variant,) = config.variants
        assert variant.spec == {"kind": "uniform", "n_arms": 50, "n_clusters": 10}
        assert len(config.seeds) == 25

    def test_preset_smoke_run(self):
        # identical structure at desk scale: shrink seeds/horizon and run
        doc = preset("appendix-uniform").to_json()
        doc.update({"horizon": 25, "seeds": [1, 2]})
        result = run_experiment(ExperimentConfig.from_json(doc))
        assert len(result.rows) == 4
