"""The law gate of ``law.py`` on the shipped Thompson kernels, with its calibration and its power.

Every shipped ``ts``, ``tsc``, ``hts`` and ``tsmax`` kernel must pass the
gate against the per-visit reference, flat ``ts`` on 1000 arms, whose root
draws by groups, included. The reference must pass against
itself on a third seed list (calibration), and each known-wrong candidate
must fail (power); two of them on criterion 5 are strict xfails, with the
seed counts that resolve them. Run with ``pytest -s`` to see each run's
p-values.
"""
import numpy as np
import pytest

import law

KERNEL_CASES = [
    ("criterion-5", "tsc"),
    ("criterion-1", "ts"),
    ("criterion-1", "tsc"),
    ("criterion-1", "tsmax"),
    ("sorted-tree-256", "hts"),
    ("kmeans-1000", "ts"),  # its 1000-arm root draws by groups
]


def _report(label, passed, p):
    least = min(p, key=p.get)
    print(f"{label}: {'pass' if passed else 'fail'}; least p {p[least]:.3g} ({least}); "
          f"level {law.ALPHA / len(p):.3g}")


@pytest.mark.parametrize("name, key", KERNEL_CASES)
def test_kernel_passes_the_gate(name, key):
    passed, p = law.gate(name, key, law.kernel(key))
    _report(f"{key} on {name}", passed, p)
    assert passed, p


@pytest.mark.parametrize("name, key", [("criterion-5", "tsc"), ("criterion-1", "ts")])
def test_reference_passes_against_itself(name, key):
    passed, p = law.gate(name, key, law.REFERENCES[key], seeds=law.CALIBRATION_SEEDS)
    _report(f"reference {key} on {name}, seeds {law.CALIBRATION_SEEDS}", passed, p)
    assert passed, p


# At 200 seeds the gate cannot resolve these two on criterion 5's four arms, where a
# leaf's extra failure or a stale block moves the law too little. Measured with the
# candidates on seeds 20000-21999 and 30000-31999 against the reference on seeds
# 10000-11999, the least p was 9.6e-10 (f + 1) and 5.0e-15 (never redrawn), both
# from the replay checks; resampling those runs, the gate rejected the never-redrawn
# block in 50% of draws of 400 seeds a side and 100% of 800, and the f + 1 leaves in
# 10% of 400 and 68% of 1000. Enough seeds cost over 30 s of criterion-5 runs alone,
# so the seed count stays; a never-redrawn block is shown caught on criterion 1.
UNRESOLVED_AT_200_SEEDS = pytest.mark.xfail(
    strict=True, reason="criterion 5 needs 800-1500 seeds a side to resolve this candidate")


@pytest.mark.parametrize("name, key, wrong", [
    pytest.param("criterion-5", "tsc", "leaf-beta-f+1", marks=UNRESOLVED_AT_200_SEEDS),
    ("criterion-1", "tsc", "ts-for-tsc"),
    pytest.param("criterion-5", "tsc", "never-redrawn-tsc", marks=UNRESOLVED_AT_200_SEEDS),
    ("criterion-1", "ts", "never-redrawn-ts"),
    ("criterion-1", "tsc", "never-redrawn-tsc"),
    ("kmeans-1000", "ts", "group-max-without-power"),
    ("kmeans-1000", "ts", "group-first-member"),
])
def test_known_wrong_candidates_fail(name, key, wrong):
    passed, p = law.gate(name, key, law.WRONG[wrong])
    _report(f"{wrong} as {key} on {name}", passed, p)
    assert not passed, p


def test_chi_square_pools_sparse_columns():
    # columns 2 and 3 expect 2 and 1.5 per row: pooled, the pool (3.5) joins column 1
    a = [0] * 10 + [1] * 6 + [2] * 2 + [3] * 2
    b = [0] * 10 + [1] * 6 + [2] * 2 + [3] * 1 + [0]
    assert 0.0 < law.chi_square_p(np.array(a), np.array(b)) <= 1.0
    # every column sparse: nothing to test
    assert law.chi_square_p(np.arange(8), np.arange(8) + 1) == 1.0
