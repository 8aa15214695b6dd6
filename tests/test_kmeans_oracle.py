"""Identity of ``instances.kmeans`` against the per-cluster masked Lloyd step.

``ref_kmeans`` keeps the straightforward update, one boolean mask and one
``points[mask].mean(axis=0)`` per cluster. The grouped update must give the
same labels and leave the generator in the same state, on every k-means
based preset variant and on random inputs with ties and empty clusters.
"""
import numpy as np
import pytest

from clusterbandit import instances
from clusterbandit.core import rng_streams
from clusterbandit.harness import preset
from clusterbandit.instances import _kmeans_pp_init, build_instance, kmeans


def ref_kmeans(points, k, rng, max_iter=100):
    points = np.asarray(points, dtype=np.float64)
    if points.ndim == 1:
        points = points[:, None]
    n = points.shape[0]
    if k < 1 or k > n:
        raise ValueError(f"need 1 <= k <= {n}, got k={k}")
    if k == n:
        return np.arange(n, dtype=np.int64)
    centroids = _kmeans_pp_init(points, k, rng)
    labels = np.full(n, -1, dtype=np.int64)
    for _ in range(max_iter):
        d2 = ((points[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
        new_labels = d2.argmin(axis=1)
        if np.array_equal(new_labels, labels):
            break
        labels = new_labels
        for c in range(k):
            mask = labels == c
            if mask.any():
                centroids[c] = points[mask].mean(axis=0)
            else:
                far = int(((points - centroids[c]) ** 2).sum(axis=1).argmax())
                centroids[c] = points[far]
    return labels


KMEANS_VARIANTS = [
    (name, v.name, v.spec)
    for name in ("kmeans-small", "kmeans-large", "hts-uct", "appendix-2d", "appendix-gaussian")
    for v in preset(name).variants
    if v.spec["kind"] in ("kmeans", "kmeans_tree")
]


def _same_instance(a, b):
    assert np.array_equal(a.means, b.means)
    assert (a.clustering is None) == (b.clustering is None)
    if a.clustering is not None:
        assert np.array_equal(a.clustering.labels, b.clustering.labels)
    assert (a.tree is None) == (b.tree is None)
    if a.tree is not None:
        assert a.tree == b.tree


def test_every_kmeans_preset_variant_is_covered():
    assert {(p, v) for p, v, _ in KMEANS_VARIANTS} == {
        ("kmeans-small", "N100-K10"),
        ("kmeans-large", "N1000-K32"),
        ("hts-uct", "L1"),
        ("hts-uct", "L2"),
        ("hts-uct", "L3"),
        ("appendix-2d", "kmeans-K20"),
        ("appendix-gaussian", "kmeans-K5"),
    }


@pytest.mark.parametrize("seed", range(5))
@pytest.mark.parametrize("preset_name, variant, spec", KMEANS_VARIANTS, ids=[f"{p}/{v}" for p, v, _ in KMEANS_VARIANTS])
def test_preset_instances_match_reference(preset_name, variant, spec, seed, monkeypatch):
    rng = rng_streams(seed).instance
    got = build_instance(spec, rng)
    monkeypatch.setattr(instances, "kmeans", ref_kmeans)
    ref_rng = rng_streams(seed).instance
    want = build_instance(spec, ref_rng)
    _same_instance(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state


def _random_case(case):
    g = np.random.default_rng(10_000 + case)
    n = int(g.integers(2, 300))
    k = int(g.integers(1, min(n, 30) + 1))
    dim = int(g.integers(1, 6))
    if case % 3 == 0:
        # few distinct values: tied distances and clusters that empty out
        points = g.integers(0, 3, size=(n, dim)).astype(float)
    else:
        points = g.normal(size=(n, dim)) * g.uniform(0.1, 10.0, size=dim)
    if case % 4 == 0:
        points = points[:, 0]  # 1-D input
    max_iter = int(g.integers(1, 6)) if case % 5 == 0 else 100
    return points, k, max_iter


@pytest.mark.parametrize("case", range(120))
def test_random_inputs_match_reference(case):
    points, k, max_iter = _random_case(case)
    rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
    got = kmeans(points, k, rng, max_iter=max_iter)
    want = ref_kmeans(points, k, ref_rng, max_iter=max_iter)
    assert got.dtype == want.dtype
    assert np.array_equal(got, want)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
