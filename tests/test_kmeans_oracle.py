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
    assert (a.labels is None) == (b.labels is None)
    if a.labels is not None:
        assert np.array_equal(a.labels, b.labels)
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


def ref_kmeans_pp_init(points, k, rng):
    """k-means++ seeding through ``rng.choice``, with its checks of ``p``."""
    n = points.shape[0]
    centroids = np.empty((k, points.shape[1]))
    centroids[0] = points[rng.integers(n)]
    d2 = ((points - centroids[0]) ** 2).sum(axis=1)
    for i in range(1, k):
        total = d2.sum()
        idx = int(rng.integers(n)) if total <= 0.0 else int(rng.choice(n, p=d2 / total))
        centroids[i] = points[idx]
        d2 = np.minimum(d2, ((points - centroids[i]) ** 2).sum(axis=1))
    return centroids


@pytest.mark.parametrize("case", range(120))
def test_seeding_matches_rng_choice(case):
    points, k, _ = _random_case(case)
    points = np.asarray(points, dtype=np.float64).reshape(len(points), -1)
    rng, ref_rng = np.random.default_rng(case), np.random.default_rng(case)
    got = _kmeans_pp_init(points, k, rng)
    want = ref_kmeans_pp_init(points, k, ref_rng)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("seed", range(5))
def test_seeding_of_duplicate_points_takes_the_all_zero_branch(seed):
    # three distinct points and k = 6: once they are all seeds every distance
    # is zero, and the remaining seeds are drawn uniformly
    points = np.repeat(np.array([[0.0, 1.0], [2.0, 2.0], [5.0, -1.0]]), 4, axis=0)
    rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
    got = _kmeans_pp_init(points, 6, rng)
    want = ref_kmeans_pp_init(points, 6, ref_rng)
    assert got.tobytes() == want.tobytes()
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert len({tuple(c) for c in got}) == 3  # every distinct point seeded, then repeats


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_are_rejected(bad):
    points = np.random.default_rng(0).normal(size=(20, 2))
    points[7, 1] = bad
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(ValueError, match="points"):
        kmeans(points, 3, rng)
    assert rng.bit_generator.state == state  # rejected before any draw
    with pytest.raises(ValueError, match="points"):
        kmeans(points[:, 1], 3, rng)  # 1-D input too
