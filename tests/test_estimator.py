import math
import tracemalloc

import numpy as np
import pytest

from bayeshield import estimator
from bayeshield.core import LabeledDataset, SimilarityKernel
from bayeshield.estimator import (
    UndefinedPosteriorError,
    estimate_bayes_error,
    estimate_posteriors,
    gaussian_similarity,
    median_heuristic_bandwidth,
    naive_posterior,
)

K1 = SimilarityKernel(bandwidth=1.0)


def three_point_dataset():
    return LabeledDataset([[0.0], [1.0], [2.0]], [0, 1, 1], 2)


def random_dataset(rng, n=None, d=None, k=None):
    n = n or int(rng.integers(5, 40))
    d = d or int(rng.integers(1, 4))
    k = k or int(rng.integers(1, 4))
    points = rng.normal(size=(n, d)) * float(10.0 ** rng.uniform(-1, 1))
    labels = rng.integers(0, k, size=n)
    return LabeledDataset(points, labels, k)


def test_gaussian_similarity_zero_distance():
    assert gaussian_similarity((0.0, 0.0), (0.0, 0.0), 1.0) == 1.0


def test_gaussian_similarity_direct_values():
    assert gaussian_similarity([0.0], [1.0], 1.0) == pytest.approx(math.exp(-0.5), abs=1e-15)
    assert gaussian_similarity([0.0], [2.0], 1.0) == pytest.approx(math.exp(-2.0), abs=1e-15)


def test_gaussian_similarity_symmetric_bitwise():
    rng = np.random.default_rng(5)
    for _ in range(20):
        a, b = rng.normal(size=3), rng.normal(size=3)
        assert gaussian_similarity(a, b, 0.7) == gaussian_similarity(b, a, 0.7)


def test_gaussian_similarity_validation():
    with pytest.raises(ValueError, match="bandwidth"):
        gaussian_similarity([0.0], [1.0], 0.0)
    with pytest.raises(ValueError, match="finite"):
        gaussian_similarity([np.nan], [1.0], 1.0)
    with pytest.raises(ValueError, match="shape"):
        gaussian_similarity([0.0, 1.0], [1.0], 1.0)


def test_posteriors_identical_points():
    ds = LabeledDataset([[0.0], [0.0], [0.0], [0.0]], [0, 0, 1, 1], 2)
    pm = estimate_posteriors(ds, K1)
    # each point sees one same-label and two other-label unit votes
    expected = np.array(
        [[1 / 3, 2 / 3], [1 / 3, 2 / 3], [2 / 3, 1 / 3], [2 / 3, 1 / 3]]
    )
    np.testing.assert_allclose(pm.values, expected, atol=1e-15)
    assert pm.fallback_rows == ()


def test_posteriors_three_point_oracle():
    # scalar evaluation of the leave-one-out vote for points 0, 1, 2
    s01 = math.exp(-0.5)
    s02 = math.exp(-2.0)
    row0 = (0.0, 1.0)
    row1 = (0.5, 0.5)
    row2 = (s02 / (s02 + s01), s01 / (s02 + s01))
    pm = estimate_posteriors(three_point_dataset(), K1)
    np.testing.assert_allclose(pm.values, [row0, row1, row2], atol=1e-12)
    assert pm.values[2, 0] == pytest.approx(0.18243, abs=5e-6)
    assert pm.values[2, 1] == pytest.approx(0.81757, abs=5e-6)


def test_posteriors_single_class():
    ds = LabeledDataset([[0.0], [3.0], [7.0]], [0, 0, 0], 1)
    pm = estimate_posteriors(ds, K1)
    np.testing.assert_array_equal(pm.values, np.ones((3, 1)))


def test_posteriors_underflow_falls_back_to_uniform():
    ds = LabeledDataset([[0.0], [1e4]], [0, 1], 2)
    pm = estimate_posteriors(ds, K1)
    assert pm.fallback_rows == (0, 1)
    np.testing.assert_array_equal(pm.values, np.full((2, 2), 0.5))
    est = estimate_bayes_error(ds, K1)
    assert est.fallback_rows == (0, 1)
    assert est.value == pytest.approx(0.5)


def test_bayes_error_identical_points():
    ds = LabeledDataset([[0.0], [0.0], [0.0], [0.0]], [0, 0, 1, 1], 2)
    est = estimate_bayes_error(ds, K1)
    assert est.value == pytest.approx(1 / 3, abs=1e-12)


def test_bayes_error_three_point_oracle():
    s01 = math.exp(-0.5)
    s02 = math.exp(-2.0)
    expected = 1.0 - (1.0 + 0.5 + s01 / (s01 + s02)) / 3.0
    est = estimate_bayes_error(three_point_dataset(), K1)
    assert est.value == pytest.approx(expected, abs=1e-15)
    assert est.value == pytest.approx(0.22748, abs=5e-6)


def test_bayes_error_value_consistency():
    rng = np.random.default_rng(0)
    ds = random_dataset(rng, n=30, d=2, k=3)
    est = estimate_bayes_error(ds, SimilarityKernel(bandwidth=0.8))
    assert est.value == pytest.approx(
        1.0 - est.per_sample_max_posterior.mean(), abs=1e-15
    )


def test_posterior_rows_and_bounds_randomized():
    rng = np.random.default_rng(42)
    for _ in range(25):
        ds = random_dataset(rng)
        kernel = SimilarityKernel(bandwidth=float(10.0 ** rng.uniform(-1, 1)))
        pm = estimate_posteriors(ds, kernel)
        assert np.abs(pm.values.sum(axis=1) - 1.0).max() <= 1e-9
        assert pm.values.min() >= 0.0
        assert pm.values.max() <= 1.0
        est = estimate_bayes_error(ds, kernel)
        assert 0.0 <= est.value <= 1.0 - 1.0 / ds.num_classes + 1e-12


def test_permutation_invariance():
    rng = np.random.default_rng(7)
    ds = random_dataset(rng, n=25, d=3, k=3)
    kernel = SimilarityKernel(bandwidth=0.9)
    base = estimate_bayes_error(ds, kernel).value
    perm = rng.permutation(ds.n)
    shuffled = LabeledDataset(ds.points[perm], ds.labels[perm], ds.num_classes)
    assert abs(estimate_bayes_error(shuffled, kernel).value - base) <= 1e-12


def test_relabeling_invariance():
    rng = np.random.default_rng(8)
    ds = random_dataset(rng, n=25, d=2, k=4)
    kernel = SimilarityKernel(bandwidth=1.1)
    base = estimate_bayes_error(ds, kernel).value
    relabel = rng.permutation(ds.num_classes)
    swapped = LabeledDataset(ds.points, relabel[ds.labels], ds.num_classes)
    assert abs(estimate_bayes_error(swapped, kernel).value - base) <= 1e-12


def test_rigid_motion_invariance():
    rng = np.random.default_rng(9)
    ds = random_dataset(rng, n=30, d=3, k=2)
    kernel = SimilarityKernel(bandwidth=1.0)
    base = estimate_bayes_error(ds, kernel).value
    q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
    moved = ds.with_points(ds.points @ q.T + rng.normal(size=3))
    assert abs(estimate_bayes_error(moved, kernel).value - base) <= 1e-9


def test_threads_do_not_change_bits(monkeypatch):
    rng = np.random.default_rng(10)
    kernel = SimilarityKernel(bandwidth=0.7)
    # at d=9 cdist's sequential sum differs from numpy's 8-wide one
    cases = [random_dataset(rng, n=150, d=d, k=3) for d in (3, 9)]
    references = [
        (estimate_posteriors(ds, kernel).values, estimate_bayes_error(ds, kernel).value)
        for ds in cases
    ]
    # 30-row spans end in a short one; 1-row spans are the finest split
    for chunk in (150 * 30, 1):
        monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
        assert len(estimator._row_spans(150)) >= 3
        for workers in (1, 2):
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            for ds, (reference, value) in zip(cases, references):
                got = estimate_posteriors(ds, kernel)
                np.testing.assert_array_equal(got.values, reference)
                assert estimate_bayes_error(ds, kernel).value == value


def test_posteriors_memory_is_linear():
    rng = np.random.default_rng(12)
    n = 3000
    ds = random_dataset(rng, n=n, d=2, k=3)
    tracemalloc.start()
    try:
        estimate_posteriors(ds, K1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense n x n float64 array would be n * n * 8 bytes
    assert peak < n * n * 8 / 4


def test_naive_posterior_matches():
    ds = LabeledDataset([[0.0], [0.0], [1.0]], [0, 1, 0], 2)
    np.testing.assert_allclose(naive_posterior(ds, [0.0]), [0.5, 0.5])


def test_naive_posterior_undefined_off_support():
    ds = LabeledDataset([[0.0], [0.0], [1.0]], [0, 1, 0], 2)
    with pytest.raises(UndefinedPosteriorError, match="undefined"):
        naive_posterior(ds, [0.5])


def test_naive_posterior_unanimous():
    ds = LabeledDataset([[2.0], [2.0]], [1, 1], 2)
    np.testing.assert_array_equal(naive_posterior(ds, [2.0]), [0.0, 1.0])


def test_median_bandwidth_single_pair():
    ds = LabeledDataset([[0.0], [1.0]], [0, 1], 2)
    assert median_heuristic_bandwidth(ds) == 1.0


def test_median_bandwidth_three_points():
    ds = LabeledDataset([[0.0], [1.0], [3.0]], [0, 0, 1], 2)
    # pairwise distances {1, 2, 3}
    assert median_heuristic_bandwidth(ds) == 2.0


def test_median_bandwidth_matches_brute_force():
    rng = np.random.default_rng(11)
    points = rng.normal(size=(100, 3))
    ds = LabeledDataset(points, rng.integers(0, 2, 100), 2)
    dists = sorted(
        float(np.sqrt(((points[i] - points[j]) ** 2).sum()))
        for i in range(100)
        for j in range(i + 1, 100)
    )
    mid = len(dists) // 2
    expected = dists[mid] if len(dists) % 2 else 0.5 * (dists[mid - 1] + dists[mid])
    assert median_heuristic_bandwidth(ds) == pytest.approx(expected, rel=1e-12)


def test_median_bandwidth_rejects_identical_points():
    ds = LabeledDataset([[1.0], [1.0], [1.0]], [0, 0, 1], 2)
    with pytest.raises(ValueError, match="zero"):
        median_heuristic_bandwidth(ds)
