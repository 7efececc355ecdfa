"""Invariants of the pairwise passes on seeded hard samples.

Each seed draws one sample that mixes the cases the passes treat apart:
unused classes, duplicate rows, exact ties, a row whose similarity mass
underflows to zero and, in some draws, a pair whose mass is subnormal.
A failing draw shows its seed in the test's id.
"""

import numpy as np
import pytest

from bayeshield import estimator
from bayeshield.core import LabeledDataset, SimilarityKernel
from bayeshield.estimator import estimate_bayes_error, estimate_posteriors
from bayeshield.perturb import objective_and_gradient


def hard_sample(seed):
    """A seeded (dataset, bandwidth): n from 2 to 300, d in {1, 2, 3, 9,
    64}, K up to 2n with a random subset of the classes used, duplicate
    rows, on a half-unit grid in some draws so that distances tie
    exactly, one row 1e3 away from the rest and, in some draws, a pair
    further off whose mass, each from the other, is about exp(-720)."""
    rng = np.random.default_rng(seed)
    # log-uniform, so that a few rows, and single-band passes, come up too
    n = int(np.exp(rng.uniform(np.log(2.0), np.log(300.5))))
    d = int(rng.choice([1, 2, 3, 9, 64]))
    k = int(rng.integers(2, 2 * n + 1))
    used = rng.choice(k, size=int(rng.integers(1, min(k, n) + 1)), replace=False)
    labels = rng.choice(used, size=n)
    points = rng.normal(size=(n, d)) * rng.uniform(0.1, 3.0)
    if rng.random() < 0.5:
        points = np.round(points * 2.0) / 2.0
    copies = rng.integers(0, n, size=(int(rng.integers(0, n // 4 + 1)), 2))
    points[copies[:, 0]] = points[copies[:, 1]]
    bandwidth = float(rng.uniform(0.3, 2.0))
    rows = rng.permutation(n)
    points[rows[0]] = 0.0
    points[rows[0], 0] = 1e3
    if n >= 4 and rng.random() < 0.5:
        # exp(-r^2 / (2 sigma^2)) = exp(-720) at r = sigma sqrt(1440)
        points[rows[1:3]] = 0.0
        points[rows[1:3], 0] = [-1e3, -1e3 + bandwidth * np.sqrt(1440.0)]
    return LabeledDataset(points, labels, k), bandwidth


def passes(ds, kernel):
    report = objective_and_gradient(ds, kernel)
    return (
        np.float64(report.objective).tobytes(),
        report.gradients.tobytes(),
        report.tied_rows,
        estimate_posteriors(ds, kernel).values.tobytes(),
    )


@pytest.mark.parametrize("seed", range(25))
def test_hard_sample_invariants(monkeypatch, seed):
    ds, bandwidth = hard_sample(seed)
    kernel = SimilarityKernel(bandwidth=bandwidth)
    estimate = estimate_bayes_error(ds, kernel).value
    # the largest of K posteriors that sum to one is at least 1/K, up to
    # the rounding the estimate's own check allows
    assert 0.0 <= estimate <= 1.0 - 1.0 / ds.num_classes + 1e-12
    assert objective_and_gradient(ds, kernel).objective == estimate
    # a chunk of 1 lets _WORKERS set the worker count; under a scratch
    # budget of 0 pass B computes its strips again
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    scratch = estimator._SCRATCH
    for tile in (64, 8):
        monkeypatch.setattr(estimator, "_TILE", tile)
        monkeypatch.setattr(estimator, "_SCRATCH", scratch)
        monkeypatch.setattr(estimator, "_WORKERS", 1)
        reference = passes(ds, kernel)
        for budget, workers in ((scratch, 3), (0, 1), (0, 3)):
            monkeypatch.setattr(estimator, "_SCRATCH", budget)
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            assert passes(ds, kernel) == reference
