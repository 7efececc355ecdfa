import json
import math
import subprocess
import sys

import numpy as np
import pytest
from scipy import integrate

from bayeshield.core import LabeledDataset, SimilarityKernel
from bayeshield.synth import (
    TruncatedNormal,
    TruncatedNormalPairSpec,
    analytic_bayes_error,
    canonical_truncated_normal_pair,
    finite_difference_gradient,
    generate_moons,
    sample_truncated_normal_pair,
)

K1 = SimilarityKernel(bandwidth=1.0)


IMPORT_GUARD = """
import json, sys
import bayeshield, bayeshield.cli
loaded = "scipy.stats" in sys.modules
from bayeshield.synth import TruncatedNormal, analytic_bayes_error, canonical_truncated_normal_pair
tn = TruncatedNormal(mean=0.0, std=1.0, lower=-3.0, upper=3.0)
print(json.dumps({
    "loaded_on_import": loaded,
    "pdf": tn.pdf([-4.0, -3.0, 0.0, 1.5, 3.0]).tolist(),
    "ppf": tn.ppf([0.0, 0.25, 0.5, 1.0]).tolist(),
    "canonical": analytic_bayes_error(canonical_truncated_normal_pair()),
}))
"""


def test_package_import_leaves_scipy_stats_to_the_truncated_normal():
    result = subprocess.run(
        [sys.executable, "-c", IMPORT_GUARD], capture_output=True, text=True, check=True
    )
    got = json.loads(result.stdout)
    assert got["loaded_on_import"] is False
    # the lazily imported helpers give the same values as in this process
    tn = TruncatedNormal(mean=0.0, std=1.0, lower=-3.0, upper=3.0)
    assert got["pdf"] == tn.pdf([-4.0, -3.0, 0.0, 1.5, 3.0]).tolist()
    assert got["ppf"] == tn.ppf([0.0, 0.25, 0.5, 1.0]).tolist()
    mass = math.erf(3.0 / math.sqrt(2.0))
    density = [math.exp(-x * x / 2) / math.sqrt(2 * math.pi) for x in (-3.0, 0.0, 1.5, 3.0)]
    expected = [0.0] + [v / mass for v in density]
    assert got["pdf"] == pytest.approx(expected, rel=1e-12)
    assert got["ppf"][0] == -3.0 and got["ppf"][3] == 3.0
    assert got["ppf"][2] == pytest.approx(0.0, abs=1e-12)
    assert got["canonical"] == pytest.approx(0.1427, abs=0.0005)


def test_analytic_identical_distributions():
    tn = TruncatedNormal(mean=0.0, std=1.0, lower=-3.0, upper=3.0)
    spec = TruncatedNormalPairSpec(class0=tn, class1=tn, prior0=0.5, prior1=0.5)
    assert analytic_bayes_error(spec) == pytest.approx(0.5, abs=1e-9)


def test_analytic_disjoint_supports():
    spec = TruncatedNormalPairSpec(
        class0=TruncatedNormal(mean=0.0, std=0.5, lower=-1.0, upper=1.0),
        class1=TruncatedNormal(mean=10.0, std=0.5, lower=9.0, upper=11.0),
        prior0=0.5,
        prior1=0.5,
    )
    assert analytic_bayes_error(spec) == pytest.approx(0.0, abs=1e-12)


def test_analytic_canonical_value():
    value = analytic_bayes_error(canonical_truncated_normal_pair())
    assert value == pytest.approx(0.1427, abs=0.0005)


def test_analytic_agrees_with_adaptive_quadrature():
    # independent route: adaptive quadrature of the same integrand
    spec = canonical_truncated_normal_pair()
    lo = min(spec.class0.lower, spec.class1.lower)
    hi = max(spec.class0.upper, spec.class1.upper)

    def integrand(x):
        arr = np.asarray([x])
        return float(
            np.minimum(
                spec.prior0 * spec.class0.pdf(arr), spec.prior1 * spec.class1.pdf(arr)
            )[0]
        )

    reference, _ = integrate.quad(integrand, lo, hi, limit=200)
    assert analytic_bayes_error(spec) == pytest.approx(reference, abs=1e-6)


def test_analytic_quadrature_converged():
    spec = canonical_truncated_normal_pair()
    coarse = analytic_bayes_error(spec, quadrature_points=200_001)
    fine = analytic_bayes_error(spec, quadrature_points=400_001)
    assert abs(fine - coarse) <= 1e-6


def test_analytic_class_swap_invariant():
    spec = canonical_truncated_normal_pair()
    swapped = TruncatedNormalPairSpec(
        class0=spec.class1, class1=spec.class0, prior0=spec.prior1, prior1=spec.prior0
    )
    assert analytic_bayes_error(swapped) == pytest.approx(
        analytic_bayes_error(spec), abs=1e-12
    )


def test_pair_spec_validation():
    tn = TruncatedNormal(mean=0.0, std=1.0, lower=-3.0, upper=3.0)
    with pytest.raises(ValueError, match="sum"):
        TruncatedNormalPairSpec(class0=tn, class1=tn, prior0=0.6, prior1=0.6)
    with pytest.raises(ValueError, match="negative"):
        TruncatedNormalPairSpec(class0=tn, class1=tn, prior0=1.2, prior1=-0.2)
    with pytest.raises(ValueError, match="std"):
        TruncatedNormal(mean=0.0, std=0.0, lower=-1.0, upper=1.0)
    with pytest.raises(ValueError, match="lower"):
        TruncatedNormal(mean=0.0, std=1.0, lower=2.0, upper=1.0)
    with pytest.raises(ValueError, match=r"^truncated normal parameters must be finite$"):
        TruncatedNormal(mean=0.0, std=1.0, lower=-math.inf, upper=1.0)
    with pytest.raises(ValueError, match=r"^priors must be finite$"):
        TruncatedNormalPairSpec(class0=tn, class1=tn, prior0=math.nan, prior1=0.5)
    spec = TruncatedNormalPairSpec(class0=tn, class1=tn, prior0=0.5, prior1=0.5)
    with pytest.raises(ValueError, match=r"^quadrature_points must be at least 2, got 1$"):
        analytic_bayes_error(spec, quadrature_points=1)


def test_sampler_shapes_and_support():
    spec = canonical_truncated_normal_pair()
    ds = sample_truncated_normal_pair(spec, 500, seed=0)
    assert ds.n == 500
    assert ds.d == 1
    assert ds.num_classes == 2
    x = ds.points[:, 0]
    lo = min(spec.class0.lower, spec.class1.lower)
    hi = max(spec.class0.upper, spec.class1.upper)
    assert x.min() >= lo
    assert x.max() <= hi


def test_sampler_deterministic():
    spec = canonical_truncated_normal_pair()
    a = sample_truncated_normal_pair(spec, 300, seed=11)
    b = sample_truncated_normal_pair(spec, 300, seed=11)
    np.testing.assert_array_equal(a.points, b.points)
    np.testing.assert_array_equal(a.labels, b.labels)
    c = sample_truncated_normal_pair(spec, 300, seed=12)
    assert not np.array_equal(a.points, c.points)


def test_sampler_degenerate_prior():
    tn0 = TruncatedNormal(mean=0.0, std=1.0, lower=-3.0, upper=3.0)
    tn1 = TruncatedNormal(mean=5.0, std=1.0, lower=2.0, upper=8.0)
    spec = TruncatedNormalPairSpec(class0=tn0, class1=tn1, prior0=1.0, prior1=0.0)
    ds = sample_truncated_normal_pair(spec, 200, seed=3)
    assert (ds.labels == 0).all()
    assert ds.points.max() <= 3.0


def test_sampler_label_counts_near_priors():
    tn = TruncatedNormal(mean=0.0, std=1.0, lower=-3.0, upper=3.0)
    spec = TruncatedNormalPairSpec(class0=tn, class1=tn, prior0=0.5, prior1=0.5)
    ds = sample_truncated_normal_pair(spec, 1000, seed=21)
    count1 = int((ds.labels == 1).sum())
    # binomial mean 500, sd sqrt(250) ~ 15.8; four sigma bound
    assert abs(count1 - 500) <= 64


def test_sample_estimate_tracks_analytic():
    spec = canonical_truncated_normal_pair()
    analytic = analytic_bayes_error(spec)
    from bayeshield.estimator import estimate_bayes_error, median_heuristic_bandwidth

    ds = sample_truncated_normal_pair(spec, 2000, seed=0)
    kernel = SimilarityKernel(bandwidth=median_heuristic_bandwidth(ds))
    est = estimate_bayes_error(ds, kernel)
    assert abs(est.value - analytic) <= 0.02


def test_moons_shapes_and_balance():
    ds = generate_moons(200, noise=0.1, seed=0)
    assert ds.n == 200
    assert ds.d == 2
    assert ds.num_classes == 2
    assert int((ds.labels == 0).sum()) == 100
    assert int((ds.labels == 1).sum()) == 100


def test_moons_noise_free_arcs():
    ds = generate_moons(80, noise=0.0, seed=0)
    upper = ds.points[ds.labels == 0]
    lower = ds.points[ds.labels == 1]
    r_upper = np.sqrt((upper**2).sum(axis=1))
    r_lower = np.sqrt(((lower - np.array([1.0, 0.5])) ** 2).sum(axis=1))
    assert np.abs(r_upper - 1.0).max() <= 1e-12
    assert np.abs(r_lower - 1.0).max() <= 1e-12


def test_moons_deterministic():
    a = generate_moons(100, noise=0.2, seed=9)
    b = generate_moons(100, noise=0.2, seed=9)
    np.testing.assert_array_equal(a.points, b.points)
    c = generate_moons(100, noise=0.2, seed=10)
    assert not np.array_equal(a.points, c.points)


def test_moons_rejects_odd_n():
    with pytest.raises(ValueError, match="even"):
        generate_moons(7, noise=0.1, seed=0)


def test_fd_gradient_zero_for_single_class():
    ds = LabeledDataset([[0.0], [1.0], [2.0]], [0, 0, 0], 1)
    fd = finite_difference_gradient(ds, K1)
    assert np.abs(fd).max() <= 1e-10


def test_fd_gradient_matches_analytic_three_point():
    from bayeshield.perturb import objective_and_gradient

    ds = LabeledDataset([[0.0], [1.0], [2.0]], [0, 1, 1], 2)
    fd = finite_difference_gradient(ds, K1)
    analytic = objective_and_gradient(ds, K1).gradients
    scale = max(np.abs(analytic).max(), 1e-12)
    assert np.abs(fd - analytic).max() / scale <= 1e-5


def test_fd_gradient_halving_h_shrinks_error():
    from bayeshield.perturb import objective_and_gradient

    rng = np.random.default_rng(14)
    ds = LabeledDataset(rng.normal(size=(8, 2)), rng.integers(0, 2, 8), 2)
    report = objective_and_gradient(ds, K1)
    assert not report.tied_rows
    err_coarse = np.abs(
        finite_difference_gradient(ds, K1, h=1e-3) - report.gradients
    ).max()
    err_fine = np.abs(
        finite_difference_gradient(ds, K1, h=5e-4) - report.gradients
    ).max()
    # central differences are second order: quartering expected, allow slack
    assert err_fine <= err_coarse / 2.5
