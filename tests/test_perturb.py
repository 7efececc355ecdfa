import tracemalloc
import warnings

import numpy as np
import pytest

from bayeshield import estimator
from bayeshield.core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
)
from bayeshield.embed import EmbeddingLayer, EmbeddingMap, embed_dataset
from bayeshield.estimator import estimate_bayes_error, estimate_posteriors
from bayeshield.perturb import (
    StepSizeWarning,
    _project_rows,
    default_step_size,
    objective_and_gradient,
    pga_maximize,
    project,
)
from bayeshield.synth import finite_difference_gradient

K1 = SimilarityKernel(bandwidth=1.0)


def three_point_dataset():
    return LabeledDataset([[0.0], [1.0], [2.0]], [0, 1, 1], 2)


def random_dataset(seed, n=10, d=2, k=2):
    rng = np.random.default_rng(seed)
    return LabeledDataset(rng.normal(size=(n, d)), rng.integers(0, k, n), k)


def tanh_embedding(d, width=4, seed=0):
    rng = np.random.default_rng(seed)
    return EmbeddingMap((
        EmbeddingLayer(rng.normal(size=(width, d)), rng.normal(size=width) * 0.1, "tanh"),
        EmbeddingLayer(rng.normal(size=(width, width)), rng.normal(size=width) * 0.1, "tanh"),
    ))


def row_splits(n):
    """_CHUNK_ELEMENTS values that split an n-row pass into at least 3
    row spans: 30-row spans ending in a short one, and 1-row spans."""
    return (n * 30, 1)


def dense_gradient(ds, sigma):
    """Objective and gradient from the dense n x n weight matrix
    W = (C + C^T) * S / sigma^2 of the objective_and_gradient docstring,
    in the operation order of the streamed pass."""
    n, k, x, y = ds.n, ds.num_classes, ds.points, ds.labels
    diff = x[:, None, :] - x[None, :, :]
    sims = np.exp(-(diff * diff).sum(axis=2) / (2.0 * sigma * sigma))
    np.fill_diagonal(sims, 0.0)
    num = np.stack([(sims * (y == c)).sum(axis=1) for c in range(k)], axis=1)
    den = num.sum(axis=1)
    ok = den > 0.0
    posteriors = np.full((n, k), 1.0 / k)
    posteriors[ok] = num[ok] / den[ok, None]
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    selected = (y[None, :] == cstar[:, None]).astype(np.float64)
    coeff = np.zeros((n, n))
    coeff[ok] = (selected[ok] - pstar[ok, None]) / den[ok, None]
    weights = (coeff + coeff.T) * sims / (sigma * sigma)
    np.fill_diagonal(weights, 0.0)
    mixed = (weights[:, :, None] * x[None, :, :]).sum(axis=1)
    return 1.0 - pstar.mean(), (weights.sum(axis=1)[:, None] * x - mixed) / n


def test_default_step_size():
    assert default_step_size(200, 0.25) == pytest.approx(0.0036 * 200 * 0.25)
    with pytest.raises(ValueError, match="at least 2"):
        default_step_size(0, 0.25)
    with pytest.raises(ValueError, match="positive"):
        default_step_size(10, 0.0)


def test_gradient_single_class_is_zero():
    ds = LabeledDataset([[0.0, 1.0], [2.0, 3.0], [4.0, 0.5]], [0, 0, 0], 1)
    report = objective_and_gradient(ds, K1)
    assert report.objective == 0.0
    np.testing.assert_array_equal(report.gradients, np.zeros((3, 2)))


@pytest.mark.parametrize(
    "k, embedded",
    [(2, False), (3, False), (2, True), (3, True)],
    ids=["k2", "k3", "k2-embedded", "k3-embedded"],
)
def test_gradient_objective_equals_estimate(k, embedded):
    ds = random_dataset(3, n=15, d=3, k=k)
    embedding = tanh_embedding(3) if embedded else None
    report = objective_and_gradient(ds, K1, embedding=embedding)
    target = ds if embedding is None else embed_dataset(embedding, ds)
    assert report.objective == estimate_bayes_error(target, K1).value
    np.testing.assert_array_equal(
        report.argmax_classes, estimate_posteriors(target, K1).values.argmax(1)
    )


def test_gradient_matches_finite_differences_three_point():
    ds = three_point_dataset()
    report = objective_and_gradient(ds, K1)
    fd = finite_difference_gradient(ds, K1)
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(report.gradients - fd).max() / scale <= 1e-5


def test_gradient_matches_finite_differences_random():
    for seed in range(4):
        ds = random_dataset(seed, n=10, d=2)
        report = objective_and_gradient(ds, K1)
        if report.tied_rows:
            continue
        fd = finite_difference_gradient(ds, K1)
        scale = max(np.abs(fd).max(), 1e-12)
        assert np.abs(report.gradients - fd).max() / scale <= 1e-5


def test_gradient_reports_exact_ties():
    ds = LabeledDataset([[0.0], [0.0], [5.0]], [0, 1, 0], 2)
    report = objective_and_gradient(ds, K1)
    assert 2 in report.tied_rows


def test_gradient_threads_bitwise_identical(monkeypatch):
    # at d=9 cdist's sequential sum differs from numpy's 8-wide one
    cases = [(random_dataset(6, n=120, d=d, k=3), tanh_embedding(d)) for d in (3, 9)]
    references = [
        [objective_and_gradient(ds, K1, embedding=e) for e in (None, embedding)]
        for ds, embedding in cases
    ]
    for chunk in row_splits(120):
        monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
        assert len(estimator._row_spans(120)) >= 3
        for workers in (1, 2):
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            for (ds, embedding), refs in zip(cases, references):
                for e, reference in zip((None, embedding), refs):
                    got = objective_and_gradient(ds, K1, embedding=e)
                    assert got.objective == reference.objective
                    np.testing.assert_array_equal(got.gradients, reference.gradients)


def test_gradient_matches_dense_oracle(monkeypatch):
    ds = random_dataset(13, n=40, d=2, k=3)
    # one row so far away that its similarity mass underflows to zero
    far = ds.points.copy()
    far[17] = [1e3, -1e3]
    ds = ds.with_points(far)
    objective, gradients = dense_gradient(ds, 1.0)
    for chunk in (None,) + row_splits(ds.n):
        if chunk is not None:
            monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
        report = objective_and_gradient(ds, K1)
        assert report.fallback_rows == (17,)
        assert report.objective == objective
        np.testing.assert_array_equal(report.gradients, gradients)
    np.testing.assert_array_equal(gradients[17], [0.0, 0.0])


def test_gradient_memory_is_linear():
    n = 3000
    ds = random_dataset(14, n=n, d=2, k=3)
    tracemalloc.start()
    try:
        objective_and_gradient(ds, K1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # one dense n x n float64 array would be n * n * 8 bytes
    assert peak < n * n * 8 / 4


def test_project_linf_inside_unchanged():
    c = PerturbationConstraint(norm_order="linf", radius=0.1)
    row = np.array([0.05, -0.03])
    np.testing.assert_array_equal(project(row, c), row)


def test_project_linf_clamps():
    c = PerturbationConstraint(norm_order="linf", radius=0.1)
    out = project(np.array([0.3, -0.01]), c)
    np.testing.assert_allclose(out, [0.1, -0.01], atol=1e-15)


def test_project_l2_rescales():
    c = PerturbationConstraint(norm_order="l2", radius=1.0)
    out = project(np.array([3.0, 4.0]), c)
    np.testing.assert_allclose(out, [0.6, 0.8], atol=1e-12)


def test_project_l2_rows_whose_squared_norm_overflows():
    c = PerturbationConstraint(norm_order="l2", radius=1.0)
    rows = np.random.default_rng(14).normal(size=(4, 2)) * 3.0
    batch = np.vstack([rows, [[1e200, 1e200], [1.7e308, -1.7e308]]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = _project_rows(batch, c)
    # the other rows keep the bits of the plain formula
    norms = np.sqrt((rows * rows).sum(axis=1))
    factors = np.where(norms > 1.0 + 1e-12, 1.0 / norms, 1.0)
    np.testing.assert_array_equal(out[:4], rows * factors[:, None])
    half = 0.5**0.5
    np.testing.assert_allclose(out[4:], [[half, half], [half, -half]], rtol=1e-15)
    # a ball wide enough to hold such a row leaves it as it is
    wide = PerturbationConstraint(norm_order="l2", radius=1e300)
    np.testing.assert_array_equal(project([1e200, -1e200], wide), [1e200, -1e200])


def test_project_rejects_non_finite():
    c = PerturbationConstraint(norm_order="l2", radius=1.0)
    with pytest.raises(ValueError, match="finite"):
        project(np.array([np.nan, 0.0]), c)


def test_project_idempotent_and_feasible():
    rng = np.random.default_rng(13)
    deltas = rng.normal(size=(200, 4)) * 3.0
    for order in ("l2", "linf"):
        c = PerturbationConstraint(norm_order=order, radius=0.7)
        for row in deltas:
            once = project(row, c)
            twice = project(once, c)
            np.testing.assert_array_equal(once, twice)
            if order == "l2":
                norm = float(np.sqrt((once**2).sum()))
            else:
                norm = float(np.abs(once).max())
            assert norm <= 0.7 + 1e-12


def test_pga_zero_iterations():
    ds = three_point_dataset()
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    config = PgaConfig(step_size=0.1, max_iterations=0)
    result = pga_maximize(ds, K1, c, config)
    np.testing.assert_array_equal(result.perturbed.points, ds.points)
    np.testing.assert_array_equal(result.deltas, np.zeros((3, 1)))
    assert len(result.trace) == 1
    assert result.trace[0] == estimate_bayes_error(ds, K1).value


def test_pga_trace_endpoints_and_length():
    ds = random_dataset(1, n=12, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    config = PgaConfig(step_size=0.02, max_iterations=8)
    result = pga_maximize(ds, K1, c, config)
    assert len(result.trace) == 9
    assert result.trace[0] == estimate_bayes_error(ds, K1).value
    assert result.trace[-1] == estimate_bayes_error(result.perturbed, K1).value


def test_pga_small_step_monotone():
    ds = random_dataset(2, n=12, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    config = PgaConfig(step_size=0.005, max_iterations=15)
    result = pga_maximize(ds, K1, c, config)
    diffs = np.diff(np.asarray(result.trace))
    assert diffs.min() >= -1e-9
    assert result.trace[-1] >= result.trace[0]
    assert result.warnings == ()


def test_pga_frozen_rows_untouched():
    ds = random_dataset(4, n=6, d=2)
    frozen = (0, 2, 4)
    c = PerturbationConstraint(norm_order="l2", radius=0.4, frozen=frozen)
    config = PgaConfig(step_size=0.01, max_iterations=10)
    result = pga_maximize(ds, K1, c, config)
    for i in frozen:
        np.testing.assert_array_equal(result.perturbed.points[i], ds.points[i])
        np.testing.assert_array_equal(result.deltas[i], np.zeros(2))
    moved = [i for i in range(6) if i not in frozen]
    assert np.abs(result.deltas[moved]).max() > 0.0
    np.testing.assert_array_equal(result.perturbed.labels, ds.labels)


def test_pga_iterates_stay_feasible():
    ds = random_dataset(5, n=10, d=3)
    c = PerturbationConstraint(norm_order="linf", radius=0.2)
    # PGA is deterministic, so a t-step run returns the t-th iterate
    runs = [
        pga_maximize(ds, K1, c, PgaConfig(step_size=0.5, max_iterations=t))
        for t in range(1, 7)
    ]
    for t, result in enumerate(runs, start=1):
        np.testing.assert_array_equal(result.trace[:t], runs[-1].trace[:t])
        assert np.abs(result.deltas).max() <= 0.2 + 1e-12


def test_pga_huge_step_warns():
    ds = random_dataset(7, n=14, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    config = PgaConfig(step_size=50.0, max_iterations=12)
    with pytest.warns(StepSizeWarning, match="2/kappa"):
        result = pga_maximize(ds, K1, c, config)
    assert result.warnings
    assert "step" in result.warnings[0]


def test_pga_deterministic_rerun():
    ds = random_dataset(9, n=16, d=3, k=3)
    c = PerturbationConstraint(norm_order="linf", radius=0.25)
    config = PgaConfig(step_size=0.03, max_iterations=10)
    a = pga_maximize(ds, K1, c, config)
    b = pga_maximize(ds, K1, c, config)
    np.testing.assert_array_equal(a.perturbed.points, b.perturbed.points)
    np.testing.assert_array_equal(a.trace, b.trace)


def test_pga_threads_bitwise_identical(monkeypatch):
    ds = random_dataset(10, n=80, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    config = PgaConfig(step_size=0.05, max_iterations=3)
    reference = pga_maximize(ds, K1, c, config)
    for chunk in row_splits(ds.n):
        monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
        assert len(estimator._row_spans(ds.n)) >= 3
        for workers in (1, 2):
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            got = pga_maximize(ds, K1, c, config)
            np.testing.assert_array_equal(got.perturbed.points, reference.perturbed.points)
            np.testing.assert_array_equal(got.deltas, reference.deltas)
            np.testing.assert_array_equal(got.trace, reference.trace)


def test_pga_rejects_all_frozen():
    ds = three_point_dataset()
    c = PerturbationConstraint(norm_order="l2", radius=0.5, frozen=(0, 1, 2))
    with pytest.raises(ValueError, match="frozen"):
        pga_maximize(ds, K1, c, PgaConfig(step_size=0.1, max_iterations=3))


def test_pga_rejects_out_of_range_frozen():
    ds = three_point_dataset()
    c = PerturbationConstraint(norm_order="l2", radius=0.5, frozen=(5,))
    with pytest.raises(ValueError, match="frozen"):
        pga_maximize(ds, K1, c, PgaConfig(step_size=0.1, max_iterations=3))


def test_pga_single_class_is_a_fixed_point():
    ds = LabeledDataset([[0.0], [1.0], [2.0]], [0, 0, 0], 1)
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = pga_maximize(ds, K1, c, PgaConfig(step_size=0.1, max_iterations=5))
    np.testing.assert_array_equal(result.perturbed.points, ds.points)
    assert result.trace[0] == 0.0
    assert result.trace[-1] == 0.0
