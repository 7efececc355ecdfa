import tracemalloc
import warnings

import numpy as np
import pytest

from bayeshield import estimator, perturb
from bayeshield.core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
)
from bayeshield.embed import EmbeddingLayer, EmbeddingMap, embed_dataset
from bayeshield.estimator import estimate_bayes_error, estimate_posteriors
from bayeshield.perturb import (
    MAX_HALVINGS,
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


def far_row_dataset(seed, n=20, d=2):
    """n - 1 clustered rows and a last row 40 away from the cluster's
    edge, whose similarity mass underflows to zero at sigma = 1. Its two
    nearest neighbours carry labels 0 and 1 and their squared distances
    differ by 0.1 to 0.4, so its posterior is far from one-hot."""
    rng = np.random.default_rng(seed)
    v, w = np.linalg.qr(rng.normal(size=(d, 2)))[0].T
    w *= 0.5
    offset = rng.choice([-1.0, 1.0]) * rng.uniform(0.1, 0.4)
    points = np.vstack([rng.normal(size=(n - 3, d)) * 0.5, 3 * v + w, 3 * v - w, 43 * v + offset * w])
    labels = np.concatenate([rng.integers(0, 2, n - 3), [0, 1], rng.integers(0, 2, 1)])
    return LabeledDataset(points, labels, 2)


def row_splits(n):
    """_CHUNK_ELEMENTS values that split an n-row pass into at least 3
    row spans: 30-row spans ending in a short one, and 1-row spans."""
    return (n * 30, 1)


def dense_gradient(ds, sigma):
    """Objective and gradient from the dense n x n weight matrix
    W = (C + C^T) * S / sigma^2 of the objective_and_gradient docstring,
    in the operation order of the streamed pass. A row whose mass is
    below the smallest normal float64 takes its posterior and its own
    terms of W from its similarities divided by its nearest neighbour's."""
    n, k, x, y = ds.n, ds.num_classes, ds.points, ds.labels
    diff = x[:, None, :] - x[None, :, :]
    sq = (diff * diff).sum(axis=2)
    sims = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(sims, 0.0)
    np.fill_diagonal(sq, np.inf)
    shifted = np.exp(-(sq - sq.min(axis=1, keepdims=True)) / (2.0 * sigma * sigma))
    num = np.stack([(sims * (y == c)).sum(axis=1) for c in range(k)], axis=1)
    den = num.sum(axis=1)
    under = np.flatnonzero(den < np.finfo(np.float64).tiny)
    for u in under:
        num[u] = [(shifted[u] * (y == c)).sum() for c in range(k)]
        den[u] = num[u].sum()
    posteriors = num / den[:, None]
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    selected = (y[None, :] == cstar[:, None]).astype(np.float64)
    coeff = (selected - pstar[:, None]) / den[:, None]
    weights = (coeff + coeff.T) * sims / (sigma * sigma)
    np.fill_diagonal(weights, 0.0)
    wsum = weights.sum(axis=1)
    mixed = (weights[:, :, None] * x[None, :, :]).sum(axis=1)
    for u in under:
        own = coeff[u] * shifted[u] / (sigma * sigma)
        wsum[u] += own.sum()
        mixed[u] += (own[:, None] * x).sum(axis=0)
        wsum += own
        mixed += own[:, None] * x[u]
    return 1.0 - pstar.mean(), (wsum[:, None] * x - mixed) / n


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
    runs = [(ds, e) for ds, embedding in cases for e in (None, embedding)]
    runs.append((far_row_dataset(6, n=120, d=3), None))
    references = [objective_and_gradient(ds, K1, embedding=e) for ds, e in runs]
    for chunk in row_splits(120):
        monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
        assert len(estimator._row_spans(120)) >= 3
        for workers in (1, 2):
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            for (ds, e), reference in zip(runs, references):
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
        assert report.objective == objective
        np.testing.assert_array_equal(report.gradients, gradients)


def test_far_row_gradient_matches_finite_differences():
    for seed in range(6):
        ds = far_row_dataset(seed)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            report = objective_and_gradient(ds, K1)
            fd = finite_difference_gradient(ds, K1)
        assert report.tied_rows == ()
        scale = np.abs(fd).max()
        assert np.abs(report.gradients - fd).max() / scale <= 1e-4
        # the far row's own posterior moves with it
        assert np.abs(report.gradients[-1]).max() > 1e-3 * scale


@pytest.mark.parametrize("r", [37.0, 37.7, 38.6])
def test_subnormal_mass_gradient_is_finite_and_continuous(r):
    # row 0 votes between rows 1 and 2, and its mass is normal at r=37.0,
    # subnormal at 37.7 and the smallest subnormal or zero at 38.6
    ds = LabeledDataset([[0.0], [r], [-(r + 0.0037)]], [0, 0, 1], 2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        report = objective_and_gradient(ds, K1)
        fd = finite_difference_gradient(ds, K1)
    # rows 1 and 2 are certain of class 0; row 0 weighs its neighbours by
    # exp(-gap / 2), gap being the difference of their squared distances
    gap = (r + 0.0037) ** 2 - r**2
    assert report.objective == pytest.approx(1.0 / (3.0 * (1.0 + np.exp(gap / 2.0))), rel=1e-9)
    assert np.abs(report.gradients - fd).max() <= 1e-4 * np.abs(fd).max()


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
    assert result.halvings == (0,) * 15


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


def assert_ascends(trace):
    trace = np.asarray(trace)
    assert np.diff(trace).min() >= -1e-9
    assert trace[-1] >= trace[0]


def count_passes(monkeypatch):
    """Count the gradient passes and the estimator passes of PGA runs."""
    calls = {"gradient": 0, "estimate": 0}

    def counted(name, module, key):
        original = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[key] += 1
            return original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counted("objective_and_gradient", perturb, "gradient")
    counted("estimate_posteriors", estimator, "estimate")
    return calls


def test_pga_huge_step_halves_and_ascends():
    ds = random_dataset(7, n=14, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    config = PgaConfig(step_size=50.0, max_iterations=12)
    result = pga_maximize(ds, K1, c, config)
    assert_ascends(result.trace)
    assert len(result.halvings) == 12
    assert 0 < max(result.halvings) <= MAX_HALVINGS


def test_pga_far_row_ascends():
    # one far row makes its neighbours' gradients steep; without halving
    # this step oscillates
    ds = far_row_dataset(10, n=80)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=0.05, max_iterations=10))
    assert_ascends(result.trace)
    assert result.trace[-1] > result.trace[0]
    assert max(result.halvings) > 0


@pytest.mark.parametrize("iterations", [1, 5])
def test_pga_stalled_step_keeps_deltas(monkeypatch, iterations):
    rng = np.random.default_rng(1)
    ds = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), 2)
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    calls = count_passes(monkeypatch)
    # every halving of this step still saturates the budget and lowers the estimate
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=1e300, max_iterations=iterations))
    assert calls["gradient"] + calls["estimate"] <= MAX_HALVINGS + 2
    np.testing.assert_array_equal(result.deltas, np.zeros((12, 2)))
    np.testing.assert_array_equal(result.perturbed.points, ds.points)
    assert np.all(result.trace == estimate_bayes_error(ds, K1).value)
    assert len(result.trace) == iterations + 1
    assert result.halvings == (MAX_HALVINGS + 1,) * iterations


def test_pga_without_halvings_makes_one_pass_per_step(monkeypatch):
    ds = random_dataset(2, n=12, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    calls = count_passes(monkeypatch)
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=0.005, max_iterations=15))
    assert result.halvings == (0,) * 15
    assert calls == {"gradient": 15, "estimate": 1}


def test_pga_deterministic_rerun():
    ds = random_dataset(9, n=16, d=3, k=3)
    c = PerturbationConstraint(norm_order="linf", radius=0.25)
    config = PgaConfig(step_size=0.03, max_iterations=10)
    a = pga_maximize(ds, K1, c, config)
    b = pga_maximize(ds, K1, c, config)
    np.testing.assert_array_equal(a.perturbed.points, b.perturbed.points)
    np.testing.assert_array_equal(a.trace, b.trace)


def test_pga_threads_bitwise_identical(monkeypatch):
    cases = [
        (random_dataset(10, n=80, d=2), PgaConfig(step_size=0.05, max_iterations=3)),
        (far_row_dataset(10, n=80), PgaConfig(step_size=0.05, max_iterations=3)),
    ]
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    references = [pga_maximize(ds, K1, c, config) for ds, config in cases]
    for chunk in row_splits(80):
        monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", chunk)
        assert len(estimator._row_spans(80)) >= 3
        for workers in (1, 2):
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            for (ds, config), reference in zip(cases, references):
                got = pga_maximize(ds, K1, c, config)
                np.testing.assert_array_equal(got.perturbed.points, reference.perturbed.points)
                np.testing.assert_array_equal(got.deltas, reference.deltas)
                np.testing.assert_array_equal(got.trace, reference.trace)
                assert got.halvings == reference.halvings


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
