import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.spatial.distance import cdist

from bayeshield import estimator, perturb
from bayeshield.core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
)
from bayeshield.embed import EmbeddingLayer, EmbeddingMap, embed_dataset
from bayeshield.estimator import (
    estimate_bayes_error,
    estimate_posteriors,
    median_heuristic_bandwidth,
)
from bayeshield.perturb import (
    MAX_HALVINGS,
    GradientReport,
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


def banded_sums(n, width, rows, columns):
    """The (width, n) sums of a symmetric pairwise pass in the operation
    order of the banded runner. Band [lo, hi) takes its columns lo:n at
    once: rows(lo, hi) gives its rows' (width, hi - lo) sums, and
    columns(lo, hi) the (width, n - hi) column sums over its rows of
    columns hi:n. Each band's sums then add to the total in band order."""
    tile = estimator._TILE
    sums = np.zeros((width, n))
    for lo in range(0, n, tile):
        hi = min(lo + tile, n)
        partial = np.zeros((width, n))
        partial[:, lo:hi] = rows(lo, hi)
        partial[:, hi:] = columns(lo, hi)
        sums[:, lo:] += partial[:, lo:]
    return sums


def dense_gradient(ds, sigma):
    """Objective and gradient from the dense n x n weight matrix
    W = (C + C^T) * S / sigma^2 of the objective_and_gradient docstring,
    in the operation order of the banded pass: rows and columns in class
    order, each class's mass summed over its own columns, and
    sum_j W[i, j] x_j taken by einsum against the transposed coordinates
    under a row of ones, which gives sum_j W[i, j], from sigma^2 W and
    then divided by sigma^2. A row whose mass is
    below the smallest normal float64 takes its posterior and its own
    terms of W from its similarities divided by its nearest
    neighbour's."""
    n, d, k = ds.n, ds.d, ds.num_classes
    order = np.argsort(ds.labels, kind="stable")
    x, y = ds.points[order], ds.labels[order]
    bounds = np.searchsorted(y, np.arange(k + 1))
    slices = list(zip(bounds[:-1], bounds[1:]))
    diff = x[:, None, :] - x[None, :, :]
    sq = (diff * diff).sum(axis=2)
    sims = np.exp(-sq / (2.0 * sigma * sigma))
    np.fill_diagonal(sims, 0.0)
    np.fill_diagonal(sq, np.inf)
    shifted = np.exp(-(sq - sq.min(axis=1, keepdims=True)) / (2.0 * sigma * sigma))
    num = banded_sums(
        n,
        k,
        lambda lo, hi: np.array([sims[lo:hi, max(a, lo) : b].sum(axis=1) for a, b in slices]),
        lambda lo, hi: np.array(
            [sims[max(a, lo) : min(b, hi), hi:].sum(axis=0) for a, b in slices]
        ),
    )
    den = num.sum(axis=0)
    under = np.flatnonzero(den < np.finfo(np.float64).tiny)
    under = under[np.argsort(order[under])]
    for u in under:
        num[:, u] = [shifted[u, a:b].sum() for a, b in slices]
        den[u] = num[:, u].sum()
    posteriors = (num / den).T
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    selected = (y[None, :] == cstar[:, None]).astype(np.float64)
    coeff = (selected - pstar[:, None]) / den[:, None]
    weights = (coeff + coeff.T) * sims
    np.fill_diagonal(weights, 0.0)
    basis = np.ascontiguousarray(np.vstack([np.ones(n), x.T]))
    sums = banded_sums(
        n,
        d + 1,
        lambda lo, hi: np.einsum("ij,kj->ki", weights[lo:hi, lo:], basis[:, lo:]),
        lambda lo, hi: np.einsum("ij,ki->kj", weights[lo:hi, hi:], basis[:, lo:hi]),
    )
    for u in under:
        terms = coeff[u] * shifted[u]
        sums[:, u] += np.einsum("j,kj->k", terms, basis)
        sums += basis[:, u, None] * terms
    sums /= sigma * sigma
    gradients, objectives = np.empty((n, d)), np.empty(n)
    gradients[order] = ((basis[1:] * sums[0] - sums[1:]) / n).T
    objectives[order] = pstar
    return 1.0 - objectives.mean(), gradients


def unused_classes_dataset(seed, n=120, d=3):
    """K=5 with labels only in {0, 2, 3}, in uneven shares: classes 1 and
    4 own no column, and the used ones own slices of unequal width."""
    rng = np.random.default_rng(seed)
    labels = rng.choice([0, 2, 3], size=n, p=[0.6, 0.3, 0.1])
    return LabeledDataset(rng.normal(size=(n, d)), labels, 5)


def fsum_oracle(ds, sigma):
    """Posteriors and gradient of the formula with every sum over a row's
    pairs taken by math.fsum, the gradient in its form
    sum_j sigma^2 W[i, j] (x_i - x_j) / sigma^2 / n. Similarities and the
    entries of sigma^2 W are the float64 values the streamed pass
    multiplies, so the oracle differs from the pass only in how it sums
    and where it divides."""
    n, k, x, y = ds.n, ds.num_classes, ds.points, ds.labels
    sims = np.exp(cdist(x, x, "sqeuclidean") / (-2.0 * sigma * sigma))
    np.fill_diagonal(sims, 0.0)
    num = np.array([[math.fsum(row[y == c]) for c in range(k)] for row in sims])
    den = np.array([math.fsum(row) for row in sims])
    posteriors = num / den[:, None]
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    coeff = ((y[None, :] == cstar[:, None]) - pstar[:, None]) / den[:, None]
    weights = (coeff + coeff.T) * sims
    gradients = np.array(
        [[math.fsum(w * (x[i, m] - x[:, m])) for m in range(ds.d)] for i, w in enumerate(weights)]
    )
    return posteriors, gradients / (sigma * sigma) / n


def test_default_step_size():
    assert default_step_size(200, 0.25) == pytest.approx(0.0036 * 200 * 0.25)
    with pytest.raises(ValueError, match="at least 2"):
        default_step_size(0, 0.25)
    for radius in (0.0, np.inf, np.nan):
        with pytest.raises(ValueError, match=f"radius must be a positive finite real, got {radius}"):
            default_step_size(10, radius)
    with pytest.raises(ValueError, match=r"overflows at n=1000, radius=1e\+308"):
        default_step_size(1000, 1e308)


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


@pytest.mark.parametrize("embedded", [False, True], ids=["plain", "embedded"])
def test_gradient_floor_skips_pass_b_below_it(monkeypatch, embedded):
    ds = random_dataset(3, n=15, d=3, k=3)
    embedding = tanh_embedding(3) if embedded else None
    full = objective_and_gradient(ds, K1, embedding=embedding)
    calls = count_passes(monkeypatch)
    kept = objective_and_gradient(ds, K1, embedding=embedding, floor=full.objective)
    assert kept.objective == full.objective
    assert kept.gradients.tobytes() == full.gradients.tobytes()
    assert calls == {"posterior": 1, "kept": 1, "gradient": 1}
    # the candidate below the floor drops its kept strips unused
    above = np.nextafter(full.objective, 1.0)
    assert objective_and_gradient(ds, K1, embedding=embedding, floor=above) is None
    assert calls == {"posterior": 2, "kept": 2, "gradient": 1}


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


def test_gradient_report_validation():
    with pytest.raises(ValueError, match=r"^gradients must be 2-d, got shape \(3,\)$"):
        GradientReport(objective=0.1, gradients=[0.0, 1.0, 2.0])


def test_gradient_threads_bitwise_identical(monkeypatch, pools):
    # at d=9 cdist's sequential sum differs from numpy's 8-wide one; at
    # d=64 pass B adds 65-row sums per band, as on the mixture workload
    cases = [(random_dataset(6, n=120, d=d, k=3), tanh_embedding(d)) for d in (3, 9, 64)]
    runs = [(ds, e) for ds, embedding in cases for e in (None, embedding)]
    runs.append((far_row_dataset(6, n=120, d=3), None))
    runs.append((unused_classes_dataset(6), None))
    runs.append((LabeledDataset(cases[0][0].points, np.zeros(120, dtype=int), 1), None))
    # a chunk of 1 lifts the cap of one worker per _CHUNK_ELEMENTS pairs,
    # so _WORKERS sets the count. 64-row bands give the pass two, fewer
    # than three workers; 8-row bands give it 15, which three workers take
    # five each, worker w bands w, w + 3 and so on, and 64 run one worker
    # per band. The references are recomputed at each band width. Pass B
    # weighs pass A's kept strips, and under a scratch budget of 0 computes
    # them again
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    scratch = estimator._SCRATCH
    for tile in (estimator._TILE, 8):
        monkeypatch.setattr(estimator, "_TILE", tile)
        monkeypatch.setattr(estimator, "_SCRATCH", scratch)
        monkeypatch.setattr(estimator, "_WORKERS", 1)
        references = [objective_and_gradient(ds, K1, embedding=e) for ds, e in runs]
        for budget, workers in itertools.product((scratch, 0), (1, 2, 3, 64)):
            monkeypatch.setattr(estimator, "_SCRATCH", budget)
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            pools.clear()
            for (ds, e), reference in zip(runs, references):
                got = objective_and_gradient(ds, K1, embedding=e)
                assert got.objective == reference.objective
                assert got.gradients.tobytes() == reference.gradients.tobytes()
            if budget:
                assert min(pools) > 1 if workers > 1 else set(pools) == {1}
            else:
                # an eighth of n x n doubles holds no worker's scratch here
                assert set(pools) == {1}


def test_gradient_bits_do_not_follow_the_worker_count_at_d1(monkeypatch, pools):
    # at d=1 an einsum over more than 8192 columns sums in buffer-sized
    # blocks, split by how many rows it takes; every einsum of the pass
    # has the shape of a band's strip, which depends on n and the band
    # alone, not on the worker that computes it
    ds = random_dataset(20, n=9000, d=1, k=3)
    kernel = SimilarityKernel(bandwidth=0.5)
    monkeypatch.setattr(estimator, "_WORKERS", 1)
    reference = objective_and_gradient(ds, kernel).gradients.tobytes()
    monkeypatch.setattr(estimator, "_WORKERS", 2)
    pools.clear()
    assert objective_and_gradient(ds, kernel).gradients.tobytes() == reference
    assert pools == [2, 2]


def test_gradient_matches_dense_oracle(monkeypatch):
    cases = []
    # the 200-row sample holds four bands, so its rows add column sums of
    # earlier bands to their own
    for ds in (
        random_dataset(13, n=40, d=2, k=3),
        unused_classes_dataset(13, n=40, d=2),
        random_dataset(13, n=200, d=2, k=3),
    ):
        # one row so far away that its similarity mass underflows to zero
        far = ds.points.copy()
        far[17] = [1e3, -1e3]
        cases.append(ds.with_points(far))
    # two such rows, 60 away on either side of a tight cluster, so both add
    # terms of W of the same order to every cluster row; row 5 has label 2
    # and row 30 label 0, so class order puts them the other way round
    ds = random_dataset(13, n=40, d=2, k=3)
    points, labels = ds.points * 0.01, ds.labels.copy()
    points[[5, 30]] = [[60.0, 0.0], [-60.0, 0.0]]
    labels[[5, 30]] = [2, 0]
    cases.append(LabeledDataset(points, labels, 3))
    # 16-row bands give every case several bands; at sigma = 0.7, sigma^2
    # is no power of two, so dividing by it rounds. A chunk of 1 lets
    # _WORKERS set the worker count. Pass B weighs pass A's kept strips,
    # and under a scratch budget of 0 computes them again
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    scratch = estimator._SCRATCH
    for tile in (estimator._TILE, 16):
        monkeypatch.setattr(estimator, "_TILE", tile)
        for ds, sigma in itertools.product(cases, (1.0, 0.7)):
            objective, gradients = dense_gradient(ds, sigma)
            bits = set()
            for budget, workers in itertools.product((scratch, 0), (1, 2, 3)):
                monkeypatch.setattr(estimator, "_SCRATCH", budget)
                monkeypatch.setattr(estimator, "_WORKERS", workers)
                report = objective_and_gradient(ds, SimilarityKernel(bandwidth=sigma))
                assert report.objective == objective
                np.testing.assert_array_equal(report.gradients, gradients)
                bits.add(report.gradients.tobytes())
            assert len(bits) == 1


# (d, K) of the accuracy instances, d from 2 to 64 and K from 2 to 10
ACCURACY_SHAPES = [(2, 2), (3, 10), (5, 4), (8, 3), (13, 7), (21, 2), (34, 5), (64, 10)]


def accuracy_dataset(seed, d, k, n=400):
    rng = np.random.default_rng(seed)
    labels = rng.integers(0, k, n)
    centers = rng.normal(size=(k, d))
    return LabeledDataset(centers[labels] + rng.normal(size=(n, d)), labels, k)


def test_pass_is_within_rounding_of_an_fsum_oracle():
    eps = np.finfo(np.float64).eps
    cases = [accuracy_dataset(seed, d, k) for seed, (d, k) in enumerate(ACCURACY_SHAPES)]
    # at n=2000 a band's strip runs over up to 2000 columns
    cases.append(accuracy_dataset(len(ACCURACY_SHAPES), 2, 2, n=2000))
    for ds in cases:
        kernel = SimilarityKernel(bandwidth=median_heuristic_bandwidth(ds))
        posteriors, gradients = fsum_oracle(ds, kernel.bandwidth)
        got = estimate_posteriors(ds, kernel).values
        assert np.abs(got - posteriors).max() <= 4 * eps
        report = objective_and_gradient(ds, kernel)
        assert np.abs(report.gradients - gradients).max() <= 1e-14 * np.abs(gradients).max()


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


@pytest.mark.parametrize(
    "workers, n",
    [(16, 3000), (64, 3000), (16, 1416), (64, 1416)],
    ids=["16", "64", "16-kept", "64-kept"],
)
def test_pass_memory_stays_linear_on_many_workers(monkeypatch, workers, n):
    # each worker holds its own scratch, so a many-CPU machine must not
    # push either pass towards a dense array; at n=3000 there are 47
    # bands, enough for 47 workers, and the scratch budget alone keeps
    # them from all running. n=1416 is the largest n whose strips fit in
    # _SCRATCH doubles, so its gradient keeps pass A's strips through
    # pass B; n=3000 keeps none. The workers' scratch stays within an
    # eighth of n x n doubles or _SCRATCH, whichever is larger, and the
    # kept strips within _SCRATCH; besides them a pass holds O(n (d + K))
    # arrays and numpy's buffers of 64 kB a worker
    monkeypatch.setattr(estimator, "_WORKERS", workers)
    d, k = 2, 3
    ds = random_dataset(14, n=n, d=d, k=k)
    scratch = max(n * n // 8, estimator._SCRATCH)
    kept = estimator._SCRATCH if n <= 1416 else 0
    for run, strips in ((estimate_posteriors, 0), (objective_and_gradient, kept)):
        tracemalloc.start()
        try:
            run(ds, K1)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * (strips + scratch + 32 * n * (d + k))


@pytest.mark.parametrize("norm, radius", [("linf", 8 / 255), ("l2", 0.5)])
def test_pga_memory_is_a_few_point_arrays(norm, radius):
    # CIFAR-shaped rows through an embedding, so the pairwise pass is small
    n, d = 200, 3072
    rng = np.random.default_rng(15)
    ds = LabeledDataset(rng.uniform(size=(n, d)), rng.integers(0, 10, n), 10)
    embedding = EmbeddingMap((
        EmbeddingLayer(rng.normal(0.0, d**-0.5, (16, d)), np.zeros(16), "tanh"),
        EmbeddingLayer(rng.normal(0.0, 0.25, (8, 16)), np.zeros(8), "tanh"),
    ))
    c = PerturbationConstraint(norm_order=norm, radius=radius)
    config = PgaConfig(step_size=default_step_size(n, radius), max_iterations=2)
    tracemalloc.start()
    try:
        pga_maximize(ds, SimilarityKernel(0.4), c, config, embedding=embedding)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # the deltas, the candidate, the perturbed points and the gradient,
    # then the result's two copies in place of the candidate and gradient
    assert peak < 5 * n * d * 8


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
        out = _project_rows(batch.copy(), c, np.empty_like(batch))
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


def test_pga_result_holds_read_only_copies():
    # the ascent overwrites its buffers in place, so the result must copy them
    ds = random_dataset(1, n=12, d=2)
    c = PerturbationConstraint(norm_order="linf", radius=0.3)
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=0.02, max_iterations=3))
    arrays = (result.deltas, result.perturbed.points, result.trace)
    assert not any(a.flags.writeable for a in arrays)
    assert all(a.flags.owndata for a in arrays)
    assert result.perturbed.points.tobytes() == (ds.points + result.deltas).tobytes()


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
    """Count the posterior passes (pass A, which scores a sample), those
    of them that kept their strips for a pass B, and the gradient's second
    passes (pass B, a call that returns a gradient) of PGA runs."""
    calls = {"posterior": 0, "kept": 0, "gradient": 0}
    posterior_pass = estimator._posterior_pass
    objective_and_gradient = perturb._objective_and_gradient

    def counted_posterior(*args, **kwargs):
        out = posterior_pass(*args, **kwargs)
        calls["posterior"] += 1
        calls["kept"] += out[-1] is not None
        return out

    def counted_gradient(*args):
        out = objective_and_gradient(*args)
        calls["gradient"] += out[1] is not None
        return out

    monkeypatch.setattr(estimator, "_posterior_pass", counted_posterior)
    monkeypatch.setattr(perturb, "_objective_and_gradient", counted_gradient)
    return calls


def test_pga_huge_step_halves_and_ascends(monkeypatch):
    ds = random_dataset(7, n=14, d=2)
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    config = PgaConfig(step_size=50.0, max_iterations=12)
    calls = count_passes(monkeypatch)
    result = pga_maximize(ds, K1, c, config)
    assert_ascends(result.trace)
    assert len(result.halvings) == 12
    assert 0 < max(result.halvings) <= MAX_HALVINGS
    # every candidate is scored by one posterior pass, and pass B runs for
    # the start and for each kept step but the last. Every pass A keeps its
    # strips but those of the last step's candidates, scored by the estimator
    assert calls["posterior"] == 1 + sum(h + 1 for h in result.halvings)
    assert calls["kept"] == calls["posterior"] - (result.halvings[-1] + 1)
    assert calls["gradient"] == 1 + 11


def test_pga_far_row_ascends():
    # one far row makes its neighbours' gradients steep; without halving
    # this step oscillates
    ds = far_row_dataset(10, n=80)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=0.05, max_iterations=10))
    assert_ascends(result.trace)
    assert result.trace[-1] > result.trace[0]
    assert max(result.halvings) > 0


@pytest.mark.parametrize(
    "norm, radius, step, first_halvings",
    [
        ("l2", 0.3, 0.05, (2, 3, 6, 11)),
        ("linf", 0.1, 0.05, (2, 3, 6, 11)),
        # at step 0.05 no row reaches the budget; at step 50 rows do
        ("l2", 0.3, 50.0, (0, 0, 0, 7)),
        ("linf", 0.1, 50.0, (0, 0, 0, 3)),
    ],
)
def test_pga_frozen_rows_stay_zero_under_halved_steps(norm, radius, step, first_halvings):
    ds = far_row_dataset(10, n=80)
    frozen = list(range(0, 80, 4))
    c = PerturbationConstraint(norm_order=norm, radius=radius, frozen=frozenset(frozen))
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=step, max_iterations=12))
    assert result.halvings[:4] == first_halvings
    assert_ascends(result.trace)
    # +0.0 bits, with no -0.0, and the input's points
    assert result.deltas[frozen].tobytes() == np.zeros((len(frozen), 2)).tobytes()
    assert result.perturbed.points[frozen].tobytes() == ds.points[frozen].tobytes()
    reach = np.linalg.norm(result.deltas, ord=2 if norm == "l2" else np.inf, axis=1)
    assert (reach > radius - 1e-9).any() == (step > 1.0)


@pytest.mark.parametrize("iterations", [1, 5])
def test_pga_stalled_step_keeps_deltas(monkeypatch, iterations):
    rng = np.random.default_rng(1)
    ds = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), 2)
    c = PerturbationConstraint(norm_order="l2", radius=0.5)
    calls = count_passes(monkeypatch)
    # every halving of this step still saturates the budget and lowers the estimate
    result = pga_maximize(ds, K1, c, PgaConfig(step_size=1e300, max_iterations=iterations))
    # the start's pass A keeps its strips, and so do the rejected
    # candidates' unless the estimator scores them, at the last step
    rejected = MAX_HALVINGS + 1
    kept = 1 + (rejected if iterations > 1 else 0)
    assert calls == {"posterior": 1 + rejected, "kept": kept, "gradient": 1}
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
    assert calls == {"posterior": 16, "kept": 15, "gradient": 15}


@pytest.mark.parametrize("embedded", [False, True], ids=["plain", "embedded"])
def test_pga_scores_through_the_public_passes(monkeypatch, embedded):
    # every step but the last is scored by objective_and_gradient, the last
    # by the estimator, so a tracer of the public functions sees each pass,
    # also through an embedding
    ds = random_dataset(2, n=12, d=2)
    embedding = tanh_embedding(2) if embedded else None
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    calls = {"objective_and_gradient": 0, "estimate_posteriors": 0}
    for module, name in ((perturb, "objective_and_gradient"), (estimator, "estimate_posteriors")):
        def wrapper(*args, _original=getattr(module, name), _name=name, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)
    result = pga_maximize(
        ds, K1, c, PgaConfig(step_size=0.005, max_iterations=15), embedding=embedding
    )
    assert result.halvings == (0,) * 15
    assert calls == {"objective_and_gradient": 15, "estimate_posteriors": 1}


STEP_0 = r"ascent step 0 at step size 0\.005, radius 0\.3: "


# the start's gradient is taken before any step, so its error names none
@pytest.mark.parametrize("source, poisoned_call, prefix", [
    pytest.param(source, call, prefix, id=f"{tag}{source}")
    for call, prefix, tag in ((1, "", "start-"), (2, STEP_0, ""))
    for source in ("_objective_and_gradient", "pullback_gradients")
])
def test_pga_non_finite_kept_gradient_names_the_step(monkeypatch, source, poisoned_call, prefix):
    ds = random_dataset(2, n=12, d=2)
    embedding = tanh_embedding(2) if source == "pullback_gradients" else None
    original = getattr(perturb, source)
    calls = []

    def poisoned(*args):
        out = original(*args)
        gradient_pass = source == "_objective_and_gradient"
        if gradient_pass and out[1] is None:
            return out
        calls.append(None)
        if len(calls) != poisoned_call:
            return out
        if gradient_pass:
            return out[0], (out[1][0], np.full_like(out[1][1], np.inf))
        return np.full_like(out, np.inf)

    monkeypatch.setattr(perturb, source, poisoned)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    with pytest.raises(ValueError, match=f"^{prefix}gradients contain non-finite values$"):
        pga_maximize(ds, K1, c, PgaConfig(step_size=0.005, max_iterations=3), embedding=embedding)


def test_pga_deterministic_rerun():
    ds = random_dataset(9, n=16, d=3, k=3)
    c = PerturbationConstraint(norm_order="linf", radius=0.25)
    config = PgaConfig(step_size=0.03, max_iterations=10)
    a = pga_maximize(ds, K1, c, config)
    b = pga_maximize(ds, K1, c, config)
    np.testing.assert_array_equal(a.perturbed.points, b.perturbed.points)
    np.testing.assert_array_equal(a.trace, b.trace)


def test_pga_threads_bitwise_identical(monkeypatch, pools):
    l2 = PerturbationConstraint(norm_order="l2", radius=0.3)
    linf = PerturbationConstraint(norm_order="linf", radius=0.3, frozen=tuple(range(0, 80, 4)))
    small, large = (PgaConfig(step_size=eta, max_iterations=3) for eta in (0.05, 100.0))
    # at the large step most free rows end on the budget's boundary, and
    # the embedded run halves its last step twice
    cases = [
        (random_dataset(10, n=80, d=2), l2, small, None),
        (far_row_dataset(10, n=80), l2, small, None),
        (random_dataset(11, n=80, d=2), linf, large, None),
        (random_dataset(12, n=80, d=2), l2, large, tanh_embedding(2)),
    ]
    # a chunk of 1 lifts the cap of one worker per _CHUNK_ELEMENTS pairs,
    # so _WORKERS sets the count. 64-row bands give the pass two, fewer
    # than three workers; 8-row bands give it 10, which three workers take
    # four, three and three, worker w bands w, w + 3 and so on, and 64 run
    # one worker per band. The references are recomputed at each band
    # width. Pass B weighs pass A's kept strips, and under a scratch budget
    # of 0 computes them again
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    scratch = estimator._SCRATCH
    for tile in (estimator._TILE, 8):
        monkeypatch.setattr(estimator, "_TILE", tile)
        monkeypatch.setattr(estimator, "_SCRATCH", scratch)
        monkeypatch.setattr(estimator, "_WORKERS", 1)
        references = [pga_maximize(ds, K1, c, config, embedding=e) for ds, c, config, e in cases]
        assert references[3].halvings == (0, 0, 2)
        for budget, workers in itertools.product((scratch, 0), (1, 2, 3, 64)):
            monkeypatch.setattr(estimator, "_SCRATCH", budget)
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            pools.clear()
            for (ds, c, config, e), reference in zip(cases, references):
                got = pga_maximize(ds, K1, c, config, embedding=e)
                assert got.perturbed.points.tobytes() == reference.perturbed.points.tobytes()
                assert got.deltas.tobytes() == reference.deltas.tobytes()
                assert got.trace.tobytes() == reference.trace.tobytes()
                assert got.halvings == reference.halvings
            if budget:
                assert min(pools) > 1 if workers > 1 else set(pools) == {1}
            else:
                # an eighth of n x n doubles holds no worker's scratch here
                assert set(pools) == {1}


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
