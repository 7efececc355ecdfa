import collections
import importlib.machinery
import itertools
import json
import math
import pathlib
import re
import subprocess
import sys
import threading
import time
import tracemalloc
import types

import numpy as np
import pytest
from scipy.spatial.distance import cdist, pdist

from bayeshield import estimator
from bayeshield.core import LabeledDataset, SimilarityKernel
from bayeshield.estimator import (
    BayesErrorEstimate,
    _run_bands,
    estimate_bayes_error,
    estimate_posteriors,
    median_heuristic_bandwidth,
)
from bayeshield.perturb import objective_and_gradient

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


def test_posteriors_identical_points():
    ds = LabeledDataset([[0.0], [0.0], [0.0], [0.0]], [0, 0, 1, 1], 2)
    pm = estimate_posteriors(ds, K1)
    # each point sees one same-label and two other-label unit votes
    expected = np.array(
        [[1 / 3, 2 / 3], [1 / 3, 2 / 3], [2 / 3, 1 / 3], [2 / 3, 1 / 3]]
    )
    np.testing.assert_allclose(pm.values, expected, atol=1e-15)


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


def test_posteriors_underflow_takes_the_nearest_neighbour_limit():
    # each row's only neighbour is 1e4 away, so its mass is exp(-5e7) = 0
    ds = LabeledDataset([[0.0], [1e4]], [0, 1], 2)
    np.testing.assert_array_equal(estimate_posteriors(ds, K1).values, [[0.0, 1.0], [1.0, 0.0]])
    assert estimate_bayes_error(ds, K1).value == 0.0


def test_posteriors_reject_an_overflowing_nearest_distance():
    # the squared distance 1e400 is inf in float64, so no neighbour is nearest
    ds = LabeledDataset([[0.0], [1e200]], [0, 1], 2)
    with pytest.raises(ValueError, match="overflows"):
        estimate_posteriors(ds, K1)


@pytest.mark.parametrize(
    "points, labels, row",
    [
        ([[0.0], [1.0], [1e200]], [1, 1, 0], 2),
        ([[0.0], [1e200], [1.0], [-1e200]], [1, 1, 1, 0], 1),
    ],
    ids=["sorted-first", "two-rows"],
)
def test_overflow_error_names_the_lowest_input_row(points, labels, row):
    # class order puts the last row first; the error still names its input index
    ds = LabeledDataset(points, labels, 2)
    with pytest.raises(ValueError, match=rf"^row {row}: squared distance"):
        estimate_posteriors(ds, K1)
    with pytest.raises(ValueError, match=rf"^row {row}: squared distance"):
        objective_and_gradient(ds, K1)


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
    for value, pmax, message in [
        (0.5, [], "per_sample_max_posterior must be a non-empty vector"),
        (0.5, [[0.5]], "per_sample_max_posterior must be a non-empty vector"),
        (0.0, [1.0, 1.5], "max posteriors must lie in [0, 1]"),
        (0.25, [0.5, 0.5], "value inconsistent with per-sample posteriors"),
    ]:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            BayesErrorEstimate(value=value, per_sample_max_posterior=pmax)


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


def test_threads_do_not_change_bits(monkeypatch, pools):
    rng = np.random.default_rng(10)
    kernel = SimilarityKernel(bandwidth=0.7)
    # at d=9 cdist's sequential sum differs from numpy's 8-wide one
    cases = [random_dataset(rng, n=150, d=d, k=3) for d in (3, 9)]
    # rows whose similarity mass underflows: one alone, and a pair whose
    # only mass is exp(-720) of each other
    far = cases[0].points.copy()
    far[[20, 90, 140]] = [[1e3, 0.0, 0.0], [0.0, 1e3, 0.0], [0.0, 1e3, (720 * 2 * 0.7**2) ** 0.5]]
    cases.append(cases[0].with_points(far))
    # K=5 with labels only in {0, 2, 3} leaves two classes without columns
    # and the others with slices of unequal width; K=1 has one slice
    labels = rng.choice([0, 2, 3], size=150, p=[0.6, 0.3, 0.1])
    cases.append(LabeledDataset(cases[1].points, labels, 5))
    cases.append(LabeledDataset(cases[0].points, np.zeros(150, dtype=int), 1))
    # a chunk of 1 lifts the cap of one worker per _CHUNK_ELEMENTS pairs,
    # so _WORKERS sets the count. 64-row bands give the pass three, fewer
    # than 64 workers; 8-row bands give it 19, which three workers take
    # seven, six and six, worker w bands w, w + 3 and so on. The references
    # are recomputed at each band width. The gradient's pass A keeps its
    # strips, and under a scratch budget of 0 it keeps none
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    scratch = estimator._SCRATCH
    for tile in (estimator._TILE, 8):
        monkeypatch.setattr(estimator, "_TILE", tile)
        monkeypatch.setattr(estimator, "_SCRATCH", scratch)
        monkeypatch.setattr(estimator, "_WORKERS", 1)
        references = [
            (estimate_posteriors(ds, kernel).values, estimate_bayes_error(ds, kernel).value)
            for ds in cases
        ]
        for budget, workers in itertools.product((scratch, 0), (1, 2, 3, 64)):
            monkeypatch.setattr(estimator, "_SCRATCH", budget)
            monkeypatch.setattr(estimator, "_WORKERS", workers)
            pools.clear()
            for ds, (reference, value) in zip(cases, references):
                got = estimate_posteriors(ds, kernel)
                assert got.values.tobytes() == reference.tobytes()
                assert estimate_bayes_error(ds, kernel).value == value
                assert objective_and_gradient(ds, kernel).objective == value
            if budget:
                assert min(pools) > 1 if workers > 1 else set(pools) == {1}
            else:
                # an eighth of 150 x 150 doubles holds no more than two
                # workers' scratch
                assert max(pools) <= min(workers, 2)


def test_scratch_budget_sets_the_workers_without_changing_bits(monkeypatch, pools):
    # 4-row bands give n=300 75 of them, and with no floor the budget is
    # an eighth of n x n, 11250 doubles: room for 5 workers of pass A at
    # (4 + 3) * 300 doubles each and 3 of pass B at (2 * 4 + 4) * 300,
    # fewer than the 64 CPUs and the 75 bands
    monkeypatch.setattr(estimator, "_TILE", 4)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(estimator, "_WORKERS", 1)
    ds = random_dataset(np.random.default_rng(22), n=300, d=3, k=3)
    posteriors = estimate_posteriors(ds, K1).values.tobytes()
    gradients = objective_and_gradient(ds, K1).gradients.tobytes()
    pools.clear()
    monkeypatch.setattr(estimator, "_WORKERS", 64)
    monkeypatch.setattr(estimator, "_SCRATCH", 0)
    assert estimate_posteriors(ds, K1).values.tobytes() == posteriors
    assert objective_and_gradient(ds, K1).gradients.tobytes() == gradients
    assert pools == [5, 5, 3]


@pytest.mark.parametrize(
    "n, budget, strips",
    [(150, None, 1), (1416, None, 1), (1417, None, 2), (150, 0, 2)],
    ids=["kept", "largest-kept", "recomputed", "no-budget"],
)
def test_gradient_computes_each_strip_once_when_kept(monkeypatch, n, budget, strips):
    # pass A keeps its strips when all of them fit in _SCRATCH doubles, in
    # 64-row bands up to n=1416, and pass B then weighs them in place;
    # otherwise pass B computes each strip again
    calls = collections.Counter()
    similarity_rows = estimator._similarity_rows

    def counted(points, lo, hi, *args, **kwargs):
        calls[lo, hi] += 1
        return similarity_rows(points, lo, hi, *args, **kwargs)

    if budget is not None:
        monkeypatch.setattr(estimator, "_SCRATCH", budget)
    monkeypatch.setattr(estimator, "_similarity_rows", counted)
    ds = random_dataset(np.random.default_rng(23), n=n, d=2, k=3)
    objective_and_gradient(ds, K1)
    tile = estimator._TILE
    assert calls == {(lo, min(lo + tile, n)): strips for lo in range(0, n, tile)}


def test_small_pass_runs_on_the_calling_thread(monkeypatch, pools):
    threads = {}
    similarity_rows = estimator._similarity_rows

    def recorded(points, lo, *args, **kwargs):
        threads.setdefault(lo, []).append(threading.current_thread())
        return similarity_rows(points, lo, *args, **kwargs)

    monkeypatch.setattr(estimator, "_similarity_rows", recorded)
    monkeypatch.setattr(estimator, "_WORKERS", 4)
    ds = random_dataset(np.random.default_rng(11), n=40, d=2, k=2)
    estimate_posteriors(ds, K1)
    objective_and_gradient(ds, K1)
    # one fill for the estimate and one for the gradient, whose pass B
    # weighs pass A's kept strip
    assert threads == {0: [threading.current_thread()] * 2}
    # one worker per 65536 of the n x n pairs: at n=300 one, though the
    # pass has five bands, and at n=400 two, of seven bands, whatever the
    # CPUs and the scratch budget would allow
    monkeypatch.setattr(estimator, "_WORKERS", 64)
    for n, workers in ((300, 1), (400, 2)):
        pools.clear()
        sample = random_dataset(np.random.default_rng(11), n=n, d=2, k=3)
        estimate_posteriors(sample, K1)
        objective_and_gradient(sample, K1)
        assert pools == [workers] * 3
    # in a pass of four bands on four workers the calling thread fills the
    # first and the pool the others
    monkeypatch.setattr(estimator, "_WORKERS", 4)
    monkeypatch.setattr(estimator, "_TILE", 10)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 40 * 10)
    threads.clear()
    estimate_posteriors(ds, K1)
    assert sorted(threads) == [0, 10, 20, 30]
    assert threads.pop(0) == [threading.current_thread()]
    assert threading.current_thread() not in sum(threads.values(), [])


SPATIAL_GUARD = """
import importlib.machinery, json, pathlib, sys, threading
import bayeshield, bayeshield.cli
from bayeshield import estimator
from bayeshield.core import LabeledDataset, SimilarityKernel
from bayeshield.perturb import objective_and_gradient
HEAVY = ("scipy.spatial", "scipy.linalg", "scipy.special")


def heavy():
    return sorted(name for name in sys.modules if name.startswith(HEAVY))


loads = []
threads = set()


class Recorder(importlib.machinery.ExtensionFileLoader):
    def exec_module(self, module):
        on_main = threading.current_thread() is threading.main_thread()
        loads.append([pathlib.Path(self.path).name.split(".")[0], on_main])
        super().exec_module(module)


similarity_rows = estimator._similarity_rows


def recorded_rows(*args, **kwargs):
    threads.add(threading.current_thread())
    return similarity_rows(*args, **kwargs)


importlib.machinery.ExtensionFileLoader = Recorder
estimator._similarity_rows = recorded_rows
estimator._WORKERS = 2
estimator._TILE = 10
estimator._CHUNK_ELEMENTS = 40 * 10
after_import = heavy()
ds = LabeledDataset(json.loads(sys.argv[1]), [0, 1] * 20, 2)
kernel = SimilarityKernel(bandwidth=1.0)
value = estimator.estimate_bayes_error(ds, kernel).value
workers = len(threads)
gradients = objective_and_gradient(ds, kernel).gradients
after_passes = heavy()
median = estimator.median_heuristic_bandwidth(ds)
print(json.dumps({
    "heavy": [after_import, after_passes, heavy()],
    "loads": loads,
    "workers": workers,
    "value": value,
    "gradients": gradients.tolist(),
    "median": median,
}))
"""


def test_distance_kernels_load_without_scipy_spatial(monkeypatch):
    points = np.random.default_rng(17).normal(size=(40, 2))
    result = subprocess.run(
        [sys.executable, "-c", SPATIAL_GUARD, json.dumps(points.tolist())],
        capture_output=True,
        text=True,
        check=True,
    )
    got = json.loads(result.stdout)
    # none of them after import, after two-worker passes, after the median
    assert got["heavy"] == [[], [], []]
    # the compiled module loaded once, on the calling thread, before any band ran
    assert got["loads"] == [["_distance_pybind", True]]
    assert got["workers"] == 2
    # the bits follow the band width, so the same bands here
    monkeypatch.setattr(estimator, "_TILE", 10)
    ds = LabeledDataset(points, [0, 1] * 20, 2)
    assert got["value"] == estimate_bayes_error(ds, K1).value
    np.testing.assert_array_equal(got["gradients"], objective_and_gradient(ds, K1).gradients)
    assert got["median"] == float(np.median(pdist(points)))


def test_distance_kernels_are_scipys_compiled_module():
    # a scipy that moves or renames the module fails here rather than
    # running every pass through the slower public import
    kernels = estimator._distances()
    assert isinstance(kernels, types.ModuleType)
    path = pathlib.Path(kernels.__file__)
    assert path.parent.name == "spatial" and path.parent.parent.name == "scipy"
    assert path.name.startswith("_distance_pybind.")
    assert kernels.__name__ not in sys.modules


def distance_sample(seed, d):
    """Rows at a seeded scale with duplicates, whose distances to every
    other row tie exactly."""
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 90))
    scale = 10.0 ** rng.uniform(-3, 3)
    points = rng.normal(size=(n, d)) * scale
    points[n // 3] = points[0]
    points[n // 2] = points[1]
    # and two rows one scale either side of a third along the first axis
    points[2:5] = points[5]
    points[2, 0] -= scale
    points[3, 0] += scale
    return points


@pytest.mark.parametrize("d", [1, 2, 64, 300])
@pytest.mark.parametrize("seed", range(3))
def test_distance_kernels_match_public_cdist_and_pdist(seed, d):
    kernels = estimator._distances()
    points = distance_sample(seed, d)
    n = points.shape[0]
    for lo, hi, start in [(0, n, 0), (0, 10, 0), (7, 19, 7), (n - 5, n, 3)]:
        out = np.empty((hi - lo, n - start))
        got = kernels.cdist_sqeuclidean(points[lo:hi], points[start:], out=out)
        assert got is out
        expected = cdist(points[lo:hi], points[start:], "sqeuclidean")
        assert got.tobytes() == expected.tobytes()
    assert kernels.pdist_euclidean(points).tobytes() == pdist(points).tobytes()


@pytest.mark.parametrize(
    "out, columns",
    [
        (np.empty((4, 9)), 3),
        (np.empty((10, 4)).T, 3),
        (np.empty((4, 10), dtype=np.int64), 3),
        (np.empty((4, 10)), 2),
    ],
    ids=["shape", "non-contiguous", "integer", "columns"],
)
def test_distance_kernels_check_their_arguments(out, columns):
    points = np.random.default_rng(3).normal(size=(10, 3))
    with pytest.raises(ValueError):
        estimator._distances().cdist_sqeuclidean(points[:4], points[:, :columns], out=out)


class FailingLoader(importlib.machinery.ExtensionFileLoader):
    def exec_module(self, module):
        raise ImportError("forced failure")


class BareLoader(importlib.machinery.ExtensionFileLoader):
    def exec_module(self, module):
        super().exec_module(module)
        del module.pdist_euclidean


@pytest.fixture
def distance_kernels(monkeypatch):
    """Sets how the compiled module loads, and forgets the loaded one
    before and after the test."""
    estimator._distances.cache_clear()
    yield monkeypatch
    estimator._distances.cache_clear()


@pytest.mark.parametrize("failure", ["missing", "failing", "bare"])
def test_public_fallback_gives_the_same_bytes(distance_kernels, failure):
    points = distance_sample(4, 3)
    ds = LabeledDataset(points, np.random.default_rng(29).integers(0, 3, len(points)), 3)
    kernel = SimilarityKernel(bandwidth=float(median_heuristic_bandwidth(ds)))

    def outputs():
        estimate = estimate_bayes_error(ds, kernel)
        gradients = objective_and_gradient(ds, kernel).gradients
        median = median_heuristic_bandwidth(ds)
        return estimate.per_sample_max_posterior.tobytes(), gradients.tobytes(), median

    assert isinstance(estimator._distances(), types.ModuleType)
    fast = outputs()
    estimator._distances.cache_clear()
    if failure == "missing":
        distance_kernels.setattr(importlib.machinery, "EXTENSION_SUFFIXES", [".none"])
    else:
        loader = FailingLoader if failure == "failing" else BareLoader
        distance_kernels.setattr(importlib.machinery, "ExtensionFileLoader", loader)
    assert not isinstance(estimator._distances(), types.ModuleType)
    assert outputs() == fast


@pytest.mark.parametrize("workers", [2, 3])
def test_worker_error_propagates_after_every_group_finished(monkeypatch, workers):
    # six 10-row bands; worker 1 fails on band 10, so no band after it is
    # ever added, and every other worker returns at the turn of its first
    # band after it
    monkeypatch.setattr(estimator, "_TILE", 10)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(estimator, "_WORKERS", workers)
    threads = set()
    filled = []

    def fill(band, scratch, partial):
        lo, hi = band
        threads.add(threading.current_thread())
        if lo == 10:
            raise RuntimeError("fill failed")
        # with three workers band 20 is worker 2's, still running when the
        # caller, done with its quick bands, collects the error of worker 1
        if lo == 20:
            time.sleep(0.05)
        partial[lo:hi, 0] = lo + 1
        filled.append(lo)

    sums = np.zeros((60, 1))
    with pytest.raises(RuntimeError, match="fill failed"):
        _run_bands(fill, sums, arrays=1)
    assert sorted(filled) == ([0, 20] if workers == 2 else [0, 20, 30])
    assert not any(thread.is_alive() for thread in threads - {threading.current_thread()})
    assert sums[:, 0].tolist() == [1.0] * 10 + [0.0] * 50


def run_with_timeout(call, seconds=30.0):
    """``call()``'s result, or the error it raised, from a thread that
    must end within ``seconds``."""
    outcome = {}

    def target():
        try:
            outcome["value"] = call()
        except Exception as exc:  # handed to the test, which checks it
            outcome["error"] = exc

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert not thread.is_alive(), "the pass did not return"
    return outcome


@pytest.mark.parametrize(
    "failing_pass, hooked, failing_call",
    [
        ("posteriors", "_similarity_rows", 1),
        ("gradient", "_similarity_rows", 2),
        ("kept", "_class_slices", 3),
    ],
    ids=["posteriors", "gradient", "kept"],
)
def test_failing_band_ends_the_pass_with_its_error(
    monkeypatch, failing_pass, hooked, failing_call
):
    # 19 bands over three workers; the band at row 40 is worker
    # 2's second, and the bands after it wait on it in the ordered sums.
    # Pass A computes the band's strip in one call and keeps it. Under a
    # scratch budget of 0 it keeps none, and pass B computes the strip
    # again, so the band's second strip is pass B's; pass B on a kept
    # strip starts at the band's third class split
    monkeypatch.setattr(estimator, "_TILE", 8)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(estimator, "_WORKERS", 3)
    if failing_pass == "gradient":
        monkeypatch.setattr(estimator, "_SCRATCH", 0)
    original = getattr(estimator, hooked)
    calls = []

    def failing(first, lo, *args, **kwargs):
        if lo == 40:
            calls.append(lo)
            if len(calls) == failing_call:
                raise RuntimeError("band 40 failed")
        return original(first, lo, *args, **kwargs)

    monkeypatch.setattr(estimator, hooked, failing)
    ds = random_dataset(np.random.default_rng(18), n=150, d=2, k=3)
    outcome = run_with_timeout(lambda: objective_and_gradient(ds, K1))
    assert str(outcome["error"]) == "band 40 failed"


def test_band_order_holds_with_more_workers_than_cpus(monkeypatch):
    # six workers on 4-row bands, the interpreter switching threads every
    # 10 microseconds: a band added out of order or twice, or an update
    # lost, changes the bits
    ds = random_dataset(np.random.default_rng(19), n=90, d=3, k=3)
    monkeypatch.setattr(estimator, "_TILE", 4)
    monkeypatch.setattr(estimator, "_CHUNK_ELEMENTS", 1)
    monkeypatch.setattr(estimator, "_WORKERS", 1)
    posteriors = estimate_posteriors(ds, K1).values.tobytes()
    gradients = objective_and_gradient(ds, K1).gradients.tobytes()
    monkeypatch.setattr(estimator, "_WORKERS", 6)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for _ in range(5):
            got = run_with_timeout(lambda: estimate_posteriors(ds, K1))["value"]
            assert got.values.tobytes() == posteriors
            got = run_with_timeout(lambda: objective_and_gradient(ds, K1))["value"]
            assert got.gradients.tobytes() == gradients
    finally:
        sys.setswitchinterval(interval)


def test_small_bandwidth_takes_each_rows_nearest_neighbour_label():
    rng = np.random.default_rng(21)
    kernel = SimilarityKernel(bandwidth=1e-4)
    checked = 0
    for _ in range(20):
        ds = random_dataset(rng, k=3)
        sq = ((ds.points[:, None, :] - ds.points[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(sq, np.inf)
        nearest, runner_up = np.sort(sq, axis=1)[:, :2].T
        # a gap of 1e-3 is 5e4 in units of 2 sigma^2, so the runner-up's
        # similarity relative to the nearest neighbour's is exp(-5e4) = 0
        if (runner_up - nearest).min() < 1e-3:
            continue
        checked += 1
        one_hot = np.eye(ds.num_classes)[ds.labels[sq.argmin(axis=1)]]
        np.testing.assert_array_equal(estimate_posteriors(ds, kernel).values, one_hot)
        assert estimate_bayes_error(ds, kernel).value == 0.0
    assert checked >= 10


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


def test_median_bandwidth_equals_median_of_a_copy():
    rng = np.random.default_rng(15)
    for i in range(30):
        ds = random_dataset(rng)
        points = ds.points
        if i % 3 == 1:
            points = np.round(points, 1)
        elif i % 3 == 2:
            points = np.vstack([points, points[: ds.n // 2]])
        ds = LabeledDataset(points, np.zeros(len(points), dtype=int), 1)
        assert median_heuristic_bandwidth(ds) == float(np.median(pdist(ds.points)))


def test_median_bandwidth_memory_is_one_distance_array():
    rng = np.random.default_rng(16)
    n = 1000
    ds = random_dataset(rng, n=n, d=2, k=2)
    tracemalloc.start()
    try:
        median_heuristic_bandwidth(ds)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (n * (n - 1) // 2) * 8


def test_median_bandwidth_rejects_identical_points():
    ds = LabeledDataset([[1.0], [1.0], [1.0]], [0, 0, 1], 2)
    with pytest.raises(ValueError, match="zero"):
        median_heuristic_bandwidth(ds)


def test_median_bandwidth_rejects_an_overflowing_median():
    # pdist squares each difference, so all three distances overflow to inf
    ds = LabeledDataset([[1e308], [-1e308], [0.0]], [0, 1, 0], 2)
    with pytest.raises(ValueError, match="^median pairwise distance overflows"):
        median_heuristic_bandwidth(ds)
