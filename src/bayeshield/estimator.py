"""Leave-one-out kernel posterior estimation and the Bayes error estimate.

For each sample the posterior over classes is a kernel-weighted vote of
all other samples (a Nadaraya-Watson style local average; the sample
itself never votes). The Bayes error estimate is one minus the mean of
the per-sample maximum posterior.

This module owns the streamed O(n^2) pairwise pass: the banded runner,
``_similarity_rows``, the one function that gives kernel rows, shifted
ones for rows whose similarity mass underflows included, and both
passes built on them. Pass A, ``_posterior_pass``, gives the
posteriors. ``_objective_and_gradient`` takes the estimate from it and,
unless that falls below a floor, runs pass B for the gradient that
``perturb.objective_and_gradient`` pulls back. Scoring a sample costs
pass A alone, so the ascent runs pass B only for a step it keeps.

Each pass runs in class order: pass A's stable sort of the labels
permutes the coordinates once, and pass B reads its order and class
bounds, so every class owns one contiguous slice of rows and of columns,
empty for an unused class, and row i's own column is column i. A row's
class mass is one sum over its slice. sum_j W[i, j] x_j comes from BLAS
products against the sorted coordinates after a column of ones, which
gives sum_j W[i, j]; each product is small enough that OpenBLAS runs it
on the calling thread alone, so its bits follow the BLAS build and the
band width but not the BLAS thread count.
Per-row results go back to input order once on the way out, before the
mean and the tie scan, which depend on the order of the rows.

The similarities S and the gradient's weights W are symmetric, so each
pass computes every pair once. It runs over bands of ``_TILE`` rows:
band [lo, hi) computes its strip, its rows against columns lo:n, and
the strip's row sums go to rows lo:hi and its column sums over the
band's rows to rows hi:n. The runner adds the bands' sums in band
order, so the bits follow the band width alone, not the worker count.
When all of a gradient call's strips fit in ``_SCRATCH`` doubles, pass
A keeps them and pass B weighs them in place rather than computing them
again.
"""

from __future__ import annotations

import bisect
import functools
import importlib.machinery
import importlib.util
import os
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, PosteriorMatrix, SimilarityKernel, _frozen_array

# Rows per band of the pairwise pass; the band bounds fix the order of
# every sum, and so the results' bits.
_TILE = 64

# Scratch budget of a pass in float64s (8 MiB): the runner caps its
# workers so that their strips and partial sums stay within an eighth of
# an n x n array, or within this where that is larger. A gradient call
# keeps pass A's strips for pass B when all of them fit in this too
# (n <= 1416), and recomputes them otherwise. Neither rule changes a bit:
# no bit depends on the worker count, and a kept strip holds the bits
# pass B would compute again.
_SCRATCH = 1 << 20

# Entries of the n x n pairs per worker: a pass runs no more than
# n * n // _CHUNK_ELEMENTS workers, so one with n <= 362 runs on the
# calling thread alone; at n=300 a second worker made both passes
# slower, at d=2 and at d=64, on 2 CPUs.
_CHUNK_ELEMENTS = 65_536

# Multiply-adds of one BLAS product in pass B: OpenBLAS runs a gemm on the
# calling thread alone when m * n * k is at most SMP_THRESHOLD_MIN (65,536)
# times GEMM_MULTITHREAD_THRESHOLD (4), and a product it splits among
# threads may round differently, so every product is cut to this size.
_BLAS_ONE_THREAD = 65_536 * 4

# Columns of pass B's (n, d + 1) basis per product, so that a 64-row
# band's row side sums at least 32 strip columns per piece: a piece of
# all 3073 columns at d=3072 could sum only one, and that side then ran
# about 25 times slower than in these blocks.
_BLAS_COLUMNS = 128

# Workers for the bands: the CPUs this process may run on, so that
# `taskset` restricts a run. The NumPy and SciPy calls inside a band
# release the interpreter lock, so threads overlap their work.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


@functools.cache
def _distances():
    """scipy's compiled distance kernels, called as
    ``cdist_sqeuclidean(x, y, out=out)`` and ``pdist_euclidean(x)``.

    scipy's public ``cdist`` and ``pdist`` hand these two metrics straight
    to one compiled module, ``_distance_pybind`` in scipy's spatial
    package, but importing them loads scipy's k-d tree, sparse arrays,
    linear algebra and special functions too, most of a small command's
    time. So the first call
    loads that one file from scipy's package directory, without importing
    scipy, under a name of this package's and outside ``sys.modules``.
    The module is private to scipy: where no such file loads, or it lacks
    either function, the public functions, which call the same kernels,
    stand in.
    """
    scipy = importlib.util.find_spec("scipy")
    for location in scipy.submodule_search_locations if scipy else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(location, "spatial", "_distance_pybind" + suffix)
            loader = importlib.machinery.ExtensionFileLoader(f"{__package__}._distance_pybind", path)
            try:
                module = importlib.util.module_from_spec(
                    importlib.util.spec_from_loader(loader.name, loader)
                )
                loader.exec_module(module)
            except ImportError:
                continue
            if hasattr(module, "cdist_sqeuclidean") and hasattr(module, "pdist_euclidean"):
                return module
    from scipy.spatial.distance import cdist, pdist

    return types.SimpleNamespace(
        cdist_sqeuclidean=functools.partial(cdist, metric="sqeuclidean"), pdist_euclidean=pdist
    )


@dataclass(frozen=True)
class BayesErrorEstimate:
    """Estimated Bayes error together with its per-sample evidence.

    ``value`` equals 1 - mean(per_sample_max_posterior) and lies in
    [0, 1 - 1/K].
    """

    value: float
    per_sample_max_posterior: np.ndarray

    def __post_init__(self) -> None:
        pmax = _frozen_array(self.per_sample_max_posterior, np.float64)
        if pmax.ndim != 1 or pmax.size == 0:
            raise ValueError("per_sample_max_posterior must be a non-empty vector")
        if pmax.min() < -1e-12 or pmax.max() > 1.0 + 1e-12:
            raise ValueError("max posteriors must lie in [0, 1]")
        value = float(self.value)
        if abs(value - (1.0 - pmax.mean())) > 1e-12:
            raise ValueError("value inconsistent with per-sample posteriors")
        object.__setattr__(self, "value", value)
        object.__setattr__(self, "per_sample_max_posterior", pmax)


def _run_bands(fill, sums: np.ndarray, arrays: int) -> None:
    """Add every band's sums of a symmetric pairwise pass into ``sums``, a
    zeroed (n, width) float64 array whose row i belongs to row i.

    For each band [lo, hi) of ``_TILE`` rows the runner calls
    ``fill((lo, hi), scratch, partial)``. ``scratch`` holds ``arrays``
    (hi - lo, n - lo) arrays, room for the band's strip against columns
    lo:n; ``arrays`` is 0 for a fill that writes its strip to a kept
    buffer of the caller's. ``partial`` is an (n + _TILE, width) array
    whose rows lo:n are zero when the band starts. The fill writes the
    strip's row sums to ``partial[lo:hi]`` and its column sums over the
    band's rows to ``partial[hi:n]``; the last ``_TILE`` rows are the
    fill's own scratch. Once every earlier band is in ``sums`` the runner
    adds ``partial[lo:n]`` to ``sums[lo:]`` in one contiguous addition.
    So each row of ``sums`` adds the earlier bands' column sums in band
    order, then its own band's row sums, whichever worker computed them.
    The arrays handed to a fill are C-contiguous.

    A worker's scratch is ``(arrays * _TILE + width) * n`` doubles, and
    ``_TILE * width`` more for the fill's own rows, so the pass runs as
    many workers as fit in an eighth of n * n doubles, or in
    ``_SCRATCH`` where that is larger, and at least one, beside their
    own rows and any kept buffer, which has a ``_SCRATCH`` of its own;
    never more than ``_WORKERS``, than there are bands, or than one per
    ``_CHUNK_ELEMENTS`` entries of the n x n pairs. The bands are dealt
    to the workers: worker w takes bands w, w + workers, w + 2 * workers
    and so on. The calling thread allocates every worker's scratch and
    ``partial`` once, so no band allocates an array and all of them come
    from the calling thread's heap: glibc may give a pool thread a heap
    of its own, which keeps freed strips resident when one pass's thread
    starts before the last one's has exited. The calling thread is worker 0 and
    a per-pass pool runs the others, so a one-worker pass starts no
    thread. A worker whose fill fails stops, and once one has, the
    others return at their next band whose turn to be added has not
    come, so no worker waits on a band that is never added. Every worker
    has finished before this returns, or raises the error of the
    lowest-numbered worker that failed.
    """
    n, width = sums.shape
    bands = -(-n // _TILE)
    budget = max(n * n // 8, _SCRATCH) // ((arrays * _TILE + width) * n)
    workers = max(1, min(_WORKERS, bands, n * n // _CHUNK_ELEMENTS, budget))
    turn = threading.Condition()
    added = 0  # sums holds every band that ends at or before this row
    failed = False
    strips = np.empty((workers, arrays * _TILE * n))
    partials = np.empty((workers, n + _TILE, width))

    def run(w) -> None:
        nonlocal added, failed
        partial = partials[w]
        try:
            for lo in range(w * _TILE, n, workers * _TILE):
                hi = min(lo + _TILE, n)
                size = (hi - lo) * (n - lo)
                scratch = strips[w, : arrays * size].reshape(arrays, hi - lo, n - lo)
                partial[lo:n] = 0.0
                fill((lo, hi), scratch, partial)
                with turn:
                    turn.wait_for(lambda: added == lo or failed)
                    if added != lo:
                        return
                    sums[lo:] += partial[lo:n]
                    added = hi
                    turn.notify_all()
        except BaseException:
            with turn:
                failed = True
                turn.notify_all()
            raise

    # the pool starts threads only on submit, so none for the caller's bands
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, w) for w in range(1, workers)]
        run(0)
        for future in futures:
            future.result()


def _input_order(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of a pass in class order, moved back to input order, C-ordered."""
    out = np.empty(values.shape, values.dtype)
    out[order] = values
    return out


def _class_slices(bounds: list, lo: int, hi: int) -> list:
    """``(c, a, b)`` for each class c whose slice [bounds[c], bounds[c + 1])
    of class order meets [lo, hi), with [a, b) the part inside."""
    first = bisect.bisect_right(bounds, lo) - 1
    last = bisect.bisect_left(bounds, hi, lo=first)
    slices = [(c, max(bounds[c], lo), min(bounds[c + 1], hi)) for c in range(first, last)]
    return [(c, a, b) for c, a, b in slices if a < b]


def _similarity_rows(
    points: np.ndarray,
    lo: int,
    hi: int,
    bandwidth: float,
    out: np.ndarray,
    start: int = 0,
    shifted: bool = False,
) -> np.ndarray:
    """Rows lo:hi of the Gaussian similarity matrix of ``points`` against
    columns start:n, with start <= lo and each row's own column zero,
    written into ``out``, a C-contiguous (hi - lo, n - start) float64
    array.

    ``cdist_sqeuclidean`` sums each squared distance over the coordinates
    in a fixed order, and (a - b)^2 = (b - a)^2, so the entry of a pair has
    the same bits whichever point is the row, whatever block it is computed
    in and whatever array it is written to: a band can compute each pair
    once.
    With ``shifted``, which takes whole rows (start 0), row u is divided
    by its nearest neighbour's similarity:
    exp(-(||x_u - x_j||^2 - min_{k != u} ||x_u - x_k||^2) / (2 sigma^2)).
    Posteriors and gradient terms are ratios to a row's mass, so they
    keep their value, also where the plain mass underflows float64.
    """
    block = _distances().cdist_sqeuclidean(points[lo:hi], points[start:], out=out)
    own = block[:, lo - start : hi - start]
    if shifted:
        np.fill_diagonal(own, np.inf)
        nearest = block.min(axis=1, keepdims=True)
        if not np.isfinite(nearest).all():
            raise ValueError("squared distance to its nearest neighbour overflows")
        block -= nearest
    block /= -2.0 * bandwidth * bandwidth
    np.exp(block, out=block)
    np.fill_diagonal(own, 0.0)
    return block


def _posterior_pass(
    coords: np.ndarray, labels: np.ndarray, k: int, bandwidth: float, keep: bool = False
) -> tuple:
    """Leave-one-out posteriors of ``coords`` and the sums behind them,
    computed in class order.

    Returns ``(order, points, bounds, den, underflow, posteriors,
    strips)``: the stable argsort of the labels, the coordinates in that
    order, class c's rows and columns in it, bounds[c]:bounds[c + 1], which
    pass B reads too, each row's similarity mass, the rows whose mass is
    zero or subnormal, in input order, the (n, k) posteriors, and the kept
    strips or None; ``den`` and ``posteriors`` are in class order. Each
    row in ``underflow`` is summed again from its whole row of shifted
    similarities, so its ``den`` is the shifted mass.
    With ``keep``, and when every band's strip fits in ``_SCRATCH``
    doubles together, each band writes its strip to its own view of one
    buffer and takes no scratch of its own; ``strips[lo // _TILE]`` is
    then band [lo, hi)'s strip against columns lo:n, its own columns
    zero. Otherwise no strip is kept.
    The estimator and the gradient both read this one streamed pass, so
    the objective of the gradient is bit-equal to the estimate.
    """
    # the kernels load here, on the calling thread, before any band runs
    _distances()
    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k)))).tolist()
    points = coords[order]
    n = points.shape[0]
    # num[i, c]: row i's similarity mass in class c
    num = np.zeros((n, k))
    # a band's strip is its rows against columns lo:n
    bands = range(0, n, _TILE)
    sizes = [(min(lo + _TILE, n) - lo) * (n - lo) for lo in bands]
    strips = None
    if keep and sum(sizes) <= _SCRATCH:
        kept = np.split(np.empty(sum(sizes)), np.cumsum(sizes)[:-1])
        strips = [strip.reshape(-1, n - lo) for strip, lo in zip(kept, bands)]

    def fill(band, scratch, partial) -> None:
        lo, hi = band
        out = scratch[0] if strips is None else strips[lo // _TILE]
        sims = _similarity_rows(points, lo, hi, bandwidth, out=out, start=lo)
        for c, a, b in _class_slices(bounds, lo, n):
            sims[:, a - lo : b - lo].sum(axis=1, out=partial[lo:hi, c])
        for c, a, b in _class_slices(bounds, lo, hi):
            sims[a - lo : b - lo, hi - lo :].sum(axis=0, out=partial[hi:n, c])

    _run_bands(fill, num, arrays=1 if strips is None else 0)
    # the classes add in order, one column at a time: a row's sum over its
    # K contiguous entries would take numpy's 8-wide pairwise order
    den = num[:, 0].copy()
    for c in range(1, k):
        den += num[:, c]
    underflow = np.flatnonzero(den < np.finfo(np.float64).tiny)
    underflow = underflow[np.argsort(order[underflow])]
    row = np.empty((1, n))
    for u in underflow:
        try:
            sims = _similarity_rows(points, u, u + 1, bandwidth, out=row, shifted=True)
        except ValueError as exc:
            raise ValueError(f"row {order[u]}: {exc}") from None
        for c, a, b in _class_slices(bounds, 0, n):
            num[u, c] = sims[0, a:b].sum()
        den[u] = num[u].sum()
    return order, points, bounds, den, underflow, num / den[:, None], strips


def _objective_and_gradient(
    coords: np.ndarray, labels: np.ndarray, k: int, bandwidth: float, floor: float | None
) -> tuple:
    """The estimate of ``coords`` and its gradient in those coordinates.

    Returns ``(objective, None)`` when the objective, taken from one
    posterior pass and bit-equal to ``estimate_bayes_error``, falls below
    ``floor``, and otherwise ``(objective, (tied rows, gradients))`` in
    input order; the formula is on ``perturb.objective_and_gradient``.
    The gradient takes a second streamed pass, pass B, which builds each
    band's strip of sigma^2 W from an (n, k) coefficient table and the
    band's similarities, and divides the sums by sigma^2 once at the end.
    W is symmetric, so a band's strip gives its rows' sums and, over its
    rows, the sums of the rows after it. Pass A keeps its strips when they
    fit in ``_SCRATCH``, and pass B then multiplies each band's
    coefficients into its kept strip, so the call computes each pair's
    similarity once; otherwise pass B computes the strips again, with the
    same bits. A call whose objective falls below ``floor`` drops the kept
    strips unused.
    """
    order, points, bounds, den, underflow, posteriors, strips = _posterior_pass(
        coords, labels, k, bandwidth, keep=True
    )
    n, d = points.shape
    # argmax returns the first maximal column, i.e. the lowest class index
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    # the mean sums in row order, so it runs in input order
    objective = float(1.0 - _input_order(order, pstar).mean())
    if floor is not None and objective < floor:
        return objective, None
    tied = (posteriors == pstar[:, None]).sum(axis=1) > 1

    # C[i, j] = table[i, y_j], so W streams from this (n, K) table
    selected = np.arange(k) == cstar[:, None]
    table = (selected - pstar[:, None]) / den[:, None]
    table_t = np.ascontiguousarray(table.T)
    # sums[i] = sum_j W[i, j] basis[j], summed from sigma^2 W: with a column
    # of ones before the coordinates, one product gives sum_j W[i, j] in
    # column 0 and sum_j W[i, j] x_j in the rest
    basis = np.empty((n, d + 1))
    basis[:, 0] = 1.0
    basis[:, 1:] = points
    sums = np.zeros((n, d + 1))

    def fill(band, scratch, partial) -> None:
        lo, hi = band
        coefficients = scratch[0]
        # C + C^T in one array: C[i, j] = table[i, y_j] is a broadcast copy
        # of one column of table per class of columns, and C[j, i] =
        # table[j, y_i] a broadcast add of one row of table_t per class of
        # rows, in place, so the band needs no second array for C^T
        for c, a, b in _class_slices(bounds, lo, n):
            coefficients[:, a - lo : b - lo] = table[lo:hi, c, None]
        for c, a, b in _class_slices(bounds, lo, hi):
            coefficients[a - lo : b - lo] += table_t[c, lo:]
        if strips is None:
            weights = _similarity_rows(points, lo, hi, bandwidth, out=scratch[1], start=lo)
        else:
            weights = strips[lo // _TILE]
        # S (C + C^T), in pass A's strip where it was kept; S's own column is
        # zero in every strip and C is finite, so W's is +-0 and adds nothing
        weights *= coefficients
        # BLAS products of at most _BLAS_ONE_THREAD multiply-adds each, per
        # block of _BLAS_COLUMNS basis columns: the row side cuts its sums
        # over columns lo:n into pieces and adds them in order, the column
        # side cuts its output rows and splits no sum
        for start in range(0, d + 1, _BLAS_COLUMNS):
            cols = slice(start, min(start + _BLAS_COLUMNS, d + 1))
            span = _BLAS_ONE_THREAD // ((cols.stop - start) * (hi - lo))
            rows, piece = partial[lo:hi, cols], partial[n : n + hi - lo, cols]
            np.matmul(weights[:, :span], basis[lo : lo + span, cols], out=rows)
            for j in range(span, n - lo, span):
                np.matmul(weights[:, j : j + span], basis[lo + j : lo + j + span, cols], out=piece)
                rows += piece
            for j in range(hi - lo, n - lo, span):
                out = partial[lo + j : min(lo + j + span, n), cols]
                np.matmul(weights[:, j : j + span].T, basis[lo:hi, cols], out=out)

    _run_bands(fill, sums, arrays=2 if strips is None else 1)
    # an underflowing row u streamed its own terms below float64's normal
    # range; add them, sigma^2 w_um = C[u, m] s(x_u, x_m), to W[u, m] and
    # W[m, u] from its shifted similarities
    row = np.empty((1, n))
    for u in underflow:
        weights = _similarity_rows(points, u, u + 1, bandwidth, out=row, shifted=True)[0]
        for c, a, b in _class_slices(bounds, 0, n):
            weights[a:b] *= table[u, c]
        sums[u] += np.einsum("j,jk->k", weights, basis)
        sums += weights[:, None] * basis[u]
    sums /= bandwidth * bandwidth
    # (wsum * x - mixed) / n, formed in place in the spent basis
    gradients = basis[:, 1:]
    gradients *= sums[:, :1]
    gradients -= sums[:, 1:]
    gradients /= n
    gradients = _input_order(order, gradients)
    return objective, (np.flatnonzero(_input_order(order, tied)), gradients)


def estimate_posteriors(data: LabeledDataset, kernel: SimilarityKernel) -> PosteriorMatrix:
    """Leave-one-out kernel posteriors for every sample.

    Row i, column c is sum_{j != i} [y_j = c] s(x_j, x_i) divided by
    sum_{k != i} s(x_k, x_i), also where that mass underflows float64.
    As the bandwidth goes to zero, row i tends to the one-hot label of
    its nearest neighbour.
    """
    order, _, _, _, _, values, _ = _posterior_pass(
        data.points, data.labels, data.num_classes, kernel.bandwidth
    )
    return PosteriorMatrix(_input_order(order, values))


def estimate_bayes_error(data: LabeledDataset, kernel: SimilarityKernel) -> BayesErrorEstimate:
    """Bayes error estimate 1 - (1/n) sum_i max_c p(y=c | x_i)."""
    posteriors = estimate_posteriors(data, kernel)
    pmax = posteriors.values.max(axis=1)
    return BayesErrorEstimate(value=float(1.0 - pmax.mean()), per_sample_max_posterior=pmax)


def median_heuristic_bandwidth(data: LabeledDataset) -> float:
    """Median of all pairwise Euclidean distances, the default bandwidth.

    Scale-adaptive and deterministic. Requires at least one distinct
    pair; a zero or overflowing median would not be a valid bandwidth.
    Unlike the streamed pairwise pass, this holds all n(n-1)/2 distances
    at once (1.6 GB of doubles at n=20000); np.median partitions them in
    place.
    """
    dists = _distances().pdist_euclidean(data.points)
    med = float(np.median(dists, overwrite_input=True))
    if med <= 0.0:
        raise ValueError(
            "median pairwise distance is zero; bandwidth must be chosen "
            "explicitly for data with many coincident points"
        )
    if med == np.inf:
        raise ValueError("median pairwise distance overflows; bandwidth must be chosen explicitly")
    return med
