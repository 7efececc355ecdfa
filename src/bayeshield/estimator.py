"""Leave-one-out kernel posterior estimation and the Bayes error estimate.

For each sample the posterior over classes is a kernel-weighted vote of
all other samples (a Nadaraya-Watson style local average; the sample
itself never votes). The Bayes error estimate is one minus the mean of
the per-sample maximum posterior.

This module owns the streamed O(n^2) pairwise pass: the row-span
runner, the kernel rows, the recomputation of rows whose similarity
mass underflows, and both passes built on them, the posteriors here and
the gradient that ``perturb.objective_and_gradient`` pulls back.

Each pass keeps its rows in input order and lays its columns out in
class order (``_ClassLayout``): a stable sort of the labels gives every
class one contiguous slice of columns, empty for an unused class. A
row's class mass is then one sum over its slice, and the gradient's
sum_j W[i, j] x_j is one contiguous dot per coordinate against the
(d, n) transpose of the class-ordered coordinates. The layout costs two
(n, d) arrays and O(n) indices, built once per estimate or gradient.
"""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, PosteriorMatrix, SimilarityKernel, _frozen_array

# Target element count per row span of the streamed n x n pairwise pass,
# which holds O(n * span) memory. Span boundaries never change the per-row
# arithmetic, so results are identical for any span or worker count; the
# one exception is the gradient at d=1 with n above 8192, where einsum
# sums a multi-row span in buffer-sized pieces, so only the span size,
# which depends on n alone, changes its last bits.
_CHUNK_ELEMENTS = 65_536

# Workers for the row spans: the CPUs this process may run on, so that
# `taskset` restricts a run. The NumPy and SciPy calls inside a span
# release the interpreter lock, so threads overlap their work.
if hasattr(os, "sched_getaffinity"):
    _WORKERS = len(os.sched_getaffinity(0))
else:
    _WORKERS = os.cpu_count() or 1


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


def _row_spans(n: int) -> list:
    chunk = max(1, _CHUNK_ELEMENTS // n)
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _run_row_spans(fill, n: int) -> None:
    """Call ``fill((lo, hi), scratch)`` on every row span of an n-row
    pairwise pass, split over ``min(_WORKERS, spans)`` workers.

    Worker w takes the interleaved group ``spans[w::workers]`` and
    allocates two (span rows, n) float64 arrays once; ``scratch`` holds
    their first hi - lo rows, so a fill writes its span temporaries into
    memory that stays mapped for the whole pass, and the pass holds
    O(workers * n * span rows) scratch. The calling thread is worker 0
    and a per-pass pool runs the others, so a single-span pass starts no
    thread. Every worker has finished before this returns, or raises the
    error of the lowest-numbered worker that failed.
    """
    spans = _row_spans(n)
    rows = spans[0][1] - spans[0][0]
    workers = min(_WORKERS, len(spans))

    def run(group) -> None:
        buffers = np.empty((2, rows, n))
        for lo, hi in group:
            fill((lo, hi), buffers[:, : hi - lo])

    # the pool starts threads only on submit, so none for the caller's group
    with ThreadPoolExecutor(max_workers=workers) as pool:
        futures = [pool.submit(run, spans[w::workers]) for w in range(1, workers)]
        run(spans[0::workers])
        for future in futures:
            future.result()


@dataclass(frozen=True)
class _ClassLayout:
    """One pass's columns in class order: ``order`` is a stable argsort of
    the labels and ``inv`` its inverse, so row i's own column is
    ``inv[i]``; class c owns columns ``bounds[c]:bounds[c + 1]``, which are
    empty for an unused class. ``labels`` and ``coords`` are the labels
    and the (n, d) coordinates in that order, and ``coords_t`` is the
    C-contiguous (d, n) transpose of ``coords``."""

    order: np.ndarray
    inv: np.ndarray
    bounds: np.ndarray
    labels: np.ndarray
    coords: np.ndarray
    coords_t: np.ndarray

    def classes(self):
        """``(c, start, stop)`` for every class c, in class order."""
        return zip(range(len(self.bounds) - 1), self.bounds[:-1], self.bounds[1:])


def _class_layout(coords: np.ndarray, labels: np.ndarray, k: int) -> _ClassLayout:
    # scipy.spatial is most of the package's import time, so it loads on
    # the first pass, here on the calling thread before any span runs
    import scipy.spatial.distance  # noqa: F401

    order = np.argsort(labels, kind="stable")
    inv = np.empty_like(order)
    inv[order] = np.arange(order.size)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))
    by_class = coords[order]
    return _ClassLayout(
        order, inv, bounds, labels[order], by_class, np.ascontiguousarray(by_class.T)
    )


def _similarity_rows(
    points: np.ndarray,
    lo: int,
    hi: int,
    layout: _ClassLayout,
    bandwidth: float,
    out: np.ndarray,
) -> np.ndarray:
    """Rows lo:hi of the Gaussian similarity matrix, columns in the class
    order of ``layout``, with each row's own column zero, written into
    ``out``, a C-contiguous (hi - lo, n) float64 array.

    ``cdist`` sums each squared distance over the coordinates in a fixed
    order, so a row's values do not depend on the span it is computed in
    or on the array it is written to.
    """
    from scipy.spatial.distance import cdist

    block = cdist(points[lo:hi], layout.coords, "sqeuclidean", out=out)
    block /= -2.0 * bandwidth * bandwidth
    np.exp(block, out=block)
    block[np.arange(hi - lo), layout.inv[lo:hi]] = 0.0
    return block


def _shifted_similarity_rows(
    points: np.ndarray, layout: _ClassLayout, rows: np.ndarray, bandwidth: float
):
    """Yield ``(u, row)`` for each u in ``rows``: x_u's similarities divided
    by its nearest neighbour's, exp(-(||x_u - x_j||^2 - min_{k != u}
    ||x_u - x_k||^2) / (2 sigma^2)), in the class order of ``layout`` and
    zero in u's own column. Posteriors and gradient terms are ratios to a
    row's mass, so they keep their value, also where the plain mass
    underflows float64."""
    from scipy.spatial.distance import cdist

    for u in rows:
        row = cdist(points[u : u + 1], layout.coords, "sqeuclidean")[0]
        row[layout.inv[u]] = np.inf
        nearest = row.min()
        if not np.isfinite(nearest):
            raise ValueError(f"row {u}: squared distance to its nearest neighbour overflows")
        row -= nearest
        row /= -2.0 * bandwidth * bandwidth
        np.exp(row, out=row)
        yield u, row


def _posterior_pass(coords: np.ndarray, layout: _ClassLayout, bandwidth: float) -> tuple:
    """Leave-one-out posteriors of ``coords`` and the sums behind them.

    Returns ``(den, underflow, posteriors)``: each row's similarity mass,
    the rows whose mass is zero or subnormal, and the (n, k) posteriors.
    Those rows are recomputed by ``_shifted_similarity_rows``, so their
    ``den`` is the shifted mass. The estimator and the gradient both
    read this one streamed pass, so the objective of the gradient is
    bit-equal to the estimate.
    """
    n = coords.shape[0]
    num = np.empty((n, len(layout.bounds) - 1))

    def fill(span, scratch) -> None:
        lo, hi = span
        sims = _similarity_rows(coords, lo, hi, layout, bandwidth, out=scratch[0])
        for c, start, stop in layout.classes():
            sims[:, start:stop].sum(axis=1, out=num[lo:hi, c])

    _run_row_spans(fill, n)
    den = num.sum(axis=1)
    underflow = np.flatnonzero(den < np.finfo(np.float64).tiny)
    for u, row in _shifted_similarity_rows(coords, layout, underflow, bandwidth):
        num[u] = [row[start:stop].sum() for _, start, stop in layout.classes()]
        den[u] = num[u].sum()
    return den, underflow, num / den[:, None]


def _gradient_pass(coords: np.ndarray, labels: np.ndarray, k: int, bandwidth: float) -> tuple:
    """The estimate of ``coords`` and its gradient in the same coordinates.

    Returns ``(objective, argmax classes, tied rows, gradients)``; the
    formula is on ``perturb.objective_and_gradient``. A second streamed
    pass builds each row span of W, columns in class order, from an
    (n, k) coefficient table.
    """
    n = coords.shape[0]
    layout = _class_layout(coords, labels, k)
    den, underflow, posteriors = _posterior_pass(coords, layout, bandwidth)

    # argmax returns the first maximal column, i.e. the lowest class index
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    objective = float(1.0 - pstar.mean())
    tied = np.flatnonzero((posteriors == pstar[:, None]).sum(axis=1) > 1)

    # C[i, j] = table[i, y_j], so W streams from this (n, K) table; the
    # transposed table's columns are in class order, like W's
    selected = np.arange(k) == cstar[:, None]
    table = (selected - pstar[:, None]) / den[:, None]
    table_by_class = np.ascontiguousarray(table[layout.order].T)
    wsum = np.empty(n)
    mixed = np.empty_like(coords)

    # labels lie in [0, K), so "clip" moves no index; under the default
    # "raise", take fills ``out`` through a fresh copy
    def fill(span, scratch) -> None:
        lo, hi = span
        weights = np.take(table[lo:hi], layout.labels, axis=1, out=scratch[0], mode="clip")
        weights += np.take(table_by_class, labels[lo:hi], axis=0, out=scratch[1], mode="clip")
        weights *= _similarity_rows(coords, lo, hi, layout, bandwidth, out=scratch[1])
        weights /= bandwidth * bandwidth
        weights[np.arange(hi - lo), layout.inv[lo:hi]] = 0.0
        weights.sum(axis=1, out=wsum[lo:hi])
        np.einsum("ij,kj->ik", weights, layout.coords_t, out=mixed[lo:hi])

    _run_row_spans(fill, n)
    # an underflowing row u streamed its own terms below float64's normal
    # range; add them, w_um = C[u, m] s(x_u, x_m) / sigma^2, to W[u, m]
    # and W[m, u] from its shifted similarities
    for u, row in _shifted_similarity_rows(coords, layout, underflow, bandwidth):
        weights = table[u].take(layout.labels) * row / (bandwidth * bandwidth)
        wsum[u] += weights.sum()
        mixed[u] += np.einsum("j,kj->k", weights, layout.coords_t)
        weights = weights[layout.inv]
        wsum += weights
        mixed += weights[:, None] * coords[u]
    return objective, cstar, tied, (wsum[:, None] * coords - mixed) / n


def estimate_posteriors(data: LabeledDataset, kernel: SimilarityKernel) -> PosteriorMatrix:
    """Leave-one-out kernel posteriors for every sample.

    Row i, column c is sum_{j != i} [y_j = c] s(x_j, x_i) divided by
    sum_{k != i} s(x_k, x_i), also where that mass underflows float64.
    As the bandwidth goes to zero, row i tends to the one-hot label of
    its nearest neighbour.
    """
    layout = _class_layout(data.points, data.labels, data.num_classes)
    _, _, values = _posterior_pass(data.points, layout, kernel.bandwidth)
    return PosteriorMatrix(values)


def estimate_bayes_error(data: LabeledDataset, kernel: SimilarityKernel) -> BayesErrorEstimate:
    """Bayes error estimate 1 - (1/n) sum_i max_c p(y=c | x_i)."""
    posteriors = estimate_posteriors(data, kernel)
    pmax = posteriors.values.max(axis=1)
    return BayesErrorEstimate(value=float(1.0 - pmax.mean()), per_sample_max_posterior=pmax)


def median_heuristic_bandwidth(data: LabeledDataset) -> float:
    """Median of all pairwise Euclidean distances, the default bandwidth.

    Scale-adaptive and deterministic. Requires at least one distinct
    pair; a zero median would not be a valid bandwidth. Unlike the
    streamed pairwise pass, this holds all n(n-1)/2 distances at once
    (1.6 GB of doubles at n=20000); np.median partitions them in place.
    """
    from scipy.spatial.distance import pdist

    dists = pdist(data.points)
    med = float(np.median(dists, overwrite_input=True))
    if med <= 0.0:
        raise ValueError(
            "median pairwise distance is zero; bandwidth must be chosen "
            "explicitly for data with many coincident points"
        )
    return med
