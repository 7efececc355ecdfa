"""Leave-one-out kernel posterior estimation and the Bayes error estimate.

For each sample the posterior over classes is a kernel-weighted vote of
all other samples (a Nadaraya-Watson style local average; the sample
itself never votes). The Bayes error estimate is one minus the mean of
the per-sample maximum posterior.

This module owns the streamed O(n^2) pairwise pass: the row-span
runner, ``_similarity_rows``, the one function that gives kernel rows,
shifted ones for rows whose similarity mass underflows included, and
both passes built on them. Pass A, ``_posterior_pass``, gives the
posteriors. ``_objective_and_gradient`` takes the estimate from it and,
unless that falls below a floor, runs pass B for the gradient that
``perturb.objective_and_gradient`` pulls back. Scoring a sample costs
pass A alone, so the ascent runs pass B only for a step it keeps.

Each pass runs in class order: a stable sort of the labels permutes the
coordinates and labels once on the way in, so every class owns one
contiguous slice of rows and of columns, empty for an unused class, and
row i's own column is column i. A row's class mass is then one sum over
its slice, and the gradient's sum_j W[i, j] x_j is one contiguous dot
per coordinate against the (d, n) transpose of the sorted coordinates.
Per-row results go back to input order once on the way out, before the
mean and the tie scan, which depend on the order of the rows.
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


def _input_order(order: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Rows of a pass in class order, moved back to input order."""
    out = np.empty_like(values)
    out[order] = values
    return out


def _similarity_rows(
    points: np.ndarray, lo: int, hi: int, bandwidth: float, out: np.ndarray, shifted: bool = False
) -> np.ndarray:
    """Rows lo:hi of the Gaussian similarity matrix of ``points``, with
    each row's own column zero, written into ``out``, a C-contiguous
    (hi - lo, n) float64 array.

    ``cdist`` sums each squared distance over the coordinates in a fixed
    order, so a row's values do not depend on the span it is computed in
    or on the array it is written to. With ``shifted``, row u is divided
    by its nearest neighbour's similarity: exp(-(||x_u - x_j||^2 -
    min_{k != u} ||x_u - x_k||^2) / (2 sigma^2)). Posteriors and gradient
    terms are ratios to a row's mass, so they keep their value, also
    where the plain mass underflows float64.
    """
    from scipy.spatial.distance import cdist

    block = cdist(points[lo:hi], points, "sqeuclidean", out=out)
    if shifted:
        np.fill_diagonal(block[:, lo:hi], np.inf)
        nearest = block.min(axis=1, keepdims=True)
        if not np.isfinite(nearest).all():
            raise ValueError("squared distance to its nearest neighbour overflows")
        block -= nearest
    block /= -2.0 * bandwidth * bandwidth
    np.exp(block, out=block)
    np.fill_diagonal(block[:, lo:hi], 0.0)
    return block


def _posterior_pass(coords: np.ndarray, labels: np.ndarray, k: int, bandwidth: float) -> tuple:
    """Leave-one-out posteriors of ``coords`` and the sums behind them,
    computed in class order.

    Returns ``(order, points, den, underflow, posteriors)``: the stable
    argsort of the labels, the coordinates in that order, each row's
    similarity mass, the rows whose mass is zero or subnormal, listed in
    input order, and the (n, k) posteriors; ``den`` and ``posteriors``
    are in class order. Each row in ``underflow`` is summed again by the
    same span fill, on its own one-row span with shifted similarities, so
    its ``den`` is the shifted mass.
    The estimator and the gradient both read this one streamed pass, so
    the objective of the gradient is bit-equal to the estimate.
    """
    # scipy.spatial is most of the package's import time, so it loads on
    # the first pass, here on the calling thread before any span runs
    import scipy.spatial.distance  # noqa: F401

    order = np.argsort(labels, kind="stable")
    bounds = np.concatenate(([0], np.cumsum(np.bincount(labels, minlength=k))))
    classes = [slice(start, stop) for start, stop in zip(bounds[:-1], bounds[1:])]
    points = coords[order]
    n = points.shape[0]
    num = np.empty((n, k))

    def fill(span, scratch, shifted=False) -> None:
        lo, hi = span
        sims = _similarity_rows(points, lo, hi, bandwidth, out=scratch[0], shifted=shifted)
        for c, columns in enumerate(classes):
            sims[:, columns].sum(axis=1, out=num[lo:hi, c])

    _run_row_spans(fill, n)
    den = num.sum(axis=1)
    underflow = np.flatnonzero(den < np.finfo(np.float64).tiny)
    underflow = underflow[np.argsort(order[underflow])]
    scratch = np.empty((1, 1, n))
    for u in underflow:
        try:
            fill((u, u + 1), scratch, shifted=True)
        except ValueError as exc:
            raise ValueError(f"row {order[u]}: {exc}") from None
        den[u] = num[u].sum()
    return order, points, den, underflow, num / den[:, None]


def _objective_and_gradient(
    coords: np.ndarray, labels: np.ndarray, k: int, bandwidth: float, floor: float | None
) -> tuple:
    """The estimate of ``coords`` and its gradient in those coordinates.

    Returns ``(objective, None)`` when the objective, taken from one
    posterior pass and bit-equal to ``estimate_bayes_error``, falls below
    ``floor``, and otherwise ``(objective, (tied rows, gradients))`` in
    input order; the formula is on ``perturb.objective_and_gradient``.
    The gradient takes a second streamed pass, pass B, which builds each
    row span of W from an (n, k) coefficient table.
    """
    order, points, den, underflow, posteriors = _posterior_pass(coords, labels, k, bandwidth)
    n = points.shape[0]
    # argmax returns the first maximal column, i.e. the lowest class index
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    # the mean sums in row order, so it runs in input order
    objective = float(1.0 - _input_order(order, pstar).mean())
    if floor is not None and objective < floor:
        return objective, None
    labels = labels[order]
    tied = (posteriors == pstar[:, None]).sum(axis=1) > 1

    # C[i, j] = table[i, y_j], so W streams from this (n, K) table
    selected = np.arange(k) == cstar[:, None]
    table = (selected - pstar[:, None]) / den[:, None]
    table_t = np.ascontiguousarray(table.T)
    points_t = np.ascontiguousarray(points.T)
    wsum = np.empty(n)
    mixed = np.empty_like(points)

    # labels lie in [0, K), so "clip" moves no index; under the default
    # "raise", take fills ``out`` through a fresh copy
    def fill(span, scratch) -> None:
        lo, hi = span
        weights = np.take(table[lo:hi], labels, axis=1, out=scratch[0], mode="clip")
        weights += np.take(table_t, labels[lo:hi], axis=0, out=scratch[1], mode="clip")
        weights *= _similarity_rows(points, lo, hi, bandwidth, out=scratch[1])
        weights /= bandwidth * bandwidth
        np.fill_diagonal(weights[:, lo:hi], 0.0)
        weights.sum(axis=1, out=wsum[lo:hi])
        np.einsum("ij,kj->ik", weights, points_t, out=mixed[lo:hi])

    _run_row_spans(fill, n)
    # an underflowing row u streamed its own terms below float64's normal
    # range; add them, w_um = C[u, m] s(x_u, x_m) / sigma^2, to W[u, m]
    # and W[m, u] from its shifted similarities
    row = np.empty((1, n))
    for u in underflow:
        _similarity_rows(points, u, u + 1, bandwidth, out=row, shifted=True)
        weights = table[u].take(labels) * row[0] / (bandwidth * bandwidth)
        wsum[u] += weights.sum()
        mixed[u] += np.einsum("j,kj->k", weights, points_t)
        wsum += weights
        mixed += weights[:, None] * points[u]
    # (wsum * x - mixed) / n, formed in place
    gradients = wsum[:, None] * points
    gradients -= mixed
    gradients /= n
    # mixed is spent, so it takes the gradients back to input order
    mixed[order] = gradients
    return objective, (np.flatnonzero(_input_order(order, tied)), mixed)


def estimate_posteriors(data: LabeledDataset, kernel: SimilarityKernel) -> PosteriorMatrix:
    """Leave-one-out kernel posteriors for every sample.

    Row i, column c is sum_{j != i} [y_j = c] s(x_j, x_i) divided by
    sum_{k != i} s(x_k, x_i), also where that mass underflows float64.
    As the bandwidth goes to zero, row i tends to the one-hot label of
    its nearest neighbour.
    """
    order, _, _, _, values = _posterior_pass(
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
    from scipy.spatial.distance import pdist

    dists = pdist(data.points)
    med = float(np.median(dists, overwrite_input=True))
    if med <= 0.0:
        raise ValueError(
            "median pairwise distance is zero; bandwidth must be chosen "
            "explicitly for data with many coincident points"
        )
    if med == np.inf:
        raise ValueError("median pairwise distance overflows; bandwidth must be chosen explicitly")
    return med
