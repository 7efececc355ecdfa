"""Leave-one-out kernel posterior estimation and the Bayes error estimate.

For each sample the posterior over classes is a kernel-weighted vote of
all other samples (a Nadaraya-Watson style local average; the sample
itself never votes). The Bayes error estimate is one minus the mean of
the per-sample maximum posterior. A naive exact-match frequency
posterior is included as a contrast baseline; it is undefined off the
sample support, which is the failure mode the kernel estimator removes.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.spatial.distance import cdist, pdist

from .core import LabeledDataset, PosteriorMatrix, SimilarityKernel, _frozen_array

# Target element count per row span of the streamed n x n pairwise pass,
# which holds O(n * span) memory. Span boundaries never change the per-row
# arithmetic, so results are identical for any span or thread count.
_CHUNK_ELEMENTS = 65_536


class UndefinedPosteriorError(ValueError):
    """The exact-match frequency posterior has no support at the query."""


@dataclass(frozen=True)
class BayesErrorEstimate:
    """Estimated Bayes error together with its per-sample evidence.

    ``value`` equals 1 - mean(per_sample_max_posterior) and lies in
    [0, 1 - 1/K]. ``fallback_rows`` propagates the uniform-fallback
    diagnostic from the posterior computation.
    """

    value: float
    per_sample_max_posterior: np.ndarray
    fallback_rows: tuple = ()

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
        object.__setattr__(self, "fallback_rows", tuple(int(i) for i in self.fallback_rows))


def gaussian_similarity(a, b, bandwidth: float) -> float:
    """Gaussian similarity exp(-||a - b||^2 / (2 bandwidth^2)) of two vectors.

    Symmetric in (a, b), in (0, 1], and exactly 1 when a equals b.
    """
    av = np.asarray(a, dtype=np.float64).ravel()
    bv = np.asarray(b, dtype=np.float64).ravel()
    if av.shape != bv.shape:
        raise ValueError(f"shape mismatch: {av.shape} vs {bv.shape}")
    if not (np.all(np.isfinite(av)) and np.all(np.isfinite(bv))):
        raise ValueError("inputs must be finite")
    bw = float(bandwidth)
    if not np.isfinite(bw) or bw <= 0:
        raise ValueError(f"bandwidth must be a positive finite real, got {bw}")
    diff = av - bv
    return float(np.exp(-(diff * diff).sum() / (2.0 * bw * bw)))


def _row_spans(n: int) -> list:
    chunk = max(1, _CHUNK_ELEMENTS // n)
    return [(lo, min(lo + chunk, n)) for lo in range(0, n, chunk)]


def _run_row_spans(fill, n: int, threads: int) -> None:
    """Call ``fill((lo, hi))`` on every row span of an n-row pairwise
    pass, on ``threads`` workers when that splits the work."""
    spans = _row_spans(n)
    if threads > 1 and len(spans) > 1:
        with ThreadPoolExecutor(max_workers=int(threads)) as pool:
            list(pool.map(fill, spans))
    else:
        for span in spans:
            fill(span)


def _similarity_rows(points: np.ndarray, lo: int, hi: int, bandwidth: float) -> np.ndarray:
    """Rows lo:hi of the Gaussian similarity matrix, with zero diagonal.

    ``cdist`` sums each squared distance over the coordinates in a fixed
    order, so a row's values do not depend on the span it is computed in.
    """
    block = cdist(points[lo:hi], points, "sqeuclidean")
    np.negative(block, out=block)
    block /= 2.0 * bandwidth * bandwidth
    np.exp(block, out=block)
    block[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
    return block


def _posterior_pass(
    coords: np.ndarray, labels: np.ndarray, k: int, bandwidth: float, threads: int
) -> tuple:
    """Leave-one-out posteriors of ``coords`` and the sums behind them.

    Returns ``(den, ok, posteriors)``: each row's similarity mass, the
    mask of rows whose mass is positive, and the (n, k) posteriors,
    uniform where the mass underflowed. The estimator and the gradient
    both read this one streamed pass, so the objective of the gradient
    is bit-equal to the estimate.
    """
    n = coords.shape[0]
    num = np.empty((n, k))
    masks = [labels == c for c in range(k)]

    def fill(span) -> None:
        lo, hi = span
        sims = _similarity_rows(coords, lo, hi, bandwidth)
        for c, mask in enumerate(masks):
            num[lo:hi, c] = (sims * mask).sum(axis=1)

    _run_row_spans(fill, n, threads)
    den = num.sum(axis=1)
    ok = den > 0.0
    posteriors = np.full((n, k), 1.0 / k)
    posteriors[ok] = num[ok] / den[ok, None]
    return den, ok, posteriors


def estimate_posteriors(
    data: LabeledDataset, kernel: SimilarityKernel, threads: int = 1
) -> PosteriorMatrix:
    """Leave-one-out kernel posteriors for every sample.

    Row i, column c is sum_{j != i} [y_j = c] s(x_j, x_i) divided by
    sum_{k != i} s(x_k, x_i). A row whose similarity mass underflows to
    zero is replaced by the uniform distribution and reported through
    ``fallback_rows``.

    Parameters
    ----------
    data : LabeledDataset
    kernel : SimilarityKernel
    threads : int
        Worker threads for the similarity pass. Output does not depend
        on this value.
    """
    _, ok, values = _posterior_pass(
        data.points, data.labels, data.num_classes, kernel.bandwidth, threads
    )
    return PosteriorMatrix(values, fallback_rows=np.flatnonzero(~ok))


def estimate_bayes_error(
    data: LabeledDataset, kernel: SimilarityKernel, threads: int = 1
) -> BayesErrorEstimate:
    """Bayes error estimate 1 - (1/n) sum_i max_c p(y=c | x_i).

    Propagates the uniform-fallback diagnostic of the posterior pass.
    """
    posteriors = estimate_posteriors(data, kernel, threads)
    pmax = posteriors.values.max(axis=1)
    value = float(1.0 - pmax.mean())
    return BayesErrorEstimate(
        value=value,
        per_sample_max_posterior=pmax,
        fallback_rows=posteriors.fallback_rows,
    )


def naive_posterior(data: LabeledDataset, query) -> np.ndarray:
    """Exact-match frequency posterior at ``query``.

    Counts, among samples whose coordinates equal the query exactly,
    the frequency of every class. Raises UndefinedPosteriorError when
    no sample matches, which is the inherent gap of this baseline.
    """
    q = np.asarray(query, dtype=np.float64).ravel()
    if q.shape != (data.d,):
        raise ValueError(f"query shape {q.shape} does not match d={data.d}")
    matches = np.all(data.points == q, axis=1)
    total = int(matches.sum())
    if total == 0:
        raise UndefinedPosteriorError(
            "no sample coincides with the query point; the frequency "
            "posterior is undefined there"
        )
    counts = np.bincount(data.labels[matches], minlength=data.num_classes)
    return counts / total


def median_heuristic_bandwidth(data: LabeledDataset) -> float:
    """Median of all pairwise Euclidean distances, the default bandwidth.

    Scale-adaptive and deterministic. Requires at least one distinct
    pair; a zero median would not be a valid bandwidth.
    """
    dists = pdist(data.points)
    med = float(np.median(dists))
    if med <= 0.0:
        raise ValueError(
            "median pairwise distance is zero; bandwidth must be chosen "
            "explicitly for data with many coincident points"
        )
    return med
