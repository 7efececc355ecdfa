"""Gradient ascent on the Bayes error estimate under a norm budget.

The estimate is a smooth function of the sample coordinates wherever
the per-row argmax class is unique, so it can be increased by projected
gradient ascent: take a gradient step on every free row, then project
each row's cumulative perturbation back onto its L^p ball. Frozen rows
keep a bit-zero perturbation throughout, which models releasing a mix
of clean and perturbed data.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    PgaResult,
    SimilarityKernel,
    _frozen_array,
)
from .embed import EmbeddingMap, embed_dataset, embed_points, pullback_gradients
from .estimator import _posterior_pass, _run_row_spans, _shifted_similarity_rows
from .estimator import _similarity_rows, estimate_bayes_error

# Slack for norm-budget feasibility checks. Radial rescaling lands on
# the sphere only up to rounding, so exact idempotence needs the
# feasibility test to absorb that rounding.
PROJECTION_SLACK = 1e-12

# Per-step decrease of the objective trace that is taken as rounding
# rather than as a step too large for monotone ascent.
MONOTONE_SLACK = 1e-9

# Halvings of a rejected ascent step before the ascent stops. Each costs
# one pairwise pass, so a stalled step costs at most 31 passes, and a
# factor of 2^-30 (about 1e-9) still brings a step up to a billion times
# too large down to one that ascends.
MAX_HALVINGS = 30

# Default step size is STEP_SCALE * n * radius: the gradient of the
# averaged objective shrinks like 1/n, so a useful step must grow with
# n, and scaling with the radius keeps the per-iteration displacement
# proportional to the budget. The constant was calibrated on the
# two-moons benchmark.
STEP_SCALE = 0.0036
DEFAULT_ITERATIONS = 100


class StepSizeWarning(RuntimeWarning):
    """Never raised, as ascent halves every step that would lower the
    estimate; kept because the benchmark's tests name it in a filter."""


@dataclass(frozen=True)
class GradientReport:
    """Objective value and its gradient with respect to every point.

    ``argmax_classes`` records the per-row class the max was linearized
    at; ``tied_rows`` lists rows where that max is attained by more
    than one class (the objective is non-smooth there and the gradient
    is a subgradient).
    """

    objective: float
    gradients: np.ndarray
    argmax_classes: np.ndarray
    tied_rows: tuple = ()

    def __post_init__(self) -> None:
        grads = _frozen_array(self.gradients, np.float64)
        classes = _frozen_array(self.argmax_classes, np.int64)
        if grads.ndim != 2:
            raise ValueError(f"gradients must be 2-d, got shape {grads.shape}")
        if classes.shape != (grads.shape[0],):
            raise ValueError("argmax_classes length does not match gradient rows")
        if not np.all(np.isfinite(grads)):
            raise ValueError("gradients contain non-finite values")
        object.__setattr__(self, "gradients", grads)
        object.__setattr__(self, "argmax_classes", classes)
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "tied_rows", tuple(int(i) for i in self.tied_rows))


def default_step_size(n: int, radius: float) -> float:
    """Calibrated default ascent step for an n-sample run of budget ``radius``."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if radius <= 0:
        raise ValueError("radius must be positive")
    return STEP_SCALE * n * radius


def objective_and_gradient(
    data: LabeledDataset,
    kernel: SimilarityKernel,
    embedding: EmbeddingMap | None = None,
) -> GradientReport:
    """Bayes error estimate and its analytic gradient, streamed in row spans.

    Each row's argmax class c*_i is fixed first (ties go to the lowest
    class index), making the objective locally an average of plain
    posterior entries. The gradient with respect to a point x_m then
    collects two roles of that point: it is the query center of its own
    row and a voting neighbor in every other row. With the Gaussian
    kernel both roles reduce to a symmetric weight matrix

        W[m, j] = (C[m, j] + C[j, m]) * s(x_m, x_j) / sigma^2,
        C[i, j] = ([y_j = c*_i] - p_i) / den_i,

    where p_i is the selected posterior entry and den_i the leave-one-
    out similarity mass, and the gradient of the estimate is
    (sum_j W[m, j]) * x_m - sum_j W[m, j] x_j, divided by n. A row i
    whose mass underflows enters W with C[i, j] * s(x_i, x_j) taken from
    its similarities divided by its nearest neighbour's, which is the
    same value; its terms in other rows' columns stay as streamed.

    When ``embedding`` is given, similarity and the gradient are taken
    in the embedding space and the gradient is pulled back to the input
    space, while ``objective`` is the estimate of the embedded sample.
    """
    n = data.n
    coords = data.points if embedding is None else embed_points(embedding, data.points)
    sigma = kernel.bandwidth

    den, underflow, posteriors = _posterior_pass(coords, data.labels, data.num_classes, sigma)

    # argmax returns the first maximal column, i.e. the lowest class index
    cstar = posteriors.argmax(axis=1)
    pstar = posteriors[np.arange(n), cstar]
    objective = float(1.0 - pstar.mean())
    tied = np.flatnonzero((posteriors == pstar[:, None]).sum(axis=1) > 1)

    # C[i, j] = table[i, y_j], so W streams from this (n, K) table
    selected = np.arange(data.num_classes) == cstar[:, None]
    table = (selected - pstar[:, None]) / den[:, None]
    table_by_class = np.ascontiguousarray(table.T)
    wsum = np.empty(n)
    mixed = np.empty_like(coords)

    def fill(span) -> None:
        lo, hi = span
        weights = table[lo:hi].take(data.labels, axis=1)
        weights += table_by_class[data.labels[lo:hi]]
        weights *= _similarity_rows(coords, lo, hi, sigma)
        weights /= sigma * sigma
        weights[np.arange(hi - lo), np.arange(lo, hi)] = 0.0
        wsum[lo:hi] = weights.sum(axis=1)
        mixed[lo:hi] = np.einsum("ij,jk->ik", weights, coords)

    _run_row_spans(fill, n)
    # an underflowing row u streamed its own terms below float64's normal
    # range; add them, w_um = C[u, m] s(x_u, x_m) / sigma^2, to W[u, m]
    # and W[m, u] from its shifted similarities
    for u, row in _shifted_similarity_rows(coords, underflow, sigma):
        weights = table[u].take(data.labels) * row / (sigma * sigma)
        wsum[u] += weights.sum()
        mixed[u] += np.einsum("j,jk->k", weights, coords)
        wsum += weights
        mixed += weights[:, None] * coords[u]
    grads_emb = (wsum[:, None] * coords - mixed) / n

    if embedding is not None:
        grads = pullback_gradients(embedding, data.points, grads_emb)
    else:
        grads = grads_emb

    return GradientReport(
        objective=objective,
        gradients=grads,
        argmax_classes=cstar,
        tied_rows=tied,
    )


def _project_rows(deltas: np.ndarray, constraint: PerturbationConstraint) -> np.ndarray:
    if constraint.norm_order == "linf":
        return np.clip(deltas, -constraint.radius, constraint.radius)
    radius = constraint.radius
    with np.errstate(over="ignore"):
        norms = np.sqrt((deltas * deltas).sum(axis=1))
        factors = np.ones(deltas.shape[0])
        over = norms > radius + PROJECTION_SLACK
        factors[over] = radius / norms[over]
        projected = deltas * factors[:, None]
        # a row whose squared norm overflows is measured and projected
        # after dividing it by its largest entry; the other rows keep the
        # plain formula and its bits
        for i in np.flatnonzero(np.isinf(norms)):
            scale = np.abs(deltas[i]).max()
            unit = deltas[i] / scale
            norm = np.sqrt((unit * unit).sum())
            if norm * scale > radius + PROJECTION_SLACK:
                projected[i] = unit * (radius / norm)
            else:
                projected[i] = deltas[i]
    return projected


def project(delta, constraint: PerturbationConstraint) -> np.ndarray:
    """Euclidean projection of one perturbation row onto its norm ball.

    For linf this is the coordinate-wise clamp to [-radius, radius];
    for l2, vectors inside the ball pass through unchanged and longer
    ones are rescaled onto the sphere. The feasibility test allows
    PROJECTION_SLACK of rounding so the operation is exactly idempotent.
    """
    dv = np.asarray(delta, dtype=np.float64).ravel()
    if not np.all(np.isfinite(dv)):
        raise ValueError("delta must be finite")
    return _project_rows(dv[None, :], constraint)[0]


def pga_maximize(
    data: LabeledDataset,
    kernel: SimilarityKernel,
    constraint: PerturbationConstraint,
    config: PgaConfig,
    embedding: EmbeddingMap | None = None,
) -> PgaResult:
    """Projected gradient ascent on the Bayes error estimate.

    Starts from zero perturbation. Each step takes the gradient on the
    current points (through ``embedding`` when given), zeroes the rows of
    frozen indices, steps by ``config.step_size`` and projects each row's
    cumulative perturbation onto the constraint ball. A step that lowers
    the estimate by more than MONOTONE_SLACK is discarded and retried at
    half the size from the same deltas and gradient; one still rejected
    after MAX_HALVINGS halvings keeps the deltas and ends the ascent.
    Labels never change.

    The trace has ``max_iterations + 1`` entries: entry t is the estimate
    before step t and the last is the estimate of the returned dataset,
    bit-equal to calling the estimator on it.
    """
    n = data.n
    if any(i >= n for i in constraint.frozen):
        raise ValueError("frozen index outside the sample range")
    if len(constraint.frozen) >= n:
        raise ValueError(f"all {n} samples are frozen; nothing to perturb")

    frozen_rows = np.fromiter(sorted(constraint.frozen), dtype=np.int64, count=len(constraint.frozen))
    iterations = config.max_iterations

    def evaluate(deltas: np.ndarray, last: bool) -> tuple:
        # the next step's gradient pass scores a candidate, the estimate the last
        points = data.with_points(data.points + deltas)
        if last:
            target = points if embedding is None else embed_dataset(embedding, points)
            return estimate_bayes_error(target, kernel).value, None
        report = objective_and_gradient(points, kernel, embedding)
        return report.objective, report

    deltas = np.zeros_like(data.points)
    value, report = evaluate(deltas, iterations == 0)
    trace, halvings = [value], []

    for t in range(iterations):
        grads = report.gradients.copy()
        grads[frozen_rows] = 0.0
        step = config.step_size
        for halved in range(MAX_HALVINGS + 1):
            candidate = _project_rows(deltas + step * grads, constraint)
            value, candidate_report = evaluate(candidate, t == iterations - 1)
            if value >= trace[-1] - MONOTONE_SLACK:
                break
            step /= 2
        else:
            # the run is deterministic: every later step would retry these candidates
            trace.extend([trace[-1]] * (iterations - t))
            halvings.extend([MAX_HALVINGS + 1] * (iterations - t))
            break
        deltas, report = candidate, candidate_report
        trace.append(value)
        halvings.append(halved)

    return PgaResult(
        perturbed=data.with_points(data.points + deltas),
        deltas=deltas,
        trace=np.asarray(trace),
        halvings=tuple(halvings),
    )
