"""Gradient ascent on the Bayes error estimate under a norm budget.

The estimate is a smooth function of the sample coordinates wherever
the per-row argmax class is unique, so it can be increased by projected
gradient ascent: take a gradient step on every free row, then project
each row's cumulative perturbation back onto its L^p ball. Frozen rows
keep a bit-zero perturbation throughout, which models releasing a mix
of clean and perturbed data.

The estimate and its gradient come from the streamed pairwise passes
behind ``estimator._objective_and_gradient``, the one private name this
module imports; it adds the embedding pullback, the projection and the
ascent.
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
from .embed import EmbeddingMap, embed_points, pullback_gradients
from .estimator import _objective_and_gradient, estimate_bayes_error

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

    ``tied_rows`` lists rows whose maximal posterior is attained by more
    than one class (the objective is non-smooth there and the gradient
    is a subgradient).
    """

    objective: float
    gradients: np.ndarray
    tied_rows: tuple = ()

    def __post_init__(self) -> None:
        grads = _frozen_array(self.gradients, np.float64)
        if grads.ndim != 2:
            raise ValueError(f"gradients must be 2-d, got shape {grads.shape}")
        if not np.all(np.isfinite(grads)):
            raise ValueError("gradients contain non-finite values")
        object.__setattr__(self, "gradients", grads)
        object.__setattr__(self, "objective", float(self.objective))
        object.__setattr__(self, "tied_rows", tuple(int(i) for i in self.tied_rows))


def default_step_size(n: int, radius: float) -> float:
    """Calibrated default ascent step for an n-sample run of budget ``radius``."""
    if n < 2:
        raise ValueError("n must be at least 2")
    if not (np.isfinite(radius) and radius > 0):
        raise ValueError(f"radius must be a positive finite real, got {radius}")
    step = STEP_SCALE * n * radius
    if not np.isfinite(step):
        raise ValueError(
            f"default step size {STEP_SCALE} * n * radius overflows at n={n}, radius={radius}"
        )
    return step


def objective_and_gradient(
    data: LabeledDataset,
    kernel: SimilarityKernel,
    embedding: EmbeddingMap | None = None,
    *,
    floor: float | None = None,
) -> GradientReport | None:
    """Bayes error estimate and its analytic gradient, streamed in bands of rows.

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

    The posterior pass gives the objective; the gradient takes a second
    pass. When the objective falls below ``floor``, that second pass and
    the pullback are skipped and the call returns None.
    """
    coords = data.points if embedding is None else embed_points(embedding, data.points)
    objective, gradient = _objective_and_gradient(
        coords, data.labels, data.num_classes, kernel.bandwidth, floor
    )
    if gradient is None:
        return None
    tied, grads = gradient
    if embedding is not None:
        grads = pullback_gradients(embedding, data.points, grads)
    return GradientReport(objective=objective, gradients=grads, tied_rows=tied)


def _project_rows(
    deltas: np.ndarray, constraint: PerturbationConstraint, scratch: np.ndarray
) -> np.ndarray:
    """Project every row of ``deltas`` onto the constraint ball in place
    and return it; ``scratch``, an array of the same shape, is overwritten."""
    radius = constraint.radius
    if constraint.norm_order == "linf":
        return np.clip(deltas, -radius, radius, out=deltas)
    with np.errstate(over="ignore"):
        norms = np.sqrt(np.multiply(deltas, deltas, out=scratch).sum(axis=1))
        factors = np.ones(deltas.shape[0])
        over = np.isfinite(norms) & (norms > radius + PROJECTION_SLACK)
        factors[over] = radius / norms[over]
        deltas *= factors[:, None]
        # a row whose squared norm overflows is measured and projected
        # after dividing it by its largest entry; the other rows keep the
        # plain formula and its bits
        for i in np.flatnonzero(np.isinf(norms)):
            scale = np.abs(deltas[i]).max()
            unit = deltas[i] / scale
            norm = np.sqrt((unit * unit).sum())
            if norm * scale > radius + PROJECTION_SLACK:
                deltas[i] = unit * (radius / norm)
    return deltas


def project(delta, constraint: PerturbationConstraint) -> np.ndarray:
    """Euclidean projection of one perturbation row onto its norm ball.

    For linf this is the coordinate-wise clamp to [-radius, radius];
    for l2, vectors inside the ball pass through unchanged and longer
    ones are rescaled onto the sphere. The feasibility test allows
    PROJECTION_SLACK of rounding so the operation is exactly idempotent.
    """
    dv = np.array(delta, dtype=np.float64).reshape(1, -1)
    if not np.all(np.isfinite(dv)):
        raise ValueError("delta must be finite")
    return _project_rows(dv, constraint, np.empty_like(dv))[0]


def pga_maximize(
    data: LabeledDataset,
    kernel: SimilarityKernel,
    constraint: PerturbationConstraint,
    config: PgaConfig,
    embedding: EmbeddingMap | None = None,
) -> PgaResult:
    """Projected gradient ascent on the Bayes error estimate.

    Starts from zero perturbation. Each step takes the gradient on the
    current points (through ``embedding`` when given), steps by
    ``config.step_size``, projects each row's cumulative perturbation
    onto the constraint ball and zeroes the rows of frozen indices. A
    step that lowers the estimate by more than MONOTONE_SLACK is
    discarded and retried at half the size from the same deltas and
    gradient; one still rejected after MAX_HALVINGS halvings keeps the
    deltas and ends the ascent. Labels never change.

    Each candidate, the start included, is scored by one call where
    similarity is taken: ``objective_and_gradient`` with the acceptance
    bound as its ``floor``, or ``estimate_bayes_error`` at the last step.
    A rejected candidate costs its posterior pass alone; a kept one that
    another step follows also pays the gradient's second pass and the
    pullback, and the spent gradient is released between the two.
    Besides that scored sample, the loop holds four (n, d) arrays, the
    deltas, the candidate, the perturbed points and the gradient, and
    overwrites them in place.

    The trace has ``max_iterations + 1`` entries: entry t is the estimate
    before step t and the last is the estimate of the returned dataset,
    bit-equal to calling the estimator on it.
    """
    n = data.n
    if any(i >= n for i in constraint.frozen):
        raise ValueError("frozen index outside the sample range")
    if len(constraint.frozen) >= n:
        raise ValueError(f"all {n} samples are frozen; nothing to perturb")

    frozen_rows = np.array(sorted(constraint.frozen), dtype=np.int64)
    iterations = config.max_iterations

    def score(points: np.ndarray, floor: float, last: bool) -> float | None:
        """A candidate's estimate where similarity is taken, or None below
        ``floor``. A kept candidate that another step follows releases the
        spent gradient and installs its own, in the input space."""
        nonlocal gradients
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain non-finite values")
        sample = data.with_points(points if embedding is None else embed_points(embedding, points))
        if last:
            value = estimate_bayes_error(sample, kernel).value
            return value if value >= floor else None
        report = objective_and_gradient(sample, kernel, floor=floor)
        if report is None:
            return None
        # the spent gradient and the scored sample go before the pullback
        # makes the new gradient
        gradients = sample = None
        if embedding is None:
            gradients = report.gradients
        else:
            gradients = pullback_gradients(embedding, points, report.gradients)
            if not np.all(np.isfinite(gradients)):
                raise ValueError("gradients contain non-finite values")
        return report.objective

    deltas = np.zeros_like(data.points)
    candidate = np.empty_like(deltas)
    points = data.points.copy()
    gradients = None
    trace, halvings = [score(points, -np.inf, iterations == 0)], []

    for t in range(iterations):
        step = config.step_size
        floor = trace[-1] - MONOTONE_SLACK
        for halved in range(MAX_HALVINGS + 1):
            np.multiply(gradients, step, out=candidate)
            candidate += deltas
            # the points are rewritten next, so they serve as scratch
            _project_rows(candidate, constraint, points)
            candidate[frozen_rows] = 0.0
            np.add(data.points, candidate, out=points)
            try:
                value = score(points, floor, t == iterations - 1)
            except ValueError as exc:
                raise ValueError(
                    f"ascent step {t} at step size {step!r}, radius {constraint.radius!r}: {exc}"
                ) from exc
            if value is not None:
                break
            step /= 2
        else:
            # the run is deterministic: every later step would retry these candidates
            trace.extend([trace[-1]] * (iterations - t))
            halvings.extend([MAX_HALVINGS + 1] * (iterations - t))
            break
        deltas, candidate = candidate, deltas
        trace.append(value)
        halvings.append(halved)

    # a stalled step left its last candidate in the points
    np.add(data.points, deltas, out=points)
    # the result copies two arrays, so the loop's other buffers go first
    candidate = gradients = None
    return PgaResult(
        perturbed=data.with_points(points),
        deltas=deltas,
        trace=np.asarray(trace),
        halvings=tuple(halvings),
    )

