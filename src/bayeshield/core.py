"""Shared domain types.

Plain data containers with validation. No algorithms live here; the
estimator, perturbation, and embedding modules operate on these types.
All numeric payloads are float64 numpy arrays, copied on construction
and marked read-only, so instances are safe to share between threads.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field

import numpy as np

NORM_ORDERS = ("l2", "linf")


def _frozen_array(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True)
class LabeledDataset:
    """A finite labeled sample: n points in d dimensions with classes in [0, K).

    Parameters
    ----------
    points : array_like, shape (n, d)
        Feature values. Must be finite.
    labels : array_like, shape (n,)
        Integer class indices, each in ``[0, num_classes)``.
    num_classes : int
        Number of classes K, at least 1.
    """

    points: np.ndarray
    labels: np.ndarray
    num_classes: int

    def __post_init__(self) -> None:
        points = _frozen_array(self.points, np.float64)
        labels = _frozen_array(self.labels, np.int64)
        if points.ndim != 2:
            raise ValueError(f"points must be a 2-d array, got shape {points.shape}")
        n, d = points.shape
        if n < 2:
            raise ValueError(f"need at least 2 samples, got {n}")
        if d < 1:
            raise ValueError("need at least 1 feature dimension")
        if labels.shape != (n,):
            raise ValueError(
                f"labels shape {labels.shape} does not match {n} points"
            )
        if not np.all(np.isfinite(points)):
            raise ValueError("points contain non-finite values")
        k = int(self.num_classes)
        if k < 1:
            raise ValueError(f"num_classes must be >= 1, got {k}")
        if labels.size and (labels.min() < 0 or labels.max() >= k):
            bad = int(np.argmax((labels < 0) | (labels >= k)))
            raise ValueError(
                f"label {labels[bad]} at row {bad} outside [0, {k})"
            )
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "num_classes", k)

    @property
    def n(self) -> int:
        return self.points.shape[0]

    @property
    def d(self) -> int:
        return self.points.shape[1]

    def with_points(self, points) -> "LabeledDataset":
        """Same labels and class count, different coordinates."""
        return LabeledDataset(points, self.labels, self.num_classes)


@dataclass(frozen=True)
class SimilarityKernel:
    """Gaussian pairwise similarity of bandwidth sigma.

    The streamed pairwise pass evaluates it as exp(-||a - b||^2 /
    (2 sigma^2)), which is symmetric in its arguments, bounded in (0, 1],
    and equals 1 exactly when a = b. sigma^2 must be a normal float64,
    so sigma is at least about 1.49e-154.
    """

    bandwidth: float

    def __post_init__(self) -> None:
        bw = float(self.bandwidth)
        if not np.isfinite(bw) or bw <= 0:
            raise ValueError(f"bandwidth must be a positive finite real, got {bw}")
        if bw * bw < np.finfo(np.float64).tiny:
            raise ValueError(
                f"bandwidth {bw!r} is too small: its square is below the smallest "
                "normal float64, so sigma must be at least about 1.49e-154"
            )
        object.__setattr__(self, "bandwidth", bw)


@dataclass(frozen=True)
class PerturbationConstraint:
    """Per-sample norm budget: ||delta_i||_p <= radius, p in {2, inf}.

    ``frozen`` lists sample indices whose perturbation is pinned to the
    zero vector, modeling clean rows mixed into a perturbed release.
    Membership in [0, n) is checked at use time, where n is known.
    """

    norm_order: str
    radius: float
    frozen: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        if self.norm_order not in NORM_ORDERS:
            raise ValueError(
                f"norm_order must be one of {NORM_ORDERS}, got {self.norm_order!r}"
            )
        radius = float(self.radius)
        if not np.isfinite(radius) or radius <= 0:
            raise ValueError(f"radius must be a positive finite real, got {radius}")
        frozen = frozenset(int(i) for i in self.frozen)
        if any(i < 0 for i in frozen):
            raise ValueError("frozen indices must be non-negative")
        object.__setattr__(self, "radius", radius)
        object.__setattr__(self, "frozen", frozen)


@dataclass(frozen=True)
class PosteriorMatrix:
    """Leave-one-out posterior estimates, one normalized row per sample.

    Every row is the kernel-weighted vote of the other samples, also
    where that row's similarity mass underflows float64 (see
    ``estimate_posteriors``).
    """

    values: np.ndarray

    def __post_init__(self) -> None:
        values = _frozen_array(self.values, np.float64)
        if values.ndim != 2:
            raise ValueError(f"posterior values must be 2-d, got shape {values.shape}")
        if values.shape[1] < 1:
            raise ValueError("posterior matrix needs at least one class column")
        if not np.all(np.isfinite(values)):
            raise ValueError("posterior values contain non-finite entries")
        if values.min() < -1e-12 or values.max() > 1.0 + 1e-12:
            raise ValueError("posterior entries must lie in [0, 1]")
        row_err = np.abs(values.sum(axis=1) - 1.0)
        if row_err.max() > 1e-9:
            bad = int(np.argmax(row_err))
            raise ValueError(
                f"posterior row {bad} sums to {values[bad].sum()!r}, not 1"
            )
        object.__setattr__(self, "values", values)

    @property
    def n(self) -> int:
        return self.values.shape[0]

    @property
    def num_classes(self) -> int:
        return self.values.shape[1]


@dataclass(frozen=True)
class PgaConfig:
    """Settings for the projected gradient ascent loop.

    ``step_size`` is the ascent step eta, ``max_iterations`` the number
    of gradient steps T.
    """

    step_size: float
    max_iterations: int

    def __post_init__(self) -> None:
        step = float(self.step_size)
        if not np.isfinite(step) or step <= 0:
            raise ValueError(f"step_size must be a positive finite real, got {step}")
        iters = int(self.max_iterations)
        if iters < 0:
            raise ValueError(f"max_iterations must be >= 0, got {iters}")
        # a stalled ascent pads its trace to this length, which must fit an index
        if iters >= sys.maxsize:
            raise ValueError(f"max_iterations must be below {sys.maxsize}, got {iters}")
        object.__setattr__(self, "step_size", step)
        object.__setattr__(self, "max_iterations", iters)


@dataclass(frozen=True)
class PgaResult:
    """Outcome of a projected gradient ascent run.

    ``perturbed.points`` equals the original points plus ``deltas``,
    exactly. ``trace`` holds the objective per iteration: entry 0 is the
    unperturbed estimate and the last entry is the estimate recomputed
    on the returned dataset; no entry falls below the one before it by
    more than rounding. ``halvings`` counts each step's halvings, with one
    over the limit for a step that never stopped lowering the estimate
    and for every step after it, whose trace entries repeat the last.
    """

    perturbed: LabeledDataset
    deltas: np.ndarray
    trace: np.ndarray
    halvings: tuple = ()

    def __post_init__(self) -> None:
        deltas = _frozen_array(self.deltas, np.float64)
        if deltas.shape != self.perturbed.points.shape:
            raise ValueError(
                f"deltas shape {deltas.shape} does not match points "
                f"{self.perturbed.points.shape}"
            )
        trace = _frozen_array(self.trace, np.float64)
        if trace.ndim != 1 or trace.size < 1:
            raise ValueError("trace must be a non-empty 1-d array")
        if not np.all(np.isfinite(trace)):
            raise ValueError("trace contains non-finite values")
        object.__setattr__(self, "deltas", deltas)
        object.__setattr__(self, "trace", trace)
        object.__setattr__(self, "halvings", tuple(int(h) for h in self.halvings))
