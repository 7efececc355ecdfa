"""Synthetic datasets with known ground truth, plus numeric oracles.

Two generators: a pair of one-dimensional truncated normals whose exact
Bayes error is available by quadrature, and the two-moons toy problem.
Both draw through numpy's seeded Generator (PCG64), so every dataset is
reproducible bit-for-bit from its seed, independent of thread count.
The finite-difference gradient here is the independent check against
the analytic gradient of the perturbation module.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, SimilarityKernel
from .embed import EmbeddingMap, embed_dataset
from .estimator import estimate_posteriors

# Bandwidth for the 200-point moons sample, calibrated once so the
# leave-one-out estimate centers near 0.143 over seeds. The median
# heuristic is far too wide for this geometry (the two arcs are only
# ~0.3 apart while the point cloud spans ~3), so the demo pins sigma.
MOONS_BANDWIDTH = 0.425

DEFAULT_QUADRATURE_POINTS = 200_001


@dataclass(frozen=True)
class TruncatedNormal:
    """A normal distribution restricted to [lower, upper], renormalized."""

    mean: float
    std: float
    lower: float
    upper: float

    def __post_init__(self) -> None:
        mean, std = float(self.mean), float(self.std)
        lower, upper = float(self.lower), float(self.upper)
        if not all(np.isfinite(v) for v in (mean, std, lower, upper)):
            raise ValueError("truncated normal parameters must be finite")
        if std <= 0:
            raise ValueError(f"std must be positive, got {std}")
        if lower >= upper:
            raise ValueError(f"need lower < upper, got [{lower}, {upper}]")
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)

    def _standardized(self) -> tuple:
        return (self.lower - self.mean) / self.std, (self.upper - self.mean) / self.std

    def pdf(self, x) -> np.ndarray:
        """Density, zero outside the truncation interval."""
        # scipy.stats doubles the package's import time; only these helpers need it
        from scipy.stats import norm

        xv = np.asarray(x, dtype=np.float64)
        mass = norm.cdf(self.upper, self.mean, self.std) - norm.cdf(
            self.lower, self.mean, self.std
        )
        inside = (xv >= self.lower) & (xv <= self.upper)
        return np.where(inside, norm.pdf(xv, self.mean, self.std) / mass, 0.0)

    def ppf(self, u) -> np.ndarray:
        """Inverse CDF, used for deterministic sampling."""
        from scipy.stats import truncnorm

        a, b = self._standardized()
        return truncnorm.ppf(u, a, b, loc=self.mean, scale=self.std)


@dataclass(frozen=True)
class TruncatedNormalPairSpec:
    """Two truncated normal class conditionals with class priors.

    Priors must be non-negative and sum to 1; a zero prior is allowed
    and yields a single-class sample.
    """

    class0: TruncatedNormal
    class1: TruncatedNormal
    prior0: float
    prior1: float

    def __post_init__(self) -> None:
        p0, p1 = float(self.prior0), float(self.prior1)
        if not (np.isfinite(p0) and np.isfinite(p1)):
            raise ValueError("priors must be finite")
        if p0 < 0 or p1 < 0:
            raise ValueError(f"priors must be non-negative, got ({p0}, {p1})")
        if abs(p0 + p1 - 1.0) > 1e-9:
            raise ValueError(f"priors must sum to 1, got {p0 + p1}")
        object.__setattr__(self, "prior0", p0)
        object.__setattr__(self, "prior1", p1)


def canonical_truncated_normal_pair() -> TruncatedNormalPairSpec:
    """The repository's reference pair.

    Parameters were calibrated once against the quadrature oracle so
    the analytic Bayes error is 0.1427; they are fixed here so every
    test and demo shares the same ground truth.
    """
    return TruncatedNormalPairSpec(
        class0=TruncatedNormal(mean=0.0, std=1.0, lower=-3.5, upper=4.5),
        class1=TruncatedNormal(mean=1.0, std=1.3, lower=-3.5, upper=4.5),
        prior0=0.841125,
        prior1=0.158875,
    )


def analytic_bayes_error(
    spec: TruncatedNormalPairSpec, quadrature_points: int = DEFAULT_QUADRATURE_POINTS
) -> float:
    """Exact Bayes error of the pair by fixed-grid quadrature.

    Integrates min(prior0 * f0, prior1 * f1) over the union of the two
    truncation intervals with the trapezoid rule. At the default grid
    density the result is converged well below 1e-6: doubling
    ``quadrature_points`` moves it by less than that.
    """
    points = int(quadrature_points)
    if points < 2:
        raise ValueError(f"quadrature_points must be at least 2, got {points}")
    lo = min(spec.class0.lower, spec.class1.lower)
    hi = max(spec.class0.upper, spec.class1.upper)
    grid = np.linspace(lo, hi, points)
    overlap = np.minimum(
        spec.prior0 * spec.class0.pdf(grid), spec.prior1 * spec.class1.pdf(grid)
    )
    return float(np.trapezoid(overlap, grid))


def sample_truncated_normal_pair(
    spec: TruncatedNormalPairSpec, n: int, seed: int
) -> LabeledDataset:
    """Draw n labeled points: class by prior, then inverse-CDF position.

    Two generator calls in a fixed order (labels, then positions) make
    the draw reproducible from the seed alone.
    """
    if n < 2:
        raise ValueError(f"need n >= 2, got {n}")
    rng = np.random.default_rng(seed)
    labels = (rng.random(n) < spec.prior1).astype(np.int64)
    u = rng.random(n)
    x = np.empty(n)
    for c, comp in ((0, spec.class0), (1, spec.class1)):
        idx = labels == c
        if idx.any():
            x[idx] = comp.ppf(u[idx])
    return LabeledDataset(x[:, None], labels, 2)


def generate_moons(n: int, noise: float, seed: int) -> LabeledDataset:
    """Two interleaving half circles with n/2 points per class.

    Class 0 walks the upper unit half circle at the origin, class 1 the
    lower half circle shifted by (1, 0.5); both get isotropic Gaussian
    jitter of the given standard deviation.
    """
    if n < 2 or n % 2 != 0:
        raise ValueError(f"n must be even and >= 2, got {n}")
    noise = float(noise)
    if not np.isfinite(noise) or noise < 0:
        raise ValueError(f"noise must be a non-negative real, got {noise}")
    rng = np.random.default_rng(seed)
    half = n // 2
    angles = np.linspace(0.0, np.pi, half)
    upper = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    lower = np.stack([1.0 - np.cos(angles), 0.5 - np.sin(angles)], axis=1)
    points = np.concatenate([upper, lower], axis=0)
    if noise > 0:
        points = points + rng.normal(0.0, noise, points.shape)
    labels = np.concatenate(
        [np.zeros(half, dtype=np.int64), np.ones(half, dtype=np.int64)]
    )
    return LabeledDataset(points, labels, 2)


def finite_difference_gradient(
    data: LabeledDataset,
    kernel: SimilarityKernel,
    embedding: EmbeddingMap | None = None,
    h: float = 1e-5,
) -> np.ndarray:
    """Central-difference gradient of the Bayes error estimate.

    The per-row argmax class is located once at the base configuration
    (lowest class index on ties) and held fixed while differencing, so
    the quotient follows the same smooth branch of the objective that
    the analytic gradient differentiates. Away from ties this equals
    differencing the estimate itself; at a tie the raw estimate has a
    kink and plain differencing would measure the kink, not a slope.

    Cost is 2 n d full posterior evaluations; intended for small
    verification instances only.
    """
    h = float(h)
    if not np.isfinite(h) or h <= 0:
        raise ValueError(f"h must be a positive real, got {h}")

    def posterior_values(points: np.ndarray) -> np.ndarray:
        ds = data.with_points(points)
        if embedding is not None:
            ds = embed_dataset(embedding, ds)
        return estimate_posteriors(ds, kernel).values

    base = posterior_values(data.points)
    pinned = base.argmax(axis=1)
    rows = np.arange(data.n)

    def objective(points: np.ndarray) -> float:
        values = posterior_values(points)
        return float(1.0 - values[rows, pinned].mean())

    grads = np.zeros_like(data.points)
    for i in range(data.n):
        for j in range(data.d):
            plus = data.points.copy()
            minus = data.points.copy()
            plus[i, j] += h
            minus[i, j] -= h
            grads[i, j] = (objective(plus) - objective(minus)) / (2.0 * h)
    return grads
