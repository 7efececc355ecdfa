"""Bayes error estimation and unlearnable-dataset construction.

The estimator computes leave-one-out kernel posteriors and the Bayes
error estimate of a labeled sample; the perturbation module raises that
estimate under a per-sample norm budget by projected gradient ascent,
optionally with frozen clean rows or with similarity evaluated in an
embedding space. The synth module provides generators with known
ground truth and the finite-difference oracle used for verification.
"""

from .core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    PgaResult,
    PosteriorMatrix,
    SimilarityKernel,
)
from .embed import (
    EmbeddingLayer,
    EmbeddingMap,
    embed_dataset,
    embed_points,
    load_embedding,
    pullback_gradients,
    save_embedding,
)
from .estimator import (
    BayesErrorEstimate,
    estimate_bayes_error,
    estimate_posteriors,
    median_heuristic_bandwidth,
)
from .perturb import (
    GradientReport,
    StepSizeWarning,
    default_step_size,
    objective_and_gradient,
    pga_maximize,
    project,
)
from .synth import (
    MOONS_BANDWIDTH,
    TruncatedNormal,
    TruncatedNormalPairSpec,
    analytic_bayes_error,
    canonical_truncated_normal_pair,
    finite_difference_gradient,
    generate_moons,
    sample_truncated_normal_pair,
)

__version__ = "0.1.0"

__all__ = [
    "BayesErrorEstimate",
    "EmbeddingLayer",
    "EmbeddingMap",
    "GradientReport",
    "LabeledDataset",
    "MOONS_BANDWIDTH",
    "PerturbationConstraint",
    "PgaConfig",
    "PgaResult",
    "PosteriorMatrix",
    "SimilarityKernel",
    "StepSizeWarning",
    "TruncatedNormal",
    "TruncatedNormalPairSpec",
    "analytic_bayes_error",
    "canonical_truncated_normal_pair",
    "default_step_size",
    "embed_dataset",
    "embed_points",
    "estimate_bayes_error",
    "estimate_posteriors",
    "finite_difference_gradient",
    "generate_moons",
    "load_embedding",
    "median_heuristic_bandwidth",
    "objective_and_gradient",
    "pga_maximize",
    "project",
    "pullback_gradients",
    "sample_truncated_normal_pair",
    "save_embedding",
    "__version__",
]
