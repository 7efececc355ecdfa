"""Perturbing in input space while measuring similarity in a feature space.

When similarity should be judged after a known feature map, the
estimator runs on embedded points while the budget stays in raw input
coordinates. The chain rule pulls the gradient back through the map,
so ascent steps remain valid input-space directions.

The map here is a small fixed two-layer tanh network. Nothing is
trained; it stands in for any differentiable featurizer that is known
at perturbation time.
"""

import numpy as np

from bayeshield import (
    EmbeddingLayer,
    EmbeddingMap,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
    default_step_size,
    estimate_bayes_error,
    embed_dataset,
    generate_moons,
    pga_maximize,
)

rng = np.random.default_rng(3)
mapping = EmbeddingMap(
    layers=(
        EmbeddingLayer(
            weight=rng.normal(size=(8, 2)) * 0.9,
            bias=rng.normal(size=8) * 0.1,
            activation="tanh",
        ),
        EmbeddingLayer(
            weight=rng.normal(size=(2, 8)) * 0.9,
            bias=rng.normal(size=2) * 0.1,
            activation="tanh",
        ),
    )
)

n, eps = 200, 0.25
data = generate_moons(n, noise=0.1, seed=0)
kernel = SimilarityKernel(bandwidth=0.3)
constraint = PerturbationConstraint(norm_order="l2", radius=eps)
# The default step is calibrated on raw moons, not on this map. Through
# the map, the full default step lowers the estimate at 23 of the 100
# steps, and half or a quarter of it still does at 20 and 15 steps.
# An eighth is the largest halving that rises at every step.
config = PgaConfig(step_size=default_step_size(n, eps) / 8, max_iterations=100)

result = pga_maximize(data, kernel, constraint, config, embedding=mapping)
before, after = result.trace[0], result.trace[-1]

print("Two moons pushed through a fixed 2-8-2 tanh map.")
print(f"Estimate in embedding space before: {before:.4f}")
print(f"Estimate in embedding space after:  {after:.4f}")
print(f"Lift: {after / before:.3f}x")
print("The step is an eighth of the raw-space default: larger steps")
print("overshoot through the map and lower the estimate at some steps.")
print()

norms = np.sqrt((result.deltas**2).sum(axis=1))
print(f"Budget check, raw input space: max shift {norms.max():.4f} <= {eps}")
print()

# the same perturbed points, re-scored directly on the embedded data,
# must agree with the trace endpoint
direct = estimate_bayes_error(embed_dataset(mapping, result.perturbed), kernel)
print(f"Re-scoring embedded perturbed points: {direct.value:.4f}")
assert direct.value == after
print()
print("The trace endpoint and the direct re-score are the same number,")
print("bit for bit: the ascent loop reports exactly the quantity that")
print("an independent pass computes.")
