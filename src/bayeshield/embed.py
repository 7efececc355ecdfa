"""Embedding-space similarity support.

A small explicit multilayer perceptron maps raw inputs into a feature
space where similarity is evaluated, while perturbation budgets stay in
the raw space. The map is loaded from a file, so the chain rule through
it is fully inspectable; no external learning runtime is involved.
Gradients computed in the embedding space are pulled back to the input
space by reverse accumulation.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .core import LabeledDataset, _frozen_array

# name -> (activation, its derivative written in terms of the layer
# output a): for tanh that is 1 - a^2; for relu, a > 0 iff its input is,
# so the derivative at exactly 0 is taken as 0
_ACTIVATIONS = {
    "identity": (lambda z: z, np.ones_like),
    "tanh": (np.tanh, lambda a: 1.0 - a * a),
    "relu": (lambda z: np.maximum(z, 0.0), lambda a: (a > 0.0).astype(np.float64)),
}
ACTIVATIONS = tuple(_ACTIVATIONS)

EMBEDDING_FORMAT_VERSION = 1


@dataclass(frozen=True)
class EmbeddingLayer:
    """One affine layer, weight stored row-major as (out_dim, in_dim)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str

    def __post_init__(self) -> None:
        weight = _frozen_array(self.weight, np.float64)
        bias = _frozen_array(self.bias, np.float64)
        if weight.ndim != 2:
            raise ValueError(f"weight must be 2-d, got shape {weight.shape}")
        if 0 in weight.shape:
            raise ValueError(f"weight dimensions must be at least 1, got shape {weight.shape}")
        if bias.shape != (weight.shape[0],):
            raise ValueError(
                f"bias shape {bias.shape} does not match weight rows {weight.shape[0]}"
            )
        if not (np.all(np.isfinite(weight)) and np.all(np.isfinite(bias))):
            raise ValueError("layer parameters must be finite")
        if self.activation not in ACTIVATIONS:
            raise ValueError(
                f"activation must be one of {ACTIVATIONS}, got {self.activation!r}"
            )
        object.__setattr__(self, "weight", weight)
        object.__setattr__(self, "bias", bias)


@dataclass(frozen=True)
class EmbeddingMap:
    """Ordered affine-plus-activation layers with chained dimensions."""

    layers: tuple

    def __post_init__(self) -> None:
        layers = tuple(self.layers)
        if not layers:
            raise ValueError("embedding map needs at least one layer")
        for prev, cur in zip(layers, layers[1:]):
            if cur.weight.shape[1] != prev.weight.shape[0]:
                raise ValueError(
                    f"layer input dim {cur.weight.shape[1]} does not chain "
                    f"with previous output dim {prev.weight.shape[0]}"
                )
        object.__setattr__(self, "layers", layers)

    @property
    def input_dim(self) -> int:
        return self.layers[0].weight.shape[1]

    @property
    def output_dim(self) -> int:
        return self.layers[-1].weight.shape[0]


def _forward(mapping: EmbeddingMap, points: np.ndarray) -> list:
    """The layers' outputs for a batch, first layer first.

    Raises ValueError naming the first layer whose output overflows.
    """
    outputs = []
    cur = points
    for idx, layer in enumerate(mapping.layers):
        with np.errstate(over="ignore", invalid="ignore"):
            cur = _ACTIVATIONS[layer.activation][0](cur @ layer.weight.T + layer.bias)
        if not np.isfinite(cur).all():
            raise ValueError(f"embedding layer {idx} output is not finite")
        outputs.append(cur)
    return outputs


def _batch(mapping: EmbeddingMap, points) -> np.ndarray:
    """``points`` as an (n, input_dim) float64 array."""
    pts = np.asarray(points, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != mapping.input_dim:
        raise ValueError(
            f"points shape {pts.shape} does not match input_dim {mapping.input_dim}"
        )
    return pts


def embed_points(mapping: EmbeddingMap, points) -> np.ndarray:
    """Forward-evaluate the map on an (n, input_dim) batch."""
    return _forward(mapping, _batch(mapping, points))[-1]


def embed_dataset(mapping: EmbeddingMap, data: LabeledDataset) -> LabeledDataset:
    """Map every point; labels and class count carry over."""
    return LabeledDataset(embed_points(mapping, data.points), data.labels, data.num_classes)


def pullback_gradients(mapping: EmbeddingMap, points, grads_emb) -> np.ndarray:
    """Pull a batch of embedding-space gradients back to input space.

    Row i of the result is J(x_i)^T g_i, with J the Jacobian of the map
    at x_i, accumulated in reverse layer order.
    """
    pts = _batch(mapping, points)
    grads = np.asarray(grads_emb, dtype=np.float64)
    if grads.shape != (pts.shape[0], mapping.output_dim):
        raise ValueError(
            f"gradient shape {grads.shape} does not match "
            f"({pts.shape[0]}, {mapping.output_dim})"
        )
    outputs = _forward(mapping, pts)
    cur = grads
    for layer, post in zip(reversed(mapping.layers), reversed(outputs)):
        cur = cur * _ACTIVATIONS[layer.activation][1](post)
        cur = cur @ layer.weight
    return cur


def save_embedding(mapping: EmbeddingMap, path) -> None:
    """Write the map as versioned JSON: per layer, row-major weight
    matrix, bias vector, and activation name."""
    doc = {
        "version": EMBEDDING_FORMAT_VERSION,
        "layers": [
            {
                "weight": layer.weight.tolist(),
                "bias": layer.bias.tolist(),
                "activation": layer.activation,
            }
            for layer in mapping.layers
        ],
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2)
        fh.write("\n")


def load_embedding(path) -> EmbeddingMap:
    """Parse an embedding file written by :func:`save_embedding`."""
    with open(path, "r", encoding="utf-8-sig") as fh:
        try:
            doc = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
            raise ValueError(f"embedding file {path}: invalid JSON ({exc})") from exc
    if not isinstance(doc, dict):
        raise ValueError(f"embedding file {path}: top level must be an object")
    if "version" not in doc:
        raise ValueError(f"embedding file {path}: missing mandatory 'version' field")
    # true and 1.0 both compare equal to 1, so the type is checked too
    if type(doc["version"]) is not int or doc["version"] != EMBEDDING_FORMAT_VERSION:
        raise ValueError(
            f"embedding file {path}: unsupported version {doc['version']!r}"
        )
    raw_layers = doc.get("layers")
    if not isinstance(raw_layers, list) or not raw_layers:
        raise ValueError(f"embedding file {path}: 'layers' must be a non-empty list")
    layers = []
    for idx, entry in enumerate(raw_layers):
        if not isinstance(entry, dict):
            raise ValueError(f"embedding file {path}: layer {idx} must be an object")
        missing = {"weight", "bias", "activation"} - set(entry)
        if missing:
            raise ValueError(
                f"embedding file {path}: layer {idx} missing {sorted(missing)}"
            )
        try:
            layers.append(
                EmbeddingLayer(entry["weight"], entry["bias"], entry["activation"])
            )
        # an integer literal too large for float64 raises OverflowError
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"embedding file {path}: layer {idx}: {exc}") from exc
    return EmbeddingMap(tuple(layers))
