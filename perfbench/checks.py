"""Correctness checks on what each benchmark operation returns.

Each check returns a list of failure messages; an empty list is a pass.
An operation counts as failed when any of its checks fails.
"""

from __future__ import annotations

import hashlib

import numpy as np

import bayeshield as bs

# Same rounding allowance the library's projection uses.
RADIUS_SLACK = 1e-12
# The clean estimate and the perturbation's first trace entry come from
# two code paths over the same arithmetic; they must agree this closely.
CLEAN_AGREEMENT = 1e-9


def row_norms(deltas: np.ndarray, norm: str) -> np.ndarray:
    if norm == "linf":
        return np.abs(deltas).max(axis=1)
    return np.sqrt((deltas * deltas).sum(axis=1))


def free_rows(n: int, constraint) -> np.ndarray:
    mask = np.ones(n, dtype=bool)
    mask[list(constraint.frozen)] = False
    return mask


def check_budget(deltas, constraint) -> list:
    """Every free row lies within ``radius + RADIUS_SLACK`` under its norm."""
    free = free_rows(len(deltas), constraint)
    norms = row_norms(np.asarray(deltas), constraint.norm_order)[free]
    over = np.flatnonzero(norms > constraint.radius + RADIUS_SLACK)
    if over.size:
        return [f"{over.size} free row(s) outside the {constraint.norm_order} "
                f"ball, worst norm {norms.max()!r} > {constraint.radius!r}"]
    return []


def check_frozen(original, perturbed, deltas, constraint) -> list:
    """Frozen rows come back bit-identical, with a zero perturbation."""
    rows = sorted(constraint.frozen)
    if not rows:
        return []
    moved = np.flatnonzero(np.any(perturbed[rows] != original[rows], axis=1)
                           | np.any(deltas[rows] != 0.0, axis=1))
    if moved.size:
        return [f"{moved.size} frozen row(s) changed, first is row {rows[moved[0]]}"]
    return []


def check_sum(original, perturbed, deltas) -> list:
    """The perturbed points are exactly the original points plus deltas."""
    if perturbed.shape != original.shape or deltas.shape != original.shape:
        return [f"shape mismatch: points {original.shape}, perturbed "
                f"{perturbed.shape}, deltas {deltas.shape}"]
    bad = np.flatnonzero(np.any(original + deltas != perturbed, axis=1))
    if bad.size:
        return [f"{bad.size} row(s) where perturbed != input + deltas, first row {bad[0]}"]
    return []


def check_final_estimate(perturbed: bs.LabeledDataset, trace, kernel, embedding) -> list:
    """trace[-1] is bit-equal to a fresh estimate on the returned points."""
    target = perturbed if embedding is None else bs.embed_dataset(embedding, perturbed)
    fresh = bs.estimate_bayes_error(target, kernel).value
    if float(trace[-1]) != fresh:
        return [f"trace[-1]={float(trace[-1])!r} but a fresh estimate gives {fresh!r}"]
    return []


def check_clean_estimate(clean_value: float, trace) -> list:
    """The estimate op and the perturbation's trace[0] agree."""
    if not abs(float(trace[0]) - clean_value) <= CLEAN_AGREEMENT:
        return [f"clean estimate {clean_value!r} differs from trace[0]={float(trace[0])!r}"]
    return []


def check_ascent(trace, iterations: int) -> list:
    """Every step is recorded and the objective ends above where it began,
    so a change that skips or shrinks the ascent fails here."""
    if len(trace) != iterations + 1:
        return [f"trace has {len(trace)} entries, expected {iterations + 1}"]
    if not float(trace[-1]) > float(trace[0]):
        return [f"no ascent: trace[-1]={float(trace[-1])!r} <= trace[0]={float(trace[0])!r}"]
    return []


def check_perturbation(inputs, clean_value, perturbed, deltas, trace) -> list:
    """All checks on one perturbation job; ``perturbed`` is a LabeledDataset."""
    original = inputs.data.points
    points = perturbed.points
    relabeled = [] if np.array_equal(perturbed.labels, inputs.data.labels) else ["labels changed"]
    return (
        relabeled
        + check_sum(original, points, deltas)
        + check_budget(deltas, inputs.constraint)
        + check_frozen(original, points, deltas, inputs.constraint)
        + check_final_estimate(perturbed, trace, inputs.kernel, inputs.embedding)
        + check_clean_estimate(clean_value, trace)
        + check_ascent(trace, inputs.config.max_iterations)
    )


def digest(*parts) -> str:
    """sha256 over arrays (their bytes) and files (their contents)."""
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part).tobytes())
        else:
            with open(part, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()
