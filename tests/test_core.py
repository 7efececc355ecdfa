import re
import subprocess
import sys

import numpy as np
import pytest

from bayeshield.core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    PgaResult,
    PosteriorMatrix,
    SimilarityKernel,
)


def test_dataset_basic_construction():
    ds = LabeledDataset([[0.0, 1.0], [2.0, 3.0]], [0, 1], 2)
    assert ds.n == 2
    assert ds.d == 2
    assert ds.points.dtype == np.float64
    assert ds.labels.dtype == np.int64


def exactly(message):
    return f"^{re.escape(message)}$"


def test_dataset_rejects_single_sample():
    with pytest.raises(ValueError, match="at least 2"):
        LabeledDataset([[0.0]], [0], 1)
    # the other shape checks, each with its exact message
    with pytest.raises(ValueError, match=exactly("points must be a 2-d array, got shape (2,)")):
        LabeledDataset([0.0, 1.0], [0, 1], 2)
    with pytest.raises(ValueError, match=exactly("need at least 1 feature dimension")):
        LabeledDataset(np.empty((2, 0)), [0, 1], 2)
    with pytest.raises(ValueError, match=exactly("labels shape (3,) does not match 2 points")):
        LabeledDataset([[0.0], [1.0]], [0, 1, 1], 2)


def test_dataset_rejects_label_outside_range():
    with pytest.raises(ValueError, match="label 2"):
        LabeledDataset([[0.0], [1.0]], [0, 2], 2)
    with pytest.raises(ValueError, match="outside"):
        LabeledDataset([[0.0], [1.0]], [0, -1], 2)


def test_dataset_rejects_nonfinite_points():
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset([[0.0], [np.nan]], [0, 1], 2)
    with pytest.raises(ValueError, match="finite"):
        LabeledDataset([[0.0], [np.inf]], [0, 1], 2)


def test_dataset_rejects_bad_num_classes():
    with pytest.raises(ValueError, match="num_classes"):
        LabeledDataset([[0.0], [1.0]], [0, 0], 0)


def test_dataset_arrays_are_immutable_copies():
    pts = np.array([[0.0], [1.0]])
    ds = LabeledDataset(pts, [0, 1], 2)
    pts[0, 0] = 99.0
    assert ds.points[0, 0] == 0.0
    with pytest.raises(ValueError):
        ds.points[0, 0] = 5.0


def test_with_points_keeps_labels_and_classes():
    ds = LabeledDataset([[0.0], [1.0]], [0, 1], 3)
    moved = ds.with_points([[1.0], [2.0]])
    assert moved.num_classes == 3
    assert np.array_equal(moved.labels, ds.labels)


def test_kernel_validation():
    assert SimilarityKernel(bandwidth=2.0).bandwidth == 2.0
    with pytest.raises(ValueError, match="bandwidth"):
        SimilarityKernel(bandwidth=0.0)
    with pytest.raises(ValueError, match="bandwidth"):
        SimilarityKernel(bandwidth=-1.0)
    # sigma^2 is subnormal at 1e-160 and zero at 1e-300
    for tiny in (1e-160, 1e-300):
        with pytest.raises(ValueError, match=rf"^bandwidth {tiny!r} is too small"):
            SimilarityKernel(bandwidth=tiny)
    assert SimilarityKernel(bandwidth=1e-150).bandwidth == 1e-150


def test_constraint_validation():
    c = PerturbationConstraint(norm_order="linf", radius=0.1, frozen={1, 3})
    assert c.frozen == frozenset({1, 3})
    with pytest.raises(ValueError, match="norm_order"):
        PerturbationConstraint(norm_order="l1", radius=0.1)
    with pytest.raises(ValueError, match="radius"):
        PerturbationConstraint(norm_order="l2", radius=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        PerturbationConstraint(norm_order="l2", radius=0.1, frozen={-1})


def test_posterior_matrix_validation():
    pm = PosteriorMatrix([[0.25, 0.75], [1.0, 0.0]])
    assert pm.n == 2
    assert pm.num_classes == 2
    with pytest.raises(ValueError, match="sums to"):
        PosteriorMatrix([[0.5, 0.4]])
    with pytest.raises(ValueError, match="lie in"):
        PosteriorMatrix([[1.5, -0.5]])
    with pytest.raises(ValueError, match=exactly("posterior values must be 2-d, got shape (2,)")):
        PosteriorMatrix([0.5, 0.5])
    with pytest.raises(
        ValueError, match=exactly("posterior matrix needs at least one class column")
    ):
        PosteriorMatrix(np.empty((2, 0)))
    with pytest.raises(ValueError, match=exactly("posterior values contain non-finite entries")):
        PosteriorMatrix([[np.nan, 1.0]])


def test_pga_config_validation():
    PgaConfig(step_size=0.5, max_iterations=0)
    with pytest.raises(ValueError, match="step_size"):
        PgaConfig(step_size=0.0, max_iterations=5)
    with pytest.raises(ValueError, match="max_iterations"):
        PgaConfig(step_size=0.1, max_iterations=-1)


def test_pga_config_rejects_iterations_that_do_not_fit_an_index():
    # a stalled ascent pads its trace to max_iterations + 1 entries
    PgaConfig(step_size=0.1, max_iterations=sys.maxsize - 1)
    with pytest.raises(ValueError, match=rf"^max_iterations must be below {sys.maxsize}, got"):
        PgaConfig(step_size=0.1, max_iterations=sys.maxsize)


def test_pga_result_validation():
    ds = LabeledDataset([[0.0], [1.0]], [0, 1], 2)
    res = PgaResult(perturbed=ds, deltas=[[0.0], [0.0]], trace=[0.1, 0.2])
    assert res.trace.shape == (2,)
    with pytest.raises(ValueError, match="deltas shape"):
        PgaResult(perturbed=ds, deltas=[[0.0, 0.0]], trace=[0.1])
    with pytest.raises(ValueError, match="trace"):
        PgaResult(perturbed=ds, deltas=[[0.0], [0.0]], trace=[])
    with pytest.raises(ValueError, match=exactly("trace contains non-finite values")):
        PgaResult(perturbed=ds, deltas=[[0.0], [0.0]], trace=[0.1, np.inf])


def test_star_import_resolves_every_public_name():
    # a name left in __all__ after its object is gone fails the star import
    code = (
        "import bayeshield\n"
        "from bayeshield import *\n"
        "print(all(n in globals() for n in bayeshield.__all__))"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert result.returncode == 0, result.stderr
    assert result.stdout == "True\n"
