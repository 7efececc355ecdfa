import json
import math
import re

import numpy as np
import pytest

from bayeshield.cli import main, write_dataset_csv
from bayeshield.core import (
    LabeledDataset,
    PerturbationConstraint,
    PgaConfig,
    SimilarityKernel,
)
from bayeshield.embed import (
    ACTIVATIONS,
    EmbeddingLayer,
    EmbeddingMap,
    embed_dataset,
    embed_points,
    load_embedding,
    pullback_gradients,
    save_embedding,
)
from bayeshield.perturb import objective_and_gradient, pga_maximize
from bayeshield.synth import finite_difference_gradient

K1 = SimilarityKernel(bandwidth=1.0)


def identity_map(dim):
    return EmbeddingMap((EmbeddingLayer(np.eye(dim), np.zeros(dim), "identity"),))


def affine_map():
    return EmbeddingMap(
        layers=(
            EmbeddingLayer(
                weight=[[2.0, 0.0], [0.0, 3.0]], bias=[1.0, -1.0], activation="identity"
            ),
        )
    )


def mlp_map(seed=0, d_in=2, d_mid=3, d_out=2, activation="tanh"):
    rng = np.random.default_rng(seed)
    return EmbeddingMap(
        layers=(
            EmbeddingLayer(
                weight=rng.normal(size=(d_mid, d_in)) * 0.8,
                bias=rng.normal(size=d_mid) * 0.1,
                activation=activation,
            ),
            EmbeddingLayer(
                weight=rng.normal(size=(d_out, d_mid)) * 0.8,
                bias=rng.normal(size=d_out) * 0.1,
                activation=activation,
            ),
        )
    )


def min_abs_pre_activation(m, points):
    """Smallest |z| over every layer's input to its activation."""
    smallest = np.inf
    cur = np.asarray(points, dtype=np.float64)
    for i, layer in enumerate(m.layers):
        smallest = min(smallest, np.abs(cur @ layer.weight.T + layer.bias).min())
        cur = embed_points(EmbeddingMap(m.layers[: i + 1]), points)
    return smallest


def test_identity_map_is_identity():
    m = identity_map(3)
    pts = np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]])
    np.testing.assert_array_equal(embed_points(m, pts), pts)


def test_affine_forward():
    out = embed_points(affine_map(), np.array([[1.0, 1.0]]))
    np.testing.assert_allclose(out[0], [3.0, 2.0], atol=1e-15)


def test_two_layer_tanh_forward_scalar_oracle():
    m = mlp_map(seed=1)
    x = np.array([0.4, -0.7])
    # dimension-by-dimension reference evaluation
    h = []
    for r in range(3):
        acc = float(m.layers[0].bias[r])
        for c in range(2):
            acc += float(m.layers[0].weight[r, c]) * float(x[c])
        h.append(math.tanh(acc))
    out = []
    for r in range(2):
        acc = float(m.layers[1].bias[r])
        for c in range(3):
            acc += float(m.layers[1].weight[r, c]) * h[c]
        out.append(math.tanh(acc))
    got = embed_points(m, x[None, :])[0]
    np.testing.assert_allclose(got, out, atol=1e-14)


def test_relu_forward():
    m = EmbeddingMap(
        layers=(
            EmbeddingLayer(
                weight=[[1.0, 0.0], [0.0, 1.0]], bias=[0.0, 0.0], activation="relu"
            ),
        )
    )
    out = embed_points(m, np.array([[2.0, -3.0]]))
    np.testing.assert_array_equal(out[0], [2.0, 0.0])


def test_forward_overflow_names_the_layer(tmp_path, capsys):
    huge = EmbeddingLayer(np.eye(2) * 1e308, np.zeros(2), "identity")
    m = EmbeddingMap((EmbeddingLayer(np.eye(2), np.zeros(2), "tanh"), huge, huge))
    with pytest.raises(ValueError, match="embedding layer 2 output is not finite"):
        embed_points(m, [[0.5, -0.5]])
    data_path = tmp_path / "data.csv"
    map_path = tmp_path / "map.json"
    write_dataset_csv(data_path, LabeledDataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], 2))
    save_embedding(EmbeddingMap((huge,)), map_path)
    code = main(["estimate", str(data_path), "--embedding", str(map_path)])
    assert code == 2
    assert capsys.readouterr().err == "error: embedding layer 0 output is not finite\n"


def test_dimension_properties():
    m = mlp_map()
    assert m.input_dim == 2
    assert m.output_dim == 2


def test_dimension_chain_mismatch_rejected():
    with pytest.raises(ValueError, match="chain"):
        EmbeddingMap(
            layers=(
                EmbeddingLayer(weight=[[1.0, 0.0]], bias=[0.0], activation="identity"),
                EmbeddingLayer(
                    weight=[[1.0, 0.0], [0.0, 1.0]],
                    bias=[0.0, 0.0],
                    activation="identity",
                ),
            )
        )


def test_layer_validation():
    message = "activation must be one of ('identity', 'tanh', 'relu'), got 'sigmoid'"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        EmbeddingLayer(weight=[[1.0]], bias=[0.0], activation="sigmoid")
    with pytest.raises(ValueError, match="bias"):
        EmbeddingLayer(weight=[[1.0, 2.0]], bias=[0.0, 0.0], activation="identity")
    with pytest.raises(ValueError, match="^embedding map needs at least one layer$"):
        EmbeddingMap(())


def test_pullback_identity():
    m = identity_map(2)
    g = np.array([[0.3, -0.8], [1.5, 0.0]])
    pts = np.zeros((2, 2))
    np.testing.assert_array_equal(pullback_gradients(m, pts, g), g)


def test_pullback_affine_is_w_transpose():
    m = affine_map()
    g = np.array([0.5, -2.0])
    got = pullback_gradients(m, np.array([[0.1, 0.2]]), g[None, :])
    np.testing.assert_allclose(got, [[2.0 * 0.5, 3.0 * -2.0]], atol=1e-15)


def test_pullback_linear_in_gradient():
    m = mlp_map(seed=2)
    x = np.array([[0.3, 0.9]])
    g1 = np.array([[1.0, 0.0]])
    g2 = np.array([[0.0, 1.0]])
    combined = pullback_gradients(m, x, 2.0 * g1 + 3.0 * g2)
    parts = 2.0 * pullback_gradients(m, x, g1) + 3.0 * pullback_gradients(m, x, g2)
    np.testing.assert_allclose(combined, parts, atol=1e-12)


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_pullback_matches_finite_differences(activation):
    m = mlp_map(seed=3, activation=activation)
    rng = np.random.default_rng(4)
    x = rng.normal(size=2) * 0.5
    g = rng.normal(size=2)
    # no difference below may straddle relu's kink at 0
    assert min_abs_pre_activation(m, x[None, :]) > 1e-3
    analytic = pullback_gradients(m, x[None, :], g[None, :])[0]
    h = 1e-6
    fd = np.empty(2)
    for k in range(2):
        xp, xm = x.copy(), x.copy()
        xp[k] += h
        xm[k] -= h
        fp = float(g @ embed_points(m, xp[None, :])[0])
        fm = float(g @ embed_points(m, xm[None, :])[0])
        fd[k] = (fp - fm) / (2.0 * h)
    np.testing.assert_allclose(analytic, fd, atol=1e-8)


def test_objective_with_embedding_matches_embedded_data():
    rng = np.random.default_rng(5)
    ds = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), 2)
    m = mlp_map(seed=5)
    report = objective_and_gradient(ds, K1, embedding=m)
    direct = objective_and_gradient(embed_dataset(m, ds), K1)
    assert report.objective == direct.objective


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_embedded_gradient_matches_finite_differences(activation):
    rng = np.random.default_rng(6)
    ds = LabeledDataset(rng.normal(size=(10, 2)), rng.integers(0, 2, 10), 2)
    m = mlp_map(seed=6, activation=activation)
    assert min_abs_pre_activation(m, ds.points) > 1e-3
    report = objective_and_gradient(ds, K1, embedding=m)
    assert not report.tied_rows
    fd = finite_difference_gradient(ds, K1, embedding=m)
    scale = max(np.abs(fd).max(), 1e-12)
    assert np.abs(report.gradients - fd).max() / scale <= 1e-5


def test_identity_embedding_pga_bitwise_equal():
    rng = np.random.default_rng(7)
    ds = LabeledDataset(rng.normal(size=(12, 2)), rng.integers(0, 2, 12), 2)
    c = PerturbationConstraint(norm_order="l2", radius=0.3)
    config = PgaConfig(step_size=0.03, max_iterations=6)
    plain = pga_maximize(ds, K1, c, config)
    embedded = pga_maximize(ds, K1, c, config, embedding=identity_map(2))
    np.testing.assert_array_equal(plain.perturbed.points, embedded.perturbed.points)
    np.testing.assert_array_equal(plain.trace, embedded.trace)


def test_pga_with_tanh_embedding_runs_and_lifts():
    rng = np.random.default_rng(8)
    ds = LabeledDataset(rng.normal(size=(20, 2)), rng.integers(0, 2, 20), 2)
    m = mlp_map(seed=8)
    c = PerturbationConstraint(norm_order="l2", radius=0.4)
    config = PgaConfig(step_size=0.05, max_iterations=20)
    result = pga_maximize(ds, K1, c, config, embedding=m)
    assert result.trace[-1] >= result.trace[0]
    assert np.sqrt((result.deltas**2).sum(axis=1)).max() <= 0.4 + 1e-12


def test_save_load_round_trip(tmp_path):
    m = mlp_map(seed=9)
    path = tmp_path / "map.json"
    save_embedding(m, path)
    loaded = load_embedding(path)
    assert len(loaded.layers) == len(m.layers)
    for a, b in zip(loaded.layers, m.layers):
        np.testing.assert_array_equal(a.weight, b.weight)
        np.testing.assert_array_equal(a.bias, b.bias)
        assert a.activation == b.activation
    pts = np.random.default_rng(10).normal(size=(5, 2))
    np.testing.assert_array_equal(embed_points(loaded, pts), embed_points(m, pts))
    # a UTF-8 byte-order mark, as Windows tools write it, is skipped
    marked = tmp_path / "bom.json"
    marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
    np.testing.assert_array_equal(embed_points(load_embedding(marked), pts), embed_points(m, pts))


def test_load_rejects_missing_version(tmp_path):
    path = tmp_path / "bad.json"
    payload = {
        "layers": [
            {"weight": [[1.0]], "bias": [0.0], "activation": "identity"},
        ]
    }
    path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="version"):
        load_embedding(path)
    # equal to 1 is not enough: the version is the integer 1
    for version in (True, 1.0):
        path.write_text(json.dumps(dict(payload, version=version)))
        with pytest.raises(ValueError, match="unsupported version"):
            load_embedding(path)


def test_load_rejects_bad_layer(tmp_path, capsys):
    path = tmp_path / "bad2.json"
    identity = {"weight": [[1.0]], "bias": [0.0], "activation": "identity"}
    cases = [
        ("[]", "top level must be an object"),
        ('{"version": 1}', "'layers' must be a non-empty list"),
        ('{"version": 1, "layers": []}', "'layers' must be a non-empty list"),
        ('{"version": 1, "layers": {}}', "'layers' must be a non-empty list"),
        ('{"version": 1, "layers": [1]}', "layer 0 must be an object"),
        (json.dumps({"version": 1, "layers": [identity, {"weight": [[1.0]]}]}),
         "layer 1 missing ['activation', 'bias']"),
        (json.dumps({"version": 1, "layers": [dict(identity, bias=[0.0, 0.0])]}),
         "layer 0: bias shape (2,) does not match weight rows 1"),
        (json.dumps({"version": 1, "layers": [dict(identity, weight=[1.0, 2.0])]}),
         "layer 0: weight must be 2-d, got shape (2,)"),
        ('{"version": 1, "layers": [{"weight": [[NaN]], "bias": [0.0], '
         '"activation": "identity"}]}', "layer 0: layer parameters must be finite"),
    ]
    for text, message in cases:
        path.write_text(text)
        expected = f"embedding file {path}: {message}"
        with pytest.raises(ValueError, match=f"^{re.escape(expected)}$"):
            load_embedding(path)
    # the last case again through the CLI: one error line, no traceback
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, LabeledDataset([[1.0], [3.0]], [0, 1], 2))
    assert main(["estimate", str(data_path), "--embedding", str(path)]) == 2
    assert capsys.readouterr().err == f"error: {expected}\n"


def test_load_rejects_integer_too_large_for_float64(tmp_path, capsys):
    path = tmp_path / "big.json"
    huge = "1" + "0" * 400
    path.write_text(
        '{"version": 1, "layers": [{"weight": [[%s, 0.0], [0.0, 1.0]], '
        '"bias": [0.0, 0.0], "activation": "identity"}]}' % huge
    )
    with pytest.raises(ValueError, match=rf"^embedding file {re.escape(str(path))}: layer 0: "):
        load_embedding(path)
    data_path = tmp_path / "data.csv"
    write_dataset_csv(data_path, LabeledDataset([[1.0, 2.0], [3.0, 4.0]], [0, 1], 2))
    assert main(["estimate", str(data_path), "--embedding", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: embedding file {path}: layer 0: ")


def _perturb_cli_exit(ds, m, tmp_path):
    data_path = tmp_path / "data.csv"
    map_path = tmp_path / "map.json"
    write_dataset_csv(data_path, ds)
    save_embedding(m, map_path)
    return main(
        ["perturb", str(data_path), "--eps", "0.3", "--iters", "2", "--sigma", "1.0",
         "--embedding", str(map_path), "--out", str(tmp_path / "out.csv")]
    )


BALL = PerturbationConstraint(norm_order="l2", radius=0.3)


@pytest.mark.parametrize(
    "run",
    [
        lambda ds, m, tmp: objective_and_gradient(ds, K1, embedding=m),
        lambda ds, m, tmp: pga_maximize(ds, K1, BALL, PgaConfig(0.05, 0), embedding=m),
        lambda ds, m, tmp: pga_maximize(ds, K1, BALL, PgaConfig(0.05, 2), embedding=m),
        lambda ds, m, tmp: finite_difference_gradient(ds, K1, embedding=m),
        lambda ds, m, tmp: embed_dataset(m, ds),
        lambda ds, m, tmp: _perturb_cli_exit(ds, m, tmp),
        lambda ds, m, tmp: pullback_gradients(m, ds.points, np.zeros((6, m.output_dim))),
    ],
    ids=["objective_and_gradient", "pga_0_iters", "pga_2_iters",
         "finite_difference_gradient", "embed_dataset", "cli_perturb", "pullback_gradients"],
)
def test_embedding_dimension_mismatch_rejected(run, tmp_path, capsys):
    rng = np.random.default_rng(11)
    ds = LabeledDataset(rng.normal(size=(6, 3)), [0, 1, 0, 1, 0, 1], 2)
    m = mlp_map(seed=12, d_in=2)
    try:
        code = run(ds, m, tmp_path)
    except ValueError as exc:
        assert "input_dim" in str(exc)
    else:
        assert code == 2
        assert "input_dim" in capsys.readouterr().err


@pytest.mark.parametrize("shape", [(5, 2), (6, 3), (6,), (1, 6, 2)])
def test_pullback_rejects_gradients_of_wrong_shape(shape):
    m = mlp_map(seed=12)
    pts = np.random.default_rng(11).normal(size=(6, 2))
    message = f"gradient shape {shape} does not match (6, 2)"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        pullback_gradients(m, pts, np.zeros(shape))
