import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fimlab.network import (
    NetworkSpec,
    flatten,
    forward_logits,
    init_params,
    softmax,
    unflatten,
)

from helpers import jacobian_and_logits


def test_spec_validation():
    with pytest.raises(ValueError):
        NetworkSpec((3,))
    with pytest.raises(ValueError):
        NetworkSpec((3, 0))
    with pytest.raises(ValueError):
        NetworkSpec((3, 2), activation="softplus")
    net = NetworkSpec((4, 8, 3))
    assert net.dim == 4 * 8 + 8 + 8 * 3 + 3


def test_identity_linear_layer_forward():
    net = NetworkSpec((3, 3), "none")
    theta = flatten(net, [np.eye(3)], [np.zeros(3)])
    z = forward_logits(net, theta, np.eye(3)[:1]).data
    assert np.array_equal(z[0], [1.0, 0.0, 0.0])


def test_scalar_model_forward():
    # one input, one output, no bias contribution: z = theta * x
    net = NetworkSpec((1, 1), "none")
    theta = flatten(net, [np.array([[0.3]])], [np.zeros(1)])
    z = forward_logits(net, theta, np.array([[2.0]])).data
    assert float(z[0, 0]) == pytest.approx(0.6, abs=1e-15)


def test_zero_weights_give_bias():
    net = NetworkSpec((2, 3), "none")
    bias = np.array([0.1, -0.2, 0.3])
    theta = flatten(net, [np.zeros((2, 3))], [bias])
    z = forward_logits(net, theta, np.random.default_rng(0).normal(size=(4, 2))).data
    assert np.array_equal(z, np.tile(bias, (4, 1)))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=10**6))
def test_flatten_roundtrip_bit_exact(seed):
    rng = np.random.default_rng(seed)
    net = NetworkSpec((3, 5, 2), "tanh")
    theta = rng.normal(size=net.dim)
    weights, biases = unflatten(net, theta)
    again = flatten(net, weights, biases)
    assert np.array_equal(again.flat, theta)


def test_layout_offsets_cover_dim():
    net = NetworkSpec((4, 7, 3), "relu")
    layout = net.layout()
    assert layout[0][0] == 0
    assert layout[-1][1] == net.dim
    for (_, stop, _), (start, _, _) in zip(layout, layout[1:]):
        assert stop == start


def test_scalar_model_jacobian():
    net = NetworkSpec((1, 1), "none")
    theta = flatten(net, [np.array([[0.3]])], [np.zeros(1)])
    J, z = jacobian_and_logits(net, theta, np.array([2.0]))
    assert np.array_equal(J, [[2.0, 1.0]])  # d z / d(w, b) = (x, 1)
    assert np.array_equal(z, [0.6])


def test_linear_model_jacobian_rows_are_input():
    rng = np.random.default_rng(2)
    net = NetworkSpec((4, 3), "none")
    theta = rng.normal(size=net.dim)
    x = rng.normal(size=4)
    J, _ = jacobian_and_logits(net, theta, x)
    weights, _ = unflatten(net, theta)
    # row i touches column i of W plus bias i; the W block is x^T
    for i in range(3):
        grad_W = J[i, : 4 * 3].reshape(4, 3)
        assert np.allclose(grad_W[:, i], x, atol=1e-15)
        others = np.delete(grad_W, i, axis=1)
        assert np.allclose(others, 0.0, atol=1e-15)
        grad_b = J[i, 4 * 3 :]
        assert grad_b[i] == 1.0 and np.count_nonzero(grad_b) == 1


def test_linear_jacobian_independent_of_theta():
    rng = np.random.default_rng(3)
    net = NetworkSpec((3, 4), "none")
    x = rng.normal(size=3)
    J1, _ = jacobian_and_logits(net, rng.normal(size=net.dim), x)
    J2, _ = jacobian_and_logits(net, rng.normal(size=net.dim), x)
    assert np.array_equal(J1, J2)


@pytest.mark.parametrize("activation", ["tanh", "relu"])
def test_mlp_jacobian_matches_finite_differences(activation):
    rng = np.random.default_rng(4)
    net = NetworkSpec((3, 6, 4), activation)
    theta = init_params(net, rng)
    x = rng.normal(size=3)
    J, _ = jacobian_and_logits(net, theta, x)
    step = 1e-5
    for i in range(net.dim):
        up, down = theta.copy(), theta.copy()
        up[i] += step
        down[i] -= step
        fd = (forward_logits(net, up, x[None]).data - forward_logits(net, down, x[None]).data)[0] / (2 * step)
        denom = np.maximum(np.abs(J[:, i]), 1e-8)
        assert np.max(np.abs(J[:, i] - fd) / denom) <= 1e-6


def test_batch_forward_equals_stacked_per_sample_bitwise():
    rng = np.random.default_rng(6)
    net = NetworkSpec((5, 16, 3), "tanh")
    theta = init_params(net, rng)
    X = rng.normal(size=(32, 5))
    full = forward_logits(net, theta, X).data
    rows = np.vstack([forward_logits(net, theta, X[i : i + 1]).data for i in range(32)])
    assert np.array_equal(full, rows)


def test_forward_rejects_bad_width():
    net = NetworkSpec((3, 2), "none")
    with pytest.raises(ValueError):
        forward_logits(net, np.zeros(net.dim), np.zeros((2, 4)))
    with pytest.raises(ValueError):
        unflatten(net, np.zeros(net.dim + 1))


def test_softmax_probs_rows_normalized():
    rng = np.random.default_rng(7)
    net = NetworkSpec((2, 4), "none")
    theta = init_params(net, rng)
    P = softmax(forward_logits(net, theta, rng.normal(size=(6, 2))).data)
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(P >= 0)


def test_softmax_rows_match_single_vectors_bitwise():
    Z = 30.0 * np.random.default_rng(9).normal(size=(5, 4))
    Z[0] = [1000.0, 0.0, -1000.0, 1000.0]  # would overflow without the max shift
    P = softmax(Z)
    for z, p in zip(Z, P):
        assert np.array_equal(p, softmax(z))
    assert np.all(np.isfinite(P))
    assert np.allclose(P.sum(axis=1), 1.0, atol=1e-15)

