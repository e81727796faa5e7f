"""Tests for the GraphSAGE convolution layer."""

import numpy as np
import scipy.sparse as sp

from repro.backend import create_backend
from repro.nn.sage import SageConv


def _line_graph_aggregation(num_nodes):
    """Aggregation operator of a directed path 0 -> 1 -> 2 -> ..."""
    rows, cols = [], []
    for node in range(1, num_nodes):
        rows.append(node)
        cols.append(node - 1)
    data = np.ones(len(rows))
    adjacency = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    return adjacency


def test_forward_shape():
    conv = SageConv(5, 3, rng=np.random.default_rng(0))
    x = np.random.default_rng(1).normal(size=(4, 5))
    y = conv.forward(x, _line_graph_aggregation(4))
    assert y.shape == (4, 3)


def test_isolated_node_uses_only_self_term():
    conv = SageConv(2, 2, rng=np.random.default_rng(0))
    x = np.array([[1.0, 2.0], [3.0, 4.0]])
    aggregation = sp.csr_matrix((2, 2))
    y = conv.forward(x, aggregation)
    expected = x @ conv.weight_self.value + conv.bias.value
    assert np.allclose(y, expected)


def test_neighbour_mean_is_used():
    conv = SageConv(1, 1, rng=np.random.default_rng(0))
    conv.weight_self.value[:] = 0.0
    conv.weight_neigh.value[:] = 1.0
    conv.bias.value[:] = 0.0
    x = np.array([[2.0], [4.0], [0.0]])
    # Node 2 averages nodes 0 and 1.
    aggregation = sp.csr_matrix(
        (np.array([0.5, 0.5]), (np.array([2, 2]), np.array([0, 1]))), shape=(3, 3)
    )
    y = conv.forward(x, aggregation)
    assert np.allclose(y.ravel(), [0.0, 0.0, 3.0])


def test_gradients_match_numeric():
    rng = np.random.default_rng(5)
    conv = SageConv(3, 2, rng=rng)
    x = rng.normal(size=(5, 3))
    target = rng.normal(size=(5, 2))
    aggregation = _line_graph_aggregation(5)

    def loss():
        return float(np.sum((conv.forward(x, aggregation) - target) ** 2))

    for parameter in conv.parameters():
        parameter.zero_grad()
    out = conv.forward(x, aggregation)
    grad_in = conv.backward(2 * (out - target))

    eps = 1e-6
    # Input gradient.
    numeric_input = np.zeros_like(x)
    for index in np.ndindex(*x.shape):
        original = x[index]
        x[index] = original + eps
        plus = loss()
        x[index] = original - eps
        minus = loss()
        x[index] = original
        numeric_input[index] = (plus - minus) / (2 * eps)
    assert np.allclose(grad_in, numeric_input, atol=1e-5)
    # Parameter gradients.
    for parameter in conv.parameters():
        numeric = np.zeros_like(parameter.value)
        for index in np.ndindex(*parameter.value.shape):
            original = parameter.value[index]
            parameter.value[index] = original + eps
            plus = loss()
            parameter.value[index] = original - eps
            minus = loss()
            parameter.value[index] = original
            numeric[index] = (plus - minus) / (2 * eps)
        assert np.allclose(parameter.grad, numeric, atol=1e-5), parameter.name


def _two_layer_gradients(backend_name):
    rng = np.random.default_rng(3)
    layers = [SageConv(4, 4, rng=rng) for _ in range(2)]
    x = rng.normal(size=(6, 4))
    grad = rng.normal(size=(6, 4))
    aggregation = _line_graph_aggregation(6)
    backend = create_backend(backend_name)
    hidden = layers[0].forward(x, aggregation, backend=backend)
    layers[1].forward(hidden, aggregation, backend=backend)
    layers[0].backward(layers[1].backward(grad, backend=backend), backend=backend)
    return [parameter.grad.tobytes() for layer in layers for parameter in layer.parameters()]


def test_two_equal_width_layers_keep_their_own_neighbours():
    # Both layers aggregate over one operator at one width: the first layer's
    # cached neighbour mean must survive the second layer's forward.
    assert _two_layer_gradients("native") == _two_layer_gradients("reference")
