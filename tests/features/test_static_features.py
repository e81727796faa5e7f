"""Tests for the static (design-dependent) feature embedding."""

import numpy as np

from repro.aig.aig import Aig
from repro.features.encoding import PI_SENTINEL, encode_graph
from repro.features.static_features import (
    STATIC_FEATURE_DIM,
    static_feature_matrix,
    static_node_features,
)
from repro.orchestration.transformability import analyze_network


def test_feature_width_is_eight(example_aig):
    features = static_node_features(example_aig)
    assert all(vector.shape == (STATIC_FEATURE_DIM,) for vector in features.values())


def test_edge_complement_bits():
    aig = Aig()
    x, y = aig.add_pi(), aig.add_pi()
    nor_gate = aig.make_nor(x, y)      # both fanins complemented
    and_gate = aig.add_and(x, y)       # no complements
    aig.add_po(nor_gate)
    aig.add_po(and_gate)
    features = static_node_features(aig)
    assert list(features[nor_gate >> 1][:2]) == [1.0, 1.0]
    assert list(features[and_gate >> 1][:2]) == [0.0, 0.0]


def test_transformability_bits_match_analysis(example_aig):
    analysis = analyze_network(example_aig)
    features = static_node_features(example_aig)
    for node, info in analysis.items():
        vector = features[node]
        assert vector[2] == float(info.rewrite_applicable)
        assert vector[4] == float(info.resub_applicable)
        assert vector[6] == float(info.refactor_applicable)
        if not info.rewrite_applicable:
            assert vector[3] == -1.0
        if not info.resub_applicable:
            assert vector[5] == -1.0
        if not info.refactor_applicable:
            assert vector[7] == -1.0


def test_gain_bits_positive_when_applicable(example_aig):
    features = static_node_features(example_aig)
    gains = np.array([vector[[3, 5, 7]] for vector in features.values()])
    applicable = np.array([vector[[2, 4, 6]] for vector in features.values()]) > 0
    assert np.all(gains[applicable] >= 1)


def test_matrix_rows_for_pis_are_sentinel(example_aig):
    encoding = encode_graph(example_aig)
    matrix = static_feature_matrix(example_aig, encoding)
    assert matrix.shape == (encoding.num_nodes, STATIC_FEATURE_DIM)
    for index in range(encoding.num_pis):
        assert np.all(matrix[index] == PI_SENTINEL)
    # AND rows must not be sentinel rows.
    assert not np.all(matrix[encoding.num_pis :] == PI_SENTINEL)


def test_static_features_are_sample_independent(example_aig):
    """Static features depend only on the design, not on any decision vector."""
    first = static_node_features(example_aig)
    second = static_node_features(example_aig)
    for node in first:
        assert np.array_equal(first[node], second[node])
