"""Temporal edge weights, the sparse operator, and the propagation forward/adjoint."""
from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from dynrec.data import apply_temporal, build_graph
from dynrec.propagation import (
    build_weights,
    edge_weights,
    forward,
    forward_backward,
    propagate_layer,
    propagate_transpose,
    temporal_softmax,
)
from helpers import dense_forward, dense_operator, edge_array, random_bipartite_edges

# frozen by hand: e / (1 + e) and 1 / (1 + e)
SIGMOID_ONE = 0.7310585786300049
SIGMOID_MINUS_ONE = 0.2689414213699951


def _temporal_graph(edges, n_users, n_items, tau=3600.0):
    return apply_temporal(
        build_graph(edge_array(edges), n_users, n_items), tau
    )


def _random_case(seed, max_users=25, max_items=25):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, max_users + 1))
    n_items = int(rng.integers(1, max_items + 1))
    n_edges = int(rng.integers(0, n_users * n_items + 1))
    edges = random_bipartite_edges(rng, n_users, n_items, n_edges)
    return rng, n_users, n_items, edges


# -- temporal softmax ------------------------------------------------------


def test_temporal_softmax_requires_time_attributes():
    g = build_graph(np.array([[0, 1, 0]], dtype=np.int64), 1, 1)
    with pytest.raises(ValueError, match="temporal"):
        temporal_softmax(g)


def test_temporal_softmax_two_edge_hand_values():
    # one user, two items, normalized times 0 and 1
    g = _temporal_graph([(0, 1, 0), (0, 2, 3600)], n_users=1, n_items=2)
    alpha_ui, alpha_iu = temporal_softmax(g)
    assert alpha_ui == pytest.approx(
        [SIGMOID_MINUS_ONE, SIGMOID_ONE], abs=1e-15
    )
    # each item has a single edge, so its neighborhood share is exactly 1
    assert alpha_iu.tolist() == [1.0, 1.0]


@given(st.integers(0, 500))
def test_temporal_softmax_sums_to_one_per_neighborhood(seed):
    _, n_users, n_items, edges = _random_case(seed, 10, 10)
    if not edges:
        return
    g = _temporal_graph(edges, n_users, n_items)
    alpha_ui, alpha_iu = temporal_softmax(g)
    user_sums = np.bincount(g.edge_user, weights=alpha_ui, minlength=n_users)
    item_sums = np.bincount(g.edge_item_local, weights=alpha_iu, minlength=n_items)
    for sums, degrees in ((user_sums, g.user_degrees()), (item_sums, g.item_degrees())):
        active = degrees > 0
        assert np.allclose(sums[active], 1.0, atol=1e-12)
        assert np.all(sums[~active] == 0.0)


@given(st.integers(0, 500))
def test_temporal_softmax_orders_by_time_within_neighborhood(seed):
    _, n_users, n_items, edges = _random_case(seed, 8, 8)
    if not edges:
        return
    g = _temporal_graph(edges, n_users, n_items)
    alpha_ui, _ = temporal_softmax(g)
    t = g.edge_time_norm
    for user in range(n_users):
        sel = slice(g.ui_indptr[user], g.ui_indptr[user + 1])
        times, shares = t[sel], alpha_ui[sel]
        for a in range(times.size):
            for b in range(times.size):
                if times[a] < times[b]:
                    assert shares[a] < shares[b]
                elif times[a] == times[b]:
                    assert shares[a] == shares[b]


# -- edge weights ----------------------------------------------------------


def test_edge_weights_symmetric_normalization_hand_case():
    # two users sharing one item: item degree 2, user degrees 1
    g = _temporal_graph([(0, 2, 0), (1, 2, 10)], n_users=2, n_items=1)
    w = edge_weights(g, no_temporal=True)
    expected = 1.0 / np.sqrt(2.0)
    assert w.w_ui == pytest.approx([expected, expected], abs=1e-15)
    assert w.w_iu == pytest.approx([expected, expected], abs=1e-15)


def test_edge_weights_single_edge_full_weight_is_one():
    # degree-1 on both sides: symmetric part 1, softmax share 1 -> 0.5 + 0.5
    g = _temporal_graph([(0, 1, 0)], 1, 1)
    w = build_weights(g)
    assert w.w_ui.tolist() == [1.0]
    assert w.w_iu.tolist() == [1.0]


def test_edge_weights_matrix_layout_and_transpose():
    g = _temporal_graph([(0, 2, 0), (1, 2, 10)], n_users=2, n_items=1)
    w = build_weights(g)
    dense = w.matrix.toarray()
    # row = destination, column = source; user rows read from item columns
    assert dense[0, 2] == w.w_ui[0] and dense[1, 2] == w.w_ui[1]
    assert dense[2, 0] == w.w_iu[0] and dense[2, 1] == w.w_iu[1]
    assert np.array_equal(w.matrix_t.toarray(), dense.T)
    assert not w.isolated.any()


def test_isolated_nodes_are_flagged():
    g = _temporal_graph([(0, 3, 0)], n_users=3, n_items=2)
    w = build_weights(g)
    assert w.isolated.tolist() == [False, True, True, False, True]


@given(st.integers(0, 300))
def test_edge_weight_rows_sum_near_one_with_temporal(seed):
    # each destination's incoming mass: half from symmetric part, half softmax
    _, n_users, n_items, edges = _random_case(seed, 6, 6)
    if not edges:
        return
    g = _temporal_graph(edges, n_users, n_items)
    w = build_weights(g)
    row_sums = np.asarray(w.matrix.sum(axis=1)).ravel()
    softmax_part = 0.5
    deg = g.node_degrees()
    for node in range(g.n_nodes):
        if deg[node] == 0:
            assert row_sums[node] == 0.0
        else:
            # the softmax shares of an active row always sum to exactly 0.5,
            # and the symmetric part adds a strictly positive amount on top
            assert row_sums[node] > softmax_part - 1e-9


# -- forward / adjoint -----------------------------------------------------


def test_forward_zero_layers_copies_input():
    g = _temporal_graph([(0, 1, 0)], 1, 1)
    w = build_weights(g)
    x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = forward(w, x0, 0)
    assert np.array_equal(out, x0) and out is not x0


def test_forward_matches_dense_reference_hand_graph():
    edges = [(0, 2, 0), (0, 3, 1800), (1, 3, 3600)]
    tau = 1800.0
    g = _temporal_graph(edges, 2, 2, tau)
    w = build_weights(g)
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 3))
    mat = dense_operator(edges, 2, 2, tau)
    assert np.allclose(w.matrix.toarray(), mat, atol=1e-14)
    for n_layers in range(4):
        ours = forward(w, x0, n_layers)
        ref = dense_forward(mat, x0, n_layers, [2, 1, 1, 2])
        assert np.allclose(ours, ref, atol=1e-13)


def test_forward_isolated_rows_pass_through():
    g = _temporal_graph([(0, 2, 0)], n_users=2, n_items=2)
    w = build_weights(g)
    x0 = np.arange(8.0).reshape(4, 2)
    out = forward(w, x0, 3)
    assert np.array_equal(out[1], x0[1])  # untouched user
    assert np.array_equal(out[3], x0[3])  # untouched item


def test_propagate_layer_and_transpose_agree_with_matrix():
    _, n_users, n_items, edges = _random_case(11, 6, 6)
    g = _temporal_graph(edges, n_users, n_items)
    w = build_weights(g)
    x = np.random.default_rng(0).normal(size=(g.n_nodes, 2))
    assert np.allclose(propagate_layer(w, x), w.matrix.toarray() @ x, atol=1e-12)
    assert np.allclose(
        propagate_transpose(w, x), w.matrix.toarray().T @ x, atol=1e-12
    )


@given(st.integers(0, 400), st.integers(0, 3))
def test_forward_is_linear(seed, n_layers):
    rng, n_users, n_items, edges = _random_case(seed, 8, 8)
    g = _temporal_graph(edges, n_users, n_items)
    w = build_weights(g)
    x = rng.normal(size=(g.n_nodes, 2))
    y = rng.normal(size=(g.n_nodes, 2))
    a, b = 1.7, -0.3
    lhs = forward(w, a * x + b * y, n_layers)
    rhs = a * forward(w, x, n_layers) + b * forward(w, y, n_layers)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(st.integers(0, 400), st.integers(0, 3))
def test_adjoint_identity(seed, n_layers):
    rng, n_users, n_items, edges = _random_case(seed, 8, 8)
    g = _temporal_graph(edges, n_users, n_items)
    w = build_weights(g)
    x = rng.normal(size=(g.n_nodes, 3))
    y = rng.normal(size=(g.n_nodes, 3))
    lhs = float(np.sum(forward(w, x, n_layers) * y))
    rhs = float(np.sum(x * forward_backward(w, y, n_layers)))
    assert lhs == pytest.approx(rhs, abs=1e-9)


def test_forward_rejects_negative_layers():
    g = _temporal_graph([(0, 1, 0)], 1, 1)
    w = build_weights(g)
    with pytest.raises(ValueError):
        forward(w, np.zeros((2, 1)), -1)
    with pytest.raises(ValueError):
        forward_backward(w, np.zeros((2, 1)), -1)
