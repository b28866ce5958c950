"""Temporal edge weights, the sparse operator, and the propagation forward/adjoint."""
from __future__ import annotations

import os
import signal
import sys
import threading
import time
import warnings
import weakref

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given
from hypothesis import strategies as st

from dynrec import propagation
from dynrec.data import build_graph
from dynrec.propagation import (
    PropagationWeights,
    build_weights,
    forward,
    forward_backward,
    normalize_times,
    relative_timesteps,
    spmm,
    temporal_softmax,
)
from helpers import dense_forward, dense_operator, edge_array, random_bipartite_edges

# frozen by hand: e / (1 + e) and 1 / (1 + e)
SIGMOID_ONE = 0.7310585786300049
SIGMOID_MINUS_ONE = 0.2689414213699951

TAU = 3600.0  # timestep interval in seconds


def _graph(edges, n_users, n_items):
    return build_graph(edge_array(edges), n_users, n_items)


def _random_case(seed, max_users=25, max_items=25):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, max_users + 1))
    n_items = int(rng.integers(1, max_items + 1))
    n_edges = int(rng.integers(0, n_users * n_items + 1))
    edges = random_bipartite_edges(rng, n_users, n_items, n_edges)
    return rng, n_users, n_items, edges


# -- temporal softmax ------------------------------------------------------


def test_temporal_softmax_two_edge_hand_values():
    # one user, two items, normalized times 0 and 1
    g = _graph([(0, 1, 0), (0, 2, 3600)], n_users=1, n_items=2)
    alpha_ui, alpha_iu = temporal_softmax(g, TAU)
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
    g = _graph(edges, n_users, n_items)
    alpha_ui, alpha_iu = temporal_softmax(g, TAU)
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
    g = _graph(edges, n_users, n_items)
    alpha_ui, _ = temporal_softmax(g, TAU)
    t = normalize_times(relative_timesteps(g, TAU))
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
    g = _graph([(0, 2, 0), (1, 2, 10)], n_users=2, n_items=1)
    w = build_weights(g, TAU, no_temporal=True)
    expected = 1.0 / np.sqrt(2.0)
    dense = w.matrix.toarray()
    # user rows read from the item column, the item row from both user columns
    assert dense[[0, 1], [2, 2]] == pytest.approx([expected, expected], abs=1e-15)
    assert dense[[2, 2], [0, 1]] == pytest.approx([expected, expected], abs=1e-15)
    assert w.matrix.nnz == 4


def test_edge_weights_single_edge_full_weight_is_one():
    # degree-1 on both sides: symmetric part 1, softmax share 1 -> 0.5 + 0.5
    g = _graph([(0, 1, 0)], 1, 1)
    w = build_weights(g, TAU)
    assert w.matrix.toarray().tolist() == [[0.0, 1.0], [1.0, 0.0]]


def test_edge_weights_matrix_layout_and_transpose():
    g = _graph([(0, 2, 0), (1, 2, 10)], n_users=2, n_items=1)
    w = build_weights(g, TAU)
    dense = w.matrix.toarray()
    # row = destination, column = source; user rows read from item columns
    assert np.flatnonzero(dense).tolist() == [2, 5, 6, 7]
    # each user has one edge, so its softmax share is 1
    assert dense[0, 2] == dense[1, 2] == 0.5 / np.sqrt(2.0) + 0.5
    # both of the item's edges fall in one timestep, so they split its share
    assert dense[2, 0] == dense[2, 1] == 0.5 / np.sqrt(2.0) + 0.25
    assert np.array_equal(w.matrix_t.toarray(), dense.T)
    assert not w.isolated.any()


def test_build_weights_on_an_empty_graph_is_all_isolated_and_zero():
    g = _graph([], n_users=2, n_items=3)
    for no_temporal in (False, True):
        w = build_weights(g, TAU, no_temporal=no_temporal)
        assert w.matrix.shape == w.matrix_t.shape == (5, 5)
        assert w.matrix.nnz == w.matrix_t.nnz == 0
        assert w.isolated.tolist() == [True] * 5


def test_isolated_nodes_are_flagged():
    g = _graph([(0, 3, 0)], n_users=3, n_items=2)
    w = build_weights(g, TAU)
    assert w.isolated.tolist() == [False, True, True, False, True]


@given(st.integers(0, 300))
def test_edge_weight_rows_sum_near_one_with_temporal(seed):
    # each destination's incoming mass: half from symmetric part, half softmax
    _, n_users, n_items, edges = _random_case(seed, 6, 6)
    if not edges:
        return
    g = _graph(edges, n_users, n_items)
    w = build_weights(g, TAU)
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
    g = _graph([(0, 1, 0)], 1, 1)
    w = build_weights(g, TAU)
    x0 = np.array([[1.0, 2.0], [3.0, 4.0]])
    out = forward(w, x0, 0)
    assert np.array_equal(out, x0) and out is not x0


def test_forward_matches_dense_reference_hand_graph():
    edges = [(0, 2, 0), (0, 3, 1800), (1, 3, 3600)]
    tau = 1800.0
    g = _graph(edges, 2, 2)
    w = build_weights(g, tau)
    rng = np.random.default_rng(7)
    x0 = rng.normal(size=(4, 3))
    mat = dense_operator(edges, 2, 2, tau)
    assert np.allclose(w.matrix.toarray(), mat, atol=1e-14)
    for n_layers in range(4):
        ours = forward(w, x0, n_layers)
        ref = dense_forward(mat, x0, n_layers, [2, 1, 1, 2])
        assert np.allclose(ours, ref, atol=1e-13)


def test_forward_isolated_rows_pass_through():
    g = _graph([(0, 2, 0)], n_users=2, n_items=2)
    w = build_weights(g, TAU)
    x0 = np.arange(8.0).reshape(4, 2)
    out = forward(w, x0, 3)
    assert np.array_equal(out[1], x0[1])  # untouched user
    assert np.array_equal(out[3], x0[3])  # untouched item


def test_operator_and_transpose_products_match_dense_reference():
    _, n_users, n_items, edges = _random_case(11, 6, 6)
    g = _graph(edges, n_users, n_items)
    w = build_weights(g, TAU)
    mat = dense_operator(edges, n_users, n_items, TAU)
    x = np.random.default_rng(0).normal(size=(g.n_nodes, 2))
    assert np.allclose(w.matrix @ x, mat @ x, atol=1e-12)
    assert np.allclose(w.matrix_t @ x, mat.T @ x, atol=1e-12)


@given(st.integers(0, 400), st.integers(0, 3))
def test_forward_is_linear(seed, n_layers):
    rng, n_users, n_items, edges = _random_case(seed, 8, 8)
    g = _graph(edges, n_users, n_items)
    w = build_weights(g, TAU)
    x = rng.normal(size=(g.n_nodes, 2))
    y = rng.normal(size=(g.n_nodes, 2))
    a, b = 1.7, -0.3
    lhs = forward(w, a * x + b * y, n_layers)
    rhs = a * forward(w, x, n_layers) + b * forward(w, y, n_layers)
    assert np.allclose(lhs, rhs, atol=1e-10)


@given(st.integers(0, 400), st.integers(0, 3))
def test_adjoint_identity(seed, n_layers):
    rng, n_users, n_items, edges = _random_case(seed, 8, 8)
    g = _graph(edges, n_users, n_items)
    w = build_weights(g, TAU)
    x = rng.normal(size=(g.n_nodes, 3))
    y = rng.normal(size=(g.n_nodes, 3))
    lhs = float(np.sum(forward(w, x, n_layers) * y))
    rhs = float(np.sum(x * forward_backward(w, y, n_layers)))
    assert lhs == pytest.approx(rhs, abs=1e-9)


@given(st.integers(0, 400), st.integers(0, 3))
def test_adjoint_over_the_csc_view_is_bitwise_the_pass_over_a_csr_transpose(seed, n_layers):
    # both kernels add into each output row in ascending source order
    rng, n_users, n_items, edges = _random_case(seed, 8, 8)
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    assert w.matrix_t.format == "csc" and np.shares_memory(w.matrix_t.indptr, w.matrix.indptr)
    built = PropagationWeights(matrix=w.matrix.T.tocsr(), isolated=w.isolated)
    y = rng.normal(size=(w.matrix.shape[0], 3))
    assert forward_backward(w, y, n_layers).tobytes() == forward(built, y, n_layers).tobytes()


@pytest.mark.parametrize("fmt", ["csr", "csc"])
@pytest.mark.parametrize("d", [1, 5])
def test_spmm_is_bitwise_equal_to_the_sparse_product(fmt, d):
    # spmm runs scipy's private kernel itself; a scipy change to it must fail here
    rng = np.random.default_rng(21)
    m = sp.random(30, 20, density=0.2, random_state=rng, format="lil")
    m[3, :] = 0.0  # empty rows and columns
    m[:, 7] = 0.0
    m = m.asformat(fmt)
    assert m.getnnz(axis=1).min() == 0 and m.getnnz(axis=0).min() == 0
    x = rng.normal(size=(20, 2 * d))[:, ::2]  # not contiguous
    out = np.full((30, d), np.nan)
    got = spmm(m, x, out)
    assert got is out
    assert out.tobytes() == (m @ x).tobytes()
    with pytest.raises(ValueError):
        spmm(m, x, np.empty((30, 2 * d))[:, ::2])


def test_propagation_results_own_their_memory():
    # a kept result that viewed a larger block would keep the whole block alive
    rng, n_users, n_items, edges = _random_case(5, 8, 8)
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    x = rng.normal(size=(n_users + n_items, 4))
    for fn in (forward, forward_backward):
        got = fn(w, x, 2)
        assert got.base is None
        buffers = np.empty((3, *x.shape))
        assert fn(w, x, 2, out=buffers).tobytes() == got.tobytes()


def test_forward_rejects_negative_layers():
    g = _graph([(0, 1, 0)], 1, 1)
    w = build_weights(g, TAU)
    with pytest.raises(ValueError):
        forward(w, np.zeros((2, 1)), -1)
    with pytest.raises(ValueError):
        forward_backward(w, np.zeros((2, 1)), -1)


# -- the user/item split ---------------------------------------------------


@pytest.fixture
def split_everything(monkeypatch):
    """Every product into caller-owned arrays shares its layers with the helper thread."""
    monkeypatch.setattr(propagation, "SPLIT_WORK", 0)
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0, 1})


def _one_thread(w):
    # no n_users: each layer is one kernel call over every row
    return PropagationWeights(matrix=w.matrix, isolated=w.isolated)


SPLIT_GRAPHS = {
    "isolated user and item": ([(0, 3, 0), (0, 4, 5000), (2, 4, 9000), (2, 3, 100)], 3, 3),
    "every edge on one user": ([(1, 3 + i, 3600 * i) for i in range(5)], 3, 5),
    "random": (random_bipartite_edges(np.random.default_rng(8), 30, 20, 200), 30, 20),
    "empty": ([], 2, 3),
    "no users": ([], 0, 3),
}


@pytest.mark.parametrize("graph", SPLIT_GRAPHS)
@pytest.mark.parametrize("n_layers", [0, 1, 3])
def test_split_products_are_bitwise_the_one_thread_products(split_everything, graph, n_layers):
    edges, n_users, n_items = SPLIT_GRAPHS[graph]
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    assert w.n_users == n_users
    x = np.random.default_rng(3).normal(size=(n_users + n_items, 5))
    for fn in (forward, forward_backward):
        out = np.full((3, *x.shape), np.nan)
        assert fn(w, x, n_layers, out=out).tobytes() == fn(_one_thread(w), x, n_layers).tobytes()
    if 0 < n_users:
        threads = [t for t in threading.enumerate() if t.name == "dynrec-propagation"]
        assert len(threads) == 1 and threads[0].daemon


def test_an_error_in_either_half_reaches_the_caller(split_everything):
    # one user and two items: the item rows are the helper's half
    w = build_weights(_graph([(0, 1, 0), (0, 2, 3600)], 1, 2), TAU)
    out = np.empty((3, 3, 1))
    item_overflow = np.array([[1e308], [1e308], [-1e308]])  # the user row's sum cancels
    both_overflow = np.full((3, 1), 1e308)
    for x in (item_overflow, both_overflow):
        with np.errstate(over="raise"), pytest.raises(FloatingPointError):
            forward(w, x, 1, out=out)
    assert propagation._helper is not None
    x = np.random.default_rng(4).normal(size=(3, 2))
    out = np.empty((3, 3, 2))
    for fn in (forward, forward_backward):
        assert fn(w, x, 2, out=out).tobytes() == fn(_one_thread(w), x, 2).tobytes()


def test_the_helper_keeps_no_caller_array_alive(split_everything):
    edges, n_users, n_items = SPLIT_GRAPHS["random"]
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    x = np.random.default_rng(5).normal(size=(n_users + n_items, 4))
    out = np.empty((3, *x.shape))
    alive = weakref.ref(out)
    grad = forward(w, x, 2, out=out).copy()
    forward_backward(w, grad, 2, out=out)
    assert propagation._helper is not None
    del out
    assert alive() is None


def test_one_cpu_starts_no_thread_and_gives_the_same_bytes(monkeypatch):
    monkeypatch.setattr(propagation, "SPLIT_WORK", 0)
    monkeypatch.setattr(propagation, "_helper", None)
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0})
    edges, n_users, n_items = SPLIT_GRAPHS["random"]
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    x = np.random.default_rng(6).normal(size=(n_users + n_items, 4))
    threads = threading.active_count()
    for fn in (forward, forward_backward):
        out = np.empty((3, *x.shape))
        assert fn(w, x, 3, out=out).tobytes() == fn(_one_thread(w), x, 3).tobytes()
    assert threading.active_count() == threads and propagation._helper is None


def test_small_and_one_off_products_start_no_thread(monkeypatch):
    monkeypatch.setattr(propagation, "_helper", None)
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0, 1})
    edges, n_users, n_items = SPLIT_GRAPHS["random"]
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    x = np.random.default_rng(7).normal(size=(n_users + n_items, 4))
    forward(w, x, 2, out=np.empty((3, *x.shape)))  # below SPLIT_WORK
    monkeypatch.setattr(propagation, "SPLIT_WORK", 0)
    forward_backward(w, x, 2)  # no caller-owned arrays
    assert propagation._helper is None


def test_concurrent_callers_share_one_helper_and_get_their_own_bytes(split_everything):
    edges, n_users, n_items = SPLIT_GRAPHS["random"]
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    rng = np.random.default_rng(9)
    inputs = [rng.normal(size=(n_users + n_items, 3)) for _ in range(6)]
    expected = [forward_backward(_one_thread(w), forward(_one_thread(w), x, 2), 2).tobytes() for x in inputs]
    wrong = []

    def caller(k):
        out = np.empty((3, *inputs[k].shape))
        for _ in range(30):
            z = forward(w, inputs[k], 2, out=out).copy()
            if forward_backward(w, z, 2, out=out).tobytes() != expected[k]:
                wrong.append(k)

    helpers = sum(t.name == "dynrec-propagation" for t in threading.enumerate())
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        # daemons, so a deadlock fails the test instead of hanging the run
        threads = [threading.Thread(target=caller, args=(k,), daemon=True) for k in range(len(inputs))]
        for t in threads:
            t.start()
        deadline = time.monotonic() + 60
        for t in threads:
            t.join(timeout=max(deadline - time.monotonic(), 0))
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads) and wrong == []
    assert sum(t.name == "dynrec-propagation" for t in threading.enumerate()) == max(helpers, 1)


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_does_not_wait_on_the_parents_helper(split_everything):
    edges, n_users, n_items = SPLIT_GRAPHS["random"]
    w = build_weights(_graph(edges, n_users, n_items), TAU)
    x = np.random.default_rng(10).normal(size=(n_users + n_items, 3))
    out = np.empty((3, *x.shape))
    expected = forward(_one_thread(w), x, 2).tobytes()
    assert forward(w, x, 2, out=out).tobytes() == expected
    assert propagation._helper is not None
    with warnings.catch_warnings():  # forking a threaded process is what this checks
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:
        code = 1
        try:
            code = 0 if forward(w, x, 2, out=out).tobytes() == expected else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung on the parent's helper thread")
    assert os.waitstatus_to_exitcode(status[1]) == 0
