"""Pairwise ranking loss, hand-derived gradients, negative sampling and pre-training."""
from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from dynrec.config import RunConfig
from dynrec.data import build_graph, pair_keys
from dynrec.propagation import build_weights, forward
from dynrec.rng import seed_stream
from dynrec.training import (
    Adam,
    bpr_gradients,
    holdout_split,
    pretrain,
    sample_negatives,
    step_buffers,
)
from helpers import (
    adam_reference,
    bpr_loss,
    central_difference,
    edge_array,
    random_bipartite_edges,
    rel_err,
)

# frozen by hand: log(1 + exp(-1))
SOFTPLUS_MINUS_ONE = 0.31326168751822286


def _graph(edges, n_users, n_items):
    return build_graph(edge_array(edges), n_users, n_items)


# -- config validation -----------------------------------------------------


@pytest.mark.parametrize(
    "kwargs",
    [
        {"learning_rate": 0.0},
        {"batch_size": 0},
        {"max_epochs": -1},
        {"patience": 0},
        {"l2_reg": -0.1},
        {"val_fraction": 1.0},
        {"k": 0},
        {"l2_reg": math.nan},  # every comparison with NaN is false, so only this check sees it
        {"tau_hours": math.nan},
        {"phi": math.nan},
        {"granularity_hours": math.inf},
        {"learning_rate": math.inf},
        {"init_std": -math.inf},
    ],
)
def test_train_config_rejects_bad_values(kwargs):
    with pytest.raises(ValueError):
        RunConfig(**kwargs)


# -- optimizer -------------------------------------------------------------


def test_adam_first_step_hand_value():
    x = np.array([1.0])
    opt = Adam({"x": x}, learning_rate=0.1)
    opt.step({"x": np.array([2.0])})
    # after bias correction the first step is lr * g / (|g| + eps)
    expected = 1.0 - 0.1 * (2.0 / (2.0 + 1e-8))
    assert x[0] == pytest.approx(expected, abs=1e-15)
    assert opt.step_count == 1


def test_adam_constant_gradient_moves_parameter_monotonically():
    x = np.array([0.0])
    opt = Adam({"x": x}, learning_rate=0.01)
    previous = 0.0
    for _ in range(20):
        opt.step({"x": np.array([3.0])})
        assert x[0] < previous
        previous = float(x[0])


def test_adam_updates_multiple_named_arrays_in_place():
    a, b = np.ones(2), np.ones((2, 2))
    opt = Adam({"a": a, "b": b}, learning_rate=0.5)
    opt.step({"a": np.ones(2), "b": np.ones((2, 2))})
    assert np.all(a < 1.0) and np.all(b < 1.0)


# -- negative sampling -----------------------------------------------------


@given(st.integers(0, 300))
def test_sample_negatives_avoids_observed_edges(seed):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, 8))
    n_items = int(rng.integers(2, 8))
    n_edges = int(rng.integers(1, n_users * (n_items - 1) + 1))
    edges = random_bipartite_edges(rng, n_users, n_items, n_edges)
    # drop edges that would leave a user with no unseen item to sample
    count: dict[int, int] = {}
    kept = []
    for u, gi, ts in edges:
        if count.get(u, 0) >= n_items - 1:
            continue
        count[u] = count.get(u, 0) + 1
        kept.append((u, gi, ts))
    if not kept:
        return
    g = _graph(kept, n_users, n_items)
    positives = np.stack([g.edge_user, g.edge_item], axis=1)
    triples = sample_negatives(g, positives, np.random.default_rng(seed + 1))
    assert triples.shape == (g.n_edges, 3)
    assert triples.dtype == np.int64
    assert ((n_users <= triples[:, 2]) & (triples[:, 2] < n_users + n_items)).all()
    assert np.isin(pair_keys(triples[:, :2], n_users, n_items), g.keys).all()
    assert not np.isin(pair_keys(triples[:, ::2], n_users, n_items), g.keys).any()


def test_sample_negatives_rejects_saturated_user():
    g = _graph([(0, 1, 0), (0, 2, 1)], n_users=1, n_items=2)
    positives = np.stack([g.edge_user, g.edge_item], axis=1)
    with pytest.raises(ValueError, match="every item"):
        sample_negatives(g, positives, np.random.default_rng(0))


def test_sample_negatives_empty_batch():
    g = _graph([(0, 1, 0)], 1, 2)
    out = sample_negatives(g, np.empty((0, 2), dtype=np.int64), np.random.default_rng(0))
    assert out.shape == (0, 3)


def test_sample_negatives_is_deterministic_under_seeded_rng():
    g = _graph([(0, 2, 0), (1, 3, 5)], n_users=2, n_items=4)
    positives = np.stack([g.edge_user, g.edge_item], axis=1)
    a = sample_negatives(g, positives, seed_stream(4, "negatives"))
    b = sample_negatives(g, positives, seed_stream(4, "negatives"))
    assert np.array_equal(a, b)


# -- loss and gradients ----------------------------------------------------


def test_bpr_loss_hand_value():
    # single triple with score difference exactly 1
    x_final = np.array([[1.0], [2.0], [1.0]])  # s = 1*(2-1) = 1
    triples = np.array([[0, 1, 2]])
    assert bpr_loss(x_final, triples) == pytest.approx(SOFTPLUS_MINUS_ONE, abs=1e-15)


def test_bpr_loss_l2_counts_rows_per_occurrence():
    x_final = np.zeros((3, 1))
    x0 = np.array([[1.0], [2.0], [3.0]])
    triples = np.array([[0, 1, 2], [0, 1, 2]])
    # two log(2) terms plus l2 * 2 * (1 + 4 + 9)
    expected = 2.0 * math.log(2.0) + 0.5 * 2.0 * 14.0
    assert bpr_loss(x_final, triples, x0, l2_reg=0.5) == pytest.approx(expected, abs=1e-12)


def test_bpr_loss_requires_table_when_regularized():
    with pytest.raises(ValueError):
        bpr_loss(np.zeros((2, 1)), np.array([[0, 1, 1]]), l2_reg=0.1)


def test_bpr_gradients_match_finite_differences():
    rng = np.random.default_rng(5)
    edges = [(0, 3, 0), (0, 4, 100), (1, 4, 200), (2, 5, 300)]
    g = _graph(edges, n_users=3, n_items=3)
    w = build_weights(g, 100.0)
    x0 = rng.normal(0.0, 0.5, size=(6, 3))
    triples = np.array([[0, 3, 5], [1, 4, 3], [2, 5, 4]])
    l2 = 1e-3
    loss, grad = bpr_gradients(w, x0, triples, n_layers=2, l2_reg=l2)
    assert loss == pytest.approx(
        bpr_loss(forward(w, x0, 2), triples, x0, l2), abs=1e-12
    )
    fd = central_difference(
        lambda: bpr_loss(forward(w, x0, 2), triples, x0, l2), x0
    )
    assert rel_err(grad, fd) < 1e-6


def test_bpr_gradients_repeated_rows_accumulate():
    # the same triple twice must double the gradient
    g = _graph([(0, 2, 0), (1, 3, 10)], n_users=2, n_items=2)
    w = build_weights(g, 3600.0)
    x0 = np.random.default_rng(3).normal(size=(4, 2))
    once = bpr_gradients(w, x0, np.array([[0, 2, 3]]), 1)[1]
    twice = bpr_gradients(w, x0, np.array([[0, 2, 3], [0, 2, 3]]), 1)[1]
    assert np.allclose(twice, 2.0 * once, atol=1e-12)


def _add_at_grad_final(z, triples):
    # the scatter as np.add.at does it: user, positive, negative columns in turn
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    zu, zi, zj = z[u], z[i], z[j]
    coef = expit(-np.einsum("nd,nd->n", zu, zi - zj))[:, None]
    grad = np.zeros_like(z)
    np.add.at(grad, u, -coef * (zi - zj))
    np.add.at(grad, i, -coef * zu)
    np.add.at(grad, j, coef * zu)
    return grad


def test_bpr_gradients_scatter_matches_add_at_bitwise():
    rng = np.random.default_rng(11)
    z = rng.normal(size=(7, 5))
    # 300 triples over 6 of 7 nodes: every node recurs in all three roles,
    # one triple names the same node three times, and node 6 never appears
    triples = rng.integers(0, 6, size=(300, 3))
    triples[17] = [4, 4, 4]
    # with no layers the table is the final one, so the gradient is the scatter's
    w = build_weights(_graph([(0, 3, 0)], 3, 4), 3600.0)
    loss, grad = bpr_gradients(w, z, triples, 0)
    np.testing.assert_array_equal(grad, _add_at_grad_final(z, triples))
    assert loss == bpr_loss(z, triples)
    assert not grad[6].any()


def test_bpr_gradients_l2_rounds_match_add_at_bitwise():
    rng = np.random.default_rng(12)
    g = _graph(random_bipartite_edges(rng, 4, 5, 12), 4, 5)
    w = build_weights(g, 3600.0)
    x0 = rng.normal(size=(9, 3))
    users = rng.integers(0, 4, size=(200, 1))
    triples = np.hstack([users, 4 + rng.integers(0, 5, size=(200, 2))])
    l2 = 3e-2
    plain_loss, expected = bpr_gradients(w, x0, triples, 2)
    rows = triples.ravel()
    np.add.at(expected, rows, 2.0 * l2 * x0[rows])
    # with the step's buffers, the L2 values overwrite the buffer the score
    # gradients were in, which the score scatter must have read by then
    for work in (None, step_buffers(9, 3, 256)):
        loss, grad = bpr_gradients(w, x0, triples, 2, l2, work)
        np.testing.assert_array_equal(grad, expected)
        assert loss == plain_loss + l2 * float(np.sum(x0[rows] ** 2))


def test_steady_state_training_step_allocates_no_table_sized_array():
    rng = np.random.default_rng(14)
    n_users, n_items, d, batch = 600, 400, 16, 32
    g = _graph(random_bipartite_edges(rng, n_users, n_items, 6000), n_users, n_items)
    w = build_weights(g, 3600.0)
    x = rng.normal(size=(g.n_nodes, d))
    positives = np.stack([g.edge_user, g.edge_item], axis=1)[:batch]
    triples = sample_negatives(g, positives, rng)
    opt = Adam({"x": x}, learning_rate=0.01)
    work = step_buffers(g.n_nodes, d, batch)
    assert np.shares_memory(w.matrix_t.data, w.matrix.data)  # the adjoint's operator is a view
    for _ in range(2):  # the first step too: nothing is built on first use
        tracemalloc.start()
        try:
            _, grad = bpr_gradients(w, x, triples, 3, 1e-4, work)
            opt.step({"x": grad})
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.shares_memory(grad, work[0])
        assert peak < g.n_nodes * d * 8


def test_adam_in_place_matches_out_of_place_formula_bitwise():
    rng = np.random.default_rng(13)
    start = rng.normal(size=(6, 4))
    grads = [rng.normal(size=(6, 4)) for _ in range(5)]
    x = start.copy()
    opt = Adam({"x": x}, learning_rate=0.05)
    for g in grads:
        opt.step({"x": g.copy()})
    np.testing.assert_array_equal(x, adam_reference(start, grads, 0.05))


# -- validation holdout ----------------------------------------------------


@given(st.integers(0, 200))
def test_holdout_split_preserves_training_edges_per_user(seed):
    rng = np.random.default_rng(seed)
    n_users, n_items = 5, 8
    n_edges = int(rng.integers(1, n_users * n_items))
    g = _graph(random_bipartite_edges(rng, n_users, n_items, n_edges), n_users, n_items)
    train_edges, val_keys = holdout_split(g, 0.25, np.random.default_rng(seed))
    assert (np.diff(val_keys) > 0).all()
    val_user, val_item = np.divmod(val_keys, n_items)
    train_by_user: dict[int, set[int]] = {}
    for user, item, _ in train_edges.tolist():
        train_by_user.setdefault(user, set()).add(item - n_users)
    for user in range(n_users):
        deg = int(g.user_degrees()[user])
        if deg == 0:
            assert user not in train_by_user and user not in val_user
            continue
        held = set(val_item[val_user == user].tolist())
        kept = train_by_user.get(user, set())
        assert len(kept) >= 1  # every active user keeps a training edge
        assert not held & kept  # no leakage between splits
        assert len(held) + len(kept) == deg
        if deg >= 2:
            assert len(held) == min(deg - 1, max(1, int(deg * 0.25)))
        else:
            assert len(held) == 0


# -- pre-training ----------------------------------------------------------


def _block_edges() -> list[tuple[int, int, int]]:
    # two clean user/item blocks, several edges each
    edges = []
    ts = 0
    for user in range(6):
        block = user // 3
        for item in range(3):
            edges.append((user, 6 + block * 3 + item, ts))
            ts += 60
    return edges


def test_pretrain_zero_epochs_returns_seeded_init():
    g = _graph(_block_edges(), 6, 6)
    cfg = RunConfig(max_epochs=0, patience=1)
    result = pretrain(g, dim=4, n_layers=2, tau=3600.0, cfg=cfg)
    expected = seed_stream(cfg.seed, "init").normal(0.0, 0.1, size=(12, 4))
    assert np.array_equal(result.embeddings, expected)
    assert result.log == [] and result.optimizer_steps == 0


def test_pretrain_runs_and_logs_epochs():
    g = _graph(_block_edges(), 6, 6)
    cfg = RunConfig(
        learning_rate=5e-3, batch_size=8, max_epochs=4, patience=4, val_fraction=0.2, seed=1
    )
    result = pretrain(g, dim=8, n_layers=2, tau=3600.0, cfg=cfg)
    assert 1 <= len(result.log) <= 4
    assert all(np.isfinite(rec["loss"]) for rec in result.log)
    assert all(rec["val_recall"] is not None for rec in result.log)
    assert result.best_epoch >= 1
    assert result.optimizer_steps > 0
    assert np.all(np.isfinite(result.embeddings))


def test_pretrain_is_deterministic():
    g = _graph(_block_edges(), 6, 6)
    cfg = RunConfig(batch_size=8, max_epochs=3, patience=3, seed=9)
    a = pretrain(g, 4, 2, 3600.0, cfg)
    b = pretrain(g, 4, 2, 3600.0, cfg)
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    assert a.log == b.log


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the injected divergence overflows
def test_pretrain_raises_when_training_diverges():
    g = _graph(_block_edges(), 6, 6)
    cfg = RunConfig(learning_rate=1e300, batch_size=8, max_epochs=3, patience=3)
    # the first step moves every row by about 1e300, so the next batch's scores overflow
    with pytest.raises(FloatingPointError, match="epoch 1, batch 2"):
        pretrain(g, 4, 2, 3600.0, cfg)


def test_pretrain_raises_when_the_last_step_overflows_validation():
    # one batch, one epoch: the only step leaves a finite table near 1e300,
    # which passes the per-batch check but overflows the validation scores
    rng = np.random.default_rng(0)
    g = _graph(random_bipartite_edges(rng, 40, 30, 400), 40, 30)
    cfg = RunConfig(learning_rate=1e300, batch_size=4096, max_epochs=1, patience=1)
    with pytest.raises(FloatingPointError, match="validation scores overflow at epoch 1"):
        pretrain(g, 8, 2, 3600.0, cfg)


def test_pretrain_raises_when_the_last_step_overflows_without_validation():
    # no validation pass scores the only step's table, so the final check must
    rng = np.random.default_rng(0)
    g = _graph(random_bipartite_edges(rng, 40, 30, 400), 40, 30)
    cfg = RunConfig(
        learning_rate=1e300, batch_size=4096, max_epochs=1, patience=1, val_fraction=0.0
    )
    with pytest.raises(FloatingPointError, match="scores overflow at epoch 1"):
        pretrain(g, 8, 2, 3600.0, cfg)


def test_pretrain_no_validation_trains_all_epochs_keeping_last():
    g = _graph(_block_edges(), 6, 6)
    cfg = RunConfig(batch_size=8, max_epochs=3, patience=3, val_fraction=0.0)
    result = pretrain(g, 4, 1, 3600.0, cfg)
    assert len(result.log) == 3
    assert result.best_epoch == 3
    assert all(rec["val_recall"] is None for rec in result.log)


def test_pretrain_batch_beyond_the_edge_count_runs_as_one_batch():
    # the step's buffers are sized by the batch the graph can fill, not the setting
    g = _graph(_block_edges(), 6, 6)
    kw = dict(learning_rate=5e-3, max_epochs=2, patience=2, val_fraction=0.2, seed=1)
    huge = pretrain(g, 4, 2, 3600.0, RunConfig(batch_size=10**12, **kw))
    fitted = pretrain(g, 4, 2, 3600.0, RunConfig(batch_size=g.n_edges, **kw))
    assert huge.optimizer_steps == fitted.optimizer_steps == 2
    assert huge.embeddings.tobytes() == fitted.embeddings.tobytes()
    assert huge.log == fitted.log


def test_pretrain_patience_beyond_max_epochs_runs_every_epoch():
    # the first epoch always sets the best, so `stale` never reaches max_epochs
    g = _graph(_block_edges(), 6, 6)
    kw = dict(learning_rate=5e-3, batch_size=8, max_epochs=4, val_fraction=0.2, seed=1)
    long = pretrain(g, 8, 2, 3600.0, RunConfig(patience=10, **kw))
    capped = pretrain(g, 8, 2, 3600.0, RunConfig(patience=4, **kw))
    assert len(long.log) == 4 and all(rec["val_recall"] is not None for rec in long.log)
    assert long.embeddings.tobytes() == capped.embeddings.tobytes()
    assert long.log == capped.log


def test_pretrain_seed_changes_output():
    g = _graph(_block_edges(), 6, 6)
    a = pretrain(g, 4, 1, 3600.0, RunConfig(batch_size=8, max_epochs=2, patience=2, seed=0))
    b = pretrain(g, 4, 1, 3600.0, RunConfig(batch_size=8, max_epochs=2, patience=2, seed=1))
    assert a.embeddings.tobytes() != b.embeddings.tobytes()
