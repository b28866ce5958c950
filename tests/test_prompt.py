"""Gate algebra, retention schedule, condensed history graph and fine-tuning."""
from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from scipy.special import expit

from dynrec.config import RunConfig
from dynrec.data import build_graph
from dynrec.propagation import build_weights, forward
from dynrec.prompt import (
    GateParams,
    apply_gate,
    build_prompt_graph,
    finetune,
    gate_gradients,
    snapshot_retention,
)
from dynrec.rng import seed_stream
from helpers import bpr_loss, central_difference, edge_array, rel_err

# frozen by hand: sigmoid(ln 3) = 3/4
SIGMOID_LOG3 = 0.75


def _graph(edges, n_users, n_items):
    return build_graph(edge_array(edges), n_users, n_items)


# -- gate algebra ----------------------------------------------------------


def test_zero_gate_halves_every_entry():
    x = np.random.default_rng(0).normal(size=(5, 3))
    out = apply_gate(x, GateParams.zeros(3))
    assert np.array_equal(out, x * 0.5)


def test_gate_hand_value():
    # d=1, x=1, w=ln 3, b=0: sigmoid(ln 3) = 0.75 exactly
    x = np.array([[1.0]])
    gate = GateParams(w=np.array([[np.log(3.0)]]), b=np.zeros(1))
    assert apply_gate(x, gate)[0, 0] == pytest.approx(SIGMOID_LOG3, abs=1e-14)


def test_gate_bias_only():
    x = np.full((2, 2), 2.0)
    gate = GateParams(w=np.zeros((2, 2)), b=np.array([0.0, 1.0]))
    out = apply_gate(x, gate)
    assert out[:, 0] == pytest.approx([1.0, 1.0], abs=1e-15)
    assert out[:, 1] == pytest.approx([2.0 * 0.7310585786300049] * 2, abs=1e-14)


def test_gate_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    x_in = rng.normal(size=(6, 3))
    gate = GateParams(w=rng.normal(0, 0.3, size=(3, 3)), b=rng.normal(0, 0.3, size=3))
    upstream = rng.normal(size=(6, 3))
    grad_w, grad_b = gate_gradients(x_in, expit(x_in @ gate.w.T + gate.b), upstream)

    def objective() -> float:
        return float(np.sum(upstream * apply_gate(x_in, gate)))

    fd_w = central_difference(objective, gate.w)
    fd_b = central_difference(objective, gate.b)
    assert rel_err(grad_w, fd_w) < 1e-7
    assert rel_err(grad_b, fd_b) < 1e-7


def test_gate_gradients_do_not_touch_inputs():
    x_in = np.ones((3, 2))
    sig = np.full((3, 2), 0.5)
    upstream = np.ones((3, 2))
    before = x_in.tobytes() + sig.tobytes() + upstream.tobytes()
    gate_gradients(x_in, sig, upstream)
    assert x_in.tobytes() + sig.tobytes() + upstream.tobytes() == before


def test_random_gate_is_seeded_and_non_trivial():
    x = np.random.default_rng(1).normal(size=(4, 3))

    def random_gate(stream):
        return apply_gate(x, GateParams.random(3, seed_stream(7, "gate", stream)))

    a, b, c = random_gate(0), random_gate(0), random_gate(1)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, x * 0.5)


# -- retention schedule ----------------------------------------------------


def test_retention_hand_vectors():
    assert snapshot_retention(4, 0.1).tolist() == [1.0, 0.9, 0.8, 0.7]
    assert snapshot_retention(4, -0.1).tolist() == [0.7, 0.8, 0.9, 1.0]
    # 1 - 3*0.3 rounds to 0.10000000000000009 in binary floating point
    assert snapshot_retention(5, 0.3).tolist() == [1.0, 0.7, 0.4, 1.0 - 3.0 * 0.3, 0.0]
    assert snapshot_retention(3, 0.0).tolist() == [1.0, 1.0, 1.0]
    assert snapshot_retention(0, 0.5).tolist() == []


def test_retention_rejects_negative_count():
    with pytest.raises(ValueError):
        snapshot_retention(-1, 0.1)


@given(st.integers(0, 12), st.floats(-1.0, 1.0, allow_nan=False))
def test_retention_bounds_and_direction(n, phi):
    ret = snapshot_retention(n, phi)
    assert ret.shape == (n,)
    assert np.all(ret >= 0.0) and np.all(ret <= 1.0)
    if n:
        if phi >= 0:
            assert np.all(np.diff(ret) <= 0)  # older snapshots keep more
            assert ret[0] == 1.0
        else:
            assert np.all(np.diff(ret) >= 0)  # recent snapshots keep more
            assert ret[-1] == 1.0


# -- condensed history graph -----------------------------------------------


def _snapshots():
    # item ids are global (offset by n_users = 2); disjoint from pretraining
    return [
        edge_array([(0, 4, 1000), (1, 4, 1100)]),
        edge_array([(0, 5, 2000), (1, 5, 2100)]),
    ]


def test_build_prompt_graph_counts_with_full_retention():
    pre = build_graph(edge_array([(0, 2, 0), (1, 3, 10)]), 2, 4)
    g = build_prompt_graph(pre, _snapshots(), phi=0.0, rng=seed_stream(0, "prompt"))
    # phi=0 keeps every snapshot edge: 2 pretraining + 4 snapshot edges
    assert g.n_edges == 6


def test_build_prompt_graph_subsamples_older_snapshots():
    pre = build_graph(edge_array([(0, 2, 0), (1, 3, 10)]), 2, 4)
    snaps = [
        edge_array([(0, 4, 1000 + k) for k in range(10)]),
        edge_array([(1, 5, 2000 + k) for k in range(10)]),
    ]
    g = build_prompt_graph(pre, snaps, phi=-0.5, rng=seed_stream(0, "prompt"))
    # retention (0.5, 1.0): old snapshot keeps 5 of 10 duplicated edges -> 1
    # distinct pair; new keeps all 10 -> 1 distinct pair; plus 2 pretraining
    assert g.n_edges == 4


def test_build_prompt_graph_zero_retention_drops_snapshot():
    pre = build_graph(edge_array([(0, 2, 0)]), 2, 4)
    snaps = [
        edge_array([(0, 4, 1000)]),
        edge_array([(1, 5, 2000)]),
        edge_array([(1, 4, 3000)]),
    ]
    g = build_prompt_graph(pre, snaps, phi=-1.0, rng=seed_stream(0, "prompt"))
    # retention (0, 0, 1): only the newest snapshot contributes
    assert g.edges()[:, :2].tolist() == [[0, 2], [1, 4]]


def test_build_prompt_graph_is_deterministic():
    pre = build_graph(edge_array([(0, 2, 0)]), 2, 4)
    snaps = [edge_array([(0, 4 + k % 2, 1000 + k) for k in range(8)])]
    a = build_prompt_graph(pre, snaps, 0.4, seed_stream(3, "prompt", 1))
    b = build_prompt_graph(pre, snaps, 0.4, seed_stream(3, "prompt", 1))
    assert np.array_equal(a.edge_user, b.edge_user)
    assert np.array_equal(a.edge_item, b.edge_item)
    assert np.array_equal(a.edge_ts, b.edge_ts)


# -- fine-tuning -----------------------------------------------------------

TAU = 100.0


def _finetune_setup():
    edges = [(0, 3, 0), (0, 4, 50), (1, 4, 100), (2, 5, 150), (1, 3, 200)]
    g = _graph(edges, n_users=3, n_items=3)
    x_in = np.random.default_rng(8).normal(0.0, 0.3, size=(6, 4))
    cfg = RunConfig(
        learning_rate=1e-2, batch_size=4, finetune_epochs=3, layers=2, tau_hours=TAU / 3600.0
    )
    return g, x_in, cfg


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the injected inf yields nan
def test_finetune_raises_on_a_non_finite_loss():
    g, x_in, cfg = _finetune_setup()
    x_in[0, 0] = np.inf
    with pytest.raises(FloatingPointError, match="epoch 1, batch 1"):
        finetune(g, x_in, cfg, seed_stream(0, "finetune", 0))


def test_finetune_input_table_is_bitwise_unchanged():
    g, x_in, cfg = _finetune_setup()
    before = x_in.tobytes()
    finetune(g, x_in, cfg, rng=seed_stream(0, "finetune", 0))
    assert x_in.tobytes() == before


def test_finetune_runs_fixed_epochs_and_returns_consistent_embeddings():
    g, x_in, cfg = _finetune_setup()
    result = finetune(g, x_in, cfg, seed_stream(0, "finetune", 0))
    assert [rec["epoch"] for rec in result.log] == [1, 2, 3]
    assert result.gate.w.shape == (4, 4) and result.gate.b.shape == (4,)
    # returned embeddings are the propagated gated table
    recomputed = forward(build_weights(g, TAU), apply_gate(x_in, result.gate), 2)
    assert np.array_equal(result.embeddings, recomputed)
    # 5 positives, batch 4 -> 2 optimizer steps per epoch
    assert result.optimizer_steps == 6


def test_finetune_moves_gate_away_from_zero():
    g, x_in, cfg = _finetune_setup()
    result = finetune(g, x_in, cfg, seed_stream(0, "finetune", 0))
    assert float(np.abs(result.gate.w).max()) > 0.0
    assert float(np.abs(result.gate.b).max()) > 0.0


def test_finetune_is_deterministic():
    g, x_in, cfg = _finetune_setup()
    a = finetune(g, x_in, cfg, seed_stream(1, "finetune", 0))
    b = finetune(g, x_in, cfg, seed_stream(1, "finetune", 0))
    assert a.embeddings.tobytes() == b.embeddings.tobytes()
    assert a.gate.w.tobytes() == b.gate.w.tobytes()


def test_finetune_reduces_ranking_loss_on_its_snapshot():
    g, x_in, cfg = _finetune_setup()
    cfg = dataclasses.replace(cfg, learning_rate=5e-2, batch_size=8, finetune_epochs=30)
    result = finetune(g, x_in, cfg, seed_stream(0, "finetune", 0))
    triples = np.array([[0, 3, 5], [1, 4, 5], [2, 5, 3]])
    before = bpr_loss(forward(build_weights(g, TAU), apply_gate(x_in, GateParams.zeros(4)), 2), triples)
    after = bpr_loss(result.embeddings, triples)
    assert after < before
