"""History window, interpolated re-initialization and the rolling snapshot protocol."""
from __future__ import annotations

from collections import deque

import numpy as np
import pytest

from dynrec.config import RunConfig
from dynrec.data import build_graph, segment_snapshots
from dynrec.dynamics import DynamicResult, interpolative_init, run_dynamic, run_frozen
from dynrec.prompt import GateParams, apply_gate, build_prompt_graph
from dynrec.propagation import build_weights, forward
from dynrec.rng import seed_stream
from dynrec.synthetic import drift_series
from helpers import edge_array

RECORD_KEYS = {
    "cycle",
    "train_snapshot",
    "test_snapshot",
    "n_train_edges",
    "n_eval_users",
    "recall",
    "ndcg",
    "epochs",
    "wall_time",
    "warning",
    "tuned",
    "untuned",
}


def _small_cfg(**overrides) -> RunConfig:
    base = dict(
        d=8,
        layers=2,
        tau_hours=6.0,
        learning_rate=5e-3,
        batch_size=64,
        max_epochs=3,
        patience=3,
        finetune_epochs=2,
        pretrain_span_hours=48.0,
        granularity_hours=24.0,
        k=5,
    )
    base.update(overrides)
    return RunConfig(**base)


def _small_series():
    log = drift_series(
        n_blocks=4,
        users_per_block=4,
        items_per_block=4,
        pretrain_days=2,
        snapshot_days=3,
        stale_per_day=2,
        lead_per_day=1,
        seed=0,
    )
    return segment_snapshots(log, 48 * 3600, 24 * 3600)


# -- window buffer ---------------------------------------------------------


def test_window_buffer_orders_newest_first_and_truncates():
    # run_dynamic's window: a deque of `omega` tables, each pushed on the left
    window = deque(maxlen=2)
    for value in (1.0, 2.0, 3.0):
        window.appendleft(np.array([[value]]))
    assert [t[0, 0] for t in window] == [3.0, 2.0]
    # the newest table (3) weighs 1, the older (2) weighs 2: (0 + 7/3) / 2
    assert interpolative_init(np.array([[0.0]]), window).tolist() == [[(3.0 + 4.0) / 6.0]]


# -- interpolated re-initialization ---------------------------------------


def test_interpolative_init_empty_window_copies_pretrained():
    x_p = np.array([[1.0, 2.0]])
    out = interpolative_init(x_p, deque(maxlen=3))
    assert np.array_equal(out, x_p) and out is not x_p


def test_interpolative_init_hand_value():
    window = deque(maxlen=2)
    window.appendleft(np.array([[10.0]]))
    window.appendleft(np.array([[4.0]]))  # newest, weight 1; the 10 gets weight 2
    out = interpolative_init(np.array([[2.0]]), window)
    # (2 + (1*4 + 2*10)/3) / 2 = 5
    assert out.tolist() == [[5.0]]


def test_interpolative_init_closed_form_on_random_tables():
    rng = np.random.default_rng(0)
    x_p = rng.normal(size=(5, 3))
    tables = [rng.normal(size=(5, 3)) for _ in range(3)]
    window = deque(maxlen=3)
    for t in tables:
        window.appendleft(t)
    newest_first = list(reversed(tables))
    mix = sum((i + 1) * tab for i, tab in enumerate(newest_first)) / 6.0
    assert np.allclose(interpolative_init(x_p, window), 0.5 * (x_p + mix), atol=1e-12)


# -- rolling protocol ------------------------------------------------------


def test_run_dynamic_record_schedule_and_shape():
    series = _small_series()
    result = run_dynamic(series, _small_cfg())
    assert len(result.records) == series.n_snapshots - 1
    for idx, rec in enumerate(result.records, start=1):
        assert set(rec) == RECORD_KEYS
        assert rec["cycle"] == idx
        assert rec["train_snapshot"] == idx and rec["test_snapshot"] == idx + 1
        assert rec["wall_time"] == 0.0  # zeroed in deterministic mode
        assert rec["epochs"] == 2
        assert 0.0 <= rec["recall"] <= 1.0 and 0.0 <= rec["ndcg"] <= 1.0
        assert rec["tuned"]["n_users"] + rec["untuned"]["n_users"] == rec["n_eval_users"]
    assert len(result.cycles) == len(result.records)
    for cycle in result.cycles:
        assert cycle.embeddings.shape == (series.vocab.n_nodes, 8)
        assert cycle.gate is not None


def test_run_dynamic_matches_the_hand_composed_cycle_pipeline():
    # re-init from the window, a seeded throwaway gate, one pass over the
    # condensed history graph, then plain propagation on the snapshot (no_gate)
    log = drift_series(
        n_blocks=3, users_per_block=3, items_per_block=3, pretrain_days=2,
        snapshot_days=5, stale_per_day=2, lead_per_day=1, seed=1,
    )
    series = segment_snapshots(log, 48 * 3600, 24 * 3600)
    cfg = _small_cfg(no_gate=True, omega=2)
    x_p = np.random.default_rng(5).normal(0.0, 0.1, size=(series.vocab.n_nodes, cfg.d))
    result = run_dynamic(series, cfg, pretrained=x_p)
    assert len(result.cycles) == 4 and all(len(s) for s in series.snapshots)
    window = []  # newest first, at most omega tables
    for k, cycle in enumerate(result.cycles):
        x_init = interpolative_init(x_p, window)
        gate = GateParams.random(cfg.d, seed_stream(cfg.seed, "gate", k), cfg.random_gate_std)
        prompt_graph = build_prompt_graph(
            series.pretrain, series.snapshots[: k + 1], cfg.phi,
            seed_stream(cfg.seed, "prompt", k),
        )
        x_n0 = forward(
            build_weights(prompt_graph, cfg.tau_seconds), apply_gate(x_init, gate), cfg.layers
        )
        graph_n = build_graph(series.snapshots[k], series.n_users, series.n_items)
        x_n = forward(build_weights(graph_n, cfg.tau_seconds), x_n0, cfg.layers)
        assert cycle.embeddings.tobytes() == x_n.tobytes(), k
        window = [x_n] + window[: cfg.omega - 1]


def test_run_dynamic_is_deterministic():
    series = _small_series()
    a = run_dynamic(series, _small_cfg())
    b = run_dynamic(series, _small_cfg())
    assert a.records == b.records
    for ca, cb in zip(a.cycles, b.cycles):
        assert ca.embeddings.tobytes() == cb.embeddings.tobytes()


def test_run_dynamic_reuses_supplied_pretrained_table():
    series = _small_series()
    cfg = _small_cfg()
    first = run_dynamic(series, cfg)
    again = run_dynamic(series, cfg, pretrained=first.pretrained)
    assert again.pretrain_log == []
    assert again.records == first.records


def test_run_dynamic_validates_pretrained_shape():
    series = _small_series()
    with pytest.raises(ValueError, match="shape"):
        run_dynamic(series, _small_cfg(), pretrained=np.zeros((3, 8)))


def test_ablation_switches_change_the_metric_trace():
    series = _small_series()
    cfg = _small_cfg()
    base = run_dynamic(series, cfg)
    x_p = base.pretrained
    trace = [(r["recall"], r["ndcg"]) for r in base.records]
    for flag in ("no_prompt_tuning", "no_gate", "no_interp_update", "no_temporal"):
        variant = run_dynamic(series, _small_cfg(**{flag: True}), pretrained=x_p)
        assert [(r["recall"], r["ndcg"]) for r in variant.records] != trace, flag


def test_no_gate_skips_tuning_entirely():
    series = _small_series()
    result = run_dynamic(series, _small_cfg(no_gate=True))
    assert all(rec["epochs"] == 0 for rec in result.records)
    assert all(cycle.gate is None for cycle in result.cycles)


def test_empty_training_snapshot_skips_adaptation():
    # pretrain [0, 100); buckets of 50: edges at 100-110 and 210-220 leave
    # the middle bucket empty
    log = []
    for user in range(4):
        for item, ts in ((100, 0), (101, 40), (102, 80)):
            log.append((user, item + user % 2, ts))
        log.append((user, 100 + (user + 1) % 3, 100 + user))
        log.append((user, 100 + (user + 2) % 3, 210 + user))
    series = segment_snapshots(edge_array(log), 100, 50)
    assert [len(s) for s in series.snapshots] == [4, 0, 4]
    cfg = _small_cfg(
        d=4, pretrain_span_hours=100 / 3600, granularity_hours=50 / 3600, max_epochs=2, patience=2
    )
    result = run_dynamic(series, cfg)
    assert result.records[0]["warning"] is None
    assert result.records[1]["warning"] is not None
    assert result.records[1]["epochs"] == 0
    # no user has an edge in the empty training snapshot
    assert result.records[1]["untuned"]["n_users"] == result.records[1]["n_eval_users"] > 0


def test_masking_hides_previously_seen_items_during_evaluation():
    # user 0's only pre-training item would dominate scoring; once masked,
    # the fresh item must fill the single ranking slot
    log = edge_array(
        [
            (0, 100, 0),  # pre-training
            (0, 100, 100),  # training snapshot repeats the old item
            (0, 100, 160),  # test snapshot: old item again ...
            (0, 101, 170),  # ... plus one genuinely new item
        ]
    )
    series = segment_snapshots(log, 100, 50)
    cfg = _small_cfg(
        d=2,
        layers=0,
        k=1,
        pretrain_span_hours=100 / 3600,
        granularity_hours=50 / 3600,
    )
    x = np.array([[1.0, 0.0], [10.0, 0.0], [1.0, 0.0]])  # item 100 scores 10x
    result = run_frozen(series, cfg, pretrained=x)
    rec = result.records[-1]
    assert rec["n_eval_users"] == 1
    assert rec["tuned"]["n_users"] == 1  # user 0 has an edge in the training snapshot
    # relevant reduces to the new item and the old one leaves the candidates
    assert rec["recall"] == 1.0


def test_run_frozen_embeddings_constant_across_cycles():
    series = _small_series()
    result = run_frozen(series, _small_cfg())
    first = result.cycles[0].embeddings.tobytes()
    assert all(c.embeddings.tobytes() == first for c in result.cycles)
    assert all(rec["epochs"] == 0 for rec in result.records)


def test_macro_micro_aggregate_per_cycle_reports():
    series = _small_series()
    result = run_frozen(series, _small_cfg())
    active = [r for r in result.records if r["n_eval_users"] > 0]
    macro_r, macro_n = result.macro()
    assert macro_r == pytest.approx(np.mean([r["recall"] for r in active]))
    assert macro_n == pytest.approx(np.mean([r["ndcg"] for r in active]))
    pooled_r = [v for c in result.cycles for v in c.report.recalls]
    micro_r, _ = result.micro()
    assert micro_r == pytest.approx(np.mean(pooled_r))
    summary = result.summary()
    assert summary["n_cycles"] == len(result.records)
    assert summary["macro_recall"] == macro_r and summary["micro_recall"] == micro_r


def test_empty_result_aggregates_to_zero():
    empty = DynamicResult()
    assert empty.macro() == (0.0, 0.0)
    assert empty.micro() == (0.0, 0.0)


def test_candidate_sampling_limits_ranking_pool():
    series = _small_series()
    full = run_frozen(series, _small_cfg())
    sampled = run_frozen(series, _small_cfg(eval_candidates=4))
    assert len(sampled.records) == len(full.records)
    for rec in sampled.records:
        assert 0.0 <= rec["recall"] <= 1.0
    # a candidate pool at least as large as the catalog changes nothing
    saturated = run_frozen(series, _small_cfg(eval_candidates=series.n_items))
    assert saturated.records == full.records
