"""History window, interpolated re-initialization and the rolling snapshot protocol."""
from __future__ import annotations

import tracemalloc
from collections import deque

import numpy as np
import pytest

from dynrec import dynamics
from dynrec.config import RunConfig
from dynrec.data import DataError, build_graph, segment_snapshots
from dynrec.dynamics import DynamicResult, interpolative_init, run_dynamic, run_frozen
from dynrec.prompt import GateParams, apply_gate, build_prompt_graph
from dynrec.propagation import build_weights, forward
from dynrec.rng import seed_stream
from dynrec.synthetic import drift_series
from dynrec.training import pretrain
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
    "warning",
    "tuned",
    "untuned",
}

PROTOCOLS = pytest.mark.parametrize("protocol", [run_dynamic, run_frozen], ids=lambda p: p.__name__)


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


def _pretrained(series, cfg: RunConfig) -> np.ndarray:
    return pretrain(
        series.pretrain, cfg.d, cfg.layers, cfg.tau_seconds, cfg.train_config(),
        no_temporal=cfg.no_temporal, init_std=cfg.init_std,
    ).embeddings


def _run_collecting(protocol, series, cfg, pretrained):
    """Run `protocol`, returning its result and the artifacts it handed to `on_cycle`."""
    cycles = []

    def keep(n, cycle):
        assert n == len(cycles) + 1  # 1-based, in cycle order
        cycles.append(cycle)

    return protocol(series, cfg, pretrained, on_cycle=keep), cycles


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
    cfg = _small_cfg()
    result, cycles = _run_collecting(run_dynamic, series, cfg, _pretrained(series, cfg))
    assert len(result.records) == series.n_snapshots - 1
    for idx, rec in enumerate(result.records, start=1):
        assert set(rec) == RECORD_KEYS
        assert rec["cycle"] == idx
        assert rec["train_snapshot"] == idx and rec["test_snapshot"] == idx + 1
        assert rec["epochs"] == 2
        assert 0.0 <= rec["recall"] <= 1.0 and 0.0 <= rec["ndcg"] <= 1.0
        assert rec["tuned"]["n_users"] + rec["untuned"]["n_users"] == rec["n_eval_users"]
    assert len(cycles) == len(result.records)
    for cycle in cycles:
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
    _, cycles = _run_collecting(run_dynamic, series, cfg, x_p)
    assert len(cycles) == 4 and all(len(s) for s in series.snapshots)
    window = []  # newest first, at most omega tables
    for k, cycle in enumerate(cycles):
        x_init = interpolative_init(x_p, window)
        gate = GateParams.random(cfg.d, seed_stream(cfg.seed, "gate", k))
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
    cfg = _small_cfg()
    a, cycles_a = _run_collecting(run_dynamic, series, cfg, _pretrained(series, cfg))
    b, cycles_b = _run_collecting(run_dynamic, series, cfg, _pretrained(series, cfg))
    assert a.records == b.records
    for ca, cb in zip(cycles_a, cycles_b):
        assert ca.embeddings.tobytes() == cb.embeddings.tobytes()


def test_run_dynamic_reuses_supplied_pretrained_table():
    series = _small_series()
    cfg = _small_cfg()
    x_p = _pretrained(series, cfg)
    before = x_p.tobytes()
    first = run_dynamic(series, cfg, x_p)
    again = run_dynamic(series, cfg, pretrained=x_p)
    assert x_p.tobytes() == before
    assert again.records == first.records


@PROTOCOLS
def test_protocols_validate_pretrained_shape_before_propagating(protocol, monkeypatch):
    def propagate(*args, **kwargs):
        raise AssertionError("propagated before the shape check")

    monkeypatch.setattr(dynamics, "build_weights", propagate)
    monkeypatch.setattr(dynamics, "forward", propagate)
    with pytest.raises(DataError, match="shape"):
        protocol(_small_series(), _small_cfg(), pretrained=np.zeros((3, 8)))


@PROTOCOLS
def test_each_cycle_is_handed_on_before_the_next_cycle_starts(protocol, monkeypatch):
    # the protocol reaches these through dynamics' module globals at call
    # time, so the recording wrappers see every call
    events = []

    def recorded(name, fn):
        def call(*args, **kwargs):
            events.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("build_prompt_graph", "finetune", "evaluate_users"):
        monkeypatch.setattr(dynamics, name, recorded(name, getattr(dynamics, name)))
    series = _small_series()
    cfg = _small_cfg()
    x_p = np.random.default_rng(0).normal(0.0, 0.1, size=(series.vocab.n_nodes, cfg.d))
    protocol(series, cfg, x_p, on_cycle=lambda n, cycle: events.append(f"on_cycle {n}"))
    assert all(len(s) for s in series.snapshots)
    work = ["build_prompt_graph", "finetune"] if protocol is run_dynamic else []
    cycles = range(1, series.n_snapshots)
    assert len(cycles) > 1
    assert events == [e for n in cycles for e in [*work, "evaluate_users", f"on_cycle {n}"]]


@PROTOCOLS
def test_a_single_snapshot_runs_no_cycle(protocol):
    # pretrain [0, 100); every later edge falls into one 50-second bucket
    log = edge_array([(0, 100, 0), (1, 101, 10), (0, 101, 100), (1, 100, 120)])
    series = segment_snapshots(log, 100, 50)
    assert series.n_snapshots == 1
    cfg = _small_cfg(d=2, pretrain_span_hours=100 / 3600, granularity_hours=50 / 3600)
    x_p = np.random.default_rng(0).normal(0.0, 0.1, size=(series.vocab.n_nodes, cfg.d))

    def on_cycle(n, cycle):
        raise AssertionError(f"on_cycle called for cycle {n}")

    result = protocol(series, cfg, x_p, on_cycle=on_cycle)
    assert result.records == [] and result.reports == []
    summary = result.summary()
    assert summary.pop("n_cycles") == 0 and set(summary.values()) == {0.0}


def test_run_dynamic_memory_does_not_grow_with_the_number_of_cycles():
    # a table outlives its cycle only in the omega window, so the same log cut
    # into four times the cycles must fit in about the same peak
    log = drift_series(users_per_block=20, items_per_block=10, seed=0)
    peaks = []
    for hours, n_cycles in ((6.0, 23), (1.5, 95)):
        cfg = RunConfig(
            d=32, layers=2, finetune_epochs=1, pretrain_span_hours=144.0, granularity_hours=hours
        )
        series = segment_snapshots(log, cfg.pretrain_span_seconds, cfg.granularity_seconds)
        x_p = np.random.default_rng(0).normal(0.0, 0.1, size=(series.vocab.n_nodes, cfg.d))
        tracemalloc.start()
        try:
            result = run_dynamic(series, cfg, x_p)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        assert len(result.records) == n_cycles
    assert peaks[1] <= 1.25 * peaks[0], peaks


def test_ablation_switches_change_the_metric_trace():
    series = _small_series()
    cfg = _small_cfg()
    x_p = _pretrained(series, cfg)
    base = run_dynamic(series, cfg, x_p)
    trace = [(r["recall"], r["ndcg"]) for r in base.records]
    for flag in ("no_prompt_tuning", "no_gate", "no_interp_update", "no_temporal"):
        variant = run_dynamic(series, _small_cfg(**{flag: True}), pretrained=x_p)
        assert [(r["recall"], r["ndcg"]) for r in variant.records] != trace, flag


def test_no_gate_skips_tuning_entirely():
    series = _small_series()
    cfg = _small_cfg(no_gate=True)
    result, cycles = _run_collecting(run_dynamic, series, cfg, _pretrained(series, cfg))
    assert all(rec["epochs"] == 0 for rec in result.records)
    assert all(cycle.gate is None for cycle in cycles)


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
    result = run_dynamic(series, cfg, _pretrained(series, cfg))
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
    cfg = _small_cfg()
    result, cycles = _run_collecting(run_frozen, series, cfg, _pretrained(series, cfg))
    first = cycles[0].embeddings.tobytes()
    assert all(c.embeddings.tobytes() == first for c in cycles)
    assert all(rec["epochs"] == 0 for rec in result.records)


def test_macro_micro_aggregate_per_cycle_reports():
    series = _small_series()
    cfg = _small_cfg()
    result, cycles = _run_collecting(run_frozen, series, cfg, _pretrained(series, cfg))
    active = [r for r in result.records if r["n_eval_users"] > 0]
    macro_r, macro_n = result.macro()
    assert macro_r == pytest.approx(np.mean([r["recall"] for r in active]))
    assert macro_n == pytest.approx(np.mean([r["ndcg"] for r in active]))
    pooled_r = [v for c in cycles for v in c.report.recalls]
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
    cfg = _small_cfg()
    full = run_frozen(series, cfg, _pretrained(series, cfg))
    cfg = _small_cfg(eval_candidates=4)
    sampled = run_frozen(series, cfg, _pretrained(series, cfg))
    assert len(sampled.records) == len(full.records)
    for rec in sampled.records:
        assert 0.0 <= rec["recall"] <= 1.0
    # a candidate pool at least as large as the catalog changes nothing
    cfg = _small_cfg(eval_candidates=series.n_items)
    saturated = run_frozen(series, cfg, _pretrained(series, cfg))
    assert saturated.records == full.records
