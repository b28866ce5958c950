"""Rolling train-on-snapshot-n, test-on-snapshot-n+1 protocol.

One loop (`_run_cycles`) runs the cycle schedule of both protocols: cycle
k asks the protocol for its table, ranks snapshot k+1 with it, records the
cycle and hands its artifacts on. The protocols differ only in how each
cycle's table is made.

`run_dynamic` re-initializes the working embedding table by interpolating
the pre-trained table with a recency-weighted mix of recent cycles' tables,
seeds it through one propagation pass over the condensed history graph,
tunes a fresh gate on the current snapshot and pushes the tuned table into
the history window. `run_frozen` ranks every cycle with one propagation
pass of the pre-trained table and is the no-adaptation baseline every
variant is compared against.

A cycle's table and gate go to the caller's `on_cycle` as it ends, and the
result keeps only records and per-user reports: after its cycle a table
lives on only in the `omega` history window, whatever the number of cycles.

Both mask and score with (user, item) key arrays (`data.pair_keys`):
the seen keys grow by each training snapshot, the test snapshot's keys are
the relevant set, and a user counts as tuned when they have an edge in the
cycle's training snapshot.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from .config import RunConfig
from .data import DataError, SnapshotSeries, build_graph, pair_keys
from .evaluation import MetricsReport, evaluate_users
from .prompt import FinetuneResult, GateParams, apply_gate, build_prompt_graph, finetune
from .propagation import build_weights, forward, one_blas_thread
from .rng import seed_stream


def interpolative_init(x_p: np.ndarray, window: Sequence[np.ndarray]) -> np.ndarray:
    """Blend the pre-trained table with a weighted mix of recent tables.

    `window` holds recent cycles' tables, newest first. The mix weights the
    table from i cycles ago proportionally to i (the newest entry counts
    least), normalized over the window actually filled; the result is
    averaged half-and-half with the pre-trained table. An empty window
    returns a copy of the pre-trained table.
    """
    w = len(window)
    if w == 0:
        return x_p.copy()
    weights = np.arange(1, w + 1, dtype=np.float64)
    mix = sum(wt * tab for wt, tab in zip(weights, window))
    mix /= weights.sum()
    return 0.5 * (x_p + mix)


@dataclass
class CycleArtifacts:
    """Everything a cycle produced that a caller may want to persist."""

    embeddings: np.ndarray
    gate: GateParams | None
    report: MetricsReport
    optimizer_steps: int = 0


# called with the 1-based cycle number as each cycle ends
OnCycle = Callable[[int, CycleArtifacts], None]


@dataclass
class DynamicResult:
    """Per-cycle records and per-user reports, with pooled summary metrics."""

    records: list[dict] = field(default_factory=list)
    reports: list[MetricsReport] = field(default_factory=list)

    def macro(self) -> tuple[float, float]:
        """Mean of per-cycle means, over cycles that evaluated anyone."""
        recs = [r for r in self.records if r["n_eval_users"] > 0]
        if not recs:
            return 0.0, 0.0
        return (
            float(np.mean([r["recall"] for r in recs])),
            float(np.mean([r["ndcg"] for r in recs])),
        )

    def micro(self) -> tuple[float, float]:
        """Mean over all (cycle, user) evaluations pooled together."""
        recalls = np.concatenate([np.empty(0)] + [r.recalls for r in self.reports])
        ndcgs = np.concatenate([np.empty(0)] + [r.ndcgs for r in self.reports])
        if not recalls.size:
            return 0.0, 0.0
        return float(np.mean(recalls)), float(np.mean(ndcgs))

    def summary(self) -> dict:
        macro_r, macro_n = self.macro()
        micro_r, micro_n = self.micro()
        return {
            "n_cycles": len(self.records),
            "macro_recall": macro_r,
            "macro_ndcg": macro_n,
            "micro_recall": micro_r,
            "micro_ndcg": micro_n,
        }


def _candidate_items(cfg: RunConfig, n_items: int, cycle: int) -> np.ndarray | None:
    if cfg.eval_candidates <= 0 or cfg.eval_candidates >= n_items:
        return None
    rng = seed_stream(cfg.seed, "eval-candidates", cycle)
    return np.sort(rng.choice(n_items, size=cfg.eval_candidates, replace=False))


def _check_shape(series: SnapshotSeries, cfg: RunConfig, pretrained: np.ndarray) -> None:
    expected = (series.vocab.n_nodes, cfg.d)
    if pretrained.shape != expected:
        raise DataError(f"pretrained table has shape {pretrained.shape}, expected {expected}")


def _run_cycles(
    series: SnapshotSeries,
    cfg: RunConfig,
    adapt: Callable[[int], tuple[np.ndarray, FinetuneResult | None, str | None]],
    on_cycle: OnCycle | None,
) -> DynamicResult:
    """The one cycle schedule: cycle k takes `adapt(k)`'s table and ranks snapshot k + 1.

    `adapt(k)` returns cycle k's table, its gate tuning (None if none ran)
    and its record's warning (None if none). The table and gate go to
    `on_cycle` as the cycle ends and are not kept.

    Items in training snapshot k become visible before evaluation on
    snapshot k + 1, so their keys join the sorted `seen` first. Snapshot
    k + 1's keys are the relevant set as they are; the record's tuned and
    untuned blocks split the per-user report by a mask over its users.
    """
    result = DynamicResult()
    n_users, n_items = series.n_users, series.n_items
    seen = series.pretrain.keys
    for k in range(series.n_snapshots - 1):
        x, tuning, warning = adapt(k)
        train_snapshot = series.snapshots[k]
        # two sorted runs, which a stable sort (timsort) merges in linear time
        fresh = np.sort(pair_keys(train_snapshot, n_users, n_items))
        seen = np.sort(np.concatenate([seen, fresh]), kind="stable")
        relevant = pair_keys(series.snapshots[k + 1], n_users, n_items)
        report = evaluate_users(x, n_users, relevant, seen, cfg.k, _candidate_items(cfg, n_items, k))
        tuned = np.isin(report.users, train_snapshot[:, 0])
        record = {
            "cycle": k + 1,
            "train_snapshot": k + 1,
            "test_snapshot": k + 2,
            "n_train_edges": len(train_snapshot),
            "n_eval_users": report.n_users,
            "recall": report.mean_recall(),
            "ndcg": report.mean_ndcg(),
            "epochs": len(tuning.log) if tuning else 0,
            "warning": warning,
        }
        for name, mask in (("tuned", tuned), ("untuned", ~tuned)):
            sub = report.subset(mask)
            record[name] = {"n_users": sub.n_users, "recall": sub.mean_recall(), "ndcg": sub.mean_ndcg()}
        result.records.append(record)
        result.reports.append(report)
        if on_cycle is not None:
            gate, steps = (tuning.gate, tuning.optimizer_steps) if tuning else (None, 0)
            on_cycle(k + 1, CycleArtifacts(x, gate, report, steps))
    return result


@one_blas_thread()
def run_dynamic(
    series: SnapshotSeries, cfg: RunConfig, pretrained: np.ndarray, on_cycle: OnCycle | None = None
) -> DynamicResult:
    """Run the full adaptation protocol over consecutive snapshot pairs.

    Cycle k trains on snapshot k and evaluates on snapshot k+1; every item a
    user touched in the pre-training graph or snapshots up to k is masked
    out of their candidate set. Ablation switches on the config disable the
    interpolated re-init, the condensed-history pass, the learnable gate, or
    temporal edge weighting, each independently. Cycles whose training
    snapshot is empty skip adaptation, evaluate the re-initialized table,
    and carry a warning in their record. `pretrained` is the pre-trained
    table, one row per vocabulary node and `cfg.d` columns; a table of
    another shape raises DataError. Each cycle's artifacts go to `on_cycle`.
    """
    _check_shape(series, cfg, pretrained)
    # newest first; the ablation keeps no history, so every cycle starts from `pretrained`
    window: deque[np.ndarray] = deque(maxlen=0 if cfg.no_interp_update else cfg.omega)

    def adapt(k: int) -> tuple[np.ndarray, FinetuneResult | None, str | None]:
        x_n0 = interpolative_init(pretrained, window)
        if not cfg.no_prompt_tuning:
            rng = seed_stream(cfg.seed, "prompt", k)
            prompt_graph = build_prompt_graph(series.pretrain, series.snapshots[: k + 1], cfg.phi, rng)
            # a throwaway random gate, then one pass over the condensed history
            x_g = apply_gate(x_n0, GateParams.random(cfg.d, seed_stream(cfg.seed, "gate", k)))
            # neither the graph nor its operator outlives this pass into fine-tuning
            x_n0 = forward(
                build_weights(prompt_graph, cfg.tau_seconds, no_temporal=cfg.no_temporal),
                x_g,
                cfg.layers,
            )
            del prompt_graph
        tuning, warning = None, None
        train_snapshot = series.snapshots[k]
        if len(train_snapshot) == 0:
            x_n, warning = x_n0, "empty training snapshot; adaptation skipped"
        else:
            graph_n = build_graph(train_snapshot, series.n_users, series.n_items)
            if cfg.no_gate:
                weights_n = build_weights(graph_n, cfg.tau_seconds, no_temporal=cfg.no_temporal)
                x_n = forward(weights_n, x_n0, cfg.layers)
            else:
                tuning = finetune(graph_n, x_n0, cfg, seed_stream(cfg.seed, "finetune", k))
                x_n = tuning.embeddings
        window.appendleft(x_n)
        return x_n, tuning, warning

    return _run_cycles(series, cfg, adapt, on_cycle)


@one_blas_thread()
def run_frozen(
    series: SnapshotSeries, cfg: RunConfig, pretrained: np.ndarray, on_cycle: OnCycle | None = None
) -> DynamicResult:
    """Evaluate the pre-trained table `pretrained` on every test snapshot, unadapted.

    Follows the same cycle schedule and masking as `run_dynamic` but ranks
    with one fixed propagation pass over the pre-training graph, so the only
    thing that changes between cycles is which interactions are hidden.
    Each cycle's artifacts go to `on_cycle`.
    """
    _check_shape(series, cfg, pretrained)
    weights_p = build_weights(series.pretrain, cfg.tau_seconds, no_temporal=cfg.no_temporal)
    z_p = forward(weights_p, pretrained, cfg.layers)
    return _run_cycles(series, cfg, lambda k: (z_p, None, None), on_cycle)
