"""Condensed-history propagation and gated per-snapshot fine-tuning.

Two mechanisms adapt the pre-trained table to a new snapshot without
touching its rows:

* A condensed history graph: recent snapshots are subsampled with a linear
  retention schedule (slope `phi`; positive favors older snapshots,
  negative favors recent ones), merged with the pre-training edges, and one
  propagation pass over the result seeds the snapshot's initial embeddings.

* A multiplicative gate x * sigmoid(x W^T + b), the only learnable module
  during fine-tuning. Its gradient is computed by hand and deliberately
  truncated at the gate input: the incoming embeddings are treated as
  constants, so tuning a snapshot can never corrupt the table it started
  from.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.special import expit

from .data import InteractionGraph, build_graph
from .propagation import build_weights, forward, forward_backward
from .training import Adam, TrainConfig, bpr_grad_final, check_finite, sample_negatives


@dataclass(frozen=True)
class GateParams:
    """Weights of the multiplicative sigmoid gate."""

    w: np.ndarray  # (d, d)
    b: np.ndarray  # (d,)

    @classmethod
    def zeros(cls, d: int) -> "GateParams":
        return cls(w=np.zeros((d, d)), b=np.zeros(d))

    @classmethod
    def random(cls, d: int, rng: np.random.Generator, std: float = 0.05) -> "GateParams":
        return cls(w=rng.normal(0.0, std, size=(d, d)), b=rng.normal(0.0, std, size=d))


def apply_gate(x: np.ndarray, gate: GateParams) -> np.ndarray:
    """Gate each row: x * sigmoid(x W^T + b)."""
    return x * expit(x @ gate.w.T + gate.b)


def gate_gradients(
    x_in: np.ndarray, gate: GateParams, upstream: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Gradients of the gate parameters given the gradient at the gate output.

    With S = sigmoid(x W^T + b) and output x * S, the pre-activation
    gradient is upstream * x * S * (1 - S); it contracts against x for dW
    and sums over rows for db. No gradient flows to x: the gate input is
    held constant by design.
    """
    pre = x_in @ gate.w.T + gate.b
    s = expit(pre)
    m = upstream * x_in * s * (1.0 - s)
    return m.T @ x_in, m.sum(axis=0)


def snapshot_retention(n: int, phi: float) -> np.ndarray:
    """Per-snapshot edge retention fractions, oldest first, clamped to [0, 1].

    With snapshots indexed i = 1 (oldest) .. n (newest), the fraction is
    1 - (i - 1) * phi for phi >= 0 (older snapshots keep more) and
    1 + (n - i) * phi for phi < 0 (recent snapshots keep more).
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    idx = np.arange(1, n + 1, dtype=np.float64)  # 1 = oldest snapshot
    if phi >= 0:
        ret = 1.0 - (idx - 1.0) * phi
    else:
        ret = 1.0 + (n - idx) * phi
    return np.clip(ret, 0.0, 1.0)


def build_prompt_graph(
    pretrain_graph: InteractionGraph,
    snapshots: Sequence[np.ndarray],
    phi: float,
    rng: np.random.Generator,
) -> InteractionGraph:
    """Merge pre-training edges with retention-subsampled snapshot edges.

    Each snapshot keeps round(retention * |edges|) rows, drawn without
    replacement by position in the snapshot; the union (pre-training edges
    included, duplicates keeping the latest timestamp) is rebuilt into one
    graph.
    """
    parts = [pretrain_graph.edges()]
    ret = snapshot_retention(len(snapshots), phi)
    for frac, snap in zip(ret, snapshots):
        n_edges = len(snap)
        n_keep = int(round(frac * n_edges))
        if n_keep == 0:
            continue
        if n_keep >= n_edges:
            parts.append(snap)
            continue
        parts.append(snap[rng.choice(n_edges, size=n_keep, replace=False)])
    return build_graph(
        np.concatenate(parts), pretrain_graph.n_users, pretrain_graph.n_items
    )


@dataclass
class FinetuneResult:
    """Tuned gate, resulting snapshot embeddings, and the epoch log."""

    gate: GateParams
    embeddings: np.ndarray
    log: list[dict] = field(default_factory=list)
    optimizer_steps: int = 0


def finetune(
    graph: InteractionGraph,
    x_in: np.ndarray,
    cfg: TrainConfig,
    n_layers: int,
    tau: float,
    rng: np.random.Generator,
    *,
    no_temporal: bool = False,
) -> FinetuneResult:
    """Tune the gate on one snapshot graph; the incoming table is read-only.

    The gate starts at zero (a uniform 0.5 scaling), and only its d*d + d
    parameters receive Adam updates: the ranking loss is back-propagated
    through propagation to the gate output, converted into gate-parameter
    gradients there, and stopped. Runs exactly `cfg.max_epochs` epochs;
    negatives are drawn against this snapshot's edges only. A non-finite
    loss or gradient raises FloatingPointError.
    """
    weights = build_weights(graph, tau, no_temporal=no_temporal)
    d = x_in.shape[1]
    gate_w = np.zeros((d, d))
    gate_b = np.zeros(d)
    adam = Adam({"w": gate_w, "b": gate_b}, cfg.learning_rate)
    positives = np.stack([graph.edge_user, graph.edge_item], axis=1)
    log: list[dict] = []
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(positives.shape[0])
        total = 0.0
        for batch, start in enumerate(range(0, order.size, cfg.batch_size), 1):
            rows = positives[order[start : start + cfg.batch_size]]
            triples = sample_negatives(graph, rows, rng)
            gate = GateParams(w=gate_w, b=gate_b)
            x_g = apply_gate(x_in, gate)
            z = forward(weights, x_g, n_layers)
            loss, grad_z = bpr_grad_final(z, triples)
            upstream = forward_backward(weights, grad_z, n_layers)
            grad_w, grad_b = gate_gradients(x_in, gate, upstream)
            if cfg.l2_reg > 0.0:
                loss += cfg.l2_reg * float(np.sum(gate_w**2) + np.sum(gate_b**2))
                grad_w += 2.0 * cfg.l2_reg * gate_w
                grad_b += 2.0 * cfg.l2_reg * gate_b
            check_finite(loss, (grad_w, grad_b), epoch, batch)
            adam.step({"w": grad_w, "b": grad_b})
            total += loss
        log.append({"epoch": epoch, "loss": total / max(positives.shape[0], 1)})
    gate = GateParams(w=gate_w, b=gate_b)
    embeddings = forward(weights, apply_gate(x_in, gate), n_layers)
    return FinetuneResult(
        gate=gate, embeddings=embeddings, log=log, optimizer_steps=adam.step_count
    )
