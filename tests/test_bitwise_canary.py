"""Bitwise canary: pre-training and gate tuning on a fixed small log.

Tier-1 otherwise compares runs of the same code with each other, so a
change that moves the numeric path of `pretrain` or `finetune` by one ulp
would pass it. Here the resulting tables, gate and epoch losses are hashed
and compared with digests recorded from an earlier version of the training
step. The digests assume IEEE-754 doubles and the BLAS this suite runs on;
a different BLAS kernel may round its matrix products differently.
"""
from __future__ import annotations

import hashlib

import numpy as np

from dynrec.data import build_graph, segment_snapshots
from dynrec.prompt import finetune
from dynrec.rng import seed_stream
from dynrec.synthetic import drift_series
from dynrec.training import TrainConfig, pretrain

TAU = 6 * 3600.0

EXPECTED = {
    "pretrain.embeddings": "ea1cd84266603d1ce22eb4954e747b932672f0e067cb8612501a527b867402ad",
    "pretrain.losses": "410e85d9dbc38de4fad2c952f61362ed3e00ca2ab3ad7cf63f566dbb571357a6",
    "finetune.gate_w": "4681c8dea35042293e082d7a50c2f9ce545d19877110be28c4a674e3db360896",
    "finetune.gate_b": "70ee4e5377b6aaf7ac130365d3ff4849e14b6906297af6358fe9c688209f8bc5",
    "finetune.embeddings": "0fa290d2ca9d52090fbf6ca8055c7bdc283d585a2d4fd15c9e7dfbe0be278023",
    "finetune.losses": "81a43382f4dee2a7cc3e1e7e5c7d18c4b6fb24fb573d0caf4bfeed95f11f0718",
}


def _digest(values) -> str:
    return hashlib.sha256(np.ascontiguousarray(values, dtype=np.float64).tobytes()).hexdigest()


def test_pretrain_and_finetune_outputs_match_recorded_digests():
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
    series = segment_snapshots(log, 48 * 3600, 24 * 3600)
    # small batches repeat rows inside a batch; l2 > 0 drives the L2 scatter
    cfg = TrainConfig(
        learning_rate=5e-2, batch_size=16, max_epochs=3, patience=3,
        l2_reg=1e-3, val_fraction=0.0, seed=0,
    )
    pre = pretrain(series.pretrain, 8, 2, TAU, cfg)
    graph = build_graph(series.snapshots[0], series.n_users, series.n_items)
    tuned = finetune(
        graph, pre.embeddings, cfg, 2, TAU, seed_stream(0, "finetune", 0)
    )
    got = {
        "pretrain.embeddings": _digest(pre.embeddings),
        "pretrain.losses": _digest([r["loss"] for r in pre.log]),
        "finetune.gate_w": _digest(tuned.gate.w),
        "finetune.gate_b": _digest(tuned.gate.b),
        "finetune.embeddings": _digest(tuned.embeddings),
        "finetune.losses": _digest([r["loss"] for r in tuned.log]),
    }
    assert got == EXPECTED
