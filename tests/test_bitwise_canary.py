"""Bitwise canaries: pre-training, gate tuning, evaluation and the dynamic run.

Tier-1 otherwise compares runs of the same code with each other, or with
oracles that round differently, so a change that moves the numeric path of
`pretrain`, `finetune`, `evaluate_users` or `run_dynamic` by one ulp would
pass it. Here the resulting tables, gate, epoch losses and metrics are hashed and
compared with digests recorded from an earlier version of each step. The
digests assume IEEE-754 doubles and the BLAS this suite runs on; a different
BLAS kernel may round its matrix products differently.
"""
from __future__ import annotations

import hashlib

import numpy as np

import dynrec.evaluation as evaluation
from dynrec.config import RunConfig
from dynrec.data import build_graph, segment_snapshots
from dynrec.dynamics import run_dynamic
from dynrec.evaluation import evaluate_users, pair_keys
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
        graph,
        pre.embeddings,
        RunConfig(
            learning_rate=5e-2, batch_size=16, finetune_epochs=3, l2_reg=1e-3,
            layers=2, tau_hours=TAU / 3600.0,
        ),
        seed_stream(0, "finetune", 0),
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


EXPECTED_EVALUATION = {
    "full.users": "5bee9da9611be64244af3c633ba1a6f11fb338d711e6c610d75de66487ea3699",
    "full.recalls": "44006ff5d76b13a45d944f83e2f14770c4c401abdc8ec9f2ff78431131adf927",
    "full.ndcgs": "72ad12e0573c59ad4e5eee8c0b550da10e83aafcf561c34d5d3d93340cb60222",
    "sampled.users": "5bee9da9611be64244af3c633ba1a6f11fb338d711e6c610d75de66487ea3699",
    "sampled.recalls": "3b71996271dd99da5f431405184885853ef3c1deb7bac2dd9cb37ac40d60c5a8",
    "sampled.ndcgs": "569ab4886d3ec6febabcbf597bc708b7cbb560471af786af7ac5edd811bc002d",
}


def _evaluation_case():
    """Embeddings, relevant keys, sorted seen keys and candidates of a seeded case.

    Small integer embeddings make exact score ties common. Item 7 scores NaN
    for every user. User 0 scores 0 on every item and has seen item 7, so its
    whole row ties; user 1 has seen all but 5 items, fewer than k.
    """
    rng = np.random.default_rng(0)
    n_users, n_items = 40, 30
    x = rng.integers(-2, 3, size=(n_users + n_items, 3)).astype(np.float64)
    x[0] = 0.0
    x[n_users + 7] = np.nan
    seen = rng.random((n_users, n_items)) < 0.3
    seen[0, 7] = True
    seen[1] = True
    seen[1, [2, 7, 11, 19, 23]] = False
    relevant = rng.random((n_users, n_items)) < 0.15
    relevant[1, [7, 19]] = True

    def keys(mask):
        user, item = np.nonzero(mask)
        edges = np.column_stack([user, n_users + item])
        return pair_keys(edges, n_users, n_items)

    candidates = np.sort(rng.choice(n_items, size=12, replace=False))
    return x, n_users, n_items, rng.permutation(keys(relevant)), keys(seen), candidates


def test_evaluate_users_outputs_match_recorded_digests(monkeypatch):
    x, n_users, n_items, relevant, seen, candidates = _evaluation_case()
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 3 * n_items * x.itemsize)  # three users a block
    got = {}
    for name, pool in (("full", None), ("sampled", candidates)):
        report = evaluate_users(x, n_users, relevant, seen, 8, pool)
        got[f"{name}.users"] = _digest(report.users)
        got[f"{name}.recalls"] = _digest(report.recalls)
        got[f"{name}.ndcgs"] = _digest(report.ndcgs)
    assert got == EXPECTED_EVALUATION


EXPECTED_DYNAMIC = {
    "records.recall": "b120c95ad6d870a5ef1eb09f1a41cf6446452ef7c1c1ad5a47df2241dcaef816",
    "records.ndcg": "047903793050d63983a41a2aa18646b75326b5cc77aea9528cedfba9fdeaed09",
    "last.embeddings": "32cde1698c331d25fffb91de8980c6a0053fb16c6753ee02d63f53f2b84f1357",
}


def test_run_dynamic_outputs_match_recorded_digests():
    """Seven cycles over six-hour snapshots, two of them empty.

    With phi = 0.3 the prompt graph keeps the oldest snapshot whole and the
    next three at 70%, 40% and 10%, and several snapshots repeat
    pre-training pairs, so the condensed-history graph both adds and
    refreshes edges. The last cycle's training snapshot is empty: its table
    is the prompt pass's output.
    """
    log = drift_series(
        n_blocks=4,
        users_per_block=4,
        items_per_block=4,
        pretrain_days=2,
        snapshot_days=2,
        stale_per_day=2,
        lead_per_day=1,
        seed=0,
    )
    series = segment_snapshots(log, 48 * 3600, 6 * 3600)
    sizes = [len(s) for s in series.snapshots]
    assert len(sizes) >= 5 and 0 in sizes[:-1]
    repeats = [
        np.isin(pair_keys(s, series.n_users, series.n_items), series.pretrain.keys).any()
        for s in series.snapshots
    ]
    assert any(repeats)
    cfg = RunConfig(
        d=8, layers=2, tau_hours=6.0, learning_rate=5e-3, batch_size=16, max_epochs=2,
        patience=2, finetune_epochs=2, pretrain_span_hours=48.0, granularity_hours=6.0,
        k=5, phi=0.3, val_fraction=0.0,
    )
    x_p = pretrain(
        series.pretrain, cfg.d, cfg.layers, cfg.tau_seconds, cfg.train_config(),
        no_temporal=cfg.no_temporal, init_std=cfg.init_std,
    ).embeddings
    result = run_dynamic(series, cfg, x_p)
    assert result.records[-1]["warning"] is not None
    got = {
        "records.recall": _digest([r["recall"] for r in result.records]),
        "records.ndcg": _digest([r["ndcg"] for r in result.records]),
        "last.embeddings": _digest(result.cycles[-1].embeddings),
    }
    assert got == EXPECTED_DYNAMIC
