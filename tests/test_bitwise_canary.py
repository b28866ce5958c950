"""Bitwise canaries: pre-training, gate tuning, evaluation, the dynamic run and the CLI's run trees.

Tier-1 otherwise compares runs of the same code with each other, or with
oracles that round differently, so a change that moves the numeric path of
`pretrain`, `finetune`, `evaluate_users` or `run_dynamic` by one ulp would
pass it. Here the resulting tables, gate, epoch losses and metrics are hashed and
compared with digests recorded from an earlier version of each step. The
run-tree canary hashes every file the commands write, so it also pins the
bytes of every writer: JSON layout, CSV floats and checkpoint sidecars. The
digests assume IEEE-754 doubles and the BLAS this suite runs on; a different
BLAS kernel may round its matrix products differently.
"""
from __future__ import annotations

import hashlib
import os
import subprocess
import sys

import numpy as np

import dynrec.evaluation as evaluation
import dynrec.propagation as propagation
from dynrec.artifacts import sha256_file
from dynrec.cli import main
from dynrec.config import RunConfig
from dynrec.data import build_graph, pair_keys, segment_snapshots
from dynrec.dynamics import run_dynamic
from dynrec.evaluation import evaluate_users
from dynrec.prompt import finetune
from dynrec.rng import seed_stream
from dynrec.synthetic import drift_series, write_tsv
from dynrec.training import pretrain

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
    cfg = RunConfig(
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
    tables = []
    result = run_dynamic(series, cfg, x_p, on_cycle=lambda n, cycle: tables.append(cycle.embeddings))
    assert result.records[-1]["warning"] is not None
    got = {
        "records.recall": _digest([r["recall"] for r in result.records]),
        "records.ndcg": _digest([r["ndcg"] for r in result.records]),
        "last.embeddings": _digest(tables[-1]),
    }
    assert got == EXPECTED_DYNAMIC


EXPECTED_RUN_TREES = {
    "dynamic-pre/checkpoints/snapshot_001/checkpoint.json": "6d31328bf1e7458367d70cc90c78f5d759981e29a29e5aee99463a5f3dd08006",
    "dynamic-pre/checkpoints/snapshot_001/embeddings.npy": "afc9e4b4008e9af6f49a1dd89a8b59e083d56e894f6dc8d32b5c7bd91ddd9c48",
    "dynamic-pre/checkpoints/snapshot_001/gate_b.npy": "e3a706ad94b1c83c06b2aba33ce3f760f88e55338e48e36129de7c0102a190d1",
    "dynamic-pre/checkpoints/snapshot_001/gate_w.npy": "73ddb47409a6cb082af6fad658bd671980877ec201ad2d78253c4e0c6d0a962c",
    "dynamic-pre/checkpoints/snapshot_002/checkpoint.json": "29eb89148d03c8164714b2c9c4b4f45071819892574f733f3361eff24fd389fd",
    "dynamic-pre/checkpoints/snapshot_002/embeddings.npy": "9ee77a630d717317383f86f043aefba0a7f80abe3d6800538ac14e7fb55096e5",
    "dynamic-pre/checkpoints/snapshot_002/gate_b.npy": "898b72ad4fdb29cf85983ed4217b3c798ae1f216ee42f6616ba61c6a1eb285f6",
    "dynamic-pre/checkpoints/snapshot_002/gate_w.npy": "09ff0792bba71c15453e632d1e3ca77cdf2e855a6d85c0ecec2ff3d362cec0ea",
    "dynamic-pre/manifest.json": "8b7deb295cf49b251f7a3747d5b9eb0b78d3c4d5baecd1bbd8814c343dd45dce",
    "dynamic-pre/metrics.json": "5bf924341a93caf0450223976b771a80171c15635999494b1c85a7cf403e4cb9",
    "dynamic-pre/per_user/cycle_001.csv": "77d383a6cac7b309734a3a959b555f1499db10cebf6c689185a2523f13ece66f",
    "dynamic-pre/per_user/cycle_002.csv": "06f12fd2f769b33d292bf4b8a908285effe355cc29cd1e367ed3f49252079877",
    "dynamic-pre/segments.json": "d4898ac9d0191e5b383055ffcbf469de48e7c59d805093b1815ac5c337783f18",
    "dynamic-pre/summary.csv": "ecf416a4ffddf4efb7cbd7371d90f99f797aaba6113257e93476a1be7b56acb7",
    "dynamic/checkpoints/pretrain/checkpoint.json": "678ace234d95da165df3732c6913a1310f2bae57fc329e30539d3b9f3c57fdd8",
    "dynamic/checkpoints/pretrain/embeddings.npy": "0d3f60ec9a304711472eddcfbe14cb8ac7263ca6820bba003b9a39c340f65784",
    "dynamic/checkpoints/snapshot_001/checkpoint.json": "6d31328bf1e7458367d70cc90c78f5d759981e29a29e5aee99463a5f3dd08006",
    "dynamic/checkpoints/snapshot_001/embeddings.npy": "afc9e4b4008e9af6f49a1dd89a8b59e083d56e894f6dc8d32b5c7bd91ddd9c48",
    "dynamic/checkpoints/snapshot_001/gate_b.npy": "e3a706ad94b1c83c06b2aba33ce3f760f88e55338e48e36129de7c0102a190d1",
    "dynamic/checkpoints/snapshot_001/gate_w.npy": "73ddb47409a6cb082af6fad658bd671980877ec201ad2d78253c4e0c6d0a962c",
    "dynamic/checkpoints/snapshot_002/checkpoint.json": "29eb89148d03c8164714b2c9c4b4f45071819892574f733f3361eff24fd389fd",
    "dynamic/checkpoints/snapshot_002/embeddings.npy": "9ee77a630d717317383f86f043aefba0a7f80abe3d6800538ac14e7fb55096e5",
    "dynamic/checkpoints/snapshot_002/gate_b.npy": "898b72ad4fdb29cf85983ed4217b3c798ae1f216ee42f6616ba61c6a1eb285f6",
    "dynamic/checkpoints/snapshot_002/gate_w.npy": "09ff0792bba71c15453e632d1e3ca77cdf2e855a6d85c0ecec2ff3d362cec0ea",
    "dynamic/manifest.json": "b152dd7487969d779ee6f398343a0e7062212476892326ee5f27a38e78ba6238",
    "dynamic/metrics.json": "5bf924341a93caf0450223976b771a80171c15635999494b1c85a7cf403e4cb9",
    "dynamic/per_user/cycle_001.csv": "77d383a6cac7b309734a3a959b555f1499db10cebf6c689185a2523f13ece66f",
    "dynamic/per_user/cycle_002.csv": "06f12fd2f769b33d292bf4b8a908285effe355cc29cd1e367ed3f49252079877",
    "dynamic/pretrain_log.json": "3ee73f7628a09a5d3f7659b4bea6d845115a05c69d37b73c80c5f52cc936edd5",
    "dynamic/segments.json": "d4898ac9d0191e5b383055ffcbf469de48e7c59d805093b1815ac5c337783f18",
    "dynamic/summary.csv": "ecf416a4ffddf4efb7cbd7371d90f99f797aaba6113257e93476a1be7b56acb7",
    "evaluate/manifest.json": "138b24afdd2e24170ceb30c68087f9db170932ca27ca7e7b9d4b8e2d9b63423e",
    "evaluate/metrics.json": "0562569b0ddd64ffea6d993a2fc9d0b415f7452e61dfbefe2a0abc1145f08c11",
    "evaluate/per_user/cycle_001.csv": "75328ea6555a6c60d61939d4bebe4e8d8b05b20e3c2a7f5e6972363623c17304",
    "evaluate/per_user/cycle_002.csv": "23dba8d9d589e4813c2236a05fb9aa615d2246b451973be3f385cb5069a2c3ac",
    "evaluate/segments.json": "d4898ac9d0191e5b383055ffcbf469de48e7c59d805093b1815ac5c337783f18",
    "evaluate/summary.csv": "fe8a79ee3c798aab70ff1a278091a7d2b8913ba83bf7144ca87bc725c3115aa6",
    "finetune-pre/checkpoints/snapshot_001/checkpoint.json": "b453f69030778030d0041499ec4859e8a97b0c3b305ffeb0ca58d57f42c8a7ff",
    "finetune-pre/checkpoints/snapshot_001/embeddings.npy": "afc9e4b4008e9af6f49a1dd89a8b59e083d56e894f6dc8d32b5c7bd91ddd9c48",
    "finetune-pre/checkpoints/snapshot_001/gate_b.npy": "e3a706ad94b1c83c06b2aba33ce3f760f88e55338e48e36129de7c0102a190d1",
    "finetune-pre/checkpoints/snapshot_001/gate_w.npy": "73ddb47409a6cb082af6fad658bd671980877ec201ad2d78253c4e0c6d0a962c",
    "finetune-pre/manifest.json": "75aa5e924f5295e8affc245c5b689bd8a318dbe9e8b9e521986d27fc9d92c353",
    "finetune-pre/metrics.json": "6cc79354294d61b2c021dd12bdb23c3a54b5879f4e070ce6eef8b104c22842b0",
    "finetune-pre/per_user/cycle_001.csv": "77d383a6cac7b309734a3a959b555f1499db10cebf6c689185a2523f13ece66f",
    "finetune-pre/segments.json": "38ee377c0837daf73472d6b5dae5ff199b72002340d7d2fcfd76289dba12d137",
    "finetune-pre/summary.csv": "4e5f3386d0b3937a19a1ba911cd286ee8e9c3ddd0f27b230f8844bd002715df3",
    "finetune/checkpoints/pretrain/checkpoint.json": "678ace234d95da165df3732c6913a1310f2bae57fc329e30539d3b9f3c57fdd8",
    "finetune/checkpoints/pretrain/embeddings.npy": "0d3f60ec9a304711472eddcfbe14cb8ac7263ca6820bba003b9a39c340f65784",
    "finetune/checkpoints/snapshot_001/checkpoint.json": "b453f69030778030d0041499ec4859e8a97b0c3b305ffeb0ca58d57f42c8a7ff",
    "finetune/checkpoints/snapshot_001/embeddings.npy": "afc9e4b4008e9af6f49a1dd89a8b59e083d56e894f6dc8d32b5c7bd91ddd9c48",
    "finetune/checkpoints/snapshot_001/gate_b.npy": "e3a706ad94b1c83c06b2aba33ce3f760f88e55338e48e36129de7c0102a190d1",
    "finetune/checkpoints/snapshot_001/gate_w.npy": "73ddb47409a6cb082af6fad658bd671980877ec201ad2d78253c4e0c6d0a962c",
    "finetune/manifest.json": "a08bd8145cb7ca3b54b2aad22b5403f953b2fae3fb5d9eb04dd9c71d2fb0f5d1",
    "finetune/metrics.json": "6cc79354294d61b2c021dd12bdb23c3a54b5879f4e070ce6eef8b104c22842b0",
    "finetune/per_user/cycle_001.csv": "77d383a6cac7b309734a3a959b555f1499db10cebf6c689185a2523f13ece66f",
    "finetune/pretrain_log.json": "3ee73f7628a09a5d3f7659b4bea6d845115a05c69d37b73c80c5f52cc936edd5",
    "finetune/segments.json": "38ee377c0837daf73472d6b5dae5ff199b72002340d7d2fcfd76289dba12d137",
    "finetune/summary.csv": "4e5f3386d0b3937a19a1ba911cd286ee8e9c3ddd0f27b230f8844bd002715df3",
    "pretrain/checkpoints/pretrain/checkpoint.json": "678ace234d95da165df3732c6913a1310f2bae57fc329e30539d3b9f3c57fdd8",
    "pretrain/checkpoints/pretrain/embeddings.npy": "0d3f60ec9a304711472eddcfbe14cb8ac7263ca6820bba003b9a39c340f65784",
    "pretrain/manifest.json": "e52ce007f3e902c1abb8ccb0557c9d7abccbb1c32ca6a0ca94a589e18527225e",
    "pretrain/pretrain_log.json": "3ee73f7628a09a5d3f7659b4bea6d845115a05c69d37b73c80c5f52cc936edd5",
    "pretrain/segments.json": "d4898ac9d0191e5b383055ffcbf469de48e7c59d805093b1815ac5c337783f18",
}


def _tree_digests(root: str) -> dict[str, str]:
    """SHA-256 of every file under `root`, keyed by its relative path with '/' separators."""
    got = {}
    for dirpath, _, names in os.walk(root):
        for name in names:
            path = os.path.join(dirpath, name)
            got[os.path.relpath(path).replace(os.sep, "/")] = sha256_file(path)
    return got


def _run_trees(tmp_path, monkeypatch) -> dict[str, str]:
    # from a fixed working directory with relative paths, because
    # `manifest.json` records the paths of its inputs
    monkeypatch.chdir(tmp_path)
    log = drift_series(
        n_blocks=3,
        users_per_block=3,
        items_per_block=3,
        pretrain_days=2,
        snapshot_days=3,
        stale_per_day=2,
        lead_per_day=1,
        seed=0,
    )
    write_tsv("log.tsv", log)
    settings = [
        "--quiet", "--set", "d=4", "--set", "layers=2", "--set", "tau_hours=6",
        "--set", "learning_rate=0.005", "--set", "batch_size=16", "--set", "max_epochs=2",
        "--set", "patience=2", "--set", "finetune_epochs=2", "--set", "pretrain_span_hours=48",
        "--set", "granularity_hours=24", "--set", "k=3",
    ]
    commands = [
        ["pretrain", "--out", "pretrain"],
        ["run-dynamic", "--out", "dynamic"],
        ["run-dynamic", "--out", "dynamic-pre", "--pretrained", "pretrain"],
        ["finetune", "--out", "finetune", "--snapshot", "1"],
        ["finetune", "--out", "finetune-pre", "--snapshot", "1", "--pretrained", "pretrain"],
        ["evaluate", "--out", "evaluate", "--pretrained", "pretrain"],
    ]
    got = {}
    for command in commands:
        assert main([*command, "--data", "log.tsv", *settings]) == 0, command
        got.update(_tree_digests(command[2]))
    return got


def test_cli_run_trees_match_recorded_digests(tmp_path, monkeypatch):
    """Every file that each command writes, byte for byte."""
    assert _run_trees(tmp_path, monkeypatch) == EXPECTED_RUN_TREES


def test_cli_run_trees_match_recorded_digests_with_every_layer_split(tmp_path, monkeypatch):
    """The same bytes when every training step shares its layers with the helper thread.

    The tier-1 graphs are all below the size at which the split starts, so
    this forces it, on any number of CPUs.
    """
    monkeypatch.setattr(propagation, "SPLIT_WORK", 0)
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0, 1})
    assert _run_trees(tmp_path, monkeypatch) == EXPECTED_RUN_TREES
    assert propagation._helper is not None


def test_split_run_trees_match_recorded_digests_on_one_and_on_two_blas_threads(tmp_path):
    """The forced-split run trees in fresh processes whose OpenBLAS starts at 1 and at 2 threads.

    The library holds OpenBLAS at one thread inside its public calls but not
    outside them, so the count a process starts with must not move a bit.
    """
    test = f"{__file__}::test_cli_run_trees_match_recorded_digests_with_every_layer_split"
    children = {
        n: subprocess.Popen(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "--basetemp", str(tmp_path / str(n)), test],
            env={**os.environ, "OPENBLAS_NUM_THREADS": str(n)},
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
        )
        for n in (1, 2)
    }
    try:
        for n, child in children.items():
            out, _ = child.communicate(timeout=120)
            assert child.returncode == 0, f"OPENBLAS_NUM_THREADS={n}:\n{out}"
    finally:
        for child in children.values():
            child.kill()
            child.wait()
