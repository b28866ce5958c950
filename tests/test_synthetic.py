"""Synthetic log generators: planted blocks, drifting preferences, user splits."""
from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np
import pytest

from dynrec.data import load_interactions
from dynrec.synthetic import (
    DAY_SECONDS,
    drift_series,
    planted_blocks,
    write_tsv,
)
from helpers import split_by_user


def test_planted_blocks_confines_users_to_their_block():
    log = planted_blocks(n_users=20, n_items=40, n_blocks=4, per_user=5, seed=0)
    assert log.shape == (100, 3) and log.dtype == np.int64
    for user, item, ts in log.tolist():
        block = user // 5
        assert block * 10 <= item < (block + 1) * 10
        assert 0 <= ts < 5 * DAY_SECONDS
    # per-user items are distinct
    for user in range(20):
        items = log[log[:, 0] == user, 1].tolist()
        assert len(items) == len(set(items)) == 5


def test_planted_blocks_caps_per_user_at_block_size():
    log = planted_blocks(n_users=4, n_items=8, n_blocks=4, per_user=10, seed=1)
    assert len(log) == 4 * 2  # only 2 items per block exist


def test_planted_blocks_requires_divisible_counts():
    with pytest.raises(ValueError):
        planted_blocks(n_users=10, n_items=9, n_blocks=4, per_user=2, seed=0)


def test_planted_blocks_is_seeded():
    a = planted_blocks(20, 40, 4, 5, seed=2)
    b = planted_blocks(20, 40, 4, 5, seed=2)
    c = planted_blocks(20, 40, 4, 5, seed=3)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_split_by_user_is_leakage_free_and_sized():
    log = planted_blocks(20, 40, 4, 5, seed=0)
    train, test = split_by_user(log, 0.4, seed=0)
    assert sorted(train.tolist() + test.tolist()) == sorted(log.tolist())
    for user in range(20):
        held = test[test[:, 0] == user]
        kept = train[train[:, 0] == user]
        assert len(kept) >= 1
        assert len(held) == min(4, max(1, int(5 * 0.4)))


def test_split_by_user_rejects_degenerate_fraction():
    with pytest.raises(ValueError):
        split_by_user(np.empty((0, 3), dtype=np.int64), 0.0, seed=0)


def test_drift_series_bimodal_day_structure():
    log = drift_series(
        n_blocks=4,
        users_per_block=3,
        items_per_block=5,
        pretrain_days=1,
        snapshot_days=2,
        stale_per_day=2,
        lead_per_day=1,
        seed=0,
    )
    n_users = 12
    assert log.shape == (n_users * 3 * 3, 3)  # users * days * edges-per-day
    for user, item, ts in log.tolist():
        day = ts // DAY_SECONDS
        frac = (ts - day * DAY_SECONDS) / DAY_SECONDS
        block = user // 3
        item_block = item // 5
        if frac < 0.30:
            assert item_block == (block + day) % 4  # early edges: today's block
        else:
            assert frac >= 0.85
            assert item_block == (block + day + 1) % 4  # late edges: tomorrow's


def test_drift_series_is_seeded():
    a = drift_series(n_blocks=2, users_per_block=2, items_per_block=3, pretrain_days=1, snapshot_days=1, seed=5)
    b = drift_series(n_blocks=2, users_per_block=2, items_per_block=3, pretrain_days=1, snapshot_days=1, seed=5)
    c = drift_series(n_blocks=2, users_per_block=2, items_per_block=3, pretrain_days=1, snapshot_days=1, seed=6)
    assert np.array_equal(a, b) and not np.array_equal(a, c)


def test_write_tsv_round_trips(tmp_path):
    log = planted_blocks(8, 8, 2, 2, seed=0)
    path = tmp_path / "log.tsv"
    write_tsv(str(path), log)
    loaded, vocab = load_interactions(str(path))
    assert np.array_equal(loaded, log)
    assert vocab.n_users == 8


def _make_synthetic():
    path = Path(__file__).resolve().parents[1] / "scripts" / "make_synthetic.py"
    spec = importlib.util.spec_from_file_location("make_synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize(
    ("argv", "expected"),
    [
        (
            ["blocks", "--users", "12", "--items", "8", "--blocks", "4", "--per-user", "2",
             "--seed", "3"],
            lambda: planted_blocks(n_users=12, n_items=8, n_blocks=4, per_user=2, seed=3),
        ),
        (
            ["drift", "--blocks", "2", "--users-per-block", "3", "--items-per-block", "4",
             "--pretrain-days", "1", "--snapshot-days", "2", "--stale-per-day", "2",
             "--lead-per-day", "1", "--seed", "4"],
            lambda: drift_series(
                n_blocks=2, users_per_block=3, items_per_block=4, pretrain_days=1,
                snapshot_days=2, stale_per_day=2, lead_per_day=1, seed=4,
            ),
        ),
    ],
    ids=["blocks", "drift"],
)
def test_make_synthetic_script_writes_the_generators_log(tmp_path, capsys, argv, expected):
    out = tmp_path / "log.tsv"
    assert _make_synthetic().main([*argv, "--out", str(out)]) == 0
    log = expected()
    assert capsys.readouterr().out == f"wrote {len(log)} interactions to {out}\n"
    loaded, _ = load_interactions(str(out))
    assert loaded.dtype == log.dtype and np.array_equal(loaded, log)
