"""Synthetic interaction logs with planted, recoverable structure.

Two families:

* `planted_blocks` — a static block-diagonal taste model. Users and items
  are split into aligned blocks and every user interacts only inside their
  block, so a trained model should rank unseen within-block items far above
  the cross-block baseline.

* `drift_series` — a rotating preference model for the dynamic protocol.
  Each day, user block b makes most of its interactions with item block
  (b + day) mod B early in the day and a few late-day interactions with
  block (b + day + 1) mod B, which becomes the bulk block tomorrow. The
  newest edges in every neighborhood therefore predict the next snapshot,
  so recency-aware edge weighting carries real signal while a model frozen
  at pre-training time decays as the rotation moves on.
"""

from __future__ import annotations

import numpy as np

from .rng import seed_stream

DAY_SECONDS = 86_400


def planted_blocks(
    n_users: int,
    n_items: int,
    n_blocks: int,
    per_user: int,
    seed: int,
    span_seconds: int = 5 * DAY_SECONDS,
) -> np.ndarray:
    """Static block-aligned log: each user samples items from their own block.

    `n_users` and `n_items` must divide evenly into `n_blocks`. Each user
    gets `per_user` distinct items (capped at the block size) at uniform
    random timestamps in [0, span_seconds). Returns an (E, 3) int64 array
    of (user, item, ts_unix) rows.
    """
    if n_users % n_blocks or n_items % n_blocks:
        raise ValueError("n_users and n_items must be divisible by n_blocks")
    users_per_block = n_users // n_blocks
    items_per_block = n_items // n_blocks
    take = min(per_user, items_per_block)
    rng = seed_stream(seed, "synthetic-blocks")
    log: list[tuple[int, int, int]] = []
    for user in range(n_users):
        block = user // users_per_block
        base = block * items_per_block
        items = rng.choice(items_per_block, size=take, replace=False)
        stamps = rng.integers(0, span_seconds, size=take)
        for item, ts in zip(items, stamps):
            log.append((user, base + int(item), int(ts)))
    return np.array(log, dtype=np.int64).reshape(-1, 3)


def drift_series(
    n_blocks: int = 8,
    users_per_block: int = 50,
    items_per_block: int = 25,
    pretrain_days: int = 6,
    snapshot_days: int = 6,
    stale_per_day: int = 3,
    lead_per_day: int = 1,
    seed: int = 0,
) -> np.ndarray:
    """Rotating-preference log where within-day recency carries the signal.

    Block affinities rotate one item block per day, through the pre-training
    days and at every snapshot boundary. Each day a user makes
    `stale_per_day` early-day interactions (first ~7 hours) with the block
    that is hot today and `lead_per_day` late-day interactions (last ~4
    hours) with the block that becomes hot tomorrow. Tomorrow's bulk is
    today's lead block, so a model that up-weights a neighborhood's most
    recent edges tracks the rotation, while uniform weighting stays pinned
    to the outgoing block by sheer edge count. Returns an (E, 3) int64
    array of (user, item, ts_unix) rows.
    """
    n_users = n_blocks * users_per_block
    rng = seed_stream(seed, "synthetic-drift")
    log: list[tuple[int, int, int]] = []
    for day in range(pretrain_days + snapshot_days):
        day_start = day * DAY_SECONDS
        for user in range(n_users):
            block = user // users_per_block
            for _ in range(stale_per_day):
                f = 0.30 * rng.random()
                base = ((block + day) % n_blocks) * items_per_block
                item = base + int(rng.integers(0, items_per_block))
                log.append((user, item, day_start + int(f * DAY_SECONDS)))
            for _ in range(lead_per_day):
                f = 0.85 + 0.15 * rng.random()
                base = ((block + day + 1) % n_blocks) * items_per_block
                item = base + int(rng.integers(0, items_per_block))
                log.append((user, item, day_start + int(f * DAY_SECONDS)))
    return np.array(log, dtype=np.int64).reshape(-1, 3)


def write_tsv(path: str, edges: np.ndarray) -> None:
    """Write an (E, 3) edge array in the `user<TAB>item<TAB>ts_unix` input format."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        for user, item, ts in edges.tolist():
            fh.write(f"{user}\t{item}\t{ts}\n")
