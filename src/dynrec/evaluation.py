"""Top-K ranking evaluation: recall and normalized DCG over held-out edges.

Scores are dot products between a user's final embedding and item rows.
Items the user already interacted with during training are masked out of the
candidate set. Ties in score break toward the smaller item id so rankings
are deterministic. Users with no unseen relevant items are excluded from the
averages rather than counted as zeros.

A set of (user, item) pairs, held out or seen, is one int64 array of keys
`user * n_items + local item`: `pair_keys` encodes them and `_cells` decodes
the ones a block of users owns. Per-user results are arrays over ascending
user ids.

Ranking is exact and blocked: one matrix product scores a block of users
against every item, seen cells become -inf, and each row's top K is a
partition at its K-th score plus one lexsort of the cells reaching it, so
ties at the cut still go to the smaller id. A block holds at most
`BLOCK_BYTES` of scores, so memory is bounded by a constant, not users x items.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

BLOCK_BYTES = 1 << 20  # budget of one score block, which bounds evaluation memory


def pair_keys(edges: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """Key `user * n_items + local item` of each (user, global item, ...) row."""
    return edges[:, 0] * np.int64(n_items) + (edges[:, 1] - n_users)


def _cells(keys: np.ndarray, users: np.ndarray, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, local item) of each key in sorted `keys` that belongs to `users`.

    Keys are those of `pair_keys`; `users` is ascending and nonempty, and
    row r stands for `users[r]`.
    """
    lo, hi = np.searchsorted(keys, [users[0] * n_items, (users[-1] + 1) * n_items])
    owner, item = np.divmod(keys[lo:hi], n_items)
    row = np.searchsorted(users, owner)
    ours = users[row] == owner
    return row[ours], item[ours]


def rank_items(
    x: np.ndarray,
    n_users: int,
    users: np.ndarray,
    seen: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
    relevant: np.ndarray | None = None,
) -> np.ndarray:
    """Top-`k` local item ids for each of `users`, best first, ties to smaller id.

    `x` holds final embeddings over the global id space (users then items);
    `users` are ascending and scored in one block. Items whose `pair_keys`
    key is in the sorted `seen` are not ranked;
    `candidates`, if given, restricts ranking to those items and to the keys
    in the sorted `relevant`. Returns a (len(users), min(k, n_items)) int64
    array, each row padded with -1 past its last rankable item.
    """
    n_items = x.shape[0] - n_users
    scores = x[users] @ x[n_users:].T
    # NaN scores rank after every finite one, where a full sort puts them
    scores[np.isnan(scores)] = np.finfo(scores.dtype).min
    if candidates is not None:
        keep = _cells(seen[:0] if relevant is None else relevant, users, n_items)
        kept = scores[keep]
        outside = np.ones(n_items, dtype=bool)
        outside[candidates] = False
        scores[:, outside] = -np.inf
        scores[keep] = kept
    scores[_cells(seen, users, n_items)] = -np.inf

    top_k = min(k, n_items)
    ranked = np.full((users.size, top_k), -1, dtype=np.int64)
    # cells above a row's k-th score are in its top k; cells equal to it
    # compete on id, so every cell reaching it goes through the exact sort
    kth = np.partition(scores, n_items - top_k, axis=1)[:, n_items - top_k]
    rows, cols = np.nonzero((scores >= kth[:, None]) & (scores > -np.inf))
    order = np.lexsort((cols, -scores[rows, cols], rows))
    rows, cols = rows[order], cols[order]
    rank = np.arange(rows.size) - np.searchsorted(rows, rows)
    top = rank < top_k
    ranked[rows[top], rank[top]] = cols[top]
    return ranked


def _ndcg(hit: np.ndarray, ideal_n: int) -> float:
    """nDCG of a ranked list whose hits are the nonzero entries of `hit`."""
    positions = np.flatnonzero(hit) + 1  # 1-based ranks of the hits
    dcg = float(np.sum(1.0 / np.log2(positions + 1.0)))
    idcg = float(np.sum(1.0 / np.log2(np.arange(1, ideal_n + 1) + 1.0)))
    return dcg / idcg


@dataclass
class MetricsReport:
    """Per-user metric table: ascending user ids with their recall and nDCG."""

    k: int
    users: np.ndarray
    recalls: np.ndarray
    ndcgs: np.ndarray

    @property
    def n_users(self) -> int:
        return self.users.size

    def mean_recall(self) -> float:
        return float(np.mean(self.recalls)) if self.recalls.size else 0.0

    def mean_ndcg(self) -> float:
        return float(np.mean(self.ndcgs)) if self.ndcgs.size else 0.0

    def subset(self, mask: np.ndarray) -> "MetricsReport":
        """The rows where the boolean `mask` over `users` is true."""
        return MetricsReport(self.k, self.users[mask], self.recalls[mask], self.ndcgs[mask])


def evaluate_users(
    x: np.ndarray,
    n_users: int,
    relevant: np.ndarray,
    seen: np.ndarray,
    k: int,
    candidates: np.ndarray | None = None,
) -> MetricsReport:
    """Rank and score every user with an unseen relevant item.

    `relevant` holds the keys of the held-out (user, item) pairs in any order,
    repeats allowed; `seen` the sorted keys to hide (repeats are harmless).
    Relevant pairs that are also seen are dropped; users left with nothing
    relevant are skipped entirely. Under sampled `candidates` each user's
    relevant items stay rankable. A user's recall is the share of their
    relevant items in their top `k`; their nDCG is binary-gain DCG over the
    top `k` divided by the ideal DCG of min(|relevant|, k) hits.
    """
    n_items = x.shape[0] - n_users
    relevant = np.unique(relevant)
    relevant = relevant[~np.isin(relevant, seen)]
    users, n_relevant = np.unique(relevant // n_items, return_counts=True)
    step = max(1, BLOCK_BYTES // (x.itemsize * max(n_items, 1)))
    recalls, ndcgs = [np.empty(0)], [np.empty(0)]
    for lo in range(0, users.size, step):
        block, n_rel = users[lo : lo + step], n_relevant[lo : lo + step]
        ranked = rank_items(x, n_users, block, seen, k, candidates, relevant)
        # one spare column that is never relevant absorbs the -1 padding
        is_relevant = np.zeros((block.size, n_items + 1), dtype=bool)
        is_relevant[_cells(relevant, block, n_items)] = True
        hit = is_relevant[np.arange(block.size)[:, None], ranked]
        recalls.append(hit.sum(axis=1) / n_rel)
        # nDCG depends only on the hit pattern and min(|relevant|, k): evaluate
        # the scalar formula once per distinct pair so every value matches it
        patterns, inverse = np.unique(
            np.column_stack([hit, np.minimum(n_rel, k)]), axis=0, return_inverse=True
        )
        ndcgs.append(np.array([_ndcg(p[:-1], p[-1]) for p in patterns])[inverse.reshape(-1)])
    return MetricsReport(k, users, np.concatenate(recalls), np.concatenate(ndcgs))
