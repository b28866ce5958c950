"""Top-K ranking evaluation: recall and normalized DCG over held-out edges.

Scores are dot products between a user's final embedding and item rows.
Items the user already interacted with during training are masked out of the
candidate set. Ties in score break toward the smaller item id so rankings
are deterministic. Users with no unseen relevant items are excluded from the
averages rather than counted as zeros.

A set of (user, item) pairs, held out or seen, is one int64 array of keys
`user * n_items + local item`: `data.pair_keys` encodes them and `_cells` decodes
the ones a block of users owns. Per-user results are arrays over ascending
user ids.

Ranking is exact and blocked: one matrix product scores a block of users
against every item and seen cells become -inf. Each row's K-th score comes
from a partition of the negated scores at K-1, so masked cells lie past the
cut, and its top K is one row-wise stable sort of the cells reaching that
score, padded to the widest row, so ties at the cut go to the smaller id. A
block's memory is a small multiple of `BLOCK_BYTES`, not users x items.
nDCG is summed once per distinct hit row, from one discount table per call.

With two or more blocks and a second CPU, the caller ranks the even blocks
and the propagation helper thread the odd ones, two blocks in flight at
once, and the hits join in block order. Block heights do not depend on
this, so neither do the bits. `evaluate_users` holds the bundled OpenBLAS
at one thread for its call (`propagation.one_blas_thread`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .propagation import claim_helper, one_blas_thread

BLOCK_BYTES = 1 << 20  # budget of one score block, which bounds evaluation memory


def _cells(keys: np.ndarray, users: np.ndarray, n_items: int) -> tuple[np.ndarray, np.ndarray]:
    """(row, local item) of each key in sorted `keys` that belongs to `users`.

    Keys are those of `data.pair_keys`; `users` is ascending and nonempty, and
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
    # cells above a row's k-th score are in its top k; cells equal to it
    # compete on id, so every cell reaching it, but no -inf one, is sorted;
    # the k-th score is cut from the negated block, where masked cells are
    # +inf past the cut (numpy's selection crawls when the cut is among
    # them), and each block-sized array is freed once used
    neg = np.negative(scores)
    neg.partition(top_k - 1, axis=1)
    kth = -neg[:, top_k - 1]
    del neg
    flat = np.flatnonzero(scores >= np.maximum(kth, np.finfo(scores.dtype).min)[:, None])
    cells = scores.ravel()[flat]
    del scores
    rows, cols = np.divmod(flat, n_items)
    del flat
    # each row's cells go left-aligned in item order, padded with +inf and
    # item -1, so a stable sort of -score keeps ties by id and padding last
    slot = np.arange(rows.size) - np.searchsorted(rows, rows)
    shape = (users.size, max(top_k, slot.max(initial=-1) + 1))
    neg, item = np.full(shape, np.inf), np.full(shape, -1, dtype=np.int64)
    neg[rows, slot], item[rows, slot] = np.negative(cells, out=cells), cols
    del rows, cols, slot, cells
    order = np.argsort(neg, axis=1, kind="stable")[:, :top_k]
    return np.take_along_axis(item, order, axis=1)


# the helper thread's blocks call this binding, so that whatever is bound
# over `rank_items` (a tracer, say) only ever runs on the calling thread
_rank = rank_items


@dataclass
class MetricsReport:
    """Per-user metric table: ascending user ids with their recall and nDCG."""

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
        return MetricsReport(self.users[mask], self.recalls[mask], self.ndcgs[mask])


@one_blas_thread()
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
    # a key is in the sorted `seen` where its two insertion points differ
    relevant = relevant[np.searchsorted(seen, relevant) == np.searchsorted(seen, relevant, "right")]
    owner = relevant // n_items  # ascending, so each user's keys form one run
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    users, n_relevant = owner[first], np.diff(first, append=owner.size)
    step = max(1, BLOCK_BYTES // (x.itemsize * max(n_items, 1)))
    blocks = [users[lo : lo + step] for lo in range(0, users.size, step)]
    n = len(blocks)
    hits = [None] * n

    def score(numbers: range, rank) -> None:
        for i in numbers:
            block = blocks[i]
            ranked = rank(x, n_users, block, seen, k, candidates, relevant)
            # one spare column that is never relevant absorbs the -1 padding
            is_relevant = np.zeros((block.size, n_items + 1), dtype=bool)
            is_relevant[_cells(relevant, block, n_items)] = True
            hits[i] = is_relevant[np.arange(block.size)[:, None], ranked]

    with claim_helper(n >= 2) as helper:
        if helper is None:
            score(range(n), rank_items)
        else:
            helper.share(score, (range(0, n, 2), rank_items), (range(1, n, 2), _rank))
    hit = np.concatenate([np.zeros((0, min(k, n_items)), dtype=bool), *hits])
    # DCG is summed once per distinct hit row, found through one bytes key
    # each, and IDCG of n hits is the sum of the first n discounts
    discount = 1.0 / np.log2(np.arange(1, hit.shape[1] + 1) + 1.0)
    key = np.packbits(hit, axis=1)
    _, first, inverse = np.unique(
        key.view(f"V{key.shape[1]}").ravel(), return_index=True, return_inverse=True
    )
    dcg = np.array([np.sum(discount[hit[i]]) for i in first])
    idcg = np.array([np.sum(discount[:n]) for n in range(hit.shape[1] + 1)])
    ndcgs = dcg[inverse] / idcg[np.minimum(n_relevant, k)]
    return MetricsReport(users, hit.sum(axis=1) / n_relevant, ndcgs)
