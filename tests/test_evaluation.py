"""Top-K ranking, recall, normalized DCG and the blocked evaluation loop."""
from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import dynrec.evaluation as evaluation
from dynrec.evaluation import MetricsReport, evaluate_users, pair_keys, rank_items
from helpers import brute_force_ndcg, brute_force_recall, brute_force_topk

# frozen by hand: 1 / log2(3), the gain of a single relevant item at rank 2
NDCG_SINGLE_AT_RANK2 = 0.6309297535714574


def _scores_to_table(user_vec, item_scores):
    """Embed 1-d scores as a table where dot products reproduce them."""
    x = np.zeros((1 + len(item_scores), 2))
    x[0] = user_vec
    for idx, s in enumerate(item_scores):
        x[1 + idx] = [s, 0.0]
    return x


def _keys(items_by_user, n_users, n_items):
    """`pair_keys` of the (user, local item) pairs in a user -> items mapping."""
    rows = [(u, n_users + i, 0) for u, items in items_by_user.items() for i in items]
    return pair_keys(np.array(rows, dtype=np.int64).reshape(-1, 3), n_users, n_items)


NO_KEYS = np.empty(0, dtype=np.int64)
USER_0 = np.array([0])


def _user_metrics(item_scores, relevant, k):
    """(recall, nDCG) that `evaluate_users` gives one user with these item scores."""
    x = _scores_to_table([1.0, 0.0], item_scores)
    report = evaluate_users(x, 1, np.array(relevant, dtype=np.int64), NO_KEYS, k)
    assert report.users.tolist() == [0]
    return float(report.recalls[0]), float(report.ndcgs[0])


def _skips_user_with_nothing_relevant():
    x = _scores_to_table([1.0, 0.0], [3.0, 2.0])
    return evaluate_users(x, 1, NO_KEYS, NO_KEYS, 2).n_users == 0


def test_rank_items_orders_by_score_then_id():
    x = _scores_to_table([1.0, 0.0], [5.0, 9.0, 9.0, 1.0])
    ranked = rank_items(x, 1, USER_0, NO_KEYS, 4)
    # items 1 and 2 tie at 9; the smaller id wins
    assert ranked.tolist() == [[1, 2, 0, 3]]


def test_rank_items_applies_mask_and_k():
    x = _scores_to_table([1.0, 0.0], [5.0, 9.0, 7.0])
    ranked = rank_items(x, 1, USER_0, np.array([1]), 1)
    assert ranked.tolist() == [[2]]


def test_rank_items_candidate_restriction():
    x = _scores_to_table([1.0, 0.0], [5.0, 9.0, 7.0, 6.0])
    ranked = rank_items(x, 1, USER_0, NO_KEYS, 10, candidates=np.array([0, 3]))
    assert ranked.tolist() == [[3, 0, -1, -1]]


def test_rank_items_puts_nan_scores_last():
    x = _scores_to_table([1.0, 0.0], [np.nan, 2.0, 1.0, np.nan])
    ranked = rank_items(x, 1, USER_0, NO_KEYS, 3)
    # the finite scores first, then the NaN ones by id
    assert ranked.tolist() == [[1, 2, 0]]


def test_rank_items_everything_masked():
    x = _scores_to_table([1.0, 0.0], [5.0])
    assert rank_items(x, 1, USER_0, np.array([0]), 3).tolist() == [[-1]]


# item scores for the hand cases: ranks 1..10 are items 1, 2, 3, 4, 5, 6, 7, 8, 9, 0
SCORES = [0.0, 9.0, 8.0, 7.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0]


def test_recall_hand_values():
    # top 3 is (1, 2, 3): one of {2, 9} is in it
    assert _user_metrics(SCORES, [2, 9], 3)[0] == 0.5
    assert _user_metrics(SCORES, [1, 2], 2)[0] == 1.0
    assert _user_metrics(SCORES, [5], 1)[0] == 0.0
    assert _skips_user_with_nothing_relevant()


def test_ndcg_single_relevant_at_rank_two():
    assert _user_metrics(SCORES, [2], 20)[1] == pytest.approx(
        NDCG_SINGLE_AT_RANK2, abs=1e-15
    )


def test_ndcg_perfect_and_empty_cases():
    assert _user_metrics(SCORES, [1, 2], 2)[1] == 1.0
    assert _user_metrics(SCORES, [9], 2)[1] == 0.0
    assert _skips_user_with_nothing_relevant()


def test_ndcg_ideal_truncates_at_k():
    # three relevant items but k=1: a hit at rank 1 is already ideal
    assert _user_metrics(SCORES, [1, 2, 3], 1)[1] == 1.0


@given(st.integers(0, 500))
def test_metrics_match_brute_force(seed):
    rng = np.random.default_rng(seed)
    n_items = int(rng.integers(5, 25))
    k = int(rng.integers(1, 8))
    x = np.vstack([rng.normal(size=(1, 3)), rng.normal(size=(n_items, 3))])
    mask = rng.random(n_items) < 0.2
    relevant = rng.choice(n_items, size=int(rng.integers(1, 6)), replace=False)
    relevant = relevant[~mask[relevant]]
    if relevant.size == 0:
        return
    seen = np.flatnonzero(mask)  # user 0's keys are its local item ids
    ranked = rank_items(x, 1, USER_0, seen, k)[0]
    ranked = ranked[ranked >= 0]
    ref = brute_force_topk(x, 0, 1, set(seen.tolist()), k)
    assert ranked.tolist() == ref
    report = evaluate_users(x, 1, relevant, seen, k)
    assert report.users.tolist() == [0]
    assert report.recalls[0] == brute_force_recall(ref, set(relevant.tolist()))
    assert report.ndcgs[0] == brute_force_ndcg(ref, set(relevant.tolist()), k)


def test_metrics_report_aggregation_and_subset():
    report = MetricsReport(5, np.array([0, 3, 7]), np.array([1.0, 0.0, 0.5]), np.array([0.5, 0.0, 0.25]))
    assert report.n_users == 3
    assert report.mean_recall() == pytest.approx(0.5)
    assert report.mean_ndcg() == pytest.approx(0.25)
    sub = report.subset(np.array([True, False, True]))
    assert sub.users.tolist() == [0, 7] and sub.mean_recall() == 0.75
    empty = report.subset(np.zeros(3, dtype=bool))
    assert empty.n_users == 0 and empty.mean_recall() == 0.0 and empty.mean_ndcg() == 0.0


def test_evaluate_users_drops_masked_relevant_and_skips_empty():
    x = _scores_to_table([1.0, 0.0], [9.0, 5.0, 1.0])
    report = evaluate_users(x, 1, np.array([0, 1]), np.array([0]), k=2)
    # item 0 is masked away; only item 1 counts, ranked first among unmasked
    assert report.users.tolist() == [0]
    assert report.recalls.tolist() == [1.0]
    assert report.ndcgs.tolist() == [1.0]

    all_masked = evaluate_users(x, 1, np.array([0]), np.array([0]), 2)
    assert all_masked.n_users == 0


def test_evaluate_users_candidates_always_include_relevant():
    x = _scores_to_table([1.0, 0.0], [9.0, 5.0, 1.0, 0.5])
    report = evaluate_users(x, 1, np.array([3]), NO_KEYS, k=4, candidates=np.array([0]))
    # candidate pool {0} is widened with relevant {3}: recall can reach 1
    assert report.recalls.tolist() == [1.0]


@given(st.integers(0, 10_000), st.booleans(), st.booleans(), st.booleans())
def test_evaluate_users_matches_brute_force(seed, integer_scores, sampled, shuffled):
    rng = np.random.default_rng(seed)
    n_users, n_items = int(rng.integers(1, 12)), int(rng.integers(1, 16))
    if integer_scores:  # small integers make exact score ties common
        x = rng.integers(-2, 3, size=(n_users + n_items, 2)).astype(np.float64)
    else:
        x = rng.normal(size=(n_users + n_items, 3))
    seen = {u: set(np.flatnonzero(rng.random(n_items) < 0.3).tolist()) for u in range(n_users)}
    test_items = {
        u: np.sort(rng.choice(n_items, size=int(rng.integers(1, n_items + 1)), replace=False))
        for u in range(n_users)
        if rng.random() < 0.8
    }
    if test_items and rng.random() < 0.5:  # one user whose relevant items are all seen
        u = int(rng.choice(list(test_items)))
        seen[u] |= set(test_items[u].tolist())
    candidates = None
    if sampled:
        candidates = np.sort(rng.choice(n_items, size=int(rng.integers(1, n_items + 1)), replace=False))
    k = int(rng.integers(1, n_items + 4))  # often more than the rankable items
    seen_keys = np.sort(_keys(seen, n_users, n_items))
    relevant_keys = _keys(test_items, n_users, n_items)
    if shuffled:  # relevant keys may come in any order and with repeats
        relevant_keys = rng.permutation(np.concatenate([relevant_keys, relevant_keys[::2]]))
    with pytest.MonkeyPatch.context() as mp:  # one to three users per block
        mp.setattr(evaluation, "BLOCK_BYTES", 8 * n_items * int(rng.integers(1, 4)))
        report = evaluate_users(x, n_users, relevant_keys, seen_keys, k, candidates)

    expected = []
    for user in sorted(test_items):
        relevant = set(test_items[user].tolist()) - seen[user]
        if not relevant:
            continue
        pool = None if candidates is None else sorted(set(candidates.tolist()) | relevant)
        ref = brute_force_topk(x, user, n_users, seen[user], k, pool)
        expected.append(
            (user, brute_force_recall(ref, relevant), brute_force_ndcg(ref, relevant, k))
        )
    assert list(zip(report.users.tolist(), report.recalls.tolist(), report.ndcgs.tolist())) == expected


def test_evaluate_users_memory_is_bounded_by_the_block():
    rng = np.random.default_rng(0)
    n_users, n_items = 4000, 2000
    x = rng.normal(size=(n_users + n_items, 16))
    seen = np.unique(rng.integers(0, n_users * n_items, size=40_000))
    relevant = _keys({u: rng.choice(n_items, size=5, replace=False) for u in range(n_users)}, n_users, n_items)
    tracemalloc.start()
    try:
        report = evaluate_users(x, n_users, relevant, seen, 20)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.n_users == n_users
    # a full users x items score matrix alone would take 64 MB
    assert peak < 6 * 2**20
