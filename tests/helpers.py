"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written with dense arrays and
explicit Python loops, sharing no code with the package, so agreement
between the two is meaningful evidence rather than a tautology. The one
exception is `split_by_user`, a data split rather than an oracle, which
draws from the package's seeded streams.
"""
from __future__ import annotations

import math

import numpy as np

from dynrec.rng import seed_stream


def rel_err(a, b) -> float:
    """Worst-case relative disagreement with a floor on the denominator."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    scale = max(1e-6, float(np.max(np.abs(a))), float(np.max(np.abs(b))))
    return float(np.max(np.abs(a - b))) / scale


def dense_normalized_times(edges: list[tuple[int, int, int]], tau: float) -> list[float]:
    """Per-edge min-max normalized relative timesteps, via explicit loops."""
    if not edges:
        return []
    min_ts = min(ts for _, _, ts in edges)
    steps = [math.floor((ts - min_ts) / tau) for _, _, ts in edges]
    lo, hi = min(steps), max(steps)
    if hi == lo:
        return [0.0 for _ in steps]
    return [(s - lo) / (hi - lo) for s in steps]


def dense_operator(
    edges: list[tuple[int, int, int]],
    n_users: int,
    n_items: int,
    tau: float,
    *,
    no_temporal: bool = False,
) -> np.ndarray:
    """Dense one-step propagation matrix (row = destination, col = source).

    `edges` are (user, global item id, ts) triples with distinct (user, item)
    pairs. Weight from src into dst is 1/(2*sqrt(deg_dst*deg_src)) plus half
    the destination neighborhood's softmax share of normalized edge time;
    with `no_temporal` it is the plain symmetric normalization.
    """
    n = n_users + n_items
    deg = [0] * n
    z_node = [0.0] * n
    tnorm = dense_normalized_times(edges, tau)
    for (u, gi, _), t in zip(edges, tnorm):
        deg[u] += 1
        deg[gi] += 1
        z_node[u] += math.exp(t)
        z_node[gi] += math.exp(t)
    mat = np.zeros((n, n))
    for k, (u, gi, _) in enumerate(edges):
        sym = 1.0 / math.sqrt(deg[u] * deg[gi])
        if no_temporal:
            mat[u, gi] = sym
            mat[gi, u] = sym
        else:
            mat[u, gi] = 0.5 * sym + 0.5 * math.exp(tnorm[k]) / z_node[u]
            mat[gi, u] = 0.5 * sym + 0.5 * math.exp(tnorm[k]) / z_node[gi]
    return mat


def dense_forward(
    mat: np.ndarray, x0: np.ndarray, n_layers: int, degrees: list[int]
) -> np.ndarray:
    """Mean of dense propagation layers 0..n_layers with isolated passthrough."""
    acc = x0.copy()
    cur = x0.copy()
    for _ in range(n_layers):
        cur = mat @ cur
        acc = acc + cur
    out = acc / float(n_layers + 1)
    if n_layers:
        for node, d in enumerate(degrees):
            if d == 0:
                out[node] = x0[node]
    return out


def brute_force_topk(
    x: np.ndarray,
    user: int,
    n_users: int,
    masked: set[int],
    k: int,
    candidates: list[int] | None = None,
) -> list[int]:
    """Top-k local item ids by score, ties to the smaller id, via sorting."""
    n_items = x.shape[0] - n_users
    pool = range(n_items) if candidates is None else candidates
    ids = [i for i in pool if i not in masked]
    scored = sorted(ids, key=lambda i: (-float(x[n_users + i] @ x[user]), i))
    return scored[:k]


def brute_force_recall(ranked: list[int], relevant: set[int]) -> float:
    return len([i for i in ranked if i in relevant]) / float(len(relevant))


def brute_force_ndcg(ranked: list[int], relevant: set[int], k: int) -> float:
    hits = [pos for pos, item in enumerate(ranked[:k], start=1) if item in relevant]
    dcg = float(np.sum(np.array([1.0 / np.log2(p + 1.0) for p in hits])))
    ideal = min(len(relevant), k)
    idcg = float(np.sum(np.array([1.0 / np.log2(p + 1.0) for p in range(1, ideal + 1)])))
    return dcg / idcg


def random_bipartite_edges(
    rng: np.random.Generator,
    n_users: int,
    n_items: int,
    n_edges: int,
    max_ts: int = 1_000_000,
) -> list[tuple[int, int, int]]:
    """Distinct (user, global item, ts) triples drawn uniformly."""
    n_edges = min(n_edges, n_users * n_items)
    flat = rng.choice(n_users * n_items, size=n_edges, replace=False)
    ts = rng.integers(0, max_ts, size=n_edges)
    return [
        (int(f // n_items), n_users + int(f % n_items), int(t))
        for f, t in zip(flat, ts)
    ]


def edge_array(edges: list[tuple[int, int, int]]) -> np.ndarray:
    """(user, item, ts) tuples as the package's (E, 3) int64 edge array."""
    return np.array(edges, dtype=np.int64).reshape(-1, 3)


def encode(vocab, edges: np.ndarray) -> np.ndarray:
    """Map raw ids into `vocab`'s global id space; every id must be in it."""
    user = np.searchsorted(vocab.users, edges[:, 0])
    item = np.searchsorted(vocab.items, edges[:, 1])
    if not (
        np.array_equal(vocab.users.take(user, mode="clip"), edges[:, 0])
        and np.array_equal(vocab.items.take(item, mode="clip"), edges[:, 1])
    ):
        raise ValueError("edge id outside the vocabulary")
    return np.stack([user, vocab.n_users + item, edges[:, 2]], axis=1)


def bpr_loss(
    x_final: np.ndarray,
    triples: np.ndarray,
    x0: np.ndarray | None = None,
    l2_reg: float = 0.0,
) -> float:
    """Pairwise ranking loss over (user, positive, negative) triples.

    Scores are dot products of final embeddings. With `l2_reg` > 0 the
    penalty applies to the initial-table rows of each triple, counted once
    per occurrence.
    """
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    s = np.einsum("nd,nd->n", x_final[u], x_final[i] - x_final[j])
    loss = float(np.sum(np.logaddexp(0.0, -s)))
    if l2_reg > 0.0:
        if x0 is None:
            raise ValueError("l2_reg > 0 requires the initial embedding table")
        rows = triples.ravel()
        loss += l2_reg * float(np.sum(x0[rows] ** 2))
    return loss


def adam_reference(param, grads, learning_rate, beta1=0.9, beta2=0.999, eps=1e-8):
    """Out-of-place Adam over a list of gradients; returns the final parameter."""
    param = param.copy()
    m = np.zeros_like(param)
    v = np.zeros_like(param)
    for t, g in enumerate(grads, start=1):
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        m_hat = m / (1.0 - beta1**t)
        v_hat = v / (1.0 - beta2**t)
        param -= learning_rate * m_hat / (np.sqrt(v_hat) + eps)
    return param


def split_by_user(
    edges: np.ndarray, test_fraction: float, seed: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user random holdout; users with a single edge stay train-only.

    Both halves list their rows by ascending user, in input order within a
    user.
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError("test_fraction must lie in (0, 1)")
    edges = edges[np.argsort(edges[:, 0], kind="stable")]
    _, starts, degrees = np.unique(edges[:, 0], return_index=True, return_counts=True)
    rng = seed_stream(seed, "synthetic-split")
    held = np.zeros(len(edges), dtype=bool)
    for lo, deg in zip(starts.tolist(), degrees.tolist()):
        if deg < 2:
            continue
        n_test = min(deg - 1, max(1, int(deg * test_fraction)))
        held[lo + rng.choice(deg, size=n_test, replace=False)] = True
    return edges[~held], edges[held]


def central_difference(fn, array: np.ndarray, h: float = 1e-5) -> np.ndarray:
    """Central finite-difference gradient of scalar `fn` w.r.t. `array` entries."""
    grad = np.zeros_like(array, dtype=np.float64)
    it = np.nditer(array, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = array[idx]
        array[idx] = orig + h
        hi = fn()
        array[idx] = orig - h
        lo = fn()
        array[idx] = orig
        grad[idx] = (hi - lo) / (2.0 * h)
        it.iternext()
    return grad
