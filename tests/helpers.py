"""Independent reference implementations used as test oracles.

Everything in this module is deliberately written with dense arrays and
explicit Python loops, sharing no code with the package, so agreement
between the two is meaningful evidence rather than a tautology.
"""
from __future__ import annotations

import math

import numpy as np


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
