"""Time-aware linear propagation over the user-item graph.

Each undirected user-item edge gets one weight per direction:

    w(src -> dst) = 1 / (2 * sqrt(deg_dst * deg_src)) + alpha(dst, src) / 2

where alpha is a softmax over the destination's neighborhood of the edge
timesteps floor((ts - earliest ts) / tau), min-max normalized into [0, 1],
so a node's most recent interactions carry the largest share of its
incoming mass. With temporal weighting disabled the weight falls back to
the plain symmetric-normalized 1 / sqrt(deg_dst * deg_src).

`build_weights` assembles these weights into one sparse CSR operator;
`temporal_softmax` computes the alpha shares. Propagation is linear:
`forward` applies the operator once per layer and averages layers 0..L.
Because the map from initial embeddings to final ones is linear, its
adjoint `forward_backward` (needed for gradient computation) is the same
routine run with the transposed operator, read as CSC from the CSR's own
arrays, so no transpose is ever built.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse import _sparsetools

from .data import InteractionGraph


def relative_timesteps(graph: InteractionGraph, tau: float) -> np.ndarray:
    """Per-edge relative timestep: floor((ts - min ts over edges) / tau)."""
    if tau <= 0:
        raise ValueError("tau must be positive")
    if graph.n_edges == 0:
        return np.empty(0, dtype=np.int64)
    offset = graph.edge_ts - graph.edge_ts.min()
    return np.floor(offset / float(tau)).astype(np.int64)


def normalize_times(steps: np.ndarray) -> np.ndarray:
    """Min-max normalize timesteps into [0, 1]; all-equal steps map to 0."""
    if steps.size == 0:
        raise ValueError("no timesteps to normalize")
    lo, hi = steps.min(), steps.max()
    if hi == lo:
        return np.zeros(steps.shape, dtype=np.float64)
    return (steps - lo) / float(hi - lo)


def temporal_softmax(graph: InteractionGraph, tau: float) -> tuple[np.ndarray, np.ndarray]:
    """Per-neighborhood softmax of normalized edge timesteps, for both directions.

    Returns (alpha_ui, alpha_iu), both aligned with the canonical edge order:
    alpha_ui[e] is edge e's share within its user's neighborhood, alpha_iu[e]
    its share within its item's neighborhood. Each neighborhood's shares sum
    to 1; nodes of degree 0 contribute nothing.
    """
    steps = relative_timesteps(graph, tau)
    ex = np.exp(normalize_times(steps)) if steps.size else np.empty(0)
    # user side: canonical order is already grouped by user
    denom_u = np.bincount(graph.edge_user, weights=ex, minlength=graph.n_users)
    alpha_ui = ex / denom_u[graph.edge_user]
    # item side: the same sums, keyed by local item id
    denom_i = np.bincount(graph.edge_item_local, weights=ex, minlength=graph.n_items)
    alpha_iu = ex / denom_i[graph.edge_item_local]
    return alpha_ui, alpha_iu


@dataclass(frozen=True)
class PropagationWeights:
    """The sparse one-step propagation operator.

    `matrix` maps node values to node values: row = destination, column =
    source. `matrix_t`, its transpose for the adjoint pass, is a CSC view
    of the same arrays. `isolated` marks nodes with no edges; the forward
    pass keeps their layer-0 rows instead of averaging in zeros.
    """

    matrix: sp.csr_matrix  # (N, N) one propagation step
    isolated: np.ndarray  # (N,) bool

    @property
    def matrix_t(self) -> sp.csc_matrix:
        return self.matrix.T


def build_weights(
    graph: InteractionGraph, tau: float, *, no_temporal: bool = False
) -> PropagationWeights:
    """Assemble the directed edge weights into the sparse one-step operator.

    `tau` is the timestep interval in seconds; `no_temporal` drops the
    recency share and keeps only the symmetric normalization.
    """
    deg = graph.node_degrees().astype(np.float64)
    deg_u = deg[graph.edge_user]
    deg_i = deg[graph.edge_item]
    with np.errstate(divide="ignore", invalid="ignore"):
        sym = 1.0 / np.sqrt(deg_u * deg_i)
    if no_temporal:
        w_into_user = w_into_item = sym
    else:
        alpha_ui, alpha_iu = temporal_softmax(graph, tau)
        w_into_user = 0.5 * sym + 0.5 * alpha_ui
        w_into_item = 0.5 * sym + 0.5 * alpha_iu

    n = graph.n_nodes
    rows = np.concatenate([graph.edge_user, graph.edge_item])
    cols = np.concatenate([graph.edge_item, graph.edge_user])
    vals = np.concatenate([w_into_user, w_into_item])
    matrix = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return PropagationWeights(matrix=matrix, isolated=deg == 0)


def spmm(m: sp.csr_matrix | sp.csc_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`m @ x` into C-contiguous `out`: the kernel scipy's product runs, on a zeroed output."""
    if not out.flags.c_contiguous:
        raise ValueError("spmm needs a C-contiguous output")
    out.fill(0.0)
    kernel = getattr(_sparsetools, m.format + "_matvecs")
    kernel(*m.shape, x.shape[1], m.indptr, m.indices, m.data, x.ravel(), out.ravel())
    return out


def _propagate(
    matrix: sp.csr_matrix | sp.csc_matrix, isolated: np.ndarray, x0: np.ndarray, n_layers: int, out
):
    """`forward` over `matrix`: the mean of layers 0..n_layers, isolated rows passed through."""
    if n_layers < 0:
        raise ValueError("n_layers must be >= 0")
    acc, *layers = (np.empty(x0.shape), *np.empty((2, *x0.shape))) if out is None else out
    np.copyto(acc, x0)
    x = x0
    for layer in range(n_layers):
        x = spmm(matrix, x, layers[layer % 2])
        acc += x
    acc /= float(n_layers + 1)
    if n_layers and isolated.any():
        acc[isolated] = x0[isolated]
    return acc


def forward(weights: PropagationWeights, x0: np.ndarray, n_layers: int, out=None) -> np.ndarray:
    """Mean of propagation layers 0..n_layers from initial embeddings `x0`.

    Isolated nodes (degree 0) keep their layer-0 rows unchanged rather than
    being averaged toward zero. `n_layers=0` returns a copy of `x0`. `out`,
    if given, is three (N, d) arrays other than `x0`: the mean goes to the
    first, which is returned, and the layers to the others.
    """
    return _propagate(weights.matrix, weights.isolated, x0, n_layers, out)


def forward_backward(
    weights: PropagationWeights, grad_out: np.ndarray, n_layers: int, out=None
) -> np.ndarray:
    """Adjoint of `forward`: map a gradient w.r.t. the output back to x0.

    The forward map is x0 -> (sum_{l=0..L} A^l x0) / (L+1) with isolated rows
    passed through, so its adjoint is the same map over A^T, which never
    reads or writes an isolated row. `out` is as for `forward`.
    """
    return _propagate(weights.matrix_t, weights.isolated, grad_out, n_layers, out)
