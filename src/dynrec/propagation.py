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

The graph is bipartite, so each layer is two independent products: the
user rows, which read only item rows, and the item rows, which read only
user rows. Each output row is still summed by one kernel call in its usual
order. A large product into caller-owned arrays (the training step) runs
the item half on one persistent helper thread while the caller runs the
user half, when a second CPU is available; evaluation lends the same
helper every other ranking block (`claim_helper`). Results are bitwise the
same on any number of cores, and nothing selects this but the work's size.

The library's public calls (`pretrain`, `run_dynamic`, `run_frozen`,
`evaluate_users`) hold the OpenBLAS bundled with numpy at one thread for
their whole call (`one_blas_thread`) and restore its count after, so no
BLAS worker spins on the core the helper needs.
"""

from __future__ import annotations

import contextlib
import ctypes
import functools
import os
import threading
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


# nnz x d at or above which a training-step product shares its layers with
# the helper thread. Forward plus adjoint at 3 layers, d = 64, on a 2-vCPU
# VM: 2^18.9 ran 1.6x slower split, 2^19.9 1.6x faster, so the handoffs
# (two lock wake-ups a layer) cost more than the second core saves below it.
SPLIT_WORK = 1 << 20


@dataclass(frozen=True)
class PropagationWeights:
    """The sparse one-step propagation operator.

    `matrix` maps node values to node values: row = destination, column =
    source. `matrix_t`, its transpose for the adjoint pass, is a CSC view
    of the same arrays. `isolated` marks nodes with no edges; the forward
    pass keeps their layer-0 rows instead of averaging in zeros.
    `n_users`, if not 0, says that rows and columns [0, n_users) are users
    with entries only in item columns, and the rest items with entries only
    in user columns, so a product splits into the two sides' rows.
    """

    matrix: sp.csr_matrix  # (N, N) one propagation step
    isolated: np.ndarray  # (N,) bool
    n_users: int = 0

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
    return PropagationWeights(matrix=matrix, isolated=deg == 0, n_users=graph.n_users)


def spmm(m: sp.csr_matrix | sp.csc_matrix, x: np.ndarray, out: np.ndarray) -> np.ndarray:
    """`out += m @ x` into C-contiguous `out`, entry by entry in storage order like scipy's."""
    if not out.flags.c_contiguous:
        raise ValueError("spmm needs a C-contiguous output")
    kernel = getattr(_sparsetools, m.format + "_matvecs")
    kernel(*m.shape, x.shape[1], m.indptr, m.indices, m.data, x.ravel(), out.ravel())
    return out


class _Helper:
    """One daemon thread that runs one job at a time for the caller.

    The thread waits on `_go`, held until a job is handed over, and signals
    back on `_done`: two plain locks, so a handoff allocates no lock. It
    drops the job before it signals, so no caller array outlives a product.
    """

    def __init__(self) -> None:
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._job = self._error = None
        threading.Thread(target=self._serve, name="dynrec-propagation", daemon=True).start()

    def _serve(self) -> None:
        while True:
            self._go.acquire()
            try:
                self._job()
            except BaseException as exc:  # the caller re-raises it
                self._error = exc
            self._job = None
            self._done.release()

    def share(self, fn, mine: tuple, theirs: tuple) -> None:
        """Run `fn(*theirs)` on the helper while the caller runs `fn(*mine)`.

        The helper's half runs under the caller's `np.errstate`. An exception
        from either half reaches the caller.
        """
        errstate = np.errstate(call=np.geterrcall(), **np.geterr())
        self._job = functools.partial(errstate(fn), *theirs)
        self._go.release()
        try:
            fn(*mine)
        finally:
            self._done.acquire()
            error, self._error = self._error, None
        if error is not None:
            raise error


_helper: _Helper | None = None
_helper_claim = threading.Lock()  # held by the one caller using the helper


@contextlib.contextmanager
def claim_helper(wanted: bool):
    """The helper, for this caller alone, or None: then the caller runs every job itself.

    None unless `wanted`, the process may run on at least two CPUs and no
    other caller holds the helper; the claim never waits.
    """
    global _helper
    if not (wanted and len(os.sched_getaffinity(0)) >= 2 and _helper_claim.acquire(blocking=False)):
        yield None
        return
    try:
        _helper = _helper or _Helper()
        yield _helper
    finally:
        _helper_claim.release()


@functools.cache
def _openblas() -> tuple | None:
    """(set, get) of the thread count of the OpenBLAS bundled with numpy, or None."""
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")
    names = sorted(n for n in os.listdir(libs) if "openblas" in n) if os.path.isdir(libs) else []
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))  # already loaded; this only finds it
        setter = getattr(lib, "scipy_openblas_set_num_threads64_", None)
        getter = getattr(lib, "scipy_openblas_get_num_threads64_", None)
        if setter is not None and getter is not None:
            setter.argtypes, setter.restype = [ctypes.c_int], None
            getter.argtypes, getter.restype = [], ctypes.c_int
            return setter, getter
    return None


_holds = 0  # calls inside `one_blas_thread`, over all threads
_restore = None  # sets back the count the first of them found
_hold_lock = threading.Lock()


@contextlib.contextmanager
def one_blas_thread():
    """Hold the OpenBLAS bundled with numpy at one thread inside; restore its count after.

    Holds nest and overlap across threads: the first to enter saves the
    count and sets 1, the last to leave restores it, also on an exception.
    With another BLAS this does nothing. Used as a decorator, it holds for
    each call.
    """
    global _holds, _restore
    with _hold_lock:
        if _holds == 0:
            blas = _openblas()
            if blas is not None:
                set_threads, get_threads = blas
                _restore = functools.partial(set_threads, get_threads())
                set_threads(1)
        _holds += 1
    try:
        yield
    finally:
        with _hold_lock:
            _holds -= 1
            if _holds == 0 and _restore is not None:
                _restore()
                _restore = None


def _forget_helper() -> None:
    # a forked child has no helper thread, only the parent's locks; its
    # forking thread may be inside a hold, which it leaves as usual
    global _helper, _helper_claim, _hold_lock
    _helper, _helper_claim, _hold_lock = None, threading.Lock(), threading.Lock()


os.register_at_fork(after_in_child=_forget_helper)


def _parts(m: sp.csr_matrix | sp.csc_matrix, n_users: int) -> list[tuple]:
    """`m @ x` as one kernel call per output row range: users, then items.

    With `n_users` 0 the one range is all rows. In CSR a range's rows are
    the operator's own; in CSC they are written by the other side's
    columns. A part is (rows, kernel arguments but the width, the rows of x
    it reads, the rows of y its kernel indexes from).
    """
    n = m.shape[0]
    kernel = getattr(_sparsetools, m.format + "_matvecs")
    bounds = ((0, n_users), (n_users, n)) if 0 < n_users < n else ((0, n),)
    parts = []
    for (lo, hi), (c_lo, c_hi) in zip(bounds, bounds[::-1]):
        if m.format == "csr":
            shape, indptr, src, dst = (hi - lo, n), m.indptr[lo : hi + 1], slice(None), slice(lo, hi)
        else:
            shape, indptr, src, dst = (n, c_hi - c_lo), m.indptr[c_lo : c_hi + 1], slice(c_lo, c_hi), slice(None)
        parts.append((slice(lo, hi), kernel, *shape, indptr, m.indices, m.data, src, dst))
    return parts


def _layer(part: tuple, x0: np.ndarray, x: np.ndarray, y: np.ndarray, acc: np.ndarray,
           layer: int, n_layers: int) -> None:
    """One part's rows of layer `layer`: y = A x there, folded into the running mean `acc`."""
    rows, kernel, n_row, n_col, indptr, indices, data, src, dst = part
    y_rows, acc_rows = y[rows], acc[rows]
    y_rows.fill(0.0)
    kernel(n_row, n_col, x.shape[1], indptr, indices, data, x[src].ravel(), y[dst].ravel())
    if layer == 0:
        np.add(x0[rows], y_rows, out=acc_rows)
    else:
        acc_rows += y_rows
    if layer == n_layers - 1:
        acc_rows /= float(n_layers + 1)


def _propagate(
    matrix: sp.csr_matrix | sp.csc_matrix, n_users: int, isolated: np.ndarray, x0: np.ndarray,
    n_layers: int, out,
):
    """`forward` over `matrix`: the mean of layers 0..n_layers, isolated rows passed through.

    Only a product into caller-owned `out` uses the helper. One-off passes
    stay on one thread because splitting them, with BLAS held at one thread,
    was inconclusive: `run_dynamic` on `eval-heavy` (2-vCPU VM) read 0.407 s
    unsplit and 0.354 s split, with overlapping quartiles.
    """
    if n_layers < 0:
        raise ValueError("n_layers must be >= 0")
    acc, *layers = (np.empty(x0.shape), *np.empty((2, *x0.shape))) if out is None else out
    if not all(y.flags.c_contiguous for y in layers):
        raise ValueError("propagation needs C-contiguous layer arrays")
    parts = _parts(matrix, n_users)
    split = out is not None and len(parts) == 2 and matrix.nnz * x0.shape[1] >= SPLIT_WORK
    with claim_helper(split) as helper:
        if n_layers == 0:
            np.copyto(acc, x0)
        x = x0
        for layer in range(n_layers):
            y = layers[layer % 2]
            jobs = [(part, x0, x, y, acc, layer, n_layers) for part in parts]
            if helper is not None:
                helper.share(_layer, *jobs)
            else:
                for job in jobs:
                    _layer(*job)
            x = y
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
    return _propagate(weights.matrix, weights.n_users, weights.isolated, x0, n_layers, out)


def forward_backward(
    weights: PropagationWeights, grad_out: np.ndarray, n_layers: int, out=None
) -> np.ndarray:
    """Adjoint of `forward`: map a gradient w.r.t. the output back to x0.

    The forward map is x0 -> (sum_{l=0..L} A^l x0) / (L+1) with isolated rows
    passed through, so its adjoint is the same map over A^T, which never
    reads or writes an isolated row. `out` is as for `forward`.
    """
    return _propagate(weights.matrix_t, weights.n_users, weights.isolated, grad_out, n_layers, out)
