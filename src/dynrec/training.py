"""Pairwise-ranking pre-training of the embedding table.

The model is linear propagation over the interaction graph on top of a free
embedding table; the only learnable parameters here are the table rows. The
loss is the pairwise ranking objective

    L = sum_(u,i,j) log(1 + exp(-(x_u . x_i - x_u . x_j))) + l2 * ||rows||^2

over sampled (user, positive item, negative item) triples. Gradients are
derived by hand: the loss gradient w.r.t. final embeddings is scattered over
the triple rows, pulled back through the propagation stack by its adjoint,
and the L2 term contributes directly on the initial table. Updates use Adam.

Validation is a per-user holdout of training edges; training stops early
when held-out recall has not improved for `patience` consecutive epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .config import RunConfig
from .data import DataError, InteractionGraph, build_graph, pair_keys
from .evaluation import evaluate_users
from .propagation import PropagationWeights, build_weights, forward, forward_backward, one_blas_thread, spmm
from .rng import seed_stream


class Adam:
    """Adam over a dict of named arrays, updated in place.

    `step` consumes its gradients: it overwrites each one as scratch space
    (pass a copy to keep it). Its other scratch array per parameter is held
    from construction, so a step allocates nothing.
    """

    beta1 = 0.9
    beta2 = 0.999
    eps = 1e-8

    def __init__(self, params: dict[str, np.ndarray], learning_rate: float) -> None:
        self.params = params
        self.learning_rate = learning_rate
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}
        self._scratch = {k: np.empty_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for name, g in grads.items():
            m, v, scratch = self._m[name], self._v[name], self._scratch[name]
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
            np.multiply(g, 1.0 - self.beta1, out=scratch)
            m *= self.beta1
            m += scratch
            np.square(g, out=g)
            g *= 1.0 - self.beta2
            v *= self.beta2
            v += g
            np.divide(m, 1.0 - self.beta1**t, out=scratch)
            scratch *= self.learning_rate
            np.divide(v, 1.0 - self.beta2**t, out=g)
            np.sqrt(g, out=g)
            g += self.eps
            scratch /= g
            self.params[name] -= scratch


def sample_negatives(
    graph: InteractionGraph, positives: np.ndarray, rng: np.random.Generator
) -> np.ndarray:
    """Pair each (user, positive item) with a uniform unseen negative item.

    `positives` is an (n, 2) array of (user, global item id) rows. Returns an
    (n, 3) array (user, positive, negative), all global ids. Negatives are
    drawn uniformly from the items the user has no edge to in `graph`,
    by rejection; a user with an edge to every item makes that impossible
    and raises DataError.
    """
    if positives.size == 0:
        return np.empty((0, 3), dtype=np.int64)
    if int(graph.user_degrees().max(initial=0)) >= graph.n_items:
        full = np.flatnonzero(graph.user_degrees() >= graph.n_items)
        raise DataError(
            f"cannot sample negatives: user {full[0]} interacts with every item"
        )
    keys, n_users, n_items = graph.keys, graph.n_users, graph.n_items
    triples = np.empty((len(positives), 3), dtype=np.int64)
    triples[:, :2] = positives
    triples[:, 2] = n_users + rng.integers(0, n_items, size=len(triples), dtype=np.int64)
    pending = np.arange(len(triples)) if keys.size else np.empty(0, dtype=np.int64)
    while pending.size:
        q = pair_keys(triples[pending][:, ::2], n_users, n_items)  # (user, negative) rows
        pos = np.searchsorted(keys, q)
        seen = (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == q)
        clash = pending[seen]
        if clash.size == 0:
            break
        triples[clash, 2] = n_users + rng.integers(0, n_items, size=clash.size, dtype=np.int64)
        pending = clash
    return triples


def step_buffers(n_nodes: int, dim: int, batch_size: int) -> tuple[np.ndarray, ...]:
    """The arrays a training step writes into (see `bpr_gradients`)."""
    return np.empty((3, n_nodes, dim)), np.empty((n_nodes, dim)), np.empty((3 * batch_size, dim))


def bpr_gradients(
    weights: PropagationWeights, x0: np.ndarray, triples: np.ndarray, n_layers: int,
    l2_reg: float = 0.0, work: tuple[np.ndarray, ...] | None = None,
) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient w.r.t. the initial embedding table.

    Scatter the per-triple score gradients onto the final table: row r sums
    r's occurrences as a user, then a positive, then a negative, each in
    triple order, so it rounds as `np.add.at` over the three columns in turn.
    Pull that back with the adjoint pass, then add the L2 term on the
    initial table. `work` holds the (3, N, d) propagation arrays, the (N, d)
    scatter output and the (3 * batch, d) score gradients (`step_buffers`);
    with it, the returned gradient is its first array.
    """
    b = len(triples)
    prop, grad_z, vals = work or (None, np.empty(x0.shape), np.empty((3 * b, x0.shape[1])))
    z = forward(weights, x0, n_layers, out=prop)
    zu = z[triples[:, 0]]
    diff = z[triples[:, 1]] - z[triples[:, 2]]
    s = np.einsum("nd,nd->n", zu, diff)
    loss = float(np.sum(np.logaddexp(0.0, -s)))
    coef = expit(-s)[:, None]  # -dL/ds for each triple
    vals = vals[: 3 * b]
    np.multiply(-coef, diff, out=vals[:b])
    np.multiply(-coef, zu, out=vals[b : 2 * b])
    np.multiply(coef, zu, out=vals[2 * b :])
    cols = (np.ones(3 * b), triples.ravel(order="F"), np.arange(3 * b + 1))  # one entry each
    scatter = sp.csc_matrix(cols, shape=(x0.shape[0], 3 * b))  # a row sums in column order
    grad_x0 = forward_backward(weights, spmm(scatter, vals, grad_z), n_layers, out=prop)
    if l2_reg > 0.0:
        rows = triples.ravel()
        loss += l2_reg * float(np.sum(x0[rows] ** 2))
        # row r gets the same 2 * l2 * x0[r] once per occurrence: adding it in
        # rounds over the rows still due one rounds as `np.add.at` does. With
        # the rows by descending count, those due in round t are a prefix.
        nodes, counts = np.unique(rows, return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        nodes, counts = nodes[by_count], counts[by_count]
        add = 2.0 * l2_reg * x0[nodes]
        grad_rows = grad_x0[nodes]
        for due in np.searchsorted(-counts, -np.arange(1, counts.max(initial=0) + 1), side="right"):
            grad_rows[:due] += add[:due]
        grad_x0[nodes] = grad_rows
    return loss, grad_x0


def train_epochs(
    graph: InteractionGraph, epochs: int, batch_size: int, rng: np.random.Generator, adam: Adam,
    step: Callable[[np.ndarray], tuple[float, dict[str, np.ndarray]]],
) -> Iterator[tuple[int, float]]:
    """Run `epochs` epochs of Adam steps, yielding (epoch, mean loss per edge) after each.

    Each epoch shuffles `graph`'s edges into batches and pairs each edge with
    an unseen negative; `step(triples)` returns the batch loss and gradients,
    which `adam` applies. A non-finite loss or gradient raises FloatingPointError.
    """
    positives = np.stack([graph.edge_user, graph.edge_item], axis=1)
    for epoch in range(1, epochs + 1):
        order = rng.permutation(positives.shape[0])
        total = 0.0
        for batch, start in enumerate(range(0, order.size, batch_size), 1):
            triples = sample_negatives(graph, positives[order[start : start + batch_size]], rng)
            loss, grads = step(triples)
            if not (np.isfinite(loss) and all(np.isfinite(g).all() for g in grads.values())):
                at = f"epoch {epoch}, batch {batch}"
                raise FloatingPointError(f"training diverged: non-finite loss or gradient at {at}")
            adam.step(grads)
            total += loss
        yield epoch, total / max(positives.shape[0], 1)


def holdout_split(
    graph: InteractionGraph, val_fraction: float, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user split of edges into training and held-out validation edges.

    Users keep at least one training edge; single-edge users contribute
    nothing to validation. Returns the surviving training edges as an (E, 3)
    array in canonical order and the ascending `pair_keys` of the held-out
    edges.
    """
    keep = np.ones(graph.n_edges, dtype=bool)
    for user in range(graph.n_users):
        lo, hi = int(graph.ui_indptr[user]), int(graph.ui_indptr[user + 1])
        deg = hi - lo
        if deg < 2:
            continue
        n_val = min(deg - 1, max(1, int(deg * val_fraction)))
        held = lo + rng.choice(deg, size=n_val, replace=False)
        keep[held] = False
    return graph.edges()[keep], graph.keys[~keep]


@dataclass
class PretrainResult:
    """Best embedding table found during pre-training plus the epoch log."""

    embeddings: np.ndarray
    log: list[dict] = field(default_factory=list)
    best_epoch: int = 0
    best_recall: float = 0.0
    optimizer_steps: int = 0


@one_blas_thread()
def pretrain(
    graph: InteractionGraph,
    dim: int,
    n_layers: int,
    tau: float,
    cfg: RunConfig,
    *,
    no_temporal: bool = False,
    init_std: float = 0.1,
) -> PretrainResult:
    """Train the embedding table on `graph` with early stopping.

    Of the run config `cfg`, only the optimization fields (`learning_rate`
    to `val_fraction`), the ranking cutoff `k` and `seed` are read; the
    model's shape and edge weighting come from the other arguments. The
    table is Gaussian-initialized, optimized with Adam on the pairwise
    ranking loss over the training split, and snapshotted whenever held-out
    recall improves; the best snapshot is returned. Early stopping needs
    `patience` epochs without improvement after the first, so a `patience`
    of at least `max_epochs` never stops early. `max_epochs=0` returns the
    untouched initialization. With `val_fraction=0` there is no holdout
    and training runs all epochs on the full graph. A non-finite loss or
    gradient raises FloatingPointError (see `train_epochs`), and so does a
    table whose scores overflow: checked on each validation pass, or once
    on the final table when there is no validation.
    """
    n = graph.n_nodes
    x = seed_stream(cfg.seed, "init").normal(0.0, init_std, size=(n, dim))

    if cfg.max_epochs == 0:
        return PretrainResult(embeddings=x)

    if cfg.val_fraction > 0.0:
        train_edges, val_keys = holdout_split(
            graph, cfg.val_fraction, seed_stream(cfg.seed, "val-split")
        )
        train_graph = build_graph(train_edges, graph.n_users, graph.n_items)
    else:
        train_graph, val_keys = graph, np.empty(0, dtype=np.int64)
    weights = build_weights(train_graph, tau, no_temporal=no_temporal)

    rng = seed_stream(cfg.seed, "negatives")
    adam = Adam({"x": x}, cfg.learning_rate)
    work = step_buffers(n, dim, cfg.batch_size)

    def step(triples: np.ndarray) -> tuple[float, dict[str, np.ndarray]]:
        loss, grad = bpr_gradients(weights, x, triples, n_layers, cfg.l2_reg, work)
        return loss, {"x": grad}

    best = PretrainResult(embeddings=x)
    stale = 0
    epochs = train_epochs(train_graph, cfg.max_epochs, cfg.batch_size, rng, adam, step)
    for epoch, mean_loss in epochs:
        record = {"epoch": epoch, "loss": mean_loss, "val_recall": None}
        if val_keys.size:
            # a last step can leave a finite table whose scores overflow
            try:
                with np.errstate(over="raise"):
                    z = forward(weights, x, n_layers, out=work[0])
                    report = evaluate_users(
                        z, graph.n_users, val_keys, train_graph.keys, cfg.k
                    )
            except FloatingPointError as exc:
                raise FloatingPointError(
                    f"training diverged: validation scores overflow at epoch {epoch}"
                ) from exc
            record["val_recall"] = report.mean_recall()
            if record["val_recall"] > best.best_recall or best.best_epoch == 0:
                best.embeddings = x.copy()
                best.best_epoch = epoch
                best.best_recall = record["val_recall"]
                stale = 0
            else:
                stale += 1
        best.log.append(record)
        if val_keys.size and stale >= cfg.patience:
            break
    if not val_keys.size:
        # nothing has scored the last step's table: if no row's squared norm
        # overflows, no user-item score can either (Cauchy-Schwarz)
        try:
            with np.errstate(over="raise"):
                np.square(forward(weights, x, n_layers, out=work[0])).sum(axis=1)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"training diverged: scores overflow at epoch {epoch}"
            ) from exc
        best.embeddings, best.best_epoch = x, epoch
    best.optimizer_steps = adam.step_count
    return best

