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

import numpy as np
import scipy.sparse as sp
from scipy.special import expit

from .data import DataError, InteractionGraph, build_graph
from .evaluation import evaluate_users, pair_keys
from .propagation import PropagationWeights, build_weights, forward, forward_backward
from .rng import seed_stream


@dataclass(frozen=True)
class TrainConfig:
    """Optimizer and schedule settings for embedding training."""

    learning_rate: float = 1e-3
    batch_size: int = 1024
    max_epochs: int = 100
    patience: int = 10
    l2_reg: float = 1e-4
    val_fraction: float = 0.05
    eval_k: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        if self.max_epochs < 0:
            raise ValueError("max_epochs must be >= 0")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")
        if self.max_epochs > 0 and self.patience > self.max_epochs:
            raise ValueError("patience must not exceed max_epochs")
        if self.l2_reg < 0:
            raise ValueError("l2_reg must be >= 0")
        if not 0.0 <= self.val_fraction < 1.0:
            raise ValueError("val_fraction must lie in [0, 1)")
        if self.eval_k < 1:
            raise ValueError("eval_k must be >= 1")


class Adam:
    """Adam over a dict of named arrays, updated in place.

    `step` consumes its gradients: it overwrites each one as scratch space
    (pass a copy to keep it) and allocates one more array per parameter.
    """

    def __init__(
        self,
        params: dict[str, np.ndarray],
        learning_rate: float,
        beta1: float = 0.9,
        beta2: float = 0.999,
        eps: float = 1e-8,
    ) -> None:
        self.params = params
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.step_count = 0
        self._m = {k: np.zeros_like(v) for k, v in params.items()}
        self._v = {k: np.zeros_like(v) for k, v in params.items()}

    def step(self, grads: dict[str, np.ndarray]) -> None:
        self.step_count += 1
        t = self.step_count
        for name, g in grads.items():
            m = self._m[name]
            v = self._v[name]
            # p -= lr * (m / c1) / (sqrt(v / c2) + eps), evaluated in that order
            scratch = np.multiply(g, 1.0 - self.beta1)
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


def check_finite(loss: float, grads: tuple[np.ndarray, ...], epoch: int, batch: int) -> None:
    """Raise FloatingPointError, naming the epoch and batch, on a non-finite loss or gradient."""
    if not (np.isfinite(loss) and all(np.isfinite(g).all() for g in grads)):
        raise FloatingPointError(
            f"training diverged: non-finite loss or gradient at epoch {epoch}, batch {batch}"
        )


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


def bpr_grad_final(z: np.ndarray, triples: np.ndarray) -> tuple[float, np.ndarray]:
    """Pairwise ranking loss over final embeddings `z` and its gradient w.r.t. `z`.

    Each triple's score gradient is scattered onto its user, positive and
    negative rows; rows repeated across triples accumulate. The scatter is
    one sparse product whose row r sums r's occurrences as a user, then as a
    positive, then as a negative, each in triple order: `np.add.at`'s order
    over the three columns in turn, so its rounding too.
    """
    b = len(triples)
    u, i, j = triples[:, 0], triples[:, 1], triples[:, 2]
    zu = z[u]
    diff = z[i] - z[j]
    s = np.einsum("nd,nd->n", zu, diff)
    loss = float(np.sum(np.logaddexp(0.0, -s)))
    coef = expit(-s)[:, None]  # -dL/ds for each triple
    vals = np.empty((3 * b, z.shape[1]))
    np.multiply(-coef, diff, out=vals[:b])
    np.multiply(-coef, zu, out=vals[b : 2 * b])
    np.multiply(coef, zu, out=vals[2 * b :])
    scatter = sp.csr_matrix(
        (np.ones(3 * b), (triples.ravel(order="F"), np.arange(3 * b))),
        shape=(z.shape[0], 3 * b),
    )
    return loss, scatter @ vals


def bpr_gradients(
    weights: PropagationWeights,
    x0: np.ndarray,
    triples: np.ndarray,
    n_layers: int,
    l2_reg: float = 0.0,
) -> tuple[float, np.ndarray]:
    """Loss and its exact gradient w.r.t. the initial embedding table.

    The chain has three stages: scatter the per-triple score gradients onto
    the final table (rows repeated across triples accumulate), pull the
    result back through propagation with the adjoint pass, then add the L2
    contribution, which acts on the initial table directly.
    """
    loss, grad_z = bpr_grad_final(forward(weights, x0, n_layers), triples)
    grad_x0 = forward_backward(weights, grad_z, n_layers)
    if l2_reg > 0.0:
        rows = triples.ravel()
        loss += l2_reg * float(np.sum(x0[rows] ** 2))
        # row r gets the same 2 * l2 * x0[r] once per occurrence: adding it in
        # rounds over the rows still due one rounds as `np.add.at` does
        nodes, counts = np.unique(rows, return_counts=True)
        add = 2.0 * l2_reg * x0[nodes]
        for t in range(1, int(counts.max(initial=0)) + 1):
            due = counts >= t
            grad_x0[nodes[due]] += add[due]
    return loss, grad_x0


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


def pretrain(
    graph: InteractionGraph,
    dim: int,
    n_layers: int,
    tau: float,
    cfg: TrainConfig,
    *,
    no_temporal: bool = False,
    init_std: float = 0.1,
) -> PretrainResult:
    """Train the embedding table on `graph` with early stopping.

    The table is Gaussian-initialized, optimized with Adam on the pairwise
    ranking loss over the training split, and snapshotted whenever held-out
    recall improves; the best snapshot is returned. `max_epochs=0` returns
    the untouched initialization. With `val_fraction=0` there is no holdout
    and training runs all epochs on the full graph. A non-finite loss or
    gradient raises FloatingPointError (see `check_finite`), and so does a
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

    positives = np.stack([train_graph.edge_user, train_graph.edge_item], axis=1)
    rng = seed_stream(cfg.seed, "negatives")
    adam = Adam({"x": x}, cfg.learning_rate)

    best = PretrainResult(embeddings=x)
    stale = 0
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(positives.shape[0])
        total = 0.0
        for batch, start in enumerate(range(0, order.size, cfg.batch_size), 1):
            rows = positives[order[start : start + cfg.batch_size]]
            triples = sample_negatives(train_graph, rows, rng)
            loss, grad = bpr_gradients(weights, x, triples, n_layers, cfg.l2_reg)
            check_finite(loss, (grad,), epoch, batch)
            adam.step({"x": grad})
            total += loss
        mean_loss = total / max(positives.shape[0], 1)

        record = {"epoch": epoch, "loss": mean_loss, "val_recall": None}
        if val_keys.size:
            # a last step can leave a finite table whose scores overflow
            try:
                with np.errstate(over="raise"):
                    z = forward(weights, x, n_layers)
                    report = evaluate_users(
                        z, graph.n_users, val_keys, train_graph.keys, cfg.eval_k
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
                np.square(forward(weights, x, n_layers)).sum(axis=1)
        except FloatingPointError as exc:
            raise FloatingPointError(
                f"training diverged: scores overflow at epoch {epoch}"
            ) from exc
        best.embeddings, best.best_epoch = x, epoch
    best.optimizer_steps = adam.step_count
    return best

