"""Log ingestion, snapshot segmentation and sparse graph construction.

Input data is a log of (user, item, unix-timestamp) triples. Users and items
are remapped onto one global id space (users first, then items) so a single
embedding table serves both. The log is split into a pre-training graph plus
a sequence of fixed-width time-slot snapshots, and each edge set can be built
into an immutable user-grouped CSR graph that keeps each edge's raw
timestamp. Turning timestamps into edge weights is `propagation`'s job.

Every edge set outside a graph, from ingest to evaluation, is an (E, 3)
int64 array of (user, item, ts_unix) rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import IO, Iterable, Iterator

import numpy as np

from .evaluation import pair_keys

_INT64_MAX = np.iinfo(np.int64).max


class DataError(ValueError):
    """An input file (interaction log or checkpoint) is malformed or inconsistent."""


@dataclass(frozen=True)
class Vocabulary:
    """Global id remap: users occupy [0, n_users), items [n_users, n_users + n_items).

    `users` and `items` hold the sorted unique raw ids; a raw id's position
    in its array is its local index.
    """

    users: np.ndarray
    items: np.ndarray

    @classmethod
    def from_edges(cls, edges: np.ndarray) -> "Vocabulary":
        return cls(users=np.unique(edges[:, 0]), items=np.unique(edges[:, 1]))

    @property
    def n_users(self) -> int:
        return int(self.users.size)

    @property
    def n_items(self) -> int:
        return int(self.items.size)

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    def encode(self, edges: np.ndarray) -> np.ndarray:
        """Map raw ids into the global id space; every id must be in the vocabulary."""
        user = np.searchsorted(self.users, edges[:, 0])
        item = np.searchsorted(self.items, edges[:, 1])
        if not (
            np.array_equal(self.users.take(user, mode="clip"), edges[:, 0])
            and np.array_equal(self.items.take(item, mode="clip"), edges[:, 1])
        ):
            raise ValueError("edge id outside the vocabulary")
        return np.stack([user, self.n_users + item, edges[:, 2]], axis=1)


def _iter_lines(source: IO[bytes] | IO[str] | Iterable[str]) -> Iterator[str]:
    for raw in source:
        yield raw.decode("utf-8") if isinstance(raw, bytes) else raw


def ingest_interactions(
    source: IO[bytes] | IO[str] | Iterable[str],
) -> tuple[np.ndarray, Vocabulary]:
    """Parse `user<TAB>item<TAB>ts_unix` lines and build the global id remap.

    Returns the edges as an (E, 3) int64 array of (user, item, ts_unix) rows
    in input order with their original ids, plus the vocabulary mapping raw
    ids onto the global id space. Blank lines are skipped; anything else
    that does not parse as three integers in [0, 2**63) raises DataError
    naming the 1-based line number. Empty input yields a (0, 3) array, not
    an error.
    """
    rows: list[tuple[int, int, int]] = []
    for lineno, line in enumerate(_iter_lines(source), start=1):
        stripped = line.rstrip("\n").rstrip("\r")
        if not stripped.strip():
            continue
        fields = stripped.split("\t")
        if len(fields) != 3:
            raise DataError(
                f"malformed interaction at line {lineno}: expected 3 tab-separated "
                f"fields, got {len(fields)}"
            )
        try:
            user, item, ts = (int(f) for f in fields)
        except ValueError:
            raise DataError(
                f"malformed interaction at line {lineno}: non-integer field in "
                f"{stripped!r}"
            ) from None
        if not (
            0 <= user <= _INT64_MAX
            and 0 <= item <= _INT64_MAX
            and 0 <= ts <= _INT64_MAX
        ):
            raise DataError(
                f"malformed interaction at line {lineno}: value outside [0, 2**63)"
            )
        rows.append((user, item, ts))
    edges = np.array(rows, dtype=np.int64).reshape(-1, 3)
    return edges, Vocabulary.from_edges(edges)


def load_interactions(path: str) -> tuple[np.ndarray, Vocabulary]:
    with open(path, "rb") as fh:
        return ingest_interactions(fh)


@dataclass(frozen=True)
class InteractionGraph:
    """Immutable sparse user-item graph with per-edge timestamps.

    Edges are stored once, in canonical order (sorted by user then item), with
    a CSR row pointer grouping them by user. `edge_item` holds global ids
    (already offset by `n_users`).
    """

    n_users: int
    n_items: int
    edge_user: np.ndarray  # (E,) destination-side user id per canonical edge
    edge_item: np.ndarray  # (E,) global item id per canonical edge
    edge_ts: np.ndarray  # (E,) unix timestamp
    ui_indptr: np.ndarray  # (n_users+1,) canonical edges grouped by user

    @property
    def n_nodes(self) -> int:
        return self.n_users + self.n_items

    @property
    def n_edges(self) -> int:
        return int(self.edge_user.shape[0])

    @property
    def edge_item_local(self) -> np.ndarray:
        return self.edge_item - self.n_users

    def user_degrees(self) -> np.ndarray:
        return np.diff(self.ui_indptr)

    def item_degrees(self) -> np.ndarray:
        return np.bincount(self.edge_item_local, minlength=self.n_items)

    def node_degrees(self) -> np.ndarray:
        return np.concatenate([self.user_degrees(), self.item_degrees()])

    @cached_property
    def keys(self) -> np.ndarray:
        """The canonical edges' `pair_keys`, ascending; computed once."""
        return pair_keys(self.edges(), self.n_users, self.n_items)

    def edges(self) -> np.ndarray:
        """The canonical edges as an (E, 3) array of (user, item, ts) rows."""
        return np.stack([self.edge_user, self.edge_item, self.edge_ts], axis=1)


def build_graph(edges: np.ndarray, n_users: int, n_items: int) -> InteractionGraph:
    """Build the CSR graph for an (E, 3) edge array in global id space.

    Duplicate (user, item) pairs collapse into one edge keeping the latest
    timestamp. An empty edge array yields a valid graph with zero edges.
    """
    user, item, ts = edges.T
    if user.size:
        if user.min() < 0 or user.max() >= n_users:
            raise ValueError("user id outside [0, n_users)")
        if item.min() < n_users or item.max() >= n_users + n_items:
            raise ValueError("item id outside [n_users, n_users + n_items)")
        # sort by (user, item, ts); the last row of each (user, item) group
        # carries the latest timestamp
        order = np.lexsort((ts, item, user))
        user, item, ts = user[order], item[order], ts[order]
        keep = np.ones(user.size, dtype=bool)
        same = (user[1:] == user[:-1]) & (item[1:] == item[:-1])
        keep[:-1][same] = False
        user, item, ts = user[keep], item[keep], ts[keep]

    ui_counts = np.bincount(user, minlength=n_users) if user.size else np.zeros(n_users, dtype=np.int64)
    ui_indptr = np.concatenate([[0], np.cumsum(ui_counts)]).astype(np.int64)
    return InteractionGraph(
        n_users=n_users,
        n_items=n_items,
        edge_user=user,
        edge_item=item,
        edge_ts=ts,
        ui_indptr=ui_indptr,
    )


@dataclass(frozen=True)
class SnapshotSeries:
    """Pre-training graph plus ordered time-slot snapshots, in global id space.

    Snapshot n (1-based) holds the edges with timestamp in
    [boundaries[n-1] - granularity, boundaries[n-1]); the pre-training graph
    holds everything before `pretrain_end`. A trailing partial slot is kept.
    """

    vocab: Vocabulary
    pretrain: InteractionGraph
    snapshots: tuple[np.ndarray, ...]  # (E_n, 3) edge arrays, input order
    pretrain_end: int
    boundaries: tuple[int, ...]

    @property
    def n_users(self) -> int:
        return self.vocab.n_users

    @property
    def n_items(self) -> int:
        return self.vocab.n_items

    @property
    def n_snapshots(self) -> int:
        return len(self.snapshots)

    def manifest(self) -> dict:
        """Segmentation summary written next to run outputs for reproducibility."""
        return {
            "n_users": self.n_users,
            "n_items": self.n_items,
            "pretrain_end": int(self.pretrain_end),
            "pretrain_edges": self.pretrain.n_edges,
            "boundaries": [int(b) for b in self.boundaries],
            "edge_counts": [len(s) for s in self.snapshots],
        }


def segment_snapshots(
    edges: np.ndarray, pretrain_span: int, granularity: int
) -> SnapshotSeries:
    """Split a raw (E, 3) edge array into a pre-training graph and fixed-width snapshots.

    The vocabulary is built over the full log up front, so nodes that only
    appear in later snapshots still get embedding rows from the start. Edges
    with ts < min_ts + pretrain_span form the pre-training graph; the rest
    fall into consecutive buckets of width `granularity` (empty middle
    buckets are kept as empty snapshots). Each snapshot keeps its edges in
    input order, not timestamp order.
    """
    if len(edges) == 0:
        raise DataError("no interactions to segment")
    if pretrain_span <= 0 or granularity <= 0:
        raise ValueError("pretrain_span and granularity must be positive")
    vocab = Vocabulary.from_edges(edges)
    encoded = vocab.encode(edges)
    pretrain_end = int(encoded[:, 2].min()) + int(pretrain_span)

    in_pretrain = encoded[:, 2] < pretrain_end
    rest = encoded[~in_pretrain]
    if len(rest) == 0:
        raise DataError("no snapshots remain: pre-training span consumes all data")

    bucket = (rest[:, 2] - pretrain_end) // granularity
    n_buckets = int(bucket.max()) + 1
    # a stable sort on the bucket index alone keeps input order inside a bucket
    rest = rest[np.argsort(bucket, kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(np.bincount(bucket, minlength=n_buckets))])
    boundaries = tuple(
        pretrain_end + (k + 1) * int(granularity) for k in range(n_buckets)
    )
    return SnapshotSeries(
        vocab=vocab,
        pretrain=build_graph(encoded[in_pretrain], vocab.n_users, vocab.n_items),
        snapshots=tuple(rest[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])),
        pretrain_end=pretrain_end,
        boundaries=boundaries,
    )
