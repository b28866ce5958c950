"""Log ingestion, snapshot segmentation and sparse graph construction.

Input data is a log of (user, item, unix-timestamp) triples. A plain log is
parsed by one np.loadtxt call; a line loop, which alone defines what is
accepted, reads any other log and names its first bad line. Users and items
are remapped onto one global id space (users first, then items), one sort
per id column, so a single embedding table serves both. The log is split
into a pre-training graph plus a sequence of fixed-width time-slot
snapshots, and each edge set can be built into an immutable user-grouped
CSR graph that keeps each edge's raw timestamp, ordered by sorted (user,
item) keys into which new edges merge without sorting the graph again.
`pair_keys` is that key format, which seen-item masks and evaluation also
use. Turning timestamps into edge weights is `propagation`'s job.

Every edge set outside a graph, from ingest to evaluation, is an (E, 3)
int64 array of (user, item, ts_unix) rows.
"""

from __future__ import annotations

import io
from dataclasses import dataclass
from typing import IO, Iterable

import numpy as np

_INT64_MAX = np.iinfo(np.int64).max

# More consecutive empty snapshots than this means a granularity far too fine
# for the log or an outlying timestamp; each one costs a cycle and adapts nothing.
MAX_EMPTY_SNAPSHOTS = 100


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


# An array np.loadtxt reads from a log of these bytes is the line loop's if it
# has 3 columns and no negative value. Other bytes can differ: loadtxt strips
# 0x1c-0x1f and, decoding latin-1, 0x85 and 0xa0 around a number; int does not.
_PLAIN_BYTES = b"0123456789+- \t\r\n"


def _parse_lines(lines: IO[bytes] | IO[str] | Iterable[bytes] | Iterable[str]) -> np.ndarray:
    """The line loop, which defines an accepted log (see `ingest_interactions`)."""
    rows: list[tuple[int, int, int]] = []
    for lineno, raw in enumerate(lines, start=1):
        # a byte that is not UTF-8 becomes a lone surrogate, which no field accepts
        line = raw.decode("utf-8", "surrogateescape") if isinstance(raw, bytes) else raw
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
    return np.array(rows, dtype=np.int64).reshape(-1, 3)


def ingest_interactions(
    source: IO[bytes] | IO[str] | Iterable[bytes] | Iterable[str],
) -> tuple[np.ndarray, Vocabulary]:
    """Parse `user<TAB>item<TAB>ts_unix` lines and build the global id remap.

    Returns the edges as an (E, 3) int64 array of (user, item, ts_unix) rows
    in input order with their original ids, plus the vocabulary mapping raw
    ids onto the global id space. The line loop decides what is accepted:
    bytes decode as UTF-8, blank lines are skipped, and any other line, less
    its LF and the CRs before it, that is not three tab-separated int fields
    in [0, 2**63) raises DataError naming its 1-based line number. Empty
    input yields a (0, 3) array. A seekable binary handle of `_PLAIN_BYTES`
    is first parsed by one np.loadtxt call, kept if it yields 3 columns and
    no negative value.
    """
    edges = None
    if isinstance(source, io.BufferedIOBase) and source.seekable():
        start, plain, blank = source.tell(), True, True
        for block in iter(lambda: source.read(1 << 20), b""):
            plain = plain and not block.translate(None, _PLAIN_BYTES)
            blank = blank and not block.strip()
        source.seek(start)
        if plain and not blank:  # loadtxt warns of no data in a blank log
            try:
                edges = np.loadtxt(source, dtype=np.int64, delimiter="\t", comments=None, ndmin=2)
            except ValueError:
                pass
            source.seek(start)
    if edges is None or edges.shape[1] != 3 or (edges < 0).any():
        edges = _parse_lines(source)
    return edges, Vocabulary.from_edges(edges)


def load_interactions(path: str) -> tuple[np.ndarray, Vocabulary]:
    with open(path, "rb") as fh:
        return ingest_interactions(fh)


def pair_keys(edges: np.ndarray, n_users: int, n_items: int) -> np.ndarray:
    """Key `user * n_items + local item` of each (user, global item, ...) row."""
    return edges[:, 0] * np.int64(n_items) + (edges[:, 1] - n_users)


@dataclass(frozen=True)
class InteractionGraph:
    """Immutable sparse user-item graph with per-edge timestamps.

    Edges are stored once, in canonical order (ascending `keys`, their
    `pair_keys`, so by user then item), with a CSR row pointer grouping them
    by user. `edge_item` holds global ids (already offset by `n_users`).
    """

    n_users: int
    n_items: int
    edge_user: np.ndarray  # (E,) destination-side user id per canonical edge
    edge_item: np.ndarray  # (E,) global item id per canonical edge
    edge_ts: np.ndarray  # (E,) unix timestamp
    ui_indptr: np.ndarray  # (n_users+1,) canonical edges grouped by user
    keys: np.ndarray  # (E,) ascending pair_keys of the canonical edges

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

    def edges(self) -> np.ndarray:
        """The canonical edges as an (E, 3) array of (user, item, ts) rows."""
        return np.stack([self.edge_user, self.edge_item, self.edge_ts], axis=1)


def build_graph(
    edges: np.ndarray, n_users: int, n_items: int, base: InteractionGraph | None = None
) -> InteractionGraph:
    """Build the CSR graph of an (E, 3) edge array in global id space, plus `base`'s edges.

    Duplicate (user, item) pairs collapse into one edge keeping the latest
    timestamp. Only `edges` is sorted: it is merged into the sorted keys of
    `base`, a graph of the same id space, or of no edges if it is None.
    """
    user, item, ts = edges.T
    if user.size:
        if user.min() < 0 or user.max() >= n_users:
            raise ValueError("user id outside [0, n_users)")
        if item.min() < n_users or item.max() >= n_users + n_items:
            raise ValueError("item id outside [n_users, n_users + n_items)")
    key = pair_keys(edges, n_users, n_items)
    # each key once, with the latest of its timestamps
    order = np.argsort(key, kind="stable")
    key, ts = key[order], ts[order]
    first = np.flatnonzero(np.diff(key, prepend=-1))
    key, ts = key[first], np.maximum.reduceat(ts, first)

    keys, edge_ts = (key[:0], ts[:0]) if base is None else (base.keys, base.edge_ts)
    at = np.searchsorted(keys, key)
    shared = np.append(keys, -1)[at] == key  # the -1 past the end is no key
    edge_ts = edge_ts.copy()
    edge_ts[at[shared]] = np.maximum(edge_ts[at[shared]], ts[shared])
    at, key, ts = at[~shared], key[~shared], ts[~shared]
    keys, edge_ts = np.insert(keys, at, key), np.insert(edge_ts, at, ts)
    user, item = np.divmod(keys, n_items)
    ui_indptr = np.concatenate([[0], np.cumsum(np.bincount(user, minlength=n_users))])
    return InteractionGraph(n_users, n_items, user, item + n_users, edge_ts, ui_indptr, keys)


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
    input order, not timestamp order. A run of more than
    `MAX_EMPTY_SNAPSHOTS` consecutive empty snapshots raises DataError.
    """
    if len(edges) == 0:
        raise DataError("no interactions to segment")
    if pretrain_span <= 0 or granularity <= 0:
        raise ValueError("pretrain_span and granularity must be positive")
    users, user = np.unique(edges[:, 0], return_inverse=True)
    items, item = np.unique(edges[:, 1], return_inverse=True)
    encoded = np.stack([user, users.size + item, edges[:, 2]], axis=1)
    pretrain_end = int(encoded[:, 2].min()) + int(pretrain_span)

    in_pretrain = encoded[:, 2] < pretrain_end
    rest = encoded[~in_pretrain]
    if len(rest) == 0:
        raise DataError("no snapshots remain: pre-training span consumes all data")

    bucket = (rest[:, 2] - pretrain_end) // granularity
    counts = np.bincount(bucket)
    filled = np.flatnonzero(counts)
    empty_before = np.diff(filled, prepend=-1) - 1  # back to the previous filled one
    worst = int(np.argmax(empty_before))
    if empty_before[worst] > MAX_EMPTY_SNAPSHOTS:
        after = int(rest[bucket == filled[worst], 2].min())
        before = int(encoded[encoded[:, 2] < after, 2].max())
        raise DataError(
            f"a {(after - before) / 3600:.1f} h gap between interactions at ts {before} "
            f"and ts {after} leaves {empty_before[worst]} consecutive empty snapshots "
            f"(at most {MAX_EMPTY_SNAPSHOTS}); use a coarser granularity or drop "
            "the outlying interactions"
        )
    # a stable sort on the bucket index alone keeps input order inside a bucket
    rest = rest[np.argsort(bucket, kind="stable")]
    offsets = np.concatenate([[0], np.cumsum(counts)])
    boundaries = tuple(
        pretrain_end + (k + 1) * int(granularity) for k in range(len(counts))
    )
    return SnapshotSeries(
        vocab=Vocabulary(users=users, items=items),
        pretrain=build_graph(encoded[in_pretrain], users.size, items.size),
        snapshots=tuple(rest[lo:hi] for lo, hi in zip(offsets[:-1], offsets[1:])),
        pretrain_end=pretrain_end,
        boundaries=boundaries,
    )
