"""Ingestion, id remapping, graph construction and snapshot segmentation."""
from __future__ import annotations

import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from helpers import edge_array

from dynrec.data import (
    Vocabulary,
    build_graph,
    ingest_interactions,
    load_interactions,
    segment_snapshots,
)
from dynrec.propagation import normalize_times, relative_timesteps

interaction_arrays = st.lists(
    st.tuples(st.integers(0, 6), st.integers(0, 6), st.integers(0, 1000)),
    min_size=1,
    max_size=40,
).map(edge_array)


# -- parsing ---------------------------------------------------------------


def test_ingest_parses_tab_separated_lines_in_order():
    text = "5\t9\t100\n2\t9\t50\n5\t7\t200\n"
    edges, vocab = ingest_interactions(io.StringIO(text))
    assert edges.dtype == np.int64
    assert np.array_equal(edges, [[5, 9, 100], [2, 9, 50], [5, 7, 200]])
    # raw ids are remapped in sorted order: users {2, 5}, items {7, 9}
    assert vocab.users.tolist() == [2, 5]
    assert vocab.items.tolist() == [7, 9]
    assert vocab.n_users == 2 and vocab.n_items == 2 and vocab.n_nodes == 4


def test_ingest_accepts_bytes_and_skips_blank_lines():
    raw = io.BytesIO(b"1\t2\t3\n\n   \n4\t5\t6\n")
    edges, _ = ingest_interactions(raw)
    assert len(edges) == 2


def test_ingest_empty_input_yields_empty_log():
    edges, vocab = ingest_interactions(io.StringIO(""))
    assert edges.shape == (0, 3) and edges.dtype == np.int64
    assert vocab.n_nodes == 0


@pytest.mark.parametrize(
    "text, lineno",
    [
        ("1\t2\t3\n1\t2\n", 2),
        ("1\t2\t3\t4\n", 1),
        ("1\t2\t3\nx\t2\t3\n", 2),
        ("1\t2\t-3\n", 1),
        ("1 2 3\n", 1),
        ("1\t2\t3\n1\t99999999999999999999\t3\n", 2),
    ],
)
def test_ingest_rejects_malformed_lines_with_line_number(text, lineno):
    with pytest.raises(ValueError, match=f"line {lineno}"):
        ingest_interactions(io.StringIO(text))


def test_load_interactions_round_trips_a_file(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("0\t1\t10\n1\t1\t20\n")
    edges, vocab = load_interactions(str(path))
    assert len(edges) == 2 and vocab.n_users == 2 and vocab.n_items == 1


def test_vocabulary_encode_maps_into_global_id_space():
    log = edge_array([(10, 100, 1), (20, 200, 2)])
    vocab = Vocabulary.from_edges(log)
    encoded = vocab.encode(log)
    assert encoded[:, 0].tolist() == [0, 1]
    assert encoded[:, 1].tolist() == [2, 3]  # items offset by n_users
    assert encoded[:, 2].tolist() == [1, 2]
    # ids outside the vocabulary are refused, not mapped to a neighbour
    with pytest.raises(ValueError, match="vocabulary"):
        vocab.encode(edge_array([(15, 100, 1)]))
    with pytest.raises(ValueError, match="vocabulary"):
        vocab.encode(edge_array([(10, 300, 1)]))


# -- graph construction ----------------------------------------------------


def test_build_graph_sorts_edges_canonically():
    edges = edge_array([(1, 3, 5), (0, 4, 1), (0, 2, 9)])
    g = build_graph(edges, n_users=2, n_items=3)
    assert g.edge_user.tolist() == [0, 0, 1]
    assert g.edge_item.tolist() == [2, 4, 3]
    assert g.edge_ts.tolist() == [9, 1, 5]


def test_build_graph_collapses_duplicates_keeping_latest_timestamp():
    edges = edge_array([(0, 1, 50), (0, 1, 99), (0, 1, 10)])
    g = build_graph(edges, n_users=1, n_items=1)
    assert g.n_edges == 1
    assert g.edge_ts.tolist() == [99]


def test_build_graph_neighbor_queries():
    edges = edge_array([(0, 2, 1), (0, 3, 2), (1, 3, 3)])
    g = build_graph(edges, n_users=2, n_items=2)
    # neighbors through the canonical edges: the items of a user, the users of an item
    assert g.edge_item[g.edge_user == 0].tolist() == [2, 3]
    assert g.edge_item[g.edge_user == 1].tolist() == [3]
    assert g.edge_user[g.edge_item_local == 0].tolist() == [0]
    assert g.edge_user[g.edge_item_local == 1].tolist() == [0, 1]
    assert g.user_degrees().tolist() == [2, 1]
    assert g.item_degrees().tolist() == [1, 2]
    assert g.node_degrees().tolist() == [2, 1, 1, 2]


def test_build_graph_rejects_out_of_range_ids():
    with pytest.raises(ValueError, match="user id"):
        build_graph(edge_array([(3, 3, 0)]), n_users=2, n_items=2)
    with pytest.raises(ValueError, match="item id"):
        build_graph(edge_array([(0, 1, 0)]), n_users=2, n_items=2)


def test_build_graph_empty_edge_list():
    g = build_graph(edge_array([]), n_users=3, n_items=2)
    assert g.n_edges == 0
    assert g.ui_indptr.tolist() == [0, 0, 0, 0]
    assert g.item_degrees().tolist() == [0, 0]


@given(interaction_arrays)
def test_graph_invariants(raw):
    vocab = Vocabulary.from_edges(raw)
    g = build_graph(vocab.encode(raw), vocab.n_users, vocab.n_items)
    # one edge per distinct (user, item) pair
    assert g.n_edges == len({(u, i) for u, i, _ in raw.tolist()})
    # the indptr is monotone and bounds the edge array
    assert np.all(np.diff(g.ui_indptr) >= 0) and g.ui_indptr[-1] == g.n_edges
    # both degree views count every edge once
    assert int(g.user_degrees().sum()) == g.n_edges
    assert int(g.item_degrees().sum()) == g.n_edges
    # canonical order: by user, then item, so every item's users ascend
    rows = g.edges()[:, :2].tolist()
    assert rows == sorted(rows)
    for item_local in range(g.n_items):
        users = g.edge_user[g.edge_item_local == item_local]
        assert users.tolist() == sorted(users.tolist())
        assert users.size == g.item_degrees()[item_local]


@given(interaction_arrays)
def test_graph_keeps_latest_timestamp_per_pair(raw):
    vocab = Vocabulary.from_edges(raw)
    g = build_graph(vocab.encode(raw), vocab.n_users, vocab.n_items)
    latest: dict[tuple[int, int], int] = {}
    for user, item, ts in vocab.encode(raw).tolist():
        key = (user, item)
        latest[key] = max(latest.get(key, -1), ts)
    got = {
        (int(u), int(i)): int(t)
        for u, i, t in zip(g.edge_user, g.edge_item, g.edge_ts)
    }
    assert got == latest


# -- relative timesteps ---------------------------------------------------


def test_relative_timesteps_floor_formula():
    g = build_graph(
        edge_array([(0, 1, 100), (0, 2, 130), (0, 3, 260)]),
        n_users=1,
        n_items=3,
    )
    assert relative_timesteps(g, 60.0).tolist() == [0, 0, 2]
    assert relative_timesteps(g, 1000.0).tolist() == [0, 0, 0]


def test_relative_timesteps_requires_positive_tau():
    g = build_graph(edge_array([(0, 1, 0)]), 1, 1)
    with pytest.raises(ValueError):
        relative_timesteps(g, 0.0)


def test_normalize_times_hand_case():
    assert normalize_times(np.array([0, 2, 5])).tolist() == [0.0, 0.4, 1.0]


def test_normalize_times_all_equal_and_empty():
    assert normalize_times(np.array([7, 7, 7])).tolist() == [0.0, 0.0, 0.0]
    with pytest.raises(ValueError):
        normalize_times(np.empty(0, dtype=np.int64))


@given(st.lists(st.integers(0, 10_000), min_size=1, max_size=50))
def test_normalize_times_range_and_extremes(steps):
    t = normalize_times(np.array(steps, dtype=np.int64))
    assert np.all(t >= 0.0) and np.all(t <= 1.0)
    if len(set(steps)) > 1:
        assert t[np.argmax(steps)] == 1.0 and t[np.argmin(steps)] == 0.0


# -- segmentation ----------------------------------------------------------


def _log_at(stamps: list[int]) -> np.ndarray:
    return edge_array([(k % 3, 100 + k % 4, ts) for k, ts in enumerate(stamps)])


def test_segment_snapshots_boundaries_and_buckets():
    # min ts 0, span 100 -> pretrain covers [0, 100); buckets of width 50
    log = _log_at([0, 10, 99, 100, 149, 150, 260])
    series = segment_snapshots(log, pretrain_span=100, granularity=50)
    assert series.pretrain_end == 100
    assert series.pretrain.n_edges == 3
    # last edge at 260 -> bucket floor((260-100)/50) = 3 -> 4 buckets
    assert series.n_snapshots == 4
    assert series.boundaries == (150, 200, 250, 300)
    # 100 and 149 share the first bucket, 150 opens the second, 260 the last
    assert [len(s) for s in series.snapshots] == [2, 1, 0, 1]


def test_segment_snapshots_keep_input_order_inside_a_bucket():
    # pretrain [0, 100); buckets [100, 150) and [150, 200) whose rows arrive
    # interleaved and out of timestamp order
    log = edge_array(
        [(0, 10, 0), (2, 12, 190), (0, 11, 120), (1, 10, 149), (1, 12, 101), (0, 12, 160)]
    )
    series = segment_snapshots(log, pretrain_span=100, granularity=50)
    # global ids: users 0..2, items 10, 11, 12 -> 3, 4, 5
    assert series.n_snapshots == 2
    assert np.array_equal(series.snapshots[0], [[0, 4, 120], [1, 3, 149], [1, 5, 101]])
    assert np.array_equal(series.snapshots[1], [[2, 5, 190], [0, 5, 160]])


def test_segment_snapshots_vocabulary_covers_whole_log():
    log = edge_array([(0, 10, 0), (1, 11, 500)])
    series = segment_snapshots(log, pretrain_span=100, granularity=100)
    # user 1 / item 11 appear only after the pre-training span but still get ids
    assert series.n_users == 2 and series.n_items == 2
    assert series.pretrain.n_edges == 1


def test_segment_snapshots_manifest_summary():
    log = _log_at([0, 10, 99, 100, 149, 150, 260])
    series = segment_snapshots(log, 100, 50)
    m = series.manifest()
    assert m["pretrain_end"] == 100
    assert m["boundaries"] == [150, 200, 250, 300]
    assert m["edge_counts"] == [2, 1, 0, 1]
    assert m["pretrain_edges"] == 3


def test_segment_snapshots_errors():
    with pytest.raises(ValueError, match="no interactions"):
        segment_snapshots(edge_array([]), 10, 10)
    with pytest.raises(ValueError, match="no snapshots remain"):
        segment_snapshots(edge_array([(0, 1, 5)]), pretrain_span=10, granularity=10)
    with pytest.raises(ValueError, match="positive"):
        segment_snapshots(edge_array([(0, 1, 5)]), pretrain_span=0, granularity=10)


@given(
    st.lists(st.integers(0, 5000), min_size=2, max_size=60),
    st.integers(1, 2000),
    st.integers(1, 1000),
)
def test_segment_snapshots_partition(stamps, span, gran):
    log = _log_at(stamps)
    lo = min(stamps)
    if max(stamps) < lo + span:
        with pytest.raises(ValueError):
            segment_snapshots(log, span, gran)
        return
    series = segment_snapshots(log, span, gran)
    # every edge lands in exactly one piece
    total = series.pretrain.n_edges + sum(len(s) for s in series.snapshots)
    distinct = len({(u, i) for u, i, _ in series.pretrain.edges().tolist()})
    assert series.pretrain.n_edges == distinct  # pretrain graph deduplicates
    raw_pretrain = sum(1 for ts in stamps if ts < lo + span)
    assert sum(len(s) for s in series.snapshots) == len(stamps) - raw_pretrain
    assert total <= len(stamps)
    # snapshot k holds edges in [boundary_k - gran, boundary_k)
    for bound, snap in zip(series.boundaries, series.snapshots):
        assert np.all((bound - gran <= snap[:, 2]) & (snap[:, 2] < bound))
