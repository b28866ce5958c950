"""Ingestion, id remapping, graph construction and snapshot segmentation."""
from __future__ import annotations

import dataclasses
import io
import math
import os
import tempfile
import threading
import warnings

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from helpers import edge_array, encode

from dynrec.data import (
    MAX_EMPTY_SNAPSHOTS,
    DataError,
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
    for source in (io.StringIO(""), io.BytesIO(b"")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges, vocab = ingest_interactions(source)
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
        (b"1\t2\t3\n4\t5\t6\xff\n", 2),
    ],
)
def test_ingest_rejects_malformed_lines_with_line_number(text, lineno):
    source = io.BytesIO(text) if isinstance(text, bytes) else io.StringIO(text)
    with pytest.raises(DataError, match=f"line {lineno}"):
        ingest_interactions(source)


def _ingest_outcome(source, read=ingest_interactions):
    """The edges, or the DataError message, with any warning raised as an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            return read(source)[0]
        except DataError as exc:
            return str(exc)


def _assert_same_outcome(got, expected, bad_line):
    if bad_line is None:
        assert isinstance(got, np.ndarray) and got.dtype == np.int64 and got.shape[1] == 3
        np.testing.assert_array_equal(got, expected)
    else:
        assert got == expected and f"line {bad_line}:" in got


# (log, whether np.loadtxt's array is kept, the line a DataError names or None)
INGEST_CASES = {
    "crlf": (b"1\t2\t3\r\n4\t5\t6\r\n", True, None),
    "no-final-newline": (b"1\t2\t3\n4\t5\t6", True, None),
    "plus-sign": (b"+1\t2\t3\n", True, None),
    "leading-space": (b" 2\t2\t3\n", True, None),
    "minus-zero": (b"-0\t2\t3\n", True, None),
    "int64-max": (f"{2**63 - 1}\t2\t3\n".encode(), True, None),
    "empty": (b"", False, None),
    "blank-lines-only": (b"\n\r\n \t\n", False, None),
    "whitespace-line": (b"1\t2\t3\n  \n4\t5\t6\n", False, None),
    "underscore": (b"1_0\t2\t3\n", False, None),
    "full-width-digit": ("\uff11\t2\t3\n".encode(), False, None),
    "bare-cr": (b"1\t2\t3\r4\t5\t6\n", False, 1),
    "trailing-tab": (b"1\t2\t3\t\n", False, 1),
    "four-columns": (b"1\t2\t3\t4\n", False, 1),
    "negative": (b"1\t2\t3\n1\t2\t-3\n", False, 2),
    "int64-overflow": (f"1\t{2**63}\t3\n".encode(), False, 1),
    "not-utf8": (b"1\t2\t3\n4\t5\t6\xff\n", False, 2),
    "latin1-nbsp": (b"1\t2\t3\xa0\n", False, 1),  # whitespace to loadtxt
    "file-separator": (b"1\t2\t3\x1c\n", False, 1),  # whitespace to loadtxt
}


@pytest.fixture
def loadtxt_calls(monkeypatch):
    """(what it read, the array or None if it raised) for every np.loadtxt call in the test."""
    calls, loadtxt = [], np.loadtxt

    def recording_loadtxt(source, *args, **kwargs):
        calls.append((source, None))
        calls[-1] = (source, loadtxt(source, *args, **kwargs))
        return calls[-1][1]

    monkeypatch.setattr(np, "loadtxt", recording_loadtxt)
    return calls


@pytest.mark.parametrize("name", list(INGEST_CASES))
def test_ingest_matches_the_line_loop(name, loadtxt_calls):
    log, kept, bad_line = INGEST_CASES[name]
    got = _ingest_outcome(io.BytesIO(log))
    assert any(got is a for _, a in loadtxt_calls) == kept
    # a list of lines is not a seekable handle, so only the line loop reads it
    _assert_same_outcome(got, _ingest_outcome(list(io.BytesIO(log))), bad_line)


def test_ingest_reads_a_handle_from_its_position(loadtxt_calls):
    # loadtxt's array is kept for the first body; a whitespace line sends the second to the loop
    for body, kept in ((b"1\t2\t3\n", True), (b"1\t2\t3\n \n", False)):
        handle = io.BytesIO(b"user\titem\tts\n" + body)
        handle.readline()
        edges, _ = ingest_interactions(handle)
        assert edges.tolist() == [[1, 2, 3]]
        assert any(edges is a for _, a in loadtxt_calls) == kept


def _path_route(got, loadtxt_calls) -> bool:
    """Whether `got` is the array np.loadtxt read from a path, which must be absolute."""
    paths = [source for source, _ in loadtxt_calls if isinstance(source, str)]
    assert all(os.path.isabs(p) for p in paths)
    return any(got is a for source, a in loadtxt_calls if isinstance(source, str))


@pytest.mark.parametrize("name", list(INGEST_CASES))
def test_load_interactions_matches_the_line_loop(name, tmp_path, loadtxt_calls):
    log, kept, bad_line = INGEST_CASES[name]
    path = tmp_path / "log.tsv"
    path.write_bytes(log)
    got = _ingest_outcome(str(path), load_interactions)
    # every log whose np.loadtxt array is kept has no stray CR, so its path is read
    assert _path_route(got, loadtxt_calls) == kept
    if name == "bare-cr":
        assert not any(isinstance(source, str) for source, _ in loadtxt_calls)
    _assert_same_outcome(got, _ingest_outcome(list(io.BytesIO(log))), bad_line)


BLOCK = 1 << 20  # the size of the blocks a plain log is scanned in


def _cr_at_block_end(after: bytes) -> bytes:
    """A log whose first scan block ends in a CR, with `after` right behind it."""
    head = b"1\t2\t3\n" * ((BLOCK - 7) // 6)
    row = b"7\t8\t" + b"0" * (BLOCK - 1 - len(head) - 5) + b"9\r"
    log = head + row + after + b"4\t5\t6\n"
    assert log[BLOCK - 1 : BLOCK] == b"\r"
    return log


@pytest.mark.parametrize(
    "log, path_route, bad_line",
    [
        (_cr_at_block_end(b""), False, (BLOCK - 7) // 6 + 1),  # a bare CR between blocks
        (_cr_at_block_end(b"\n"), True, None),  # a CRLF split between blocks
        (b"1\t2\t3\r\r\n4\t5\t6\r", True, None),  # CRs before an LF or at the end
        (b"1\t2\t3\r\r4\t5\t6\n", False, 1),  # the second CR is bare
    ],
    ids=["bare-cr-at-block-end", "crlf-across-blocks", "cr-runs", "bare-cr-after-cr"],
)
def test_load_interactions_keeps_a_stray_cr_off_the_path_route(
    log, path_route, bad_line, tmp_path, loadtxt_calls
):
    path = tmp_path / "log.tsv"
    path.write_bytes(log)
    got = _ingest_outcome(str(path), load_interactions)
    assert _path_route(got, loadtxt_calls) == path_route
    assert any(isinstance(source, str) for source, _ in loadtxt_calls) == path_route
    _assert_same_outcome(got, _ingest_outcome(list(io.BytesIO(log))), bad_line)


def test_load_interactions_reads_a_compressed_name_through_the_handle(tmp_path, loadtxt_calls):
    # numpy would gunzip a path ending in .gz; this log is plain text
    path = tmp_path / "log.tsv.gz"
    path.write_bytes(b"1\t2\t3\n4\t5\t6\n")
    edges, _ = load_interactions(str(path))
    assert edges.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert [type(source) for source, _ in loadtxt_calls] == [io.BufferedReader]
    assert any(edges is a for _, a in loadtxt_calls)


def test_load_interactions_reads_a_relative_path_from_the_working_directory(
    tmp_path, monkeypatch, loadtxt_calls
):
    (tmp_path / "log.tsv").write_bytes(b"1\t2\t3\n")
    (tmp_path / "real" / "dir").mkdir(parents=True)
    (tmp_path / "real" / "log.tsv").write_bytes(b"4\t5\t6\n")
    (tmp_path / "link").symlink_to(tmp_path / "real" / "dir")
    monkeypatch.chdir(tmp_path)
    # ".." after a symlink leaves its target, as open does, not the link's directory
    for path, row in (("log.tsv", [1, 2, 3]), ("link/../log.tsv", [4, 5, 6])):
        edges, _ = load_interactions(path)
        assert edges.tolist() == [row]
        assert _path_route(edges, loadtxt_calls)
        assert loadtxt_calls[-1][0] == str(tmp_path / path)


@pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no named pipes on this platform")
def test_load_interactions_reads_a_fifo_once(tmp_path, loadtxt_calls):
    path = str(tmp_path / "log.fifo")
    os.mkfifo(path)
    log = b"1\t2\t3\n4\t5\t6\n"

    def write():
        with open(path, "wb") as fh:
            fh.write(log)

    writer = threading.Thread(target=write, daemon=True)
    writer.start()
    edges, _ = load_interactions(path)
    writer.join(timeout=10)
    assert not writer.is_alive()
    assert edges.tolist() == [[1, 2, 3], [4, 5, 6]]
    assert loadtxt_calls == []


@pytest.mark.parametrize(
    "rows",
    [
        [],
        [(3, 4, 5)],
        [(2, 9, 1), (2, 9, 1), (1, 9, 0), (2, 7, 3)],
        [(2**63 - 1, 2**63 - 1, 0), (0, 0, 0)],
    ],
    ids=["empty", "one-row", "repeated", "int64-max"],
)
def test_vocabulary_from_edges_equals_np_unique(rows):
    edges = edge_array(rows)
    vocab = Vocabulary.from_edges(edges)
    for got, column in ((vocab.users, edges[:, 0]), (vocab.items, edges[:, 1])):
        expected = np.unique(column)
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)


valid_rows = st.lists(
    st.tuples(*[st.integers(0, 2**63 - 1)] * 3, st.sampled_from(["", "+", " "])), max_size=30
)


@given(valid_rows, st.sampled_from([b"\n", b"\r\n", b"\r\r\n"]), st.booleans(), st.booleans())
def test_load_interactions_matches_the_line_loop_on_valid_logs(rows, end, blank, last_end):
    lines = [f"{sign}{u}\t{i}\t{sign}{t}".encode() for u, i, t, sign in rows]
    if blank and lines:
        lines.insert(len(lines) // 2, b"")
    data = end.join(lines) + (end if last_end else b"")
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "log.tsv")
        with open(path, "wb") as fh:
            fh.write(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            edges, vocab = load_interactions(path)
    expected = edge_array([(u, i, t) for u, i, t, _ in rows])
    np.testing.assert_array_equal(edges, expected)
    np.testing.assert_array_equal(edges, ingest_interactions(list(io.BytesIO(data)))[0])
    assert vocab.n_users == len({u for u, _, _, _ in rows})


def test_load_interactions_round_trips_a_file(tmp_path):
    path = tmp_path / "log.tsv"
    path.write_text("0\t1\t10\n1\t1\t20\n")
    edges, vocab = load_interactions(str(path))
    assert len(edges) == 2 and vocab.n_users == 2 and vocab.n_items == 1


def test_vocabulary_encode_maps_into_global_id_space():
    log = edge_array([(10, 100, 1), (20, 200, 2)])
    vocab = Vocabulary.from_edges(log)
    encoded = encode(vocab, log)
    assert encoded[:, 0].tolist() == [0, 1]
    assert encoded[:, 1].tolist() == [2, 3]  # items offset by n_users
    assert encoded[:, 2].tolist() == [1, 2]
    # ids outside the vocabulary are refused, not mapped to a neighbour
    with pytest.raises(ValueError, match="vocabulary"):
        encode(vocab, edge_array([(15, 100, 1)]))
    with pytest.raises(ValueError, match="vocabulary"):
        encode(vocab, edge_array([(10, 300, 1)]))


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
    g = build_graph(encode(vocab, raw), vocab.n_users, vocab.n_items)
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
    g = build_graph(encode(vocab, raw), vocab.n_users, vocab.n_items)
    latest: dict[tuple[int, int], int] = {}
    for user, item, ts in encode(vocab, raw).tolist():
        key = (user, item)
        latest[key] = max(latest.get(key, -1), ts)
    got = {
        (int(u), int(i)): int(t)
        for u, i, t in zip(g.edge_user, g.edge_item, g.edge_ts)
    }
    assert got == latest


def _assert_same_graph(got, expected):
    """Every field equal, arrays in shape, dtype and value."""
    for field in dataclasses.fields(expected):
        a, b = getattr(got, field.name), getattr(expected, field.name)
        if isinstance(b, np.ndarray):
            assert a.dtype == b.dtype, field.name
            np.testing.assert_array_equal(a, b, err_msg=field.name, strict=True)
        else:
            assert a == b, field.name


graph_rows = st.lists(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 4)), max_size=25
)


# A pre-training edge at ts 2 meets an older, an equal and a newer repeat;
# (0, 2) and (1, 0) repeat inside the extra edges, and (1, 0) is new.
MERGE_CASE = ([(0, 0, 2), (0, 1, 2), (0, 2, 2), (1, 3, 1)],
              [(0, 0, 1), (0, 1, 2), (0, 2, 3), (0, 2, 0), (1, 0, 4), (1, 0, 4)])


@given(st.integers(1, 4), st.integers(1, 4), graph_rows, graph_rows)
@example(2, 4, *MERGE_CASE)
@example(2, 4, [], MERGE_CASE[1])
@example(2, 4, MERGE_CASE[0], [])
@example(2, 4, [], [])
def test_build_graph_over_a_base_equals_one_build_of_both_edge_sets(
    n_users, n_items, base_rows, extra_rows
):
    def encoded(rows):
        return edge_array([(u % n_users, n_users + i % n_items, t) for u, i, t in rows])

    a, extra = encoded(base_rows), encoded(extra_rows)
    base = build_graph(a, n_users, n_items)
    merged = build_graph(extra, n_users, n_items, base=base)
    _assert_same_graph(merged, build_graph(np.concatenate([a, extra]), n_users, n_items))
    _assert_same_graph(base, build_graph(a, n_users, n_items))  # the base is left as it was


@pytest.mark.parametrize(
    "row, match",
    [((2, 3, 0), "user id"), ((-1, 3, 0), "user id"), ((0, 1, 0), "item id"), ((0, 6, 0), "item id")],
)
def test_build_graph_over_a_base_rejects_out_of_range_ids(row, match):
    base = build_graph(edge_array([(0, 2, 5), (1, 3, 5)]), 2, 4)
    with pytest.raises(ValueError, match=match):
        build_graph(edge_array([(0, 2, 9), row]), 2, 4, base=base)


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


@pytest.mark.parametrize("last", [3540, 3660], ids=["after-pretrain", "between-snapshots"])
def test_segment_snapshots_bounds_consecutive_empty_snapshots(last):
    # pretrain [0, 3600) and hourly snapshots; `last` closes the pre-training
    # span or fills the first snapshot, and the next interaction follows a gap
    def log(n_empty):
        after = (last // 3600 + n_empty + 1) * 3600
        return edge_array([(0, 10, 0), (0, 11, last), (1, 10, after)]), after

    edges, _ = log(MAX_EMPTY_SNAPSHOTS)
    counts = segment_snapshots(edges, 3600, 3600).manifest()["edge_counts"]
    assert counts.count(0) == MAX_EMPTY_SNAPSHOTS
    edges, after = log(MAX_EMPTY_SNAPSHOTS + 1)
    message = (
        rf"a {(after - last) / 3600:.1f} h gap between interactions at ts {last} and ts "
        rf"{after} leaves {MAX_EMPTY_SNAPSHOTS + 1} consecutive empty snapshots"
    )
    with pytest.raises(DataError, match=message):
        segment_snapshots(edges, 3600, 3600)


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
    filled = sorted({(ts - lo - span) // gran for ts in stamps if ts >= lo + span})
    if max(b - a - 1 for a, b in zip([-1] + filled, filled)) > MAX_EMPTY_SNAPSHOTS:
        with pytest.raises(DataError, match="consecutive empty snapshots"):
            segment_snapshots(log, span, gran)
        return
    series = segment_snapshots(log, span, gran)
    # the vocabulary is the log's sorted ids, and snapshots hold encoded rows
    assert np.array_equal(series.vocab.users, np.unique(log[:, 0]))
    assert np.array_equal(series.vocab.items, np.unique(log[:, 1]))
    early = encode(series.vocab, log[log[:, 2] < series.pretrain_end])
    expected = build_graph(early, series.n_users, series.n_items).edges()
    assert np.array_equal(series.pretrain.edges(), expected)
    rest = log[log[:, 2] >= series.pretrain_end]
    rest = rest[np.argsort((rest[:, 2] - series.pretrain_end) // gran, kind="stable")]
    assert np.array_equal(np.concatenate(series.snapshots), encode(series.vocab, rest))
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
