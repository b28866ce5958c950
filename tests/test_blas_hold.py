"""The public calls hold numpy's bundled OpenBLAS at one thread and restore its count."""
from __future__ import annotations

import dataclasses
import os
import signal
import sys
import threading
import time
import warnings

import numpy as np
import pytest

from dynrec import dynamics, evaluation, propagation, training
from dynrec.config import RunConfig
from dynrec.data import DataError, pair_keys, segment_snapshots
from dynrec.dynamics import run_dynamic, run_frozen
from dynrec.evaluation import evaluate_users
from dynrec.propagation import one_blas_thread
from dynrec.synthetic import drift_series
from dynrec.training import pretrain

BLAS = propagation._openblas()
needs_openblas = pytest.mark.skipif(BLAS is None, reason="numpy's bundled OpenBLAS was not found")

CFG = RunConfig(
    d=4, layers=2, tau_hours=6.0, batch_size=16, max_epochs=2, patience=2, finetune_epochs=2,
    pretrain_span_hours=48.0, granularity_hours=24.0, k=3,
)


@pytest.fixture(scope="module")
def series():
    log = drift_series(
        n_blocks=3, users_per_block=3, items_per_block=3, pretrain_days=2, snapshot_days=3,
        stale_per_day=2, lead_per_day=1, seed=0,
    )
    return segment_snapshots(log, 48 * 3600, 24 * 3600)


@pytest.fixture
def blas_threads():
    """The getter, with the count set to 2 so that a hold's 1 shows; reset after."""
    set_threads, get_threads = BLAS
    before = get_threads()
    set_threads(2)
    yield get_threads
    set_threads(before)


def _pretrain(series, cfg=CFG):
    return pretrain(series.pretrain, cfg.d, cfg.layers, cfg.tau_seconds, cfg)


def _evaluate(series, table):
    relevant = pair_keys(series.snapshots[0], series.n_users, series.n_items)
    return evaluate_users(table, series.n_users, relevant, series.pretrain.keys, CFG.k)


# each public call, and a binding it calls from inside its hold
CALLS = {
    "pretrain": ((training, "forward"), lambda s, x: _pretrain(s)),
    "run_dynamic": ((dynamics, "forward"), lambda s, x: run_dynamic(s, CFG, x)),
    "run_frozen": ((dynamics, "forward"), lambda s, x: run_frozen(s, CFG, x)),
    "evaluate_users": ((evaluation, "rank_items"), _evaluate),
}


@needs_openblas
@pytest.mark.parametrize("name", CALLS)
def test_a_public_call_runs_on_one_blas_thread_and_restores_the_count(
    name, series, blas_threads, monkeypatch
):
    (owner, attr), call = CALLS[name]
    table = _pretrain(series).embeddings
    original, inside = getattr(owner, attr), []

    def spy(*args, **kwargs):
        inside.append(blas_threads())
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, attr, spy)
    before = blas_threads()
    call(series, table)
    assert inside and set(inside) == {1}
    assert blas_threads() == before


@needs_openblas
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the injected divergence overflows
def test_the_count_is_restored_when_a_call_raises(series, blas_threads):
    before = blas_threads()
    with pytest.raises(DataError, match="shape"):
        run_dynamic(series, CFG, np.zeros((3, CFG.d)))
    assert blas_threads() == before
    with pytest.raises(FloatingPointError):
        _pretrain(series, dataclasses.replace(CFG, learning_rate=1e300))
    assert blas_threads() == before


@needs_openblas
def test_nested_holds_set_and_restore_the_count_once(blas_threads, monkeypatch):
    set_threads, get_threads = BLAS
    before, counts = get_threads(), []

    def record(n):
        counts.append(n)
        set_threads(n)

    monkeypatch.setattr(propagation, "_openblas", lambda: (record, get_threads))
    with one_blas_thread():
        with one_blas_thread():
            assert get_threads() == 1
        assert get_threads() == 1
    assert get_threads() == before
    assert counts == [1, before]


@needs_openblas
def test_overlapping_holds_on_two_threads_leave_the_original_count(blas_threads):
    before = blas_threads()
    entered, leave = threading.Event(), threading.Event()

    def other():
        with one_blas_thread():
            entered.set()
            leave.wait(30)

    thread = threading.Thread(target=other, daemon=True)
    thread.start()
    assert entered.wait(30)
    with one_blas_thread():
        # the first thread to enter leaves first; this hold keeps the count at 1
        leave.set()
        thread.join(30)
        assert not thread.is_alive()
        assert blas_threads() == 1
    assert blas_threads() == before


@needs_openblas
def test_racing_holds_restore_the_count_once(blas_threads):
    # ctypes calls drop the interpreter lock, so holds that enter and leave
    # on three threads keep crossing 0 between a check and its update
    before, wrong, deadline = blas_threads(), [], time.monotonic() + 60

    def holder():
        for _ in range(2000):
            if time.monotonic() > deadline:
                return
            with one_blas_thread():
                if blas_threads() != 1:
                    wrong.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(10):
            threads = [threading.Thread(target=holder, daemon=True) for _ in range(3)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(60)
            assert not any(thread.is_alive() for thread in threads)
            assert wrong == [] and blas_threads() == before and propagation._holds == 0
    finally:
        sys.setswitchinterval(interval)


@needs_openblas
def test_concurrent_split_evaluations_keep_their_bytes_and_the_count(series, blas_threads, monkeypatch):
    table = _pretrain(series).embeddings
    monkeypatch.setattr(evaluation, "BLOCK_BYTES", 2 * series.n_items * table.itemsize)
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0, 1})
    report = _evaluate(series, table)
    assert report.n_users > 2  # at least two blocks
    expected = [report.recalls.tobytes(), report.ndcgs.tobytes()]
    before, failures, deadline = blas_threads(), [], time.monotonic() + 60

    def caller():
        for _ in range(20):
            if time.monotonic() > deadline:
                failures.append("deadline")
                return
            with one_blas_thread():
                report = _evaluate(series, table)
                if blas_threads() != 1:
                    failures.append("count")
            if [report.recalls.tobytes(), report.ndcgs.tobytes()] != expected:
                failures.append("bytes")

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=caller, daemon=True) for _ in range(6)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert failures == []
    assert blas_threads() == before and propagation._holds == 0


@needs_openblas
@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_child_forked_inside_a_hold_restores_the_count_as_it_leaves(blas_threads):
    before = blas_threads()
    with warnings.catch_warnings():  # the process may already run the helper thread
        warnings.simplefilter("ignore", DeprecationWarning)
        with one_blas_thread():
            pid = os.fork()
            held = blas_threads()
    if pid == 0:
        code = 1
        try:
            code = 0 if held == 1 and blas_threads() == before and propagation._holds == 0 else 2
        finally:
            os._exit(code)
    deadline = time.monotonic() + 30
    while (status := os.waitpid(pid, os.WNOHANG))[0] == 0 and time.monotonic() < deadline:
        time.sleep(0.01)
    if status[0] == 0:
        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        pytest.fail("the forked child hung")
    assert os.waitstatus_to_exitcode(status[1]) == 0
    assert blas_threads() == before


def _outputs(series) -> list[bytes]:
    table = _pretrain(series).embeddings
    got = [table.tobytes()]
    for protocol in (run_dynamic, run_frozen):
        result = protocol(series, CFG, table)
        got += [repr(result.records).encode()] + [r.recalls.tobytes() + r.ndcgs.tobytes() for r in result.reports]
    report = _evaluate(series, table)
    return got + [report.users.tobytes(), report.recalls.tobytes(), report.ndcgs.tobytes()]


def test_every_call_works_alike_without_the_openblas_symbols(series, monkeypatch):
    held = _outputs(series)
    monkeypatch.setattr(propagation, "_openblas", lambda: None)
    assert _outputs(series) == held
    assert propagation._holds == 0
