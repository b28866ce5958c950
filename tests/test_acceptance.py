"""End-to-end acceptance checks.

Each test verifies one numbered criterion and prints a single pass/fail
line (visible even under captured output) before asserting, so a full run
yields one status line per criterion:

    criterion 01 propagation-oracle: PASS (...)

Criteria with runtime bounds measure and enforce them.
"""
from __future__ import annotations

import dataclasses
import functools
import math
import os
import time
from collections import deque

import numpy as np
from scipy.special import expit

import dynrec.training as training_mod
from dynrec.cli import main as cli_main
from dynrec.config import RunConfig
from dynrec.data import Vocabulary, build_graph, segment_snapshots
from dynrec.dynamics import interpolative_init, run_dynamic, run_frozen
from dynrec.evaluation import evaluate_users, pair_keys, rank_items
from dynrec.prompt import GateParams, apply_gate, finetune, gate_gradients, snapshot_retention
from dynrec.propagation import (
    build_weights,
    forward,
    forward_backward,
    normalize_times,
    relative_timesteps,
    temporal_softmax,
)
from dynrec.synthetic import drift_series, planted_blocks, write_tsv
from dynrec.training import TrainConfig, bpr_gradients, pretrain
from helpers import (
    bpr_loss,
    brute_force_ndcg,
    brute_force_recall,
    brute_force_topk,
    central_difference,
    dense_forward,
    dense_operator,
    edge_array,
    encode,
    random_bipartite_edges,
    rel_err,
    split_by_user,
)


def _report(capsys, num: int, name: str, ok: bool, detail: str) -> None:
    line = f"criterion {num:02d} {name}: {'PASS' if ok else 'FAIL'} ({detail})"
    with capsys.disabled():
        print(line, flush=True)
    assert ok, line


def _random_graph_case(seed: int, max_side: int, min_edges: int = 0):
    rng = np.random.default_rng(seed)
    n_users = int(rng.integers(1, max_side + 1))
    n_items = int(rng.integers(1, max_side + 1))
    n_edges = int(rng.integers(min_edges, n_users * n_items + 1))
    edges = random_bipartite_edges(rng, n_users, n_items, n_edges)
    tau = float(rng.uniform(60.0, 500_000.0))
    return rng, n_users, n_items, edges, tau


# -- 1: sparse propagation vs dense reference ------------------------------


def test_criterion_01_propagation_oracle(capsys):
    started = time.perf_counter()
    worst_product = 0.0
    worst_forward = 0.0
    worst_adjoint = 0.0
    for seed in range(200):
        rng, n_users, n_items, edges, tau = _random_graph_case(seed, 25)
        no_temporal = seed % 4 == 3
        graph = build_graph(edge_array(edges), n_users, n_items)
        weights = build_weights(graph, tau, no_temporal=no_temporal)
        mat = dense_operator(edges, n_users, n_items, tau, no_temporal=no_temporal)
        degrees = [0] * (n_users + n_items)
        for u, gi, _ in edges:
            degrees[u] += 1
            degrees[gi] += 1

        d = int(rng.integers(1, 9))
        n_layers = int(rng.integers(0, 4))
        x0 = rng.normal(size=(graph.n_nodes, d))
        y = rng.normal(size=(graph.n_nodes, d))

        worst_product = max(
            worst_product,
            float(np.max(np.abs(weights.matrix @ x0 - mat @ x0))),
            float(np.max(np.abs(weights.matrix_t @ y - mat.T @ y))),
        )
        ours = forward(weights, x0, n_layers)
        ref = dense_forward(mat, x0, n_layers, degrees)
        worst_forward = max(worst_forward, float(np.max(np.abs(ours - ref))))
        lhs = float(np.sum(forward(weights, x0, n_layers) * y))
        rhs = float(np.sum(x0 * forward_backward(weights, y, n_layers)))
        worst_adjoint = max(worst_adjoint, abs(lhs - rhs))
    elapsed = time.perf_counter() - started
    ok = (
        worst_product < 1e-10
        and worst_forward < 1e-10
        and worst_adjoint < 1e-8
        and elapsed < 10.0
    )
    _report(
        capsys,
        1,
        "propagation-oracle",
        ok,
        f"200 graphs, max product err {worst_product:.2e}, max forward err "
        f"{worst_forward:.2e}, adjoint gap {worst_adjoint:.2e}, {elapsed:.1f}s",
    )


# -- 2: softmax normalization and time ordering ----------------------------


def test_criterion_02_temporal_softmax(capsys):
    worst_sum = 0.0
    violations = 0
    checked = 0
    for seed in range(100):
        _, n_users, n_items, edges, tau = _random_graph_case(seed, 25, min_edges=1)
        graph = build_graph(edge_array(edges), n_users, n_items)
        alpha_ui, alpha_iu = temporal_softmax(graph, tau)
        t = normalize_times(relative_timesteps(graph, tau))

        user_sums = np.bincount(graph.edge_user, weights=alpha_ui, minlength=n_users)
        item_sums = np.bincount(
            graph.edge_item_local, weights=alpha_iu, minlength=n_items
        )
        for sums, degrees in (
            (user_sums, graph.user_degrees()),
            (item_sums, graph.item_degrees()),
        ):
            active = degrees > 0
            if active.any():
                worst_sum = max(worst_sum, float(np.max(np.abs(sums[active] - 1.0))))

        def check_neighborhood(times, shares):
            nonlocal violations, checked
            for a in range(times.size):
                for b in range(times.size):
                    if times[a] < times[b]:
                        checked += 1
                        if not shares[a] < shares[b]:
                            violations += 1
                    elif times[a] == times[b] and shares[a] != shares[b]:
                        violations += 1

        for user in range(n_users):
            sel = slice(graph.ui_indptr[user], graph.ui_indptr[user + 1])
            check_neighborhood(t[sel], alpha_ui[sel])
        for item in range(n_items):
            idx = np.flatnonzero(graph.edge_item_local == item)
            check_neighborhood(t[idx], alpha_iu[idx])
    ok = worst_sum <= 1e-9 and violations == 0
    _report(
        capsys,
        2,
        "temporal-softmax",
        ok,
        f"100 graphs, max |sum-1| {worst_sum:.2e}, "
        f"{violations} ordering violations over {checked} strict pairs",
    )


# -- 3: analytic gradients vs central finite differences -------------------


def test_criterion_03_gradient_suite(capsys):
    started = time.perf_counter()
    worst_table = 0.0
    worst_gate_w = 0.0
    worst_gate_b = 0.0
    for seed in range(50):
        rng = np.random.default_rng(1000 + seed)
        n_users = int(rng.integers(1, 5))
        n_items = int(rng.integers(2, min(5, 9 - n_users)))
        n_edges = int(rng.integers(1, n_users * n_items + 1))
        edges = random_bipartite_edges(rng, n_users, n_items, n_edges)
        tau = float(rng.uniform(60.0, 100_000.0))
        no_temporal = seed % 5 == 4
        graph = build_graph(edge_array(edges), n_users, n_items)
        weights = build_weights(graph, tau, no_temporal=no_temporal)

        n = graph.n_nodes
        d = int(rng.integers(2, 5))
        n_layers = int(rng.integers(0, 4))
        l2 = float(rng.choice([0.0, 1e-3]))
        n_triples = int(rng.integers(1, 6))
        users = rng.integers(0, n_users, size=n_triples)
        pos = n_users + rng.integers(0, n_items, size=n_triples)
        neg = n_users + (pos - n_users + 1 + rng.integers(0, n_items - 1, size=n_triples)) % n_items
        triples = np.stack([users, pos, neg], axis=1).astype(np.int64)

        # ranking loss through propagation, gradient w.r.t. the full table
        x0 = rng.normal(0.0, 0.6, size=(n, d))
        _, grad = bpr_gradients(weights, x0, triples, n_layers, l2)
        fd = central_difference(
            lambda: bpr_loss(forward(weights, x0, n_layers), triples, x0, l2),
            x0,
            h=1e-5,
        )
        worst_table = max(worst_table, rel_err(grad, fd))

        # same loss through the gate; gradients for both gate parameter arrays
        x_in = rng.normal(0.0, 0.6, size=(n, d))
        gate = GateParams(
            w=rng.normal(0.0, 0.4, size=(d, d)), b=rng.normal(0.0, 0.4, size=d)
        )
        upstream = bpr_gradients(
            weights, apply_gate(x_in, gate), triples, n_layers, 0.0
        )[1]
        sig = expit(x_in @ gate.w.T + gate.b)
        grad_w, grad_b = gate_gradients(x_in, sig, upstream)

        def gate_loss() -> float:
            return bpr_loss(
                forward(weights, apply_gate(x_in, gate), n_layers), triples
            )

        worst_gate_w = max(
            worst_gate_w, rel_err(grad_w, central_difference(gate_loss, gate.w, h=1e-5))
        )
        worst_gate_b = max(
            worst_gate_b, rel_err(grad_b, central_difference(gate_loss, gate.b, h=1e-5))
        )
    elapsed = time.perf_counter() - started
    ok = (
        worst_table < 1e-4
        and worst_gate_w < 1e-4
        and worst_gate_b < 1e-4
        and elapsed < 30.0
    )
    _report(
        capsys,
        3,
        "gradient-suite",
        ok,
        f"50 instances, rel err table {worst_table:.2e}, gate W {worst_gate_w:.2e}, "
        f"gate b {worst_gate_b:.2e}, {elapsed:.1f}s",
    )


# -- 4: closed-form exactness ----------------------------------------------


def test_criterion_04_formula_exactness(capsys):
    rng = np.random.default_rng(42)
    failures = []

    # relative timesteps: floor((ts - min)/tau), integer-exact
    for _ in range(30):
        n_users = int(rng.integers(1, 6))
        n_items = int(rng.integers(1, 6))
        n_edges = int(rng.integers(1, n_users * n_items + 1))
        edges = random_bipartite_edges(rng, n_users, n_items, n_edges)
        tau = float(rng.uniform(1.0, 200_000.0))
        g = build_graph(edge_array(edges), n_users, n_items)
        got = relative_timesteps(g, tau).tolist()
        lo = int(g.edge_ts.min())
        want = [math.floor((int(ts) - lo) / tau) for ts in g.edge_ts]
        if got != want:
            failures.append("timesteps")
            break

    # min-max normalization of the timesteps
    for _ in range(30):
        steps = rng.integers(0, 10_000, size=int(rng.integers(1, 40)))
        got = normalize_times(steps).tolist()
        lo, hi = int(steps.min()), int(steps.max())
        want = [0.0 if hi == lo else (int(s) - lo) / float(hi - lo) for s in steps]
        if got != want:
            failures.append("normalization")
            break

    # retention schedule with clamping, snapshot 1 = oldest
    for _ in range(60):
        n = int(rng.integers(0, 12))
        phi = float(rng.uniform(-1.0, 1.0))
        got = snapshot_retention(n, phi).tolist()
        want = []
        for i in range(1, n + 1):
            raw = 1.0 - (i - 1.0) * phi if phi >= 0 else 1.0 + (n - i) * phi
            want.append(min(1.0, max(0.0, raw)))
        if got != want:
            failures.append("retention")
            break

    # zero gate halves the table exactly
    for _ in range(20):
        x = rng.normal(size=(int(rng.integers(1, 10)), int(rng.integers(1, 6))))
        if not np.array_equal(apply_gate(x, GateParams.zeros(x.shape[1])), x * 0.5):
            failures.append("gate")
            break

    # interpolated re-initialization against its closed form
    worst_interp = 0.0
    for _ in range(30):
        d = int(rng.integers(1, 5))
        rows = int(rng.integers(1, 7))
        x_p = rng.normal(size=(rows, d))
        window = int(rng.integers(0, 4))
        buf = deque(maxlen=3)
        tables = [rng.normal(size=(rows, d)) for _ in range(window)]
        for tab in tables:
            buf.appendleft(tab)
        got = interpolative_init(x_p, buf)
        if window == 0:
            want = x_p
        else:
            newest_first = list(reversed(tables))
            mix = sum(
                (i + 1) * tab for i, tab in enumerate(newest_first)
            ) / (window * (window + 1) / 2.0)
            want = 0.5 * (x_p + mix)
        worst_interp = max(worst_interp, float(np.max(np.abs(got - want))))
    if worst_interp > 1e-12:
        failures.append("interpolation")
    # frozen hand value: x_p=2, window (newest 4, older 10) -> (2 + 8)/2
    buf = deque(maxlen=2)
    buf.appendleft(np.array([[10.0]]))
    buf.appendleft(np.array([[4.0]]))
    if interpolative_init(np.array([[2.0]]), buf).tolist() != [[5.0]]:
        failures.append("interpolation-hand")

    ok = not failures
    _report(
        capsys,
        4,
        "formula-exactness",
        ok,
        "timesteps, normalization, retention, gate, interpolation all exact"
        if ok
        else f"failed: {failures}",
    )


# -- 5: ranking metrics vs brute force -------------------------------------


def test_criterion_05_metric_oracles(capsys):
    mismatches = 0
    for seed in range(200):
        rng = np.random.default_rng(2000 + seed)
        n_items = int(rng.integers(5, 31))
        k = int(rng.integers(1, 9))
        x = rng.normal(size=(1 + n_items, int(rng.integers(2, 7))))
        mask = rng.random(n_items) < 0.2
        relevant = rng.choice(
            n_items, size=int(rng.integers(1, min(9, n_items + 1))), replace=False
        )
        relevant = relevant[~mask[relevant]]
        candidates = None
        if seed % 4 == 0:
            candidates = np.unique(
                np.concatenate(
                    [rng.choice(n_items, size=max(1, n_items // 2), replace=False), relevant]
                )
            )
        if relevant.size == 0:
            continue
        seen = np.flatnonzero(mask)  # user 0's keys are its local item ids
        ranked = rank_items(x, 1, np.array([0]), seen, k, candidates)[0]
        ranked = ranked[ranked >= 0]
        ref = brute_force_topk(
            x,
            0,
            1,
            set(np.flatnonzero(mask).tolist()),
            k,
            None if candidates is None else candidates.tolist(),
        )
        rel_set = set(relevant.tolist())
        if ranked.tolist() != ref:
            mismatches += 1
            continue
        report = evaluate_users(x, 1, relevant, seen, k, candidates)
        if report.users.tolist() != [0]:
            mismatches += 1
            continue
        if report.recalls[0] != brute_force_recall(ref, rel_set):
            mismatches += 1
        if report.ndcgs[0] != brute_force_ndcg(ref, rel_set, k):
            mismatches += 1

    # single relevant item at rank 2: nDCG is 1/log2(3)
    x = np.array([[1.0, 0.0], [10.0, 0.0], [9.0, 0.0], [1.0, 0.0]])
    no_keys = np.empty(0, dtype=np.int64)
    ranked = rank_items(x, 1, np.array([0]), no_keys, 20)[0]
    rank2 = float(evaluate_users(x, 1, np.array([1]), no_keys, 20).ndcgs[0])
    exact = abs(rank2 - 0.6309297535714574) < 1e-15 and ranked[1] == 1

    ok = mismatches == 0 and exact
    _report(
        capsys,
        5,
        "metric-oracles",
        ok,
        f"200 instances, {mismatches} mismatches, rank-2 single-relevant "
        f"nDCG {rank2:.10f}",
    )


# -- 6: fine-tuning touches exactly the gate parameters --------------------


def test_criterion_06_parameter_efficiency(capsys, monkeypatch):
    d = 6
    rng = np.random.default_rng(9)
    # every user gets 4 of 7 items, so negative sampling always has room
    edges = [
        (u, 6 + int(item), int(rng.integers(0, 500_000)))
        for u in range(6)
        for item in rng.choice(7, size=4, replace=False)
    ]
    graph = build_graph(edge_array(edges), 6, 7)
    x_in = rng.normal(0.0, 0.3, size=(13, d))
    before = x_in.tobytes()

    captured: list[dict] = []
    original_step = training_mod.Adam.step

    def recording_step(self, grads):
        captured.append({k: (v.size, np.count_nonzero(v), v.shape) for k, v in grads.items()})
        return original_step(self, grads)

    monkeypatch.setattr(training_mod.Adam, "step", recording_step)
    cfg = RunConfig(learning_rate=1e-2, batch_size=8, finetune_epochs=3, layers=2, tau_hours=1.0)
    result = finetune(graph, x_in, cfg, np.random.default_rng(1))

    ok = bool(captured)
    touched_w = np.zeros((d, d), dtype=bool)
    touched_b = np.zeros(d, dtype=bool)
    for step in captured:
        if set(step) != {"w", "b"}:
            ok = False
            break
        if step["w"][0] != d * d or step["b"][0] != d:
            ok = False
            break
    # union of entries that ever received a nonzero gradient
    monkeypatch.setattr(training_mod.Adam, "step", original_step)
    grads_probe = []

    def probing_step(self, grads):
        grads_probe.append({k: v.copy() for k, v in grads.items()})
        return original_step(self, grads)

    monkeypatch.setattr(training_mod.Adam, "step", probing_step)
    finetune(graph, x_in, cfg, np.random.default_rng(1))
    for grads in grads_probe:
        touched_w |= grads["w"] != 0.0
        touched_b |= grads["b"] != 0.0
    nonzero_scalars = int(touched_w.sum() + touched_b.sum())
    unchanged = x_in.tobytes() == before
    tuned_changed = not np.array_equal(result.embeddings, forward(
        build_weights(graph, 3600.0), x_in * 0.5, 2
    ))

    ok = ok and nonzero_scalars == d * d + d and unchanged and tuned_changed
    _report(
        capsys,
        6,
        "parameter-efficiency",
        ok,
        f"{nonzero_scalars} scalars with nonzero gradients (= {d}^2+{d}), "
        f"input table bitwise unchanged: {unchanged}",
    )


# -- 7: planted-block learnability -----------------------------------------


def test_criterion_07_synthetic_learnability(capsys):
    started = time.perf_counter()
    log = planted_blocks(n_users=200, n_items=200, n_blocks=8, per_user=10, seed=3)
    train, test = split_by_user(log, 0.2, seed=3)
    vocab = Vocabulary.from_edges(log)
    n_users, n_items = vocab.n_users, vocab.n_items
    train_graph = build_graph(encode(vocab, train), n_users, n_items)

    cfg = TrainConfig(
        learning_rate=5e-3,
        batch_size=1024,
        max_epochs=100,
        patience=10,
        l2_reg=1e-4,
        val_fraction=0.05,
        seed=3,
    )
    result = pretrain(train_graph, dim=64, n_layers=3, tau=86_400.0, cfg=cfg)

    weights = build_weights(train_graph, 86_400.0)
    z = forward(weights, result.embeddings, 3)
    relevant = pair_keys(encode(vocab, test), n_users, n_items)
    report = evaluate_users(z, n_users, relevant, train_graph.keys, 20)
    elapsed = time.perf_counter() - started

    baseline = 20.0 / n_items
    recall = report.mean_recall()
    ok = (
        recall >= 5.0 * baseline
        and len(result.log) <= 100
        and elapsed < 120.0
    )
    _report(
        capsys,
        7,
        "synthetic-learnability",
        ok,
        f"held-out recall@20 {recall:.3f} vs 5x random baseline {5 * baseline:.3f}, "
        f"{len(result.log)} epochs, {elapsed:.1f}s",
    )


# -- 8 & 9: drifting-preference benchmark ----------------------------------

DRIFT_OVERRIDES = dict(
    d=64,
    layers=3,
    tau_hours=6.0,
    learning_rate=5e-3,
    batch_size=1024,
    max_epochs=40,
    patience=8,
    finetune_epochs=10,
    pretrain_span_hours=144.0,
    granularity_hours=24.0,
    k=20,
)


@functools.lru_cache(maxsize=None)
def _drift_setup(seed: int, no_temporal: bool):
    cfg = RunConfig(seed=seed, no_temporal=no_temporal, **DRIFT_OVERRIDES)
    series = segment_snapshots(
        drift_series(seed=seed), cfg.pretrain_span_seconds, cfg.granularity_seconds
    )
    pre = pretrain(
        series.pretrain,
        cfg.d,
        cfg.layers,
        cfg.tau_seconds,
        cfg.train_config(),
        no_temporal=no_temporal,
        init_std=cfg.init_std,
    )
    return cfg, series, pre.embeddings


@functools.lru_cache(maxsize=None)
def _drift_full_run(seed: int):
    cfg, series, x_p = _drift_setup(seed, False)
    return run_dynamic(series, cfg, x_p)


def test_criterion_08_synthetic_dynamics(capsys):
    started = time.perf_counter()
    full, frozen, ablated = [], [], []
    for seed in range(5):
        cfg, series, x_p = _drift_setup(seed, False)
        full.append(_drift_full_run(seed).macro()[0])
        frozen.append(run_frozen(series, cfg, x_p).macro()[0])
        cfg_nt, series_nt, x_p_nt = _drift_setup(seed, True)
        ablated.append(run_dynamic(series_nt, cfg_nt, x_p_nt).macro()[0])
    elapsed = time.perf_counter() - started

    mean_full = float(np.mean(full))
    mean_frozen = float(np.mean(frozen))
    mean_ablated = float(np.mean(ablated))
    vs_frozen = mean_full / mean_frozen
    vs_ablated = mean_full / mean_ablated
    ok = vs_frozen >= 1.05 and vs_ablated >= 1.05 and elapsed < 300.0
    _report(
        capsys,
        8,
        "synthetic-dynamics",
        ok,
        f"5 seeds, mean recall@20 full {mean_full:.4f}, frozen {mean_frozen:.4f} "
        f"(x{vs_frozen:.3f}), no-temporal {mean_ablated:.4f} (x{vs_ablated:.3f}), "
        f"{elapsed:.0f}s",
    )


def test_criterion_09_ablation_wiring(capsys):
    cfg, series, x_p = _drift_setup(0, False)
    full_trace = [(r["recall"], r["ndcg"]) for r in _drift_full_run(0).records]
    silent = []
    for flag in ("no_prompt_tuning", "no_gate", "no_interp_update"):
        variant = run_dynamic(series, dataclasses.replace(cfg, **{flag: True}), x_p)
        trace = [(r["recall"], r["ndcg"]) for r in variant.records]
        if trace == full_trace:
            silent.append(flag)
    ok = not silent
    _report(
        capsys,
        9,
        "ablation-wiring",
        ok,
        "each switch changes the metric trace"
        if ok
        else f"silent no-op flags: {silent}",
    )


# -- 10: bitwise determinism through the command line ----------------------


def _tree_bytes(root: str) -> dict[str, bytes]:
    out: dict[str, bytes] = {}
    for dirpath, _, files in os.walk(root):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                out[os.path.relpath(path, root)] = fh.read()
    return out


def test_criterion_10_determinism(capsys, tmp_path):
    data = str(tmp_path / "drift.tsv")
    write_tsv(
        data,
        drift_series(
            n_blocks=4,
            users_per_block=4,
            items_per_block=4,
            pretrain_days=2,
            snapshot_days=3,
            stale_per_day=2,
            lead_per_day=1,
            seed=0,
        ),
    )
    settings = [
        "--set", "d=8",
        "--set", "layers=2",
        "--set", "tau_hours=6",
        "--set", "learning_rate=0.005",
        "--set", "batch_size=64",
        "--set", "max_epochs=3",
        "--set", "patience=3",
        "--set", "finetune_epochs=2",
        "--set", "pretrain_span_hours=48",
        "--set", "granularity_hours=24",
        "--set", "k=5",
    ]
    run_a = str(tmp_path / "run_a")
    run_b = str(tmp_path / "run_b")
    code_a = cli_main(["run-dynamic", "--data", data, "--out", run_a, "--quiet", *settings])
    code_b = cli_main(["run-dynamic", "--data", data, "--out", run_b, "--quiet", *settings])

    tree_a = _tree_bytes(run_a)
    tree_b = _tree_bytes(run_b)
    same_files = set(tree_a) == set(tree_b)
    diffs = [p for p in tree_a if same_files and tree_a[p] != tree_b[p]]
    ok = code_a == 0 and code_b == 0 and same_files and not diffs
    _report(
        capsys,
        10,
        "determinism",
        ok,
        f"{len(tree_a)} artifact files bitwise identical across two runs"
        if ok
        else f"file sets equal: {same_files}, differing files: {diffs}",
    )
