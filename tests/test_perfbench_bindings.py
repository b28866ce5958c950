"""The benchmark's span recorder still finds the functions it wraps and counts their work.

`perfbench/spans.py` times dynrec by replacing named module bindings, and it
reports a binding that no longer exists as absent instead of failing. So a
rename in `src/` would silently zero a per-layer metric. These tests resolve
every binding with the recorder's own resolver and pin the absent ones, so
losing a binding shows up as an edit to this file. A counter that no longer
fits what it counts (say, an attribute it reads is gone) is likewise only
noted by the recorder, so a small run through the benchmark's calls checks
that every counter ran and that the adjoint's work is counted right.
"""
from __future__ import annotations

import sys
import types
from pathlib import Path

from dynrec import cli, data, dynamics, propagation, training
from dynrec.config import RunConfig
from dynrec.synthetic import drift_series, write_tsv

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"

# Bindings the recorder lists but the program no longer has: pre-training is
# called only from the CLI, the CLI hashes files only through the manifest,
# and gate tuning samples and back-propagates through dynrec.training's loop.
ABSENT = {
    "dynrec.dynamics:pretrain",
    "dynrec.cli:sha256_file",
    "dynrec.prompt:forward_backward",
    "dynrec.prompt:sample_negatives",
}


def _load_spans(monkeypatch) -> types.ModuleType:
    # executed from its source, so nothing is imported from or written under
    # perfbench/; registered for the test only, as its dataclasses look it up
    module = types.ModuleType("perfbench_spans")
    module.__file__ = str(SPANS)
    monkeypatch.setitem(sys.modules, module.__name__, module)
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), module.__dict__)
    return module


def test_every_wrapped_binding_resolves_except_the_known_absent_ones(monkeypatch):
    spans = _load_spans(monkeypatch)
    bindings = [b for target in spans.TARGETS for b in target.bindings]
    absent = {b for b in bindings if spans._resolve(b) is None}
    assert absent == ABSENT


SETTINGS = {
    "d": 8, "layers": 2, "tau_hours": 6.0, "batch_size": 32, "max_epochs": 2, "patience": 2,
    "finetune_epochs": 1, "pretrain_span_hours": 48.0, "granularity_hours": 24.0, "k": 5,
}


def _write_log(tmp_path) -> str:
    path = str(tmp_path / "log.tsv")
    write_tsv(path, drift_series(3, 4, 4, pretrain_days=2, snapshot_days=3, seed=0))
    return path


def _record_benchmark_calls(spans: types.ModuleType, tmp_path):
    path = _write_log(tmp_path)
    cfg = RunConfig(**SETTINGS)
    with spans.Recorder(spans.TARGETS) as recorder:  # the calls `library_rep` makes
        loaded = data.load_interactions(path)
        series = data.segment_snapshots(
            loaded[0], cfg.pretrain_span_seconds, cfg.granularity_seconds
        )
        pre = training.pretrain(
            series.pretrain, cfg.d, cfg.layers, cfg.tau_seconds, cfg.train_config(),
            no_temporal=cfg.no_temporal, init_std=cfg.init_std,
        )
        dynamics.run_dynamic(series, cfg, pre.embeddings)
        dynamics.run_frozen(series, cfg, pre.embeddings)
    assert recorder.count_errors == set()
    return recorder


def _spmm_work(recorder, name: str) -> list[int]:
    return [s[5]["spmm_flop"] for s in recorder.spans if s[0] == name]


def test_counters_count_the_benchmark_calls_without_error(monkeypatch, tmp_path):
    spans = _load_spans(monkeypatch)
    # the flop count each adjoint call should be given, from the operator it ran on
    expected = []
    adjoint = training.forward_backward

    def observed(weights, grad_out, n_layers, out=None):
        expected.append(2 * weights.matrix.nnz * grad_out.shape[1] * n_layers)
        return adjoint(weights, grad_out, n_layers, out)

    monkeypatch.setattr(training, "forward_backward", observed)
    flops = _spmm_work(_record_benchmark_calls(spans, tmp_path), "propagation.forward_backward")
    assert len(flops) > 2 and flops == expected


def test_split_layers_count_the_same_calls_and_work(monkeypatch, tmp_path):
    # the helper thread runs no wrapped function, so spans still nest
    spans = _load_spans(monkeypatch)
    one_thread = _record_benchmark_calls(spans, tmp_path)
    monkeypatch.setattr(propagation, "SPLIT_WORK", 0)
    monkeypatch.setattr(propagation.os, "sched_getaffinity", lambda pid: {0, 1})
    split = _record_benchmark_calls(spans, tmp_path)
    assert propagation._helper is not None
    for name in ("propagation.forward", "propagation.forward_backward"):
        assert len(_spmm_work(one_thread, name)) > 2
        assert _spmm_work(split, name) == _spmm_work(one_thread, name)
    assert set(split.absent) == ABSENT


def test_the_cli_reaches_every_wrapped_function_through_its_module(monkeypatch, tmp_path, capsys):
    # the calls `cli_rep` makes; a binding captured at import would record no span
    spans = _load_spans(monkeypatch)
    path = _write_log(tmp_path)
    common = ["--data", path, "--quiet"]
    for key, value in SETTINGS.items():
        common += ["--set", f"{key}={value}"]
    pre, dyn, fro = (str(tmp_path / name) for name in ("pretrain", "dynamic", "frozen"))
    with spans.Recorder(spans.TARGETS) as recorder:
        assert cli.main(["pretrain", *common, "--out", pre]) == 0
        assert cli.main(["run-dynamic", *common, "--out", dyn, "--pretrained", pre]) == 0
        assert cli.main(["evaluate", *common, "--out", fro, "--pretrained", pre]) == 0
        assert cli.main(["report", "--run", dyn, "--baseline", fro, "--quiet"]) == 0
    assert "macro recall ratio" in capsys.readouterr().out
    recorded = {s[0] for s in recorder.spans}
    assert {
        "cli.main", "data.load_interactions", "data.segment_snapshots", "training.pretrain",
        "dynamics.run_dynamic", "dynamics.run_frozen", "artifacts.read_checkpoint",
        "artifacts.write_checkpoint", "artifacts.write_manifest", "artifacts.write_json",
        "artifacts.write_summary_csv", "artifacts.write_user_metrics_csv",
    } <= recorded
    assert recorder.count_errors == set()
    assert set(recorder.absent) == ABSENT
