"""In-memory span recorder that wraps dynrec's public functions from outside.

dynrec's modules import each other with ``from .x import y``, so a function
has one binding per importing module. A target therefore lists every binding
its callers use ("module:attr", or "module:Class.attr" for a method), and
each binding is replaced by a timing wrapper for the duration of the
recorder. A binding that no longer exists is reported as absent rather than
failing the run, so renaming a function leaves the end-to-end numbers intact.

A span is (name, start, end, parent, run id, counts). Spans stay in memory
and are written out once the run ends. Self time is a span's duration minus
the durations of its direct children; spans nest strictly because the
program is single-threaded.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import time
from dataclasses import dataclass
from typing import Callable

import numpy as np

Counter = Callable[[tuple, dict, object], dict]


@dataclass(frozen=True)
class Target:
    """One logical function, the bindings its callers use, and its counter."""

    name: str
    bindings: tuple[str, ...]
    count: Counter | None = None


def _arg(args: tuple, kwargs: dict, pos: int, key: str):
    return args[pos] if len(args) > pos else kwargs[key]


def _spmm_counts(matrix, x, n_layers: int) -> dict:
    """Computed (not measured) work of `n_layers` CSR x dense products.

    flop counts one multiply and one add per stored entry and column. Bytes
    are the compulsory traffic: matrix values, column indices and row
    pointers, one read of the dense input and one write of the output.
    """
    nnz, n_rows = int(matrix.nnz), int(matrix.shape[0])
    d = int(x.shape[1])
    idx = matrix.indices.itemsize
    per_layer_bytes = nnz * (matrix.data.itemsize + idx) + (n_rows + 1) * idx + 2 * n_rows * d * x.itemsize
    return {"spmm_flop": 2 * nnz * d * n_layers, "spmm_bytes": per_layer_bytes * n_layers}


def _count_forward(args, kwargs, result) -> dict:
    weights = _arg(args, kwargs, 0, "weights")
    return _spmm_counts(weights.matrix, _arg(args, kwargs, 1, "x0"), _arg(args, kwargs, 2, "n_layers"))


def _count_adjoint(args, kwargs, result) -> dict:
    weights = _arg(args, kwargs, 0, "weights")
    return _spmm_counts(weights.matrix_t, _arg(args, kwargs, 1, "grad_out"), _arg(args, kwargs, 2, "n_layers"))


def _count_evaluate(args, kwargs, result) -> dict:
    return {"users_in": len(_arg(args, kwargs, 2, "test_items")), "users_ranked": result.n_users}


def _count_cycles(args, kwargs, result) -> dict:
    return {
        "cycles": len(result.records),
        "empty_cycles": sum(r["warning"] is not None for r in result.records),
    }


def _count_checkpoint_bytes(args, kwargs, result) -> dict:
    out_dir = _arg(args, kwargs, 0, "out_dir")
    return {"checkpoint_bytes": sum(e.stat().st_size for e in os.scandir(out_dir) if e.is_file())}


# Every binding through which the workloads reach each function. The
# benchmark itself calls through the module attribute (dynrec.data,
# dynrec.training, dynrec.dynamics, dynrec.cli), so those are listed too.
TARGETS = (
    Target("cli.main", ("dynrec.cli:main",)),
    Target(
        "data.load_interactions",
        ("dynrec.data:load_interactions", "dynrec.cli:load_interactions"),
        lambda a, k, r: {"lines": len(r[0])},
    ),
    Target("data.segment_snapshots", ("dynrec.data:segment_snapshots", "dynrec.cli:segment_snapshots")),
    Target(
        "data.build_graph",
        (
            "dynrec.data:build_graph",
            "dynrec.training:build_graph",
            "dynrec.prompt:build_graph",
            "dynrec.dynamics:build_graph",
        ),
        lambda a, k, r: {"edges": len(_arg(a, k, 0, "edges"))},
    ),
    Target(
        "propagation.build_weights",
        ("dynrec.training:build_weights", "dynrec.prompt:build_weights", "dynrec.dynamics:build_weights"),
    ),
    Target(
        "propagation.forward",
        ("dynrec.training:forward", "dynrec.prompt:forward", "dynrec.dynamics:forward"),
        _count_forward,
    ),
    Target(
        "propagation.forward_backward",
        ("dynrec.training:forward_backward", "dynrec.prompt:forward_backward"),
        _count_adjoint,
    ),
    Target("training.pretrain", ("dynrec.training:pretrain", "dynrec.dynamics:pretrain", "dynrec.cli:pretrain")),
    Target("training.holdout_split", ("dynrec.training:holdout_split",)),
    Target(
        "training.sample_negatives",
        ("dynrec.training:sample_negatives", "dynrec.prompt:sample_negatives"),
        lambda a, k, r: {"triples": len(r)},
    ),
    Target("training.bpr_gradients", ("dynrec.training:bpr_gradients",)),
    Target("training.Adam.step", ("dynrec.training:Adam.step",)),
    Target(
        "prompt.build_prompt_graph",
        ("dynrec.dynamics:build_prompt_graph",),
        lambda a, k, r: {"edges": r.n_edges},
    ),
    Target("prompt.finetune", ("dynrec.dynamics:finetune",)),
    Target("prompt.apply_gate", ("dynrec.prompt:apply_gate",)),
    Target("prompt.gate_gradients", ("dynrec.prompt:gate_gradients",)),
    Target("dynamics.run_dynamic", ("dynrec.dynamics:run_dynamic", "dynrec.cli:run_dynamic"), _count_cycles),
    Target("dynamics.run_frozen", ("dynrec.dynamics:run_frozen", "dynrec.cli:run_frozen")),
    Target(
        "evaluation.evaluate_users",
        ("dynrec.training:evaluate_users", "dynrec.dynamics:evaluate_users"),
        _count_evaluate,
    ),
    Target("evaluation.rank_items", ("dynrec.evaluation:rank_items",)),
    Target("artifacts.write_checkpoint", ("dynrec.cli:write_checkpoint",), _count_checkpoint_bytes),
    Target("artifacts.read_checkpoint", ("dynrec.cli:read_checkpoint",)),
    Target("artifacts.write_manifest", ("dynrec.cli:write_manifest",)),
    Target("artifacts.write_json", ("dynrec.cli:write_json",)),
    Target("artifacts.write_summary_csv", ("dynrec.cli:write_summary_csv",)),
    Target("artifacts.write_user_metrics_csv", ("dynrec.cli:write_user_metrics_csv",)),
    Target("artifacts.sha256_file", ("dynrec.artifacts:sha256_file", "dynrec.cli:sha256_file")),
)

# The set-up stage only; timed in every run, traced or not.
SETUP_TARGETS = tuple(t for t in TARGETS if t.name in ("data.load_interactions", "data.segment_snapshots"))


def _resolve(binding: str):
    """Return (owner, attribute, current value) for "module:attr.path", or None."""
    module_name, _, path = binding.partition(":")
    try:
        owner = importlib.import_module(module_name)
    except ImportError:
        return None
    *parents, attr = path.split(".")
    for part in parents:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    value = getattr(owner, attr, None)
    return (owner, attr, value) if callable(value) else None


class Recorder:
    """Wraps the targets' bindings while active and collects their spans."""

    def __init__(self, targets=TARGETS) -> None:
        self.targets = tuple(targets)
        self.spans: list[tuple] = []
        self.absent: list[str] = []
        self.count_errors: set[str] = set()
        self.run_id = 0
        self._stack: list[int] = []
        self._patched: list[tuple] = []

    def __enter__(self) -> "Recorder":
        self.absent = []
        for target in self.targets:
            for binding in target.bindings:
                found = _resolve(binding)
                if found is None:
                    self.absent.append(binding)
                    continue
                owner, attr, original = found
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target, original))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()

    def _wrap(self, target: Target, fn):
        spans, stack, name, count = self.spans, self._stack, target.name, target.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)  # reserve the slot so children see their parent's index
            parent = stack[-1] if stack else -1
            stack.append(idx)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.run_id, None)
            if count is not None:
                try:
                    counts = count(args, kwargs, result)
                except (AttributeError, KeyError, IndexError, TypeError):
                    self.count_errors.add(name)
                else:
                    spans[idx] = (name, start, end, parent, self.run_id, counts)
            return result

        return wrapper

    def write(self, path: str, extra: dict) -> None:
        """Write every span (name, start, end, parent, run id, counts) as JSON."""
        payload = dict(extra, absent=self.absent, count_errors=sorted(self.count_errors))
        payload["fields"] = ["name", "start", "end", "parent", "run", "counts"]
        payload["spans"] = [list(s) for s in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh)


class RunSpans:
    """Aggregates over the spans of one run id: totals, self times, counts."""

    def __init__(self, spans: list[tuple], run_id: int) -> None:
        self.n_spans = 0
        self._by_name: dict[str, list[tuple[int, tuple]]] = {}
        self._child_time: dict[int, float] = {}
        for i, s in enumerate(spans):
            if s[4] != run_id:
                continue
            self.n_spans += 1
            self._by_name.setdefault(s[0], []).append((i, s))
            if s[3] >= 0:
                self._child_time[s[3]] = self._child_time.get(s[3], 0.0) + (s[2] - s[1])
        self._all = spans

    def _select(self, name: str, under: str | None):
        for i, s in self._by_name.get(name, ()):
            if under is None or self._has_ancestor(s, under):
                yield i, s

    def _has_ancestor(self, span: tuple, name: str) -> bool:
        parent = span[3]
        while parent >= 0:
            if self._all[parent][0] == name:
                return True
            parent = self._all[parent][3]
        return False

    def total(self, name: str, under: str | None = None) -> float:
        return sum(s[2] - s[1] for _, s in self._select(name, under))

    def self_time(self, name: str) -> float:
        return sum(s[2] - s[1] - self._child_time.get(i, 0.0) for i, s in self._select(name, None))

    def calls(self, name: str, under: str | None = None) -> int:
        return sum(1 for _ in self._select(name, under))

    def count(self, name: str, key: str, under: str | None = None) -> int:
        return sum(s[5][key] for _, s in self._select(name, under) if s[5])

    def durations_us(self, name: str) -> np.ndarray:
        return np.array([(s[2] - s[1]) * 1e6 for _, s in self._select(name, None)])


REPORT_WRITERS = (
    "artifacts.write_manifest",
    "artifacts.write_json",
    "artifacts.write_summary_csv",
    "artifacts.write_user_metrics_csv",
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(run: RunSpans) -> dict[str, float]:
    """Per-layer metrics of one traced repetition, keyed as in BENCHMARK.json.

    `_s` names are inclusive span time, `_self_s` names exclude the time of
    wrapped children. training.* counts only work under pre-training; the
    gate's Adam steps count as prompt.gate_steps.
    """
    spmm = ("propagation.forward", "propagation.forward_backward")
    spmm_s = sum(run.total(n) for n in spmm)
    spmm_flop = sum(run.count(n, "spmm_flop") for n in spmm)
    spmm_bytes = sum(run.count(n, "spmm_bytes") for n in spmm)
    eval_s = run.total("evaluation.evaluate_users")
    users_ranked = run.count("evaluation.evaluate_users", "users_ranked")
    rank_us = run.durations_us("evaluation.rank_items")
    return {
        "data.load_s": run.total("data.load_interactions"),
        "data.lines": run.count("data.load_interactions", "lines"),
        "data.segment_s": run.total("data.segment_snapshots"),
        "data.build_graph_s": run.total("data.build_graph"),
        "data.build_graph_calls": run.calls("data.build_graph"),
        "data.build_graph_edges": run.count("data.build_graph", "edges"),
        "propagation.forward_s": run.total("propagation.forward"),
        "propagation.forward_calls": run.calls("propagation.forward"),
        "propagation.adjoint_s": run.total("propagation.forward_backward"),
        "propagation.adjoint_calls": run.calls("propagation.forward_backward"),
        "propagation.spmm_flop": spmm_flop,
        "propagation.spmm_bytes": spmm_bytes,
        "propagation.spmm_gflop_per_s": _ratio(spmm_flop, spmm_s) / 1e9,
        "propagation.build_weights_s": run.total("propagation.build_weights"),
        "training.bpr_self_s": run.self_time("training.bpr_gradients"),
        "training.adam_s": run.total("training.Adam.step", under="training.pretrain"),
        "training.adam_steps": run.calls("training.Adam.step", under="training.pretrain"),
        "training.sample_negatives_s": run.total("training.sample_negatives", under="training.pretrain"),
        "training.triples": run.count("training.sample_negatives", "triples", under="training.pretrain"),
        "training.pretrain_self_s": run.self_time("training.pretrain"),
        "training.holdout_split_s": run.total("training.holdout_split"),
        "prompt.build_prompt_graph_self_s": run.self_time("prompt.build_prompt_graph"),
        "prompt.prompt_edges": run.count("prompt.build_prompt_graph", "edges"),
        "prompt.finetune_self_s": run.self_time("prompt.finetune"),
        "prompt.apply_gate_s": run.total("prompt.apply_gate"),
        "prompt.gate_gradients_s": run.total("prompt.gate_gradients"),
        "prompt.gate_steps": run.calls("training.Adam.step", under="prompt.finetune"),
        "dynamics.run_dynamic_self_s": run.self_time("dynamics.run_dynamic"),
        "dynamics.run_frozen_self_s": run.self_time("dynamics.run_frozen"),
        "dynamics.cycles": run.count("dynamics.run_dynamic", "cycles"),
        "dynamics.empty_cycles": run.count("dynamics.run_dynamic", "empty_cycles"),
        "evaluation.evaluate_users_s": eval_s,
        "evaluation.calls": run.calls("evaluation.evaluate_users"),
        "evaluation.users_ranked": users_ranked,
        "evaluation.users_per_s": _ratio(users_ranked, eval_s),
        "evaluation.ranked_ratio": _ratio(users_ranked, run.count("evaluation.evaluate_users", "users_in")),
        "evaluation.rank_items_p50_us": float(np.percentile(rank_us, 50)) if rank_us.size else 0.0,
        "evaluation.rank_items_p99_us": float(np.percentile(rank_us, 99)) if rank_us.size else 0.0,
        "evaluation.rank_items_samples": int(rank_us.size),
        "artifacts.write_checkpoint_s": run.total("artifacts.write_checkpoint"),
        "artifacts.checkpoint_bytes": run.count("artifacts.write_checkpoint", "checkpoint_bytes"),
        "artifacts.read_checkpoint_s": run.total("artifacts.read_checkpoint"),
        "artifacts.write_reports_s": sum(run.self_time(n) for n in REPORT_WRITERS),
        "artifacts.sha256_s": run.total("artifacts.sha256_file"),
        "cli.self_s": run.self_time("cli.main"),
        "trace.spans": run.n_spans,
    }
