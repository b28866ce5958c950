#!/usr/bin/env python3
"""dynrec benchmark: one workload, one fresh process, outputs checked.

Usage, from the repository root:

    python3 perfbench/run.py --workload train-heavy --seed 0 --seconds 30 --trace 0

The workload's interaction log is generated from --seed with
dynrec.synthetic.drift_series and written to disk before any timing starts;
the program only ever sees that file. One caller then runs the workload's
stages back to back (a closed loop), repeating the whole pipeline until
--seconds is used up, at least three times untraced. Each end-to-end metric
is the median over repetitions. With --trace 1 repetitions alternate between
untraced and traced; the traced ones wrap dynrec's public functions (see
spans.py) and give the per-layer metrics, and the difference in wall time
is the tracing overhead.

Every stage call or CLI command is one operation. An operation fails if it
raises, exits non-zero or fails an output check: metrics finite and in
[0, 1], one cycle per snapshot pair, result digests identical across
repetitions and across runs of the same code, workload and seed, and, on
the reference seed, the recorded log digest and metric values.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the lines before it are the same
numbers for people, with sample counts and the machine block. Spans of a
traced run and every sample are kept under .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import hashlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
NPROC = len(os.sched_getaffinity(0))
MIN_UNTRACED_REPS = 3
# The operation whose output each protocol result is, library and CLI.
PROTOCOL_OPS = {"dynamic": ("run_dynamic", "run-dynamic"), "frozen": ("run_frozen", "evaluate")}
# Reference values recorded in workloads.json: (name there, key in the summary).
REFERENCE_VALUES = {
    "dynamic": (("macro_recall", "macro_recall"), ("macro_ndcg", "macro_ndcg")),
    "frozen": (("frozen_macro_recall", "macro_recall"),),
}

# BLAS threads are fixed before numpy loads, never more than the cores this
# process may run on.
os.environ["OPENBLAS_NUM_THREADS"] = str(min(int(os.environ.get("OPENBLAS_NUM_THREADS", NPROC)), NPROC))


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


if not os.path.isfile(os.path.join(SRC, "dynrec", "__init__.py")):
    _fail(f"no dynrec sources under {SRC}; run from a checkout of the repository")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from dynrec import cli, data, dynamics, synthetic, training  # noqa: E402
from dynrec.config import parse_config  # noqa: E402

import spans  # noqa: E402


# -- machine ------------------------------------------------------------------


def _blas_threads() -> int | None:
    """Thread count of the OpenBLAS bundled with numpy, if it can be asked."""
    libs = os.path.join(os.path.dirname(np.__path__[0]), "numpy.libs")
    names = sorted(n for n in os.listdir(libs) if "openblas" in n) if os.path.isdir(libs) else []
    for name in names:
        lib = ctypes.CDLL(os.path.join(libs, name))  # already loaded; this only finds it
        for symbol in (
            "scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"
        ):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_block() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": NPROC,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
    }


# -- workload inputs ------------------------------------------------------------


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def source_digest() -> str:
    """Digest of the dynrec sources, so cached result digests follow the code."""
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "dynrec")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            digest.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                digest.update(fh.read())
    return digest.hexdigest()[:16]


def config_text(spec: dict, workload: dict) -> str:
    values = dict(spec["shared_config"], **workload["config"])
    return "".join(f"{k} = {str(v).lower() if isinstance(v, bool) else v}\n" for k, v in values.items())


def payload_digest(payload: dict) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def check_payload(payload: dict, n_snapshots: int) -> list[str]:
    """Problems with one protocol result ({"records", "summary"}), if any."""
    problems = []
    records, summary = payload["records"], payload["summary"]
    if len(records) != n_snapshots - 1 or summary["n_cycles"] != n_snapshots - 1:
        problems.append(f"{len(records)} cycles for {n_snapshots} snapshots")
    values = [summary[k] for k in ("macro_recall", "macro_ndcg", "micro_recall", "micro_ndcg")]
    for rec in records:
        values += [rec["recall"], rec["ndcg"]]
        values += [rec[g][m] for g in ("tuned", "untuned") for m in ("recall", "ndcg")]
    bad = [v for v in values if not (isinstance(v, (int, float)) and math.isfinite(v) and 0.0 <= v <= 1.0)]
    if bad:
        problems.append(f"{len(bad)} metric values not finite or outside [0, 1], e.g. {bad[0]!r}")
    return problems


# -- one repetition -------------------------------------------------------------


class Rep:
    """Stage times, operation outcomes and protocol results of one repetition."""

    def __init__(self, run_id: int, traced: bool) -> None:
        self.run_id = run_id
        self.traced = traced
        self.times: dict[str, float] = {}
        self.ops: dict[str, str | None] = {}  # operation -> problem, None if it passed
        self.payloads: dict[str, dict] = {}  # "dynamic"/"frozen" -> {"records", "summary"}
        self.elapsed = 0.0

    @property
    def failed(self) -> int:
        return sum(problem is not None for problem in self.ops.values())

    def call(self, op: str, fn, *args, **kwargs):
        """Run one operation; a raised exception is its failure, not the run's."""
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:  # noqa: BLE001 - every failure is counted, not fatal
            self.ops[op] = f"raised {type(exc).__name__}: {exc}"
            return False, None
        self.ops[op] = None
        return True, result

    def flag(self, op: str, problems: list[str]) -> None:
        if problems:
            self.ops[op] = "; ".join(filter(None, [self.ops[op], *problems]))


def library_rep(rep: Rep, log_path: str, cfg_lines: list[str]) -> None:
    """load -> segment -> pretrain -> run_dynamic(pretrained) -> run_frozen."""
    cfg = parse_config(cfg_lines)
    t0 = time.perf_counter()
    ok, loaded = rep.call("load", data.load_interactions, log_path)
    if not ok:
        return
    ok, series = rep.call(
        "segment", data.segment_snapshots, loaded[0], cfg.pretrain_span_seconds, cfg.granularity_seconds
    )
    if not ok:
        return
    t1 = time.perf_counter()
    ok, pre = rep.call(
        "pretrain", training.pretrain, series.pretrain, cfg.d, cfg.layers, cfg.tau_seconds,
        cfg.train_config(), no_temporal=cfg.no_temporal, init_std=cfg.init_std,
    )
    if not ok:
        return
    t2 = time.perf_counter()
    ok, dyn = rep.call("run_dynamic", dynamics.run_dynamic, series, cfg, pre.embeddings)
    if not ok:
        return
    t3 = time.perf_counter()
    ok, fro = rep.call("run_frozen", dynamics.run_frozen, series, cfg, pre.embeddings)
    if not ok:
        return
    t4 = time.perf_counter()
    rep.times.update(pretrain_s=t2 - t1, dynamic_s=t3 - t2, frozen_s=t4 - t3, wall_s=t4 - t0)
    rep.flag("pretrain", [] if np.isfinite(pre.embeddings).all() else ["non-finite embeddings"])
    for op, kind, result in (("run_dynamic", "dynamic", dyn), ("run_frozen", "frozen", fro)):
        rep.payloads[kind] = {"records": result.records, "summary": result.summary()}
        rep.flag(op, check_payload(rep.payloads[kind], series.n_snapshots))


def cli_rep(rep: Rep, log_path: str, cfg_path: str, run_dir: str) -> None:
    """dynrec pretrain -> run-dynamic --pretrained -> evaluate -> report, in-process."""
    common = ["--config", cfg_path, "--data", log_path, "--quiet"]
    pre, dyn, fro = (os.path.join(run_dir, n) for n in ("pretrain", "dynamic", "frozen"))
    commands = [
        ("pretrain", "pretrain_s", ["pretrain", *common, "--out", pre]),
        ("run-dynamic", "dynamic_s", ["run-dynamic", *common, "--out", dyn, "--pretrained", pre]),
        ("evaluate", "frozen_s", ["evaluate", *common, "--out", fro, "--pretrained", pre]),
        ("report", "report_s", ["report", "--run", dyn, "--baseline", fro, "--quiet"]),
    ]
    printed = io.StringIO()
    for op, stage, argv in commands:
        start = time.perf_counter()
        with contextlib.redirect_stdout(printed):
            ok, code = rep.call(op, cli.main, argv)
        rep.times[stage] = time.perf_counter() - start
        if not ok or code != 0:
            rep.flag(op, [f"exit code {code}"] if ok else [])
            return
    rep.times["wall_s"] = sum(rep.times[stage] for _, stage, _ in commands)

    checkpoint = os.path.join(pre, "checkpoints", "pretrain", "checkpoint.json")
    rep.flag("pretrain", [] if os.path.isfile(checkpoint) else ["no checkpoint"])
    rep.flag("report", [] if "macro recall ratio" in printed.getvalue() else ["no comparison printed"])
    for op, kind, out in (("run-dynamic", "dynamic", dyn), ("evaluate", "frozen", fro)):
        with open(os.path.join(out, "metrics.json"), encoding="utf-8") as fh:
            rep.payloads[kind] = json.load(fh)
        with open(os.path.join(out, "segments.json"), encoding="utf-8") as fh:
            n_snapshots = len(json.load(fh)["edge_counts"])
        rep.flag(op, check_payload(rep.payloads[kind], n_snapshots))


# -- the run ---------------------------------------------------------------------


class Bench:
    """One workload in one process: its inputs, repetitions, recorders and checks."""

    def __init__(self, args, spec: dict) -> None:
        self.args = args
        self.spec = spec
        self.workload = spec["workloads"][args.workload]
        self.work = os.path.join(OUT, f"work-{args.workload}-seed{args.seed}-{os.getpid()}")
        self.setup = spans.Recorder(spans.SETUP_TARGETS)
        self.tracer = spans.Recorder(spans.TARGETS)
        self.reps: list[Rep] = []
        self.input_problems: list[str] = []

    def prepare(self) -> None:
        """Generate the log from the seed and write the config; nothing timed."""
        os.makedirs(self.work)
        self.log_path = os.path.join(self.work, "log.tsv")
        log = synthetic.drift_series(seed=self.args.seed, **self.workload["generator"])
        synthetic.write_tsv(self.log_path, log)
        del log
        self.log_sha256 = sha256_file(self.log_path)
        ref = self.workload["reference"]
        if self.args.seed == ref["seed"] and self.log_sha256 != ref["log_sha256"]:
            self.input_problems.append(
                f"log digest {self.log_sha256} differs from the recorded one for seed {ref['seed']}"
            )
        if self.args.seed != ref["seed"] and self.log_sha256 == ref["log_sha256"]:
            self.input_problems.append(f"seed {self.args.seed} gives the same log as seed {ref['seed']}")
        text = config_text(self.spec, self.workload)
        self.cfg_lines = text.splitlines()
        self.cfg_path = os.path.join(self.work, "run.cfg")
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            fh.write(text)

    def run_rep(self, run_id: int, traced: bool) -> Rep:
        rep = Rep(run_id, traced)
        recorder = self.tracer if traced else self.setup
        recorder.run_id = run_id
        run_dir = os.path.join(self.work, f"run{run_id}")
        gc.collect()
        start = time.perf_counter()
        with recorder:
            if self.workload["entry"] == "cli":
                cli_rep(rep, self.log_path, self.cfg_path, run_dir)
            else:
                library_rep(rep, self.log_path, self.cfg_lines)
        setup = spans.RunSpans(recorder.spans, run_id)
        rep.times["setup_s"] = setup.total("data.load_interactions") + setup.total("data.segment_snapshots")
        shutil.rmtree(run_dir, ignore_errors=True)
        rep.elapsed = time.perf_counter() - start
        return rep

    def measure(self) -> None:
        """Repeat the pipeline until --seconds is used; alternate when tracing."""
        start = time.perf_counter()
        while True:
            traced = bool(self.args.trace) and len(self.reps) % 2 == 1
            rep = self.run_rep(len(self.reps), traced)
            self.reps.append(rep)
            if rep.failed or "wall_s" not in rep.times:
                break
            if self.args.trace:
                enough = any(r.traced for r in self.reps)
            else:
                enough = len(self.reps) >= MIN_UNTRACED_REPS
            longest = max(r.elapsed for r in self.reps)
            if enough and time.perf_counter() - start + longest > self.args.seconds:
                break

    def check_results(self) -> None:
        """Digests across repetitions and runs, and the reference values."""
        ref = self.workload["reference"]
        cache_path = os.path.join(OUT, "digests.json")
        cache = {}
        if os.path.isfile(cache_path):
            with open(cache_path, encoding="utf-8") as fh:
                cache = json.load(fh)
        inputs = config_text(self.spec, self.workload) + self.log_sha256
        key = (
            f"{self.args.workload}/seed{self.args.seed}/src-{source_digest()}"
            f"/input-{hashlib.sha256(inputs.encode()).hexdigest()[:16]}"
        )
        first = cache.get(key)
        for rep in self.reps:
            digests = {kind: payload_digest(p) for kind, p in rep.payloads.items()}
            if first is None and len(digests) == 2:
                first = cache[key] = digests
                with open(cache_path, "w", encoding="utf-8") as fh:
                    json.dump(cache, fh, indent=1, sort_keys=True)
            for kind, digest in digests.items():
                problems = []
                if first is not None and digest != first[kind]:
                    problems.append(
                        f"{kind} result digest differs from the first run of this code, workload and seed"
                    )
                if self.args.seed == ref["seed"]:
                    summary = rep.payloads[kind]["summary"]
                    for name, key_in_summary in REFERENCE_VALUES[kind]:
                        got = summary[key_in_summary]
                        if got != ref[name]:
                            problems.append(f"{name} {got!r} differs from the reference {ref[name]!r}")
                op = next(op for op in PROTOCOL_OPS[kind] if op in rep.ops)
                rep.flag(op, problems)

    def end_to_end(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        plain = [r for r in self.reps if not r.traced and "wall_s" in r.times]
        stages = ("setup_s", "pretrain_s", "dynamic_s", "frozen_s", "wall_s")
        samples = {name: [r.times[name] for r in plain] for name in stages}
        values = {name: statistics.median(v) for name, v in samples.items() if v}
        values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if plain:
            values["macro_recall"] = plain[0].payloads["dynamic"]["summary"]["macro_recall"]
            values["macro_ndcg"] = plain[0].payloads["dynamic"]["summary"]["macro_ndcg"]
            values["frozen_macro_recall"] = plain[0].payloads["frozen"]["summary"]["macro_recall"]
        return values, samples

    def per_layer(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        traced = [r for r in self.reps if r.traced and "wall_s" in r.times]
        plain = [r for r in self.reps if not r.traced and "wall_s" in r.times]
        per_rep = [spans.layer_metrics(spans.RunSpans(self.tracer.spans, r.run_id)) for r in traced]
        samples = {name: [m[name] for m in per_rep] for name in (per_rep[0] if per_rep else {})}
        values = {name: statistics.median(v) for name, v in samples.items()}
        if traced and plain:
            untraced_wall = statistics.median(r.times["wall_s"] for r in plain)
            samples["trace.overhead_s"] = [r.times["wall_s"] - untraced_wall for r in traced]
            values["trace.overhead_s"] = statistics.median(samples["trace.overhead_s"])
        values["trace.absent_targets"] = len(self.tracer.absent) + len(self.tracer.count_errors)
        return values, samples


def load_json(path: str) -> dict:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def parse_args(names: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=names)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True, help="measuring time; at least three repetitions run")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    return args


def report(
    bench: Bench, metrics: dict, samples: dict, defs: list[dict], machine: dict, attempted: int, failed: int
) -> None:
    args = bench.args
    print("machine: " + " ".join(f"{k}={v}" for k, v in machine.items()))
    print(
        f"workload {args.workload} seed {args.seed} trace {args.trace}: {len(bench.reps)} repetitions, "
        f"{attempted} operations, {failed} failed, fail_rate {failed / max(attempted, 1):.4f}"
    )
    for d in defs:
        n = len(samples.get(d["name"], []))
        median_of = f" median of {n}" if n else ""
        print(f"  {d['name']:<34} {metrics[d['name']]:>16.6g} {d['unit']:<8}{median_of}")
    if not args.trace:
        # Seed-dependent by design, so not bounded metrics; checked bitwise instead.
        for name in ("macro_recall", "macro_ndcg", "frozen_macro_recall"):
            if name in metrics:
                print(f"  {name:<34} {metrics[name]!r:>16} fraction (identical in every repetition)")
    for problem in bench.input_problems:
        print(f"  FAILED input: {problem}")
    for rep in bench.reps:
        for op, problem in rep.ops.items():
            if problem:
                print(f"  FAILED repetition {rep.run_id} {op}: {problem}")
    if args.trace:
        for binding in bench.tracer.absent:
            print(f"  absent wrap target: {binding}")
        for name in sorted(bench.tracer.count_errors):
            print(f"  counter failed, counts absent: {name}")


def main() -> int:
    spec = load_json(os.path.join(HERE, "workloads.json"))
    bench_def = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(sorted(spec["workloads"]))
    machine = machine_block()
    bench = Bench(args, spec)
    os.makedirs(OUT, exist_ok=True)
    try:
        bench.prepare()
        bench.measure()
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    bench.check_results()

    if args.trace:
        values, samples = bench.per_layer()
        defs = bench_def["per_layer"]
        os.makedirs(os.path.join(OUT, "traces"), exist_ok=True)
        bench.tracer.write(
            os.path.join(OUT, "traces", f"{args.workload}-seed{args.seed}.json"),
            {"workload": args.workload, "seed": args.seed, "machine": machine},
        )
    else:
        values, samples = bench.end_to_end()
        defs = bench_def["end_to_end"]

    # generating the log from the seed counts as one more operation
    attempted = sum(len(r.ops) for r in bench.reps) + 1
    failed = sum(r.failed for r in bench.reps) + bool(bench.input_problems)
    missing = [d["name"] for d in defs if d["name"] not in values]
    correct = failed == 0 and not missing
    metrics = {d["name"]: {"value": values.get(d["name"], 0.0), "unit": d["unit"]} for d in defs}
    report(bench, values | {m: 0.0 for m in missing}, samples, defs, machine, attempted, failed)
    for name in missing:
        print(f"  FAILED metric not measured: {name}")

    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    result_path = os.path.join(OUT, "results", f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(result_path, "w", encoding="utf-8") as fh:
        payload = {"machine": machine, "values": values, "samples": samples, "log_sha256": bench.log_sha256}
        json.dump(payload, fh, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
