"""Command-line entry point.

Commands:

* ``pretrain``     — segment a log, train the base table, write a checkpoint
* ``finetune``     — adapt up to one training snapshot, write its checkpoint
* ``run-dynamic``  — the full rolling train/test protocol over all snapshots
* ``evaluate``     — frozen-baseline evaluation of an existing checkpoint
* ``report``       — render a run directory's metrics as a text table

Diagnostics go to stderr; stdout carries only report output. Exit codes:
0 success, 1 runtime failure or invalid input file, 2 configuration or
usage error.
"""

from __future__ import annotations

import argparse
import dataclasses
import logging
import os
import sys

import numpy as np

from .artifacts import (
    read_checkpoint,
    read_json,
    vocab_sha256,
    write_checkpoint,
    write_json,
    write_manifest,
    write_summary_csv,
    write_user_metrics_csv,
)
from .config import RunConfig, load_config, parse_config
from .data import DataError, SnapshotSeries, Vocabulary, load_interactions, segment_snapshots
from .dynamics import CycleArtifacts, DynamicResult, run_dynamic, run_frozen
from .training import PretrainResult, pretrain

log = logging.getLogger("dynrec")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dynrec",
        description="Dynamic graph recommendation: pre-train, adapt per snapshot, evaluate.",
    )
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="path to a key = value config file")
    common.add_argument(
        "--set",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="override one config key (repeatable)",
    )
    common.add_argument("--quiet", action="store_true", help="suppress progress logging")

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("pretrain", parents=[common], help="train the base embedding table")
    p.add_argument("--data", required=True, help="interaction log (user\\titem\\tts_unix)")
    p.add_argument("--out", required=True, help="output run directory")
    p.set_defaults(func=_cmd_pretrain)

    p = sub.add_parser("finetune", parents=[common], help="adapt through one training snapshot")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--snapshot", type=int, required=True, help="1-based training snapshot index")
    p.add_argument("--pretrained", help="checkpoint or run directory to start from")
    p.set_defaults(func=_cmd_finetune)

    p = sub.add_parser("run-dynamic", parents=[common], help="full rolling protocol")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pretrained", help="reuse an existing base checkpoint")
    p.set_defaults(func=_cmd_run_dynamic)

    p = sub.add_parser("evaluate", parents=[common], help="frozen baseline over all test snapshots")
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--pretrained", required=True)
    p.set_defaults(func=_cmd_evaluate)

    p = sub.add_parser("report", parents=[common], help="print a run's metric table")
    p.add_argument("--run", required=True, help="run directory containing metrics.json")
    p.add_argument("--baseline", help="second run directory to compare against")
    p.set_defaults(func=_cmd_report)
    return parser


def _load_cfg(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_config(args.config, args.set)
    return parse_config(None, getattr(args, "set", []))


def _load_series(path: str, cfg: RunConfig) -> SnapshotSeries:
    edges, _ = load_interactions(path)
    series = segment_snapshots(edges, cfg.pretrain_span_seconds, cfg.granularity_seconds)
    log.info(
        "segmented %d interactions: %d users, %d items, %d pre-training edges, %d snapshots",
        len(edges),
        series.n_users,
        series.n_items,
        series.pretrain.n_edges,
        series.n_snapshots,
    )
    return series


def _resolve_checkpoint(path: str) -> str:
    """Accept either a checkpoint directory or a run directory containing one."""
    if os.path.isfile(os.path.join(path, "checkpoint.json")):
        return path
    nested = os.path.join(path, "checkpoints", "pretrain")
    if os.path.isfile(os.path.join(nested, "checkpoint.json")):
        return nested
    raise FileNotFoundError(f"no checkpoint.json under {path!r}")


def _pretrained(
    args, cfg: RunConfig, series: SnapshotSeries
) -> tuple[np.ndarray, PretrainResult | None]:
    """The pre-trained table, with its training result when this run trained it.

    With `--pretrained`, the table is read from that checkpoint, which must
    be of kind "pretrain" and written for this log's vocabulary; otherwise
    it is trained on the log's pre-training graph.
    """
    if not getattr(args, "pretrained", None):
        trained = pretrain(
            series.pretrain,
            cfg.d,
            cfg.layers,
            cfg.tau_seconds,
            cfg.train_config(),
            no_temporal=cfg.no_temporal,
            init_std=cfg.init_std,
        )
        return trained.embeddings, trained
    ckpt_dir = _resolve_checkpoint(args.pretrained)
    embeddings, meta, _ = read_checkpoint(ckpt_dir)
    if meta["kind"] != "pretrain":
        raise DataError(f"checkpoint {ckpt_dir} is a {meta['kind']!r} checkpoint, not 'pretrain'")
    if meta["d"] != cfg.d:
        raise ValueError(f"checkpoint dimension {meta['d']} does not match config d={cfg.d}")
    digest = vocab_sha256(series.vocab)
    if meta["vocab_sha256"] != digest:
        raise DataError(
            f"checkpoint {ckpt_dir} was written for another log: its vocabulary "
            f"digest is {meta['vocab_sha256']}, this log's is {digest}"
        )
    return embeddings, None


def _start_run_tree(
    args, cfg: RunConfig, series: SnapshotSeries, trained: PretrainResult | None
) -> None:
    """Create the run directory: manifest, segments and the table this run trained.

    A run that read its table with `--pretrained` names that checkpoint's
    sidecar among the manifest's inputs instead of writing the table again.
    """
    inputs = [args.data]
    if getattr(args, "pretrained", None):
        inputs.append(os.path.join(_resolve_checkpoint(args.pretrained), "checkpoint.json"))
    os.makedirs(args.out, exist_ok=True)
    write_manifest(args.out, args.command, cfg, inputs)
    write_json(os.path.join(args.out, "segments.json"), series.manifest())
    if trained is not None:
        write_json(os.path.join(args.out, "pretrain_log.json"), trained.log)
        write_checkpoint(
            os.path.join(args.out, "checkpoints", "pretrain"),
            trained.embeddings,
            series.vocab,
            kind="pretrain",
            optimizer_step=trained.optimizer_steps,
            extra={"best_epoch": trained.best_epoch, "best_recall": trained.best_recall},
        )


def _write_cycle(args, vocab: Vocabulary, n: int, cycle: CycleArtifacts) -> None:
    """Write cycle n's per-user metrics and, where the command keeps it, its table.

    `run-dynamic` keeps every cycle's table, `finetune` only snapshot N's,
    and `evaluate` none, since it ranks the pre-trained table unchanged.
    """
    write_user_metrics_csv(os.path.join(args.out, "per_user", f"cycle_{n:03d}.csv"), cycle.report)
    if args.command == "evaluate" or (args.command == "finetune" and n != args.snapshot):
        return
    write_checkpoint(
        os.path.join(args.out, "checkpoints", f"snapshot_{n:03d}"),
        cycle.embeddings,
        vocab,
        kind="finetune",
        optimizer_step=cycle.optimizer_steps,
        gate=cycle.gate,
        extra={"snapshot": n} if args.command == "finetune" else None,
    )


def _run_protocol(args, cfg: RunConfig, series: SnapshotSeries, protocol) -> DynamicResult:
    """Run `protocol` (`run_dynamic` or `run_frozen`) into a run tree, one cycle at a time.

    Each cycle's files are written as it ends; `metrics.json` and
    `summary.csv` are written last, so a run that fails mid-way leaves the
    finished cycles' files and no metrics.
    """
    x_p, trained = _pretrained(args, cfg, series)
    _start_run_tree(args, cfg, series, trained)
    os.makedirs(os.path.join(args.out, "per_user"), exist_ok=True)
    result = protocol(series, cfg, x_p, lambda n, cycle: _write_cycle(args, series.vocab, n, cycle))
    write_json(
        os.path.join(args.out, "metrics.json"),
        {"records": result.records, "summary": result.summary()},
    )
    write_summary_csv(os.path.join(args.out, "summary.csv"), result.records)
    return result


def _cmd_pretrain(args, cfg: RunConfig) -> int:
    series = _load_series(args.data, cfg)
    _, trained = _pretrained(args, cfg, series)
    _start_run_tree(args, cfg, series, trained)
    log.info(
        "pre-training done: best epoch %d, held-out recall %.4f",
        trained.best_epoch,
        trained.best_recall,
    )
    return 0


def _cmd_run_dynamic(args, cfg: RunConfig) -> int:
    series = _load_series(args.data, cfg)
    summary = _run_protocol(args, cfg, series, run_dynamic).summary()
    log.info(
        "dynamic run done: %d cycles, macro recall %.4f, macro ndcg %.4f",
        summary["n_cycles"],
        summary["macro_recall"],
        summary["macro_ndcg"],
    )
    return 0


def _cmd_finetune(args, cfg: RunConfig) -> int:
    series = _load_series(args.data, cfg)
    n = args.snapshot
    if not 1 <= n <= series.n_snapshots - 1:
        raise ValueError(
            f"--snapshot must lie in [1, {series.n_snapshots - 1}] so a test "
            f"snapshot follows it; got {n}"
        )
    truncated = dataclasses.replace(
        series,
        snapshots=series.snapshots[: n + 1],
        boundaries=series.boundaries[: n + 1],
    )
    result = _run_protocol(args, cfg, truncated, run_dynamic)
    log.info(
        "fine-tuned through snapshot %d: recall %.4f on snapshot %d",
        n,
        result.records[-1]["recall"],
        n + 1,
    )
    return 0


def _cmd_evaluate(args, cfg: RunConfig) -> int:
    series = _load_series(args.data, cfg)
    summary = _run_protocol(args, cfg, series, run_frozen).summary()
    log.info(
        "frozen evaluation done: %d cycles, macro recall %.4f",
        summary["n_cycles"],
        summary["macro_recall"],
    )
    return 0


def _format_metrics(tag: str, payload: dict) -> list[str]:
    lines = [f"== {tag} =="]
    header = f"{'cycle':>5} {'test':>5} {'users':>6} {'recall':>8} {'ndcg':>8} {'epochs':>6}  note"
    lines.append(header)
    for rec in payload["records"]:
        lines.append(
            f"{rec['cycle']:>5} {rec['test_snapshot']:>5} {rec['n_eval_users']:>6} "
            f"{rec['recall']:>8.4f} {rec['ndcg']:>8.4f} {rec['epochs']:>6}  "
            f"{rec.get('warning') or ''}"
        )
    s = payload["summary"]
    lines.append(
        f"macro recall {s['macro_recall']:.4f}  macro ndcg {s['macro_ndcg']:.4f}  "
        f"micro recall {s['micro_recall']:.4f}  micro ndcg {s['micro_ndcg']:.4f}"
    )
    return lines


def _cmd_report(args, cfg: RunConfig) -> int:
    payload = read_json(os.path.join(args.run, "metrics.json"))
    for line in _format_metrics(args.run, payload):
        print(line)
    if args.baseline:
        base = read_json(os.path.join(args.baseline, "metrics.json"))
        for line in _format_metrics(args.baseline, base):
            print(line)
        ours = payload["summary"]["macro_recall"]
        theirs = base["summary"]["macro_recall"]
        if theirs > 0:
            print(f"macro recall ratio vs baseline: {ours / theirs:.4f}")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.WARNING if args.quiet else logging.INFO,
        format="%(levelname)s %(message)s",
    )
    try:
        cfg = _load_cfg(args)
    except (ValueError, OSError) as exc:
        log.error("configuration error: %s", exc)
        return 2
    try:
        return args.func(args, cfg)
    except DataError as exc:
        log.error("invalid input: %s", exc)
        return 1
    except ValueError as exc:
        log.error("%s", exc)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        log.error("%s", exc)
        return 1


if __name__ == "__main__":
    sys.exit(main())
