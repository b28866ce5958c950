"""Deterministic on-disk artifacts: checkpoints, manifests, metric tables.

Every writer here is byte-stable: JSON is emitted with sorted keys and a
fixed layout, arrays go through `.npy` (whose header depends only on dtype
and shape), and CSV floats use `repr` so no formatting state leaks in. Two
runs with the same config, seed and input data produce identical bytes.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os

import numpy as np

from .config import RunConfig
from .data import DataError, Vocabulary
from .prompt import GateParams


def stable_json(obj) -> str:
    """Canonical JSON text: sorted keys, two-space indent, trailing newline."""
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": ")) + "\n"


def write_json(path: str, obj) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(stable_json(obj))


def read_json(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def vocab_sha256(vocab: Vocabulary) -> str:
    """SHA-256 of the vocabulary's raw user ids then item ids, as little-endian int64."""
    digest = hashlib.sha256(vocab.users.astype("<i8").tobytes())
    digest.update(vocab.items.astype("<i8").tobytes())
    return digest.hexdigest()


def write_manifest(out_dir: str, command: str, cfg: RunConfig, inputs: list[str]) -> str:
    """Record what produced a run directory: command, config, input digests."""
    config_dict = cfg.to_dict()
    manifest = {
        "command": command,
        "seed": cfg.seed,
        "config": config_dict,
        "config_sha256": sha256_text(stable_json(config_dict)),
        "inputs": [{"path": p, "sha256": sha256_file(p)} for p in inputs],
    }
    path = os.path.join(out_dir, "manifest.json")
    write_json(path, manifest)
    return path


def write_checkpoint(
    out_dir: str,
    embeddings: np.ndarray,
    vocab: Vocabulary,
    *,
    kind: str,
    optimizer_step: int = 0,
    gate: GateParams | None = None,
    extra: dict | None = None,
) -> None:
    """Write an embedding-table checkpoint: arrays plus a JSON sidecar.

    `kind` distinguishes pre-training checkpoints from per-snapshot ones;
    snapshot checkpoints may carry the tuned gate arrays alongside. The
    sidecar records the SHA-256 digest of every array file, taken from the
    bytes as they are written, and `vocab_sha256`, which binds the table's
    rows to the raw ids of the log it was trained on.
    """
    os.makedirs(out_dir, exist_ok=True)
    arrays = {"embeddings.npy": embeddings}
    if gate is not None:
        arrays.update({"gate_w.npy": gate.w, "gate_b.npy": gate.b})
    digests = {}
    for name, array in arrays.items():
        buf = io.BytesIO()
        np.save(buf, array)
        with open(os.path.join(out_dir, name), "wb") as fh:
            fh.write(buf.getbuffer())
        digests[name] = hashlib.sha256(buf.getbuffer()).hexdigest()
    meta = {
        "kind": kind,
        "d": int(embeddings.shape[1]),
        "n_users": vocab.n_users,
        "n_items": vocab.n_items,
        "rows": int(embeddings.shape[0]),
        "optimizer_step": int(optimizer_step),
        "has_gate": gate is not None,
        "sha256": digests,
        "vocab_sha256": vocab_sha256(vocab),
    }
    if extra:
        meta.update(extra)
    write_json(os.path.join(out_dir, "checkpoint.json"), meta)


def read_checkpoint(ckpt_dir: str) -> tuple[np.ndarray, dict, GateParams | None]:
    """Load a checkpoint directory; verifies array digests and shapes.

    Each array file is read once: its digest is checked on those bytes,
    which are then parsed. Raises DataError when the sidecar lacks a key
    read here, an array file does not match its recorded digest or the
    sidecar disagrees with the arrays.
    """
    meta = read_json(os.path.join(ckpt_dir, "checkpoint.json"))
    for key in ("kind", "d", "n_users", "n_items", "rows", "has_gate", "sha256", "vocab_sha256"):
        if key not in meta:
            raise DataError(f"checkpoint sidecar in {ckpt_dir} has no {key!r} key")
    arrays = {}
    names = ["embeddings.npy"] + (["gate_w.npy", "gate_b.npy"] if meta["has_gate"] else [])
    for name in names:
        with open(os.path.join(ckpt_dir, name), "rb") as fh:
            data = fh.read()
        if hashlib.sha256(data).hexdigest() != meta["sha256"].get(name):
            raise DataError(f"checkpoint mismatch: {name} does not match its SHA-256 digest")
        arrays[name] = np.load(io.BytesIO(data))
    embeddings = arrays["embeddings.npy"]
    if embeddings.shape != (meta["rows"], meta["d"]):
        raise DataError(
            f"checkpoint mismatch: sidecar says {(meta['rows'], meta['d'])}, "
            f"array is {embeddings.shape}"
        )
    if meta["rows"] != meta["n_users"] + meta["n_items"]:
        raise DataError("checkpoint mismatch: rows != n_users + n_items")
    gate = None
    if meta["has_gate"]:
        gate = GateParams(w=arrays["gate_w.npy"], b=arrays["gate_b.npy"])
    return embeddings, meta, gate


_SUMMARY_COLUMNS = [
    "cycle",
    "train_snapshot",
    "test_snapshot",
    "n_train_edges",
    "n_eval_users",
    "recall",
    "ndcg",
    "tuned_n_users",
    "tuned_recall",
    "tuned_ndcg",
    "untuned_n_users",
    "untuned_recall",
    "untuned_ndcg",
    "epochs",
    "warning",
]


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def write_summary_csv(path: str, records: list[dict]) -> None:
    """Flatten per-cycle records into one CSV row per cycle."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(_SUMMARY_COLUMNS)
        for rec in records:
            flat = dict(rec)
            for group in ("tuned", "untuned"):
                sub = flat.pop(group)
                for key, value in sub.items():
                    flat[f"{group}_{key}"] = value
            writer.writerow(_cell(flat.get(col)) for col in _SUMMARY_COLUMNS)


def write_user_metrics_csv(path: str, report) -> None:
    """One row per evaluated user: vocabulary index (not raw id), recall, normalized DCG."""
    rows = zip(report.users.tolist(), report.recalls.tolist(), report.ndcgs.tolist())
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("user,recall,ndcg\n" + "".join(f"{u},{r!r},{g!r}\n" for u, r, g in rows))
