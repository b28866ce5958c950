"""Config parsing, artifact writers and the command-line workflow."""
from __future__ import annotations

import dataclasses
import io
import json
import os
import re
import shutil
from pathlib import Path

import numpy as np
import pytest

import dynrec.dynamics as dynamics
from dynrec.artifacts import (
    read_checkpoint,
    read_json,
    sha256_file,
    sha256_text,
    stable_json,
    vocab_sha256,
    write_checkpoint,
    write_json,
    write_manifest,
    write_summary_csv,
    write_user_metrics_csv,
)
from dynrec.cli import main
from dynrec.config import RunConfig, _coerce, load_config, parse_config
from dynrec.data import DataError, Vocabulary, load_interactions
from dynrec.evaluation import MetricsReport
from dynrec.prompt import GateParams
from dynrec.synthetic import drift_series, write_tsv

# -- config ----------------------------------------------------------------


def test_defaults_round_trip_through_mapping():
    cfg = RunConfig()
    assert RunConfig(**cfg.to_dict()) == cfg


def test_parse_config_file_and_overrides():
    text = io.StringIO(
        """
        # model size
        d = 16
        layers = 2
        no_gate = true   # ablation
        learning_rate = 5e-3
        """
    )
    cfg = parse_config(text, overrides=["d=32", "phi=-0.25"])
    assert cfg.d == 32  # override wins over the file
    assert cfg.layers == 2
    assert cfg.no_gate is True
    assert cfg.learning_rate == pytest.approx(5e-3)
    assert cfg.phi == -0.25


@pytest.mark.parametrize("raw, value", [("true", True), ("1", True), ("Yes", True), ("on", True), ("false", False), ("0", False), ("No", False), ("off", False)])
def test_parse_config_bool_spellings(raw, value):
    assert parse_config(None, [f"no_temporal={raw}"]).no_temporal is value


@pytest.mark.parametrize(
    "source, match",
    [
        (["bogus = 1\n"], "unknown config key"),
        (["d 16\n"], "malformed config line 1"),
        (["d = x\n"], "expected an integer"),
        (["phi = x\n"], "expected a number"),
        (["no_gate = maybe\n"], "expected a boolean"),
        # removed keys
        (["deterministic = true\n"], "unknown config key"),
        (["random_gate_std = 0.05\n"], "unknown config key"),
    ],
)
def test_parse_config_rejects_bad_input(source, match):
    with pytest.raises(ValueError, match=match):
        parse_config(source)


def test_parse_config_rejects_malformed_override():
    with pytest.raises(ValueError, match="malformed override"):
        parse_config(None, ["d"])


def test_config_validation_applies_to_parsed_values():
    with pytest.raises(ValueError, match="omega"):
        parse_config(None, ["omega=0"])


def test_derived_second_quantities():
    cfg = RunConfig(tau_hours=6.0, pretrain_span_hours=1.5, granularity_hours=0.5)
    assert cfg.tau_seconds == 6 * 3600.0
    assert cfg.pretrain_span_seconds == 5400
    assert cfg.granularity_seconds == 1800


def test_train_config_caps_patience():
    cfg = RunConfig(max_epochs=5, patience=10)
    tc = cfg.train_config()
    assert tc.max_epochs == 5 and tc.patience == 5


def test_train_config_validates_at_the_ranking_cutoff():
    assert RunConfig(k=5).train_config().eval_k == 5


def test_readme_config_table_lists_every_field_with_its_default():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    table = readme.split("## Configuration keys", 1)[1].split("\n## ", 1)[0]
    # (key, default) of each row
    rows = [
        [cell.strip(" `") for cell in line.split("|")[1:3]]
        for line in table.splitlines()
        if line.startswith("| `")
    ]
    assert [key for key, _ in rows] == [f.name for f in dataclasses.fields(RunConfig)]
    defaults = RunConfig()
    for key, raw in rows:
        assert _coerce(key, raw) == getattr(defaults, key), key


# -- artifacts -------------------------------------------------------------


def test_stable_json_layout():
    assert stable_json({"b": 1, "a": 2}) == '{\n  "a": 2,\n  "b": 1\n}\n'


def test_sha256_known_vector():
    assert (
        sha256_text("abc")
        == "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
    )


def test_json_round_trip(tmp_path):
    path = str(tmp_path / "x.json")
    write_json(path, {"k": [1, 2, 3]})
    assert read_json(path) == {"k": [1, 2, 3]}


TWO_BY_TWO = Vocabulary(users=np.arange(2), items=np.arange(2))


def test_checkpoint_round_trip_with_gate(tmp_path):
    out = str(tmp_path / "ckpt")
    emb = np.arange(12.0).reshape(4, 3)
    gate = GateParams(w=np.eye(3), b=np.ones(3))
    write_checkpoint(
        out, emb, TWO_BY_TWO, kind="finetune", optimizer_step=7, gate=gate,
        extra={"snapshot": 2},
    )
    loaded, meta, loaded_gate = read_checkpoint(out)
    assert np.array_equal(loaded, emb)
    assert meta["kind"] == "finetune" and meta["optimizer_step"] == 7
    assert meta["snapshot"] == 2 and meta["has_gate"] is True
    assert meta["vocab_sha256"] == vocab_sha256(TWO_BY_TWO)
    assert np.array_equal(loaded_gate.w, gate.w)
    assert np.array_equal(loaded_gate.b, gate.b)


def test_checkpoint_detects_tampered_sidecar(tmp_path):
    out = str(tmp_path / "ckpt")
    write_checkpoint(out, np.zeros((4, 3)), TWO_BY_TWO, kind="pretrain")
    meta = read_json(os.path.join(out, "checkpoint.json"))
    meta["rows"] = 99
    write_json(os.path.join(out, "checkpoint.json"), meta)
    with pytest.raises(ValueError, match="mismatch"):
        read_checkpoint(out)


def test_checkpoint_refuses_flipped_array_byte(tmp_path):
    out = str(tmp_path / "ckpt")
    write_checkpoint(out, np.arange(12.0).reshape(4, 3), TWO_BY_TWO, kind="pretrain")
    path = os.path.join(out, "embeddings.npy")
    data = bytearray(Path(path).read_bytes())
    data[-1] ^= 0x01  # last byte of the last float: same shape, other value
    with open(path, "wb") as fh:
        fh.write(data)
    with pytest.raises(DataError, match="embeddings.npy does not match its SHA-256 digest"):
        read_checkpoint(out)


def test_summary_csv_golden(tmp_path):
    records = [
        {
            "cycle": 1,
            "train_snapshot": 1,
            "test_snapshot": 2,
            "n_train_edges": 3,
            "n_eval_users": 2,
            "recall": 0.5,
            "ndcg": 0.25,
            "epochs": 4,
            "warning": None,
            "tuned": {"n_users": 1, "recall": 1.0, "ndcg": 0.5},
            "untuned": {"n_users": 1, "recall": 0.0, "ndcg": 0.0},
        }
    ]
    path = str(tmp_path / "summary.csv")
    write_summary_csv(path, records)
    lines = Path(path).read_text(encoding="utf-8").splitlines()
    assert lines[0].startswith("cycle,train_snapshot,test_snapshot")
    assert lines[1] == "1,1,2,3,2,0.5,0.25,1,1.0,0.5,1,0.0,0.0,4,"


def test_user_metrics_csv_golden(tmp_path):
    report = MetricsReport(np.array([3]), np.array([1.0]), np.array([0.6309297535714574]))
    path = str(tmp_path / "users.csv")
    write_user_metrics_csv(path, report)
    assert Path(path).read_text(encoding="utf-8") == (
        "user,recall,ndcg\n3,1.0,0.6309297535714574\n"
    )


def test_manifest_records_config_and_input_digest(tmp_path):
    data = tmp_path / "in.tsv"
    data.write_text("0\t1\t2\n")
    out = str(tmp_path)
    write_manifest(out, "pretrain", RunConfig(d=8), [str(data)])
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["command"] == "pretrain"
    assert manifest["config"]["d"] == 8
    assert manifest["inputs"][0]["sha256"] == sha256_text("0\t1\t2\n")


# -- command line ----------------------------------------------------------

CLI_SETTINGS = [
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


@pytest.fixture(scope="module")
def cli_data(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    path = str(root / "drift.tsv")
    write_tsv(
        path,
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
    return path


@pytest.fixture(scope="module")
def pretrain_run(cli_data, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("pretrain-run"))
    code = main(["pretrain", "--data", cli_data, "--out", out, "--quiet", *CLI_SETTINGS])
    assert code == 0
    return out


def test_pretrain_writes_expected_artifacts(pretrain_run):
    for name in ("manifest.json", "segments.json", "pretrain_log.json"):
        assert os.path.isfile(os.path.join(pretrain_run, name))
    ckpt = os.path.join(pretrain_run, "checkpoints", "pretrain")
    emb, meta, gate = read_checkpoint(ckpt)
    assert meta["kind"] == "pretrain" and gate is None
    assert emb.shape[1] == 8
    assert meta["best_epoch"] >= 1


@pytest.fixture(scope="module")
def dynamic_run(cli_data, pretrain_run, tmp_path_factory):
    out = str(tmp_path_factory.mktemp("dynamic-run") / "dyn")
    code = main(["run-dynamic", "--data", cli_data, "--out", out, "--quiet",
                 "--pretrained", pretrain_run, *CLI_SETTINGS])
    assert code == 0
    return out


def _assert_manifest_names_the_sidecar(out, pretrain_run):
    # a run that read its table names the sidecar it read, and writes no table of its own
    sidecar = os.path.join(pretrain_run, "checkpoints", "pretrain", "checkpoint.json")
    inputs = read_json(os.path.join(out, "manifest.json"))["inputs"]
    assert inputs[1] == {"path": sidecar, "sha256": sha256_file(sidecar)}
    assert not os.path.exists(os.path.join(out, "pretrain_log.json"))
    assert not os.path.exists(os.path.join(out, "checkpoints", "pretrain"))


def test_run_dynamic_from_checkpoint(dynamic_run, pretrain_run):
    out = dynamic_run
    metrics = read_json(os.path.join(out, "metrics.json"))
    assert len(metrics["records"]) == 2
    assert os.path.isfile(os.path.join(out, "summary.csv"))
    assert os.path.isfile(os.path.join(out, "per_user", "cycle_001.csv"))
    assert os.path.isfile(os.path.join(out, "per_user", "cycle_002.csv"))
    snap = os.path.join(out, "checkpoints", "snapshot_001")
    _, meta, gate = read_checkpoint(snap)
    assert meta["kind"] == "finetune" and gate is not None
    _assert_manifest_names_the_sidecar(out, pretrain_run)


def test_run_dynamic_without_checkpoint_matches(cli_data, pretrain_run, dynamic_run, tmp_path):
    # pre-training inside run-dynamic or finetune reproduces the standalone
    # checkpoint and writes the same pre-training artefacts as `dynrec pretrain`
    scratch = str(tmp_path / "b")
    tuned = str(tmp_path / "ft")
    assert main(["run-dynamic", "--data", cli_data, "--out", scratch, "--quiet",
                 *CLI_SETTINGS]) == 0
    assert main(["finetune", "--data", cli_data, "--out", tuned, "--quiet",
                 "--snapshot", "1", *CLI_SETTINGS]) == 0
    a = Path(dynamic_run, "metrics.json").read_bytes()
    b = Path(scratch, "metrics.json").read_bytes()
    assert a == b
    ckpt = os.path.join("checkpoints", "pretrain")
    names = sorted(os.listdir(os.path.join(pretrain_run, ckpt)))
    for out in (scratch, tuned):
        assert sorted(os.listdir(os.path.join(out, ckpt))) == names
        for name in ["pretrain_log.json"] + [os.path.join(ckpt, n) for n in names]:
            assert Path(out, name).read_bytes() == Path(pretrain_run, name).read_bytes(), name


def test_finetune_snapshot_command(cli_data, pretrain_run, tmp_path):
    out = str(tmp_path / "ft")
    code = main(
        ["finetune", "--data", cli_data, "--out", out, "--quiet",
         "--pretrained", pretrain_run, "--snapshot", "1", *CLI_SETTINGS]
    )
    assert code == 0
    _, meta, gate = read_checkpoint(os.path.join(out, "checkpoints", "snapshot_001"))
    assert meta["snapshot"] == 1 and gate is not None
    _assert_manifest_names_the_sidecar(out, pretrain_run)


@pytest.mark.parametrize(
    "command",
    [["run-dynamic"], ["finetune", "--snapshot", "1"], ["evaluate"]],
    ids=["run-dynamic", "finetune", "evaluate"],
)
def test_pretrained_exits_1_on_a_tree_that_read_its_table(
    cli_data, dynamic_run, tmp_path, caplog, command
):
    # a run-dynamic --pretrained tree holds no pre-training checkpoint of its own
    out = tmp_path / "out"
    assert main([*command, "--data", cli_data, "--out", str(out), "--quiet",
                 "--pretrained", dynamic_run, *CLI_SETTINGS]) == 1
    assert "no checkpoint.json" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize(
    "command",
    [["run-dynamic"], ["finetune", "--snapshot", "1"], ["evaluate"]],
    ids=["run-dynamic", "finetune", "evaluate"],
)
def test_pretrained_exits_1_on_a_snapshot_checkpoint(cli_data, dynamic_run, tmp_path, caplog, command):
    # a cycle's table is already tuned and propagated: it is not a pre-trained table
    snapshot = os.path.join(dynamic_run, "checkpoints", "snapshot_001")
    out = tmp_path / "out"
    assert main([*command, "--data", cli_data, "--out", str(out), "--quiet",
                 "--pretrained", snapshot, *CLI_SETTINGS]) == 1
    assert "is a 'finetune' checkpoint, not 'pretrain'" in caplog.text
    assert not out.exists()


def _files(root: Path) -> list[str]:
    return sorted(str(p.relative_to(root)) for p in root.rglob("*") if p.is_file())


def test_run_dynamic_that_fails_mid_run_keeps_the_finished_cycles(
    cli_data, tmp_path, caplog, monkeypatch
):
    # cycle 3's gate tuning diverges: the tree keeps what was written before
    # it, byte-equal to a full run's, and no metrics for a run that did not end
    settings = [*CLI_SETTINGS, "--set", "granularity_hours=12"]
    full, part = tmp_path / "full", tmp_path / "part"
    assert main(["run-dynamic", "--data", cli_data, "--out", str(full), "--quiet", *settings]) == 0
    finetune, calls = dynamics.finetune, []

    def diverge_on_third_call(*args, **kwargs):
        calls.append(None)
        if len(calls) == 3:
            raise FloatingPointError("training diverged: injected")
        return finetune(*args, **kwargs)

    monkeypatch.setattr(dynamics, "finetune", diverge_on_third_call)
    assert main(["run-dynamic", "--data", cli_data, "--out", str(part), "--quiet", *settings]) == 1
    assert "training diverged: injected" in caplog.text and len(calls) == 3
    finished = [
        name for name in _files(full)
        if name not in ("metrics.json", "summary.csv") and not re.search(r"_00[3-9]", name)
    ]
    assert "per_user/cycle_002.csv" in finished and "checkpoints/snapshot_002/gate_w.npy" in finished
    assert "checkpoints/pretrain/embeddings.npy" in finished
    assert _files(part) == finished
    for name in finished:
        assert (part / name).read_bytes() == (full / name).read_bytes(), name


def test_finetune_rejects_out_of_range_snapshot(cli_data, pretrain_run, tmp_path):
    out = str(tmp_path / "ft-bad")
    code = main(
        ["finetune", "--data", cli_data, "--out", out, "--quiet",
         "--pretrained", pretrain_run, "--snapshot", "99", *CLI_SETTINGS]
    )
    assert code == 2


def test_evaluate_frozen_baseline(cli_data, pretrain_run, tmp_path):
    out = str(tmp_path / "frozen")
    code = main(
        ["evaluate", "--data", cli_data, "--out", out, "--quiet",
         "--pretrained", pretrain_run, *CLI_SETTINGS]
    )
    assert code == 0
    metrics = read_json(os.path.join(out, "metrics.json"))
    assert all(rec["epochs"] == 0 for rec in metrics["records"])
    _assert_manifest_names_the_sidecar(out, pretrain_run)


def _relabelled(edges):
    # the same counts and pairs under other raw user ids
    shifted = edges.copy()
    shifted[:, 0] += 1000
    return shifted


def _one_user_fewer(edges):
    return edges[edges[:, 0] != edges[:, 0].max()]


@pytest.mark.parametrize(
    ("make_log", "drop_key", "message"),
    [
        (_relabelled, None, "was written for another log"),
        (_one_user_fewer, None, "was written for another log"),
        (None, "vocab_sha256", "has no 'vocab_sha256' key"),
        (None, "rows", "has no 'rows' key"),
        (None, "kind", "has no 'kind' key"),
    ],
    ids=["relabelled-users", "one-user-fewer", "no-vocab-digest", "no-rows", "no-kind"],
)
def test_evaluate_exits_1_on_a_foreign_or_incomplete_checkpoint(
    cli_data, pretrain_run, tmp_path, caplog, make_log, drop_key, message
):
    data = cli_data
    if make_log is not None:
        data = str(tmp_path / "other.tsv")
        write_tsv(data, make_log(np.loadtxt(cli_data, dtype=np.int64, ndmin=2)))
    ckpt = os.path.join(pretrain_run, "checkpoints", "pretrain")
    if drop_key is not None:
        ckpt = shutil.copytree(ckpt, str(tmp_path / "ckpt"))
        meta = read_json(os.path.join(ckpt, "checkpoint.json"))
        del meta[drop_key]
        write_json(os.path.join(ckpt, "checkpoint.json"), meta)
    out = tmp_path / "frozen"
    assert main(["evaluate", "--data", data, "--out", str(out), "--quiet",
                 "--pretrained", ckpt, *CLI_SETTINGS]) == 1
    assert "invalid input: checkpoint" in caplog.text and message in caplog.text
    if make_log is not None:
        # both digests are named: the checkpoint's and this log's
        assert read_json(os.path.join(ckpt, "checkpoint.json"))["vocab_sha256"] in caplog.text
        assert vocab_sha256(load_interactions(data)[1]) in caplog.text
    assert not out.exists()


def test_evaluate_exits_2_on_a_checkpoint_of_another_dimension(cli_data, pretrain_run, tmp_path):
    out = tmp_path / "frozen"
    assert main(["evaluate", "--data", cli_data, "--out", str(out), "--quiet",
                 "--pretrained", pretrain_run, *CLI_SETTINGS, "--set", "d=16"]) == 2
    assert not out.exists()


def test_report_prints_metric_table(cli_data, pretrain_run, tmp_path, capsys):
    run = str(tmp_path / "run")
    assert main(["run-dynamic", "--data", cli_data, "--out", run, "--quiet",
                 "--pretrained", pretrain_run, *CLI_SETTINGS]) == 0
    base = str(tmp_path / "base")
    assert main(["evaluate", "--data", cli_data, "--out", base, "--quiet",
                 "--pretrained", pretrain_run, *CLI_SETTINGS]) == 0
    capsys.readouterr()
    assert main(["report", "--run", run, "--baseline", base, "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "macro recall" in out
    assert "ratio vs baseline" in out
    assert run in out and base in out


def test_cli_exit_codes_for_bad_usage(cli_data, tmp_path):
    # unknown config key
    assert main(["pretrain", "--data", cli_data, "--out", str(tmp_path / "x"),
                 "--quiet", "--set", "bogus=1"]) == 2
    # malformed config file
    bad = tmp_path / "bad.cfg"
    bad.write_text("d 16\n")
    assert main(["pretrain", "--data", cli_data, "--out", str(tmp_path / "y"),
                 "--quiet", "--config", str(bad)]) == 2
    # runtime failure: report on a directory with no metrics
    assert main(["report", "--run", str(tmp_path / "missing"), "--quiet"]) == 1


def test_cli_pretrain_divergence_exits_1_without_artifacts(cli_data, tmp_path):
    out = tmp_path / "diverged"
    assert main(["pretrain", "--data", cli_data, "--out", str(out), "--quiet",
                 *CLI_SETTINGS, "--set", "learning_rate=1e300"]) == 1
    assert not (out / "pretrain_log.json").exists()
    assert not (out / "checkpoints").exists()


def test_cli_pretrain_exits_1_when_the_last_step_overflows(cli_data, tmp_path):
    # one batch and one epoch: the only Adam step leaves a finite table near
    # 1e300, so the per-batch check passes and validation scoring overflows
    out = tmp_path / "overflowed"
    assert main(["pretrain", "--data", cli_data, "--out", str(out), "--quiet", *CLI_SETTINGS,
                 "--set", "learning_rate=1e300", "--set", "batch_size=100000",
                 "--set", "max_epochs=1", "--set", "patience=1"]) == 1
    assert not (out / "pretrain_log.json").exists()
    assert not (out / "checkpoints").exists()


def test_cli_pretrain_exits_1_when_the_last_step_overflows_without_validation(cli_data, tmp_path):
    # no validation pass scores the only step's table, so the final check must
    out = tmp_path / "overflowed"
    assert main(["pretrain", "--data", cli_data, "--out", str(out), "--quiet", *CLI_SETTINGS,
                 "--set", "learning_rate=1e300", "--set", "batch_size=100000",
                 "--set", "max_epochs=1", "--set", "patience=1", "--set", "val_fraction=0"]) == 1
    assert not (out / "pretrain_log.json").exists()
    assert not (out / "checkpoints").exists()


@pytest.mark.parametrize(
    ("log", "settings", "message"),
    [
        ("", [], "no interactions to segment"),
        ("0\t1\t100\n0\t2\t200\n", [], "pre-training span consumes all data"),
        # user 0 has both items before the first snapshot and no holdout frees one
        ("0\t1\t100\n0\t2\t200\n1\t1\t900000\n", ["--set", "val_fraction=0"],
         "cannot sample negatives"),
    ],
    ids=["empty-log", "span-covers-log", "saturated-user"],
)
def test_cli_exits_1_on_a_log_that_cannot_be_trained(tmp_path, caplog, log, settings, message):
    data = tmp_path / "log.tsv"
    data.write_text(log)
    assert main(["pretrain", "--data", str(data), "--out", str(tmp_path / "out"),
                 "--quiet", *CLI_SETTINGS, *settings]) == 1
    assert message in caplog.text


def test_cli_exits_1_on_a_time_gap_storm_without_a_run_directory(tmp_path, caplog):
    # three interactions, the last about three years after the others: daily
    # snapshots would leave over a thousand empty cycles
    data = tmp_path / "storm.tsv"
    data.write_text("0\t1\t0\n1\t2\t1800\n0\t2\t100000000\n")
    out = tmp_path / "out"
    assert main(["run-dynamic", "--data", str(data), "--out", str(out), "--quiet",
                 *CLI_SETTINGS, "--set", "pretrain_span_hours=1"]) == 1
    assert "gap between interactions at ts 1800 and ts 100000000" in caplog.text
    assert not out.exists()


@pytest.mark.parametrize("line", ["1\t2\n", "1\tx\t3\n", f"1\t{2**63}\t3\n"])
def test_cli_exit_code_for_invalid_data_line(tmp_path, line):
    data = tmp_path / "bad.tsv"
    data.write_text("0\t1\t100\n" + line)
    assert main(["pretrain", "--data", str(data), "--out", str(tmp_path / "out"),
                 "--quiet", *CLI_SETTINGS]) == 1


def test_cli_exits_1_naming_the_line_of_bytes_that_are_not_utf8(tmp_path, caplog):
    # a UnicodeDecodeError is a ValueError, which the CLI reads as bad configuration
    data = tmp_path / "latin1.tsv"
    data.write_bytes(b"1\t2\t3\n4\t5\t6\xff\n")
    out = tmp_path / "out"
    assert main(["pretrain", "--data", str(data), "--out", str(out), "--quiet", *CLI_SETTINGS]) == 1
    assert "invalid input: malformed interaction at line 2" in caplog.text
    assert not out.exists()


def test_cli_config_file_round_trip(cli_data, tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("d = 8\nlayers = 2\nmax_epochs = 2\npatience = 2\n"
                        "pretrain_span_hours = 48\ngranularity_hours = 24\n")
    out = str(tmp_path / "cfg-run")
    assert main(["pretrain", "--data", cli_data, "--out", out, "--quiet",
                 "--config", str(cfg_path), "--set", "max_epochs=1", "--set", "patience=1"]) == 0
    manifest = read_json(os.path.join(out, "manifest.json"))
    assert manifest["config"]["d"] == 8
    assert manifest["config"]["max_epochs"] == 1  # --set beats the file
