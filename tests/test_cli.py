import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from seqids import cli
from seqids import data as D
from seqids.checkpoint import save_checkpoint
from seqids.errors import InputError, SeqidsError
from seqids.model import ModelConfig, build_model
from seqids.tensor import Tensor


def run_cli(*argv) -> int:
    return cli.main([str(a) for a in argv])


def gen(tmp_path, name="data.csv", **kw):
    args = ["gen-data", "--out", tmp_path / name,
            "--classes", kw.get("classes", 3), "--features", kw.get("features", 12),
            "--per-class", kw.get("per_class", 40), "--seed", kw.get("seed", 0),
            "--separation", kw.get("separation", 4.0)]
    if "imbalance" in kw:
        args += ["--imbalance", kw["imbalance"]]
    assert run_cli(*args) == 0
    return tmp_path / name


TRAIN_SPEED_FLAGS = ["--epochs", 2, "--batch-size", 32, "--lr", "3e-3"]


# ---------------------------------------------------------------------------
# gen-data

def test_gen_data_defaults_match_reference_shape(tmp_path):
    out = tmp_path / "d.csv"
    assert run_cli("gen-data", "--out", out, "--per-class", 3) == 0
    ds, dropped = D.load_csv(out)
    assert dropped == 0
    assert ds.num_features == 60
    assert ds.encoder.num_classes == 6


def test_gen_data_imbalance_ratio(tmp_path):
    f = gen(tmp_path, classes=3, per_class=100, imbalance="10:1")
    ds, _ = D.load_csv(f)
    np.testing.assert_array_equal(ds.class_counts(), [100, 10, 10])


def test_gen_data_same_seed_is_byte_identical(tmp_path):
    f1 = gen(tmp_path, name="a.csv", seed=5)
    f2 = gen(tmp_path, name="b.csv", seed=5)
    assert f1.read_bytes() == f2.read_bytes()


def test_gen_data_writes_manifest(tmp_path):
    f = gen(tmp_path)
    manifest = json.loads((tmp_path / "data.csv.manifest.json").read_text())
    assert manifest["command"] == "gen-data"
    assert manifest["dataset"]["sha256"] == hashlib.sha256(f.read_bytes()).hexdigest()


def test_gen_data_bad_directory_fails(tmp_path):
    assert run_cli("gen-data", "--out", tmp_path / "nope" / "d.csv") == 1


def test_gen_data_malformed_imbalance_fails_with_message(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path / "d.csv", "--imbalance", "x:1") == 1
    assert "'x:1'" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


# ---------------------------------------------------------------------------
# train

def config_file(tmp_path):
    cfg = tmp_path / "small.cfg"
    cfg.write_text(
        "# small architecture for fast tests\n"
        "conv_filters = 8\n"
        "gru_units = 6\n"
        "num_heads = 2\n"
        "key_dim = 4\n"
        "dense_units = 16\n"
        "dropout_rate = 0.2\n"
        "bn_momentum = 0.8\n")
    return cfg


def test_train_writes_all_artifacts(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", out, "--seed", 1, *TRAIN_SPEED_FLAGS) == 0
    assert (out / "checkpoint.bin").exists()
    assert (out / "epochs.csv").exists()
    assert (out / "manifest.json").exists()
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["command"] == "train"
    assert manifest["settings"]["smote"] is True


def test_train_no_smote_keeps_imbalanced_counts(tmp_path):
    data = gen(tmp_path, classes=3, per_class=60, imbalance="5:1")
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", out, "--no-smote", *TRAIN_SPEED_FLAGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["smote"] is False
    before = manifest["settings"]["train_class_counts_before_smote"]
    after = manifest["settings"]["train_class_counts_after_smote"]
    assert before == after
    assert max(before) > min(before)


def test_train_smote_balances_counts(tmp_path):
    data = gen(tmp_path, classes=3, per_class=60, imbalance="5:1")
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", out, "--smote", *TRAIN_SPEED_FLAGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    after = manifest["settings"]["train_class_counts_after_smote"]
    assert max(after) == min(after)


def test_train_rerun_has_identical_checkpoint_hash(tmp_path):
    data = gen(tmp_path)
    hashes = []
    for name in ("r1", "r2"):
        out = tmp_path / name
        assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                       "--out-dir", out, "--seed", 3, *TRAIN_SPEED_FLAGS) == 0
        hashes.append(hashlib.sha256((out / "checkpoint.bin").read_bytes()).hexdigest())
    assert hashes[0] == hashes[1]


def test_train_config_use_smote_key(tmp_path):
    data = gen(tmp_path, classes=3, per_class=60, imbalance="5:1")
    cfg = config_file(tmp_path)
    cfg.write_text(cfg.read_text() + "use_smote = false\n")
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", cfg, "--out-dir", out,
                   *TRAIN_SPEED_FLAGS) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["settings"]["smote"] is False
    assert "use_smote" not in manifest["settings"]["model"]


@pytest.mark.parametrize("line,key", [("gru_unit = 6", "gru_unit"),
                                      ("gru_units = abc", "gru_units"),
                                      ("num_classes = 4", "num_classes")])
def test_train_bad_config_line_fails_naming_the_key(tmp_path, capsys, line, key):
    data = gen(tmp_path)
    cfg = config_file(tmp_path)
    cfg.write_text(cfg.read_text().replace("gru_units = 6\n", line + "\n"))
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", cfg, "--out-dir", out,
                   *TRAIN_SPEED_FLAGS) == 1
    err = capsys.readouterr().err
    assert "error [train]" in err and key in err
    assert not out.exists()


def test_train_float32_leaves_the_default_dtype_at_float64(tmp_path):
    data = gen(tmp_path)
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", tmp_path / "run", "--dtype", "float32", *TRAIN_SPEED_FLAGS) == 0
    assert json.loads((tmp_path / "run" / "manifest.json").read_text())["settings"]["dtype"] \
        == "float32"
    # a later command in the same process builds float64 tensors again
    assert Tensor([1.0]).data.dtype == np.float64


def test_train_does_not_mutate_input(tmp_path):
    data = gen(tmp_path)
    before = hashlib.sha256(data.read_bytes()).hexdigest()
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", tmp_path / "run", *TRAIN_SPEED_FLAGS) == 0
    assert hashlib.sha256(data.read_bytes()).hexdigest() == before


def test_train_missing_label_column_fails_nonzero(tmp_path, capsys):
    data = gen(tmp_path)
    rc = run_cli("train", "--data", data, "--label-column", "nope",
                 "--out-dir", tmp_path / "run")
    assert rc == 1
    assert "error [train]" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# eval

def trained_run(tmp_path):
    data = gen(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", out, "--seed", 2, "--epochs", 10,
                   "--batch-size", 32, "--lr", "5e-3") == 0
    return data, out / "checkpoint.bin"


def test_eval_emits_full_report(tmp_path):
    data, ckpt = trained_run(tmp_path)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--holdout",
                   "--repetitions", 10, "--out-dir", out) == 0
    blob = json.loads((out / "report.json").read_text())
    assert {"accuracy", "macro", "weighted", "micro_fpr", "per_class",
            "confusion", "auc", "loss",
            "inference_seconds_per_instance"} <= set(blob)
    assert blob["inference_seconds_per_instance"] > 0
    assert all("fpr" in p for p in blob["per_class"])
    assert (out / "report.txt").exists()
    assert (out / "confusion.csv").exists()
    assert (out / "roc.csv").exists()
    assert (out / "manifest.json").exists()


def test_eval_train_data_beats_heldout_on_separable_task(tmp_path):
    data, ckpt = trained_run(tmp_path)
    full = tmp_path / "eval_full"
    hold = tmp_path / "eval_hold"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data,
                   "--repetitions", 10, "--out-dir", full) == 0
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--holdout",
                   "--repetitions", 10, "--out-dir", hold) == 0
    acc_full = json.loads((full / "report.json").read_text())["accuracy"]
    acc_hold = json.loads((hold / "report.json").read_text())["accuracy"]
    # full file includes the training rows, so it cannot score below holdout
    assert acc_full >= acc_hold - 1e-9


def test_eval_feature_width_mismatch_names_widths(tmp_path, capsys):
    _, ckpt = trained_run(tmp_path)
    other = gen(tmp_path, name="other.csv", features=7)
    rc = run_cli("eval", "--checkpoint", ckpt, "--data", other,
                 "--out-dir", tmp_path / "eval")
    assert rc == 1
    err = capsys.readouterr().err
    assert "12" in err and "7" in err


def test_eval_checkpoint_with_legacy_config_fails_cleanly(tmp_path, capsys):
    # checkpoints written before use_smote left the model config carry that key
    data = gen(tmp_path)
    model = build_model(ModelConfig(input_shape=(12, 1), num_classes=3, conv_filters=4,
                                    gru_units=4, num_heads=2, key_dim=4, dense_units=(8,)),
                        np.random.default_rng(0))
    path = tmp_path / "old.bin"
    save_checkpoint(path, {f"model.{n}": t.data for n, t in model.named_arrays().items()},
                    {"config": {**model.cfg.to_dict(), "use_smote": True}})
    rc = run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", tmp_path / "eval")
    assert rc == 1
    assert "use_smote" in capsys.readouterr().err


def test_eval_truncated_checkpoint_fails_cleanly_and_leaves_no_directory(tmp_path, capsys):
    data = gen(tmp_path)
    model = build_model(ModelConfig(input_shape=(12, 1), num_classes=3, conv_filters=4,
                                    gru_units=4, num_heads=2, key_dim=4, dense_units=(8,)),
                        np.random.default_rng(0))
    path = tmp_path / "cut.bin"
    save_checkpoint(path, {f"model.{n}": t.data for n, t in model.named_arrays().items()},
                    {"config": model.cfg.to_dict()})
    path.write_bytes(path.read_bytes()[:300])
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "error [eval]" in err and str(path) in err
    assert not out.exists()


def small_model_arrays():
    model = build_model(ModelConfig(input_shape=(12, 1), num_classes=3, conv_filters=4,
                                    gru_units=4, num_heads=2, key_dim=4, dense_units=(8,)),
                        np.random.default_rng(0))
    return model.cfg, {f"model.{n}": t.data for n, t in model.named_arrays().items()}


def test_eval_checkpoint_without_config_fails_cleanly_and_leaves_no_directory(tmp_path, capsys):
    data = gen(tmp_path)
    _, arrays = small_model_arrays()
    path = tmp_path / "noconfig.bin"
    save_checkpoint(path, arrays, {"class_names": ["0", "1", "2"]})
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "error [eval]" in err and str(path) in err and "'config'" in err
    assert not out.exists()


def test_model_checkpoint_without_standardizer_is_rejected(tmp_path):
    cfg, arrays = small_model_arrays()
    path = tmp_path / "nostd.bin"
    save_checkpoint(path, arrays, {"config": cfg.to_dict(), "class_names": ["0", "1", "2"],
                                   "train": {"seed": 0, "fraction": 0.2}})
    with pytest.raises(InputError, match="no standardizer arrays"):
        cli._load_model_checkpoint(path)


@pytest.mark.parametrize("meta", [
    {"train": {"seed": 0, "fraction": 0.8}},
    {"class_names": ["class00", "class01", "class02"]},
    {"class_names": ["class00", "class01", "class02"], "train": {"seed": "0", "fraction": 0.8}},
], ids=["no_class_names", "no_train", "string_seed"])
def test_eval_checkpoint_with_incomplete_meta_fails_cleanly_and_leaves_no_directory(
        tmp_path, capsys, meta):
    data = gen(tmp_path)
    cfg, arrays = small_model_arrays()
    arrays.update({"standardizer.mean": np.zeros(12), "standardizer.scale": np.ones(12)})
    path = tmp_path / "partial.bin"
    save_checkpoint(path, arrays, {"config": cfg.to_dict(), **meta})
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", out) == 1
    err = capsys.readouterr().err
    missing = "'train'" if "class_names" in meta else "'class_names'"
    assert "error [eval]" in err and str(path) in err and missing in err
    assert not out.exists()


# ---------------------------------------------------------------------------
# ablate

def test_ablate_writes_ten_rows(tmp_path):
    data = gen(tmp_path, classes=3, features=8, per_class=30)
    out = tmp_path / "ablation"
    assert run_cli("ablate", "--data", data, "--out-dir", out, "--epochs", 1,
                   "--batch-size", 32, "--seed", 0, "--bn-momentum", 0.8) == 0
    lines = (out / "ablation.csv").read_text().strip().splitlines()
    assert len(lines) == 11
    header = lines[0].split(",")
    for col in ("case", "model", "heads", "dropout", "accuracy", "loss", "fpr", "inf_time"):
        assert col in header
    assert (out / "manifest.json").exists()


def test_ablate_failed_case_keeps_its_row(tmp_path, monkeypatch):
    data = gen(tmp_path, classes=3, features=8, per_class=30)
    train = cli.TR.train

    def train_failing_case6(model, split, cfg):
        if model.cfg.num_heads == 8:  # only case #6 has 8 heads
            raise SeqidsError("injected failure")
        return train(model, split, cfg)

    monkeypatch.setattr(cli.TR, "train", train_failing_case6)
    out = tmp_path / "ablation"
    assert run_cli("ablate", "--data", data, "--out-dir", out, "--epochs", 1,
                   "--batch-size", 32, "--seed", 0, "--bn-momentum", 0.8) == 0
    with open(out / "ablation.csv", newline="") as fh:
        lines = list(csv.reader(fh))
    header, rows = lines[0], [dict(zip(lines[0], line)) for line in lines[1:]]
    assert len(rows) == 10
    assert {len(line) for line in lines} == {len(header)}
    failed = rows[5]
    assert (failed["case"], failed["heads"], failed["dropout"], failed["smote"],
            failed["dense_layers"]) == ("6", "8", "0.5", "True", "3")
    for col in ("accuracy", "loss", "fpr", "inf_time", "min_class_recall"):
        assert failed[col] == ""
        assert all(row[col] != "" for row in rows[:5] + rows[6:])
    assert failed["error"] == "injected failure"
    assert all(row["error"] == "" for row in rows[:5] + rows[6:])


# ---------------------------------------------------------------------------
# misc

def test_config_file_grammar(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("a = 1\n# comment\n\nb = hello  # trailing\n")
    assert cli.parse_config_file(cfg) == {"a": "1", "b": "hello"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense line\n")
    with pytest.raises(Exception):
        cli.parse_config_file(bad)


def test_parse_imbalance_forms():
    assert cli.parse_imbalance("10:1", 3) == [1.0, 0.1, 0.1]
    assert cli.parse_imbalance("1,0.5,0.25", 3) == [1.0, 0.5, 0.25]
    with pytest.raises(Exception):
        cli.parse_imbalance("1,2", 3)


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "d.csv"
    # the child imports the same seqids as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "seqids.cli", "gen-data", "--out", str(out),
         "--classes", "2", "--features", "4", "--per-class", "5"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert out.exists()
