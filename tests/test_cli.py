import csv
import functools
import gc
import hashlib
import json
import os
import random
import subprocess
import sys
import weakref
from pathlib import Path

import numpy as np
import pytest

from seqids import cli
from seqids import data as D
from seqids.checkpoint import load_checkpoint, load_model, save_checkpoint, save_model
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


def forbid_reading_the_csv(monkeypatch):
    """Fail the test if the command reads its CSV: a bad setting must stop it first."""
    def not_called(*args, **kwargs):
        raise AssertionError("the CSV was read before the settings were checked")

    monkeypatch.setattr(cli.D, "read_table", not_called)


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


@pytest.mark.parametrize("block", [None, 1, 2, 3, 5])
@pytest.mark.parametrize("content, rows, columns", [
    (b"a,b,label\n1,2,x\n3,4,y\n", 2, 3),
    (b"a,b,label\r\n1,2,x\r\n3,4,y\r\n", 2, 3),
    (b"a,label\n1,x\n2,y", 2, 2),
    (b"\n\na,b,c,label\n\n1,2,3,x\r\n\r\n\n4,5,6,y\n\n", 2, 4),
    (b"a\xc3\xa9,label\r\n\xff1,x\r", 1, 2),
    (b"", 0, 0),
], ids=["lf", "crlf", "no_final_newline", "blank_lines", "utf8_and_bad_bytes", "empty"])
def test_dataset_fingerprint_counts_non_empty_lines(tmp_path, monkeypatch, content, rows,
                                                    columns, block):
    # rows and columns are the counts the caller passes, here the non-empty lines
    # after the header and the header's cells; the sha256 covers every byte
    if block is not None:   # blocks smaller than a line, a \r\n pair or a utf-8 character
        monkeypatch.setattr(cli, "_FINGERPRINT_BLOCK", block)
    f = tmp_path / "d.csv"
    f.write_bytes(content)
    assert cli.dataset_fingerprint(f, rows, columns) == {
        "path": str(f), "rows": rows, "columns": columns,
        "sha256": hashlib.sha256(content).hexdigest()}


def test_gen_data_without_flags_uses_synth_datasets_defaults(tmp_path):
    # the values the flags defaulted to before they passed only those given
    assert run_cli("gen-data", "--out", tmp_path / "bare.csv") == 0
    assert run_cli("gen-data", "--out", tmp_path / "set.csv", "--classes", 6,
                   "--features", 60, "--per-class", 500, "--separation", 5.0,
                   "--structure-strength", 0.75, "--seed", 0) == 0
    assert (tmp_path / "bare.csv").read_bytes() == (tmp_path / "set.csv").read_bytes()
    bare, given = (json.loads((tmp_path / f"{name}.csv.manifest.json").read_text())
                   for name in ("bare", "set"))
    assert bare["settings"] == given["settings"] == {
        "classes": 6, "features": 60, "per_class": 500, "imbalance": None,
        "separation": 5.0, "structure_strength": 0.75}
    assert bare["seed"] == given["seed"] == 0


def test_gen_data_bad_directory_fails(tmp_path, capsys, monkeypatch):
    @functools.wraps(D.synth_dataset)   # keeps the signature the defaults are read from
    def not_called(*args, **kwargs):
        raise AssertionError("gen-data drew its rows before checking the output directory")

    monkeypatch.setattr(D, "synth_dataset", not_called)
    assert run_cli("gen-data", "--out", tmp_path / "nope" / "d.csv") == 1
    assert capsys.readouterr().err == \
        f"error [gen-data]: output directory does not exist: {tmp_path / 'nope'}\n"


def test_gen_data_malformed_imbalance_fails_with_message(tmp_path, capsys):
    assert run_cli("gen-data", "--out", tmp_path / "d.csv", "--imbalance", "x:1") == 1
    assert "'x:1'" in capsys.readouterr().err
    assert not (tmp_path / "d.csv").exists()


@pytest.mark.parametrize("flag,value", [
    ("--classes", "0"), ("--classes", "-1"),
    ("--imbalance", "nan:1"), ("--imbalance", "1:nan"), ("--imbalance", "1,nan,1"),
    ("--imbalance", "1,inf,1"), ("--imbalance", "1,-2,1"), ("--imbalance", "0,0,0"),
    ("--structure-strength", "1.5"), ("--structure-strength", "nan"),
    ("--separation", "nan"), ("--separation", "inf"), ("--separation", "-1.0"),
])
def test_gen_data_bad_value_fails_naming_it_and_writes_no_csv(tmp_path, capsys, flag, value):
    out = tmp_path / "d.csv"
    assert run_cli("gen-data", "--out", out, "--classes", 3, "--features", 12, flag, value) == 1
    err = capsys.readouterr().err
    assert "error [gen-data]" in err and (f"got {value}\n" in err or f"got '{value}'\n" in err)
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("flag,value,named", [
    ("--imbalance", "1:1e300", "imbalance profile [1.0, 1e+300, 1e+300]"),
    ("--imbalance", "1,1e300,1", "imbalance profile [1.0, 1e+300, 1.0]"),
    ("--per-class", str(2**62), f"per_class {2**62} "),
    ("--per-class", "1" + "0" * 400, "per_class 1" + "0" * 400),  # past the float range
])
def test_gen_data_row_count_numpy_cannot_index_fails_naming_it(tmp_path, capsys, flag, value,
                                                               named):
    out = tmp_path / "d.csv"
    assert run_cli("gen-data", "--out", out, "--classes", 3, "--features", 12, flag, value) == 1
    err = capsys.readouterr().err
    assert "error [gen-data]" in err and named in err and "numpy can index" in err
    assert list(tmp_path.iterdir()) == []


def test_gen_data_rows_that_do_not_fit_in_memory_fail_naming_the_request(
        tmp_path, capsys, monkeypatch):
    # no real allocation is attempted: the generator's draw of a class's rows
    # raises MemoryError, as numpy does when the OS refuses the array
    real = np.random.default_rng

    class Refusing:
        def __init__(self, seed):
            self.rng = real(seed)

        def normal(self, size):
            if size[0] == 40:
                raise MemoryError("refused")
            return self.rng.normal(size=size)

    monkeypatch.setattr(np.random, "default_rng", Refusing)
    out = tmp_path / "d.csv"
    assert run_cli("gen-data", "--out", out, "--classes", 3, "--features", 12,
                   "--per-class", 40, "--imbalance", "1,1,0.5") == 1
    err = capsys.readouterr().err
    assert "error [gen-data]" in err
    assert "per_class 40 with imbalance profile [1.0, 1.0, 0.5] asks for 100 rows" in err
    assert list(tmp_path.iterdir()) == []


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
                                      ("num_classes = 4", "num_classes"),
                                      ("beta1 = 0.9", "beta1"),
                                      ("use_smote = maybe", "use_smote"),
                                      ("lr = -1", "lr must be")])
def test_train_bad_config_line_fails_naming_the_key(tmp_path, capsys, monkeypatch, line, key):
    data = gen(tmp_path)
    forbid_reading_the_csv(monkeypatch)
    cfg = config_file(tmp_path)
    cfg.write_text(cfg.read_text().replace("gru_units = 6\n", line + "\n"))
    out = tmp_path / "run"
    # no --lr flag: it would override the file's lr
    assert run_cli("train", "--data", data, "--config", cfg, "--out-dir", out,
                   "--epochs", 2, "--batch-size", 32) == 1
    err = capsys.readouterr().err
    assert "error [train]" in err and key in err
    assert not out.exists()


def test_train_config_that_is_not_utf8_fails_naming_the_file_and_byte(tmp_path, capsys):
    data = gen(tmp_path)
    cfg = tmp_path / "latin1.cfg"
    cfg.write_bytes("lr = 0.001 # café\n".encode("latin-1"))
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", cfg, "--out-dir", out,
                   *TRAIN_SPEED_FLAGS) == 1
    err = capsys.readouterr().err
    assert f"error [train]: {cfg}: not UTF-8 text: byte 0xe9 at offset 16" in err
    assert not out.exists()


def test_train_float32_leaves_the_default_dtype_at_float64(tmp_path):
    # float64, float32, then the default, in one process: the last checkpoint
    # is byte-equal to the first, so the float32 run left nothing behind
    data = gen(tmp_path)
    for name, dtype in (("f64", ["--dtype", "float64"]), ("f32", ["--dtype", "float32"]),
                        ("default", [])):
        assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                       "--out-dir", tmp_path / name, *dtype, *TRAIN_SPEED_FLAGS) == 0
    assert json.loads((tmp_path / "f32" / "manifest.json").read_text())["settings"]["dtype"] \
        == "float32"
    # float32 weights are saved as float32, 4 bytes a value, beside the float64 standardizer
    f32, f64 = (tmp_path / name / "checkpoint.bin" for name in ("f32", "f64"))
    arrays = load_checkpoint(f32)[0]
    assert {n: a.dtype.name for n, a in arrays.items()} == {
        n: "float32" if n.startswith("model.") else "float64" for n in load_checkpoint(f64)[0]}
    assert f64.stat().st_size - f32.stat().st_size == 4 * sum(
        a.size for n, a in arrays.items() if n.startswith("model."))
    assert (tmp_path / "default" / "checkpoint.bin").read_bytes() == f64.read_bytes()


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
    header = data.read_text().splitlines()[0].split(",")
    assert capsys.readouterr().err == \
        f"error [train]: {data}: label column 'nope' not found; columns: {header}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("header,name", [("a,a,label", "a"), ("label,f1,label", "label")])
def test_train_repeated_column_name_fails_naming_it(tmp_path, capsys, header, name):
    data = tmp_path / "t.csv"
    data.write_text(header + "\n" + "1,2,3\n4,5,6\n" * 10)
    assert run_cli("train", "--data", data, "--out-dir", tmp_path / "run") == 1
    assert capsys.readouterr().err == \
        f"error [train]: {data}: the header repeats the column name {name!r}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,cases", [("train", 1), ("ablate", 10)])
def test_the_raw_rows_are_freed_before_training(tmp_path, monkeypatch, command, cases):
    # the split holds copies of the rows it keeps, so the file's X is dead by
    # the time a model trains; each case is stopped right after the check
    data = gen(tmp_path)
    to_dataset = D.table_to_dataset
    raw, alive = [], []

    def keeping_a_weakref(*args, **kwargs):
        dataset, dropped = to_dataset(*args, **kwargs)
        raw.append(weakref.ref(dataset.X))
        return dataset, dropped

    def checking(model, split, cfg):
        gc.collect()
        alive.append([r() is not None for r in raw])
        raise SeqidsError("stopped after the check")

    monkeypatch.setattr(D, "table_to_dataset", keeping_a_weakref)
    monkeypatch.setattr(cli.TR, "train", checking)
    run_cli(command, "--data", data, "--epochs", 1, "--out-dir", tmp_path / "run")
    assert alive == [[False]] * cases


@pytest.mark.parametrize("command", ["train", "ablate"])
def test_out_of_memory_is_one_line_naming_the_command(tmp_path, capsys, monkeypatch, command):
    # no real allocation is attempted: the split, which both commands run
    # outside ablate's per-case recovery, raises what numpy raises when the
    # OS refuses an array
    data = gen(tmp_path)
    text = "Unable to allocate 8.00 GiB for an array with shape (1000, 1000000) and data type float64"

    def refusing(*args, **kwargs):
        raise MemoryError(text)

    monkeypatch.setattr(D, "train_test_split", refusing)
    assert run_cli(command, "--data", data, "--epochs", 1, "--out-dir", tmp_path / "run") == 1
    assert capsys.readouterr().err == f"error [{command}]: out of memory: {text}\n"
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("command,flags,seed", [
    ("train", ["--seed", -1], -1),
    ("train", ["--config", "{config}"], -1),
    ("ablate", ["--seed", -3], -3),
], ids=["train_flag", "train_config_line", "ablate_flag"])
def test_negative_seed_fails_naming_it(tmp_path, capsys, command, flags, seed):
    data = gen(tmp_path)
    config = tmp_path / "seed.cfg"
    config.write_text("seed = -1\n")
    out = tmp_path / "run"
    assert run_cli(command, "--data", data, "--out-dir", out,
                   *(str(f).format(config=config) for f in flags)) == 1
    assert f"seed must be >= 0, got {seed}" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("lr", ["-1", "0", "inf", "nan"])
def test_train_lr_that_is_not_finite_and_positive_fails_naming_it(tmp_path, capsys, lr):
    data = gen(tmp_path)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", out, "--epochs", 1, "--lr", lr) == 1
    assert "lr must be a finite number > 0" in capsys.readouterr().err
    assert not out.exists()


def test_train_that_diverges_fails_naming_the_step_and_writes_no_checkpoint(tmp_path, capsys):
    # the first step moves every weight by about 1e30; the second one's squared
    # gradients overflow the Adam second moment (numpy warnings are errors here)
    data = gen(tmp_path, per_class=30)
    out = tmp_path / "run"
    assert run_cli("train", "--data", data, "--out-dir", out, "--lr", "1e30") == 1
    err = capsys.readouterr().err
    assert "error [train]: parameter '" in err
    assert "non-finite at epoch 2, batch 0" in err
    assert not (out / "checkpoint.bin").exists()


def test_train_validation_fraction_holding_out_nothing_fails(tmp_path, capsys):
    # 5 rows per class leave 4 for training, and round(0.1 * 4) = 0 to validate
    data = gen(tmp_path, per_class=5)
    rc = run_cli("train", "--data", data, "--val-fraction", "0.1", "--epochs", "1",
                 "--out-dir", tmp_path / "run")
    assert rc == 1
    assert "validation_fraction 0.1" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


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
                   "--out-dir", out) == 0
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


def test_eval_report_json_schema(tmp_path):
    data, ckpt = trained_run(tmp_path)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out-dir", out) == 0
    blob = json.loads((out / "report.json").read_text())
    assert set(blob) == {"accuracy", "macro", "weighted", "micro_fpr", "per_class",
                         "confusion", "auc", "loss", "inference_seconds_per_instance",
                         "inference_latency"}
    for key in ("accuracy", "micro_fpr", "loss", "inference_seconds_per_instance"):
        assert isinstance(blob[key], float), key
    assert set(blob["macro"]) == {"precision", "recall", "f1", "fpr"}
    assert set(blob["weighted"]) == {"precision", "recall", "f1"}
    names = [c["name"] for c in blob["per_class"]]
    for c in blob["per_class"]:
        assert set(c) == {"name", "precision", "recall", "f1", "fpr", "support", "degenerate"}
        assert isinstance(c["support"], int) and isinstance(c["degenerate"], bool)
    assert set(blob["auc"]) == set(names)
    cm = blob["confusion"]
    assert len(cm) == len(names) and all(
        len(row) == len(names) and all(isinstance(v, int) for v in row) for row in cm)
    # latency per instance at the timed batch (up to 64 rows), then at batch 1
    latency = blob["inference_latency"]
    assert [lat["batch_size"] for lat in latency] == [min(64, sum(map(sum, cm))), 1]
    for lat in latency:
        assert set(lat) == {"batch_size", "p50", "p95"}
        assert 0 < lat["p50"] <= lat["p95"]
    assert blob["inference_seconds_per_instance"] == latency[0]["p50"]


def test_eval_train_data_beats_heldout_on_separable_task(tmp_path):
    data, ckpt = trained_run(tmp_path)
    full = tmp_path / "eval_full"
    hold = tmp_path / "eval_hold"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out-dir", full) == 0
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--holdout",
                   "--out-dir", hold) == 0
    acc_full = json.loads((full / "report.json").read_text())["accuracy"]
    acc_hold = json.loads((hold / "report.json").read_text())["accuracy"]
    # full file includes the training rows, so it cannot score below holdout
    assert acc_full >= acc_hold - 1e-9


def test_eval_that_fails_while_scoring_leaves_no_directory(tmp_path, capsys, monkeypatch):
    data, ckpt = trained_run(tmp_path)

    def timing_fails(model, batch):
        raise SeqidsError("the timed runs failed")

    monkeypatch.setattr(cli.TR, "measure_inference", timing_fails)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", data, "--out-dir", out) == 1
    assert capsys.readouterr().err == "error [eval]: the timed runs failed\n"
    assert not out.exists()


def untrained_checkpoint(tmp_path, class_names):
    path = tmp_path / "untrained.bin"
    save_model(path, small_model(), D.Standardizer(np.zeros(12), np.ones(12)),
               D.Schema([f"f{i:02d}" for i in range(12)], class_names, {}, "label"),
               cli.TR.TrainConfig(seed=0), 0.8, True, "")
    return path


def test_eval_names_roc_curves_by_class_name(tmp_path):
    data = gen(tmp_path)
    names = ["class00", "class01", "class02"]
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", untrained_checkpoint(tmp_path, names),
                   "--data", data, "--out-dir", out) == 0
    blob = json.loads((out / "report.json").read_text())
    assert [p["name"] for p in blob["per_class"]] == names
    assert sorted(blob["auc"]) == names
    with open(out / "roc.csv", newline="") as fh:
        assert {row["class"] for row in csv.DictReader(fh)} == set(names)


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


def small_model():
    return build_model(ModelConfig(input_shape=(12, 1), num_classes=3, conv_filters=4,
                                   gru_units=4, num_heads=2, key_dim=4, dense_units=(8,)),
                       np.random.default_rng(0))


def small_model_arrays():
    model = small_model()
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
        load_model(path)


CLASSES = ["class00", "class01", "class02"]
#: the meta of a whole model file but its label column
SCHEMA_META = {"class_names": CLASSES, "train": {"seed": 0, "fraction": 0.8, "data_sha256": ""},
               "feature_names": [f"f{i:02d}" for i in range(12)], "categories": {}}


@pytest.mark.parametrize("meta,named", [
    ({"train": {"seed": 0, "fraction": 0.8}}, "'class_names'"),
    ({"class_names": CLASSES}, "'train'"),
    ({"class_names": CLASSES, "train": {"seed": "0", "fraction": 0.8}}, "'train'"),
    ({"class_names": CLASSES, "train": {"seed": -1, "fraction": 0.8}}, "'train'"),
    ({"config": {"num_heads": "2"}}, "'num_heads'"),
    ({"config": {"dense_units": 5}}, "'dense_units'"),
    ({"config": {"input_shape": 8}}, "'input_shape'"),
    ({"config": {"dropout_rate": None}}, "'dropout_rate'"),
    ({"config": {"use_mha": 1}}, "'use_mha'"),
    ({"config": {"gru_units": True}}, "'gru_units'"),
    ({"class_names": CLASSES, "train": {"seed": 0, "fraction": 0.8}, "config": {"num_heads": 0}},
     "num_heads must be >= 1, got 0"),
    (SCHEMA_META, "'label_column'"),
    ({**SCHEMA_META, "label_column": 3}, "'label_column'"),
    ({**SCHEMA_META, "label_column": "f03"}, "'label_column'"),
], ids=["no_class_names", "no_train", "string_seed", "negative_seed", "string_num_heads",
        "int_dense_units", "int_input_shape", "null_dropout_rate", "int_use_mha",
        "bool_gru_units", "zero_num_heads", "no_label_column", "int_label_column",
        "feature_label_column"])
def test_eval_checkpoint_with_incomplete_meta_fails_cleanly_and_leaves_no_directory(
        tmp_path, capsys, meta, named):
    # a "config" entry holds the keys that replace the valid config's
    data = gen(tmp_path)
    cfg, arrays = small_model_arrays()
    arrays.update({"standardizer.mean": np.zeros(12), "standardizer.scale": np.ones(12)})
    path = tmp_path / "partial.bin"
    save_checkpoint(path, arrays, {**meta, "config": {**cfg.to_dict(), **meta.get("config", {})}})
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert "error [eval]" in err and str(path) in err and named in err
    assert not out.exists()


@pytest.mark.parametrize("dtypes", [("float32", "float64"), ("float16", "float16"),
                                    ("int64", "int64")], ids=["mixed", "float16", "int64"])
def test_model_checkpoint_with_weights_not_all_float64_or_all_float32_is_rejected(
        tmp_path, dtypes):
    path = untrained_checkpoint(tmp_path, CLASSES)
    arrays, meta = load_checkpoint(path)
    names = [n for n in arrays if n.startswith("model.")]
    for i, name in enumerate(names):
        arrays[name] = arrays[name].astype(dtypes[i % 2])
    save_checkpoint(path, arrays, meta)
    with pytest.raises(InputError, match="model arrays must be all float64 or all float32, "
                                         rf"not \[{', '.join(map(repr, sorted(set(dtypes))))}\]"):
        load_model(path)


def test_eval_builds_the_model_in_the_checkpoints_dtype(tmp_path):
    # saved and loaded the way train and eval do, a model keeps its dtype and
    # its logits bit for bit; eval's manifest records the dtype
    data = gen(tmp_path)
    dataset, _ = D.load_csv(data)
    standardizer = D.fit_standardizer(dataset.X)
    X = D.reshape_for_model(dataset.X, standardizer)
    schema = D.Schema(dataset.feature_names, dataset.encoder.class_names, dataset.categories,
                      "label")
    cfg, _ = small_model_arrays()
    for dtype in ("float32", "float64"):
        model = build_model(cfg, np.random.default_rng(4), dtype)
        path = tmp_path / f"{dtype}.bin"
        save_model(path, model, standardizer, schema, cli.TR.TrainConfig(), 0.8, True, "")
        loaded = load_model(path)[0]
        assert {t.data.dtype.name for t in loaded.named_arrays().values()} == {dtype}
        logits = cli.TR.predict_logits(loaded, X)
        assert logits.dtype == dtype
        assert logits.tobytes() == cli.TR.predict_logits(model, X).tobytes()
        out = tmp_path / f"eval-{dtype}"
        assert run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", out) == 0
        assert json.loads((out / "manifest.json").read_text())["settings"]["dtype"] == dtype


def rewrite_csv(src, dst, edit):
    """Write ``dst`` as ``src`` with ``edit(header, rows)`` applied; returns ``dst``."""
    with open(src, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    header, rows = edit(header, rows)
    with open(dst, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([header] + rows)
    return dst


def scores(out_dir) -> dict:
    """report.json without its latency figures, which vary run to run."""
    blob = json.loads((out_dir / "report.json").read_text())
    return {k: v for k, v in blob.items() if not k.startswith("inference")}


def test_eval_picks_columns_by_name(tmp_path):
    data, ckpt = trained_run(tmp_path)

    def swap_first_two(header, rows):
        order = [1, 0] + list(range(2, len(header)))
        return [header[i] for i in order], [[row[i] for i in order] for row in rows]

    swapped = rewrite_csv(data, tmp_path / "swapped.csv", swap_first_two)
    for name, path in (("plain", data), ("swapped", swapped)):
        assert run_cli("eval", "--checkpoint", ckpt, "--data", path,
                       "--out-dir", tmp_path / name) == 0
    assert scores(tmp_path / "swapped") == scores(tmp_path / "plain")


def with_proto(header, rows):
    """A first column ``proto`` cycling through icmp, tcp and udp."""
    return ["proto"] + header, [[("icmp", "tcp", "udp")[i % 3]] + row
                                for i, row in enumerate(rows)]


def test_eval_codes_categories_by_the_training_vocabulary(tmp_path):
    data = rewrite_csv(gen(tmp_path), tmp_path / "proto.csv", with_proto)
    run = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", run, *TRAIN_SPEED_FLAGS) == 0
    # a second file whose proto cells are only tcp and udp: coded by their own
    # file, tcp would be 0, the training file's code for icmp
    no_icmp = rewrite_csv(data, tmp_path / "no_icmp.csv", lambda header, rows: (
        header, [row for row in rows if row[0] != "icmp"]))
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", run / "checkpoint.bin", "--data", no_icmp,
                   "--out-dir", out) == 0

    model, standardizer, schema, *_ = load_model(run / "checkpoint.bin")
    assert schema.categories == {"proto": ["icmp", "tcp", "udp"]}
    full, _ = D.load_csv(data)   # proto coded icmp 0, tcp 1, udp 2
    rows = full.X[:, 0] != 0
    logits = cli.TR.predict_logits(model, D.reshape_for_model(full.X[rows], standardizer))
    loss = float(cli.TR.cross_entropy_loss(Tensor(logits), full.y[rows]).data)
    assert json.loads((out / "report.json").read_text())["loss"] == loss


@pytest.mark.parametrize("column, value", [("proto", "sctp"), ("label", "class09")])
def test_eval_value_unseen_in_training_fails_naming_it(tmp_path, capsys, column, value):
    data = rewrite_csv(gen(tmp_path), tmp_path / "proto.csv", with_proto)
    run = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", run, "--epochs", 1) == 0

    def plant(header, rows):
        rows[3][header.index(column)] = value
        return header, rows

    other = rewrite_csv(data, tmp_path / "other.csv", plant)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", run / "checkpoint.bin", "--data", other,
                   "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert f"column '{column}' holds '{value}'" in err
    assert not out.exists()


@pytest.mark.parametrize("edit, message", [
    (lambda header, rows: (["g03" if h == "f03" else h for h in header], rows),
     "no column 'f03'"),
    (lambda header, rows: (header, [["tcp"] + row[1:] for row in rows]),
     "column 'f00' holds text"),
], ids=["renamed", "text_in_numeric"])
def test_eval_file_unlike_the_training_file_fails_naming_the_column(tmp_path, capsys, edit,
                                                                   message):
    data, ckpt = trained_run(tmp_path)
    other = rewrite_csv(data, tmp_path / "other.csv", edit)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", other, "--out-dir", out) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_eval_file_without_a_class_reports_it_with_support_zero(tmp_path):
    data, ckpt = trained_run(tmp_path)
    two = rewrite_csv(data, tmp_path / "two.csv", lambda header, rows: (
        header, [row for row in rows if row[-1] != "class01"]))
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", two, "--out-dir", out) == 0
    per_class = json.loads((out / "report.json").read_text())["per_class"]
    assert [(c["name"], c["support"]) for c in per_class] == [
        ("class00", 40), ("class01", 0), ("class02", 40)]


def test_eval_holdout_of_another_file_fails_naming_both_hashes(tmp_path, capsys):
    data, ckpt = trained_run(tmp_path)
    other = gen(tmp_path, name="other.csv", seed=1)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", ckpt, "--data", other, "--holdout",
                   "--out-dir", out) == 1
    err = capsys.readouterr().err
    for path in (data, other):
        assert hashlib.sha256(path.read_bytes()).hexdigest() in err
    assert not out.exists()


def test_eval_reads_its_labels_from_the_column_the_model_file_names(tmp_path, capsys):
    # the attack type is "kind", and an attack/benign flag beside it is named
    # "label", as in Edge-IIoTset and CICIoV2024; eval is given no label column
    def kind_and_flag(header, rows):
        return (header[:-1] + ["kind", "label"],
                [row + ["benign" if row[-1] == "class00" else "attack"] for row in rows])

    data = rewrite_csv(gen(tmp_path), tmp_path / "flagged.csv", kind_and_flag)
    run, out = tmp_path / "run", tmp_path / "eval"
    assert run_cli("train", "--data", data, "--label-column", "kind", "--config",
                   config_file(tmp_path), "--out-dir", run, *TRAIN_SPEED_FLAGS) == 0
    assert run_cli("eval", "--checkpoint", run / "checkpoint.bin", "--data", data, "--holdout",
                   "--out-dir", out) == 0
    assert json.loads((out / "manifest.json").read_text())["settings"]["label_column"] == "kind"
    assert [c["name"] for c in json.loads((out / "report.json").read_text())["per_class"]] == \
        CLASSES

    # a file without that column is an input fault, named with the file
    no_kind = rewrite_csv(data, tmp_path / "no_kind.csv", lambda header, rows: (
        header[:-2] + header[-1:], [row[:-2] + row[-1:] for row in rows]))
    capsys.readouterr()
    assert run_cli("eval", "--checkpoint", run / "checkpoint.bin", "--data", no_kind,
                   "--out-dir", tmp_path / "eval2") == 1
    columns = [f"f{i:02d}" for i in range(12)] + ["label"]
    assert capsys.readouterr().err == \
        f"error [eval]: {no_kind}: label column 'kind' not found; columns: {columns}\n"
    assert not (tmp_path / "eval2").exists()


@pytest.mark.parametrize("flag", [("--label-column", "x"), ("--repetitions", 10)],
                         ids=["label_column", "repetitions"])
def test_eval_takes_no_label_column_or_repetitions_flag(tmp_path, capsys, flag):
    with pytest.raises(SystemExit) as stopped:
        run_cli("eval", "--checkpoint", tmp_path / "c.bin", "--data", tmp_path / "d.csv",
                "--out-dir", tmp_path / "eval", *flag)
    assert stopped.value.code == 2
    assert f"unrecognized arguments: {flag[0]} {flag[1]}" in capsys.readouterr().err


@pytest.mark.parametrize("edit, named", [
    (lambda arrays, meta: arrays.update({"standardizer.mean": np.zeros(3)}),
     "its 'standardizer.mean' array is not 12 finite floats: float64 of shape (3,)"),
    (lambda arrays, meta: arrays.update({"standardizer.scale": np.ones(1)}),
     "its 'standardizer.scale' array is not 12 finite floats > 0: float64 of shape (1,)"),
    (lambda arrays, meta: arrays["standardizer.scale"].fill(0.0),
     "its 'standardizer.scale' array is not 12 finite floats > 0: float64 of shape (12,)"),
    (lambda arrays, meta: meta["feature_names"].pop(),
     "its 'feature_names' list has 11 names for a model of 12 features"),
    (lambda arrays, meta: meta["feature_names"].__setitem__(1, meta["feature_names"][0]),
     "its 'feature_names' list has 12 names for a model of 12 features, 11 of them distinct"),
    (lambda arrays, meta: meta["class_names"].append("extra"),
     "its meta has no 'class_names' list of 3 distinct strings, one per model class"),
    (lambda arrays, meta: meta["class_names"].pop(),
     "its meta has no 'class_names' list of 3 distinct strings, one per model class"),
    (lambda arrays, meta: meta["class_names"].__setitem__(1, meta["class_names"][0]),
     "its meta has no 'class_names' list of 3 distinct strings, one per model class"),
    (lambda arrays, meta: arrays.pop("model.conv1.kernels"),
     "missing arrays ['conv1.kernels'], unknown arrays []"),
    (lambda arrays, meta: arrays.update({"model.conv3.kernels": np.ones((8, 8, 3))}),
     "missing arrays [], unknown arrays ['conv3.kernels']"),
    (lambda arrays, meta: arrays.update({"model.conv1.kernels": np.ones((8, 1, 2))}),
     "array 'conv1.kernels' has shape (8, 1, 2), expected (8, 1, 3)"),
    (lambda arrays, meta: arrays["model.conv1.kernels"].__setitem__((0, 0, 0), np.nan),
     "its 'model.conv1.kernels' array holds a value that is not finite"),
], ids=["mean_of_3", "scale_of_1", "zero_scale", "one_feature_name_short",
        "repeated_feature_name", "one_class_name_extra", "one_class_name_short",
        "repeated_class_name", "missing_model_array", "unknown_model_array",
        "misshapen_model_array", "nan_weight"])
def test_eval_checkpoint_whose_standardizer_or_features_disagree_with_its_model_fails(
        tmp_path, capsys, edit, named):
    data = gen(tmp_path)
    run = tmp_path / "run"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", run, "--epochs", 1) == 0
    arrays, meta = load_checkpoint(run / "checkpoint.bin")
    edit(arrays, meta)
    path = tmp_path / "edited.bin"
    save_checkpoint(path, arrays, meta)
    out = tmp_path / "eval"
    assert run_cli("eval", "--checkpoint", path, "--data", data, "--out-dir", out) == 1
    err = capsys.readouterr().err
    assert f"error [eval]: {path}: not a model checkpoint: {named}" in err
    assert not out.exists()


@pytest.mark.parametrize("drop", ["feature_names", "categories", "data_sha256"])
def test_checkpoint_without_the_training_schema_is_rejected(tmp_path, drop):
    _, ckpt = trained_run(tmp_path)
    arrays, meta = load_checkpoint(ckpt)
    del (meta["train"] if drop == "data_sha256" else meta)[drop]
    path = tmp_path / "old.bin"
    save_checkpoint(path, arrays, meta)
    with pytest.raises(InputError, match=f"not a model checkpoint: .*'{drop}'"):
        load_model(path)


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


def test_ablate_lets_an_error_that_is_not_a_seqids_error_propagate(tmp_path, monkeypatch):
    data = gen(tmp_path, classes=3, features=8, per_class=30)

    def broken_train(model, split, cfg):
        raise RuntimeError("a bug, not a failed case")

    monkeypatch.setattr(cli.TR, "train", broken_train)
    out = tmp_path / "ablation"
    with pytest.raises(RuntimeError, match="a bug, not a failed case"):
        run_cli("ablate", "--data", data, "--out-dir", out, "--epochs", 1)
    assert not out.exists()


@pytest.mark.parametrize("extra_row, flag, message", [
    ("0.5," * 8 + "lonely", ["--epochs", 1], "'lonely' has 1 sample(s)"),
    (None, ["--bn-momentum", 1.5], "bn_momentum must be in [0, 1)"),
    (None, ["--epochs", 0], "epochs and batch_size must be >= 1"),
    ("one class", ["--epochs", 1], "num_classes must be >= 2, got 1"),
], ids=["class_of_one_row", "bn_momentum", "epochs", "one_class_file"])
def test_ablate_that_fails_leaves_no_directory(tmp_path, capsys, monkeypatch, extra_row, flag,
                                               message):
    # a bad flag fails before the CSV is read; a file of one class fails the
    # run once, not each of the ten cases
    data = gen(tmp_path, classes=3, features=8, per_class=30)
    if extra_row == "one class":
        rewrite_csv(data, data, lambda header, rows: (
            header, [row[:-1] + ["class00"] for row in rows]))
    elif extra_row:
        with open(data, "a", encoding="utf-8") as fh:
            fh.write(extra_row + "\n")
    else:
        forbid_reading_the_csv(monkeypatch)
    out = tmp_path / "ablation"
    assert run_cli("ablate", "--data", data, "--out-dir", out, *flag) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


# ---------------------------------------------------------------------------
# manifests

def test_manifests_record_the_readers_rows_and_columns(tmp_path):
    # a quoted comma in a header cell, a quoted line break and a U+2028 in a
    # categorical column, and one dropped row: 90 rows and 10 columns, which a
    # count of text lines and of commas in the first line makes 92 and 11
    data = gen(tmp_path, classes=3, features=8, per_class=30)
    with open(data, newline="", encoding="utf-8") as fh:
        header, *rows = csv.reader(fh)
    header[0] = "f00, first"
    words = ["line\nbreak", "para\u2028graph"] + ["plain", "other"] * 44
    rows = [[word] + row for word, row in zip(words, rows)]
    rows[-1][1] = "?"
    with open(data, "w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows([["kind"] + header] + rows)
    expected = {"path": str(data), "rows": 90, "columns": 10,
                "sha256": hashlib.sha256(data.read_bytes()).hexdigest()}

    run, ev, ab = tmp_path / "run", tmp_path / "eval", tmp_path / "ablation"
    assert run_cli("train", "--data", data, "--config", config_file(tmp_path),
                   "--out-dir", run, *TRAIN_SPEED_FLAGS) == 0
    assert run_cli("eval", "--checkpoint", run / "checkpoint.bin", "--data", data,
                   "--out-dir", ev) == 0
    assert run_cli("ablate", "--data", data, "--out-dir", ab, "--epochs", 1,
                   "--batch-size", 32, "--bn-momentum", 0.8) == 0
    for out in (run, ev, ab):
        assert json.loads((out / "manifest.json").read_text())["dataset"] == expected


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


# ---------------------------------------------------------------------------
# the console command: each call a fresh process, as an installed ``seqids``
# runs, where a numpy RuntimeWarning is an error

def console(*argv) -> subprocess.CompletedProcess:
    # the child imports the same seqids as this process, installed or not
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONWARNINGS": "error::RuntimeWarning",
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-m", "seqids.cli", *map(str, argv)],
                          capture_output=True, text=True, env=env)


def console_ok(*argv) -> None:
    proc = console(*argv)
    assert proc.returncode == 0, proc.stderr


def test_console_entry_point_smoke(tmp_path):
    out = tmp_path / "d.csv"
    console_ok("gen-data", "--out", out, "--classes", 2, "--features", 4, "--per-class", 5)
    assert out.exists()


@pytest.fixture(scope="module")
def float32_run(tmp_path_factory):
    """(data, checkpoint, eval directory) of gen-data, a float32 train and
    eval --holdout, each run as a console command."""
    tmp = tmp_path_factory.mktemp("float32")
    data, run, ev = tmp / "e2e.csv", tmp / "run", tmp / "eval"
    console_ok("gen-data", "--classes", 3, "--features", 12, "--per-class", 40, "--out", data)
    console_ok("train", "--data", data, "--dtype", "float32", "--epochs", 1, "--out-dir", run)
    console_ok("eval", "--checkpoint", run / "checkpoint.bin", "--data", data, "--holdout",
               "--out-dir", ev)
    return data, run / "checkpoint.bin", ev


def test_console_float32_train_saves_float32_weights_and_eval_scores_in_float32(float32_run):
    _, ckpt, ev = float32_run
    dtypes = {n: a.dtype.name for n, a in load_checkpoint(ckpt)[0].items()
              if n.startswith("model.")}
    assert dtypes and set(dtypes.values()) == {"float32"}, dtypes
    assert json.loads((ev / "manifest.json").read_text())["settings"]["dtype"] == "float32"


def test_console_eval_names_auc_and_roc_curves_by_the_per_class_names(float32_run):
    # a curve's class is its place in the list, so roc.csv may name only those
    _, _, ev = float32_run
    report = json.loads((ev / "report.json").read_text())
    names = [c["name"] for c in report["per_class"]]
    with open(ev / "roc.csv", newline="") as fh:
        roc = {row["class"] for row in csv.DictReader(fh)}
    assert sorted(report["auc"]) == sorted(names)
    assert roc and roc <= set(names)


def test_console_eval_of_a_checkpoint_with_one_class_name_too_many_fails(float32_run, tmp_path):
    data, ckpt, _ = float32_run
    arrays, meta = load_checkpoint(ckpt)
    meta["class_names"].append("extra")
    path = tmp_path / "extra.bin"
    save_checkpoint(path, arrays, meta)
    proc = console("eval", "--checkpoint", path, "--data", data, "--out-dir", tmp_path / "eval")
    assert proc.returncode == 1
    assert "class_names" in proc.stderr


def test_console_float32_ablate_writes_ten_rows_and_no_failed_case(float32_run, tmp_path):
    data, _, _ = float32_run
    out = tmp_path / "ablate"
    console_ok("ablate", "--data", data, "--dtype", "float32", "--epochs", 1, "--out-dir", out)
    with open(out / "ablation.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 10
    assert [r["case"] for r in rows if r["error"]] == []


def test_console_eval_of_a_file_shaped_like_a_capture_counts_every_row(tmp_path):
    # a quoted cell that holds a comma (the csv.reader path), one '?' cell (the
    # missing-marker fallback and a dropped row), and a column that is numeric
    # for 1100 rows and text after (read again as categories past the first
    # chunk); eval --holdout reads it through the checkpoint's schema
    data, rng = tmp_path / "shaped.csv", random.Random(0)
    with open(data, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["duration", "bytes", "proto", "service", "label"])
        for i in range(1500):
            c = i % 3
            writer.writerow([f"{rng.gauss(c, 1):.3f}",
                             "?" if i == 700 else rng.randint(0, 255) + 40 * c,
                             i % 7 if i < 1100 else rng.choice(["tcp", "udp"]),
                             "http, tls" if i == 5 else rng.choice(["dns", "mqtt"]),
                             f"attack{c}"])
    run, ev = tmp_path / "run", tmp_path / "eval"
    console_ok("train", "--data", data, "--dtype", "float32", "--epochs", 1, "--out-dir", run)
    console_ok("eval", "--checkpoint", run / "checkpoint.bin", "--data", data, "--holdout",
               "--out-dir", ev)
    dataset = json.loads((ev / "manifest.json").read_text())["dataset"]
    assert (dataset["rows"], dataset["columns"]) == (1500, 5)   # the dropped row counts


def test_console_train_takes_its_settings_from_a_config_file(tmp_path):
    data = tmp_path / "imb.csv"
    console_ok("gen-data", "--classes", 3, "--features", 12, "--per-class", 40,
               "--imbalance", "4:1", "--out", data)
    # 40 + 10 + 10 rows
    assert json.loads((tmp_path / "imb.csv.manifest.json").read_text())["dataset"]["rows"] == 60
    cfg, run = tmp_path / "small.cfg", tmp_path / "run"
    cfg.write_text("# a small model\n\ngru_units = 8\ndense_units = 16\n"
                   "lr = 0.002  # a comment\nuse_smote = off\n")
    console_ok("train", "--data", data, "--config", cfg, "--dtype", "float32", "--epochs", 1,
               "--out-dir", run)
    settings = json.loads((run / "manifest.json").read_text())["settings"]
    assert (settings["model"]["gru_units"], settings["model"]["dense_units"],
            settings["train"]["lr"], settings["smote"]) == (8, [16], 0.002, False)


def test_console_config_key_typo_fails_before_the_data_file_is_opened(tmp_path):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("gru_unit = 8\n")
    proc = console("train", "--data", tmp_path / "missing.csv", "--config", cfg,
                   "--out-dir", tmp_path / "run")
    assert proc.returncode == 1
    assert "unknown config key" in proc.stderr
