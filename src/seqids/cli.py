"""Command-line entry point.

Subcommands:

* ``gen-data``  write a synthetic labeled CSV (seeded, byte-reproducible)
* ``train``     load CSV -> encode -> 80/20 split -> optional SMOTE on the
                training split -> standardize -> train; writes
                ``checkpoint.bin`` (the model file, whose arrays, meta
                and checks ``seqids.checkpoint`` states), ``epochs.csv``
                and ``manifest.json``
* ``eval``      load a model file (``--checkpoint``, read by
                ``seqids.checkpoint.load_model``, which refuses one that does
                not make a whole model) and a CSV (``--data``: the full file,
                or with ``--holdout`` the run's held-out split, only of the
                training file itself, same sha256), the CSV read through the
                training file's schema: its labels from the label column the
                model file names, feature columns by name, and labels and
                categorical columns by the vocabularies the model file
                stores; emit the classification report (JSON + text) with
                the loss, confusion and ROC CSVs, and per-instance latency
                (p50 and p95 of ``train.REPETITIONS`` timed runs, at a batch
                of up to ``train.INFER_ROWS`` rows, a full one scored in two
                halves on two CPUs where there are two, and at batch 1, on
                one); predictions and loss come from one pass over the logits
* ``ablate``    train and evaluate the ten-variant grid on one shared split,
                emit ``ablation.csv``

``train`` and ``ablate`` settle their settings in one path before the CSV
is read, so a bad setting fails before any row is parsed: the flagship
``ModelConfig``, the ``TrainConfig`` and the SMOTE switch each take their
defaults, then the ``--config`` file (``train`` only), then the flags that
were given. Once the file is read, the flagship takes its input shape and
classes from it, and ``ablate`` grows its ten cases from that flagship.
Config files are flat ``key = value`` text ('#' starts a comment). Their
keys are the ``ModelConfig`` fields ``use_resnet_block``, ``use_bigru``,
``use_mha``, ``conv_filters``, ``kernel_size``, ``gru_units``,
``num_heads``, ``key_dim``, ``dropout_rate``, ``dense_units`` (a comma
list) and ``bn_momentum``; the ``TrainConfig`` fields ``epochs``,
``batch_size``, ``lr``, ``seed`` and ``validation_fraction``; and
``use_smote``. Any other key, a malformed value or an out-of-range setting
is an error. ``--dtype`` (``train`` and ``ablate``) is the dtype of the
models the command builds, float64 by default; it sets nothing beyond
them. ``eval`` builds its model in the checkpoint's dtype. ``--label-column``
(``train`` and ``ablate``, ``label`` by default) names the file's label
column; ``train`` stores it in the model file.

Every artifact directory receives exactly one ``manifest.json`` capturing
the command, settings, seed, dataset entry, tool version and timestamps. The
dataset entry holds the file's path and sha256 and the reader's counts:
``rows`` is every data row, dropped rows included, and ``columns`` is every
column, the label included. ``--out-dir`` is created just before the first
artifact is written, so a run that fails before that leaves no directory.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import hashlib
import inspect
import json
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__
from . import data as D
from . import metrics as M
from . import tensor as T
from . import train as TR
from .checkpoint import load_model, save_model
from .errors import ConfigError, InputError, SeqidsError
from .model import Model, ModelConfig, build_model, table3_grid
from .tensor import Tensor

# input_shape and num_classes are read from the data, never from a config file
MODEL_KEYS = {f.name for f in dataclasses.fields(ModelConfig)} - {"input_shape", "num_classes"}
TRAIN_KEYS = {f.name for f in dataclasses.fields(TR.TrainConfig)}
#: the metric columns of ``ablation.csv``, left empty in a failed case's row
_ABLATION_METRICS = ("accuracy", "loss", "fpr", "inf_time", "min_class_recall")


# ---------------------------------------------------------------------------
# Config files and manifests

def parse_config_file(path) -> dict[str, str]:
    """Flat key-value grammar: ``key = value`` per line, '#' comments, in UTF-8.

    A byte that is not UTF-8 is a ``ConfigError`` naming its offset in the file.
    """
    values: dict[str, str] = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path}: not UTF-8 text: byte {exc.object[exc.start]:#04x} "
                          f"at offset {exc.start}") from None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key in values:
            raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
        values[key] = value
    return values


def _coerce(key: str, value: str, target):
    """``value`` as the type of ``target``, a config field's current value: a
    bool, an int, a float or, as a comma list, a tuple of ints."""
    if isinstance(target, bool):
        low = value.lower()
        if low in ("true", "1", "yes", "on"):
            return True
        if low in ("false", "0", "no", "off"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {value!r}")
    try:
        if isinstance(target, int):
            return int(value)
        if isinstance(target, float):
            return float(value)
        return tuple(int(v) for v in value.split(",") if v.strip())
    except ValueError:
        raise ConfigError(
            f"{key}: expected {type(target).__name__} like {target!r}, got {value!r}") from None


def apply_config(cfg, values: dict[str, str], args):
    """Set ``cfg``'s fields from the config file ``values``, then from the
    flags of ``args`` that were given (each flag's dest is the field name),
    then validate."""
    for f in dataclasses.fields(cfg):
        if f.name in values:
            setattr(cfg, f.name, _coerce(f.name, values[f.name], getattr(cfg, f.name)))
        if getattr(args, f.name, None) is not None:
            setattr(cfg, f.name, getattr(args, f.name))
    cfg.validate()
    return cfg


def _settings(args) -> tuple[ModelConfig, TR.TrainConfig, bool]:
    """(flagship ``ModelConfig``, ``TrainConfig``, use SMOTE) of ``train`` or
    ``ablate``, validated: defaults, then the ``--config`` file, then the
    flags. The model's input shape and classes wait for ``_sized_to``."""
    values = parse_config_file(args.config) if getattr(args, "config", None) else {}
    unknown = sorted(values.keys() - MODEL_KEYS - TRAIN_KEYS - {"use_smote"})
    if unknown:
        raise ConfigError(f"{args.config}: unknown config key(s) {unknown}")
    model_cfg = apply_config(ModelConfig(), values, args)
    train_cfg = apply_config(TR.TrainConfig(), values, args)
    use_smote = _coerce("use_smote", values.get("use_smote", "true"), True)
    if getattr(args, "smote", None) is not None:
        use_smote = args.smote
    return model_cfg, train_cfg, use_smote


#: bytes read at a time by ``dataset_fingerprint``
_FINGERPRINT_BLOCK = 1 << 20


def dataset_fingerprint(path, rows: int, columns: int) -> dict:
    """The manifest's dataset entry: the given counts and the file's sha256,
    read in blocks of ``_FINGERPRINT_BLOCK`` bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        while block := fh.read(_FINGERPRINT_BLOCK):
            digest.update(block)
    return {"path": str(path), "rows": rows, "columns": columns, "sha256": digest.hexdigest()}


def write_manifest(path: Path, command: str, settings: dict,
                   seed: int, fingerprint: dict | None, started: float) -> None:
    manifest = {
        "command": command,
        "settings": settings,
        "seed": seed,
        "dataset": fingerprint,
        "tool_version": __version__,
        "started": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime(started)),
        "finished": time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime()),
    }
    path.write_text(json.dumps(manifest, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def parse_imbalance(spec: str, classes: int) -> list[float]:
    """Either 'a:b' (one majority at weight a, the rest at b, scaled so the
    majority is 1) or an explicit comma list of per-class weights."""
    ratio = ":" in spec
    parts = spec.split(":", 1) if ratio else [v for v in spec.split(",") if v.strip()]
    try:
        weights = [float(v) for v in parts]
    except ValueError:
        raise ConfigError(f"imbalance must be 'a:b' or a comma list of numbers, "
                          f"got {spec!r}") from None
    if not all(np.isfinite(w) and w > 0 for w in weights):
        raise ConfigError(f"imbalance weights must be finite and positive, got {spec!r}")
    if ratio:
        a, b = weights
        return [1.0] + [b / a] * (classes - 1)
    if len(weights) != classes:
        raise ConfigError(f"imbalance list has {len(weights)} entries for {classes} classes")
    return weights


# ---------------------------------------------------------------------------
# Pipeline pieces shared by the subcommands

def _load_dataset(path, label_column: str,
                  schema: D.Schema | None = None) -> tuple[D.Dataset, dict]:
    """The CSV at ``path`` read as ``load_csv`` reads it, through ``schema``
    when given, and the manifest's dataset entry with the file's own counts."""
    table = D.read_table(path, label_column, schema)
    dataset, dropped = D.table_to_dataset(table, schema)
    if dropped:
        print(f"dropped {dropped} unparseable row(s)", file=sys.stderr)
    return dataset, dataset_fingerprint(path, table.row_count, len(table.column_names))


def _sized_to(cfg: ModelConfig, dataset: D.Dataset) -> ModelConfig:
    """``cfg`` with the input shape (features, 1) and the classes of
    ``dataset``, validated: a file of one class fails here."""
    cfg = dataclasses.replace(cfg, input_shape=(dataset.num_features, 1),
                              num_classes=dataset.encoder.num_classes)
    cfg.validate()
    return cfg


def _preprocess(split: D.SplitPair, use_smote: bool,
                seed: int) -> tuple[D.SplitPair, D.Standardizer]:
    """SMOTE (if ``use_smote``), then standardization, of the training half.

    Returns a new split, whose test half stays raw, and the standardizer.
    """
    train = split.train
    if use_smote:
        train = D.smote_oversample(train, seed=seed)
    standardizer = D.fit_standardizer(train.X)
    train = dataclasses.replace(train, X=standardizer.transform(train.X))
    return D.SplitPair(train=train, test=split.test, fraction=split.fraction), standardizer


def _score(model: Model, X: np.ndarray, y: np.ndarray, class_names):
    """(logits, confusion, report, loss, ``Latency`` of up to ``TR.INFER_ROWS`` rows)
    from one infer pass."""
    logits = TR.predict_logits(model, X)
    cm = M.confusion(y, logits.argmax(axis=1), len(class_names),
                     class_names=list(class_names))
    loss = float(TR.cross_entropy_loss(Tensor(logits), y).data)
    latency = TR.measure_inference(model, X[:TR.INFER_ROWS])
    return logits, cm, M.class_report(cm), loss, latency


# ---------------------------------------------------------------------------
# Subcommands

#: the ``gen-data`` flags, each a ``synth_dataset`` parameter of its name
_SYNTH_FLAGS = ("classes", "features", "per_class", "separation", "structure_strength", "seed")


def cmd_gen_data(args) -> int:
    started = time.time()
    given = {k: v for k in _SYNTH_FLAGS if (v := getattr(args, k)) is not None}
    bound = inspect.signature(D.synth_dataset).bind(**given)
    bound.apply_defaults()   # the values used: the flags given, then its defaults
    used = bound.arguments
    classes, features = used["classes"], used["features"]
    profile = parse_imbalance(args.imbalance, classes) if args.imbalance else None
    out = Path(args.out)
    if not out.parent.exists():
        raise InputError(f"output directory does not exist: {out.parent}")
    ds = D.synth_dataset(**given, imbalance_profile=profile)
    D.save_csv(ds, out)
    write_manifest(out.with_name(out.name + ".manifest.json"), "gen-data",
                   {**{k: used[k] for k in _SYNTH_FLAGS if k != "seed"},
                    "imbalance": args.imbalance},
                   used["seed"], dataset_fingerprint(out, ds.X.shape[0], features + 1), started)
    counts = ds.class_counts()
    print(f"wrote {out} ({ds.X.shape[0]} rows, {features} features, "
          f"{classes} classes, counts {counts.tolist()})")
    return 0


def cmd_train(args) -> int:
    started = time.time()
    model_cfg, train_cfg, use_smote = _settings(args)
    dataset, fingerprint = _load_dataset(args.data, args.label_column)
    model_cfg = _sized_to(model_cfg, dataset)

    schema = D.Schema(dataset.feature_names, dataset.encoder.class_names, dataset.categories,
                      args.label_column)
    split = D.train_test_split(dataset, fraction=args.fraction, seed=train_cfg.seed)
    del dataset   # the split holds copies of its rows: the raw ones are not kept alive
    pre_counts = split.train.class_counts().tolist()
    split, standardizer = _preprocess(split, use_smote, train_cfg.seed)
    post_counts = split.train.class_counts().tolist()
    model = build_model(model_cfg, np.random.default_rng(train_cfg.seed), args.dtype)
    print(f"training {model_cfg.arch_name} ({model.param_count()} parameters) "
          f"on {split.train.X.shape[0]} rows")
    model, records = TR.train(model, split, train_cfg)
    for r in records:
        print(f"  epoch {r.epoch:3d}: loss {r.train_loss:.4f} acc {r.train_accuracy:.4f} "
              f"| val loss {r.val_loss:.4f} acc {r.val_accuracy:.4f} "
              f"({r.wall_time_seconds:.1f}s)")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    TR.write_epoch_csv(records, out_dir / "epochs.csv")
    save_model(out_dir / "checkpoint.bin", model, standardizer,
               schema, train_cfg, args.fraction, use_smote, fingerprint["sha256"])
    write_manifest(
        out_dir / "manifest.json", "train",
        {"model": model_cfg.to_dict(),
         "train": dataclasses.asdict(train_cfg),
         "fraction": args.fraction, "smote": use_smote, "dtype": args.dtype,
         "label_column": args.label_column,
         "train_class_counts_before_smote": pre_counts,
         "train_class_counts_after_smote": post_counts},
        train_cfg.seed, fingerprint, started)
    print(f"wrote {out_dir}/checkpoint.bin, epochs.csv, manifest.json")
    return 0


def cmd_eval(args) -> int:
    started = time.time()
    model, standardizer, schema, seed, fraction, trained_on = load_model(args.checkpoint)
    dataset, fingerprint = _load_dataset(args.data, schema.label_column, schema)

    if args.holdout:
        if fingerprint["sha256"] != trained_on:
            raise InputError(f"--holdout re-splits the training file, but {args.data} has "
                             f"sha256 {fingerprint['sha256']} and the training file had "
                             f"{trained_on}")
        split = D.train_test_split(dataset, fraction=fraction, seed=seed)
        X_raw, y = split.test.X, split.test.y
        scope = "held-out split"
    else:
        X_raw, y = dataset.X, dataset.y
        scope = "full file"
    X = D.reshape_for_model(X_raw, standardizer)
    logits, cm, report, loss, latency = _score(model, X, y, schema.class_names)
    curves = M.roc_auc(T.softmax(logits), y)
    blob = M.report_to_dict(report, cm, curves)
    blob["loss"] = loss
    single = TR.measure_inference(model, X[:1])
    blob["inference_seconds_per_instance"] = latency.p50
    blob["inference_latency"] = [dataclasses.asdict(lat) for lat in (latency, single)]
    print(f"evaluated {scope}: accuracy {blob['accuracy']:.4f} (informational), "
          f"loss {loss:.4f}, latency p50/p95 per instance {latency.p50:.2e}/"
          f"{latency.p95:.2e}s at batch {latency.batch_size}, "
          f"{single.p50:.2e}/{single.p95:.2e}s at batch 1")

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(json.dumps(blob, indent=2, sort_keys=True) + "\n",
                                         encoding="utf-8")
    (out_dir / "report.txt").write_text(M.format_report_text(report) + "\n",
                                        encoding="utf-8")
    M.confusion_to_csv(cm, out_dir / "confusion.csv")
    M.roc_to_csv(curves, schema.class_names, out_dir / "roc.csv")
    write_manifest(out_dir / "manifest.json", "eval",
                   {"checkpoint": str(args.checkpoint), "holdout": args.holdout,
                    "dtype": logits.dtype.name, "label_column": schema.label_column},
                   seed, fingerprint, started)
    print(f"wrote {out_dir}/report.json, report.txt, confusion.csv, roc.csv, manifest.json")
    return 0


def cmd_ablate(args) -> int:
    started = time.time()
    flagship, train_cfg, _ = _settings(args)   # the grid sets SMOTE per case
    dataset, fingerprint = _load_dataset(args.data, args.label_column)
    flagship = _sized_to(flagship, dataset)

    class_names = dataset.encoder.class_names
    grid = table3_grid(flagship)
    # one shared split for every case; SMOTE/standardization are per case
    base_split = D.train_test_split(dataset, fraction=args.fraction, seed=train_cfg.seed)
    del dataset   # the split holds copies of its rows: the raw ones are not kept alive
    case_seeds = [int(s.generate_state(1)[0]) % (2 ** 31)
                  for s in np.random.SeedSequence(train_cfg.seed).spawn(10)]
    rows = []
    for (case_id, cfg, use_smote), case_seed in zip(grid, case_seeds):
        row = {"case": case_id, "model": cfg.arch_name,
               "heads": cfg.num_heads if cfg.use_mha else "",
               "dropout": cfg.dropout_rate, "smote": use_smote,
               "dense_layers": len(cfg.dense_units) + 1}
        try:
            fit_split, standardizer = _preprocess(base_split, use_smote, case_seed)
            model = build_model(cfg, np.random.default_rng(case_seed), args.dtype)
            model, _ = TR.train(model, fit_split, dataclasses.replace(train_cfg, seed=case_seed))
            X_test = D.reshape_for_model(base_split.test.X, standardizer)
            _, _, report, loss, latency = _score(model, X_test, base_split.test.y, class_names)
            row.update(accuracy=f"{report.accuracy:.6f}", loss=f"{loss:.6f}",
                       fpr=f"{report.macro_fpr:.6f}", inf_time=f"{latency.p50:.3e}",
                       min_class_recall=f"{report.recall.min():.6f}", error="")
            print(f"case #{case_id} {cfg.arch_name}: accuracy {report.accuracy:.4f}")
        except (SeqidsError, MemoryError) as exc:  # keep going; the row records the failure
            # a bare MemoryError has no text, and an empty error cell reads as success
            row.update(dict.fromkeys(_ABLATION_METRICS, ""), error=str(exc) or type(exc).__name__)
            print(f"case #{case_id} failed: {exc}", file=sys.stderr)
        rows.append(row)

    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    with open(out_dir / "ablation.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)
    write_manifest(out_dir / "manifest.json", "ablate",
                   {"epochs": train_cfg.epochs, "batch_size": train_cfg.batch_size,
                    "lr": train_cfg.lr, "fraction": args.fraction,
                    "bn_momentum": flagship.bn_momentum, "dtype": args.dtype,
                    "label_column": args.label_column},
                   train_cfg.seed, fingerprint, started)
    print(f"wrote {out_dir}/ablation.csv, manifest.json")
    return 0


# ---------------------------------------------------------------------------
# Argument parsing

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="seqids",
        description="Sequence-model intrusion detection toolkit")
    parser.add_argument("--version", action="version", version=f"seqids {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen-data", help="write a synthetic labeled CSV")
    # unset ones keep synth_dataset's defaults
    g.add_argument("--classes", type=int)
    g.add_argument("--features", type=int)
    g.add_argument("--per-class", type=int)
    g.add_argument("--imbalance", default=None,
                   help="'a:b' ratio (majority:rest) or per-class comma list")
    g.add_argument("--separation", type=float,
                   help="nearest-centroid margin in noise-sigma units")
    g.add_argument("--structure-strength", type=float,
                   help="per-class feature autocorrelation; 0 gives white noise")
    g.add_argument("--seed", type=int)
    g.add_argument("--out", required=True)
    g.set_defaults(func=cmd_gen_data)

    # the flags of every command that reads a labeled CSV
    data_flags = argparse.ArgumentParser(add_help=False)
    data_flags.add_argument("--data", required=True)
    data_flags.add_argument("--out-dir", required=True)
    # the training flags of train and ablate; unset ones keep TrainConfig's defaults
    train_flags = argparse.ArgumentParser(add_help=False)
    train_flags.add_argument("--label-column", default="label")
    train_flags.add_argument("--epochs", type=int)
    train_flags.add_argument("--batch-size", type=int)
    train_flags.add_argument("--lr", type=float)
    train_flags.add_argument("--seed", type=int)
    train_flags.add_argument("--fraction", type=float, default=0.8,
                             help="train fraction of the 80/20-style split")
    train_flags.add_argument("--dtype", choices=("float64", "float32"), default="float64")

    t = sub.add_parser("train", parents=[data_flags, train_flags],
                       help="train a model on a labeled CSV")
    t.add_argument("--config", default=None, help="flat key = value config file")
    t.add_argument("--val-fraction", dest="validation_fraction", type=float)
    t.add_argument("--smote", action=argparse.BooleanOptionalAction, default=None)
    t.set_defaults(func=cmd_train)

    e = sub.add_parser("eval", parents=[data_flags],
                       help="evaluate a checkpoint on a labeled CSV")
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--holdout", action="store_true",
                   help="evaluate only the run's held-out split of --data")
    e.set_defaults(func=cmd_eval)

    a = sub.add_parser("ablate", parents=[data_flags, train_flags],
                       help="train and evaluate the ten-variant grid")
    a.add_argument("--bn-momentum", type=float)
    a.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (SeqidsError, MemoryError) as exc:
        stage = args.command if hasattr(args, "command") else "seqids"
        what = "out of memory: " if isinstance(exc, MemoryError) else ""
        print(f"error [{stage}]: {what}{exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error [io]: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
