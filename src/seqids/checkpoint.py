"""Deterministic binary checkpoints, and the model file built on them.

A checkpoint holds named arrays, each in its own dtype, plus a JSON
metadata block. Layout, format 2 (integers little-endian):

    bytes 0..7    magic ``b"SEQIDS\\x00\\x02"`` (the last byte is the format version)
    bytes 8..15   uint64 header length in bytes
    header        UTF-8 JSON: {"arrays": [name, ...], "meta": {...}}
    records       one ``.npy`` record per name, in header order, as
                  ``numpy.lib.format.write_array`` writes it (NEP 1): each
                  record holds its array's dtype, shape and data

The writer sorts keys and avoids timestamps, so identical inputs produce
byte-identical files. The reader takes numeric arrays only, never a pickle;
a malformed header or record, or a file of another format version (format 1
stored one dtype and an offset table; retrain to replace it), is an
``InputError`` naming the file.

The model file (``checkpoint.bin``, which ``seqids train`` writes and
``seqids eval`` reads) is a checkpoint that ``save_model`` writes and
``load_model`` reads; no other module knows its names. Its arrays, in order:

    model.<name>         each of ``Model.named_arrays()``, in its order and
                         the model's dtype (float64 or float32)
    standardizer.mean    the training split's per-feature mean, float64
    standardizer.scale   its per-feature scale, float64

Its meta keys:

    config         ``ModelConfig.to_dict()``
    class_names    the class names, in label-code order
    feature_names  the feature columns of the training file, in order
    categories     each categorical feature's vocabulary, in code order
    label_column   the label column of the training file, which ``eval``
                   reads another file's labels from
    train          the run's ``epochs``, ``batch_size``, ``lr``, ``seed``,
                   train ``fraction``, ``smote`` switch and the training
                   file's ``data_sha256``
    tool_version   the seqids version that wrote it

``load_model`` refuses, as an ``InputError`` that names the file, what the
checkpoint reader refuses and a file whose parts do not make one model:
a missing or invalid ``config``; ``class_names`` that are not one distinct
string per model class; a ``train`` without a non-negative integer
``seed``, a numeric ``fraction`` and a string ``data_sha256``; model arrays
that are not all float64 or all float32, or that are missing, unknown,
misshapen or hold a value that is not finite; standardizer arrays that are
missing or are not one finite float per feature (a scale also > 0); and
``feature_names`` that are not one distinct string per model feature,
``categories`` that are not string lists of those features, or a
``label_column`` that is not a string apart from the ``feature_names``. A
file written before ``label_column`` was stored is refused for its lack:
retrain to replace it.
"""

from __future__ import annotations

import io
import json
import os
from pathlib import Path

import numpy as np
from numpy.lib import format as npy

from . import __version__
from .data import Schema, Standardizer
from .errors import ConfigError, InputError
from .model import Model, ModelConfig, build_model

MAGIC = b"SEQIDS\x00\x02"


def save_checkpoint(path, arrays: dict[str, np.ndarray], meta: dict) -> None:
    """Write into a temporary file beside ``path``, then rename it over
    ``path``, so a failed write leaves any earlier checkpoint intact."""
    header = json.dumps({"arrays": list(arrays), "meta": meta},
                        sort_keys=True, separators=(",", ":")).encode("utf-8")
    tmp = Path(f"{path}.tmp")
    try:
        with open(tmp, "wb") as fh:
            fh.write(MAGIC)
            fh.write(len(header).to_bytes(8, "little"))
            fh.write(header)
            for a in arrays.values():
                npy.write_array(fh, np.asarray(a), allow_pickle=False)
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict]:
    fh = io.BytesIO(Path(path).read_bytes())
    magic = fh.read(len(MAGIC))
    if magic[:-1] != MAGIC[:-1]:
        raise InputError(f"{path}: not a seqids checkpoint (bad magic)")
    if magic != MAGIC:
        raise InputError(f"{path}: checkpoint format {magic[-1]}, but this version reads format "
                         f"{MAGIC[-1]} only: retrain to write a new checkpoint")
    hlen = int.from_bytes(fh.read(8), "little")
    text = fh.read(hlen)
    try:
        header = json.loads(text)
        names, meta = header["arrays"], header["meta"]
        if type(meta) is not dict or type(names) is not list or {type(n) for n in names} - {str}:
            raise TypeError(f"meta {type(meta).__name__}, array names {names!r}")
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed checkpoint header ({len(text)} of its {hlen} bytes "
                         f"read): {exc!r}") from None
    arrays = {}
    for name in names:
        try:
            arrays[name] = npy.read_array(fh, allow_pickle=False)
            if arrays[name].dtype.kind not in "biufc":
                raise ValueError(f"dtype {arrays[name].dtype} is not numeric")
        except (ValueError, OverflowError, MemoryError) as exc:  # MemoryError: a huge shape
            raise InputError(f"{path}: array {name!r}: bad npy record: {exc!r}") from None
    return arrays, meta


def save_model(path, model: Model, standardizer: Standardizer, schema: Schema,
               train_cfg, fraction: float, use_smote: bool, data_sha256: str) -> None:
    """Write the model file of a ``train`` run: ``model``, the ``standardizer``
    fitted on its training split, and the training file's ``schema`` and
    sha256; ``train_cfg`` (a ``train.TrainConfig``), ``fraction`` and
    ``use_smote`` are the run's settings."""
    arrays = {f"model.{n}": t.data for n, t in model.named_arrays().items()}
    arrays["standardizer.mean"] = standardizer.mean
    arrays["standardizer.scale"] = standardizer.scale
    meta = {
        "config": model.cfg.to_dict(),
        "class_names": schema.class_names,
        "feature_names": schema.feature_names,
        "categories": schema.categories,
        "label_column": schema.label_column,
        "train": {"epochs": train_cfg.epochs, "batch_size": train_cfg.batch_size,
                  "lr": train_cfg.lr, "seed": train_cfg.seed,
                  "fraction": fraction, "smote": use_smote, "data_sha256": data_sha256},
        "tool_version": __version__,
    }
    save_checkpoint(path, arrays, meta)


def load_model(path) -> tuple[Model, Standardizer, Schema, int, float, str]:
    """(model, standardizer, the training file's ``Schema``, the run's seed,
    its train fraction, the training file's sha256) of a model file; a file
    that is not a whole model file is an ``InputError`` naming ``path`` (see
    above). The model is built in the dtype its weights were saved in."""
    try:
        return _model_parts(*load_checkpoint(path))
    except ConfigError as exc:
        raise InputError(f"{path}: not a model checkpoint: {exc}") from None


def _strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def _model_parts(arrays: dict[str, np.ndarray], meta: dict):
    """``load_model``'s result from a checkpoint's arrays and meta; a part
    that does not fit the others is a ``ConfigError``."""
    if not isinstance(meta.get("config"), dict):
        raise ConfigError("its meta has no 'config' object")
    cfg = ModelConfig.from_dict(meta["config"])
    names, train = meta.get("class_names"), meta.get("train")
    if not (_strings(names) and len(names) == len(set(names)) == cfg.num_classes):
        raise ConfigError(f"its meta has no 'class_names' list of {cfg.num_classes} distinct "
                          "strings, one per model class")
    if not (isinstance(train, dict) and type(train.get("seed")) is int and train["seed"] >= 0
            and isinstance(train.get("fraction"), (int, float))):
        raise ConfigError("its meta has no 'train' object with a non-negative integer 'seed' "
                          "and a numeric 'fraction'")
    weights = {n[len("model."):]: a for n, a in arrays.items() if n.startswith("model.")}
    dtypes = sorted({a.dtype.name for a in weights.values()})
    if dtypes not in (["float64"], ["float32"]):
        raise ConfigError(f"its model arrays must be all float64 or all float32, not {dtypes}")
    model = build_model(cfg, np.random.default_rng(0), dtypes[0])
    model.load_arrays(weights)
    if nonfinite := [n for n, a in weights.items() if not np.isfinite(a).all()]:
        raise ConfigError(f"its 'model.{nonfinite[0]}' array holds a value that is not finite")
    if not {"standardizer.mean", "standardizer.scale"} <= set(arrays):
        raise ConfigError("it has no standardizer arrays")
    width = cfg.input_shape[0]
    for name, floor in (("standardizer.mean", ""), ("standardizer.scale", " > 0")):
        a = arrays[name]
        if not (a.dtype.kind == "f" and a.shape == (width,) and np.isfinite(a).all()
                and (not floor or (a > 0).all())):
            raise ConfigError(f"its {name!r} array is not {width} finite floats{floor}: "
                              f"{a.dtype.name} of shape {a.shape}")
    features, categories = meta.get("feature_names"), meta.get("categories")
    if not (_strings(features) and isinstance(categories, dict)
            and set(categories) <= set(features) and all(map(_strings, categories.values()))
            and isinstance(train.get("data_sha256"), str)):
        raise ConfigError("its meta lacks a 'feature_names' list, a 'categories' object of "
                          "those features' vocabularies or the training file's 'data_sha256' "
                          "in 'train'")
    if not len(features) == len(set(features)) == width:
        raise ConfigError(f"its 'feature_names' list has {len(features)} names for a model of "
                          f"{width} features, {len(set(features))} of them distinct")
    label = meta.get("label_column")
    if not isinstance(label, str) or label in features:
        raise ConfigError("its meta has no 'label_column' string apart from its 'feature_names'")
    standardizer = Standardizer(arrays["standardizer.mean"], arrays["standardizer.scale"])
    return (model, standardizer, Schema(features, names, categories, label),
            train["seed"], train["fraction"], train["data_sha256"])
