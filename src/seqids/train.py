"""Training: softmax cross-entropy on the model's logits (one fused tape
record), Adam, the epoch loop, inference, and latency measurement.

Inference has one path, ``predict_logits``: infer-mode forward passes over
row blocks of at most ``INFER_ROWS`` rows, written into one output array,
so its memory beyond that array stays bounded however many rows a caller
scores. Where there are two CPUs or more, a full block runs on two: the
caller's thread and one pool thread each take half its rows through
``Model.features``, with numpy's BLAS threads shared out between them, and
``Model.head`` takes the whole block, so the logits keep the bits of one
forward pass per block.
``predict_proba``, ``measure_inference``, ``eval``, ``ablate`` and the epoch
loop's validation all take it.

The loop shuffles mini-batches from a seeded generator, runs forward passes
in train mode (dropout active, BatchNorm batch statistics) and evaluates the
validation slice in infer mode, so the train/infer separation is observable
from the records. Training diverges, and aborts at once naming the epoch and
batch, when the loss is non-finite or when an Adam step leaves a parameter
or one of its moments non-finite (that error also names the parameter).
"""

from __future__ import annotations

import csv
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from dataclasses import dataclass

import numpy as np

from . import tensor as T
from .cpus import blas_threads, cpus
from .data import Dataset, SplitPair, stratified_carve
from .errors import ConfigError, ContractError, TrainingDiverged
from .model import Model
from .tensor import Tape, Tensor, backward


#: Adam's decay rates and denominator floor, the fixed values of Kingma & Ba
_ADAM_BETA1, _ADAM_BETA2, _ADAM_EPSILON = 0.9, 0.999, 1e-8

#: the most rows one infer-mode forward pass takes. With numpy 2.4's
#: OpenBLAS 0.3.31, 64-row blocks give logits bitwise equal to 128-row ones
#: on the benchmark's rows, while 32, 48 and 56 differ by up to 1.2e-15
INFER_ROWS = 64

#: the rows of each half of a split inference block. On a 2-vCPU x86-64
#: machine, two parts scored a flagship block at 1.67x one pass with 32-row
#: parts, 1.4x with 12 to 16 and 0.83x with 4, so only a full block is split.
#: Every stage through the first hidden Dense gives a part of 3 rows or more
#: the bits of its whole block; the Dense layers after it do not at 32 rows,
#: so ``model.head`` takes the whole block
_PART_ROWS = INFER_ROWS // 2

#: the fewest timed runs ``measure_inference`` takes a median over
MIN_REPETITIONS = 10


@dataclass
class TrainConfig:
    epochs: int = 15
    batch_size: int = 128
    lr: float = 1e-3
    seed: int = 0
    validation_fraction: float = 0.1

    def validate(self) -> None:
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be >= 1")
        if not (np.isfinite(self.lr) and self.lr > 0):
            raise ConfigError(f"lr must be a finite number > 0, got {self.lr}")
        if not 0.0 <= self.validation_fraction < 1.0:
            raise ConfigError("validation_fraction must be in [0, 1)")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class EpochRecord:
    epoch: int
    train_loss: float
    train_accuracy: float
    val_loss: float
    val_accuracy: float
    wall_time_seconds: float


def cross_entropy_loss(logits: Tensor, labels: np.ndarray) -> Tensor:
    """-(1/B) sum log softmax(logits)[i, y_i], as one tape record.

    A max-shifted log-sum-exp keeps it finite for any finite logits; the
    backward is (softmax - onehot) / B.
    """
    batch, k = logits.shape
    labels = np.asarray(labels)
    if labels.shape != (batch,):
        raise ContractError(f"labels shape {labels.shape} does not match batch {batch}")
    if labels.min() < 0 or labels.max() >= k:
        raise ContractError(f"labels must lie in 0..{k - 1}")
    shifted = logits.data - logits.data.max(axis=1, keepdims=True)
    e = np.exp(shifted)
    total = e.sum(axis=1, keepdims=True)
    rows = np.arange(batch)
    value = np.mean(np.log(total[:, 0]) - shifted[rows, labels])

    def back(g):
        d = e / total
        d[rows, labels] -= 1.0
        return (d * (g / batch),)

    return T.register_op((logits,), value, back)


class Adam:
    """Adam with bias correction; one slot pair per named parameter."""

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.t = 0
        self.m = {n: np.zeros_like(p.data) for n, p in params.items()}
        self.v = {n: np.zeros_like(p.data) for n, p in params.items()}

    def step(self) -> str | None:
        """Update every parameter that has a gradient; return the first one left non-finite.

        The step stops at, and returns the name of, the first parameter whose
        value or second moment the update made non-finite; None means all are
        finite. The first moment needs no check of its own: it turns
        non-finite only with a non-finite or overflowing gradient, whose
        square makes the second moment non-finite too. numpy's overflow and
        invalid-value warnings are silenced, as the returned name reports them.

        m and v are updated in place, in their own arrays, and the step
        takes two scratch arrays of the parameter's size. The operations and
        their order are those of ``m = b1 m + (1 - b1) g``, ``v = b2 v +
        (1 - b2) g g`` and ``p -= lr m_hat / (sqrt(v_hat) + eps)``, so the
        bits are too.
        """
        self.t += 1
        b1, b2 = _ADAM_BETA1, _ADAM_BETA2
        with np.errstate(over="ignore", invalid="ignore"):
            for name, p in self.params.items():
                g = p.grad
                if g is None:
                    continue
                m, v = self.m[name], self.v[name]
                m *= b1
                m += (1 - b1) * g
                v *= b2
                v += (1 - b2) * g * g
                step = m / (1 - b1 ** self.t)
                step *= self.lr
                den = v / (1 - b2 ** self.t)
                np.sqrt(den, out=den)
                den += _ADAM_EPSILON
                step /= den
                p.data -= step
                if not (np.isfinite(v).all() and np.isfinite(p.data).all()):
                    return name
        return None

    def zero_grad(self) -> None:
        for p in self.params.values():
            p.grad = None


def _evaluate(model: Model, X: np.ndarray, y: np.ndarray,
              batch_size: int) -> tuple[float, float]:
    """Infer-mode (loss, accuracy), both from the logits of one forward pass."""
    logits = predict_logits(model, X, batch_size)
    loss = float(cross_entropy_loss(Tensor(logits), y).data)
    return loss, float(np.mean(logits.argmax(axis=1) == y))


def train(model: Model, split: SplitPair, cfg: TrainConfig) -> tuple[Model, list[EpochRecord]]:
    """Fit on the training split; the test split is never touched here.

    The training split is expected to be preprocessed (oversampled and
    standardized); a validation slice is carved from it per class per
    ``validation_fraction`` and evaluated in infer mode each epoch. A
    fraction that holds out no row raises ``ContractError``; 0 evaluates the
    training rows instead.

    The rows are held once, in the split's ``X``, which is (N, F) as
    ``Dataset`` has it; the model's channel axis is added as a view. Each
    batch, and each epoch's validation slice, is taken from it by index, so
    no resident copy of the fit or validation rows is made.
    """
    cfg.validate()
    train_ds: Dataset = split.train
    X = train_ds.X[:, :, None]
    y = train_ds.y
    rng = np.random.default_rng(cfg.seed)
    dropout_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(1)[0])

    if cfg.validation_fraction > 0:
        hold_idx, fit_idx = stratified_carve(y, cfg.validation_fraction, rng, min_first=0)
        if hold_idx.size == 0:
            raise ContractError(
                f"validation_fraction {cfg.validation_fraction} holds out none of the "
                f"{y.size} rows (the largest class has {int(np.bincount(y).max())}); raise "
                "it, or set it to 0 to validate on the training rows")
    else:
        fit_idx, hold_idx = np.arange(X.shape[0]), slice(None)

    opt = Adam(model.named_parameters(), lr=cfg.lr)
    records: list[EpochRecord] = []
    n = fit_idx.size
    for epoch in range(1, cfg.epochs + 1):
        tic = time.perf_counter()
        order = fit_idx[rng.permutation(n)]
        loss_sum, hit_sum = 0.0, 0
        for bno, start in enumerate(range(0, n, cfg.batch_size)):
            idx = order[start:start + cfg.batch_size]
            xb, yb = X[idx], y[idx]
            opt.zero_grad()
            with Tape() as tape:
                logits = model.forward(xb, mode="train", rng=dropout_rng)
                loss = cross_entropy_loss(logits, yb)
            value = float(loss.data)
            if not np.isfinite(value):
                raise TrainingDiverged(f"non-finite loss at epoch {epoch}, batch {bno}")
            backward(loss, tape)
            diverged = opt.step()
            if diverged is not None:
                raise TrainingDiverged(f"parameter {diverged!r} or its Adam moments turned "
                                       f"non-finite at epoch {epoch}, batch {bno}")
            loss_sum += value * xb.shape[0]
            hit_sum += int((logits.data.argmax(axis=1) == yb).sum())
        val_loss, val_acc = _evaluate(model, X[hold_idx], y[hold_idx], cfg.batch_size)
        records.append(EpochRecord(
            epoch=epoch,
            train_loss=loss_sum / n,
            train_accuracy=hit_sum / n,
            val_loss=val_loss,
            val_accuracy=val_acc,
            wall_time_seconds=time.perf_counter() - tic))
    return model, records


def predict_logits(model: Model, X: np.ndarray, batch_size: int = INFER_ROWS) -> np.ndarray:
    """Infer-mode logits of (N, T, C) input, (N, num_classes) in the model's dtype.

    The forward passes run over row blocks of ``batch_size`` rows, at most
    ``INFER_ROWS``: ``batch_size`` (an int >= 1, else ``ContractError``) can
    only lower that number. Each block's logits are written into one array
    allocated up front, so the memory a call needs beyond its output does
    not grow with N.

    Where there are two CPUs or more, a block of ``INFER_ROWS`` rows is
    split in halves of ``_PART_ROWS`` rows: ``model.features`` runs on the
    first half on the caller's thread and on the second on a pool thread,
    and ``model.head`` runs on the joined features of the whole block.
    Meanwhile numpy's BLAS is shared between the halves
    (``cpus.blas_threads``); where it cannot be, every block runs as one
    ``model.forward``, as do smaller blocks and an X of another shape than
    the model's input, whose ``ShapeError`` so names a block's shape. The
    logits are bitwise those of ``model.forward`` on each block.
    """
    is_int = isinstance(batch_size, (int, np.integer)) and not isinstance(batch_size, bool)
    if not (is_int and batch_size >= 1):
        raise ContractError(f"batch_size must be an int >= 1, got {batch_size!r}")
    rows, n = min(batch_size, INFER_ROWS), X.shape[0]
    out = np.empty((n, model.cfg.num_classes), dtype=model.dtype)
    split = (rows == INFER_ROWS and n >= INFER_ROWS and cpus() > 1
             and X.shape[1:] == tuple(model.cfg.input_shape))
    with ExitStack() as stack:
        pool = None
        if split and stack.enter_context(blas_threads(2)):
            # entered after the pinning, so its thread is joined before the
            # count is restored, also when a half raises
            pool = stack.enter_context(ThreadPoolExecutor(1))
        # an empty X still makes one forward call, which raises its ShapeError
        for s in range(0, max(n, 1), rows):
            block = X[s:s + rows]
            if pool is None or block.shape[0] < INFER_ROWS:
                out[s:s + rows] = model.forward(block, mode="infer").data
                continue
            second = pool.submit(model.features, block[_PART_ROWS:])
            first = model.features(block[:_PART_ROWS])
            joined = np.concatenate([first.data, second.result().data])
            out[s:s + rows] = model.head(Tensor(joined)).data
    return out


def predict_proba(model: Model, X: np.ndarray, batch_size: int = INFER_ROWS) -> np.ndarray:
    """Class probability rows: the softmax of ``predict_logits`` (blocks of
    ``batch_size`` rows, at most ``INFER_ROWS``), taken in place."""
    logits = predict_logits(model, X, batch_size)
    return T.softmax(logits, out=logits)


@dataclass(frozen=True)
class Latency:
    """Wall-clock seconds per instance of one batch size: the median and the
    95th percentile of the timed runs, each divided by the batch size."""
    batch_size: int
    p50: float
    p95: float


def measure_inference(model: Model, batch: np.ndarray, repetitions: int) -> Latency:
    """Latency per instance of a (N, T, C) batch over ``repetitions`` runs.

    Each run is one ``predict_logits`` call with its default ``batch_size``,
    the path ``eval`` and training's validation take, so a batch is timed
    as blocks of up to ``INFER_ROWS`` rows, a full one in two halves on two
    CPUs where there are two; batch 1 runs on one. The input is an in-memory
    array, so the figure excludes any data loading or preprocessing. One
    warm-up pass runs first.
    """
    if repetitions < MIN_REPETITIONS:
        raise ContractError(f"measure_inference needs repetitions >= {MIN_REPETITIONS}")
    predict_logits(model, batch)
    times = []
    for _ in range(repetitions):
        tic = time.perf_counter()
        predict_logits(model, batch)
        times.append(time.perf_counter() - tic)
    n = batch.shape[0]
    return Latency(n, float(np.median(times)) / n, float(np.percentile(times, 95)) / n)


def write_epoch_csv(records: list[EpochRecord], path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc", "seconds"])
        for r in records:
            writer.writerow([r.epoch, repr(r.train_loss), repr(r.train_accuracy),
                             repr(r.val_loss), repr(r.val_accuracy),
                             repr(r.wall_time_seconds)])
