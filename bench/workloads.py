"""The three seqids workloads and the metrics each one reports.

Every workload is a closed loop with one caller, because every seqids user
waits for each result: a training step, an inference request or a parsed
file. Each builds its inputs from the seed it is given; the program sees only
those inputs. All work runs in float64, the reference dtype.

End-to-end metrics have generic names so that every workload reports every
one of them; ``ALIASES`` gives the name each value has in the workload's own
terms, and the benchmark prints both.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import resource
import tracemalloc
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import seqids
from seqids import checkpoint as C
from seqids import data as D
from seqids import metrics as M
from seqids import train as TR
from seqids.errors import SeqidsError
from seqids.model import ModelConfig, build_model

from spans import BACKWARD_LAYERS, END, LAYER_FUNCTIONS, START, Patches, Tracer

WHY = {
    "train_flagship": (
        "The tape, backward and the hot layers carry almost all of the work here: "
        "2719 tape records per step, with backward about 65% of a 1.05-1.10 s step "
        "(2-CPU x86-64 VM). CSV parsing and SMOTE are bypassed entirely."),
    "infer_flagship": (
        "Nothing is recorded on the tape and there is no backward or Adam, so a "
        "tape-only change should leave this workload unchanged. Batch 1 (~23 ms on a "
        "2-CPU x86-64 VM) is bound by per-op Python overhead and batch 128 (~290 ms, "
        "~440 rows/s) by GEMMs, so the two separate overhead savings from flop savings."),
    "ingest_rare_attacks": (
        "No model layer runs. Time goes to table_to_dataset (~3.5 of ~5.6 s) and "
        "smote_oversample (~1.4 s, producing 96k rows) on a 2-CPU x86-64 VM; peak RSS "
        "(~550-670 MB) is set by SMOTE's dense n x n x F array. The class sizes are "
        "limited by today's dense SMOTE: the largest minority class holds 1000 training "
        "rows, so the run stays within 8 GB of memory while the memory defect still "
        "shows in the peak. A later SMOTE fix may grow them in its own benchmark-only "
        "change."),
}

E2E_UNITS = {
    "setup_s": "s",
    "rows_per_s": "rows/s",
    "op_ms_tail": "ms",
    "peak_rss_mb": "MB",
}
#: printed beside the end-to-end metrics but not bounded. The median op time
#: is left out of the bounded set because on a shared machine whose speed
#: switches between two levels every few seconds it jumps from one level to
#: the other between runs; the tail and the throughput do not.
EXTRA_UNITS = {"op_ms_p50": "ms", "timed_ops": "count", "train_loss": "nats"}

#: what each generic end-to-end metric means on each workload
ALIASES = {
    "train_flagship": {"rows_per_s": "train_samples_per_s", "op_ms_p50": "train_step_ms_p50",
                       "op_ms_tail": "train_step_ms_p75", "peak_rss_mb": "train_peak_rss_mb"},
    "infer_flagship": {"rows_per_s": "infer_b128_rows_per_s", "op_ms_p50": "infer_b1_ms_p50",
                       "op_ms_tail": "infer_b1_ms_p95", "peak_rss_mb": "infer_peak_rss_mb"},
    "ingest_rare_attacks": {"rows_per_s": "ingest_rows_per_s",
                            "op_ms_p50": "ingest_file_ms_p50",
                            "op_ms_tail": "ingest_file_ms_max",
                            "peak_rss_mb": "ingest_peak_rss_mb"},
}

DATA_STAGES = ("read_table", "table_to_dataset", "train_test_split", "smote_oversample",
               "standardize")
METRIC_FUNCTIONS = ("confusion", "class_report", "roc_auc")

PER_LAYER_UNITS = {
    **{f"layers.{name}.fwd_ms": "ms" for name in LAYER_FUNCTIONS},
    **{f"layers.{name}.bwd_ms": "ms" for name in BACKWARD_LAYERS},
    "layers.bigru.tape_records": "count",
    "layers.mha.tape_records": "count",
    "tensor.tape_records_per_step": "count",
    "tensor.backward_ms": "ms",
    "model.forward_ms": "ms",
    "model.glue_ms": "ms",
    "train.step_ms": "ms",
    "train.adam_step_ms": "ms",
    "train.loss_ms": "ms",
    "train.validation_ms": "ms",
    **{f"data.{stage}_ms": "ms" for stage in DATA_STAGES},
    "data.smote_rows_synthesized": "count",
    "data.table_to_dataset_peak_mb": "MB",
    "data.smote_oversample_peak_mb": "MB",
    "checkpoint.save_ms": "ms",
    "checkpoint.load_ms": "ms",
    "checkpoint.bytes": "bytes",
    **{f"metrics.{fn}_ms": "ms" for fn in METRIC_FUNCTIONS},
    **{f"overhead.{name}": unit for name, unit in E2E_UNITS.items()},
}


@dataclass(frozen=True)
class Size:
    """Input sizes; ``FULL`` is what the benchmark measures, ``TINY`` feeds the smoke test."""
    model: ModelConfig
    features: int
    batch: int
    train_per_class: int     # 6 classes; 10% held out per class for validation
    score_rows_per_class: int
    min_requests: int
    ingest_majority: int
    setup_repeats: int       # set-up is timed this many times and the median reported
    csv_setup_repeats: int   # the same for the CSV written by ingest, ~3 s each


#: the ingest classes relative to the benign majority: 20000/1250/1000/800/500/250 rows
INGEST_PROFILE = (1.0, 0.0625, 0.05, 0.04, 0.025, 0.0125)

FULL = Size(model=ModelConfig(), features=60, batch=128,
            # 6 x (996 - 100 held out) = 5376 fit rows = 42 full steps of 128
            train_per_class=996, score_rows_per_class=500, min_requests=200,
            ingest_majority=20000, setup_repeats=5, csv_setup_repeats=3)
TINY = Size(model=ModelConfig(input_shape=(12, 1), conv_filters=4, gru_units=4, num_heads=2,
                              key_dim=4, dense_units=(8,)),
            features=12, batch=16, train_per_class=30, score_rows_per_class=20,
            min_requests=20, ingest_majority=400, setup_repeats=2, csv_setup_repeats=2)


@dataclass
class Context:
    seed: int
    seconds: float
    size: Size
    tmp: Path                     # scratch directory inside the checkout
    state: Path                   # survives between runs in one checkout
    tracer: Tracer | None = None

    def root(self, name: str):
        return self.tracer.span(name) if self.tracer else contextlib.nullcontext()

    def repeat_setup(self, setup, repeats: int):
        """Run ``setup`` ``repeats`` times; keep the last result and every time."""
        times = []
        for _ in range(repeats):
            with self.root("setup"):
                tic = perf_counter()
                out = setup()
                times.append(perf_counter() - tic)
        return out, times


@dataclass
class Pass:
    """One pass over a workload: its metrics, checks and operation counts."""
    setup_times: list[float]
    metrics: dict[str, float] = field(default_factory=dict)
    extra: dict[str, float] = field(default_factory=dict)
    layer: dict[str, float] = field(default_factory=dict)
    checks: list[tuple[str, bool, str]] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool, detail: str, failures: int = 1) -> None:
        self.checks.append((name, bool(ok), detail))
        if not ok:
            self.failed += failures

    def finish(self, rows: int, op_seconds: list[float], tail_pct: float | None,
               rate_seconds: float | None = None) -> None:
        """Fill the end-to-end metrics; ``tail_pct`` None makes the tail the slowest op.

        ``rows`` were processed in ``rate_seconds``, by default the summed op time.
        """
        if not op_seconds:
            raise SystemExit(f"no operation succeeded ({self.failed} failed)")
        ms = np.asarray(op_seconds) * 1e3
        self.extra["timed_ops"] = len(op_seconds)
        self.extra["op_ms_p50"] = float(np.percentile(ms, 50))
        self.metrics = {
            "setup_s": float(np.median(self.setup_times)),
            "rows_per_s": rows / (float(np.sum(op_seconds)) if rate_seconds is None
                                  else rate_seconds),
            "op_ms_tail": float(np.percentile(ms, tail_pct) if tail_pct else ms.max()),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }


def _ms(seconds: float, per: int) -> float:
    return 1e3 * seconds / max(per, 1)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed)


# ---------------------------------------------------------------------------
# train_flagship

class _StepHooks:
    """Return times of ``Adam.step`` and every loss value, recorded in every pass.

    The step time is the gap between consecutive ``Adam.step`` returns, and
    the losses are checked for finiteness; both need a hook on ``seqids.train``
    even when the pass is untraced. Each hook costs one list append per step.
    """

    def __init__(self):
        self.step_returns: list[float] = []
        self.losses: list[tuple[float, int, bool]] = []   # value, batch rows, in a step
        self._patches = Patches()
        step, loss_fn = TR.Adam.step, TR.cross_entropy_loss

        def timed_step(opt, *args, **kwargs):
            out = step(opt, *args, **kwargs)
            self.step_returns.append(perf_counter())
            return out

        def kept_loss(probs, labels, *args, **kwargs):
            loss = loss_fn(probs, labels, *args, **kwargs)
            # only a loss recorded on a tape (a training step) requires grad
            self.losses.append((float(loss.data), probs.shape[0], loss.requires_grad))
            return loss

        self._patches.set(TR.Adam, "step", timed_step)
        self._patches.set(TR, "cross_entropy_loss", kept_loss)

    def restore(self) -> None:
        self._patches.restore()


def _source_digest() -> str:
    h = hashlib.sha256()
    for path in sorted(Path(seqids.__file__).parent.glob("*.py")):
        h.update(path.name.encode() + path.read_bytes())
    return h.hexdigest()[:16]


def _reproducible_loss(ctx: Context, loss: float) -> tuple[bool, str]:
    """Compare ``loss`` with the value an earlier run of the same source and seed stored."""
    path = ctx.state / "train_loss.json"
    known = json.loads(path.read_text()) if path.exists() else {}
    key = f"{_source_digest()}:{ctx.size.features}:{ctx.seed}"
    if key not in known:
        known[key] = repr(loss)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
        os.replace(tmp, path)
        return True, f"{loss!r} recorded for seed {ctx.seed}"
    return known[key] == repr(loss), f"{loss!r} vs {known[key]} from an earlier run"


def train_flagship(ctx: Context) -> Pass:
    """``train.train`` on the flagship config, one epoch of >= 40 full steps plus validation."""
    size, cfg = ctx.size, ctx.size.model

    def setup():
        ds = D.synth_dataset(classes=6, features=size.features,
                             per_class=size.train_per_class, seed=ctx.seed)
        ds.X = D.fit_standardizer(ds.X).transform(ds.X)
        return ds, build_model(cfg, _rng(ctx.seed))

    (ds, model), setup_times = ctx.repeat_setup(setup, size.setup_repeats)
    p = Pass(setup_times)

    with ctx.root("warmup"):   # one step on a throwaway model
        head = D.Dataset(X=ds.X[:size.batch], y=ds.y[:size.batch], encoder=ds.encoder,
                         feature_names=ds.feature_names)
        TR.train(build_model(cfg, _rng(ctx.seed + 1)), D.SplitPair(head, head, 1.0),
                 TR.TrainConfig(epochs=1, batch_size=size.batch, seed=ctx.seed,
                                validation_fraction=0.0))

    tcfg = TR.TrainConfig(epochs=1, batch_size=size.batch, seed=ctx.seed, validation_fraction=0.1)
    hooks = _StepHooks()
    records, raised = [], None
    try:
        with ctx.root("train.train") as root:
            tic = perf_counter()
            try:
                _, records = TR.train(model, D.SplitPair(ds, ds, 1.0), tcfg)
            except SeqidsError as exc:
                raised = exc
            wall = perf_counter() - tic
    finally:
        hooks.restore()

    steps = len(hooks.step_returns)
    p.attempted = steps + (raised is not None)
    p.check("train.raised_nothing", raised is None, repr(raised) if raised else "no SeqidsError")
    step_losses = [v for v, _, taped in hooks.losses if taped]
    bad = sum(not np.isfinite(v) for v in step_losses)
    p.check("train.step_losses_finite", bad == 0 and steps > 0,
            f"{len(step_losses) - bad}/{len(step_losses)} step losses finite", max(bad, 1))
    if steps < 2:
        raise SystemExit(f"train_flagship: only {steps} optimizer step(s) completed")
    if records:
        loss = records[-1].train_loss
        p.extra["train_loss"] = loss
        p.check("train.loss_reproducible", *_reproducible_loss(ctx, loss))
    rows = sum(n for _, n, taped in hooks.losses if taped)
    p.finish(rows, list(np.diff(hooks.step_returns)), 75, rate_seconds=wall)

    if ctx.tracer:
        p.layer = _train_layers(ctx.tracer, root, hooks, steps)
    return p


def _train_layers(tr: Tracer, root, hooks: _StepHooks, steps: int) -> dict[str, float]:
    r = "train.train"
    out = {f"layers.{n}.fwd_ms": _ms(tr.total(f"layers.{n}.fwd", r, taped=True), steps)
           for n in LAYER_FUNCTIONS}
    out.update({f"layers.{n}.bwd_ms": _ms(tr.total(f"layers.{n}.bwd", r), steps)
                for n in BACKWARD_LAYERS})
    for n in ("bigru", "mha"):
        out[f"layers.{n}.tape_records"] = tr.counted(f"layers.{n}.tape_records", r) / steps
    out["tensor.tape_records_per_step"] = tr.counted("tensor.tape_records", r) / steps
    out["tensor.backward_ms"] = _ms(tr.total("tensor.backward", r), steps)
    out["model.forward_ms"] = _ms(tr.total("model.forward", r, taped=True), steps)
    out["train.adam_step_ms"] = _ms(tr.total("train.adam_step", r), steps)
    out["train.loss_ms"] = _ms(tr.total("train.loss", r, taped=True), steps)
    out["train.validation_ms"] = 1e3 * (root[END] - hooks.step_returns[-1])
    step_ms = 1e3 * float(np.mean(np.diff(hooks.step_returns)))
    out["train.step_ms"] = step_ms
    # everything in a step outside the layers, the loss and Adam: model glue
    # ops forward and backward, batching and bookkeeping
    out["model.glue_ms"] = step_ms - sum(
        v for k, v in out.items() if k.endswith(("fwd_ms", "bwd_ms"))) - (
        out["train.adam_step_ms"] + out["train.loss_ms"])
    return out


# ---------------------------------------------------------------------------
# infer_flagship

def infer_flagship(ctx: Context) -> Pass:
    """Checkpoint round trip in set-up, then batch-1 requests alternating with batch scoring."""
    size, cfg = ctx.size, ctx.size.model
    path = ctx.tmp / "model.ckpt"

    def setup():
        built = build_model(cfg, _rng(ctx.seed))
        arrays = {n: t.data.copy() for n, t in built.named_arrays().items()}
        C.save_checkpoint(path, arrays, {"config": cfg.to_dict()})
        loaded, meta = C.load_checkpoint(path)
        model = build_model(ModelConfig.from_dict(meta["config"]), _rng(0))
        model.load_arrays(loaded)
        ds = D.synth_dataset(classes=6, features=size.features,
                             per_class=size.score_rows_per_class, seed=ctx.seed)
        X = D.fit_standardizer(ds.X).transform(ds.X)[:, :, None]
        same = all(np.array_equal(arrays[n], loaded.get(n)) for n in arrays)
        return model, X, ds.y, same

    (model, X, y, same), setup_times = ctx.repeat_setup(setup, size.setup_repeats)
    p = Pass(setup_times)
    p.check("infer.checkpoint_roundtrip", same, "loaded arrays equal the saved ones")
    k = cfg.num_classes

    with ctx.root("warmup"):
        for i in range(5):
            TR.predict_proba(model, X[i:i + 1], batch_size=1)
        TR.predict_proba(model, X[:size.batch], batch_size=size.batch)

    order = _rng(ctx.seed).permutation(X.shape[0])
    b1_times, b1_pred, score_times = [], [], []
    bad_sum, sent, preds = 0, 0, None

    def request() -> None:
        nonlocal bad_sum, sent
        r = int(order[sent % order.size])
        sent += 1
        p.attempted += 1
        with ctx.root("infer.request"):
            tic = perf_counter()
            try:
                probs = TR.predict_proba(model, X[r:r + 1], batch_size=1)
            except SeqidsError:
                p.failed += 1
                return
            b1_times.append(perf_counter() - tic)
        if probs.shape != (1, k) or abs(probs.sum() - 1.0) > 1e-9:
            bad_sum += 1
        b1_pred.append((r, int(probs.argmax())))

    def score() -> None:
        nonlocal preds
        p.attempted += 1
        with ctx.root("infer.score"):
            tic = perf_counter()
            try:
                probs = TR.predict_proba(model, X, batch_size=size.batch)
                pred = probs.argmax(axis=1)
                cm = M.confusion(y, pred, k)
                report = M.class_report(cm)
                curves = M.roc_auc(probs, y)
            except SeqidsError:
                p.failed += 1
                return
            score_times.append(perf_counter() - tic)
        sums_ok = bool(np.all(np.abs(probs.sum(axis=1) - 1.0) <= 1e-9))
        sane = cm.total == X.shape[0] and 0.0 <= report.accuracy <= 1.0 and all(
            c.defined and 0.0 <= c.auc <= 1.0 for c in curves)
        p.check("infer.b128_rows_sum_to_1", sums_ok, f"{X.shape[0]} rows")
        p.check("infer.metrics_consistent", sane, f"confusion total {cm.total}")
        preds = pred

    # Two blocks of batch-1 requests alternate with two scoring passes, so
    # that both sample the whole run: a shared machine's speed can drift over
    # seconds. The requests get half of the run, the passes about the rest.
    for _ in range(2):
        block_end = perf_counter() + ctx.seconds / 4
        while perf_counter() < block_end:
            request()
        score()
    while sent < size.min_requests:
        request()
    p.check("infer.b1_rows_sum_to_1", bad_sum == 0,
            f"{len(b1_times) - bad_sum}/{len(b1_times)} batch-1 rows sum to 1 within 1e-9",
            bad_sum)
    if preds is None:
        raise SystemExit(f"infer_flagship: no scoring pass succeeded ({p.failed} failed)")
    mismatch = sum(int(preds[r] != a) for r, a in b1_pred)
    p.check("infer.b1_b128_argmax_agree", mismatch == 0,
            f"{len(b1_pred) - mismatch}/{len(b1_pred)} requests agree", mismatch)

    p.finish(len(score_times) * X.shape[0], b1_times, 95, rate_seconds=sum(score_times))

    if ctx.tracer:
        tr, n, passes = ctx.tracer, len(b1_times), len(score_times)
        fwd = {f"layers.{m}.fwd_ms": _ms(tr.total(f"layers.{m}.fwd", "infer.request"), n)
               for m in LAYER_FUNCTIONS}
        p.layer = {
            **fwd,
            "model.forward_ms": _ms(tr.total("model.forward", "infer.request"), n),
            "model.glue_ms": _ms(tr.total("infer.request"), n) - sum(fwd.values()),
            **{f"metrics.{fn}_ms": _ms(tr.total(f"metrics.{fn}", "infer.score"), passes)
               for fn in METRIC_FUNCTIONS},
            "checkpoint.save_ms": _median_ms(tr, "checkpoint.save", "setup"),
            "checkpoint.load_ms": _median_ms(tr, "checkpoint.load", "setup"),
            "checkpoint.bytes": path.stat().st_size,
        }
    return p


def _median_ms(tr: Tracer, name: str, root: str) -> float:
    return 1e3 * float(np.median([tr.spans[i][END] - tr.spans[i][START]
                                  for i in tr.select(name, root)]))


# ---------------------------------------------------------------------------
# ingest_rare_attacks

def _peak_hooks(peaks: dict[str, float]) -> Patches:
    """Wrap the two memory-heavy stages so each reports its tracemalloc peak."""
    patches = Patches()
    for attr in ("table_to_dataset", "smote_oversample"):
        def measured(*args, _fn=getattr(D, attr), _name=attr, **kwargs):
            tracemalloc.start()
            try:
                return _fn(*args, **kwargs)
            finally:
                peaks[_name] = tracemalloc.get_traced_memory()[1] / 2 ** 20
                tracemalloc.stop()
        patches.set(D, attr, measured)
    return patches


def ingest_rare_attacks(ctx: Context) -> Pass:
    """The ``train`` preprocessing path on a CSV of one benign and five rare attack classes."""
    size = ctx.size
    path = ctx.tmp / "flows.csv"

    def setup():
        ds = D.synth_dataset(classes=6, features=size.features, per_class=size.ingest_majority,
                             imbalance_profile=INGEST_PROFILE, seed=ctx.seed)
        D.save_csv(ds, path)
        return ds.X.shape[0]

    raw_rows, setup_times = ctx.repeat_setup(setup, size.csv_setup_repeats)
    p = Pass(setup_times)
    peaks: dict[str, float] = {}
    if ctx.tracer:   # tracemalloc slows parsing, so its file stays out of every timing
        hooks = _peak_hooks(peaks)
        try:
            with ctx.root("ingest.file.mem"):
                _ingest_file(ctx, path, raw_rows, p)
        finally:
            hooks.restore()

    times, synthesized = [], []
    first = p.attempted
    end = perf_counter() + ctx.seconds
    while p.attempted == first or perf_counter() < end:
        with ctx.root("ingest.file"):
            done = _ingest_file(ctx, path, raw_rows, p)
        if done is not None:
            times.append(done[0])
            synthesized.append(done[1])
    p.finish(raw_rows * len(times), times, None)

    if ctx.tracer:
        n = len(times)
        p.layer = {f"data.{s}_ms": _ms(ctx.tracer.total(f"data.{s}", "ingest.file"), n)
                   for s in DATA_STAGES}
        p.layer["data.smote_rows_synthesized"] = float(np.mean(synthesized))
        p.layer.update({f"data.{k}_peak_mb": v for k, v in peaks.items()})
    return p


def _ingest_file(ctx: Context, path: Path, raw_rows: int,
                 p: Pass) -> tuple[float, int] | None:
    """Load, split, oversample and standardize one file, then check the result.

    Returns the seconds the pipeline took, checks excluded, and the rows SMOTE made.
    """
    p.attempted += 1
    tic = perf_counter()
    try:
        ds, dropped = D.load_csv(path)
        split = D.train_test_split(ds, fraction=0.8, seed=ctx.seed)
        before = split.train.X.shape[0]
        majority = int(split.train.class_counts().max())
        balanced = D.smote_oversample(split.train, seed=ctx.seed)
        scaler = D.fit_standardizer(balanced.X)
        X_train = scaler.transform(balanced.X)
        X_test = scaler.transform(split.test.X)
    except SeqidsError:
        p.failed += 1
        return None
    seconds = perf_counter() - tic
    counts = balanced.class_counts()
    worst_mean = float(np.abs(X_train.mean(axis=0)).max())
    ok = (ds.X.shape[0] == raw_rows and dropped == 0
          and bool(np.all(counts == majority))
          and bool(np.isfinite(X_train).all() and np.isfinite(X_test).all())
          and worst_mean < 1e-9)
    p.check("ingest.file_checks", ok,
            f"{ds.X.shape[0]} rows parsed, {dropped} dropped; post-SMOTE counts "
            f"{counts.tolist()} vs majority {majority}; max |standardized mean| "
            f"{worst_mean:.1e}")
    return seconds, balanced.X.shape[0] - before


WORKLOADS = {
    "train_flagship": train_flagship,
    "infer_flagship": infer_flagship,
    "ingest_rare_attacks": ingest_rare_attacks,
}
