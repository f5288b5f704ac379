"""In-memory spans for the traced run, and the wrappers that record them.

A span is one timed call: name, start, end, the span that was open when it
started (its parent) and whether an autodiff tape was active, which tells a
training forward pass from an inference one. Active tapes are followed through
``Tape.__enter__``/``__exit__``, the context-manager protocol callers use.

The wrappers replace module attributes of ``seqids`` for the duration of a
traced pass and put the originals back afterwards; no source file changes.
A layer's backward time is measured by wrapping the ``backward_fn`` of each
tape record created inside that layer's forward span.
"""

from __future__ import annotations

from contextlib import contextmanager
from time import perf_counter

NAME, START, END, PARENT, TAPED = range(5)

#: layer forward functions, reached by ``model.py`` as ``L.<name>``
LAYER_FUNCTIONS = {
    "conv1d": "conv1d_forward",
    "batchnorm": "batchnorm_forward",
    "bigru": "bigru_forward",
    "layernorm": "layernorm_forward",
    "mha": "multi_head_attention",
    "dropout": "dropout_forward",
    "dense": "dense_forward",
}
#: layers whose tape records get their backward rules timed; dropout's single
#: mask multiply stays in the glue
BACKWARD_LAYERS = ("conv1d", "batchnorm", "bigru", "layernorm", "mha", "dense")


class Tracer:
    """Records spans and counts; ``tapes`` holds the tapes currently entered."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: dict[tuple[str, str | None], float] = {}
        self.tapes: list = []
        self._open: list[int] = []

    def open(self, name: str) -> int:
        parent = self._open[-1] if self._open else -1
        self.spans.append([name, perf_counter(), 0.0, parent, bool(self.tapes)])
        self._open.append(len(self.spans) - 1)
        return self._open[-1]

    def close(self, idx: int) -> None:
        self.spans[idx][END] = perf_counter()
        self._open.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield self.spans[idx]
        finally:
            self.close(idx)

    def wrap(self, fn, name: str):
        def traced(*args, **kwargs):
            idx = self.open(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.close(idx)
        return traced

    def add(self, name: str, value: float) -> None:
        """Add ``value`` to a count kept per root span, like span totals."""
        root = self.spans[self._open[0]][NAME] if self._open else None
        self.counts[name, root] = self.counts.get((name, root), 0) + value

    # -- queries ------------------------------------------------------------

    def root(self, idx: int) -> int:
        while self.spans[idx][PARENT] >= 0:
            idx = self.spans[idx][PARENT]
        return idx

    def select(self, name: str, root: str | None = None, taped: bool | None = None):
        for i, s in enumerate(self.spans):
            if s[NAME] != name or (taped is not None and s[TAPED] != taped):
                continue
            if root is not None and self.spans[self.root(i)][NAME] != root:
                continue
            yield i

    def total(self, name: str, root: str | None = None, taped: bool | None = None) -> float:
        """Summed duration in seconds of the matching spans."""
        return sum(self.spans[i][END] - self.spans[i][START]
                   for i in self.select(name, root, taped))

    def counted(self, name: str, root: str | None = None) -> float:
        return self.counts.get((name, root), 0)


class Patches:
    """Attribute replacements that ``restore`` undoes in reverse order."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []

    def set(self, owner, attr: str, value) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._saved:
            owner, attr, value = self._saved.pop()
            setattr(owner, attr, value)


def install(tracer: Tracer, seqids) -> Patches:
    """Wrap the public entry points of every layer of ``seqids`` in spans."""
    T, L, D = seqids.tensor, seqids.layers, seqids.data
    patches = Patches()

    def entered(tape, _enter=T.Tape.__enter__):
        tracer.tapes.append(tape)
        return _enter(tape)

    def exited(tape, *exc, _exit=T.Tape.__exit__):
        tracer.tapes.pop()
        return _exit(tape, *exc)

    def layer(fn, name):
        bwd_name = f"layers.{name}.bwd" if name in BACKWARD_LAYERS else None

        def traced(*args, **kwargs):
            tape = tracer.tapes[-1] if tracer.tapes else None
            before = len(tape) if tape is not None else 0
            idx = tracer.open(f"layers.{name}.fwd")
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.close(idx)
                if tape is not None:
                    new = tape.records[before:]
                    tracer.add(f"layers.{name}.tape_records", len(new))
                    for rec in new if bwd_name else ():
                        rec.backward_fn = tracer.wrap(rec.backward_fn, bwd_name)
        return traced

    def backward(fn):
        def traced(loss, tape, *args, **kwargs):
            tracer.add("tensor.tape_records", len(tape))
            with tracer.span("tensor.backward"):
                return fn(loss, tape, *args, **kwargs)
        return traced

    patches.set(T.Tape, "__enter__", entered)
    patches.set(T.Tape, "__exit__", exited)
    for name, attr in LAYER_FUNCTIONS.items():
        patches.set(L, attr, layer(getattr(L, attr), name))
    patches.set(seqids.model.Model, "forward",
                tracer.wrap(seqids.model.Model.forward, "model.forward"))
    patches.set(seqids.train, "backward", backward(seqids.train.backward))
    patches.set(seqids.train, "cross_entropy_loss",
                tracer.wrap(seqids.train.cross_entropy_loss, "train.loss"))
    patches.set(seqids.train.Adam, "step", tracer.wrap(seqids.train.Adam.step, "train.adam_step"))
    for attr in ("read_table", "table_to_dataset", "train_test_split", "smote_oversample"):
        patches.set(D, attr, tracer.wrap(getattr(D, attr), f"data.{attr}"))
    patches.set(D, "fit_standardizer", tracer.wrap(D.fit_standardizer, "data.standardize"))
    patches.set(D.Standardizer, "transform",
                tracer.wrap(D.Standardizer.transform, "data.standardize"))
    ckpt = seqids.checkpoint
    patches.set(ckpt, "save_checkpoint", tracer.wrap(ckpt.save_checkpoint, "checkpoint.save"))
    patches.set(ckpt, "load_checkpoint", tracer.wrap(ckpt.load_checkpoint, "checkpoint.load"))
    for attr in ("confusion", "class_report", "roc_auc"):
        fn = getattr(seqids.metrics, attr)
        patches.set(seqids.metrics, attr, tracer.wrap(fn, f"metrics.{attr}"))
    return patches
