"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array plus an optional gradient buffer. While a
``Tape`` is active (``with Tape() as tape: ...``), every differentiable
operation appends a record holding its inputs, its output and a backward
rule; ``backward(loss, tape)`` replays those records in reverse and
accumulates gradients additively, so a tensor used several times receives
the sum of its per-use gradients. Only tensors that no record produced
(parameters and inputs) keep a ``.grad`` afterwards: an op's output gradient
is freed once the op's backward rule has used it. A rule may also release
the state its op saved, once it has read it, so a tape is replayed once: a
second ``backward`` on it is a ``ContractError``.

Each gradient array has one owner, under one rule contract. ``g``, the
output gradient a rule is handed, is the rule's own. Each returned array
has its input's shape and dtype and is ``g``, a fresh array, or a view of
one of them. No two returned arrays share memory, and the record keeps none
of them. So a returned array becomes its input's ``.grad`` as it is when
that slot is empty, and is added into it otherwise; a rule may write into
``g`` and return it.

Gradients flow only into tensors with ``requires_grad=True`` (and into
everything downstream of them). With no tape active, operations run in pure
inference mode and record nothing. A tape is active on the thread that
entered it only: an operation on another thread never records onto it.

There are no generic ops. ``register_op`` is the only way a record is
made: each layer, and the loss, registers its own fused op with a
hand-written backward rule, so the model's ReLUs, residual add and flatten
live inside those records.

A tensor's dtype is its array's: a floating array keeps its dtype, and any
other input (a list, an integer array) becomes float64. There is no
process-wide setting; a model's dtype is its parameters'
(``model.build_model(..., dtype=)``). float64 is what the finite difference
checks assume.
"""

from __future__ import annotations

import threading
from typing import Callable, Sequence

import numpy as np

from .errors import ContractError

class Tensor:
    """N-dimensional dense value with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        data = np.asarray(data)
        self.data = data if data.dtype.kind == "f" else data.astype(np.float64)
        self.grad: np.ndarray | None = None
        self.requires_grad = requires_grad

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"


class _OpRecord:
    __slots__ = ("inputs", "output", "backward_fn")

    def __init__(self, inputs, output, backward_fn):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn


class Tape:
    """Ordered log of operations; replayed in reverse by ``backward``."""

    def __init__(self):
        self.records: list[_OpRecord] = []
        self.replayed = False

    def __enter__(self) -> "Tape":
        _active.tapes.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _active.tapes.pop()

    def __len__(self) -> int:
        return len(self.records)


class _Active(threading.local):
    """The tapes a thread has entered, innermost last: an op records onto its
    own thread's tape, so a forward pass on another thread records nothing."""

    def __init__(self):
        self.tapes: list[Tape] = []


_active = _Active()


def recording(inputs: Sequence[Tensor]) -> bool:
    """Whether an op over ``inputs`` is recorded: a tape is active and some
    input requires grad. Layers ask this only to choose the state a record
    keeps for its backward rule; whether their work splits across CPUs does
    not depend on it."""
    return bool(_active.tapes) and any(t.requires_grad for t in inputs)


def register_op(inputs: Sequence[Tensor], out_data: np.ndarray,
                backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Create an op output and record it on the active tape.

    ``backward_fn`` maps the output gradient ``g`` to one gradient array (or
    None) per input, in input order, under the module's rule contract:
    ``g`` is the rule's own. Each returned array has its input's shape and
    dtype and is ``g``, a fresh array, or a view of one of them. No two
    returned arrays share memory, and the record keeps none of them. This
    is the hook layer code uses to define primitives with custom backward
    rules.
    """
    out = Tensor(out_data)
    if recording(inputs):
        out.requires_grad = True
        _active.tapes[-1].records.append(_OpRecord(tuple(inputs), out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(x) into ``x.grad`` for every tensor no record produced.

    An op's output gradient is complete once the records after it have run,
    so it is freed as soon as that op's own rule has used it: gradients do
    not pile up over the pass, and afterwards every record's ``output.grad``
    (the loss's too) is None. The records stay on the tape: dropping them
    mid-pass frees their saved state early, but glibc then trims the heap
    and the next forward pass faults it back in.

    Each array a rule returns becomes its input's gradient as it is: into
    an empty ``.grad`` it is adopted, after 0.0 is added to it in place,
    which turns -0.0 into +0.0 as adding into zeros would; into a ``.grad``
    that a tensor used more than once already holds, it is added. The rule
    contract (the module docstring's) makes adoption safe.

    A tape is replayed once: a rule may release the state it saved, and a
    second pass would add every gradient again, so it is a ``ContractError``
    raised before any rule runs.
    """
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    if tape.replayed:
        raise ContractError("backward: this tape was already replayed; record a new one")
    tape.replayed = True
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g, rec.output.grad = rec.output.grad, None
        if g is None:
            continue
        grads = rec.backward_fn(g)
        for t, gi in zip(rec.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                gi += 0.0  # -0.0 becomes +0.0, as accumulating into zeros gives
                t.grad = gi
            else:
                t.grad += gi
        g = grads = gi = None  # freed before the next rule allocates


def softmax(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """exp-normalize an array along its last axis, stabilized by max subtraction.

    A plain array function, not a tape op: the loss fuses its own softmax.
    Its callers (attention's keys, ``predict_proba``'s and ``eval``'s
    classes) all normalize the last axis. The result goes into ``out`` when
    given (``a`` itself is allowed, for an in-place softmax), else into a new
    array; the values are the same.
    """
    e = np.exp(np.subtract(a, a.max(axis=-1, keepdims=True), out=out), out=out)
    e /= e.sum(axis=-1, keepdims=True)
    return e


def grad_check_all(f: Callable[[], Tensor], tensors: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` is a scalar-valued, deterministic closure over the checked
    ``tensors``. The error per coordinate is |analytic - numeric| /
    max(1, |analytic|); keep inputs away from non-differentiable kinks
    (e.g. ReLU exactly at 0).
    """
    for t in tensors:
        t.grad = None
    with Tape() as tape:
        loss = f()
    backward(loss, tape)
    worst = 0.0
    for t in tensors:
        analytic = np.zeros_like(t.data) if t.grad is None else t.grad.copy()
        numeric = _central_difference(f, t, h)
        denom = np.maximum(1.0, np.abs(analytic))
        worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
    return worst


def _central_difference(f: Callable[[], Tensor], x: Tensor, h: float) -> np.ndarray:
    if h <= 0:
        raise ContractError("finite-difference step must be positive")
    numeric = np.zeros_like(x.data)
    flat = x.data.reshape(-1)
    num_flat = numeric.reshape(-1)
    for i in range(flat.size):
        orig = flat[i]
        flat[i] = orig + h
        fp = float(f().data)
        flat[i] = orig - h
        fm = float(f().data)
        flat[i] = orig
        num_flat[i] = (fp - fm) / (2.0 * h)
    return numeric
