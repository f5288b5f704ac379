"""Dense tensors with reverse-mode automatic differentiation.

A ``Tensor`` wraps a numpy array plus an optional gradient buffer. While a
``Tape`` is active (``with Tape() as tape: ...``), every differentiable
operation appends a record holding its inputs, its output and a backward
rule; ``backward(loss, tape)`` replays those records in reverse and
accumulates gradients additively, so a tensor used several times receives
the sum of its per-use gradients.

Gradients flow only into tensors with ``requires_grad=True`` (and into
everything downstream of them). With no tape active, operations run in pure
inference mode and record nothing.

The generic ops are only those the model graph needs between its fused
layers: ``add``, ``mul``, ``relu``, ``reshape`` and ``tsum`` (the scalar
loss of the finite-difference checks). Each layer registers its own fused
op with a hand-written backward rule through ``register_op``.

The floating width is a process-wide setting (``set_default_dtype``), not a
per-tensor property. float64 is the default and is what the finite
difference checks assume.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from .errors import ContractError, ShapeError

_DTYPES = {"float64": np.float64, "float32": np.float32}
_default_dtype = np.float64


def set_default_dtype(name: str) -> None:
    """Select the process-wide floating width ("float64" or "float32")."""
    global _default_dtype
    if name not in _DTYPES:
        raise ContractError(f"unsupported dtype {name!r}; pick one of {sorted(_DTYPES)}")
    _default_dtype = _DTYPES[name]


class Tensor:
    """N-dimensional dense value with an optional gradient slot."""

    __slots__ = ("data", "grad", "requires_grad")

    def __init__(self, data, requires_grad: bool = False):
        self.data = np.asarray(data, dtype=_default_dtype)
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

    def zero_grad(self) -> None:
        self.grad = None

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

    def __enter__(self) -> "Tape":
        _tape_stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        _tape_stack.pop()

    def __len__(self) -> int:
        return len(self.records)


_tape_stack: list[Tape] = []


def _active_tape() -> Tape | None:
    return _tape_stack[-1] if _tape_stack else None


def register_op(inputs: Sequence[Tensor], out_data: np.ndarray,
                backward_fn: Callable[[np.ndarray], Sequence[np.ndarray | None]]) -> Tensor:
    """Create an op output and record it on the active tape.

    ``backward_fn`` maps the output gradient to one gradient array (or None)
    per input, in input order. This is the hook layer code uses to define
    primitives with custom backward rules.
    """
    out = Tensor(out_data)
    tape = _active_tape()
    if tape is not None and any(t.requires_grad for t in inputs):
        out.requires_grad = True
        tape.records.append(_OpRecord(tuple(inputs), out, backward_fn))
    return out


def backward(loss: Tensor, tape: Tape) -> None:
    """Accumulate d(loss)/d(x) into ``x.grad`` for every tensor on the tape."""
    if loss.size != 1:
        raise ContractError(f"backward needs a scalar loss, got shape {loss.shape}")
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g = rec.output.grad
        if g is None:
            continue
        grads = rec.backward_fn(g)
        for t, gi in zip(rec.inputs, grads):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += gi


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _unbroadcast(g: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum a broadcast gradient back down to ``shape``."""
    if g.shape == shape:
        return g
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if axes:
        g = g.sum(axis=axes, keepdims=True)
    return g


def _check_broadcast(a: np.ndarray, b: np.ndarray, opname: str) -> None:
    try:
        np.broadcast_shapes(a.shape, b.shape)
    except ValueError:
        raise ShapeError(f"{opname}: shapes {a.shape} and {b.shape} do not broadcast") from None


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.data, b.data, "add")
    out = a.data + b.data
    return register_op((a, b), out, lambda g: (_unbroadcast(g, a.shape), _unbroadcast(g, b.shape)))


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)
    _check_broadcast(a.data, b.data, "mul")
    out = a.data * b.data
    return register_op(
        (a, b), out,
        lambda g: (_unbroadcast(g * b.data, a.shape), _unbroadcast(g * a.data, b.shape)))


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    if np.prod(shape, dtype=int) != a.size and -1 not in shape:
        raise ShapeError(f"reshape: cannot view {a.shape} ({a.size} elements) as {tuple(shape)}")
    out = a.data.reshape(shape)
    return register_op((a,), out, lambda g: (g.reshape(a.shape),))


def tsum(a) -> Tensor:
    """Sum of all elements, as a 0-d tensor."""
    a = _as_tensor(a)
    return register_op((a,), a.data.sum(), lambda g: (np.broadcast_to(g, a.shape),))


def relu(a) -> Tensor:
    a = _as_tensor(a)
    out = np.maximum(a.data, 0.0)
    return register_op((a,), out, lambda g: (g * (a.data > 0),))


def softmax(a: np.ndarray, axis: int = -1) -> np.ndarray:
    """exp-normalize an array along ``axis``, stabilized by max subtraction.

    A plain array function, not a tape op: the loss fuses its own softmax.
    """
    if not -a.ndim <= axis < a.ndim:
        raise ShapeError(f"softmax: axis {axis} invalid for shape {a.shape}")
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    return e / e.sum(axis=axis, keepdims=True)


def grad_check(f: Callable[[Tensor], Tensor], x: Tensor, h: float = 1e-5) -> float:
    """``grad_check_all`` for a function of the single tensor ``x``."""
    return grad_check_all(lambda: f(x), [x], h)


def grad_check_all(f: Callable[[], Tensor], tensors: Sequence[Tensor], h: float = 1e-5) -> float:
    """Max relative error between analytic and central-difference gradients.

    ``f`` is a scalar-valued, deterministic closure over the checked
    ``tensors``. The error per coordinate is |analytic - numeric| /
    max(1, |analytic|); keep inputs away from non-differentiable kinks
    (e.g. ReLU exactly at 0).
    """
    for t in tensors:
        t.zero_grad()
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
