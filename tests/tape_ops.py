"""Test-local tape ops: scalar losses for the finite-difference checks and a
same-shape add, each one record made through ``register_op``."""

import numpy as np

from seqids.errors import ShapeError
from seqids.tensor import Tensor, register_op


def _same_shape(a: Tensor, b: Tensor) -> None:
    if a.shape != b.shape:
        raise ShapeError(f"shapes {a.shape} and {b.shape} differ")


def product_sum(a: Tensor, b: Tensor) -> Tensor:
    """``sum(a * b)`` as a 0-d tensor; ``product_sum(y, y)`` is the sum of squares."""
    _same_shape(a, b)
    return register_op((a, b), (a.data * b.data).sum(), lambda g: (g * b.data, g * a.data))


def add(a: Tensor, b: Tensor) -> Tensor:
    _same_shape(a, b)
    return register_op((a, b), a.data + b.data, lambda g: (g, g.copy()))
