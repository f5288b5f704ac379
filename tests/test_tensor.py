import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import mutually_broadcastable_shapes

from seqids import tensor as T
from seqids import train as TR
from seqids.errors import ContractError, ShapeError
from seqids.tensor import Tape, Tensor, backward, grad_check, grad_check_all


def test_add_identity():
    x = Tensor([1.0, 2.0, 3.0])
    out = T.add(x, Tensor([0.0, 0.0, 0.0]))
    np.testing.assert_array_equal(out.data, x.data)


def test_mul_hand_values():
    assert T.mul(Tensor([2.0, 3.0]), Tensor([4.0, 5.0])).data.tolist() == [8.0, 15.0]


def test_broadcast_add_matches_manual_tiling():
    rng = np.random.default_rng(2)
    a = rng.normal(size=(2, 3))
    b = rng.normal(size=(3,))
    out = T.add(Tensor(a), Tensor(b))
    tiled = a + np.tile(b, (2, 1))
    np.testing.assert_allclose(out.data, tiled)


def test_broadcast_backward_sums_over_broadcast_axes():
    a = Tensor(np.zeros((2, 3)), requires_grad=True)
    b = Tensor(np.zeros(3), requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.add(a, b))
    backward(loss, tape)
    np.testing.assert_array_equal(a.grad, np.ones((2, 3)))
    np.testing.assert_array_equal(b.grad, np.full(3, 2.0))


def test_non_broadcastable_shapes_raise():
    with pytest.raises(ShapeError):
        T.add(Tensor(np.zeros((2, 3))), Tensor(np.zeros((4,))))


def test_softmax_uniform_input():
    out = T.softmax(np.zeros(3))
    np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    for c in (-7.5, 0.3, 42.0):
        np.testing.assert_allclose(
            T.softmax(x + c, axis=1), T.softmax(x, axis=1), atol=1e-12)


def test_softmax_reference_values():
    # exp-normalize oracle: e = exp([1,2,3]); e / e.sum()
    e = np.exp(np.array([1.0, 2.0, 3.0]))
    oracle = e / e.sum()
    out = T.softmax(np.array([1.0, 2.0, 3.0]))
    np.testing.assert_allclose(out, oracle, atol=1e-12)
    np.testing.assert_allclose(out, [0.09003057, 0.24472847, 0.66524096], atol=1e-7)


def test_softmax_rows_sum_to_one_and_stay_in_unit_interval():
    rng = np.random.default_rng(4)
    x = rng.normal(size=(6, 9)) * 5
    out = T.softmax(x, axis=1)
    assert np.all(out > 0) and np.all(out < 1)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-6)
    # extreme scales must stay finite thanks to the max shift
    huge = T.softmax(x * 200, axis=1)
    assert np.all(np.isfinite(huge))
    np.testing.assert_allclose(huge.sum(axis=1), np.ones(6), atol=1e-6)


def test_softmax_invalid_axis():
    with pytest.raises(ShapeError):
        T.softmax(np.array([1.0, 2.0]), axis=3)


def test_relu_values():
    assert T.relu(Tensor([-1.0, 0.0, 2.0])).data.tolist() == [0.0, 0.0, 2.0]


def test_reshape_round_trip():
    x = Tensor(np.arange(6, dtype=float).reshape(2, 3))
    back_again = T.reshape(T.reshape(x, (6,)), (2, 3))
    np.testing.assert_array_equal(back_again.data, x.data)


def test_reshape_bad_element_count():
    with pytest.raises(ShapeError):
        T.reshape(Tensor(np.zeros((2, 3))), (4,))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(x)
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = T.tsum(T.mul(x, x))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = T.mul(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_fanout_gradients_accumulate():
    rng = np.random.default_rng(5)
    b1, b2 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    x = Tensor(rng.normal(size=4), requires_grad=True)
    with Tape() as tape:
        loss = T.add(T.tsum(T.mul(x, b1)), T.tsum(T.mul(x, b2)))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, b1.data + b2.data)


def test_forward_ops_are_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4))
    r1 = T.softmax(x, axis=1)
    r2 = T.softmax(x, axis=1)
    assert np.array_equal(r1, r2)


def test_grad_check_sum_of_squares_tight():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=6), requires_grad=True)
    assert grad_check(lambda t: T.tsum(T.mul(t, t)), x, h=1e-5) < 1e-8


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=4)
    assert grad_check(lambda t: TR.cross_entropy_loss(t, labels), logits, h=1e-6) < 1e-6


def test_grad_check_relu_away_from_kink():
    # ReLU is not differentiable at exactly 0; nudge samples off the kink.
    rng = np.random.default_rng(9)
    raw = rng.normal(size=8)
    raw[np.abs(raw) < 0.1] += 0.2
    x = Tensor(raw, requires_grad=True)
    assert grad_check(lambda t: T.tsum(T.relu(t)), x, h=1e-6) < 1e-6


def test_grad_check_all_covers_multiple_tensors():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    err = grad_check_all(lambda: T.tsum(T.mul(T.add(a, b), T.mul(a, b))), [a, b])
    assert err < 1e-6


def test_no_tape_means_no_gradients():
    x = Tensor([1.0], requires_grad=True)
    y = T.mul(x, x)
    assert not y.requires_grad


def test_elementwise_unary_gradients():
    # relu is the one elementwise unary op; squaring its output makes the
    # gradient depend on the value, on both sides of the kink
    rng = np.random.default_rng(11)
    x = Tensor((np.abs(rng.normal(size=6)) + 0.5) * np.array([1, -1] * 3), requires_grad=True)
    assert grad_check(lambda t: T.tsum(T.mul(T.relu(t), T.relu(t))), x) < 1e-6


@settings(max_examples=40, deadline=None)
@given(shapes=mutually_broadcastable_shapes(num_shapes=2, max_dims=3, max_side=3),
       seed=st.integers(0, 2**32 - 1))
def test_add_mul_gradients_over_broadcast_shapes(shapes, seed):
    # _unbroadcast must sum each gradient back to its operand's own shape
    rng = np.random.default_rng(seed)
    a, b = (Tensor(rng.normal(size=s), requires_grad=True) for s in shapes.input_shapes)
    for op in (T.add, T.mul):
        assert op(a, b).shape == shapes.result_shape
        assert grad_check_all(lambda: T.tsum(T.mul(op(a, b), op(a, b))), [a, b]) < 1e-6
        assert (a.grad.shape, b.grad.shape) == shapes.input_shapes


def test_set_default_dtype_switches_width():
    T.set_default_dtype("float32")
    try:
        assert Tensor([1.0]).data.dtype == np.float32
    finally:
        T.set_default_dtype("float64")
    assert Tensor([1.0]).data.dtype == np.float64
