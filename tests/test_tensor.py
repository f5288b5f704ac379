import contextlib
import threading

import numpy as np
import pytest

import seqids
from seqids import tensor as T
from seqids import train as TR
from seqids.errors import ContractError
from seqids.model import ModelConfig, build_model
from seqids.tensor import Tape, Tensor, backward, grad_check_all
from tape_ops import add, product_sum


def test_softmax_uniform_input():
    out = T.softmax(np.zeros(3))
    np.testing.assert_allclose(out, np.full(3, 1.0 / 3.0))


def test_softmax_shift_invariance():
    rng = np.random.default_rng(3)
    x = rng.normal(size=(4, 5))
    for c in (-7.5, 0.3, 42.0):
        np.testing.assert_allclose(
            T.softmax(x + c), T.softmax(x), atol=1e-12)


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
    out = T.softmax(x)
    assert np.all(out > 0) and np.all(out < 1)
    np.testing.assert_allclose(out.sum(axis=1), np.ones(6), atol=1e-6)
    # extreme scales must stay finite thanks to the max shift
    huge = T.softmax(x * 200)
    assert np.all(np.isfinite(huge))
    np.testing.assert_allclose(huge.sum(axis=1), np.ones(6), atol=1e-6)


@pytest.mark.parametrize("axis", [1, -1])
def test_softmax_out_holds_the_same_values(axis):
    # on a 2-D array axis 1 and axis -1 both name the last axis, the one
    # softmax normalizes
    rng = np.random.default_rng(15)
    a = 30.0 * rng.normal(size=(4, 5))
    e = np.exp(a - a.max(axis=axis, keepdims=True))
    want = e / e.sum(axis=axis, keepdims=True)
    assert T.softmax(a).tobytes() == want.tobytes()
    buf = np.empty_like(a)
    assert T.softmax(a, out=buf) is buf
    assert buf.tobytes() == want.tobytes()
    in_place = a.copy()
    T.softmax(in_place, out=in_place)
    assert in_place.tobytes() == want.tobytes()
    # without out, integer input still gives float probabilities
    np.testing.assert_array_equal(T.softmax(np.arange(3)), T.softmax(np.arange(3.0)))


def test_backward_sum_gives_ones():
    x = Tensor([1.0, 2.0, 3.0], requires_grad=True)
    with Tape() as tape:
        loss = product_sum(x, Tensor(np.ones(3)))
    backward(loss, tape)
    np.testing.assert_array_equal(x.grad, np.ones(3))


def test_backward_sum_of_squares():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        loss = product_sum(x, x)
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, [2.0, 4.0])


def test_backward_requires_scalar_loss():
    x = Tensor([1.0, 2.0], requires_grad=True)
    with Tape() as tape:
        y = add(x, x)
    with pytest.raises(ContractError):
        backward(y, tape)


def test_fanout_gradients_accumulate():
    rng = np.random.default_rng(5)
    b1, b2 = Tensor(rng.normal(size=4)), Tensor(rng.normal(size=4))
    x = Tensor(rng.normal(size=4), requires_grad=True)
    with Tape() as tape:
        loss = add(product_sum(x, b1), product_sum(x, b2))
    backward(loss, tape)
    np.testing.assert_allclose(x.grad, b1.data + b2.data)


def test_backward_adopts_the_rules_array_as_an_empty_grad():
    # the rule's -0.0 leaves +0.0, the bytes adding into zeros gave
    x = Tensor(np.ones(3), requires_grad=True)
    returned = np.array([-0.0, 2.0, -1.0])
    with Tape() as tape:
        loss = T.register_op((x,), np.array(3.0), lambda g: (returned,))
    backward(loss, tape)
    assert x.grad is returned
    assert x.grad.tobytes() == np.array([0.0, 2.0, -1.0]).tobytes()


def test_model_rejects_a_tensor_batch_of_another_dtype():
    # its gradients would reach the float32 parameters as float64 arrays;
    # a plain array is cast to the parameters' dtype instead
    cfg = ModelConfig(input_shape=(8, 1), num_classes=3, conv_filters=6, gru_units=4,
                      num_heads=2, key_dim=3, dense_units=(8, 4))
    model = build_model(cfg, np.random.default_rng(12), "float32")
    batch = np.random.default_rng(13).normal(size=(5, 8, 1))
    with pytest.raises(ContractError, match="model is float32, but the Tensor batch is float64"):
        model.forward(Tensor(batch, requires_grad=True), mode="train",
                      rng=np.random.default_rng(14))
    assert model.forward(batch).data.dtype == np.float32
    assert model.forward(Tensor(batch.astype(np.float32))).data.dtype == np.float32


def accumulating_backward(loss, tape):
    """The backward loop that leaves every op output's gradient in place."""
    loss.grad = np.ones_like(loss.data)
    for rec in reversed(tape.records):
        g = rec.output.grad
        if g is None:
            continue
        for t, gi in zip(rec.inputs, rec.backward_fn(g)):
            if gi is None or not t.requires_grad:
                continue
            if t.grad is None:
                t.grad = np.zeros_like(t.data)
            t.grad += gi


def test_train_step_frees_op_gradients_and_matches_the_accumulating_loop():
    cfg = ModelConfig(input_shape=(8, 1), num_classes=3, conv_filters=6, gru_units=4,
                      num_heads=2, key_dim=3, dense_units=(8, 4))
    results = []
    for run in (backward, accumulating_backward):
        model = build_model(cfg, np.random.default_rng(12))
        x = Tensor(np.random.default_rng(13).normal(size=(5, 8, 1)), requires_grad=True)
        with Tape() as tape:
            logits = model.forward(x, mode="train", rng=np.random.default_rng(14))
            loss = TR.cross_entropy_loss(logits, np.arange(5) % 3)
        run(loss, tape)
        assert len(tape) == 14
        results.append(([rec.output.grad for rec in tape.records],
                        [x.grad] + [p.grad for p in model.named_parameters().values()]))
    (freed, grads), (kept, parent_grads) = results
    assert all(g is None for g in freed)
    assert all(g is not None for g in kept)
    for got, want in zip(grads, parent_grads, strict=True):
        assert got.tobytes() == want.tobytes()


def test_a_tape_is_replayed_once():
    cfg = ModelConfig(input_shape=(8, 1), num_classes=3, conv_filters=6, gru_units=4,
                      num_heads=2, key_dim=3, dense_units=(8, 4))
    model = build_model(cfg, np.random.default_rng(12))
    with Tape() as tape:
        logits = model.forward(np.random.default_rng(13).normal(size=(5, 8, 1)),
                               mode="train", rng=np.random.default_rng(14))
        loss = TR.cross_entropy_loss(logits, np.arange(5) % 3)
    backward(loss, tape)
    first = {n: p.grad.tobytes() for n, p in model.named_parameters().items()}
    ran = []
    for rec in tape.records:
        rec.backward_fn = lambda g, fn=rec.backward_fn: ran.append(fn) or fn(g)
    with pytest.raises(ContractError, match="already replayed"):
        backward(loss, tape)
    assert ran == []
    assert {n: p.grad.tobytes() for n, p in model.named_parameters().items()} == first


@pytest.mark.parametrize("tapes", [0, 1, 2])
@pytest.mark.parametrize("requires_grad", [(), (False,), (True,), (False, True), (False, False)])
def test_recording_agrees_with_whether_register_op_records(tapes, requires_grad):
    inputs = [Tensor(np.ones(2), requires_grad=r) for r in requires_grad]
    with contextlib.ExitStack() as stack:
        active = [stack.enter_context(Tape()) for _ in range(tapes)]
        predicted = T.recording(inputs)
        out = T.register_op(inputs, np.zeros(2), lambda g: [g] * len(inputs))
    assert predicted == (tapes > 0 and any(requires_grad))
    assert out.requires_grad == predicted
    # a record goes to the innermost tape only
    assert sum(len(tape) for tape in active) == predicted
    assert not active or len(active[-1]) == predicted


def test_a_forward_on_another_thread_records_nothing_on_this_threads_tape():
    cfg = ModelConfig(input_shape=(8, 1), num_classes=3, conv_filters=6, gru_units=4,
                      num_heads=2, key_dim=3, dense_units=(8, 4))
    model = build_model(cfg, np.random.default_rng(15))   # its parameters require grad
    X = np.random.default_rng(16).normal(size=(5, 8, 1))
    scored = []
    with Tape() as tape:
        worker = threading.Thread(target=lambda: scored.append(model.forward(X, mode="infer")))
        worker.start()
        worker.join(timeout=60)
        assert not worker.is_alive() and len(scored) == 1
        assert len(tape) == 0 and not scored[0].requires_grad
        model.forward(X, mode="infer")   # this thread's ops still record onto it
        assert len(tape) > 0


def test_forward_ops_are_deterministic():
    rng = np.random.default_rng(6)
    x = rng.normal(size=(3, 4))
    r1 = T.softmax(x)
    r2 = T.softmax(x)
    assert np.array_equal(r1, r2)


def test_grad_check_sum_of_squares_tight():
    rng = np.random.default_rng(7)
    x = Tensor(rng.normal(size=6), requires_grad=True)
    assert grad_check_all(lambda: product_sum(x, x), [x], h=1e-5) < 1e-8


def test_grad_check_softmax_cross_entropy():
    rng = np.random.default_rng(8)
    logits = Tensor(rng.normal(size=(4, 5)), requires_grad=True)
    labels = rng.integers(0, 5, size=4)
    assert grad_check_all(lambda: TR.cross_entropy_loss(logits, labels), [logits], h=1e-6) < 1e-6


def test_grad_check_all_covers_multiple_tensors():
    rng = np.random.default_rng(10)
    a = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    b = Tensor(rng.normal(size=(3, 3)), requires_grad=True)
    # the two factors differ, so each tensor's gradient depends on both
    err = grad_check_all(lambda: product_sum(add(a, b), add(a, add(b, b))), [a, b])
    assert err < 1e-6


def test_no_tape_means_no_gradients():
    x = Tensor([1.0], requires_grad=True)
    y = product_sum(x, x)
    assert not y.requires_grad


def test_set_default_dtype_accepts_only_float64():
    # kept for callers that pin float64; the width is a model's, not the process's
    assert seqids.set_default_dtype("float64") is None
    assert not hasattr(T, "set_default_dtype")
    with pytest.raises(ContractError, match=r"build_model\(\.\.\., dtype='float32'\)"):
        seqids.set_default_dtype("float32")
    assert Tensor([1.0]).data.dtype == np.float64


@pytest.mark.parametrize("data, dtype", [
    (np.ones(3, dtype=np.float32), np.float32),
    (np.float32(1.5), np.float32),
    (np.ones(3), np.float64),
    ([1.0, 2.0], np.float64),
    ([1, 2], np.float64),
    (np.arange(3, dtype=np.int32), np.float64),
    (np.array([True, False]), np.float64),
    (7, np.float64),
], ids=["float32_array", "float32_scalar", "float64_array", "float_list", "int_list",
        "int_array", "bool_array", "int"])
def test_tensor_dtype_is_its_arrays(data, dtype):
    t = Tensor(data)
    assert t.data.dtype == dtype
    np.testing.assert_array_equal(t.data, np.asarray(data))
    if isinstance(data, np.ndarray) and data.dtype == dtype:
        assert t.data is data   # a floating array is wrapped, not copied
