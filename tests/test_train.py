import contextlib
import ctypes
import dataclasses
import os
import re
import sys
import threading
import time
import tracemalloc
from functools import partial

import numpy as np
import pytest

from seqids import cpus as CPU
from seqids import data as D
from seqids import layers as L
from seqids import tensor as T
from seqids import train as TR
from seqids.errors import ConfigError, ContractError, ShapeError, TrainingDiverged
from seqids.model import ModelConfig, build_model, table3_grid
from seqids.tensor import Tensor, grad_check_all


def small_split(seed=0, classes=3, features=12, per_class=80, separation=4.0):
    ds = D.synth_dataset(classes=classes, features=features, per_class=per_class,
                         seed=seed, separation=separation)
    pair = D.train_test_split(ds, fraction=0.8, seed=seed)
    std = D.fit_standardizer(pair.train.X)
    pair.train.X = std.transform(pair.train.X)
    pair.test.X = std.transform(pair.test.X)
    return pair


SMALL_CFG = ModelConfig(input_shape=(12, 1), num_classes=3, conv_filters=8,
                        gru_units=6, num_heads=2, key_dim=4, dropout_rate=0.2,
                        dense_units=(16,), bn_momentum=0.8)


# ---------------------------------------------------------------------------
# Cross-entropy

def test_cross_entropy_correct_onehot_is_near_zero():
    logits = Tensor(np.array([[50.0, -50.0], [-50.0, 50.0]]))
    loss = TR.cross_entropy_loss(logits, np.array([0, 1]))
    assert 0.0 <= float(loss.data) < 1e-10


def test_cross_entropy_uniform_over_six_classes_is_ln6():
    logits = Tensor(np.full((4, 6), 3.5))
    loss = TR.cross_entropy_loss(logits, np.array([0, 1, 2, 3]))
    np.testing.assert_allclose(float(loss.data), np.log(6.0), atol=1e-12)
    assert abs(float(loss.data) - 1.791759) < 1e-5


def test_cross_entropy_gradient_through_softmax_is_probs_minus_onehot():
    rng = np.random.default_rng(0)
    logits = Tensor(rng.normal(size=(5, 4)), requires_grad=True)
    labels = rng.integers(0, 4, size=5)
    with T.Tape() as tape:
        loss = TR.cross_entropy_loss(logits, labels)
    assert len(tape) == 1
    T.backward(loss, tape)
    probs = T.softmax(logits.data)
    expected = (probs - np.eye(4)[labels]) / 5
    np.testing.assert_allclose(logits.grad, expected, atol=1e-12)
    err = grad_check_all(lambda: TR.cross_entropy_loss(logits, labels), [logits], h=1e-6)
    assert err < 1e-6


def test_cross_entropy_confidently_wrong_row_keeps_full_gradient():
    # softmax of [1000, -1000] is [1, 0] to double precision; with label 1
    # the loss is 2000 nats and the gradient (softmax - onehot) / B is not
    # cut off by any probability floor
    logits = Tensor(np.array([[1000.0, -1000.0]]), requires_grad=True)
    with T.Tape() as tape:
        loss = TR.cross_entropy_loss(logits, np.array([1]))
    T.backward(loss, tape)
    assert np.isfinite(float(loss.data))
    assert float(loss.data) == pytest.approx(2000.0, rel=1e-12)
    np.testing.assert_allclose(logits.grad, [[1.0, -1.0]], atol=1e-12)


def test_cross_entropy_label_out_of_range():
    logits = Tensor(np.zeros((2, 3)))
    with pytest.raises(ContractError):
        TR.cross_entropy_loss(logits, np.array([0, 3]))


# ---------------------------------------------------------------------------
# Adam

def test_adam_zero_gradient_leaves_params_unchanged():
    p = Tensor(np.array([1.0, -2.0]), requires_grad=True)
    p.grad = np.zeros(2)
    opt = TR.Adam({"p": p}, lr=1e-3)
    opt.step()
    np.testing.assert_array_equal(p.data, [1.0, -2.0])


def test_adam_first_step_magnitude_is_learning_rate():
    p = Tensor(np.array([0.5]), requires_grad=True)
    p.grad = np.array([1.0])
    opt = TR.Adam({"p": p}, lr=1e-3)
    opt.step()
    np.testing.assert_allclose(p.data, [0.5 - 1e-3], atol=1e-10)


@pytest.mark.parametrize("grad", [[1.0, np.inf], [1.0, np.nan], [1e200, 1.0]],
                         ids=["inf", "nan", "square_overflows"])
def test_adam_step_names_the_parameter_it_left_non_finite(grad):
    ok = Tensor(np.array([0.5]), requires_grad=True)
    bad = Tensor(np.array([0.5, 0.5]), requires_grad=True)
    ok.grad, bad.grad = np.array([1.0]), np.array(grad)
    opt = TR.Adam({"ok": ok, "bad": bad}, lr=1e-3)
    assert opt.step() == "bad"   # and no numpy RuntimeWarning, an error in this suite
    ok.grad, bad.grad = np.array([1.0]), None
    assert TR.Adam({"ok": ok, "bad": bad}, lr=1e-3).step() is None


def test_adam_is_deterministic():
    def run():
        p = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        opt = TR.Adam({"p": p}, lr=0.01)
        for g in ([0.3, -0.2], [0.1, 0.5], [-0.4, 0.2]):
            p.grad = np.array(g)
            opt.step()
        return p.data.copy()

    np.testing.assert_array_equal(run(), run())


def test_adam_first_step_matches_closed_form():
    # after bias correction the first step is lr * g / (|g| + eps) per coordinate
    rng = np.random.default_rng(1)
    p0 = rng.normal(size=4)
    g = rng.normal(size=4)
    p = Tensor(p0.copy(), requires_grad=True)
    p.grad = g.copy()
    TR.Adam({"p": p}, lr=0.01).step()
    np.testing.assert_allclose(p.data, p0 - 0.01 * g / (np.abs(g) + 1e-8), atol=1e-15)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
def test_adam_updates_its_moments_in_place_with_the_textbook_bits(dtype):
    rng = np.random.default_rng(3)
    p = Tensor(rng.normal(size=(3, 4)).astype(dtype), requires_grad=True)
    opt = TR.Adam({"p": p}, lr=0.01)
    m, v = opt.m["p"], opt.v["p"]
    want_p, want_m, want_v = p.data.copy(), m.copy(), v.copy()
    b1, b2 = 0.9, 0.999
    for t in (1, 2, 3):
        p.grad = rng.normal(size=(3, 4)).astype(dtype)
        # the update as three expressions, with new arrays for m, v and every temporary
        want_m = b1 * want_m + (1 - b1) * p.grad
        want_v = b2 * want_v + (1 - b2) * p.grad * p.grad
        want_p -= 0.01 * (want_m / (1 - b1 ** t)) / (np.sqrt(want_v / (1 - b2 ** t)) + 1e-8)
        assert opt.step() is None
        assert opt.m["p"] is m and opt.v["p"] is v
        for got, want in ((p.data, want_p), (m, want_m), (v, want_v)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def test_adam_single_step_decreases_convex_quadratic():
    rng = np.random.default_rng(2)
    for lr in (1e-3, 1e-2):
        for _ in range(20):
            c = rng.normal(size=3)
            start = c + rng.uniform(0.05, 3.0, size=3) * rng.choice([-1, 1], size=3)
            p = Tensor(start.copy(), requires_grad=True)
            p.grad = 2.0 * (p.data - c)
            before = float(((p.data - c) ** 2).sum())
            TR.Adam({"p": p}, lr=lr).step()
            after = float(((p.data - c) ** 2).sum())
            assert after < before


# ---------------------------------------------------------------------------
# Training loop

@pytest.mark.parametrize("field, value", [
    ("epochs", 0), ("batch_size", 0), ("lr", -1.0), ("lr", float("nan")),
    ("validation_fraction", 1.0), ("seed", -1)])
def test_bad_train_config_value_is_a_config_error_naming_it(field, value):
    with pytest.raises(ConfigError, match=field):
        TR.TrainConfig(**{field: value}).validate()


def test_training_converges_on_separable_task():
    pair = small_split(seed=3)
    model = build_model(SMALL_CFG, np.random.default_rng(3))
    cfg = TR.TrainConfig(epochs=8, batch_size=32, lr=3e-3, seed=3)
    _, records = TR.train(model, pair, cfg)
    assert records[-1].val_accuracy >= 0.9
    # training loss should mostly decrease between consecutive epochs
    drops = sum(records[i + 1].train_loss <= records[i].train_loss
                for i in range(len(records) - 1))
    assert drops / (len(records) - 1) >= 0.8


def test_training_is_seed_deterministic():
    def run():
        pair = small_split(seed=4, per_class=30)
        model = build_model(SMALL_CFG, np.random.default_rng(4))
        cfg = TR.TrainConfig(epochs=3, batch_size=32, lr=1e-3, seed=4)
        _, records = TR.train(model, pair, cfg)
        return [(r.train_loss, r.train_accuracy, r.val_loss, r.val_accuracy)
                for r in records]

    assert run() == run()


def test_validation_runs_in_infer_mode():
    # with dropout active the train metrics are noisy, but the validation
    # metrics of two evaluations of the same model must agree exactly
    pair = small_split(seed=5, per_class=30)
    model = build_model(SMALL_CFG, np.random.default_rng(5))
    l1, a1 = TR._evaluate(model, pair.train.X[:, :, None], pair.train.y, 32)
    l2, a2 = TR._evaluate(model, pair.train.X[:, :, None], pair.train.y, 32)
    assert (l1, a1) == (l2, a2)


def test_validation_rows_are_pinned(monkeypatch):
    # 18 rows in classes of 2, 3, 5 and 8 whose one feature is the row id; at
    # 0.25 the 2-row class holds out round(0.5) = 0 rows
    y = np.array([3, 0, 1, 3, 2, 3, 1, 2, 3, 0, 2, 3, 1, 2, 3, 2, 3, 3])
    ds = D.Dataset(X=np.arange(18.0)[:, None], y=y, encoder=D.LabelEncoder().fit("abcd"),
                   feature_names=["row"])
    held = []

    def capture(model, X, y, batch_size):
        held.append(X[:, 0, 0].astype(int).tolist())
        return 0.0, 0.0

    monkeypatch.setattr(TR, "_evaluate", capture)
    cfg = ModelConfig(input_shape=(1, 1), num_classes=4, use_bigru=False, use_mha=False,
                      conv_filters=2, dense_units=(), dropout_rate=0.0)
    for seed in (0, 1):
        TR.train(build_model(cfg, np.random.default_rng(0)), D.SplitPair(ds, ds, 1.0),
                 TR.TrainConfig(epochs=1, batch_size=32, seed=seed, validation_fraction=0.25))
    assert held == [[12, 10, 16, 5], [2, 13, 3, 16]]


def test_validation_fraction_that_holds_out_no_row_is_rejected():
    # 3 classes of 4 rows: round(0.1 * 4) = 0 rows held out of every class
    ds = D.Dataset(X=np.arange(12.0)[:, None], y=np.repeat([0, 1, 2], 4),
                   encoder=D.LabelEncoder().fit("abc"), feature_names=["row"])
    cfg = ModelConfig(input_shape=(1, 1), num_classes=3, use_bigru=False, use_mha=False,
                      conv_filters=2, dense_units=(), dropout_rate=0.0)
    with pytest.raises(ContractError, match=r"validation_fraction 0\.1 .*largest class has 4"):
        TR.train(build_model(cfg, np.random.default_rng(0)), D.SplitPair(ds, ds, 1.0),
                 TR.TrainConfig(epochs=1, batch_size=32, validation_fraction=0.1))


def test_train_takes_the_datasets_two_dimensional_rows_only():
    # Dataset.X is (N, F): an (N, T, 1) array gains a fourth axis and the
    # model's shape check refuses it
    pair = small_split(seed=6, per_class=20)
    pair.train.X = pair.train.X[:, :, None]
    with pytest.raises(ShapeError, match=r"got \(\d+, 12, 1, 1\)"):
        TR.train(build_model(SMALL_CFG, np.random.default_rng(6)), pair,
                 TR.TrainConfig(epochs=1, batch_size=32, seed=6))


@pytest.mark.parametrize("fraction", [0.0, 0.1])
def test_train_holds_the_split_rows_once(fraction):
    # the training rows are indexed out of the split's X batch by batch, with
    # no resident copy of the fit or validation rows: doubling the rows adds
    # under half of the added bytes of X to the peak (copies of the fit and
    # validation rows would add all of them, or twice that at fraction 0)
    cfg = ModelConfig(input_shape=(48, 1), num_classes=3, use_bigru=False, use_mha=False,
                      conv_filters=2, dense_units=(), dropout_rate=0.0)
    rng = np.random.default_rng(14)
    X, y = rng.normal(size=(4000, 48)), np.arange(4000) % 3
    tc = TR.TrainConfig(epochs=1, batch_size=256, validation_fraction=fraction)

    def peak(n):
        ds = D.Dataset(X=X[:n], y=y[:n], encoder=D.LabelEncoder().fit("abc"),
                       feature_names=[f"f{i}" for i in range(48)])
        model = build_model(cfg, np.random.default_rng(15))
        tracemalloc.start()
        try:
            TR.train(model, D.SplitPair(ds, ds, 1.0), tc)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(2000)  # a first run, so the caches numpy fills on first use are not counted
    assert peak(4000) - peak(2000) < X[2000:].nbytes / 2


def test_epoch_csv_round_trip(tmp_path):
    records = [TR.EpochRecord(1, 0.5, 0.8, 0.6, 0.75, 1.25),
               TR.EpochRecord(2, 0.4, 0.85, 0.55, 0.78, 1.19)]
    path = tmp_path / "epochs.csv"
    TR.write_epoch_csv(records, path)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,train_loss,train_acc,val_loss,val_acc,seconds"
    assert len(lines) == 3
    assert lines[1].startswith("1,0.5,0.8,0.6,0.75")


# ---------------------------------------------------------------------------
# Inference in row blocks

@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("n", [1, 63, 64, 65, 129])
def test_predict_logits_blocks_match_one_whole_batch_forward(n, dtype):
    model = build_model(SMALL_CFG, np.random.default_rng(10), dtype)
    X = np.random.default_rng(n).normal(size=(n, 12, 1))
    whole = model.forward(X, mode="infer").data
    for batch_size in (1, 10, 64, 128, 256):
        logits = TR.predict_logits(model, X, batch_size)
        assert logits.shape == (n, SMALL_CFG.num_classes) and logits.dtype == np.dtype(dtype)
        assert np.array_equal(logits.argmax(axis=1), whole.argmax(axis=1)), batch_size
        # a tolerance, not bits: BLAS builds may split a GEMM by its row count
        if dtype == "float64":
            assert np.abs(logits - whole).max() <= 1e-12, batch_size
        probs = TR.predict_proba(model, X, batch_size)
        assert probs.dtype == np.dtype(dtype)
        assert np.array_equal(probs, T.softmax(logits)), batch_size


@pytest.mark.parametrize("batch_size", [0, -1, -3, 2.5, True, False, "4", None, np.float64(8)])
@pytest.mark.parametrize("entry", [TR.predict_logits, TR.predict_proba],
                         ids=["predict_logits", "predict_proba"])
def test_batch_size_that_is_not_a_positive_int_is_a_contract_error(entry, batch_size):
    model = build_model(SMALL_CFG, np.random.default_rng(11))
    with pytest.raises(ContractError, match=re.escape(f"got {batch_size!r}")):
        entry(model, np.zeros((5, 12, 1)), batch_size)


def test_numpy_int_batch_size_is_accepted():
    model = build_model(SMALL_CFG, np.random.default_rng(12))
    X = np.random.default_rng(12).normal(size=(5, 12, 1))
    assert np.array_equal(TR.predict_logits(model, X, np.int64(2)),
                          TR.predict_logits(model, X, 2))


def traced_peak(model, X):
    TR.predict_logits(model, X, batch_size=len(X))  # untraced, so lazy caches are not counted
    tracemalloc.start()
    try:
        TR.predict_logits(model, X, batch_size=len(X))
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_predict_logits_memory_does_not_grow_with_the_batch(monkeypatch):
    monkeypatch.setattr(CPU, "cpus", lambda: 1)   # one pass a block; the split's test is below
    model = build_model(SMALL_CFG, np.random.default_rng(13))
    X = np.random.default_rng(13).normal(size=(640, 12, 1))
    # one 640-row forward pass needs several MB above one of 64 rows
    logits = X[:640, :SMALL_CFG.num_classes, 0].nbytes
    assert traced_peak(model, X) <= traced_peak(model, X[:64]) + logits + 64 * 1024


def test_split_predict_logits_memory_does_not_grow_with_the_batch(monkeypatch):
    # how far the two parts' allocations overlap varies from block to block:
    # one 64-row block peaked at 267-512 KB over 20 runs, ten blocks at 496-535
    # KB and twenty at 550 KB. So both calls score ten blocks or more
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    model = build_model(SMALL_CFG, np.random.default_rng(13))
    X = np.random.default_rng(13).normal(size=(1280, 12, 1))
    logits = X[:640, :SMALL_CFG.num_classes, 0].nbytes
    assert traced_peak(model, X) <= traced_peak(model, X[:640]) + logits + 64 * 1024


# ---------------------------------------------------------------------------
# Inference blocks in parts on several CPUs

def spy_features(monkeypatch, model, fail_off_the_caller=False):
    """Record the rows of each ``model.features`` call, and the BLAS thread
    count it ran with; optionally raise on a pool thread."""
    calls, caller, blas = [], threading.get_ident(), CPU._openblas()
    features = model.features

    def spy(batch, *args):
        calls.append((np.shape(batch)[0], blas[1]() if blas else None))
        if fail_off_the_caller and threading.get_ident() != caller:
            raise TrainingDiverged("a part on a pool thread failed")
        return features(batch, *args)

    monkeypatch.setattr(model, "features", spy)
    return calls


@pytest.fixture
def blas_count():
    """The OpenBLAS thread count, set to 3 for the test and put back after;
    skips where this numpy's thread count cannot be set."""
    blas = CPU._openblas()
    if blas is None:
        pytest.skip("no OpenBLAS thread control found")
    set_threads, get_threads = blas
    before = get_threads()
    set_threads(3)   # odd, so a pinned count (3 // 2 = 1) cannot read as restored
    try:
        yield get_threads
    finally:
        set_threads(before)


SPLIT_CONFIGS = {
    **{f"table3_{case}": cfg for case, cfg, _ in table3_grid(ModelConfig())},
    "t9": ModelConfig(input_shape=(9, 1), conv_filters=16, gru_units=8, key_dim=8),
    "no_hidden_dense": ModelConfig(input_shape=(8, 1), num_classes=3, conv_filters=6,
                                   gru_units=4, num_heads=2, key_dim=3, dense_units=()),
}


@pytest.mark.parametrize("seed", [3, 13])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", SPLIT_CONFIGS)
def test_split_blocks_give_the_bits_of_one_forward_per_block(monkeypatch, name, dtype, seed):
    cfg = SPLIT_CONFIGS[name]
    model = build_model(cfg, np.random.default_rng(seed), dtype)
    X = np.random.default_rng(seed + 1).normal(size=(TR.INFER_ROWS, *cfg.input_shape))
    whole = model.forward(X, mode="infer").data
    calls = spy_features(monkeypatch, model)
    for cpus in (2, 4):   # two 32-row halves either way
        monkeypatch.setattr(CPU, "cpus", lambda: cpus)
        calls.clear()
        assert np.array_equal(TR.predict_logits(model, X), whole), cpus
        assert sorted(rows for rows, _ in calls) == [TR.INFER_ROWS // 2] * 2, cpus


def test_split_runs_its_parts_on_a_shared_blas_and_restores_its_thread_count(
        monkeypatch, blas_count):
    model = build_model(SMALL_CFG, np.random.default_rng(15))
    X = np.random.default_rng(15).normal(size=(150, 12, 1))
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    calls = spy_features(monkeypatch, model)
    logits = TR.predict_logits(model, X)
    # two full blocks in two parts each at 3 // 2 threads; the 22-row tail in one pass
    assert sorted(calls) == [(22, 1)] + [(32, 1)] * 4
    assert blas_count() == 3
    assert np.array_equal(logits[128:], model.forward(X[128:], mode="infer").data)

    # a wrong-shaped X is not split, so its error names the block's shape
    with pytest.raises(ShapeError, match=re.escape("got (64, 11, 1)")):
        TR.predict_logits(model, X[:, :11])
    assert blas_count() == 3
    calls = spy_features(monkeypatch, model, fail_off_the_caller=True)
    with pytest.raises(TrainingDiverged, match="pool thread"):
        TR.predict_logits(model, X)
    assert blas_count() == 3
    assert len(calls) == 2   # the first block's two parts, then no further block


@contextlib.contextmanager
def no_blas_control():
    """``cpus.blas_threads`` where numpy's OpenBLAS cannot be pinned."""
    yield False


def test_split_without_blas_control_runs_each_block_in_one_pass(monkeypatch):
    model = build_model(SMALL_CFG, np.random.default_rng(16))
    X = np.random.default_rng(16).normal(size=(150, 12, 1))
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    split = TR.predict_logits(model, X)
    monkeypatch.setattr(CPU, "blas_threads", no_blas_control)
    calls = spy_features(monkeypatch, model)
    assert np.array_equal(TR.predict_logits(model, X), split)
    assert [rows for rows, _ in calls] == [64, 64, 22]


def test_blas_threads_lends_one_caller_at_a_time_a_share(blas_count):
    with pytest.raises(TrainingDiverged):
        with CPU.blas_threads() as pinned:
            assert pinned and blas_count() == 1
            with CPU.blas_threads() as nested:   # the count is lowered already
                assert not nested and blas_count() == 1
            raise TrainingDiverged("the body raised")
    assert blas_count() == 3
    with CPU.blas_threads() as pinned:   # released on the way out
        assert pinned and blas_count() == 1


def numpy_openblas() -> list[str]:
    """The paths of the OpenBLAS libraries numpy's PyPI wheel ships beside it."""
    return [os.path.join(CPU._LIBS, name) for name in
            (os.listdir(CPU._LIBS) if os.path.isdir(CPU._LIBS) else [])
            if name.startswith(CPU._LIBRARY)]


def test_blas_threads_finds_the_thread_count_of_numpys_wheel_openblas():
    # on numpy's PyPI wheel the split inference must find this control, or it
    # turns itself off unnoticed and scores every block in one pass
    if not numpy_openblas():
        pytest.skip("not numpy's PyPI wheel: numpy.libs holds no libscipy_openblas64_ library")
    blas = CPU._openblas()
    assert blas is not None, f"no {CPU._SET} and {CPU._GET} in {numpy_openblas()}"
    before = blas[1]()
    with CPU.blas_threads() as pinned:
        assert pinned and blas[1]() == max(1, before // 2)
    assert blas[1]() == before


def test_blas_threads_drives_numpys_openblas_and_not_scipys():
    # SciPy's wheel loads its own OpenBLAS, mapped before numpy's, and it
    # exports a thread-count setter under a name much like numpy's
    pytest.importorskip("scipy.linalg")
    numpy_libs = numpy_openblas()
    with open("/proc/self/maps", encoding="utf-8") as fh:
        scipy_loaded = "scipy.libs/libscipy_openblas" in fh.read()
    if len(numpy_libs) != 1 or not scipy_loaded:
        pytest.skip("not numpy's and SciPy's PyPI wheels")
    want = ctypes.CDLL(numpy_libs[0], mode=os.RTLD_NOLOAD)
    blas = CPU._openblas.__wrapped__()   # looked up again, with both loaded
    assert blas is not None
    address = lambda fn: ctypes.cast(fn, ctypes.c_void_p).value
    assert address(blas[0]) == address(getattr(want, CPU._SET))
    assert address(blas[1]) == address(getattr(want, CPU._GET))


def test_concurrent_split_calls_keep_their_bits_and_restore_the_thread_count(
        monkeypatch, blas_count):
    model = build_model(SMALL_CFG, np.random.default_rng(17))
    X = np.random.default_rng(17).normal(size=(128, 12, 1))
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    want = TR.predict_logits(model, X)
    got = []

    def score():
        for _ in range(3):
            got.append(np.array_equal(TR.predict_logits(model, X), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=score) for _ in range(4)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in callers)
    assert got == [True] * 12
    assert blas_count() == 3


def test_halves_joins_the_pool_half_when_the_callers_half_raises(monkeypatch, blas_count):
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    done = []

    def part(s):
        if s.start == 0:
            raise TrainingDiverged("the caller's half failed")
        time.sleep(0.05)
        done.append(s)

    with CPU.two_cpus():
        with pytest.raises(TrainingDiverged, match="caller's half"):
            CPU.halves(part, 4)
        assert done == [slice(2, 4)]
    assert blas_count() == 3


def test_two_cpus_nests_and_runs_halves_inside_a_half_whole(monkeypatch, blas_count):
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    inner = []

    def outer(s):
        CPU.halves(lambda r: inner.append((threading.get_ident(), r)), 6)

    assert CPU.halves(lambda s: s, 5) == [slice(0, 5)]   # outside two_cpus
    with CPU.two_cpus():
        assert blas_count() == 1
        with CPU.two_cpus():   # shares the outer call's pin and pool
            assert blas_count() == 1
            assert CPU.halves(lambda s: s, 5) == [slice(0, 2), slice(2, 5)]
            assert CPU.halves(lambda s: s, 1) == [slice(0, 1)]
        assert blas_count() == 1
        CPU.halves(outer, 2)
    assert blas_count() == 3
    assert [r for _, r in inner] == [slice(0, 6)] * 2
    assert len({thread for thread, _ in inner}) == 2


# ---------------------------------------------------------------------------
# The train step in halves on two CPUs

#: the ten ``table3_grid`` cases at T = 12 and batch 128, so that B·T = 1536
#: rows and every fused record has products large enough to be split
TRAIN_SPLIT_CASES = {case: cfg for case, cfg, _ in table3_grid(ModelConfig(
    input_shape=(12, 1), num_classes=3, dense_units=(32, 16), bn_momentum=0.8))}


def train_small(cfg, dtype="float64", seed=0, **train_cfg):
    """``train.train`` for 2 epochs at batch 128 on 216 fit rows (a full batch
    and one of 88 rows) and 24 validation rows."""
    model = build_model(cfg, np.random.default_rng(seed), dtype)
    pair = small_split(seed, features=cfg.input_shape[0], per_class=100)
    settings = dict(epochs=2, batch_size=128, seed=seed) | train_cfg
    return TR.train(model, pair, TR.TrainConfig(**settings))


def spy_halves(monkeypatch, fail_off_the_caller=False):
    """Record (thread, slice, n, name) of each part the layers' ``halves``
    calls run, ``name`` that of the function split; optionally raise on a
    pool thread."""
    parts, caller, halves = [], threading.get_ident(), L.halves

    def spy(fn, n):
        def part(s):
            parts.append((threading.get_ident(), s, n, fn.__name__))
            if fail_off_the_caller and threading.get_ident() != caller:
                raise TrainingDiverged("a half on a pool thread failed")
            return fn(s)
        return halves(part, n)

    monkeypatch.setattr(L, "halves", spy)
    return parts


#: records whose products, split in halves, would not keep their bits with
#: some OpenBLAS kernels (150 and 250 columns, halves under 1e6 multiply-adds
#: or of 1 and 2 rows), beside ones that split, and the flagship's records
#: whose loops and row-wise passes split: (make layer, x shape)
RECORDS = {
    "dense_250_columns": (lambda rng: partial(L.dense_forward, p=L.init_dense(rng, 64, 250)),
                          (128, 64)),
    "dense_small_halves": (lambda rng: partial(L.dense_forward, p=L.init_dense(rng, 768, 16)),
                           (128, 768)),
    "dense_split": (lambda rng: partial(L.dense_forward, p=L.init_dense(rng, 768, 64)),
                    (128, 768)),
    "conv_250_filters": (lambda rng: partial(L.conv1d_forward, p=L.init_conv1d(rng, 64, 250, 3)),
                         (16, 60, 64)),
    "conv_3_row_dw": (lambda rng: partial(L.conv1d_forward, p=L.init_conv1d(rng, 1, 64, 3)),
                      (300, 60, 1)),
    "bigru_50_units": (lambda rng: partial(L.bigru_forward, fwd=L.init_gru(rng, 64, 50),
                                           bwd=L.init_gru(rng, 64, 50)), (16, 60, 64)),
    "mha_key_dim_50": (lambda rng: partial(L.multi_head_attention, p=L.init_mha(rng, 128, 2, 50)),
                       (16, 60, 128)),
    "batchnorm_relu_flagship": (lambda rng: partial(
        L.batchnorm_forward, p=L.init_batchnorm(rng, 64, 0.99), relu=True), (128, 60, 64)),
    "residual_flagship": (lambda rng: partial(
        L.residual_relu, b=Tensor(rng.normal(size=(128, 60, 64)), requires_grad=True)),
        (128, 60, 64)),
    "bigru_flagship": (lambda rng: partial(L.bigru_forward, fwd=L.init_gru(rng, 64, 64),
                                           bwd=L.init_gru(rng, 64, 64)), (128, 60, 64)),
    "bigru_100_units": (lambda rng: partial(L.bigru_forward, fwd=L.init_gru(rng, 64, 100),
                                            bwd=L.init_gru(rng, 64, 100)), (128, 12, 64)),
    "bigru_odd_batch": (lambda rng: partial(L.bigru_forward, fwd=L.init_gru(rng, 32, 96),
                                            bwd=L.init_gru(rng, 32, 96)), (129, 12, 32)),
    "layernorm_flagship": (lambda rng: partial(L.layernorm_forward, p=L.init_layernorm(rng, 128)),
                           (128, 60, 128)),
    "dropout_flagship": (lambda rng: partial(L.dropout_forward, rate=0.5, rng=rng),
                         (128, 60, 128)),
    "dense_flagship": (lambda rng: partial(L.dense_forward, p=L.init_dense(rng, 7680, 64)),
                       (128, 60, 128)),
}


def run_record(name, dtype, recorded=True):
    """The output and the returned gradients of ``RECORDS[name]`` in ``dtype``,
    built afresh from one seed, run forward and then backward; with
    ``recorded`` False, the output alone of a forward pass with no tape."""
    make, shape = RECORDS[name]
    rng = np.random.default_rng(19)
    layer = make(rng)
    for value in layer.keywords.values():
        values = [value] if isinstance(value, Tensor) else \
            [getattr(value, f.name) for f in dataclasses.fields(value)] \
            if dataclasses.is_dataclass(value) else []
        for tensor in (v for v in values if isinstance(v, Tensor)):
            tensor.data = tensor.data.astype(dtype)
    x = Tensor(rng.normal(size=shape).astype(dtype), requires_grad=True)
    if not recorded:
        return [layer(x).data]
    with T.Tape() as tape:
        out = layer(x)
    g = np.random.default_rng(20).normal(size=out.shape).astype(dtype)
    return [out.data] + [a for a in tape.records[0].backward_fn(g) if a is not None]


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("name", RECORDS)
def test_a_record_keeps_its_bits_in_halves(monkeypatch, blas_count, name, dtype):
    # the record, then its forward pass alone with no tape, which splits alike
    both = lambda: run_record(name, dtype) + run_record(name, dtype, recorded=False)
    monkeypatch.setattr(CPU, "cpus", lambda: 1)
    with CPU.blas_threads():   # the thread count of a half, as below
        whole = both()
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    with CPU.two_cpus():
        split = both()
    layout = lambda arrays: [(a.dtype, a.shape, a.strides, a.tobytes()) for a in arrays]
    assert layout(whole) == layout(split)


def test_the_flagship_loops_and_row_passes_run_a_half_on_the_pool_thread(
        monkeypatch, blas_count):
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    parts, loops, caller = spy_halves(monkeypatch), [], threading.get_ident()

    def spy_loop(loop):
        def spy(zr, *arrays):
            loops.append((loop.__name__, threading.get_ident() != caller, zr.shape[2]))
            return loop(zr, *arrays)
        return spy

    for name in ("_gru_scan", "_gru_bptt"):
        monkeypatch.setattr(L, name, spy_loop(getattr(L, name)))

    def split(name, dtype):
        """The names of the functions ``name``'s record ran in halves with one
        on the pool thread, and of all those it passed to ``halves``."""
        parts.clear()
        loops.clear()
        with CPU.two_cpus():
            run_record(name, dtype)
        return ({fn for thread, _, _, fn in parts if thread != caller},
                {fn for _, _, _, fn in parts})

    # (loop, on the pool thread, batch rows)
    assert split("bigru_flagship", "float64") == ({"project", "scan", "by_direction", "bptt"},) * 2
    assert sorted(loops) == [(loop, pool, 64) for loop in ("_gru_bptt", "_gru_scan")
                             for pool in (False, True)]
    # a float32 half's per-step z|r block takes 64 KiB, under the loops' floor
    assert split("bigru_flagship", "float32") == ({"project", "by_direction"},) * 2
    assert sorted(loops) == [("_gru_bptt", False, 128), ("_gru_scan", False, 128)]
    assert split("layernorm_flagship", "float64") == ({"forward", "first", "last"},) * 2
    assert split("batchnorm_relu_flagship", "float64") == (
        {"forward", "first", "scaled", "last"},) * 2
    assert split("residual_flagship", "float64") == ({"forward", "masked"},) * 2
    assert split("dropout_flagship", "float64") == ({"rows"},) * 2
    split("dense_flagship", "float64")   # dW, (64, 7680), in halves of its columns
    assert 7680 in {n for thread, _, n, _ in parts if thread != caller}


def test_a_short_last_block_splits_its_layers_with_the_bits_of_one_forward(
        monkeypatch, blas_count):
    # two full blocks scored in halves, then a 22-row tail as one forward pass
    # inside the pin, whose layers split by shape although nothing is recorded
    model = build_model(ModelConfig(), np.random.default_rng(21))
    X = np.random.default_rng(21).normal(size=(150, 60, 1))
    with CPU.blas_threads():   # one OpenBLAS thread, a half's count
        want = [model.forward(X[s:s + TR.INFER_ROWS], mode="infer").data
                for s in range(0, len(X), TR.INFER_ROWS)]
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    parts, caller = spy_halves(monkeypatch), threading.get_ident()
    assert TR.predict_logits(model, X).tobytes() == np.concatenate(want).tobytes()
    assert any(thread != caller and s != slice(0, n) for thread, s, n, _ in parts)


@pytest.mark.parametrize("seed", [3, 13])
@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("case", TRAIN_SPLIT_CASES)
def test_train_bits_do_not_depend_on_the_split(monkeypatch, case, dtype, seed):
    if CPU._openblas() is None:
        pytest.skip("no OpenBLAS thread control found")
    cfg = TRAIN_SPLIT_CASES[case]
    monkeypatch.setattr(CPU, "cpus", lambda: 1)
    whole, whole_records = train_small(cfg, dtype, seed)
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    parts = spy_halves(monkeypatch)
    split, split_records = train_small(cfg, dtype, seed)
    assert any(thread != threading.get_ident() for thread, _, _, _ in parts)
    for (name, a), b in zip(whole.named_arrays().items(), split.named_arrays().values()):
        assert a.data.tobytes() == b.data.tobytes(), name
    fields = lambda r: (r.epoch, r.train_loss, r.train_accuracy, r.val_loss, r.val_accuracy)
    assert [fields(r) for r in whole_records] == [fields(r) for r in split_records]


def test_train_validation_scores_its_blocks_in_halves(monkeypatch):
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    model = build_model(SMALL_CFG, np.random.default_rng(18))
    rows = small_split(18).train
    head = D.Dataset(X=rows.X[:64], y=rows.y[:64], encoder=rows.encoder,
                     feature_names=rows.feature_names)
    calls, features = [], model.features

    def spy(batch, mode="infer", rng=None):
        calls.append((np.shape(batch)[0], mode))
        return features(batch, mode, rng)

    monkeypatch.setattr(model, "features", spy)
    TR.train(model, D.SplitPair(head, head, 1.0),
             TR.TrainConfig(epochs=2, batch_size=64, validation_fraction=0.0))
    # each epoch: one 64-row step, then its 64 rows validated in two halves
    assert calls == [(64, "train"), (32, "infer"), (32, "infer")] * 2


def test_a_half_that_raises_on_the_pool_thread_stops_training(monkeypatch, blas_count):
    monkeypatch.setattr(CPU, "cpus", lambda: 2)
    spy_halves(monkeypatch, fail_off_the_caller=True)
    before = set(threading.enumerate())
    with pytest.raises(TrainingDiverged, match="pool thread"):
        train_small(TRAIN_SPLIT_CASES[5])
    assert blas_count() == 3
    assert set(threading.enumerate()) <= before   # the pool thread is joined


@pytest.mark.parametrize("fallback", ["one_cpu", "no_blas_control"])
def test_train_without_two_cpus_runs_in_one_pass(monkeypatch, fallback):
    monkeypatch.setattr(CPU, "cpus", lambda: 1 if fallback == "one_cpu" else 2)
    if fallback == "no_blas_control":
        monkeypatch.setattr(CPU, "blas_threads", no_blas_control)
    parts = spy_halves(monkeypatch)
    train_small(TRAIN_SPLIT_CASES[5], epochs=1)
    assert parts
    assert all(thread == threading.get_ident() and s == slice(0, n) for thread, s, n, _ in parts)


# ---------------------------------------------------------------------------
# Inference timing

def test_measure_inference_positive_and_finite(monkeypatch):
    model = build_model(SMALL_CFG, np.random.default_rng(6))
    batch = np.random.default_rng(6).normal(size=(8, 12, 1))
    runs = []
    predict_logits = TR.predict_logits
    monkeypatch.setattr(TR, "predict_logits",
                        lambda *args: runs.append(1) or predict_logits(*args))
    lat = TR.measure_inference(model, batch)
    assert len(runs) == TR.REPETITIONS + 1 == 31
    assert lat.batch_size == 8
    assert np.isfinite(lat.p95) and lat.p95 >= lat.p50 > 0


def test_measure_inference_batching_amortizes():
    model = build_model(SMALL_CFG, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    t1 = TR.measure_inference(model, rng.normal(size=(1, 12, 1)))
    t64 = TR.measure_inference(model, rng.normal(size=(64, 12, 1)))
    assert t64.p50 <= t1.p50


def test_measure_inference_times_a_batch_above_one_block():
    model = build_model(SMALL_CFG, np.random.default_rng(14))
    lat = TR.measure_inference(model, np.random.default_rng(14).normal(size=(65, 12, 1)))
    assert lat.batch_size == 65
    assert np.isfinite(lat.p95) and lat.p95 >= lat.p50 > 0


@pytest.mark.parametrize("entry", [
    lambda m, X: m.forward(X, mode="infer"),
    lambda m, X: m.forward(X, mode="train", rng=np.random.default_rng(0)),
    TR.predict_logits,
    TR.measure_inference,
], ids=["forward_infer", "forward_train", "predict_logits", "measure_inference"])
def test_empty_batch_is_a_shape_error_naming_the_shape(entry):
    model = build_model(SMALL_CFG, np.random.default_rng(9))
    with pytest.raises(ShapeError, match=re.escape("got (0, 12, 1)")):
        entry(model, np.zeros((0, 12, 1)))
