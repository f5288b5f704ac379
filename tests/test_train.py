import re
import tracemalloc

import numpy as np
import pytest

from seqids import data as D
from seqids import tensor as T
from seqids import train as TR
from seqids.errors import ConfigError, ContractError, ShapeError
from seqids.model import ModelConfig, build_model
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


def test_predict_logits_memory_does_not_grow_with_the_batch():
    model = build_model(SMALL_CFG, np.random.default_rng(13))
    X = np.random.default_rng(13).normal(size=(640, 12, 1))

    def peak(n):
        TR.predict_logits(model, X[:n], batch_size=640)  # untraced, so lazy caches are not counted
        tracemalloc.start()
        try:
            TR.predict_logits(model, X[:n], batch_size=640)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # one 640-row forward pass needs several MB above one of 64 rows
    logits = X[:640, :SMALL_CFG.num_classes, 0].nbytes
    assert peak(640) <= peak(64) + logits + 64 * 1024


# ---------------------------------------------------------------------------
# Inference timing

def test_measure_inference_positive_and_finite():
    model = build_model(SMALL_CFG, np.random.default_rng(6))
    batch = np.random.default_rng(6).normal(size=(8, 12, 1))
    lat = TR.measure_inference(model, batch, repetitions=10)
    assert lat.batch_size == 8
    assert np.isfinite(lat.p95) and lat.p95 >= lat.p50 > 0


def test_measure_inference_batching_amortizes():
    model = build_model(SMALL_CFG, np.random.default_rng(7))
    rng = np.random.default_rng(7)
    t1 = TR.measure_inference(model, rng.normal(size=(1, 12, 1)), repetitions=15)
    t64 = TR.measure_inference(model, rng.normal(size=(64, 12, 1)), repetitions=15)
    assert t64.p50 <= t1.p50


def test_measure_inference_times_a_batch_above_one_block():
    model = build_model(SMALL_CFG, np.random.default_rng(14))
    lat = TR.measure_inference(model, np.random.default_rng(14).normal(size=(65, 12, 1)),
                               repetitions=10)
    assert lat.batch_size == 65
    assert np.isfinite(lat.p95) and lat.p95 >= lat.p50 > 0


def test_measure_inference_requires_enough_repetitions():
    model = build_model(SMALL_CFG, np.random.default_rng(8))
    with pytest.raises(ContractError):
        TR.measure_inference(model, np.zeros((2, 12, 1)), repetitions=5)


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
