import dataclasses
import gc
import json
import tempfile
import weakref
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from seqids import checkpoint as ckpt
from seqids import layers as L
from seqids import tensor as T
from seqids import train as TR
from seqids.errors import ConfigError, ContractError, InputError, ShapeError
from seqids.model import Model, ModelConfig, build_model, table3_grid
from seqids.tensor import Tensor

TINY = ModelConfig(input_shape=(8, 1), num_classes=3, conv_filters=6, gru_units=4,
                   num_heads=2, key_dim=3, dense_units=(8, 4))


def grid_configs(**kw) -> dict[int, ModelConfig]:
    return {case_id: cfg for case_id, cfg, _ in table3_grid(**kw)}


def test_build_is_seed_deterministic():
    cfg = ModelConfig()
    m1 = build_model(cfg, np.random.default_rng(42))
    m2 = build_model(cfg, np.random.default_rng(42))
    assert m1.param_count() == m2.param_count()
    for (n1, t1), (n2, t2) in zip(m1.named_parameters().items(),
                                  m2.named_parameters().items()):
        assert n1 == n2
        assert np.array_equal(t1.data, t2.data)


def test_build_model_float32_is_the_float64_init_cast():
    # the weights are drawn in float64 and cast once; under filterwarnings =
    # error this also fails if a float32 cast overflows
    a64 = build_model(ModelConfig(), np.random.default_rng(5)).named_arrays()
    a32 = build_model(ModelConfig(), np.random.default_rng(5), "float32").named_arrays()
    assert list(a32) == list(a64)
    for name, t in a32.items():
        assert (a64[name].data.dtype, t.data.dtype) == (np.float64, np.float32), name
        assert t.data.tobytes() == a64[name].data.astype(np.float32).tobytes(), name


@pytest.mark.parametrize("dtype", ["float16", "int64", "bfloat16"])
def test_build_model_rejects_another_dtype(dtype):
    with pytest.raises(ConfigError, match=f"'float64' or 'float32', got '{dtype}'"):
        build_model(TINY, np.random.default_rng(0), dtype)


def test_float32_train_step_never_upcasts():
    # float64 input, as train feeds it: every record's output and backward
    # values, the loss, the gradients, Adam's moments and the updated arrays
    # (BatchNorm's running statistics included) stay float32
    f32 = np.dtype(np.float32)
    m = build_model(ModelConfig(), np.random.default_rng(7), "float32")
    X = np.random.default_rng(8).normal(size=(4, 60, 1))
    opt = TR.Adam(m.named_parameters())
    with T.Tape() as tape:
        loss = TR.cross_entropy_loss(m.forward(X, mode="train", rng=np.random.default_rng(9)),
                                     np.array([0, 1, 2, 5]))
    seen = []

    def watched(rule):
        def run(g):
            grads = rule(g)
            seen.extend([g, *(d for d in grads if d is not None)])
            return grads
        return run

    for rec in tape.records:
        rec.backward_fn = watched(rec.backward_fn)
    T.backward(loss, tape)
    assert opt.step() is None
    assert loss.data.dtype == f32 and len(seen) > len(tape.records)
    assert {rec.output.data.dtype for rec in tape.records} == {f32}
    assert {t.data.dtype for rec in tape.records for t in rec.inputs} == {f32}
    assert {a.dtype for a in seen} == {f32}
    assert {p.grad.dtype for p in m.named_parameters().values()} == {f32}
    assert {a.dtype for a in [*opt.m.values(), *opt.v.values()]} == {f32}
    assert {t.data.dtype for t in m.named_arrays().values()} == {f32}


def test_float32_logits_track_float64():
    # relative to the largest logit: elementwise, logits near 0 differ by more
    X = np.random.default_rng(8).normal(size=(32, 60, 1))
    l64, l32 = (build_model(ModelConfig(), np.random.default_rng(7), dtype).forward(X).data
                for dtype in ("float64", "float32"))
    assert (l64.dtype, l32.dtype) == (np.float64, np.float32)
    assert np.abs(l32 - l64).max() <= 1e-5 * np.abs(l64).max()
    np.testing.assert_array_equal(l32.argmax(axis=1), l64.argmax(axis=1))


@pytest.mark.parametrize("cfg", [ModelConfig(), ModelConfig(use_resnet_block=False)],
                         ids=["flagship", "no_residual"])
def test_forward_rejects_an_unknown_mode(cfg):
    # without the residual block no BatchNorm checks the mode; dropout would
    # have run in train mode, or asked for a generator
    m = build_model(cfg, np.random.default_rng(0))
    for rng in (None, np.random.default_rng(1)):
        with pytest.raises(ContractError, match="mode must be 'train' or 'infer', got 'eval'"):
            m.forward(np.zeros((2, 60, 1)), mode="eval", rng=rng)


def test_resnet_only_case_has_no_recurrent_or_attention_params():
    cases = grid_configs()
    m = build_model(cases[1], np.random.default_rng(0))
    names = set(m.named_parameters())
    assert not any(n.startswith(("gru", "mha", "lnorm")) for n in names)
    assert any(n.startswith("conv") for n in names)


def test_two_dense_case_has_one_fewer_hidden_layer():
    cases = grid_configs()
    assert cases[9].dense_units == (64,)
    assert cases[5].dense_units == (64, 32)
    m9 = build_model(cases[9], np.random.default_rng(0))
    m5 = build_model(cases[5], np.random.default_rng(0))
    assert len(m9.dense) == len(m5.dense) - 1


def test_grid_has_ten_cases():
    grid = table3_grid()
    assert len(grid) == 10
    assert [case_id for case_id, _, _ in grid] == list(range(1, 11))


def test_case6_differs_from_case5_only_in_heads():
    cases = grid_configs()
    assert cases[6].num_heads == 8 and cases[5].num_heads == 4
    assert dataclasses.replace(cases[6], num_heads=4) == cases[5]


def test_case10_differs_from_case5_only_in_smote():
    grid = {case_id: (cfg, use_smote) for case_id, cfg, use_smote in table3_grid()}
    assert grid[10] == (grid[5][0], False) and grid[5][1] is True
    assert [case_id for case_id, (_, use_smote) in grid.items() if not use_smote] == [10]


def test_case2_feeds_raw_input_to_bigru():
    cases = grid_configs()
    m = build_model(cases[2], np.random.default_rng(0))
    assert m.gru_fwd.W.shape == (1, 192)  # input width 1, no conv in front


def test_flagship_stage_shape_chain():
    # each stage is sized to the width the one before it emits: (60, 1) -> conv
    # (60, 64) -> BiGRU (60, 128) -> MHA (60, 128) -> 7680 -> 64 -> 32 -> 6
    m = build_model(ModelConfig(), np.random.default_rng(0))
    assert m.conv1.kernels.shape == (64, 1, 3) and m.shortcut.kernels.shape == (64, 1, 1)
    assert m.gru_fwd.W.shape == (64, 192) and m.lnorm.gamma.shape == (128,)
    assert m.mha.w_qkv.shape == (4, 128, 192) and m.mha.w_o.shape == (256, 128)
    assert [d.W.shape for d in m.dense] == [(64, 7680), (32, 64), (6, 32)]
    assert m.forward(np.zeros((2, 60, 1))).shape == (2, 6)


def test_forward_probability_rows_sum_to_one():
    # forward returns logits; predict_proba is their row-wise softmax
    rng = np.random.default_rng(1)
    m = build_model(TINY, rng)
    batch = rng.normal(size=(5, 8, 1))
    logits = m.forward(batch, mode="infer").data
    probs = TR.predict_proba(m, batch)
    assert logits.shape == probs.shape == (5, 3)
    np.testing.assert_allclose(probs.sum(axis=1), np.ones(5), atol=1e-12)
    assert np.all(probs > 0)
    e = np.exp(logits - logits.max(axis=1, keepdims=True))
    np.testing.assert_allclose(probs, e / e.sum(axis=1, keepdims=True), atol=1e-15)


def test_infer_mode_is_deterministic():
    rng = np.random.default_rng(2)
    m = build_model(TINY, rng)
    batch = rng.normal(size=(4, 8, 1))
    out1 = m.forward(batch, mode="infer").data
    out2 = m.forward(batch, mode="infer").data
    assert np.array_equal(out1, out2)


def test_train_mode_dropout_changes_output():
    rng = np.random.default_rng(3)
    m = build_model(TINY, rng)
    batch = rng.normal(size=(4, 8, 1))
    out1 = m.forward(batch, mode="train", rng=np.random.default_rng(10)).data
    out2 = m.forward(batch, mode="train", rng=np.random.default_rng(11)).data
    assert not np.array_equal(out1, out2)


def test_batch_forward_equals_stacked_single_samples():
    rng = np.random.default_rng(4)
    m = build_model(TINY, rng)
    batch = rng.normal(size=(6, 8, 1))
    full = m.forward(batch, mode="infer").data
    singles = np.concatenate(
        [m.forward(batch[i:i + 1], mode="infer").data for i in range(6)])
    np.testing.assert_allclose(full, singles, atol=1e-6)


def test_every_grid_config_forward_passes():
    rng = np.random.default_rng(5)
    for case_id, cfg in grid_configs(input_shape=(9, 1), num_classes=4).items():
        small = dataclasses.replace(cfg, conv_filters=5, gru_units=3, key_dim=4,
                                    dense_units=(6,) if cfg.dense_units == (64,) else (6, 5))
        m = build_model(small, np.random.default_rng(case_id))
        out = m.forward(rng.normal(size=(2, 9, 1)), mode="infer").data
        assert out.shape == (2, 4)
        assert np.all(np.isfinite(out))


def test_invalid_configs_rejected():
    with pytest.raises(ConfigError):
        build_model(ModelConfig(use_resnet_block=False, use_bigru=False),
                    np.random.default_rng(0))
    with pytest.raises(ConfigError):
        build_model(ModelConfig(num_classes=1), np.random.default_rng(0))
    with pytest.raises(ConfigError):
        build_model(ModelConfig(dropout_rate=1.0), np.random.default_rng(0))


@pytest.mark.parametrize("field, value", [
    ("conv_filters", 0), ("kernel_size", 0), ("gru_units", 0), ("dense_units", (0,)),
    ("dense_units", (16, 0)), ("bn_momentum", 2.0), ("bn_momentum", 1.0),
    ("bn_momentum", -0.1),
])
def test_out_of_range_size_or_momentum_is_rejected_naming_it(field, value):
    with pytest.raises(ConfigError, match=field):
        dataclasses.replace(ModelConfig(), **{field: value}).validate()


def test_forward_shape_mismatch():
    m = build_model(TINY, np.random.default_rng(6))
    with pytest.raises(ShapeError):
        m.forward(np.zeros((2, 9, 1)))


def test_config_round_trips_through_dict():
    cfg = ModelConfig(input_shape=(9, 1), num_classes=4, num_heads=2)
    assert ModelConfig.from_dict(cfg.to_dict()) == cfg


def test_config_from_dict_rejects_unknown_and_missing_keys():
    legacy = {**ModelConfig().to_dict(), "use_smote": True}
    with pytest.raises(ConfigError, match="use_smote"):
        ModelConfig.from_dict(legacy)
    partial = ModelConfig().to_dict()
    del partial["input_shape"]
    with pytest.raises(ConfigError, match="input_shape"):
        ModelConfig.from_dict(partial)


def test_flagship_named_arrays_cover_every_tensor_once():
    # 14 residual-block, 6 BiGRU, 2 LayerNorm, 2 attention and 6 dense arrays
    m = build_model(ModelConfig(), np.random.default_rng(0))
    arrays = m.named_arrays()
    assert len(arrays) == 30
    assert len({id(t) for t in arrays.values()}) == 30
    assert m.param_count() == 687718
    other = build_model(ModelConfig(), np.random.default_rng(1))
    assert list(arrays) == list(other.named_arrays())


# A flagship train step: residual block (conv, BN + ReLU, conv, BN, shortcut
# conv, add + ReLU), BiGRU, LayerNorm, MHA, dropout, one per Dense, the loss
GLUE_CONFIGS = {
    "flagship": (ModelConfig(), 14),
    "no_residual": (ModelConfig(use_resnet_block=False), 8),
    "no_bigru_no_mha": (ModelConfig(use_bigru=False, use_mha=False), 11),
}


@pytest.mark.parametrize("name, records", [(n, r) for n, (_, r) in GLUE_CONFIGS.items()])
def test_train_step_tape_records(name, records):
    m = build_model(GLUE_CONFIGS[name][0], np.random.default_rng(0))
    X = np.random.default_rng(1).normal(size=(4, 60, 1))
    with T.Tape() as tape:
        TR.cross_entropy_loss(m.forward(X, mode="train", rng=np.random.default_rng(2)),
                              np.arange(4))
    assert len(tape) == records


# A reference of the generic glue the model used to compose between its layers,
# with those ops' backward rules (same-shape add, ReLU, flatten): one record
# each, three more per flagship step than the glue folded into the layers.

def _ref_add(a, b):
    return T.register_op((a, b), a.data + b.data, lambda g: (g, g))


def _ref_relu(a):
    return T.register_op((a,), np.maximum(a.data, 0.0), lambda g: (g * (a.data > 0),))


def _ref_reshape(a, shape):
    return T.register_op((a,), a.data.reshape(shape), lambda g: (g.reshape(a.shape),))


def _reference_forward(m, x, mode, rng=None):
    if m.cfg.use_resnet_block:
        y = _ref_relu(L.batchnorm_forward(L.conv1d_forward(x, m.conv1), m.bn1, mode))
        y = L.batchnorm_forward(L.conv1d_forward(y, m.conv2), m.bn2, mode)
        y = _ref_relu(_ref_add(y, L.conv1d_forward(x, m.shortcut)))
    else:
        y = x
    if m.cfg.use_bigru:
        y = L.layernorm_forward(L.bigru_forward(y, m.gru_fwd, m.gru_bwd), m.lnorm)
    if m.cfg.use_mha:
        y = L.multi_head_attention(y, m.mha)
    y = L.dropout_forward(y, m.cfg.dropout_rate, mode, rng)
    y = _ref_reshape(y, (y.shape[0], y.shape[1] * y.shape[2]))
    for d in m.dense:
        y = L.dense_forward(y, d)
    return y


@pytest.mark.parametrize("name", GLUE_CONFIGS)
def test_fused_glue_is_bit_identical_to_the_generic_ops(name):
    cfg, records = GLUE_CONFIGS[name]
    X = np.random.default_rng(1).normal(size=(3, 60, 1))
    runs = []
    for forward in (Model.forward, _reference_forward):
        m = build_model(cfg, np.random.default_rng(0))
        infer = forward(m, Tensor(X), "infer").data
        x = Tensor(X, requires_grad=True)
        with T.Tape() as tape:
            logits = forward(m, x, "train", np.random.default_rng(2))
            loss = TR.cross_entropy_loss(logits, np.arange(3))
        T.backward(loss, tape)
        params = m.named_parameters()
        arrays = [infer, logits.data, x.grad] + [p.grad for p in params.values()]
        TR.Adam(params).step()
        arrays += [t.data for t in m.named_arrays().values()]  # trained weights, BN stats
        runs.append(([a.tobytes() for a in arrays], len(tape)))
    (fused, fused_records), (reference, reference_records) = runs
    assert len(fused) == len(reference)
    for i, (got, want) in enumerate(zip(fused, reference)):
        assert got == want, i
    assert (fused_records, reference_records) == (records, records + 1 + 2 * cfg.use_resnet_block)


def test_named_arrays_keeps_no_model_alive():
    # without the cycle collector, a model's arrays must be freed as soon as
    # the last reference to it goes, also after named_arrays() has run
    m = build_model(TINY, np.random.default_rng(11))
    weight = weakref.ref(m.dense[0].W.data)
    gc.disable()
    try:
        m.named_arrays()
        del m
        assert weight() is None
    finally:
        gc.enable()


def test_checkpoint_with_old_array_names_is_rejected():
    # attention weights used to be stored per head, as mha.w_q{h} and, before
    # that, mha.head{h}.w_q
    m = build_model(TINY, np.random.default_rng(9))
    kept = {n: t.data for n, t in m.named_arrays().items() if n != "mha.w_qkv"}
    for old_name in ("mha.w_{}{}", "mha.head{1}.w_{0}"):
        old = dict(kept)
        for h, w in enumerate(m.mha.w_qkv.data):
            for block, q in zip(np.split(w, 3, axis=1), "qkv"):
                old[old_name.format(q, h)] = block
        with pytest.raises(ConfigError, match="missing arrays"):
            build_model(TINY, np.random.default_rng(10)).load_arrays(old)


def test_checkpoint_with_per_gate_gru_names_is_rejected():
    # the GRU used to store one W, U and b per gate, named gru_fwd.update.W
    m = build_model(TINY, np.random.default_rng(9))
    old = {n: t.data for n, t in m.named_arrays().items() if not n.startswith("gru_")}
    hid = TINY.gru_units
    for d in ("gru_fwd", "gru_bwd"):
        for i, gate in enumerate(("update", "reset", "candidate")):
            cols = slice(i * hid, (i + 1) * hid)
            old[f"{d}.{gate}.W"] = getattr(m, d).W.data[:, cols].T
            old[f"{d}.{gate}.U"] = getattr(m, d).U.data[:, cols].T
            old[f"{d}.{gate}.b"] = getattr(m, d).b.data[cols]
    with pytest.raises(ConfigError, match="missing arrays"):
        build_model(TINY, np.random.default_rng(10)).load_arrays(old)


def test_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(7)
    m = build_model(TINY, rng)
    arrays = {n: t.data for n, t in m.named_arrays().items()}
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(path, arrays, {"config": TINY.to_dict(), "note": "round trip"})
    loaded, meta = ckpt.load_checkpoint(path)
    assert meta["note"] == "round trip"
    m2 = build_model(ModelConfig.from_dict(meta["config"]), np.random.default_rng(99))
    m2.load_arrays(loaded)
    batch = rng.normal(size=(3, 8, 1))
    np.testing.assert_array_equal(m.forward(batch).data, m2.forward(batch).data)


def with_header(edit):
    """A corruption that replaces the checkpoint header by ``edit(header)``."""
    def corrupt(raw, hlen):
        header = json.dumps(edit(json.loads(raw[16:16 + hlen]))).encode()
        return raw[:8] + len(header).to_bytes(8, "little") + header + raw[16 + hlen:]
    return corrupt


def with_entry(**changes):
    """A corruption that changes the header's first array entry."""
    return with_header(
        lambda h: {**h, "arrays": [{**h["arrays"][0], **changes}] + h["arrays"][1:]})


@pytest.mark.parametrize("corrupt,message", [
    (lambda raw, hlen: raw[:30], "header runs past the end"),
    (lambda raw, hlen: raw[:16] + b"x" * hlen + raw[16 + hlen:], "header is not valid JSON"),
    (lambda raw, hlen: raw[:-8], "payload holds 9 values, its arrays need 10"),
    (with_header(lambda h: {k: v for k, v in h.items() if k != "dtype"}), "KeyError.*'dtype'"),
    (with_header(lambda h: [h]), "malformed checkpoint header: TypeError"),
    (with_header(lambda h: {**h, "format_version": 2}), "unsupported format_version 2"),
    (with_header(lambda h: {**h, "dtype": "object"}), "dtype object"),
    (with_header(lambda h: {**h, "meta": []}), "meta type list"),
    (with_entry(count=5), r"bad entries \[.*'count': 5"),
    (with_entry(shape=None), "malformed checkpoint header: TypeError"),
    (with_entry(shape=[-1, -6]), r"bad entries \[.*'shape': \[-1, -6\]"),
], ids=["header_past_end", "header_not_json", "payload_short", "no_dtype", "header_list",
        "format_version", "object_dtype", "meta_not_object", "count_off_shape", "no_shape",
        "negative_shape"])
def test_corrupt_checkpoint_raises_input_error_naming_the_file(tmp_path, corrupt, message):
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(path, {"a": np.arange(6.0), "b": np.ones((2, 2))}, {"k": 1})
    raw = path.read_bytes()
    path.write_bytes(corrupt(raw, int.from_bytes(raw[8:16], "little")))
    with pytest.raises(InputError, match=message) as info:
        ckpt.load_checkpoint(path)
    assert str(path) in str(info.value)


class FailingPayloadFile:
    """A binary file whose writes fail after the magic, the header length
    and the header: the first payload write raises."""

    def __init__(self, path, mode):
        self.fh = open(path, mode)
        self.writes = 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.writes += 1
        if self.writes > 3:
            raise OSError("no space left on device")
        return self.fh.write(data)


def test_failed_checkpoint_write_keeps_the_old_file(tmp_path, monkeypatch):
    path = tmp_path / "model.ckpt"
    ckpt.save_checkpoint(path, {"a": np.arange(6.0)}, {"k": 1})
    before = path.read_bytes()
    monkeypatch.setattr(ckpt, "open", FailingPayloadFile, raising=False)
    with pytest.raises(OSError, match="no space left"):
        ckpt.save_checkpoint(path, {"a": np.ones(6), "b": np.zeros(3)}, {"k": 2})
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]


@settings(max_examples=30, deadline=None)
@given(dtype=st.sampled_from(["float64", "float32", "int64", "int32", "uint8", "bool"]),
       data=st.data())
def test_checkpoint_round_trip_property(dtype, data):
    shapes = hnp.array_shapes(min_dims=0, max_dims=3, min_side=0, max_side=4)
    arrays = data.draw(st.dictionaries(st.text(max_size=8), hnp.arrays(dtype, shapes),
                                       max_size=4))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "c.ckpt"
        ckpt.save_checkpoint(path, arrays, {"k": [1, "x"]})
        loaded, meta = ckpt.load_checkpoint(path)
    assert meta == {"k": [1, "x"]}
    assert list(loaded) == list(arrays)
    for name, a in arrays.items():
        assert (loaded[name].dtype, loaded[name].shape) == (a.dtype, a.shape)
        assert loaded[name].tobytes() == a.tobytes()


def test_checkpoint_bytes_are_deterministic(tmp_path):
    rng = np.random.default_rng(8)
    arrays = {"a": rng.normal(size=(3, 2)), "b": rng.normal(size=5)}
    p1, p2 = tmp_path / "c1.ckpt", tmp_path / "c2.ckpt"
    ckpt.save_checkpoint(p1, arrays, {"k": 1})
    ckpt.save_checkpoint(p2, arrays, {"k": 1})
    assert p1.read_bytes() == p2.read_bytes()


def test_arch_names():
    cases = grid_configs()
    assert cases[1].arch_name == "ResNet-1D"
    assert cases[2].arch_name == "BiGRU-MHA"
    assert cases[3].arch_name == "ResNet-1D-BiGRU"
    assert cases[5].arch_name == "ResNet-1D-BiGRU-MHA"
