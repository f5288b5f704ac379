import contextlib
import dataclasses
import math
import re
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import as_strided
from hypothesis import given, settings
from hypothesis import strategies as st

from seqids import layers as L
from seqids import tensor as T
from seqids.errors import ContractError, ShapeError
from seqids.tensor import Tensor, grad_check_all
from tape_ops import product_sum


def cast_params(p, dtype):
    """``p`` with the array of each of its ``Tensor`` fields cast to ``dtype``."""
    for f in dataclasses.fields(p):
        t = getattr(p, f.name)
        if isinstance(t, Tensor):
            t.data = t.data.astype(dtype)
    return p


def sdpa_brute_force(q, k, v):
    """Double-loop reference: softmax(q k^T / sqrt(d)) v, computed row by row."""
    tq, d = q.shape
    tk, dv = v.shape[0], v.shape[1]
    out = np.zeros((tq, dv))
    for i in range(tq):
        scores = np.zeros(tk)
        for j in range(tk):
            scores[j] = np.dot(q[i], k[j]) / np.sqrt(d)
        e = np.exp(scores - scores.max())
        w = e / e.sum()
        for j in range(tk):
            out[i] += w[j] * v[j]
    return out


# ---------------------------------------------------------------------------
# Conv1D

def test_conv1d_one_by_one_identity():
    p = L.Conv1DParams(kernels=Tensor(np.ones((1, 1, 1)), requires_grad=True),
                       bias=Tensor(np.zeros(1), requires_grad=True))
    x = Tensor(np.array([[[1.0], [2.0], [3.0]]]))
    np.testing.assert_allclose(L.conv1d_forward(x, p).data, x.data)


def test_conv1d_hand_cross_correlation_same():
    # one zero pads each end: out[t] = x[t-1]*k[0] + x[t]*k[1] + x[t+1]*k[2]
    # = x[t-1] - x[t+1] over [0, 1, 2, 3, 4, 0] -> [-2, -2, -2, 3], plus bias 0.5
    p = L.Conv1DParams(kernels=Tensor(np.array([[[1.0, 0.0, -1.0]]])),
                       bias=Tensor(np.array([0.5])))
    x = Tensor(np.array([[[1.0], [2.0], [3.0], [4.0]]]))
    np.testing.assert_allclose(L.conv1d_forward(x, p).data, [[[-1.5], [-1.5], [-1.5], [3.5]]])


def test_conv1d_same_padding_preserves_length():
    rng = np.random.default_rng(0)
    p = L.init_conv1d(rng, in_channels=2, out_channels=5, kernel_size=3)
    x = Tensor(rng.normal(size=(2, 7, 2)))
    assert L.conv1d_forward(x, p).shape == (2, 7, 5)


def conv1d_pad_reference(x, kernels, bias):
    """The forward pass the layer had before it built its padded input
    itself: ``np.pad`` for every kernel size, then the same im2col GEMM."""
    batch, t_len, c_in = x.shape
    c_out, _, k = kernels.shape
    pad_left = (k - 1) // 2
    xp = np.pad(x, ((0, 0), (pad_left, k - 1 - pad_left), (0, 0)))
    s0, s1, s2 = xp.strides
    cols = as_strided(xp, (batch, t_len, k, c_in), (s0, s1, s1, s2)).reshape(batch * t_len, -1)
    return (cols @ kernels.transpose(2, 1, 0).reshape(k * c_in, c_out) + bias).reshape(
        batch, t_len, c_out)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("shape,c_out", [((1, 60, 1), 64), ((3, 60, 64), 64), ((2, 7, 3), 5)])
def test_conv1d_is_byte_equal_to_the_np_pad_reference(k, shape, c_out):
    rng = np.random.default_rng(k)
    p = L.init_conv1d(rng, shape[-1], c_out, k)
    p.bias.data = rng.normal(size=c_out)
    x = rng.normal(size=shape)
    want = conv1d_pad_reference(x, p.kernels.data, p.bias.data)
    assert L.conv1d_forward(Tensor(x), p).data.tobytes() == want.tobytes()


def test_conv1d_channel_mismatch():
    rng = np.random.default_rng(1)
    p = L.init_conv1d(rng, in_channels=3, out_channels=4)
    with pytest.raises(ShapeError):
        L.conv1d_forward(Tensor(np.zeros((1, 5, 2))), p)


def test_conv1d_gradients():
    rng = np.random.default_rng(2)
    p = L.init_conv1d(rng, in_channels=2, out_channels=3, kernel_size=3)
    x = Tensor(rng.normal(size=(2, 6, 2)), requires_grad=True)
    err = grad_check_all(
        lambda: product_sum(L.conv1d_forward(x, p), L.conv1d_forward(x, p)),
        [x, p.kernels, p.bias], h=1e-6)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# BatchNorm

def test_batchnorm_train_normalizes_per_channel():
    rng = np.random.default_rng(4)
    p = L.init_batchnorm(rng, channels=3)
    x = Tensor(rng.normal(loc=5.0, scale=2.0, size=(4, 6, 3)))
    out = L.batchnorm_forward(x, p, mode="train").data
    np.testing.assert_allclose(out.mean(axis=(0, 1)), np.zeros(3), atol=1e-5)
    np.testing.assert_allclose(out.var(axis=(0, 1)), np.ones(3), atol=2e-3)


def test_batchnorm_constant_channel_is_zeroed_without_nan():
    rng = np.random.default_rng(5)
    p = L.init_batchnorm(rng, channels=2)
    x = Tensor(np.full((3, 4, 2), 7.0))
    out = L.batchnorm_forward(x, p, mode="train").data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, np.zeros_like(out))


def test_batchnorm_infer_matches_hand_formula():
    p = L.init_batchnorm(np.random.default_rng(6), channels=2)
    p.gamma.data = np.array([2.0, 0.5])
    p.beta.data = np.array([1.0, -1.0])
    p.running_mean.data = np.array([3.0, -2.0])
    p.running_var.data = np.array([4.0, 9.0])
    x = np.array([[[5.0, 1.0], [3.0, -2.0]]])
    out = L.batchnorm_forward(Tensor(x), p, mode="infer").data
    expected = (x - p.running_mean.data) / np.sqrt(p.running_var.data + 1e-3) \
        * p.gamma.data + p.beta.data
    np.testing.assert_allclose(out, expected)


def test_batchnorm_single_element_train_is_contract_error():
    p = L.init_batchnorm(np.random.default_rng(7), channels=2)
    with pytest.raises(ContractError):
        L.batchnorm_forward(Tensor(np.zeros((1, 1, 2))), p, mode="train")


def test_batchnorm_identical_constant_samples_give_zero_before_scale_shift():
    # statistics pool over batch and time, so "identical" means constant
    # along both; gamma=1, beta=0 at init exposes the raw normalization
    rng = np.random.default_rng(8)
    p = L.init_batchnorm(rng, channels=3)
    row = np.tile(rng.normal(size=(1, 1, 3)), (4, 5, 1))
    out = L.batchnorm_forward(Tensor(row), p, mode="train").data
    np.testing.assert_allclose(out, np.zeros_like(out), atol=1e-6)


def test_batchnorm_gradients_both_modes():
    rng = np.random.default_rng(9)
    p = L.init_batchnorm(rng, channels=2)
    p.running_mean.data = rng.normal(size=2)
    p.running_var.data = np.abs(rng.normal(size=2)) + 0.5
    x = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
    for mode in ("train", "infer"):
        err = grad_check_all(
            lambda m=mode: product_sum(L.batchnorm_forward(x, p, m),
                                       L.batchnorm_forward(x, p, m)),
            [x, p.gamma, p.beta], h=1e-6)
        assert err < 1e-5, mode


def test_batchnorm_updates_running_stats_with_momentum():
    p = L.init_batchnorm(np.random.default_rng(10), channels=1, momentum=0.9)
    x = Tensor(np.arange(8, dtype=float).reshape(2, 4, 1))
    L.batchnorm_forward(x, p, mode="train")
    np.testing.assert_allclose(p.running_mean.data, [0.9 * 0.0 + 0.1 * 3.5])
    np.testing.assert_allclose(p.running_var.data, [0.9 * 1.0 + 0.1 * x.data.var()])


@pytest.mark.parametrize("mode", ["train", "infer"])
def test_batchnorm_relu_is_the_relu_of_batchnorm_in_one_record(mode):
    rng = np.random.default_rng(40)
    p = L.init_batchnorm(rng, channels=3)
    p.running_mean.data, p.running_var.data = rng.normal(size=3), rng.uniform(0.5, 2.0, size=3)
    x = Tensor(rng.normal(size=(2, 5, 3)), requires_grad=True)
    plain = L.batchnorm_forward(x, p, mode).data
    assert (plain < 0).any() and (plain > 0).any()
    with T.Tape() as tape:
        out = L.batchnorm_forward(x, p, mode, relu=True)
    assert len(tape) == 1
    assert out.data.tobytes() == np.maximum(plain, 0.0).tobytes()


def test_batchnorm_relu_gradients_both_modes():
    rng = np.random.default_rng(41)
    p = L.init_batchnorm(rng, channels=2)
    p.gamma.data, p.beta.data = rng.uniform(0.5, 2.0, size=2), rng.normal(size=2)
    p.running_mean.data = rng.normal(size=2)
    p.running_var.data = np.abs(rng.normal(size=2)) + 0.5
    x = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
    # random output weights: a squared output would zero the gradient of
    # every element the ReLU clips, hiding a missing mask
    c = Tensor(rng.normal(size=(2, 4, 2)))
    for mode in ("train", "infer"):
        pre = L.batchnorm_forward(x, p, mode).data  # train mode ignores the running stats
        assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3, mode
        err = grad_check_all(
            lambda m=mode: product_sum(L.batchnorm_forward(x, p, m, relu=True), c),
            [x, p.gamma, p.beta], h=1e-6)
        assert err < 1e-5, mode


# ---------------------------------------------------------------------------
# Residual join

def test_residual_relu_is_the_relu_of_the_sum_in_one_record():
    rng = np.random.default_rng(42)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4)))
    with T.Tape() as tape:
        out = L.residual_relu(a, b)
    assert len(tape) == 1
    assert out.data.tobytes() == np.maximum(a.data + b.data, 0.0).tobytes()


def test_residual_relu_rejects_different_shapes_naming_them():
    # no broadcasting: a (B, T, 1) shortcut against (B, T, F) is a wiring fault
    with pytest.raises(ShapeError, match=re.escape("(2, 3, 4) and (2, 3, 1)")):
        L.residual_relu(Tensor(np.zeros((2, 3, 4))), Tensor(np.zeros((2, 3, 1))))


def test_residual_relu_gradients_over_both_inputs():
    rng = np.random.default_rng(43)
    a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    b = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
    s = a.data + b.data
    a.data += np.where(np.abs(s) < 0.1, 0.2 * np.sign(s), 0.0)  # off the kink
    s = a.data + b.data
    assert (s > 0).any() and (s < 0).any() and np.abs(s).min() > 1e-3
    c = Tensor(rng.normal(size=(2, 3, 4)))
    assert grad_check_all(lambda: product_sum(L.residual_relu(a, b), c), [a, b], h=1e-6) < 1e-5
    # the rule returns one array for both inputs; each .grad is its own copy
    assert a.grad is not b.grad and a.grad.tobytes() == b.grad.tobytes()
    a.grad += 1.0
    assert not np.array_equal(a.grad, b.grad)


# ---------------------------------------------------------------------------
# GRU / BiGRU

def gru_reference(x, p, reverse=False):
    """Step-by-step numpy GRU from the documented equations. x: (B, T, F)."""
    hid = p.U.shape[0]

    def blocks(m):
        return m[..., :hid], m[..., hid:2 * hid], m[..., 2 * hid:]

    (wz, wr, wc), (uz, ur, uc), (bz, br, bc) = blocks(p.W.data), blocks(p.U.data), blocks(p.b.data)
    sigmoid = lambda v: 1.0 / (1.0 + np.exp(-v))
    h = np.zeros((x.shape[0], hid))
    out = np.zeros(x.shape[:2] + (hid,))
    for t in (range(x.shape[1] - 1, -1, -1) if reverse else range(x.shape[1])):
        z = sigmoid(x[:, t] @ wz + h @ uz + bz)
        r = sigmoid(x[:, t] @ wr + h @ ur + br)
        cand = np.tanh(x[:, t] @ wc + (r * h) @ uc + bc)
        h = (1.0 - z) * h + z * cand
        out[:, t] = h
    return out


def random_gru(rng, input_size, hidden_size):
    p = L.init_gru(rng, input_size, hidden_size)
    p.b.data = rng.normal(size=p.b.shape)  # exercise the biases too
    return p


def test_init_gru_packs_three_blocks_with_per_gate_glorot_bounds():
    p = L.init_gru(np.random.default_rng(11), input_size=4, hidden_size=5)
    assert (p.W.shape, p.U.shape, p.b.shape) == ((4, 15), (5, 15), (15,))
    assert np.abs(p.W.data).max() <= np.sqrt(6.0 / (4 + 5))
    assert np.abs(p.U.data).max() <= np.sqrt(6.0 / (5 + 5))
    np.testing.assert_array_equal(p.b.data, np.zeros(15))


def test_bigru_matches_numpy_reference():
    rng = np.random.default_rng(12)
    fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
    x = rng.normal(size=(2, 6, 3))
    expect = np.concatenate([gru_reference(x, fwd), gru_reference(x, bwd, reverse=True)], axis=2)
    out = L.bigru_forward(Tensor(x), fwd, bwd).data
    np.testing.assert_allclose(out, expect, rtol=0, atol=1e-12)
    one = L.bigru_forward(Tensor(x[1:]), fwd, bwd).data
    np.testing.assert_allclose(one, expect[1:], rtol=0, atol=1e-12)


def test_gru_zero_weights_halve_hidden_state():
    # with U = 0 and zero update weights and bias, z = sigmoid(0) = 0.5; a
    # zero input then gives the candidate tanh(0) = 0, so each step halves h
    p = L.GRUParams(W=Tensor(np.zeros((1, 3))), U=Tensor(np.zeros((1, 3))),
                    b=Tensor(np.zeros(3)))
    p.W.data[0, 2] = 1.0  # candidate reads the input
    x = np.array([[[0.8], [0.0], [0.0]]])
    out = L.bigru_forward(Tensor(x), p, p).data[0, :, 0]
    h1 = 0.5 * np.tanh(0.8)
    np.testing.assert_allclose(out, [h1, 0.5 * h1, 0.25 * h1])


def test_gru_gates_stay_in_unit_interval():
    # the scan leaves the z | r and candidate activations in its input
    # buffers, time-major (T, direction, B, ·), for both directions at once
    rng = np.random.default_rng(13)
    dirs = [random_gru(rng, 4, 5) for _ in range(2)]
    x = rng.normal(size=(8, 2, 3, 4)) * 3
    a = np.stack([x[:, d] @ p.W.data + p.b.data for d, p in enumerate(dirs)], axis=1)
    zr, cand = a[..., :10].copy(), a[..., 10:].copy()
    hs = np.empty((8, 2, 3, 5))
    L._gru_scan(zr, cand, np.stack([p.U.data for p in dirs]), hs)
    assert np.all((zr > 0) & (zr < 1))
    assert np.all(np.abs(cand) < 1.0)
    assert np.all(np.abs(hs) < 1.0)


def per_direction_scan(a, u, hs):
    """One direction of the scan the layer had before both shared one
    time-major loop, in place over (B, T, ·) views in its own time order."""
    hid = u.shape[0]
    u_zr, u_c = u[:, :2 * hid], u[:, 2 * hid:]
    h = np.zeros_like(hs[:, 0])
    with np.errstate(over="ignore"):
        for t in range(a.shape[1]):
            zr, c = a[:, t, :2 * hid], a[:, t, 2 * hid:]
            zr[...] = 1.0 / (1.0 + np.exp(-(zr + h @ u_zr)))
            c[...] = np.tanh(c + (zr[:, hid:] * h) @ u_c)
            hs[:, t] = h + zr[:, :hid] * (c - h)
            h = hs[:, t]


def per_direction_bptt(a, u, hs, dhs):
    """BPTT of one ``per_direction_scan``: the pre-activation gradient and dU."""
    hid = u.shape[0]
    u_zr, u_c = u[:, :2 * hid], u[:, 2 * hid:]
    h_prev = np.concatenate([np.zeros_like(hs[:, :1]), hs[:, :-1]], axis=1)
    da = np.empty_like(a)
    dh = np.zeros_like(hs[:, 0])
    for t in range(a.shape[1] - 1, -1, -1):
        z, r, c = a[:, t, :hid], a[:, t, hid:2 * hid], a[:, t, 2 * hid:]
        hp = h_prev[:, t]
        dh = dh + dhs[:, t]
        da[:, t, 2 * hid:] = dh * z * (1.0 - c * c)
        drh = da[:, t, 2 * hid:] @ u_c.T
        da[:, t, :hid] = dh * (c - hp) * z * (1.0 - z)
        da[:, t, hid:2 * hid] = drh * hp * r * (1.0 - r)
        dh = dh * (1.0 - z) + drh * r + da[:, t, :2 * hid] @ u_zr.T
    rh = h_prev * a[..., hid:2 * hid]
    du_zr = h_prev.reshape(-1, hid).T @ da[..., :2 * hid].reshape(-1, 2 * hid)
    du_c = rh.reshape(-1, hid).T @ da[..., 2 * hid:].reshape(-1, hid)
    return da, np.concatenate([du_zr, du_c], axis=1)


def per_direction_bigru(x, fwd, bwd, g=None):
    """Output of the BiGRU with one scan per direction, and, given the output
    gradient ``g``, its gradients for (x, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b)."""
    hid = fwd.U.shape[0]
    batch, t_len, feat = x.shape
    x2 = x.reshape(-1, feat)
    out = np.empty((batch, t_len, 2 * hid))
    dirs = ((fwd, slice(None, hid), slice(None)), (bwd, slice(hid, None), slice(None, None, -1)))
    acts = []
    for p, half, order in dirs:
        a = (x2 @ p.W.data + p.b.data).reshape(batch, t_len, 3 * hid)
        per_direction_scan(a[:, order], p.U.data, out[:, order, half])
        acts.append(a)
    if g is None:
        return out, None
    dx, grads = np.zeros_like(x2), []
    for (p, half, order), a in zip(dirs, acts):
        da, du = per_direction_bptt(a[:, order], p.U.data, out[:, order, half], g[:, order, half])
        da = da[:, order].reshape(-1, 3 * hid)
        dx += da @ p.W.data.T
        grads += [x2.T @ da, du, da.sum(axis=0)]
    return out, [dx.reshape(x.shape)] + grads


@settings(max_examples=60, deadline=None)
@given(batch=st.integers(1, 6), t_len=st.integers(1, 9), feat=st.integers(1, 5),
       hid=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_bigru_matches_the_per_direction_scan(batch, t_len, feat, hid, seed):
    rng = np.random.default_rng(seed)
    fwd, bwd = random_gru(rng, feat, hid), random_gru(rng, feat, hid)
    x, g = rng.normal(size=(batch, t_len, feat)), rng.normal(size=(batch, t_len, 2 * hid))
    want_out, want_grads = per_direction_bigru(x, fwd, bwd, g)
    with T.Tape() as tape:
        out = L.bigru_forward(Tensor(x, requires_grad=True), fwd, bwd)
    np.testing.assert_allclose(out.data, want_out, rtol=1e-15,
                               atol=1e-15 * np.abs(want_out).max())
    for got, want in zip(tape.records[0].backward_fn(g), want_grads, strict=True):
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


@pytest.mark.parametrize("batch", [1, 56, 128])
def test_bigru_output_is_byte_equal_to_the_per_direction_scan_at_the_flagship_size(batch):
    # 60 steps, 64 input features (the conv filters), 64 units per direction
    rng = np.random.default_rng(batch)
    fwd, bwd = random_gru(rng, 64, 64), random_gru(rng, 64, 64)
    x = rng.normal(size=(batch, 60, 64))
    want, _ = per_direction_bigru(x, fwd, bwd)
    assert L.bigru_forward(Tensor(x), fwd, bwd).data.tobytes() == want.tobytes()


def test_gru_dimension_mismatch():
    p = L.init_gru(np.random.default_rng(13), input_size=3, hidden_size=4)
    with pytest.raises(ShapeError):
        L.bigru_forward(Tensor(np.zeros((1, 5, 2))), p, p)
    wide = L.GRUParams(W=Tensor(np.zeros((3, 15))), U=p.U, b=p.b)
    short_bias = L.GRUParams(W=p.W, U=p.U, b=Tensor(np.zeros(4)))
    for bad in (wide, short_bias):
        with pytest.raises(ShapeError):
            L.bigru_forward(Tensor(np.zeros((1, 5, 3))), p, bad)


def test_bigru_single_step_reduces_to_two_cells():
    rng = np.random.default_rng(14)
    fwd, bwd = random_gru(rng, 3, 4), random_gru(rng, 3, 4)
    x1 = rng.normal(size=(1, 1, 3))
    out = L.bigru_forward(Tensor(x1), fwd, bwd)
    expect = np.concatenate([gru_reference(x1, fwd), gru_reference(x1, bwd)], axis=2)
    np.testing.assert_allclose(out.data, expect, rtol=0, atol=1e-12)


def test_bigru_backward_half_equals_forward_on_reversed_input():
    rng = np.random.default_rng(15)
    a = L.init_gru(rng, 2, 3)
    b = L.init_gru(rng, 2, 3)
    x = rng.normal(size=(2, 5, 2))
    out = L.bigru_forward(Tensor(x), a, b).data
    out_rev = L.bigru_forward(Tensor(x[:, ::-1].copy()), b, a).data
    # the backward half over x equals the time-reversed forward half over reversed x
    np.testing.assert_allclose(out[..., 3:], out_rev[:, ::-1, :3], atol=1e-12)


def test_bigru_hidden_size_mismatch():
    rng = np.random.default_rng(16)
    with pytest.raises(ContractError):
        L.bigru_forward(Tensor(np.zeros((1, 4, 2))), L.init_gru(rng, 2, 3), L.init_gru(rng, 2, 5))


def test_bigru_reference_output_shape():
    rng = np.random.default_rng(17)
    fwd = L.init_gru(rng, 1, 64)
    bwd = L.init_gru(rng, 1, 64)
    out = L.bigru_forward(Tensor(rng.normal(size=(2, 60, 1))), fwd, bwd)
    assert out.shape == (2, 60, 128)


def test_bigru_gradients():
    rng = np.random.default_rng(18)
    fwd, bwd = random_gru(rng, 2, 3), random_gru(rng, 2, 3)
    x = Tensor(rng.normal(size=(2, 4, 2)), requires_grad=True)
    checked = [x, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b]
    err = grad_check_all(
        lambda: product_sum(L.bigru_forward(x, fwd, bwd), L.bigru_forward(x, fwd, bwd)),
        checked, h=1e-6)
    assert err < 1e-5


@pytest.mark.parametrize("t_len", [1, 5, 17])
def test_bigru_is_one_tape_record_for_any_length(t_len):
    rng = np.random.default_rng(19)
    fwd, bwd = L.init_gru(rng, 2, 3), L.init_gru(rng, 2, 3)
    x = Tensor(rng.normal(size=(2, t_len, 2)), requires_grad=True)
    with T.Tape() as tape:
        L.bigru_forward(x, fwd, bwd)
    assert len(tape) == 1


def test_bigru_keeps_the_input_dtype():
    rng = np.random.default_rng(20)
    fwd, bwd = (cast_params(L.init_gru(rng, 2, 3), np.float32) for _ in range(2))
    x = Tensor(rng.normal(size=(2, 4, 2)).astype(np.float32), requires_grad=True)
    with T.Tape() as tape:
        out = L.bigru_forward(x, fwd, bwd)
        loss = product_sum(out, Tensor(np.ones(out.shape, dtype=np.float32)))
    T.backward(loss, tape)
    assert out.data.dtype == np.float32
    assert x.grad.dtype == fwd.U.grad.dtype == np.float32


# ---------------------------------------------------------------------------
# LayerNorm

def test_layernorm_rows_normalized():
    rng = np.random.default_rng(19)
    p = L.init_layernorm(rng, features=6)
    x = Tensor(rng.normal(loc=3.0, scale=4.0, size=(5, 6)))
    out = L.layernorm_forward(x, p).data
    np.testing.assert_allclose(out.mean(axis=-1), np.zeros(5), atol=1e-6)
    np.testing.assert_allclose(out.var(axis=-1), np.ones(5), atol=1e-3)


def test_layernorm_constant_row_is_zero():
    p = L.init_layernorm(np.random.default_rng(20), features=4)
    out = L.layernorm_forward(Tensor(np.full((2, 4), 9.0)), p).data
    assert np.all(np.isfinite(out))
    np.testing.assert_allclose(out, np.zeros_like(out))


def test_layernorm_affine_input_invariance():
    rng = np.random.default_rng(21)
    p = L.init_layernorm(rng, features=8)
    x = rng.normal(size=(4, 8))
    base = L.layernorm_forward(Tensor(x), p).data
    scaled = L.layernorm_forward(Tensor(3.0 * x + 11.0), p).data
    # equality is exact only up to the epsilon variance floor
    np.testing.assert_allclose(scaled, base, atol=1e-4)


def test_layernorm_gradients():
    rng = np.random.default_rng(22)
    p = L.init_layernorm(rng, features=5)
    x = Tensor(rng.normal(size=(2, 3, 5)), requires_grad=True)
    err = grad_check_all(
        lambda: product_sum(L.layernorm_forward(x, p), L.layernorm_forward(x, p)),
        [x, p.gamma, p.beta], h=1e-6)
    assert err < 1e-5


# ---------------------------------------------------------------------------
# The shared normalization primitive, against the closed forms each layer
# had as its own backward rule

def _bn_train_reference(x, p, g):
    mean, var = x.mean(axis=(0, 1)), x.var(axis=(0, 1))
    rstd = 1.0 / np.sqrt(var + 1e-3)
    xhat = (x - mean) * rstd
    dgamma, dbeta = (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))
    n = x.shape[0] * x.shape[1]
    dx = (p.gamma.data * rstd / n) * (n * g - dbeta - xhat * dgamma)
    return xhat * p.gamma.data + p.beta.data, (dx, dgamma, dbeta)


def _bn_infer_reference(x, p, g):
    rstd = 1.0 / np.sqrt(p.running_var.data + 1e-3)
    xhat = (x - p.running_mean.data) * rstd
    dgamma, dbeta = (g * xhat).sum(axis=(0, 1)), g.sum(axis=(0, 1))
    return xhat * p.gamma.data + p.beta.data, (g * (p.gamma.data * rstd), dgamma, dbeta)


def _ln_reference(x, p, g):
    mean, var = x.mean(axis=-1, keepdims=True), x.var(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + 1e-5)
    xhat = (x - mean) * rstd
    lead = tuple(range(x.ndim - 1))
    dgamma, dbeta = (g * xhat).sum(axis=lead), g.sum(axis=lead)
    dxhat = g * p.gamma.data
    dx = rstd * (dxhat - dxhat.mean(axis=-1, keepdims=True)
                 - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / x.shape[-1])
    return xhat * p.gamma.data + p.beta.data, (dx, dgamma, dbeta)


NORMALIZERS = {
    "batchnorm_train": ((4, 7, 3), lambda x, p: L.batchnorm_forward(x, p, "train"),
                        _bn_train_reference),
    "batchnorm_infer": ((4, 7, 3), lambda x, p: L.batchnorm_forward(x, p, "infer"),
                        _bn_infer_reference),
    "layernorm_3d": ((4, 7, 3), L.layernorm_forward, _ln_reference),
    "layernorm_2d": ((6, 5), L.layernorm_forward, _ln_reference),
}


@pytest.mark.parametrize("name", list(NORMALIZERS))
def test_normalizers_share_one_record_matching_their_closed_forms(name):
    shape, forward, reference = NORMALIZERS[name]
    rng = np.random.default_rng(23)
    features = shape[-1]
    p = L.init_batchnorm(rng, features) if name.startswith("batch") \
        else L.init_layernorm(rng, features)
    p.gamma.data = rng.normal(size=features)
    p.beta.data = rng.normal(size=features)
    if name.startswith("batch"):
        p.running_mean.data = rng.normal(size=features)
        p.running_var.data = np.abs(rng.normal(size=features)) + 0.5
    x = Tensor(rng.normal(loc=2.0, scale=3.0, size=shape), requires_grad=True)
    g = rng.normal(size=shape)
    expected_out, expected_grads = reference(x.data, p, g)
    with T.Tape() as tape:
        out = forward(x, p)
    [rec] = tape.records
    assert rec.inputs == (x, p.gamma, p.beta)
    np.testing.assert_array_equal(out.data, expected_out)
    for got, want in zip(rec.backward_fn(g), expected_grads, strict=True):
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12 * np.abs(want).max())


# ---------------------------------------------------------------------------
# Attention

def mha_reference(x, w_qkv, w_o):
    """Per-sequence, per-head loop over ``sdpa_brute_force``: project, attend,
    concatenate, project back. x: (B, T, F)."""
    return np.stack([
        np.concatenate([sdpa_brute_force(*np.split(seq @ w, 3, axis=1)) for w in w_qkv],
                       axis=1) @ w_o
        for seq in x])


def mha_recomputing_rule(x, w_qkv, w_o, g):
    """Output and (dx, dw_qkv, dw_o) of attention whose backward rule
    recomputes each head's Q/K/V and weights from x, the rule the layer had
    before it kept them: (x, g) are (B, T, F) arrays."""
    heads, model_dim, _ = w_qkv.shape
    lead, x2 = x.shape[:-1], x.reshape(-1, model_dim)

    def head(h):
        q, k, v = np.split((x2 @ w_qkv[h]).reshape(lead + (-1,)), 3, axis=-1)
        s = q @ np.swapaxes(np.ascontiguousarray(k), -1, -2) * (1.0 / math.sqrt(q.shape[-1]))
        e = np.exp(s - s.max(axis=-1, keepdims=True))
        return e / e.sum(axis=-1, keepdims=True), v, q, k

    cat = np.empty((x2.shape[0], w_o.shape[0]), dtype=x2.dtype)
    for h, out in enumerate(np.split(cat.reshape(lead + (-1,)), heads, axis=-1)):
        np.matmul(*head(h)[:2], out=out)
    g = g.reshape(-1, model_dim)
    dcat = np.split((g @ w_o.T).reshape(lead + (-1,)), heads, axis=-1)
    dx, dw_qkv = np.zeros_like(x2), np.empty_like(w_qkv)
    for h, dout in enumerate(dcat):
        w, v, q, k = head(h)
        dw = dout @ np.swapaxes(v, -1, -2)
        ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * (1.0 / math.sqrt(q.shape[-1]))
        dqkv = np.concatenate([ds @ k, np.swapaxes(ds, -1, -2) @ q,
                               np.swapaxes(w, -1, -2) @ dout], axis=-1).reshape(x2.shape[0], -1)
        dw_qkv[h] = x2.T @ dqkv
        dx += dqkv @ w_qkv[h].T
    return (cat @ w_o).reshape(x.shape), (dx.reshape(x.shape), dw_qkv, cat.T @ g)


def check_mha_against_recomputing_rule(p, x, g):
    """Recorded and unrecorded outputs and the three gradients against
    ``mha_recomputing_rule``: bitwise, except where several heads each get
    their output gradient from a matrix-vector product (key_dim 1, or a
    single row of x). numpy sums that in another order than the rule's one
    GEMM over all heads, so there the gradients agree to rounding."""
    heads, key_dim = p.w_qkv.shape[0], p.w_qkv.shape[2] // 3
    want_out, want_grads = mha_recomputing_rule(x, p.w_qkv.data, p.w_o.data, g)
    assert L.multi_head_attention(Tensor(x), p).data.tobytes() == want_out.tobytes()
    with T.Tape() as tape:
        out = L.multi_head_attention(Tensor(x, requires_grad=True), p)
    assert out.data.tobytes() == want_out.tobytes()
    got_grads = tape.records[0].backward_fn(g)
    exact = heads == 1 or (key_dim > 1 and x[..., 0].size > 1)
    for got, want in zip(got_grads, want_grads, strict=True):
        assert got.dtype == want.dtype and got.shape == want.shape
        if exact:
            assert got.tobytes() == want.tobytes()
        else:
            tol = 8 * np.finfo(want.dtype).eps
            np.testing.assert_allclose(got, want, rtol=tol, atol=tol * np.abs(want).max())


def attend(q, k, v):
    return L._attention_weights(q, k) @ v


def test_sdpa_single_key_returns_value_row():
    rng = np.random.default_rng(23)
    q = rng.normal(size=(4, 3))
    k = rng.normal(size=(1, 3))
    v = rng.normal(size=(1, 5))
    np.testing.assert_allclose(attend(q, k, v), np.repeat(v, 4, axis=0), atol=1e-12)


def test_sdpa_dominant_self_match():
    # Q = K = 10*I: each query overwhelmingly attends to its own value row
    q = 10.0 * np.eye(2)
    v = np.array([[1.0, 2.0], [3.0, 4.0]])
    w = L._attention_weights(q, q)
    scores = (10 * np.eye(2)) @ (10 * np.eye(2)).T / np.sqrt(2)
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    expect_w = e / e.sum(axis=1, keepdims=True)
    np.testing.assert_allclose(w, expect_w, atol=1e-12)
    np.testing.assert_allclose(w @ v, expect_w @ v, atol=1e-12)
    assert w[0, 0] > 0.999


def test_sdpa_matches_brute_force():
    rng = np.random.default_rng(24)
    q, k, v = rng.normal(size=(3, 8, 8))
    np.testing.assert_allclose(attend(q, k, v), sdpa_brute_force(q, k, v), atol=1e-6)
    # batched (B, T, d) input attends within each sequence
    qb, kb, vb = rng.normal(size=(3, 2, 5, 4))
    expect = np.stack([sdpa_brute_force(*qkv) for qkv in zip(qb, kb, vb)])
    np.testing.assert_allclose(attend(qb, kb, vb), expect, rtol=0, atol=1e-12)


def test_sdpa_scale_is_sqrt_of_query_depth():
    rng = np.random.default_rng(25)
    q = rng.normal(size=(5, 64))
    k = rng.normal(size=(5, 64))
    w = L._attention_weights(q, k)
    scores = q @ k.T / 8.0  # sqrt(64) = 8
    e = np.exp(scores - scores.max(axis=1, keepdims=True))
    np.testing.assert_allclose(w, e / e.sum(axis=1, keepdims=True), atol=1e-12)


def test_sdpa_rows_sum_to_one():
    rng = np.random.default_rng(26)
    q, k = rng.normal(size=(2, 6, 4))
    w = L._attention_weights(q, k)
    assert np.all((w > 0) & (w < 1))
    np.testing.assert_allclose(w.sum(axis=1), np.ones(6), atol=1e-6)


def test_sdpa_gradients():
    # large projections give sharply peaked attention weights, unlike the
    # near-uniform ones of a Glorot-initialized layer
    rng = np.random.default_rng(27)
    p = L.MHAParams(w_qkv=Tensor(3.0 * rng.normal(size=(1, 4, 6)), requires_grad=True),
                    w_o=Tensor(rng.normal(size=(2, 4)), requires_grad=True))
    x = Tensor(rng.normal(size=(1, 5, 4)), requires_grad=True)
    assert L._attention_weights(*np.split(x.data @ p.w_qkv.data[0], 3, axis=-1)[:2]).max() > 0.9
    err = grad_check_all(
        lambda: product_sum(L.multi_head_attention(x, p), L.multi_head_attention(x, p)),
        [x, p.w_qkv, p.w_o], h=1e-6)
    assert err < 1e-5


def test_init_mha_draws_per_head_q_k_v_in_order():
    # a seeded model keeps the numbers of per-head (model_dim, key_dim)
    # q, k, v draws followed by w_o
    p = L.init_mha(np.random.default_rng(5), model_dim=6, num_heads=3, key_dim=2)
    assert (p.w_qkv.shape, p.w_o.shape) == ((3, 6, 6), (6, 6))
    rng = np.random.default_rng(5)
    bound = np.sqrt(6.0 / (6 + 2))
    for h in range(3):
        for block in range(3):  # query | key | value
            np.testing.assert_array_equal(p.w_qkv.data[h][:, 2 * block:2 * block + 2],
                                          rng.uniform(-bound, bound, size=(6, 2)))
    bound_o = np.sqrt(6.0 / (6 + 6))
    np.testing.assert_array_equal(p.w_o.data, rng.uniform(-bound_o, bound_o, size=(6, 6)))


@pytest.mark.parametrize("heads", [1, 2, 4])
@pytest.mark.parametrize("shape", [(1, 7, 5), (3, 7, 5)], ids=["batch1", "batched"])
def test_mha_matches_per_head_reference(heads, shape):
    rng = np.random.default_rng(28)
    p = L.init_mha(rng, model_dim=5, num_heads=heads, key_dim=3)
    x = rng.normal(size=shape)
    out = L.multi_head_attention(Tensor(x), p).data
    assert out.shape == shape
    np.testing.assert_allclose(out, mha_reference(x, p.w_qkv.data, p.w_o.data),
                               rtol=0, atol=1e-12)


@settings(max_examples=20, deadline=None)
@given(batch=st.integers(1, 3), t_len=st.integers(1, 6), heads=st.integers(1, 3),
       key_dim=st.integers(1, 4), model_dim=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
def test_mha_matches_per_head_reference_property(batch, t_len, heads, key_dim, model_dim, seed):
    rng = np.random.default_rng(seed)
    p = L.init_mha(rng, model_dim, heads, key_dim)
    x = rng.normal(size=(batch, t_len, model_dim))
    np.testing.assert_allclose(L.multi_head_attention(Tensor(x), p).data,
                               mha_reference(x, p.w_qkv.data, p.w_o.data), rtol=0, atol=1e-12)
    check_mha_against_recomputing_rule(p, x, rng.normal(size=x.shape))


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("heads,key_dim,shape", [
    (1, 3, (1, 7, 5)), (2, 3, (3, 7, 5)), (3, 2, (2, 1, 4)), (4, 16, (2, 9, 8)),
    (8, 4, (3, 6, 6)), (2, 1, (2, 5, 3)), (1, 1, (2, 5, 3)), (2, 4, (1, 1, 6))])
def test_mha_matches_the_recomputing_rule(heads, key_dim, shape, dtype):
    rng = np.random.default_rng(heads * 10 + key_dim)
    p = cast_params(L.init_mha(rng, shape[-1], heads, key_dim), dtype)
    x, g = (rng.normal(size=shape).astype(dtype) for _ in range(2))
    check_mha_against_recomputing_rule(p, x, g)


@pytest.mark.parametrize("batch", [1, 3])
def test_mha_matches_the_recomputing_rule_at_the_flagship_size(batch):
    # 60 steps of the BiGRU's 128 features, 4 heads of key_dim 64
    rng = np.random.default_rng(batch)
    p = L.init_mha(rng, 128, 4, 64)
    x, g = rng.normal(size=(2, batch, 60, 128))
    check_mha_against_recomputing_rule(p, x, g)


def test_mha_keeps_per_head_state_only_when_recorded():
    # batch 4, 32 steps, model and key dim 16: a head's Q|K|V and weights take
    # 80 KiB, its column block of the concat buffer 16 KiB
    x = np.random.default_rng(40).normal(size=(4, 32, 16))
    cat_block = x[..., :16].nbytes

    def peak(heads, tape, requires_grad):
        p = L.init_mha(np.random.default_rng(41), 16, heads, 16)
        p.w_qkv.requires_grad = p.w_o.requires_grad = requires_grad
        inp = Tensor(x)
        tracemalloc.start()
        try:
            with T.Tape() if tape else contextlib.nullcontext():
                L.multi_head_attention(inp, p)
                return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    # two heads first, so that the one-head run is not the first call
    for tape, requires_grad in ((False, True), (True, False)):
        peak(2, tape, requires_grad)
        growth = peak(8, tape, requires_grad) - peak(1, tape, requires_grad)
        assert growth <= 7 * cat_block + 4096
    per_head_state = x[0, 0, :1].nbytes * (4 * 32 * 48 + 4 * 32 * 32)
    assert peak(8, True, True) - peak(1, True, True) >= 7 * (cat_block + per_head_state)


def test_mha_single_head_identity_projection_reduces_to_sdpa():
    rng = np.random.default_rng(28)
    p = L.init_mha(rng, model_dim=4, num_heads=1, key_dim=4)
    p.w_o = Tensor(np.eye(4), requires_grad=True)
    x = rng.normal(size=(1, 5, 4))
    out = L.multi_head_attention(Tensor(x), p).data
    q, k, v = np.split(x[0] @ p.w_qkv.data[0], 3, axis=1)
    np.testing.assert_allclose(out[0], sdpa_brute_force(q, k, v), atol=1e-12)


def test_mha_preserves_reference_shape():
    rng = np.random.default_rng(29)
    p = L.init_mha(rng, model_dim=128, num_heads=4, key_dim=64)
    x = Tensor(rng.normal(size=(2, 60, 128)))
    assert L.multi_head_attention(x, p).shape == (2, 60, 128)


def test_mha_gradients():
    rng = np.random.default_rng(30)
    p = L.init_mha(rng, model_dim=8, num_heads=2, key_dim=3)
    for shape in ((1, 4, 8), (2, 4, 8)):
        x = Tensor(rng.normal(size=shape), requires_grad=True)
        err = grad_check_all(
            lambda: product_sum(L.multi_head_attention(x, p), L.multi_head_attention(x, p)),
            [x, p.w_qkv, p.w_o], h=1e-6)
        assert err < 1e-5


@pytest.mark.parametrize("heads,t_len", [(1, 1), (2, 5), (4, 9)])
def test_mha_is_one_tape_record_for_any_head_count_and_length(heads, t_len):
    rng = np.random.default_rng(31)
    p = L.init_mha(rng, model_dim=4, num_heads=heads, key_dim=2)
    for shape in ((1, t_len, 4), (2, t_len, 4)):
        with T.Tape() as tape:
            L.multi_head_attention(Tensor(rng.normal(size=shape)), p)
        assert len(tape) == 1


def test_mha_width_mismatch():
    p = L.init_mha(np.random.default_rng(31), model_dim=8, num_heads=2, key_dim=4)
    for shape in ((1, 3, 5), (8,), (3, 8), (1, 2, 3, 8)):
        with pytest.raises(ShapeError):
            L.multi_head_attention(Tensor(np.zeros(shape)), p)


@pytest.mark.parametrize("shape", [(5, 4), (4,), (1, 1, 5, 4)], ids=["2d", "1d", "4d"])
def test_sequence_layers_reject_non_3d_input(shape):
    rng = np.random.default_rng(37)
    gru = L.init_gru(rng, 4, 3)
    calls = {
        "conv1d": lambda x: L.conv1d_forward(x, L.init_conv1d(rng, 4, 2)),
        "batchnorm": lambda x: L.batchnorm_forward(x, L.init_batchnorm(rng, 4)),
        "bigru": lambda x: L.bigru_forward(x, gru, gru),
        "mha": lambda x: L.multi_head_attention(x, L.init_mha(rng, 4, 2, 2)),
    }
    for name, call in calls.items():
        with pytest.raises(ShapeError, match=rf"{name}: .*{re.escape(str(shape))}"):
            call(Tensor(np.zeros(shape)))


# ---------------------------------------------------------------------------
# Dropout / Dense

def test_dropout_infer_is_identity():
    x = Tensor(np.arange(5, dtype=float))
    assert L.dropout_forward(x, 0.5, mode="infer") is x


def test_dropout_rate_zero_is_identity():
    x = Tensor(np.arange(5, dtype=float))
    rng = np.random.default_rng(32)
    assert L.dropout_forward(x, 0.0, mode="train", rng=rng) is x


def test_dropout_rejects_an_unknown_mode():
    with pytest.raises(ContractError, match="dropout mode must be 'train' or 'infer', got 'eval'"):
        L.dropout_forward(Tensor([1.0]), 0.5, mode="eval", rng=np.random.default_rng(0))


def test_dropout_statistics():
    rng = np.random.default_rng(33)
    x = Tensor(np.full(100_000, 2.0))
    out = L.dropout_forward(x, 0.5, mode="train", rng=rng).data
    zero_frac = np.mean(out == 0.0)
    assert abs(zero_frac - 0.5) < 0.01
    assert abs(out.mean() - x.data.mean()) / x.data.mean() < 0.02


def test_dropout_bad_rate():
    with pytest.raises(ContractError):
        L.dropout_forward(Tensor([1.0]), 1.0, mode="train", rng=np.random.default_rng(0))


def test_train_dropout_is_one_record_on_x_whose_backward_is_the_mask():
    rng = np.random.default_rng(34)
    x = Tensor(rng.normal(size=(5, 8)), requires_grad=True)
    with T.Tape() as tape:
        out = L.dropout_forward(x, 0.3, mode="train", rng=np.random.default_rng(35))
    [rec] = tape.records
    assert rec.inputs == (x,)
    mask = (np.random.default_rng(35).random(x.shape) >= 0.3) / (1.0 - 0.3)
    np.testing.assert_array_equal(out.data, x.data * mask)
    g = rng.normal(size=x.shape)
    [dx] = rec.backward_fn(g)
    np.testing.assert_array_equal(dx, g * mask)


@pytest.mark.parametrize("dtype", ["float64", "float32"])
@pytest.mark.parametrize("rate", [0.1, 0.3, 1 / 3, 0.5, 0.7, 0.9])
def test_dropout_keep_mask_matches_the_scaled_float_mask(rate, dtype):
    # the scaled float mask the layer used to build: (keep / (1 - rate)) cast
    # to x's dtype, multiplied in; compared byte for byte, so zero signs and
    # non-finite cells count
    rng = np.random.default_rng(36)
    cells = rng.normal(size=(20, 30)) * 10.0 ** rng.integers(-20, 20, size=(20, 30))
    cells.flat[:5] = [np.inf, -np.inf, np.nan, -0.0, 0.0]
    x = Tensor(cells.astype(dtype), requires_grad=True)
    g = rng.normal(size=x.shape).astype(dtype)
    g.flat[5:10] = [np.inf, -np.inf, np.nan, -0.0, 0.0]
    with T.Tape() as tape, np.errstate(invalid="ignore"):
        out = L.dropout_forward(x, rate, mode="train", rng=np.random.default_rng(37))
        [dx] = tape.records[0].backward_fn(g)
        mask = ((np.random.default_rng(37).random(x.shape) >= rate) / (1.0 - rate)).astype(
            x.data.dtype, copy=False)
        want_out, want_dx = x.data * mask, g * mask
    assert x.data.dtype == dtype
    assert out.data.dtype == dx.dtype == x.data.dtype
    assert out.data.tobytes() == want_out.tobytes()
    assert dx.tobytes() == want_dx.tobytes()


def test_dense_identity():
    p = L.DenseParams(W=Tensor(np.eye(3)), b=Tensor(np.zeros(3)), activation="none")
    x = np.array([[1.0, -2.0, 3.0]])
    np.testing.assert_allclose(L.dense_forward(Tensor(x), p).data, x)


def test_dense_rejects_softmax_activation():
    # the softmax belongs to the loss and to predict_proba, not to a layer
    with pytest.raises(ContractError):
        L.init_dense(np.random.default_rng(34), in_features=10, out_features=6,
                     activation="softmax")


def test_dense_relu_zeroes_negative_preactivations():
    p = L.DenseParams(W=Tensor(np.array([[1.0], [-1.0]])), b=Tensor(np.zeros(2)),
                      activation="relu")
    out = L.dense_forward(Tensor(np.array([[2.0], [-1.0]])), p).data
    np.testing.assert_allclose(out, [[2.0, 0.0], [0.0, 1.0]])


def test_dense_gradients():
    rng = np.random.default_rng(35)
    x = Tensor(rng.normal(size=(5, 4)) + 0.3, requires_grad=True)
    for activation in ("relu", "none"):
        p = L.init_dense(rng, in_features=4, out_features=3, activation=activation)
        p.b.data = rng.normal(size=3)
        if activation == "relu":  # some units on each side, none at the kink
            pre = x.data @ p.W.data.T + p.b.data
            assert (pre > 0).any() and (pre < 0).any() and np.abs(pre).min() > 1e-3
        # random output weights: a squared output would zero the gradient of
        # every unit the ReLU clips, hiding a missing mask
        c = Tensor(rng.normal(size=(5, 3)))
        err = grad_check_all(lambda: product_sum(L.dense_forward(x, p), c),
                             [x, p.W, p.b], h=1e-6)
        assert err < 1e-5, activation


@pytest.mark.parametrize("activation", ["relu", "none"])
def test_dense_is_one_tape_record(activation):
    rng = np.random.default_rng(38)
    p = L.init_dense(rng, in_features=4, out_features=3, activation=activation)
    with T.Tape() as tape:
        L.dense_forward(Tensor(rng.normal(size=(2, 4)), requires_grad=True), p)
    assert len(tape) == 1


def test_dense_reads_trailing_dimensions_as_one_feature_axis():
    rng = np.random.default_rng(44)
    p = L.init_dense(rng, in_features=12, out_features=3, activation="relu")
    p.b.data = rng.normal(size=3)
    x = Tensor(rng.normal(size=(2, 3, 4)) + 0.2, requires_grad=True)
    flat = L.dense_forward(Tensor(x.data.reshape(2, 12)), p).data
    with T.Tape() as tape:
        out = L.dense_forward(x, p)
    assert len(tape) == 1
    assert out.data.tobytes() == flat.tobytes()
    assert np.abs(x.data.reshape(2, 12) @ p.W.data.T + p.b.data).min() > 1e-3
    c = Tensor(rng.normal(size=(2, 3)))
    assert grad_check_all(lambda: product_sum(L.dense_forward(x, p), c),
                          [x, p.W, p.b], h=1e-6) < 1e-5
    assert x.grad.shape == (2, 3, 4)


def test_dense_width_mismatch():
    p = L.init_dense(np.random.default_rng(36), in_features=4, out_features=3)
    for shape in ((2, 5), (4,), (1, 2, 4)):
        with pytest.raises(ShapeError, match=re.escape(str(shape))):
            L.dense_forward(Tensor(np.zeros(shape)), p)
