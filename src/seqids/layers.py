"""Network layers: parameterized forward passes recorded on the autodiff tape.

Each layer is a plain parameter container plus a ``*_forward`` function.
Sequence layers (Conv1D, BatchNorm, BiGRU, attention) take ``(batch, T,
features)`` input only; any other rank is a ``ShapeError``.

Conventions (documented, since several are chosen where common practice
varies):

* Conv1D computes cross-correlation (no kernel flip), the usual
  deep-learning convention, at stride 1 with "same" zero padding only, so
  stacked blocks and the residual shortcut keep the time length.
* The GRU uses sigmoid gates and a tanh candidate with reset-before-candidate,
  ``h_cand = tanh(x W_c + (r * h_prev) U_c + b_c)``, and the update
  ``h_t = (1 - z) * h_prev + z * h_cand``. ``W (input, 3H)``, ``U (H, 3H)``
  and ``b (3H,)`` are packed in update | reset | candidate column blocks.
* The BiGRU is one tape record: one input-projection GEMM per direction and
  a hand-written backpropagation-through-time backward rule.
* Multi-head attention is one tape record too. ``w_qkv (heads, model_dim,
  3 * key_dim)`` holds each head's query | key | value column blocks and
  ``w_o (heads * key_dim, model_dim)`` projects the concatenated heads back.
  The forward pass keeps only the concatenated head outputs; the backward
  rule recomputes each head's Q/K/V and weights from the input, so no
  per-head buffer outlives its head and inference memory does not grow
  with the head count.
* The normalizers add a fixed epsilon to the variance: 1e-3 for BatchNorm
  (the Keras default) and 1e-5 for LayerNorm (the PyTorch default).
* Dropout is inverted: survivors are scaled by 1/(1-rate) at train time and
  inference is the identity.
* Dense is one tape record over ``(N, in)`` input: ``x W^T + b``, then ReLU
  or no activation. The model's last Dense has none, so it returns logits;
  the softmax lives in the loss and in ``predict_proba``.
* Weights use fan-scaled uniform init, bound sqrt(6 / (fan_in + fan_out));
  biases start at zero, scale/shift parameters at one/zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor, register_op


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _check_sequence(x: Tensor, layer: str) -> None:
    if x.ndim != 3:
        raise ShapeError(f"{layer}: expected (batch, time, features) input, got shape {x.shape}")


# ---------------------------------------------------------------------------
# Conv1D

@dataclass
class Conv1DParams:
    kernels: Tensor  # (out_channels, in_channels, kernel_size)
    bias: Tensor     # (out_channels,)


def init_conv1d(rng, in_channels: int, out_channels: int, kernel_size: int = 3) -> Conv1DParams:
    if kernel_size < 1 or out_channels < 1:
        raise ContractError("conv1d needs kernel_size >= 1 and out_channels >= 1")
    fan_in = in_channels * kernel_size
    fan_out = out_channels * kernel_size
    kernels = glorot_uniform(rng, (out_channels, in_channels, kernel_size), fan_in, fan_out)
    bias = Tensor(np.zeros(out_channels), requires_grad=True)
    return Conv1DParams(kernels, bias)


def conv1d_forward(x: Tensor, p: Conv1DParams) -> Tensor:
    """Cross-correlation along time with "same" padding. x: (B, T, C_in)."""
    _check_sequence(x, "conv1d")
    batch, t_len, c_in = x.shape
    c_out, kc_in, k = p.kernels.shape
    if c_in != kc_in:
        raise ShapeError(f"conv1d: input has {c_in} channels but kernels expect {kc_in}")
    pad_left = (k - 1) // 2

    xd, kern, bias = x.data, p.kernels.data, p.bias.data
    xp = np.pad(xd, ((0, 0), (pad_left, k - 1 - pad_left), (0, 0)))
    s0, s1, s2 = xp.strides
    patches = as_strided(xp, (batch, t_len, k, c_in), (s0, s1, s1, s2))
    cols = patches.reshape(batch * t_len, k * c_in)
    w2 = kern.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out_data = (cols @ w2 + bias).reshape(batch, t_len, c_out)

    def back(g):
        g2 = g.reshape(batch * t_len, c_out)
        db = g2.sum(axis=0)
        dw = (cols.T @ g2).reshape(k, c_in, c_out).transpose(2, 1, 0)
        dcols = (g2 @ w2.T).reshape(batch, t_len, k, c_in)
        dxp = np.zeros_like(xp)
        for i in range(k):
            dxp[:, i:i + t_len, :] += dcols[:, :, i, :]
        dx = dxp[:, pad_left:pad_left + t_len, :]
        return dx, dw, db

    return register_op((x, p.kernels, p.bias), out_data, back)


# ---------------------------------------------------------------------------
# BatchNorm

_BN_EPSILON = 1e-3


@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor
    momentum: float = 0.99


def init_batchnorm(rng, channels: int, momentum: float = 0.99) -> BatchNormParams:
    return BatchNormParams(
        gamma=Tensor(np.ones(channels), requires_grad=True),
        beta=Tensor(np.zeros(channels), requires_grad=True),
        running_mean=Tensor(np.zeros(channels)),
        running_var=Tensor(np.ones(channels)),
        momentum=momentum)


def batchnorm_forward(x: Tensor, p: BatchNormParams, mode: str = "train") -> Tensor:
    """Per-channel normalization over batch and time. x: (B, T, C).

    Train mode normalizes with batch statistics and updates the running
    mean/variance in place by the momentum rule; infer mode uses the stored
    running statistics only.
    """
    _check_sequence(x, "batchnorm")
    xd = x.data
    n = xd.shape[0] * xd.shape[1]

    if mode == "train":
        if n < 2:
            raise ContractError("batchnorm train mode needs at least 2 elements per channel")
        mean = xd.mean(axis=(0, 1))
        var = xd.var(axis=(0, 1))
        m = p.momentum
        p.running_mean.data = m * p.running_mean.data + (1 - m) * mean
        p.running_var.data = m * p.running_var.data + (1 - m) * var
    elif mode == "infer":
        mean = p.running_mean.data
        var = p.running_var.data
    else:
        raise ContractError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")

    rstd = 1.0 / np.sqrt(var + _BN_EPSILON)
    xhat = (xd - mean) * rstd
    out_data = xhat * p.gamma.data + p.beta.data
    gamma = p.gamma.data

    if mode == "train":
        def back(g):
            dgamma = (g * xhat).sum(axis=(0, 1))
            dbeta = g.sum(axis=(0, 1))
            dx = (gamma * rstd / n) * (n * g - dbeta - xhat * dgamma)
            return dx, dgamma, dbeta
    else:
        def back(g):
            dgamma = (g * xhat).sum(axis=(0, 1))
            dbeta = g.sum(axis=(0, 1))
            dx = g * (gamma * rstd)
            return dx, dgamma, dbeta

    return register_op((x, p.gamma, p.beta), out_data, back)


# ---------------------------------------------------------------------------
# GRU / BiGRU

@dataclass
class GRUParams:
    W: Tensor  # (input, 3 * hidden), update | reset | candidate column blocks
    U: Tensor  # (hidden, 3 * hidden), same blocks
    b: Tensor  # (3 * hidden,)


def init_gru(rng, input_size: int, hidden_size: int) -> GRUParams:
    width = 3 * hidden_size
    return GRUParams(
        W=glorot_uniform(rng, (input_size, width), input_size, hidden_size),
        U=glorot_uniform(rng, (hidden_size, width), hidden_size, hidden_size),
        b=Tensor(np.zeros(width), requires_grad=True))


def _gru_scan(a: np.ndarray, u: np.ndarray, hs: np.ndarray) -> None:
    """One direction, in place, over (B, T, ...) views in its own time order:
    ``a`` (x_t W + b) becomes the z | r | candidate activations, ``hs`` gets h_t."""
    hid = u.shape[0]
    u_zr, u_c = u[:, :2 * hid], u[:, 2 * hid:]
    h = np.zeros_like(hs[:, 0])
    for t in range(a.shape[1]):
        zr, c = a[:, t, :2 * hid], a[:, t, 2 * hid:]
        zr[...] = 1.0 / (1.0 + np.exp(-(zr + h @ u_zr)))
        c[...] = np.tanh(c + (zr[:, hid:] * h) @ u_c)
        hs[:, t] = h + zr[:, :hid] * (c - h)
        h = hs[:, t]


def _gru_bptt(a: np.ndarray, u: np.ndarray, hs: np.ndarray, dhs: np.ndarray):
    """BPTT of one ``_gru_scan``: the pre-activation gradient (laid out as ``a``) and dU."""
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


def bigru_forward(x: Tensor, fwd: GRUParams, bwd: GRUParams) -> Tensor:
    """Run a GRU in both time directions and concatenate per-step outputs.

    x: (B, T, F) -> (B, T, 2 * hidden), forward half first.
    Both directions start from a zero hidden state. The whole layer is one
    tape record whose backward rule is backpropagation through time.
    """
    hid = fwd.U.shape[0]
    if bwd.U.shape[0] != hid:
        raise ContractError(
            f"bigru: direction hidden sizes differ ({hid} vs {bwd.U.shape[0]})")
    _check_sequence(x, "bigru")
    batch, t_len, feat = x.shape
    for p in (fwd, bwd):
        if (p.W.shape, p.U.shape, p.b.shape) != ((feat, 3 * hid), (hid, 3 * hid), (3 * hid,)):
            raise ShapeError(
                f"gru: input width {feat} and hidden size {hid} do not match "
                f"W {p.W.shape}, U {p.U.shape} and b {p.b.shape}")
    x2 = x.data.reshape(-1, feat)
    out_data = np.empty((batch, t_len, 2 * hid), dtype=x.data.dtype)
    # per direction: params, its half of the output, its time order
    dirs = ((fwd, slice(None, hid), slice(None)), (bwd, slice(hid, None), slice(None, None, -1)))
    acts = []
    for p, half, order in dirs:
        a = (x2 @ p.W.data + p.b.data).reshape(batch, t_len, 3 * hid)
        _gru_scan(a[:, order], p.U.data, out_data[:, order, half])
        acts.append(a)

    def back(g):
        dx = np.zeros_like(x2)
        grads = []
        for (p, half, order), a in zip(dirs, acts):
            da, du = _gru_bptt(a[:, order], p.U.data, out_data[:, order, half],
                               g[:, order, half])
            da = da[:, order].reshape(-1, 3 * hid)
            dx += da @ p.W.data.T
            grads += [x2.T @ da, du, da.sum(axis=0)]
        return [dx.reshape(x.shape)] + grads

    return register_op((x, fwd.W, fwd.U, fwd.b, bwd.W, bwd.U, bwd.b), out_data, back)


# ---------------------------------------------------------------------------
# LayerNorm

_LN_EPSILON = 1e-5


@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor


def init_layernorm(rng, features: int) -> LayerNormParams:
    return LayerNormParams(
        gamma=Tensor(np.ones(features), requires_grad=True),
        beta=Tensor(np.zeros(features), requires_grad=True))


def layernorm_forward(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize each time step over its feature axis, then scale/shift."""
    if x.shape[-1] != p.gamma.shape[0]:
        raise ShapeError(
            f"layernorm: feature width {x.shape[-1]} does not match params {p.gamma.shape}")
    xd = x.data
    f = xd.shape[-1]
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + _LN_EPSILON)
    xhat = (xd - mean) * rstd
    out_data = xhat * p.gamma.data + p.beta.data
    gamma = p.gamma.data
    reduce_axes = tuple(range(xd.ndim - 1))

    def back(g):
        dgamma = (g * xhat).sum(axis=reduce_axes)
        dbeta = g.sum(axis=reduce_axes)
        dxhat = g * gamma
        dx = rstd * (dxhat
                     - dxhat.mean(axis=-1, keepdims=True)
                     - xhat * (dxhat * xhat).sum(axis=-1, keepdims=True) / f)
        return dx, dgamma, dbeta

    return register_op((x, p.gamma, p.beta), out_data, back)


# ---------------------------------------------------------------------------
# Attention

def _attention_weights(q: np.ndarray, k: np.ndarray) -> np.ndarray:
    """softmax(q k^T / sqrt(d_q)) over the keys, for (..., T, d) arrays."""
    # a contiguous k keeps the batched product on BLAS when q is a strided view
    kt = np.swapaxes(np.ascontiguousarray(k), -1, -2)
    return T.softmax(q @ kt * (1.0 / math.sqrt(q.shape[-1])))


@dataclass
class MHAParams:
    w_qkv: Tensor  # (num_heads, model_dim, 3 * key_dim), query | key | value per head
    w_o: Tensor    # (num_heads * key_dim, model_dim)


def init_mha(rng, model_dim: int, num_heads: int, key_dim: int) -> MHAParams:
    if num_heads < 1:
        raise ContractError("multi-head attention needs num_heads >= 1")
    # each head's query, key and value blocks are drawn in that order, straight
    # into their columns: a single draw laid out afterwards would cost a second
    # buffer the size of w_qkv. It becomes a Tensor only once filled, because
    # a float32 cast of uninitialized memory can overflow
    qkv = np.empty((num_heads, model_dim, 3 * key_dim))
    for block in (b for w in qkv for b in np.split(w, 3, axis=1)):
        block[...] = glorot_uniform(rng, block.shape, model_dim, key_dim).data
    w_qkv = Tensor(qkv, requires_grad=True)
    w_o = glorot_uniform(rng, (num_heads * key_dim, model_dim), num_heads * key_dim, model_dim)
    return MHAParams(w_qkv, w_o)


def multi_head_attention(x: Tensor, p: MHAParams) -> Tensor:
    """Self-attention: per-head projected Q/K/V, concatenated, projected back.

    x: (B, T, F) -> same shape; F must equal the model dim the params were
    built for. One tape record; its backward rule recomputes each head's
    Q/K/V and weights from x.
    """
    heads, model_dim, _ = p.w_qkv.shape
    _check_sequence(x, "mha")
    if x.shape[-1] != model_dim:
        raise ShapeError(f"mha: input {x.shape} does not match model dim {model_dim}")
    lead, x2 = x.shape[:-1], x.data.reshape(-1, model_dim)

    def head(h):
        """Head h's attention weights, then its V, Q and K, laid out as x."""
        q, k, v = np.split((x2 @ p.w_qkv.data[h]).reshape(lead + (-1,)), 3, axis=-1)
        return _attention_weights(q, k), v, q, k

    # heads write their outputs into column blocks of one concat buffer; each
    # head's own buffers are freed before the next head allocates
    cat = np.empty((x2.shape[0], p.w_o.shape[0]), dtype=x2.dtype)
    for h, out in enumerate(np.split(cat.reshape(lead + (-1,)), heads, axis=-1)):
        np.matmul(*head(h)[:2], out=out)

    def back(g):
        g = g.reshape(-1, model_dim)
        dcat = np.split((g @ p.w_o.data.T).reshape(lead + (-1,)), heads, axis=-1)
        dx, dw_qkv = np.zeros_like(x2), np.empty_like(p.w_qkv.data)
        for h, dout in enumerate(dcat):
            w, v, q, k = head(h)
            dw = dout @ np.swapaxes(v, -1, -2)
            ds = w * (dw - (dw * w).sum(axis=-1, keepdims=True)) * (1.0 / math.sqrt(q.shape[-1]))
            dqkv = np.concatenate([ds @ k, np.swapaxes(ds, -1, -2) @ q,
                                   np.swapaxes(w, -1, -2) @ dout], axis=-1)
            dqkv = dqkv.reshape(x2.shape[0], -1)
            dw_qkv[h] = x2.T @ dqkv
            dx += dqkv @ p.w_qkv.data[h].T
            del w, v, q, k, dw, ds, dqkv
        return dx.reshape(x.shape), dw_qkv, cat.T @ g

    return register_op((x, p.w_qkv, p.w_o), (cat @ p.w_o.data).reshape(x.shape), back)


# ---------------------------------------------------------------------------
# Dropout / Dense

def dropout_forward(x: Tensor, rate: float, mode: str = "train",
                    rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: train zeroes with probability ``rate`` and scales
    survivors by 1/(1-rate); infer is the identity."""
    if not 0.0 <= rate < 1.0:
        raise ContractError(f"dropout rate must be in [0, 1), got {rate}")
    if mode == "infer" or rate == 0.0:
        return x
    if rng is None:
        raise ContractError("dropout in train mode needs a seeded generator")
    mask = (rng.random(x.shape) >= rate) / (1.0 - rate)
    return T.mul(x, Tensor(mask))


@dataclass
class DenseParams:
    W: Tensor  # (out, in)
    b: Tensor  # (out,)
    activation: str = "none"  # "relu" | "none"


def init_dense(rng, in_features: int, out_features: int, activation: str = "none") -> DenseParams:
    if activation not in ("relu", "none"):
        raise ContractError(f"dense activation must be relu/none, got {activation!r}")
    return DenseParams(
        W=glorot_uniform(rng, (out_features, in_features), in_features, out_features),
        b=Tensor(np.zeros(out_features), requires_grad=True),
        activation=activation)


def dense_forward(x: Tensor, p: DenseParams) -> Tensor:
    """activation(x W^T + b). x: (N, in) -> (N, out), one tape record."""
    if x.ndim != 2 or x.shape[1] != p.W.shape[1]:
        raise ShapeError(f"dense: input {x.shape} is not (N, {p.W.shape[1]}) for W {p.W.shape}")
    relu = p.activation == "relu"
    y = x.data @ p.W.data.T + p.b.data
    if relu:
        np.maximum(y, 0.0, out=y)

    def back(g):
        if relu:
            g = g * (y > 0)
        return g @ p.W.data, g.T @ x.data, g.sum(axis=0)

    return register_op((x, p.W, p.b), y, back)
