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
  When the op is recorded (a tape is active and an input requires grad),
  the forward pass keeps each head's Q|K|V and attention weights, and the
  backward rule reads them instead of recomputing them. Otherwise every head
  reuses one Q|K|V buffer and one weights buffer, so inference memory grows
  with the head count only by the concatenated head outputs.
* The normalizers add a fixed epsilon to the variance: 1e-3 for BatchNorm
  (the Keras default) and 1e-5 for LayerNorm (the PyTorch default).
* BatchNorm in both modes and LayerNorm are one shared primitive,
  ``_normalize``, and so one tape record each. They differ only in the axes
  their statistics come from: batch and time for BatchNorm train, the
  feature axis for LayerNorm, and none for BatchNorm infer, whose running
  statistics are constants to the backward rule.
* Dropout is inverted: survivors are scaled by 1/(1-rate) at train time and
  inference is the identity. Train mode is one tape record on a boolean
  keep mask; its backward rule applies the same mask and scale to ``g``.
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
# Normalization: BatchNorm and LayerNorm share one primitive

def _normalize(x: Tensor, p: BatchNormParams | LayerNormParams, mean: np.ndarray,
               var: np.ndarray, epsilon: float, axes: tuple[int, ...] | None) -> Tensor:
    """``(x - mean) * rstd * gamma + beta`` as one tape record, with
    ``rstd = 1 / sqrt(var + epsilon)`` and gamma, beta over the last axis.

    ``axes`` are the axes ``mean`` and ``var`` were taken over, the set S
    the backward rule differentiates through:
    ``dx = rstd * (g' - mean_S(g') - xhat * mean_S(g' * xhat))`` with
    ``g' = g * gamma``. ``None`` means fixed statistics: ``dx = g' * rstd``.
    """
    rstd = 1.0 / np.sqrt(var + epsilon)
    xhat = x.data - mean
    xhat *= rstd
    out_data = xhat * p.gamma.data
    out_data += p.beta.data
    gamma, lead = p.gamma.data, tuple(range(x.ndim - 1))

    def back(g):
        t = g * xhat
        dgamma = t.sum(axis=lead)
        dx = g * gamma
        if axes is not None:
            t *= gamma
            proj = t.mean(axis=axes, keepdims=True)
            dx -= dx.mean(axis=axes, keepdims=True)
            dx -= np.multiply(xhat, proj, out=t)
        dx *= rstd
        return dx, dgamma, g.sum(axis=lead)

    return register_op((x, p.gamma, p.beta), out_data, back)


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
    if mode == "infer":
        return _normalize(x, p, p.running_mean.data, p.running_var.data, _BN_EPSILON, None)
    if mode != "train":
        raise ContractError(f"batchnorm mode must be 'train' or 'infer', got {mode!r}")
    xd = x.data
    if xd.shape[0] * xd.shape[1] < 2:
        raise ContractError("batchnorm train mode needs at least 2 elements per channel")
    mean = xd.mean(axis=(0, 1))
    var = xd.var(axis=(0, 1))
    m = p.momentum
    p.running_mean.data = m * p.running_mean.data + (1 - m) * mean
    p.running_var.data = m * p.running_var.data + (1 - m) * var
    return _normalize(x, p, mean, var, _BN_EPSILON, (0, 1))


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
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    return _normalize(x, p, mean, var, _LN_EPSILON, (-1,))


# ---------------------------------------------------------------------------
# Attention

def _attention_weights(q: np.ndarray, k: np.ndarray,
                       out: np.ndarray | None = None) -> np.ndarray:
    """softmax(q k^T / sqrt(d_q)) over the keys, for (..., T, d) arrays: the
    scores and then their softmax are written in place into ``out`` (..., T, T)
    when given, else into a new array."""
    # a contiguous k keeps the batched product on BLAS when q is a strided view
    kt = np.swapaxes(np.ascontiguousarray(k), -1, -2)
    scores = np.matmul(q, kt, out=out)
    scores *= 1.0 / math.sqrt(q.shape[-1])
    return T.softmax(scores, out=scores)


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
    built for. One tape record. When it is recorded, the forward pass keeps
    each head's Q|K|V and attention weights for the backward rule; otherwise
    every head reuses one pair of buffers.
    """
    heads, model_dim, width = p.w_qkv.shape
    _check_sequence(x, "mha")
    if x.shape[-1] != model_dim:
        raise ShapeError(f"mha: input {x.shape} does not match model dim {model_dim}")
    lead, x2 = x.shape[:-1], x.data.reshape(-1, model_dim)
    key_dim = width // 3

    # one Q|K|V array and one weights array per head rather than one
    # (heads, ...) array each: at the flagship size that would pass glibc's
    # 32 MiB ceiling on its mmap threshold and be faulted in again every step
    slots = heads if T.recording((x, p.w_qkv, p.w_o)) else 1
    qkvs = [np.empty((x2.shape[0], width), dtype=x2.dtype) for _ in range(slots)]
    ws = [np.empty(lead + lead[-1:], dtype=x2.dtype) for _ in range(slots)]

    def split_qkv(h):
        return np.split(qkvs[h % slots].reshape(lead + (-1,)), 3, axis=-1)

    # heads write their outputs into column blocks of one concat buffer
    cat = np.empty((x2.shape[0], p.w_o.shape[0]), dtype=x2.dtype)
    for h, out in enumerate(np.split(cat.reshape(lead + (-1,)), heads, axis=-1)):
        np.matmul(x2, p.w_qkv.data[h], out=qkvs[h % slots])
        q, k, v = split_qkv(h)
        np.matmul(_attention_weights(q, k, ws[h % slots]), v, out=out)

    def back(g):
        g = g.reshape(-1, model_dim)
        dx, dw_qkv = np.zeros_like(x2), np.empty_like(p.w_qkv.data)
        dqkv, dx_h = np.empty_like(qkvs[0]), np.empty_like(x2)
        dq, dk, dv = np.split(dqkv.reshape(lead + (-1,)), 3, axis=-1)
        for h in range(heads):
            q, k, v = split_qkv(h)
            w = ws[h]
            dout = (g @ p.w_o.data[h * key_dim:(h + 1) * key_dim].T).reshape(lead + (-1,))
            ds = dout @ np.swapaxes(v, -1, -2)
            ds -= (ds * w).sum(axis=-1, keepdims=True)
            ds *= w
            ds *= 1.0 / math.sqrt(key_dim)
            np.matmul(ds, k, out=dq)
            np.matmul(np.swapaxes(ds, -1, -2), q, out=dk)
            np.matmul(np.swapaxes(w, -1, -2), dout, out=dv)
            np.matmul(x2.T, dqkv, out=dw_qkv[h])
            dx += np.matmul(dqkv, p.w_qkv.data[h].T, out=dx_h)
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
    # scaling after the multiply by the 0/1 mask rounds once, like
    # multiplying by the scaled mask, and the record keeps 1 byte an element
    keep, scale = rng.random(x.shape) >= rate, 1.0 / (1.0 - rate)

    def apply(a):
        out = np.multiply(a, keep)
        out *= scale
        return out

    return register_op((x,), apply(x.data), lambda g: (apply(g),))


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
