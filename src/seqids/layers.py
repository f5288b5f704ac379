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
* The BiGRU is one tape record with a hand-written backpropagation-through-
  time backward rule. One Python loop advances both directions, each numpy
  call serving both. The scan's arrays are time-major, ``(T, 2, B, ·)``, the
  backward direction stored in reversed time, so step ``s`` of both
  directions is the contiguous block ``[s]``; the z | r and candidate
  pre-activations are separate arrays, so the sigmoid and the tanh run on
  contiguous blocks too. The input projection stays one GEMM per direction,
  over the time-major rows of x. The record saves the activations and the
  output, nothing else. The backward rule lays h, the output gradient and
  the pre-activation gradient out direction-major, ``(2, T, B, ·)``, so
  that dW, dU and dx are one GEMM per direction each.
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
  statistics are constants to the backward rule. ``batchnorm_forward(...,
  relu=True)`` applies a ReLU inside that record (the residual block's first
  BatchNorm), its backward rule masking ``g`` before the normalization's.
* The residual join ``relu(a + b)`` is one record too, ``residual_relu``,
  over two inputs of one shape; no other elementwise op has a record.
* Dropout is inverted: survivors are scaled by 1/(1-rate) at train time and
  inference is the identity. Train mode is one tape record on a boolean
  keep mask; its backward rule applies the same mask and scale to ``g``.
* Dense is one tape record: ``x W^T + b``, then ReLU or no activation. It
  takes ``(N, ...)`` input and reads it as the view ``(N, in)``, so the
  model's flatten is the first Dense's view, not a record of its own; ``dx``
  comes back in the input's shape. The model's last Dense has no
  activation, so it returns logits; the softmax lives in the loss and in
  ``predict_proba``.
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
    if k == 1:
        cols = xd.reshape(batch * t_len, c_in)
    else:
        xp = np.zeros((batch, t_len + k - 1, c_in), dtype=xd.dtype)
        xp[:, pad_left:pad_left + t_len] = xd
        s0, s1, s2 = xp.strides
        cols = as_strided(xp, (batch, t_len, k, c_in), (s0, s1, s1, s2)).reshape(
            batch * t_len, k * c_in)
    w2 = kern.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out_data = (cols @ w2).reshape(batch, t_len, c_out)
    out_data += bias

    def back(g):
        g2 = g.reshape(batch * t_len, c_out)
        db = g2.sum(axis=0)
        dw = (cols.T @ g2).reshape(k, c_in, c_out).transpose(2, 1, 0)
        dcols = g2 @ w2.T
        if k == 1:
            return dcols.reshape(x.shape), dw, db
        dcols = dcols.reshape(batch, t_len, k, c_in)
        dxp = np.zeros((batch, t_len + k - 1, c_in), dtype=dcols.dtype)
        for i in range(k):
            dxp[:, i:i + t_len, :] += dcols[:, :, i, :]
        return dxp[:, pad_left:pad_left + t_len, :], dw, db

    return register_op((x, p.kernels, p.bias), out_data, back)


# ---------------------------------------------------------------------------
# Normalization: BatchNorm and LayerNorm share one primitive

def _normalize(x: Tensor, p: BatchNormParams | LayerNormParams, mean: np.ndarray,
               var: np.ndarray, epsilon: float, axes: tuple[int, ...] | None,
               relu: bool = False) -> Tensor:
    """``(x - mean) * rstd * gamma + beta`` as one tape record, with
    ``rstd = 1 / sqrt(var + epsilon)`` and gamma, beta over the last axis,
    then a ReLU when ``relu`` is set.

    ``axes`` are the axes ``mean`` and ``var`` were taken over, the set S
    the backward rule differentiates through:
    ``dx = rstd * (g' - mean_S(g') - xhat * mean_S(g' * xhat))`` with
    ``g' = g * gamma``. ``None`` means fixed statistics: ``dx = g' * rstd``.
    The ReLU's mask is applied to ``g`` first.
    """
    rstd = 1.0 / np.sqrt(var + epsilon)
    xhat = x.data - mean
    xhat *= rstd
    out_data = xhat * p.gamma.data
    out_data += p.beta.data
    if relu:
        np.maximum(out_data, 0, out=out_data)
    gamma, lead = p.gamma.data, tuple(range(x.ndim - 1))

    def back(g):
        if relu:
            g = g * (out_data > 0)
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


def batchnorm_forward(x: Tensor, p: BatchNormParams, mode: str = "train",
                      relu: bool = False) -> Tensor:
    """Per-channel normalization over batch and time. x: (B, T, C).

    Train mode normalizes with batch statistics and updates the running
    mean/variance in place by the momentum rule; infer mode uses the stored
    running statistics only. ``relu`` applies a ReLU inside the same record.
    """
    _check_sequence(x, "batchnorm")
    if mode == "infer":
        return _normalize(x, p, p.running_mean.data, p.running_var.data, _BN_EPSILON, None, relu)
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
    return _normalize(x, p, mean, var, _BN_EPSILON, (0, 1), relu)


def residual_relu(a: Tensor, b: Tensor) -> Tensor:
    """``relu(a + b)``, the residual block's join, as one tape record."""
    if a.shape != b.shape:
        raise ShapeError(f"residual join: shapes {a.shape} and {b.shape} differ")
    out_data = a.data + b.data
    np.maximum(out_data, 0, out=out_data)

    def back(g):
        g = g * (out_data > 0)
        # one array for both inputs is safe: backward adds each into a fresh .grad
        return g, g

    return register_op((a, b), out_data, back)


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


def _time_major(fwd_part: np.ndarray, bwd_part: np.ndarray) -> np.ndarray:
    """(2, T, B, ·) copy of two (B, T, ·) arrays: the forward direction's in
    time order, the backward direction's in reversed time order."""
    tm = np.empty((2,) + fwd_part.shape[1::-1] + fwd_part.shape[2:], dtype=fwd_part.dtype)
    tm[0] = fwd_part.transpose(1, 0, 2)
    tm[1] = bwd_part[:, ::-1].transpose(1, 0, 2)
    return tm


def _gru_scan(zr: np.ndarray, cand: np.ndarray, u: np.ndarray, hs: np.ndarray) -> None:
    """Both directions in one loop, in place, over time-major arrays whose
    block ``s``, (2, B, ·), holds step ``s`` of each direction in its own time
    order: ``zr`` (T, 2, B, 2H) and ``cand`` (T, 2, B, H) hold x_t W + b and
    become the z | r and candidate activations, and ``hs`` (T, 2, B, H) gets
    h_s. ``u`` stacks the two directions' recurrent weights, (2, H, 3H)."""
    hid = u.shape[1]
    u_zr, u_c = u[..., :2 * hid], u[..., 2 * hid:]
    g_zr = np.empty_like(zr[0])
    g_c, tmp, h = (np.zeros_like(hs[0]) for _ in range(3))
    # Each call serves both directions and writes into a buffer or a block of
    # zr, cand or hs. The values are those of ``h + z * (tanh(c + (r * h) U_c)
    # - h)`` with ``z | r = 1 / (1 + exp(-(zr + h U_zr)))``, computed op by op
    # in that order, so they are the same bits as one direction at a time.
    # exp(-x) overflows to inf for x < -709, where the sigmoid rightly gives 0;
    # silenced once per scan, since an errstate per step costs about 2 us
    with np.errstate(over="ignore"):
        for zr_s, c, h_s in zip(zr, cand, hs):
            np.matmul(h, u_zr, out=g_zr)
            np.add(zr_s, g_zr, out=zr_s)
            np.negative(zr_s, out=zr_s)
            np.exp(zr_s, out=zr_s)
            np.add(1.0, zr_s, out=zr_s)
            np.divide(1.0, zr_s, out=zr_s)
            np.multiply(zr_s[..., hid:], h, out=tmp)
            np.matmul(tmp, u_c, out=g_c)
            np.add(c, g_c, out=c)
            np.tanh(c, out=c)
            np.subtract(c, h, out=tmp)
            np.multiply(zr_s[..., :hid], tmp, out=tmp)
            h = np.add(h, tmp, out=h_s)


def _gru_bptt(zr: np.ndarray, cand: np.ndarray, u: np.ndarray, hs: np.ndarray,
              dhs: np.ndarray):
    """BPTT of one ``_gru_scan``, from its activations and (2, T, B, H) copies
    of h and of the output gradient, each direction in its own time order:
    the pre-activation gradient (2, T, B, 3H) and dU, (2, H, 3H)."""
    hid = u.shape[1]
    u_zr_t, u_c_t = (np.swapaxes(w, -1, -2) for w in (u[..., :2 * hid], u[..., 2 * hid:]))
    da = np.empty(hs.shape[:-1] + (3 * hid,), dtype=hs.dtype)
    dh, drh, t1, t2, t3 = (np.zeros_like(hs[:, 0]) for _ in range(5))
    for s in range(da.shape[1] - 1, -1, -1):
        z, r, c, da_s = zr[s, ..., :hid], zr[s, ..., hid:], cand[s], da[:, s]
        dz, dr, dc = da_s[..., :hid], da_s[..., hid:2 * hid], da_s[..., 2 * hid:]
        hp = hs[:, s - 1] if s else 0.0
        dh += dhs[:, s]
        # dc = dh * z * (1 - c^2)
        np.multiply(c, c, out=t1)
        np.subtract(1.0, t1, out=t1)
        np.multiply(dh, z, out=t2)
        np.multiply(t2, t1, out=dc)
        np.matmul(dc, u_c_t, out=drh)
        # dz = dh * (c - h_prev) * z * (1 - z)
        np.subtract(c, hp, out=t1)
        np.multiply(dh, t1, out=t1)
        np.multiply(t1, z, out=t1)
        np.subtract(1.0, z, out=t2)
        np.multiply(t1, t2, out=dz)
        # dr = drh * h_prev * r * (1 - r)
        np.multiply(drh, hp, out=t1)
        np.multiply(t1, r, out=t1)
        np.subtract(1.0, r, out=t3)
        np.multiply(t1, t3, out=dr)
        # dh_prev = dh * (1 - z) + drh * r + dzr U_zr^T
        np.multiply(dh, t2, out=dh)
        np.multiply(drh, r, out=t1)
        dh += t1
        np.matmul(da_s[..., :2 * hid], u_zr_t, out=t1)
        dh += t1
    # step 0's h_prev is zero, so it adds nothing to dU
    hp = hs[:, :-1]
    rh = np.multiply(hp, zr[1:, ..., hid:].swapaxes(0, 1), out=np.empty_like(hp))
    hp, rh = (v.reshape(2, -1, hid).swapaxes(1, 2) for v in (hp, rh))
    da_next = da[:, 1:].reshape(2, -1, 3 * hid)
    du = np.concatenate([hp @ da_next[..., :2 * hid], rh @ da_next[..., 2 * hid:]], axis=2)
    return da, du


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
    dirs = (fwd, bwd)
    dtype = np.result_type(x.data, *(q.data for p in dirs for q in (p.W, p.U, p.b)))
    u = np.stack([p.U.data for p in dirs])
    zr = np.empty((t_len, 2, batch, 2 * hid), dtype=dtype)
    cand = np.empty((t_len, 2, batch, hid), dtype=dtype)
    # one input-projection GEMM per direction over its time-major rows, into
    # one buffer that both directions reuse
    proj = np.empty((t_len * batch, 3 * hid), dtype=dtype)
    for d, (p, xd) in enumerate(zip(dirs, (x.data, x.data[:, ::-1]))):
        np.matmul(xd.transpose(1, 0, 2).reshape(-1, feat), p.W.data, out=proj)
        proj += p.b.data
        split = proj.reshape(t_len, batch, 3 * hid)
        zr[:, d], cand[:, d] = split[..., :2 * hid], split[..., 2 * hid:]
    del proj, split
    hs = np.empty((t_len, 2, batch, hid), dtype=dtype)
    _gru_scan(zr, cand, u, hs)
    out_data = np.empty((batch, t_len, 2 * hid), dtype=x.data.dtype)
    out_data[..., :hid] = hs[:, 0].transpose(1, 0, 2)
    out_data[..., hid:] = hs[::-1, 1].transpose(1, 0, 2)

    def back(g):
        hs = _time_major(out_data[..., :hid], out_data[..., hid:])
        da, du = _gru_bptt(zr, cand, u, hs, _time_major(g[..., :hid], g[..., hid:]))
        del hs
        da = da.reshape(2, -1, 3 * hid)
        xs = _time_major(x.data, x.data).reshape(2, -1, feat)
        dw = np.matmul(np.swapaxes(xs, 1, 2), da)
        del xs
        dxs = np.matmul(da, np.swapaxes(np.stack([p.W.data for p in dirs]), 1, 2))
        dxs = dxs.reshape(2, t_len, batch, feat)
        dx = dxs[0].transpose(1, 0, 2) + dxs[1, ::-1].transpose(1, 0, 2)
        db = da.sum(axis=1)
        return [dx, dw[0], du[0], db[0], dw[1], du[1], db[1]]

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
    scores = np.matmul(q, np.swapaxes(k, -1, -2), out=out)
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
    # buffer the size of w_qkv
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

    def blocks(a, n):
        """The ``n`` column blocks of width ``key_dim`` of a (rows, n * key_dim) array."""
        a = a.reshape(lead + (-1,))
        return [a[..., i * key_dim:(i + 1) * key_dim] for i in range(n)]

    # heads write their outputs into column blocks of one concat buffer
    cat = np.empty((x2.shape[0], p.w_o.shape[0]), dtype=x2.dtype)
    for h, out in enumerate(blocks(cat, heads)):
        np.matmul(x2, p.w_qkv.data[h], out=qkvs[h % slots])
        q, k, v = blocks(qkvs[h % slots], 3)
        np.matmul(_attention_weights(q, k, ws[h % slots]), v, out=out)

    def back(g):
        g = g.reshape(-1, model_dim)
        dx, dw_qkv = np.zeros_like(x2), np.empty_like(p.w_qkv.data)
        dqkv, dx_h = np.empty_like(qkvs[0]), np.empty_like(x2)
        dq, dk, dv = blocks(dqkv, 3)
        for h in range(heads):
            q, k, v = blocks(qkvs[h], 3)
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
    if mode not in ("train", "infer"):
        raise ContractError(f"dropout mode must be 'train' or 'infer', got {mode!r}")
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
    """activation(x W^T + b). x: (N, ...) read as (N, in) -> (N, out), one tape record."""
    width = p.W.shape[1]
    if x.ndim < 2 or math.prod(x.shape[1:]) != width:
        raise ShapeError(
            f"dense: input {x.shape} does not flatten to (N, {width}) for W {p.W.shape}")
    x2 = x.data.reshape(x.shape[0], width)
    relu = p.activation == "relu"
    y = x2 @ p.W.data.T + p.b.data
    if relu:
        np.maximum(y, 0.0, out=y)

    def back(g):
        if relu:
            g = g * (y > 0)
        return (g @ p.W.data).reshape(x.shape), g.T @ x2, g.sum(axis=0)

    return register_op((x, p.W, p.b), y, back)
