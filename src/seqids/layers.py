"""Network layers: parameterized forward passes recorded on the autodiff tape.

Each layer is a plain parameter container plus a ``*_forward`` function.
Sequence layers (Conv1D, BatchNorm, BiGRU, attention) take ``(batch, T,
features)`` input only; any other rank is a ``ShapeError``.

Conventions (documented, since several are chosen where common practice
varies):

* Conv1D computes cross-correlation (no kernel flip), the usual
  deep-learning convention, at stride 1 with "same" zero padding only, so
  stacked blocks and the residual shortcut keep the time length. Every
  kernel width, the shortcut's k = 1 included, takes the one padded im2col
  path: at k = 1 the padded copy pads nothing and the backward rule's
  scatter adds one term into zeros. The record keeps x and the reshaped
  kernels, neither the zero-padded copy nor the im2col matrix, k times as
  large: the backward rule pads x again and rebuilds that matrix with the
  forward pass's strided view and reshape. Recorded, the forward GEMM and
  ``dcols`` run in batch halves and ``dw`` in halves of its rows (see
  below); the shortcut's and a one-channel conv's products stay whole.
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
  that dW, dU and dx are one GEMM per direction each, the two directions'
  on two CPUs (see below). Recorded, the input projection runs in halves of
  the time steps; the scan and BPTT loops and ``db`` stay whole.
* Multi-head attention is one tape record too. ``w_qkv (heads, model_dim,
  3 * key_dim)`` holds each head's query | key | value column blocks and
  ``w_o (heads * key_dim, model_dim)`` projects the concatenated heads back.
  When the op is recorded (a tape is active and an input requires grad),
  the forward pass keeps each head's Q|K|V and attention weights, and the
  backward rule reads them instead of recomputing them. The rule releases
  what it has read: the concatenated head outputs once ``dw_o`` is computed,
  a head's weights once dv and the softmax backward have read them, and its
  Q|K|V once its ``dw_qkv`` block and ``dx`` term are written. It writes a
  head's dq|dk|dv into that head's own Q|K|V columns, each block once it is
  dead: dv over v, dk over k, and dq, through one (B, T, key_dim) scratch,
  over q. Head 0's ``dx`` term is ``dx`` itself. Unrecorded, every head
  reuses one Q|K|V buffer and one weights buffer, so inference memory grows
  with the head count only by the concatenated head outputs, and nothing is
  split. Recorded, the forward pass runs in batch halves: each head's Q|K|V
  projection, scores, softmax and weighted sum, then the output projection.
  The backward rule runs each head's dout, ds, dv, dq and dk in batch
  halves, then its ``dx`` term in batch halves, then its ``dw_qkv`` block
  over all rows in halves of its rows; ``dw_o`` is one product over all
  rows in halves of its rows, one head pair each at the flagship size.
* The normalizers add a fixed epsilon to the variance: 1e-3 for BatchNorm
  (the Keras default) and 1e-5 for LayerNorm (the PyTorch default).
* BatchNorm in both modes and LayerNorm are one shared primitive,
  ``_normalize``, and so one tape record each. They differ only in the axes
  their statistics come from: batch and time for BatchNorm train, the
  feature axis for LayerNorm, and none for BatchNorm infer, whose running
  statistics are constants to the backward rule. ``batchnorm_forward(...,
  relu=True)`` applies a ReLU inside that record (the residual block's first
  BatchNorm), its backward rule masking ``g`` before the normalization's.
  The record keeps x, the mean and ``rstd``, not the normalized ``xhat``:
  the backward rule rebuilds ``xhat`` with the forward pass's two ops, and
  the forward pass scales and shifts that same array in place.
* The residual join ``relu(a + b)`` is one record too, ``residual_relu``,
  over two inputs of one shape; no other elementwise op has a record. Its
  backward rule writes the masked gradient into a new array and returns it
  for ``a`` and a copy of it for ``b``, as no two returned arrays may share
  memory. It does not mask ``g`` in place: its ``g`` is the BiGRU's
  time-major ``dx``, and a masked array in that layout changes the
  summation order, and so the bits, of the BatchNorm gradients below it.
  ``_normalize(relu=True)`` and the Dense ReLU mask into a new array too.
* Dropout is inverted: survivors are scaled by 1/(1-rate) at train time and
  inference is the identity. Train mode is one tape record on a boolean
  keep mask; its backward rule multiplies the same mask and then the scale
  into ``g`` itself and returns it, the only rule that writes into ``g``:
  its ``g`` is the first Dense's C-contiguous ``dx``, so the bits are those
  of a new array, and the step holds one ``(B, T, F)`` gradient, not two.
* Dense is one tape record: ``x W^T + b``, then a ReLU when the call asks
  for one, ``dense_forward(..., relu=True)``, as ``batchnorm_forward`` asks
  for its own. It takes ``(N, ...)`` input and reads it as the view ``(N,
  in)``, so the model's flatten is the first Dense's view, not a record of
  its own; ``dx`` comes back in the input's shape. The model asks no ReLU of
  its last Dense, so it returns logits; the softmax lives in the loss and in
  ``predict_proba``. Recorded, the forward and dx run in batch halves and
  dW in halves of its rows, where large enough: of the flagship's, the
  first Dense's forward and dx.
* Weights use fan-scaled uniform init, bound sqrt(6 / (fan_in + fan_out));
  biases start at zero, scale/shift parameters at one/zero.
* Inside ``cpus.two_cpus`` (the train steps) a recorded Conv1D, BiGRU,
  attention or Dense record runs its large matrix products in halves on
  two CPUs (``_split``, ``cpus.halves``): a product that works row by row
  in halves of its rows, and one that sums over the rows, a weight
  gradient, over all rows in halves of its output rows, so no sum changes
  order. A product is split only where its halves keep the bits of the
  whole one (``_SPLIT_ROWS``), so the step's bits do not depend on the
  split. BatchNorm, LayerNorm, dropout, the residual join, the loss and
  Adam stay whole, as does every product of an unrecorded pass.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as T
from .cpus import halves
from .errors import ContractError, ShapeError
from .tensor import Tensor, register_op

#: A product is split in row halves only where each half keeps the bits of
#: its rows of the whole product, at the same OpenBLAS thread count. With
#: numpy 2.4's OpenBLAS 0.3.31 on x86-64 (AVX-512) that held for 400 random
#: products of 128 rows or more, whose columns are a multiple of 16 and whose
#: halves take over 1e6 multiply-adds each, in float64 and float32, with
#: either operand transposed. A smaller half may take OpenBLAS's small-matrix
#: kernel: halving conv1's 3-row ``dw`` moved bits by 1.2e-12 in float64. A
#: product with other columns ends in tail columns whose bits depend on the
#: rows: a (128, 64) @ (64, 250) one does
_SPLIT_ROWS, _SPLIT_COLUMNS, _SMALL_PRODUCT = 128, 16, 10**6


def _split(fn, n: int, *products: tuple[int, int, int]) -> None:
    """``cpus.halves(fn, n)``, where ``fn(s)`` computes the rows that ``s``
    maps to of each of ``products``, given as (rows, inner, columns), if each
    of them keeps its bits in halves; else ``fn(slice(0, n))``. A product of
    0 rows is never split."""
    if all(m >= _SPLIT_ROWS and c % _SPLIT_COLUMNS == 0 and m // 2 * k * c > _SMALL_PRODUCT
           for m, k, c in products):
        halves(fn, n)
    else:
        fn(slice(0, n))


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


def init_conv1d(rng, in_channels: int, out_channels: int, kernel_size: int) -> Conv1DParams:
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

    def padded():
        """x zero-padded to T + k - 1 steps."""
        xp = np.zeros((batch, t_len + k - 1, c_in), dtype=x.data.dtype)
        xp[:, pad_left:pad_left + t_len] = x.data
        return xp

    def im2col(xp):
        """The (b·T, k·C_in) matrix whose row (b, t) is the padded input's
        window at t: a copy when k > 1, so each pass builds it from x."""
        s0, s1, s2 = xp.strides
        return as_strided(xp, (len(xp), t_len, k, c_in), (s0, s1, s1, s2)).reshape(
            -1, k * c_in)

    # the padded copy is freed once the output is complete, the order it had
    # when the record kept it; freeing it inside im2col raised infer's peak RSS
    xp = padded()
    w2 = p.kernels.data.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out_data = np.empty((batch, t_len, c_out), dtype=np.result_type(xp, w2))
    _split(lambda s: np.matmul(im2col(xp[s]), w2, out=out_data[s].reshape(-1, c_out)),
           batch, (T.recording((x, p.kernels, p.bias)) * batch * t_len, k * c_in, c_out))
    out_data += p.bias.data
    del xp

    def back(g):
        g2 = g.reshape(batch * t_len, c_out)
        db = g2.sum(axis=0)
        cols, dw = im2col(padded()), np.empty((k * c_in, c_out), dtype=g2.dtype)
        _split(lambda s: np.matmul(cols[:, s].T, g2, out=dw[s]), k * c_in,
               (k * c_in, batch * t_len, c_out))
        cols = None
        dxp = np.zeros((batch, t_len + k - 1, c_in), dtype=np.result_type(g2, w2))

        def dx(s):
            dcols = (g2[s.start * t_len:s.stop * t_len] @ w2.T).reshape(-1, t_len, k, c_in)
            for i in range(k):
                dxp[s, i:i + t_len, :] += dcols[:, :, i, :]

        _split(dx, batch, (batch * t_len, c_out, k * c_in))
        dw = dw.reshape(k, c_in, c_out).transpose(2, 1, 0)
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

    def normalized():
        xhat = x.data - mean
        xhat *= rstd
        return xhat

    # the record keeps x, mean and rstd, and the rule rebuilds xhat from them
    out_data = normalized()
    out_data *= p.gamma.data
    out_data += p.beta.data
    if relu:
        np.maximum(out_data, 0, out=out_data)
    gamma, lead = p.gamma.data, tuple(range(x.ndim - 1))

    def back(g):
        if relu:
            g = g * (out_data > 0)
        xhat = normalized()
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
    momentum: float


def init_batchnorm(rng, channels: int, momentum: float) -> BatchNormParams:
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
        return g, g.copy()

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
              dhs: np.ndarray) -> np.ndarray:
    """BPTT of one ``_gru_scan``, from its activations and (2, T, B, H) copies
    of h and of the output gradient, each direction in its own time order:
    the pre-activation gradient, (2, T, B, 3H)."""
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
    return da


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

    def project(s):
        """One input-projection GEMM per direction over the time-major rows of
        steps ``s``, into one buffer that both directions reuse."""
        proj = np.empty(((s.stop - s.start) * batch, 3 * hid), dtype=dtype)
        for d, (p, xd) in enumerate(zip(dirs, (x.data, x.data[:, ::-1]))):
            np.matmul(xd[:, s].transpose(1, 0, 2).reshape(-1, feat), p.W.data, out=proj)
            proj += p.b.data
            split = proj.reshape(-1, batch, 3 * hid)
            zr[s, d], cand[s, d] = split[..., :2 * hid], split[..., 2 * hid:]

    recorded = T.recording((x,) + tuple(q for p in dirs for q in (p.W, p.U, p.b)))
    _split(project, t_len, (recorded * t_len * batch, feat, 3 * hid))
    hs = np.empty((t_len, 2, batch, hid), dtype=dtype)
    _gru_scan(zr, cand, u, hs)
    out_data = np.empty((batch, t_len, 2 * hid), dtype=x.data.dtype)
    out_data[..., :hid] = hs[:, 0].transpose(1, 0, 2)
    out_data[..., hid:] = hs[::-1, 1].transpose(1, 0, 2)

    def back(g):
        hs = _time_major(out_data[..., :hid], out_data[..., hid:])
        da = _gru_bptt(zr, cand, u, hs, _time_major(g[..., :hid], g[..., hid:]))
        da_next = da[:, 1:].reshape(2, -1, 3 * hid)
        da = da.reshape(2, -1, 3 * hid)
        dw, du = np.empty((2, feat, 3 * hid), dtype=dtype), np.empty_like(u)
        dxs = np.empty((2, t_len * batch, feat), dtype=dtype)

        def by_direction(s):
            """dU, dW and dx of the directions ``s``."""
            for d in range(s.start, s.stop):
                # step 0's h_prev is zero, so it adds nothing to dU
                hp = hs[d, :-1]
                rh = np.multiply(hp, zr[1:, d, :, hid:], out=np.empty_like(hp))
                np.matmul(hp.reshape(-1, hid).T, da_next[d, :, :2 * hid], out=du[d, :, :2 * hid])
                np.matmul(rh.reshape(-1, hid).T, da_next[d, :, 2 * hid:], out=du[d, :, 2 * hid:])
                del hp, rh
                xs = (x.data, x.data[:, ::-1])[d].transpose(1, 0, 2).reshape(-1, feat)
                np.matmul(xs.T, da[d], out=dw[d])
                del xs
                np.matmul(da[d], dirs[d].W.data.T, out=dxs[d])

        halves(by_direction, 2)
        del hs
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
    each head's Q|K|V and attention weights for the backward rule, which
    releases them as it goes; otherwise every head reuses one pair of buffers.
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
    recorded = T.recording((x, p.w_qkv, p.w_o))
    slots = heads if recorded else 1
    qkvs = [np.empty((x2.shape[0], width), dtype=x2.dtype) for _ in range(slots)]
    ws = [np.empty(lead + lead[-1:], dtype=x2.dtype) for _ in range(slots)]

    def blocks(a, n):
        """The ``n`` column blocks of width ``key_dim`` of a (rows, n * key_dim) array."""
        a = a.reshape(lead + (-1,))
        return [a[..., i * key_dim:(i + 1) * key_dim] for i in range(n)]

    # heads write their outputs into column blocks of one concat buffer
    cat = np.empty((x2.shape[0], p.w_o.shape[0]), dtype=x2.dtype)
    out_data = np.empty_like(x2, dtype=np.result_type(cat, p.w_o.data))

    def forward(s):
        """Every head and the output projection of the batch rows ``s``."""
        r = slice(s.start * lead[1], s.stop * lead[1])   # the (B·T, ·) rows of batch rows s
        for h, out in enumerate(blocks(cat, heads)):
            qkv = qkvs[h % slots]
            np.matmul(x2[r], p.w_qkv.data[h], out=qkv[r])
            q, k, v = (a[s] for a in blocks(qkv, 3))
            np.matmul(_attention_weights(q, k, ws[h % slots][s]), v, out=out[s])
        np.matmul(cat[r], p.w_o.data, out=out_data[r])

    _split(forward, lead[0], (recorded * len(x2), model_dim, width),
           (recorded * len(x2), p.w_o.shape[0], model_dim))

    def back(g):
        # Each saved array is dropped once read: cat after dw_o, a head's
        # weights after dv and the softmax backward, its Q|K|V after its
        # dw_qkv block and dx term. dv, dk and dq overwrite v, k and q once
        # nothing reads them: v after ds, k after dq, q after dk.
        nonlocal cat
        g = g.reshape(-1, model_dim)
        dw_o = np.empty_like(p.w_o.data, dtype=np.result_type(cat, g))
        _split(lambda s: np.matmul(cat[:, s].T, g, out=dw_o[s]), len(dw_o),
               (len(dw_o), len(g), model_dim))
        cat = None
        dw_qkv = np.empty_like(p.w_qkv.data)
        dq = np.empty(lead + (key_dim,), dtype=x2.dtype)
        dx = None
        for h in range(heads):
            dqkv, w_o, w_qkv = qkvs[h], p.w_o.data[h * key_dim:(h + 1) * key_dim], p.w_qkv.data[h]

            def rows_of_head(s):
                """The head's dq|dk|dv of the batch rows ``s``."""
                w, r = ws[h][s], slice(s.start * lead[1], s.stop * lead[1])
                q, k, v = (a[s] for a in blocks(dqkv, 3))
                dout = (g[r] @ w_o.T).reshape(w.shape[:-1] + (-1,))
                ds = dout @ np.swapaxes(v, -1, -2)
                np.matmul(np.swapaxes(w, -1, -2), dout, out=v)
                dout = None
                ds -= (ds * w).sum(axis=-1, keepdims=True)
                ds *= w
                ds *= 1.0 / math.sqrt(key_dim)
                np.matmul(ds, k, out=dq[s])
                np.matmul(np.swapaxes(ds, -1, -2), q, out=k)
                q[...] = dq[s]

            def dx_of_head(s):
                """The head's dx term of the batch rows ``s``."""
                r = slice(s.start * lead[1], s.stop * lead[1])
                if h == 0:
                    np.matmul(dqkv[r], w_qkv.T, out=dx[r])
                else:
                    dx[r] += dqkv[r] @ w_qkv.T

            _split(rows_of_head, lead[0], (len(g), model_dim, key_dim))
            ws[h] = None
            if dx is None:
                dx = np.empty_like(x2, dtype=np.result_type(x2, w_qkv))
            _split(dx_of_head, lead[0], (len(g), width, model_dim))
            _split(lambda s: np.matmul(x2[:, s].T, dqkv, out=dw_qkv[h][s]), model_dim,
                   (model_dim, len(g), width))
            dqkv = qkvs[h] = None
        return dx.reshape(x.shape), dw_qkv, dw_o

    return register_op((x, p.w_qkv, p.w_o), out_data.reshape(x.shape), back)


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

    def apply(a, out=None):
        out = np.multiply(a, keep, out=out)
        out *= scale
        return out

    return register_op((x,), apply(x.data), lambda g: (apply(g, out=g),))


@dataclass
class DenseParams:
    """A Dense layer's weights; whether a ReLU follows is the caller's
    ``dense_forward(..., relu=)``."""
    W: Tensor  # (out, in)
    b: Tensor  # (out,)


def init_dense(rng, in_features: int, out_features: int) -> DenseParams:
    return DenseParams(
        W=glorot_uniform(rng, (out_features, in_features), in_features, out_features),
        b=Tensor(np.zeros(out_features), requires_grad=True))


def dense_forward(x: Tensor, p: DenseParams, relu: bool = False) -> Tensor:
    """``x W^T + b``, then a ReLU when ``relu`` is set. x: (N, ...) read as
    (N, in) -> (N, out), one tape record."""
    width = p.W.shape[1]
    if x.ndim < 2 or math.prod(x.shape[1:]) != width:
        raise ShapeError(
            f"dense: input {x.shape} does not flatten to (N, {width}) for W {p.W.shape}")
    rows, x2 = x.shape[0], x.data.reshape(x.shape[0], width)
    y = np.empty((rows, p.W.shape[0]), dtype=np.result_type(x2, p.W.data))

    def forward(s):
        np.matmul(x2[s], p.W.data.T, out=y[s])
        y[s] += p.b.data

    _split(forward, rows, (T.recording((x, p.W, p.b)) * rows, width, len(p.W.data)))
    if relu:
        np.maximum(y, 0.0, out=y)

    def back(g):
        if relu:
            g = g * (y > 0)
        dx, dw = np.empty_like(x2, dtype=y.dtype), np.empty_like(p.W.data, dtype=y.dtype)
        _split(lambda s: np.matmul(g[s], p.W.data, out=dx[s]), rows, (rows, len(dw), width))
        _split(lambda s: np.matmul(g[:, s].T, x2, out=dw[s]), len(dw), (len(dw), rows, width))
        return dx.reshape(x.shape), dw, g.sum(axis=0)

    return register_op((x, p.W, p.b), y, back)
