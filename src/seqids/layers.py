"""Network layers: parameterized forward passes recorded on the autodiff tape.

Each layer is a plain parameter container plus a ``*_forward`` function.
Sequence layers take ``(T, features)`` or batched ``(batch, T, features)``
input; 2-D input is lifted to a singleton batch and squeezed back.

Conventions (documented, since several are chosen where common practice
varies):

* Conv1D computes cross-correlation (no kernel flip), the usual
  deep-learning convention, with "same" zero padding by default so stacked
  blocks and the residual shortcut keep the time length.
* The GRU uses sigmoid gates, a tanh candidate with reset-before-candidate,
  and the update ``h_t = (1 - z) * h_prev + z * h_cand``.
* Dropout is inverted: survivors are scaled by 1/(1-rate) at train time and
  inference is the identity.
* Dense applies ReLU or no activation. The model's last Dense has none, so
  it returns logits; the softmax lives in the loss and in ``predict_proba``.
* Weights use fan-scaled uniform init, bound sqrt(6 / (fan_in + fan_out));
  biases start at zero, scale/shift parameters at one/zero.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import as_strided

from . import tensor as T
from .errors import ContractError, ShapeError
from .tensor import Tensor, register_op


def glorot_uniform(rng: np.random.Generator, shape, fan_in: int, fan_out: int) -> Tensor:
    bound = np.sqrt(6.0 / (fan_in + fan_out))
    return Tensor(rng.uniform(-bound, bound, size=shape), requires_grad=True)


def _lift(x: Tensor) -> tuple[Tensor, bool]:
    """Add a singleton batch axis to 2-D sequence input."""
    if x.ndim == 2:
        return T.reshape(x, (1,) + x.shape), True
    return x, False


def _unlift(y: Tensor, lifted: bool) -> Tensor:
    return T.reshape(y, y.shape[1:]) if lifted else y


# ---------------------------------------------------------------------------
# Conv1D

@dataclass
class Conv1DParams:
    kernels: Tensor  # (out_channels, in_channels, kernel_size)
    bias: Tensor     # (out_channels,)
    stride: int = 1
    padding: str = "same"  # "same" | "valid"


def init_conv1d(rng, in_channels: int, out_channels: int, kernel_size: int = 3,
                stride: int = 1, padding: str = "same") -> Conv1DParams:
    if kernel_size < 1 or out_channels < 1:
        raise ContractError("conv1d needs kernel_size >= 1 and out_channels >= 1")
    if padding not in ("same", "valid"):
        raise ContractError(f"conv1d padding must be 'same' or 'valid', got {padding!r}")
    fan_in = in_channels * kernel_size
    fan_out = out_channels * kernel_size
    kernels = glorot_uniform(rng, (out_channels, in_channels, kernel_size), fan_in, fan_out)
    bias = Tensor(np.zeros(out_channels), requires_grad=True)
    return Conv1DParams(kernels, bias, stride, padding)


def conv1d_output_length(t: int, kernel_size: int, stride: int, padding: str) -> int:
    if padding == "same":
        return -(-t // stride)
    if t < kernel_size:
        raise ShapeError(f"valid conv1d needs time length >= kernel ({t} < {kernel_size})")
    return (t - kernel_size) // stride + 1


def conv1d_forward(x: Tensor, p: Conv1DParams) -> Tensor:
    """Cross-correlation along time. x: (T, C_in) or (B, T, C_in)."""
    x, lifted = _lift(x)
    batch, t_in, c_in = x.shape
    c_out, kc_in, k = p.kernels.shape
    if c_in != kc_in:
        raise ShapeError(f"conv1d: input has {c_in} channels but kernels expect {kc_in}")
    t_out = conv1d_output_length(t_in, k, p.stride, p.padding)
    if p.padding == "same":
        pad_total = max((t_out - 1) * p.stride + k - t_in, 0)
        pad_left = pad_total // 2
    else:
        pad_total = pad_left = 0

    xd, kern, bias = x.data, p.kernels.data, p.bias.data
    xp = np.pad(xd, ((0, 0), (pad_left, pad_total - pad_left), (0, 0)))
    s0, s1, s2 = xp.strides
    patches = as_strided(xp, (batch, t_out, k, c_in), (s0, s1 * p.stride, s1, s2))
    cols = patches.reshape(batch * t_out, k * c_in)
    w2 = kern.transpose(2, 1, 0).reshape(k * c_in, c_out)
    out_data = (cols @ w2 + bias).reshape(batch, t_out, c_out)

    stride = p.stride

    def back(g):
        g2 = g.reshape(batch * t_out, c_out)
        db = g2.sum(axis=0)
        dw = (cols.T @ g2).reshape(k, c_in, c_out).transpose(2, 1, 0)
        dcols = (g2 @ w2.T).reshape(batch, t_out, k, c_in)
        dxp = np.zeros_like(xp)
        for i in range(k):
            dxp[:, i:i + stride * t_out:stride, :] += dcols[:, :, i, :]
        dx = dxp[:, pad_left:pad_left + t_in, :]
        return dx, dw, db

    out = register_op((x, p.kernels, p.bias), out_data, back)
    return _unlift(out, lifted)


# ---------------------------------------------------------------------------
# BatchNorm

@dataclass
class BatchNormParams:
    gamma: Tensor
    beta: Tensor
    running_mean: Tensor
    running_var: Tensor
    momentum: float = 0.99
    epsilon: float = 1e-3


def init_batchnorm(rng, channels: int, momentum: float = 0.99,
                   epsilon: float = 1e-3) -> BatchNormParams:
    return BatchNormParams(
        gamma=Tensor(np.ones(channels), requires_grad=True),
        beta=Tensor(np.zeros(channels), requires_grad=True),
        running_mean=Tensor(np.zeros(channels)),
        running_var=Tensor(np.ones(channels)),
        momentum=momentum, epsilon=epsilon)


def batchnorm_forward(x: Tensor, p: BatchNormParams, mode: str = "train") -> Tensor:
    """Per-channel normalization over batch and time. x: (B, T, C) or (T, C).

    Train mode normalizes with batch statistics and updates the running
    mean/variance in place by the momentum rule; infer mode uses the stored
    running statistics only.
    """
    x, lifted = _lift(x)
    xd = x.data
    n = xd.shape[0] * xd.shape[1]
    eps = p.epsilon

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

    rstd = 1.0 / np.sqrt(var + eps)
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

    out = register_op((x, p.gamma, p.beta), out_data, back)
    return _unlift(out, lifted)


# ---------------------------------------------------------------------------
# GRU / BiGRU

@dataclass
class GateParams:
    W: Tensor  # (hidden, input)
    U: Tensor  # (hidden, hidden)
    b: Tensor  # (hidden,)


@dataclass
class GRUParams:
    update: GateParams
    reset: GateParams
    candidate: GateParams
    hidden_size: int


def init_gru(rng, input_size: int, hidden_size: int) -> GRUParams:
    def gate():
        return GateParams(
            W=glorot_uniform(rng, (hidden_size, input_size), input_size, hidden_size),
            U=glorot_uniform(rng, (hidden_size, hidden_size), hidden_size, hidden_size),
            b=Tensor(np.zeros(hidden_size), requires_grad=True))
    return GRUParams(update=gate(), reset=gate(), candidate=gate(), hidden_size=hidden_size)


def _gru_step(x_t: Tensor, h_prev: Tensor, p: GRUParams,
              wt: tuple[Tensor, ...], ut: tuple[Tensor, ...]) -> Tensor:
    wz, wr, wh = wt
    uz, ur, uh = ut
    z = T.sigmoid(T.matmul(x_t, wz) + T.matmul(h_prev, uz) + p.update.b)
    r = T.sigmoid(T.matmul(x_t, wr) + T.matmul(h_prev, ur) + p.reset.b)
    cand = T.tanh(T.matmul(x_t, wh) + T.matmul(T.mul(r, h_prev), uh) + p.candidate.b)
    return T.add(T.mul(T.sub(1.0, z), h_prev), T.mul(z, cand))


def _gate_transposes(p: GRUParams):
    wt = tuple(gate.W.T for gate in (p.update, p.reset, p.candidate))
    ut = tuple(gate.U.T for gate in (p.update, p.reset, p.candidate))
    return wt, ut


def gru_cell_step(x_t: Tensor, h_prev: Tensor, p: GRUParams) -> Tensor:
    """One recurrence step. x_t: (input,) or (B, input); h_prev matching."""
    squeeze = x_t.ndim == 1
    if squeeze:
        x_t = T.reshape(x_t, (1,) + x_t.shape)
        h_prev = T.reshape(h_prev, (1,) + h_prev.shape)
    if x_t.shape[-1] != p.update.W.shape[1]:
        raise ShapeError(
            f"gru: input width {x_t.shape[-1]} does not match W {p.update.W.shape}")
    if h_prev.shape[-1] != p.hidden_size:
        raise ShapeError(
            f"gru: hidden width {h_prev.shape[-1]} does not match hidden_size {p.hidden_size}")
    wt, ut = _gate_transposes(p)
    h = _gru_step(x_t, h_prev, p, wt, ut)
    return T.reshape(h, h.shape[1:]) if squeeze else h


def bigru_forward(x: Tensor, fwd: GRUParams, bwd: GRUParams) -> Tensor:
    """Run a GRU in both time directions and concatenate per-step outputs.

    x: (T, F) or (B, T, F) -> (..., T, 2 * hidden), forward half first.
    Both directions start from a zero hidden state.
    """
    if fwd.hidden_size != bwd.hidden_size:
        raise ContractError(
            f"bigru: direction hidden sizes differ ({fwd.hidden_size} vs {bwd.hidden_size})")
    x, lifted = _lift(x)
    batch, t_len, _ = x.shape
    hidden = fwd.hidden_size
    steps = [T.reshape(T.narrow(x, 1, t, 1), (batch, x.shape[2])) for t in range(t_len)]

    def run(p: GRUParams, order):
        wt, ut = _gate_transposes(p)
        h = Tensor(np.zeros((batch, hidden)))
        outs = [None] * t_len
        for t in order:
            h = _gru_step(steps[t], h, p, wt, ut)
            outs[t] = T.reshape(h, (batch, 1, hidden))
        return outs

    fwd_outs = run(fwd, range(t_len))
    bwd_outs = run(bwd, range(t_len - 1, -1, -1))
    out = T.concat([T.concat(fwd_outs, axis=1), T.concat(bwd_outs, axis=1)], axis=2)
    return _unlift(out, lifted)


# ---------------------------------------------------------------------------
# LayerNorm

@dataclass
class LayerNormParams:
    gamma: Tensor
    beta: Tensor
    epsilon: float = 1e-5


def init_layernorm(rng, features: int, epsilon: float = 1e-5) -> LayerNormParams:
    return LayerNormParams(
        gamma=Tensor(np.ones(features), requires_grad=True),
        beta=Tensor(np.zeros(features), requires_grad=True),
        epsilon=epsilon)


def layernorm_forward(x: Tensor, p: LayerNormParams) -> Tensor:
    """Normalize each time step over its feature axis, then scale/shift."""
    if x.shape[-1] != p.gamma.shape[0]:
        raise ShapeError(
            f"layernorm: feature width {x.shape[-1]} does not match params {p.gamma.shape}")
    xd = x.data
    f = xd.shape[-1]
    mean = xd.mean(axis=-1, keepdims=True)
    var = xd.var(axis=-1, keepdims=True)
    rstd = 1.0 / np.sqrt(var + p.epsilon)
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

def scaled_dot_product_attention(q: Tensor, k: Tensor, v: Tensor,
                                 return_weights: bool = False):
    """softmax(Q K^T / sqrt(d_q)) V with row-wise softmax.

    q: (..., T_q, d_q), k: (..., T_k, d_q), v: (..., T_k, d_v).
    """
    if q.shape[-1] != k.shape[-1]:
        raise ShapeError(f"attention: Q depth {q.shape[-1]} != K depth {k.shape[-1]}")
    if k.shape[-2] != v.shape[-2]:
        raise ShapeError(f"attention: K rows {k.shape[-2]} != V rows {v.shape[-2]}")
    d_q = q.shape[-1]
    kt = T.transpose(k) if k.ndim == 2 else T.transpose(k, (0, 2, 1))
    scores = T.mul(T.matmul(q, kt), 1.0 / np.sqrt(d_q))
    weights = T.softmax(scores, axis=-1)
    out = T.matmul(weights, v)
    return (out, weights) if return_weights else out


@dataclass
class MHAParams:
    w_q: list[Tensor] = field(default_factory=list)  # per head (model_dim, key_dim)
    w_k: list[Tensor] = field(default_factory=list)
    w_v: list[Tensor] = field(default_factory=list)
    w_o: Tensor = None                               # (num_heads*key_dim, model_dim)
    num_heads: int = 1
    key_dim: int = 1


def init_mha(rng, model_dim: int, num_heads: int, key_dim: int) -> MHAParams:
    if num_heads < 1:
        raise ContractError("multi-head attention needs num_heads >= 1")
    p = MHAParams(num_heads=num_heads, key_dim=key_dim)
    for _ in range(num_heads):
        p.w_q.append(glorot_uniform(rng, (model_dim, key_dim), model_dim, key_dim))
        p.w_k.append(glorot_uniform(rng, (model_dim, key_dim), model_dim, key_dim))
        p.w_v.append(glorot_uniform(rng, (model_dim, key_dim), model_dim, key_dim))
    p.w_o = glorot_uniform(rng, (num_heads * key_dim, model_dim),
                           num_heads * key_dim, model_dim)
    return p


def multi_head_attention(x: Tensor, p: MHAParams) -> Tensor:
    """Self-attention: per-head projected Q/K/V, concatenated, projected back.

    x: (T, F) or (B, T, F) -> same shape; F must equal the model dim the
    params were built for.
    """
    model_dim = p.w_q[0].shape[0]
    if x.shape[-1] != model_dim:
        raise ShapeError(f"mha: input width {x.shape[-1]} does not match model dim {model_dim}")
    heads = []
    for h in range(p.num_heads):
        q = T.matmul(x, p.w_q[h])
        k = T.matmul(x, p.w_k[h])
        v = T.matmul(x, p.w_v[h])
        heads.append(scaled_dot_product_attention(q, k, v))
    cat = heads[0] if len(heads) == 1 else T.concat(heads, axis=-1)
    return T.matmul(cat, p.w_o)


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
    """activation(x W^T + b). x: (in,) or (N, in)."""
    squeeze = x.ndim == 1
    if squeeze:
        x = T.reshape(x, (1,) + x.shape)
    if x.shape[-1] != p.W.shape[1]:
        raise ShapeError(f"dense: input width {x.shape[-1]} does not match W {p.W.shape}")
    y = T.add(T.matmul(x, p.W.T), p.b)
    if p.activation == "relu":
        y = T.relu(y)
    return T.reshape(y, y.shape[1:]) if squeeze else y
