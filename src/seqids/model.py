"""Model assembly: the residual Conv1D + BiGRU + multi-head attention network
and its ablation variants, built from a declarative config.

The full architecture is::

    input (T, C)
    -> Conv1D(filters, k) -> BatchNorm -> ReLU
    -> Conv1D(filters, k) -> BatchNorm
    -> + Conv1D(1x1) shortcut on the input, then ReLU   (residual block)
    -> BiGRU(units)  -> LayerNorm
    -> MultiHeadAttention(heads, key_dim)
    -> Dropout(rate) -> Flatten
    -> Dense(64, relu) -> Dense(32, relu) -> Dense(classes)   (logits)

Ablation flags drop the residual block, the BiGRU+LayerNorm pair, or the
attention block; dropout-then-flatten always precedes the dense head. ReLU
placement inside the residual block (after the first BatchNorm and after
the residual add) follows standard residual-block practice.

Each stage is one fused record of ``layers``; there is no glue between
them. The first ReLU lives inside the first BatchNorm's record
(``relu=True``), the second in the residual join's (``residual_relu``), and
the flatten is the first Dense's view of its ``(B, T, F)`` input.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

from . import layers as L
from .errors import ConfigError, ContractError, ShapeError
from .tensor import Tensor


@dataclass
class ModelConfig:
    input_shape: tuple[int, int] = (60, 1)   # (time steps, channels)
    num_classes: int = 6
    use_resnet_block: bool = True
    use_bigru: bool = True
    use_mha: bool = True
    conv_filters: int = 64
    kernel_size: int = 3
    gru_units: int = 64
    num_heads: int = 4
    key_dim: int = 64
    dropout_rate: float = 0.5
    dense_units: tuple[int, ...] = (64, 32)
    bn_momentum: float = 0.99  # lower it for short runs so running stats catch up

    def validate(self) -> None:
        if not (self.use_resnet_block or self.use_bigru):
            raise ConfigError("config needs at least one of the residual block or the BiGRU")
        if self.num_classes < 2:
            raise ConfigError(f"num_classes must be >= 2, got {self.num_classes}")
        if not 0.0 <= self.dropout_rate < 1.0:
            raise ConfigError(f"dropout_rate must be in [0, 1), got {self.dropout_rate}")
        for name in ("conv_filters", "kernel_size", "gru_units", "num_heads", "key_dim"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be >= 1, got {getattr(self, name)}")
        if min(self.dense_units, default=1) < 1:
            raise ConfigError(f"dense_units must all be >= 1, got {self.dense_units}")
        if not 0.0 <= self.bn_momentum < 1.0:
            raise ConfigError(f"bn_momentum must be in [0, 1), got {self.bn_momentum}")
        if len(self.input_shape) != 2 or min(self.input_shape) < 1:
            raise ConfigError(f"input_shape must be (time, channels), got {self.input_shape}")

    @property
    def arch_name(self) -> str:
        parts = []
        if self.use_resnet_block:
            parts.append("ResNet-1D")
        if self.use_bigru:
            parts.append("BiGRU")
        if self.use_mha:
            parts.append("MHA")
        return "-".join(parts)

    def to_dict(self) -> dict:
        d = self.__dict__.copy()
        d["input_shape"] = list(self.input_shape)
        d["dense_units"] = list(self.dense_units)
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "ModelConfig":
        names = {f.name for f in fields(cls)}
        unknown, missing = sorted(set(d) - names), sorted(names - set(d))
        if unknown or missing:
            raise ConfigError(
                f"model config does not match this version: unknown keys {unknown}, "
                f"missing keys {missing}")
        for f in fields(cls):
            default, value = f.default, d[f.name]
            if isinstance(default, tuple):  # stored as a JSON list
                ok = type(value) is list and all(type(v) is int for v in value)
            else:  # a float field takes an int too; an int field never takes a bool
                ok = type(value) is type(default) or (type(default), type(value)) == (float, int)
            if not ok:
                raise ConfigError(f"model config {f.name!r}: expected "
                                  f"{type(default).__name__} like {default!r}, got {value!r}")
        d = dict(d)
        d["input_shape"] = tuple(d["input_shape"])
        d["dense_units"] = tuple(d["dense_units"])
        return cls(**d)


def _collect_tensors(name: str, value, out: dict[str, Tensor]) -> None:
    # a module-level function, not a recursive closure: a closure that calls
    # itself is a reference cycle, which would keep ``out`` and every model
    # tensor alive until the cycle collector runs
    if isinstance(value, Tensor):
        out[name] = value
    elif isinstance(value, list):
        for i, item in enumerate(value):
            _collect_tensors(f"{name}{i}", item, out)
    elif is_dataclass(value):
        for f in fields(value):
            _collect_tensors(f"{name}.{f.name}", getattr(value, f.name), out)


class Model:
    """Built network: ordered parameter groups plus the forward pass."""

    def __init__(self, cfg: ModelConfig):
        self.cfg = cfg
        self.conv1 = self.bn1 = self.conv2 = self.bn2 = self.shortcut = None
        self.gru_fwd = self.gru_bwd = self.lnorm = None
        self.mha = None
        self.dense: list[L.DenseParams] = []

    def named_parameters(self) -> dict[str, Tensor]:
        """Trainable tensors, in a stable order."""
        return {n: t for n, t in self.named_arrays().items() if t.requires_grad}

    def named_arrays(self) -> dict[str, Tensor]:
        """All state tensors (trainable weights plus running statistics).

        Layer attributes are walked in assignment order and parameter
        dataclasses in field order; ``dense[1].W`` is named ``dense1.W``.
        """
        out: dict[str, Tensor] = {}
        for name, value in vars(self).items():
            _collect_tensors(name, value, out)
        return out

    def param_count(self) -> int:
        return sum(t.size for t in self.named_parameters().values())

    @property
    def dtype(self) -> np.dtype:
        """The model's dtype, its parameters' (``build_model(..., dtype=)``)."""
        return self.dense[-1].W.data.dtype

    def forward(self, batch, mode: str = "infer",
                rng: np.random.Generator | None = None) -> Tensor:
        """(B, T, C) batch -> (B, num_classes) logits; ``mode`` is "train" or "infer".

        A plain-array batch is cast to the parameters' dtype; a ``Tensor``
        is taken as it is, so one of another dtype is a ``ContractError``:
        its gradients would reach the parameters in its dtype.
        """
        return self.head(self.features(batch, mode, rng))

    def features(self, batch, mode: str = "infer",
                 rng: np.random.Generator | None = None) -> Tensor:
        """The first part of ``forward``: every stage through the first hidden
        Dense and its ReLU, (B, dense_units[0]); with no hidden Dense, through
        the dropout. In infer mode each row's output depends on that row
        alone, so a block's rows may go through it in parts."""
        if mode not in ("train", "infer"):
            raise ContractError(f"model mode must be 'train' or 'infer', got {mode!r}")
        x = batch if isinstance(batch, Tensor) else Tensor(np.asarray(batch, dtype=self.dtype))
        if x.data.dtype != self.dtype:
            raise ContractError(f"model is {self.dtype}, but the Tensor batch is {x.data.dtype}")
        t_len, channels = self.cfg.input_shape
        if x.ndim != 3 or x.shape[1:] != (t_len, channels) or x.shape[0] < 1:
            raise ShapeError(f"model expects batches of shape (B, {t_len}, {channels}) "
                             f"with B >= 1, got {x.shape}")
        if self.cfg.use_resnet_block:
            y = L.batchnorm_forward(L.conv1d_forward(x, self.conv1), self.bn1, mode, relu=True)
            y = L.batchnorm_forward(L.conv1d_forward(y, self.conv2), self.bn2, mode)
            y = L.residual_relu(y, L.conv1d_forward(x, self.shortcut))
        else:
            y = x
        if self.cfg.use_bigru:
            y = L.bigru_forward(y, self.gru_fwd, self.gru_bwd)
            y = L.layernorm_forward(y, self.lnorm)
        if self.cfg.use_mha:
            y = L.multi_head_attention(y, self.mha)
        y = L.dropout_forward(y, self.cfg.dropout_rate, mode, rng)
        *hidden, _ = self.dense
        for d in hidden[:1]:
            y = L.dense_forward(y, d, relu=True)
        return y

    def head(self, y: Tensor) -> Tensor:
        """The rest of ``forward``: ``features``' output -> logits, through
        every hidden Dense after the first, then the output Dense."""
        *hidden, last = self.dense
        for d in hidden[1:]:
            y = L.dense_forward(y, d, relu=True)
        return L.dense_forward(y, last)

    def load_arrays(self, arrays: dict[str, np.ndarray]) -> None:
        """Copy ``arrays``, named as ``named_arrays`` names them, into the model;
        a missing, unknown or misshapen array is a ``ConfigError`` naming it."""
        own = self.named_arrays()
        missing, unknown = sorted(set(own) - set(arrays)), sorted(set(arrays) - set(own))
        if missing or unknown:
            raise ConfigError(f"missing arrays {missing[:5]}, unknown arrays {unknown[:5]}")
        for name, tensor in own.items():
            src = np.asarray(arrays[name], dtype=tensor.data.dtype)
            if src.shape != tensor.data.shape:
                raise ConfigError(
                    f"array {name!r} has shape {src.shape}, expected {tensor.data.shape}")
            tensor.data[...] = src  # into the model's own arrays: no new memory


def build_model(cfg: ModelConfig, rng: np.random.Generator, dtype: str = "float64") -> Model:
    """Instantiate the parameters of each enabled stage, sized to the stage before it.

    ``dtype`` ("float64" or "float32") is the model's: the weights are drawn
    in float64 whatever it is, then every array is cast to it once, so one
    seed gives the same weights, rounded, in both.
    """
    cfg.validate()
    if dtype not in ("float64", "float32"):
        raise ConfigError(f"model dtype must be 'float64' or 'float32', got {dtype!r}")
    m = Model(cfg)
    t_len, channels = cfg.input_shape
    width = channels
    if cfg.use_resnet_block:
        m.conv1 = L.init_conv1d(rng, channels, cfg.conv_filters, cfg.kernel_size)
        m.bn1 = L.init_batchnorm(rng, cfg.conv_filters, cfg.bn_momentum)
        m.conv2 = L.init_conv1d(rng, cfg.conv_filters, cfg.conv_filters, cfg.kernel_size)
        m.bn2 = L.init_batchnorm(rng, cfg.conv_filters, cfg.bn_momentum)
        m.shortcut = L.init_conv1d(rng, channels, cfg.conv_filters, kernel_size=1)
        width = cfg.conv_filters
    if cfg.use_bigru:
        m.gru_fwd = L.init_gru(rng, width, cfg.gru_units)
        m.gru_bwd = L.init_gru(rng, width, cfg.gru_units)
        width = 2 * cfg.gru_units
        m.lnorm = L.init_layernorm(rng, width)
    if cfg.use_mha:
        m.mha = L.init_mha(rng, width, cfg.num_heads, cfg.key_dim)
    flat = t_len * width
    for units in cfg.dense_units:
        m.dense.append(L.init_dense(rng, flat, units))
        flat = units
    m.dense.append(L.init_dense(rng, flat, cfg.num_classes))
    for t in m.named_arrays().values():
        t.data = t.data.astype(dtype, copy=False)
    return m


def table3_grid(flagship: ModelConfig) -> list[tuple[int, ModelConfig, bool]]:
    """The ten-variant ablation grid as (case id, model config, use SMOTE).

    Each case is ``flagship`` with the fields it varies replaced, so all
    others (input shape, classes, widths, ``bn_momentum``) are the
    flagship's. #1 residual block only; #2 BiGRU+MHA; #3 residual block +
    BiGRU; #4/#6 2/8 heads; #5 the flagship; #7/#8 dropout 0.3/0.7; #9 one
    hidden dense layer of 64; #10 the flagship without SMOTE.
    """
    return [
        (1, replace(flagship, use_bigru=False, use_mha=False), True),
        (2, replace(flagship, use_resnet_block=False), True),
        (3, replace(flagship, use_mha=False), True),
        (4, replace(flagship, num_heads=2), True),
        (5, flagship, True),
        (6, replace(flagship, num_heads=8), True),
        (7, replace(flagship, dropout_rate=0.3), True),
        (8, replace(flagship, dropout_rate=0.7), True),
        (9, replace(flagship, dense_units=(64,)), True),
        (10, flagship, False),
    ]
