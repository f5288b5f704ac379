"""seqids: sequence-model intrusion detection toolkit.

From-scratch residual Conv1D + BiGRU + multi-head attention classifier for
tabular/sequence network-traffic data, with reverse-mode autodiff, SMOTE
balancing, Adam training, and a full multiclass evaluation harness.
"""

__version__ = "0.1.0"

from .tensor import Tensor, Tape, backward, grad_check_all, set_default_dtype

__all__ = ["Tensor", "Tape", "backward", "grad_check_all", "set_default_dtype", "__version__"]
