"""seqids: sequence-model intrusion detection toolkit.

From-scratch residual Conv1D + BiGRU + multi-head attention classifier for
tabular/sequence network-traffic data, with reverse-mode autodiff, SMOTE
balancing, Adam training, and a full multiclass evaluation harness.
"""

__version__ = "0.1.0"

from .errors import ContractError
from .tensor import Tensor, Tape, backward, grad_check_all

__all__ = ["Tensor", "Tape", "backward", "grad_check_all", "set_default_dtype", "__version__"]


def set_default_dtype(name: str) -> None:
    """Accept ``"float64"`` and do nothing: there is no process-wide float width.

    A tensor's dtype is its array's and a model's is its parameters'; kept
    only for callers that still pin float64. Any other name is an error.
    """
    if name != "float64":
        raise ContractError(f"no process-wide dtype; use build_model(..., dtype={name!r})")
