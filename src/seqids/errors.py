"""Exception types shared across the toolkit."""


class SeqidsError(Exception):
    """Base class for all seqids errors."""


class ShapeError(SeqidsError, ValueError):
    """Operands have incompatible dimensions."""


class ContractError(SeqidsError, ValueError):
    """A call violated an operation's precondition."""


class ConfigError(SeqidsError, ValueError):
    """An invalid configuration was supplied."""


class InputError(SeqidsError, ValueError):
    """An input file or data source is malformed."""


class TrainingDiverged(SeqidsError, RuntimeError):
    """Training produced a non-finite loss, parameter or Adam moment."""
