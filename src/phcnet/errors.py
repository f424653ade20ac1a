"""Exception taxonomy shared across the package, and its one number check.

The CLI maps these onto exit codes, so keep the hierarchy flat and stable.
"""

import sys
from numbers import Integral, Real


def is_number(value, low=None, integer=False) -> bool:
    """A ``numbers.Real`` (``Integral`` with ``integer``) but not a bool, that a
    float holds (not inf, nan or 10**400), and at least ``low`` when given.
    Numpy scalars count.  A field that sizes an array must also be at most
    sys.maxsize, numpy's largest extent."""
    return (isinstance(value, Integral if integer else Real)
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max
            and (low is None or value >= low))


class PhcnetError(Exception):
    """Base class for all recoverable phcnet errors."""


class ShapeError(PhcnetError, ValueError):
    """Operand shapes violate an operation's contract."""


class ConfigError(PhcnetError, ValueError):
    """Invalid layer/model/run configuration (e.g. divisibility violations)."""


class ContractError(PhcnetError, ValueError):
    """An API precondition was violated (e.g. backward from a non-scalar)."""


class NumericError(PhcnetError, ArithmeticError):
    """Non-finite values encountered where finite ones are required."""


class TransferError(PhcnetError, RuntimeError):
    """Weight transfer between models failed; message lists offending tensors."""


class CheckpointError(PhcnetError, RuntimeError):
    """Checkpoint file is malformed or violates the format contract."""


class MetricError(PhcnetError, ValueError):
    """A metric is undefined for the given inputs (e.g. single-class AUC)."""


class DataError(PhcnetError, ValueError):
    """Malformed dataset artifact: manifest, image file, or patch request."""
