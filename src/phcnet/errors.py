"""Exception taxonomy shared across the package, and its number checks.

The CLI maps these onto exit codes, so keep the hierarchy flat and stable.
"""

import sys
from numbers import Integral, Real


def is_number(value, integer=False) -> bool:
    """A ``numbers.Real`` (``Integral`` with ``integer``) but not a bool, that a
    float holds (not inf, nan or 10**400).  Numpy scalars count."""
    return (isinstance(value, Integral if integer else Real)
            and not isinstance(value, bool) and abs(value) <= sys.float_info.max)


def in_range(error, name: str, value, low, high=sys.maxsize, integer=True):
    """``value`` if ``is_number(value, integer)`` from ``low`` to ``high``, else raise
    ``error``.  ``high`` defaults to numpy's largest array extent."""
    if not (is_number(value, integer) and low <= value <= high):
        noun = "an integer" if integer else "a number"
        raise error(f"{name} must be {noun} from {low} to {high}, got {value!r}")
    return value


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
