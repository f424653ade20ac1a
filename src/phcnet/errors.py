"""Exception taxonomy shared across the package, and its number checks.

The CLI maps these onto exit codes, so keep the hierarchy flat and stable.
"""

import contextlib
import sys
from numbers import Integral, Real

import numpy as np


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


@contextlib.contextmanager
def finite(what: str):
    """The one numeric guard, around every train step, eval pass, map and
    synthetic set.  An overflow or invalid operation in the block (numpy's
    errstate raises them), or an array that is not finite given to the
    yielded ``check(*(name, array))`` (None skipped), raises NumericError
    naming ``what``.  errstate changes no arithmetic: the bits stay the same."""
    def check(*named):
        for name, array in named:
            if array is not None and not np.isfinite(array).all():
                raise NumericError(f"a value of {name} in {what} is not finite")

    try:
        with np.errstate(over="raise", invalid="raise"):
            yield check
    except FloatingPointError as exc:
        raise NumericError(f"a value in {what} is not finite: {exc}") from exc


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
