"""phcnet: parameterized hypercomplex convolutional networks on a
self-contained CPU autograd engine.

Importing phcnet runs BLAS on one thread, so results do not depend on the core
count: through OPENBLAS_, OMP_ and MKL_NUM_THREADS before numpy loads, and
after it through numpy's bundled scipy-openblas (another BLAS keeps its count);
a count set in those variables wins.  A process allowed two or more CPUs runs
every conv, forward and backward, and train-mode batch norm (in blocks of
channels, ``nn._BN_BLOCK_BYTES``) on two threads: the caller and one conv
worker thread (see ``tensor``), which split the work without changing any
result by a bit.  At the end of each such op, the caller waits for the
worker's one chunk in flight.  A four-view model's eval forward that keeps
no graph splits its encoders by side instead: the exam's two sides run side
by side, one conv pair at a time, one whole conv of each pair on each
thread, with every array made by the caller."""

import contextlib
import ctypes
import os
import sys

_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
_umath = sys.modules.get("numpy._core._multiarray_umath")  # numpy is loaded
if _umath is not None and not os.environ.keys() & set(_THREAD_VARS):
    with contextlib.suppress(AttributeError, OSError):  # another BLAS keeps its count
        ctypes.CDLL(_umath.__file__).scipy_openblas_set_num_threads64_(1)
for _name in _THREAD_VARS:
    os.environ.setdefault(_name, "1")

from . import autograd, checkpoint, data, metrics, models, nn, phc, tensor, training
from .errors import PhcnetError

__all__ = [
    "autograd",
    "checkpoint",
    "data",
    "metrics",
    "models",
    "nn",
    "phc",
    "tensor",
    "training",
    "PhcnetError",
]

__version__ = "0.1.0"
