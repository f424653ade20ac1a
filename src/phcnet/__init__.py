"""phcnet: parameterized hypercomplex convolutional networks on a
self-contained CPU autograd engine.

Importing phcnet before numpy runs BLAS on one thread, so results do not depend
on the core count; a count set in OPENBLAS_, OMP_ or MKL_NUM_THREADS still wins.
A process allowed two or more CPUs runs every conv backward, and every conv
forward that keeps a graph, on two threads: the caller and one conv worker
thread (see ``tensor``), which split the work without changing any result by
a bit.  An eval forward runs on the caller alone."""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
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
