"""One BLAS thread for the test session, as ``import phcnet`` pins it for a command.

The test modules import numpy before phcnet, so phcnet's own pin comes too
late for them; this file runs before any of them.  A value already set in
the environment wins, as it does for phcnet.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
