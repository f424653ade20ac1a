"""One BLAS thread for the test session, as ``import phcnet`` pins it for a command.

``import phcnet`` pins numpy's bundled OpenBLAS whichever of the two loads
first, but only the thread-count variables, set before numpy loads, reach any
other BLAS.  This file runs before any test module and imports phcnet first,
so the variables are set before numpy loads, which
``tests/test_digest.py::test_session_blas_threads_are_pinned`` checks.  A value
already set in the environment wins, as it does for phcnet.
"""

import phcnet  # noqa: F401 - pins BLAS before any test module loads numpy
