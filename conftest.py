"""One BLAS thread for the test session, as ``import phcnet`` pins it for a command.

The test modules import numpy before phcnet, so phcnet's own pin comes too
late for them; this file runs before any of them and imports phcnet first.
A value already set in the environment wins, as it does for phcnet.
"""

import phcnet  # noqa: F401 - pins BLAS before any test module loads numpy
