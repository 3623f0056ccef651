"""The command-line entry: `python -m dwell` and the `dwell` console script.

At the default basis size every band is 5 x 100 and every Hermite product
a few hundred kB, too small for threaded BLAS, whose idle threads only burn
CPU.  So unless the user has set one of the thread-count variables, the
process runs BLAS on one thread.  They must be set before numpy loads, which
is why this module imports the CLI only afterwards; `dwell.cli.main` and the
library leave the caller's settings alone.
"""

import os
import sys

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

from .cli import main  # noqa: E402  (after the thread count is set)

if __name__ == "__main__":
    sys.exit(main())
