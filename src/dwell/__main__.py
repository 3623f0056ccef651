"""The command-line entry: `python -m dwell` and the `dwell` console script.

At the default basis size every band is 5 x 100 and every Hermite product
a few hundred kB, too small for threaded BLAS, whose idle threads only burn
CPU.  So unless the user has set one of the thread-count variables, the
process runs BLAS on one thread.  The variables must be set before numpy
loads.  `dwell.cli` loads no numpy at import: a command loads it at its
first computation, and a sweep served entirely from its cache not at all.
This module sets them before it imports the CLI all the same, so that they
hold whatever the CLI imports; `dwell.cli.main` and the library leave the
caller's settings alone.
"""

import os
import sys

BLAS_THREAD_VARIABLES = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")

if not any(name in os.environ for name in BLAS_THREAD_VARIABLES):
    os.environ.update(dict.fromkeys(BLAS_THREAD_VARIABLES, "1"))

from .cli import main  # noqa: E402  (after the thread count is set)

if __name__ == "__main__":
    sys.exit(main())
