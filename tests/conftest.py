"""Test-session setup: numpy's BLAS runs on one thread, as in the benchmark.

Row reduction multiplies many small float64 blocks, which run more than
twice as slowly with a BLAS thread pool as on one thread.  numpy reads
these variables when it is first imported, which happens after this file
loads; values set in the environment beforehand are kept.
"""

import os

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")
