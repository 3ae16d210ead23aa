"""Test-session setup: numpy's BLAS runs on one thread, as in the benchmark.

Row reduction multiplies many small float64 blocks, which run more than
twice as slowly with a BLAS thread pool as on one thread.  numpy reads
these variables when it is first imported, which happens after this file
loads; values set in the environment beforehand are kept.
"""

import os
import tracemalloc

import pytest

for _name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_name, "1")


@pytest.fixture
def peak_of():
    """``peak_of(fn)`` calls ``fn()`` under tracemalloc and returns its
    result with the peak of traced memory, numpy's buffers included."""

    def peak(fn):
        tracemalloc.start()
        try:
            result = fn()
            return result, tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    return peak
