"""Pin BLAS and OpenMP to one thread for the whole test session.

pytest loads this root conftest before any test module imports numpy, so
the thread pools start at one thread.  The small products the tests run
are faster without threads, and the benchmark pins the same counts.  A
value already set in the environment wins.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")
