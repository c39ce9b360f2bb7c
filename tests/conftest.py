"""One BLAS/OpenMP thread for the test run, set before numpy loads.

These are the thread variables that ``bench/passes.py`` pins to 1.  With
OpenBLAS's default threading on a busy machine, the small gemms of
``bivariate_lebesgue`` ran 4-15 times slower in some runs than in others, so
test durations told nothing.  A value already set in the environment wins.
"""

import os

for _var in (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
):
    os.environ.setdefault(_var, "1")
