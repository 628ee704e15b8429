"""Thread-limit bootstrap kept free of heavy imports.

Thread limits must be in the environment before the numerical libraries
load, so this module must not import numpy directly or transitively.  The
CLI applies them first; pool workers inherit them from its environment.
"""

import os

_THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def limit_worker_threads() -> None:
    """Pin linear-algebra backends to one thread for reproducible job output."""
    for var in _THREAD_VARS:
        os.environ.setdefault(var, "1")
