"""What the machine gives the benchmark: versions, BLAS threads, cores.

The live OpenBLAS thread count is read with ctypes from both bundled
libraries (numpy's 64-bit-integer build and scipy's), in this process and
inside one worker of a default-context process pool, which is how
``run_monte_carlo`` starts its workers.  The benchmark sets no BLAS
variable; it records them.
"""

from __future__ import annotations

import ctypes
import multiprocessing
import os
import platform
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

ENV_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
            "GOTO_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
            "STABLEKERN_THREADS")

#: package, symbol suffix of its bundled scipy-openblas build
_OPENBLAS = (("numpy", "64_"), ("scipy", ""))


def _openblas(package: str):
    module = __import__(package)
    libdir = Path(module.__file__).resolve().parent.parent / f"{package}.libs"
    libs = sorted(libdir.glob("libscipy_openblas*.so*"))
    return ctypes.CDLL(str(libs[0])) if libs else None


def blas_threads() -> dict:
    """Live thread count of each bundled OpenBLAS (None when not found)."""
    import scipy.linalg  # noqa: F401  (loads scipy's OpenBLAS)

    out = {}
    for package, suffix in _OPENBLAS:
        lib = _openblas(package)
        fn = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None) if lib else None
        if fn is None:
            out[package] = None
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_int
        out[package] = int(fn())
    return out


def blas_config() -> dict:
    out = {}
    for package, suffix in _OPENBLAS:
        lib = _openblas(package)
        fn = getattr(lib, f"scipy_openblas_get_config{suffix}", None) if lib else None
        if fn is None:
            out[package] = None
            continue
        fn.argtypes = []
        fn.restype = ctypes.c_char_p
        out[package] = fn().decode()
    return out


def collect(loadavg_at_start) -> dict:
    import numpy
    import scipy

    with ProcessPoolExecutor(max_workers=1) as pool:
        worker = pool.submit(blas_threads).result(timeout=60)
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas": blas_config(),
        "blas_threads_parent": blas_threads(),
        "blas_threads_worker": worker,
        "env": {name: os.environ.get(name) for name in ENV_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "start_method": multiprocessing.get_start_method(),
        "loadavg_at_start": list(loadavg_at_start),
        "machine": platform.machine(),
    }
