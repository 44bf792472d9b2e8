"""One BLAS thread inside library calls.

The library's linear algebra is small-matrix work (T <= a few hundred),
where OpenBLAS threads cost more than they give. On a 2-vCPU x86-64 VM at
n = 200, over 300 calls each, ``A @ A`` has a 99th percentile of 20 ms at two
threads against 0.5 ms at one, and ``dpotrf`` and ``eigvalsh`` peak at 4.5
and 6 ms against 0.4 and 2.8 ms. :func:`single_threaded` runs a public entry
point with both bundled OpenBLAS builds (numpy's 64-bit-integer one and
scipy's) at one thread and gives the caller's setting back when the
outermost decorated call returns or raises. Nested decorated calls only
count their depth.

The libraries are found the way numpy and scipy wheels ship them,
``<site-packages>/{numpy,scipy}.libs/libscipy_openblas*.so``; a library
that is not there, or does not export the thread functions, is left alone.
Nothing is pinned at import.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from pathlib import Path

import numpy
import scipy.linalg

#: package, symbol suffix of its bundled scipy-openblas build
_OPENBLAS = ((numpy, "64_"), (scipy, ""))


def _thread_functions(package, suffix: str):
    """``(get, set)`` of the package's bundled OpenBLAS, or ``None``."""
    name = package.__name__
    libdir = Path(package.__file__).resolve().parent.parent / f"{name}.libs"
    for path in sorted(libdir.glob("libscipy_openblas*.so*")):
        lib = ctypes.CDLL(str(path))
        get = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
        put = getattr(lib, f"scipy_openblas_set_num_threads{suffix}", None)
        if get is None or put is None:
            continue
        get.argtypes, get.restype = [], ctypes.c_int
        put.argtypes, put.restype = [ctypes.c_int], None
        return get, put
    return None


#: ``(get, set)`` per bundled OpenBLAS that was found
_LIBS = tuple(f for f in (_thread_functions(p, s) for p, s in _OPENBLAS) if f is not None)

# a signal handler may call a decorated function while this thread holds it
_lock = threading.RLock()
_depth = 0
_saved: list[int] = []


def single_threaded(fn):
    """Run ``fn`` with every bundled OpenBLAS at one thread (see module)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _depth
        if not _LIBS:
            return fn(*args, **kwargs)
        with _lock:
            if _depth == 0:
                _saved[:] = [get() for get, _ in _LIBS]
                for (_, put), n in zip(_LIBS, _saved):
                    if n != 1:
                        put(1)
            _depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            with _lock:
                _depth -= 1
                if _depth == 0:
                    for (_, put), n in zip(_LIBS, _saved):
                        if n != 1:
                            put(n)

    return wrapper
