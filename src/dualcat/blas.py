"""One OpenBLAS thread while the engine runs.

The engine's products are small or tall and narrow (gate blocks, norms,
42x42 correlator forms); a second OpenBLAS thread only spins on them and
doubles the CPU time.  So every function that calls BLAS or LAPACK runs in
a process-wide scope that sets one thread and gives the caller's count back.
This module is the one home of that scope, :func:`_one_blas_thread`, and of
the OpenBLAS lookup, :func:`openblas`: the engine's modules import them from
here.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from typing import Callable, NamedTuple

import numpy as np


class OpenBlas(NamedTuple):
    """The OpenBLAS numpy loaded: file name, configuration string and the
    calls that read and set its thread count."""

    library: str
    config: str
    get_num_threads: Callable[[], int]
    set_num_threads: Callable[[int], None]


@functools.cache
def openblas() -> OpenBlas | None:
    """The OpenBLAS numpy loaded, found among the shared objects this process
    maps; None without one (another BLAS, or no ``/proc``).  Looked up on the
    first call, never at import."""
    try:
        with open("/proc/self/maps") as fh:
            paths = {line.split()[-1] for line in fh if "openblas" in line.lower()}
    except OSError:
        return None
    # scipy may map an OpenBLAS of its own; numpy's sits in or beside numpy
    numpy_dir = os.path.dirname(os.path.abspath(np.__file__))
    for path in sorted(paths, key=lambda p: (not p.startswith(numpy_dir), p)):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                names = [f"{prefix}_{call}{suffix}"
                         for call in ("get_num_threads", "set_num_threads", "get_config")]
                if not all(hasattr(lib, name) for name in names):
                    continue
                get, put, config = (getattr(lib, name) for name in names)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                config.argtypes, config.restype = [], ctypes.c_char_p
                return OpenBlas(os.path.basename(path), config().decode().strip(), get, put)
    return None


class _ThreadInside(threading.local):
    inside = False  # this thread runs a decorated call, so holds the scope


_THREAD = _ThreadInside()
_LOCK = threading.Lock()
_depth = 0  # threads inside the scope
_restore = None  # (OpenBlas, caller's count) while the depth is > 0


def _one_blas_thread(fn):
    """Decorator: run ``fn`` inside the process-wide one-OpenBLAS-thread scope.

    The first thread to enter saves the caller's thread count and sets 1;
    the last to leave restores the saved count, also when it leaves by an
    exception.  The others only move the depth, under the lock.  Without an
    OpenBLAS the scope changes nothing.  A call nested in another decorated
    call of the same thread is already inside and goes straight through:
    the engine makes thousands of them per run, and a lock round trip would
    cost more than many of their kernels.
    """

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        global _depth, _restore
        if _THREAD.inside:
            return fn(*args, **kwargs)
        with _LOCK:
            if _depth == 0 and (blas := openblas()) is not None:
                _restore = blas, blas.get_num_threads()
                blas.set_num_threads(1)
            _depth += 1
        _THREAD.inside = True
        try:
            return fn(*args, **kwargs)
        finally:
            _THREAD.inside = False
            with _LOCK:
                _depth -= 1
                if _depth == 0 and _restore is not None:
                    blas, count = _restore
                    _restore = None
                    blas.set_num_threads(count)

    return scoped
