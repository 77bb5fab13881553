"""Run a call on one OpenBLAS thread.

numpy loads its own OpenBLAS (as does scipy, where a program imports it),
and each starts one thread per core. `monte_carlo` already runs trials on
worker threads and `crb_report` solves matrices of a few hundred rows, so
extra BLAS threads only contend for the same cores; and a multithreaded
reduction may round differently from a single-threaded one, so the bound's
last digits would depend on the environment's thread count.
`one_blas_thread` caps every OpenBLAS loaded in the process at one thread
while a call runs and restores the previous counts when it returns or
raises.

The libraries are looked up in /proc/self/maps on first use, not at import.
Where there is no such file or no OpenBLAS (another BLAS, another OS),
nothing is capped.
"""

from __future__ import annotations

import ctypes
import functools
import threading
from contextlib import ContextDecorator

# Symbol names of the thread-count functions: scipy-openblas builds (numpy's
# 64-bit-integer copy has the 64_ suffix) and a plain OpenBLAS.
_PREFIXES = ("scipy_openblas", "openblas")
_SUFFIXES = ("64_", "")


def _thread_functions(lib: ctypes.CDLL):
    for prefix in _PREFIXES:
        for suffix in _SUFFIXES:
            get = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            set_ = getattr(lib, f"{prefix}_set_num_threads{suffix}", None)
            if get is not None and set_ is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                set_.argtypes, set_.restype = [ctypes.c_int], None
                return get, set_
    return None


@functools.cache
def _openblas_libraries() -> tuple:
    """(get, set) thread-count functions of each OpenBLAS mapped in this process."""
    try:
        with open("/proc/self/maps") as fh:
            # address perms offset dev inode [path]
            fields = [line.split(None, 5) for line in fh]
    except OSError:
        return ()
    paths = sorted({f[5].strip() for f in fields if len(f) == 6 and "openblas" in f[5]})
    found = []
    for path in paths:
        try:
            functions = _thread_functions(ctypes.CDLL(path))
        except OSError:
            continue
        if functions is not None:
            found.append(functions)
    return tuple(found)


def blas_threads() -> int | None:
    """BLAS threads a call under the cap runs on: 1, or None if no OpenBLAS was found."""
    return 1 if _openblas_libraries() else None


class _OneBlasThread(ContextDecorator):
    """Context manager and decorator; one process-wide instance.

    OpenBLAS thread counts are global to each library, so overlapping calls
    from several threads share one cap: the first to enter saves the counts
    and sets 1, the last to leave restores them.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._holders = 0
        self._saved: tuple[int, ...] = ()

    def __enter__(self):
        with self._lock:
            if self._holders == 0:
                libraries = _openblas_libraries()
                self._saved = tuple(get() for get, _ in libraries)
                for _, set_ in libraries:
                    set_(1)
            self._holders += 1
        return self

    def __exit__(self, *exc):
        with self._lock:
            self._holders -= 1
            if self._holders == 0:
                for (_, set_), count in zip(_openblas_libraries(), self._saved):
                    set_(count)
        return False


one_blas_thread = _OneBlasThread()
