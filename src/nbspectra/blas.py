"""The one BLAS-thread policy: which calls may use OpenBLAS's threads.

Only the dense eigensolve, `spectral._eigh` and its `dsyrk` certificate,
runs at OpenBLAS's default thread count, inside `threaded_blas()`. There
the second thread cuts the wall time by about 40% (1.5-2.0 s -> 0.9-1.0 s
at (2000,5) on a 2-core Xeon VM).

After a threaded call, each OpenBLAS worker busy-waits for its thread
timeout before it sleeps: about 0.13 s of CPU on the same machine, spent
beside whatever the caller does next. So `threaded_blas()` parks the pools
on exit: it calls `blas_thread_shutdown_` on every loaded OpenBLAS, whose
workers then exit at once, and OpenBLAS starts them again, at the same
thread count, on the next threaded call. The region holds `_BLAS_PIN`,
as the pin does, because a shutdown that overlaps another thread's call
on the same pool can hang: without the lock, two audits on two Python
threads hung with one thread in a futex wait and a worker spinning. The
lock orders regions and pins only: a threaded OpenBLAS call that another
thread makes outside both, at the same time, is not covered.

Everything else runs under `single_blas_thread()`: the sparse LU
factorizations of `verify` (SuperLU hands its small supernodal panels to
BLAS) and `spectral.outlier_eigs`'s inertia count, Lanczos solve and
certificate. On RSBM (12,4) recovery at n = 1000, 1500, 2000 and 4000 the
second thread saved 2%, 21%, 17% and 16% of the wall time for 1.7-1.9
times the CPU, on the same machine. No size came near the eigensolve's
saving, so there is no size switch. A library that is first mapped inside
the pin keeps its threads, so the pin itself imports `scipy.linalg` and
`scipy.sparse.linalg`, which map every OpenBLAS that LAPACK, ARPACK and
SuperLU use, before it reads the mapped libraries; callers import nothing
for it. The pin parks nothing: setting a thread count starts a parked
pool's workers again, so a park at every pin slowed RSBM recovery, whose
many short pins then restarted the pools each time.
"""

from __future__ import annotations

import ctypes
import os
import threading
from contextlib import contextmanager

#: (get, set) thread-count symbol names, by build prefix and symbol suffix
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("", "64_")
)


def _openblas_controls() -> list:
    """(get, set, shutdown) of every OpenBLAS the process has loaded: its
    thread-count functions and its `blas_thread_shutdown_`, or None where
    the build does not export it.

    As threadpoolctl does, the libraries are found among the process's
    mapped files, and each build exports the pair under its own prefix and
    symbol suffix: scipy's wheel as ``scipy_openblas_set_num_threads``,
    numpy's 64-bit-integer one as ``scipy_openblas_set_num_threads64_``.
    ``openblas_set_num_threads_local`` is not used: it changes the global
    count too. Empty where /proc/self/maps cannot be read.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in f if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        if not os.path.basename(path).startswith(("libopenblas", "libscipy_openblas")):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                shutdown = getattr(lib, "blas_thread_shutdown_", None)
                if shutdown is not None:
                    shutdown.argtypes, shutdown.restype = [], ctypes.c_int
                controls.append((get, put, shutdown))
                break
    return controls


#: serializes `single_blas_thread` and `threaded_blas` across threads, as
#: the counts and the pools are process-wide
_BLAS_PIN = threading.RLock()


@contextmanager
def single_blas_thread():
    """Hold every loaded OpenBLAS at one thread, and restore each library's
    previous count on exit, on error too. Yields whether any was found.

    The counts are process-wide, so callers in different threads take turns:
    if two pins overlapped, the later one would restore the pinned count.
    """
    # map scipy's OpenBLAS before the counts are read: a library first loaded
    # inside the pin would run on its threads
    import scipy.linalg  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    with _BLAS_PIN:
        saved = [(put, get()) for get, put, _ in _openblas_controls()]
        try:
            for put, _ in saved:
                put(1)
            yield bool(saved)
        finally:
            for put, count in saved:
                put(count)


@contextmanager
def threaded_blas():
    """The threaded region: OpenBLAS keeps its thread count, and on exit,
    on error too, every loaded pool is shut down so that its workers exit
    instead of spinning. Holds `_BLAS_PIN` throughout; with no OpenBLAS or
    no shutdown symbol found, taking the lock is all it does.
    """
    with _BLAS_PIN:
        try:
            yield
        finally:
            for _, _, shutdown in _openblas_controls():
                if shutdown is not None:
                    shutdown()
