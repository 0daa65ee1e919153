"""The one BLAS-thread policy: which calls may use OpenBLAS's threads.

The policy controls one library: the OpenBLAS that scipy's LAPACK links,
which LAPACK, ARPACK and SuperLU share. Every call it governs runs there.
numpy links an OpenBLAS of its own, which the policy leaves alone: parking
numpy's pool while another thread of the caller ran a numpy product on it
hung that thread.

Only the dense eigensolve, `spectral._eigh` and its `dsyrk` certificate,
runs at OpenBLAS's default thread count, inside `threaded_blas()`. There
the second thread cuts the wall time by about 40% (1.5-2.0 s -> 0.9-1.0 s
at (2000,5) on a 2-core Xeon VM).

After a threaded call, each OpenBLAS worker busy-waits for its thread
timeout before it sleeps: about 0.13 s of CPU on the same machine, spent
beside whatever the caller does next. So `threaded_blas()` parks the pool
on exit: it calls `blas_thread_shutdown_`, whose workers then exit at once,
and OpenBLAS starts them again, at the same thread count, on the next
threaded call. The region holds `_BLAS_PIN`, as the pin does, because a
shutdown that overlaps another thread's call on the same pool can hang:
without the lock, two audits on two Python threads hung with one thread in
a futex wait and a worker spinning. The lock orders regions and pins only:
a threaded scipy BLAS or LAPACK call that another thread makes outside
both, at the same time, is not covered.

Everything else runs under `single_blas_thread()`: the sparse LU
factorizations of `verify` (SuperLU hands its small supernodal panels to
BLAS) and `spectral.outlier_eigs`'s inertia count, Lanczos solve and
certificate. On RSBM (12,4) recovery at n = 1000, 1500, 2000 and 4000 the
second thread saved 2%, 21%, 17% and 16% of the wall time for 1.7-1.9
times the CPU, on the same machine. No size came near the eigensolve's
saving, so there is no size switch. The pin parks nothing: setting a
thread count starts a parked pool's workers again, so a park at every pin
slowed RSBM recovery, whose many short pins then restarted the pool each
time.
"""

from __future__ import annotations

import ctypes
import functools
import os
import threading
from contextlib import contextmanager


@functools.cache
def _scipy_openblas():
    """(get, set, shutdown) of the OpenBLAS that scipy's LAPACK links: its
    thread-count functions and its `blas_thread_shutdown_` (None where the
    build does not export it); None where scipy links no such OpenBLAS.

    The symbols are looked up through the handle of scipy's LAPACK module,
    so dlsym searches that module's dependencies and finds the library
    itself, not numpy's, whose 64-bit-integer build exports only its
    ``…64_`` names. ``openblas_set_num_threads_local`` is not used: it
    changes the global count too.
    """
    from scipy.linalg import cython_lapack

    lib = ctypes.CDLL(cython_lapack.__file__, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
    try:
        get, put = lib.scipy_openblas_get_num_threads, lib.scipy_openblas_set_num_threads
    except AttributeError:
        return None
    get.argtypes, get.restype = [], ctypes.c_int
    put.argtypes, put.restype = [ctypes.c_int], None
    shutdown = getattr(lib, "blas_thread_shutdown_", None)
    if shutdown is not None:
        shutdown.argtypes, shutdown.restype = [], ctypes.c_int
    return get, put, shutdown


#: serializes `single_blas_thread` and `threaded_blas` across threads, as
#: the count and the pool are process-wide
_BLAS_PIN = threading.RLock()


@contextmanager
def single_blas_thread():
    """Hold scipy's OpenBLAS at one thread, and restore its previous count
    on exit, on error too; where no such OpenBLAS is found, only take the lock.

    The count is process-wide, so callers in different threads take turns:
    if two pins overlapped, the later one would restore the pinned count.
    """
    found = _scipy_openblas()
    with _BLAS_PIN:
        if found is None:
            yield
            return
        get, put, _ = found
        count = get()
        try:
            put(1)
            yield
        finally:
            put(count)


@contextmanager
def threaded_blas():
    """The threaded region: scipy's OpenBLAS keeps its thread count, and on
    exit, on error too, its pool is shut down so that the workers exit
    instead of spinning. Holds `_BLAS_PIN` throughout; with no OpenBLAS or
    no shutdown symbol found, taking the lock is all it does.
    """
    found = _scipy_openblas()
    with _BLAS_PIN:
        try:
            yield
        finally:
            if found is not None and found[2] is not None:
                found[2]()
