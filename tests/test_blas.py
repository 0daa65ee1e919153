"""blas.py's threaded region: the full eigensolve keeps scipy's OpenBLAS
threads and parks that pool when it ends, and no other."""

import os
import threading

import numpy as np
import pytest

import nbspectra.blas
import nbspectra.spectral
from conftest import blas_counts, fresh_python
from nbspectra.blas import _scipy_openblas, threaded_blas
from nbspectra.graphs import sample_regular_graph, sample_rsbm
from nbspectra.rsbm import insider_gap_report, recover_communities
from nbspectra.spectral import full_lifted_spectrum


def test_region_parks_the_pool_on_exit_and_on_error(monkeypatch):
    parked = []
    pool = (lambda: 2, lambda count: None, lambda: parked.append(1))
    monkeypatch.setattr(nbspectra.blas, "_scipy_openblas", lambda: pool)
    with threaded_blas():
        assert parked == [] and not _pin_free()
    assert parked == [1] and _pin_free()
    with pytest.raises(RuntimeError, match="injected"):
        with threaded_blas():
            raise RuntimeError("injected")
    assert parked == [1, 1]
    # a pool without the shutdown symbol: the region only takes the lock
    monkeypatch.setattr(nbspectra.blas, "_scipy_openblas", lambda: pool[:2] + (None,))
    with threaded_blas():
        assert not _pin_free()
    assert parked == [1, 1] and _pin_free()


def _pin_free() -> bool:
    """Whether another thread could take blas._BLAS_PIN right now."""
    free = []

    def probe():
        got = nbspectra.blas._BLAS_PIN.acquire(blocking=False)
        free.append(got)
        if got:
            nbspectra.blas._BLAS_PIN.release()

    thread = threading.Thread(target=probe)
    thread.start()
    thread.join(10)
    assert not thread.is_alive()
    return free[0]


def _digest(spec) -> bytes:
    return b"".join(
        np.ascontiguousarray(a).tobytes()
        for a in (spec.lams, spec.mus, spec.mus_prime, spec.residual_u, spec.residual_u_prime, spec.V)
    )


def test_region_without_openblas_only_locks(monkeypatch):
    g = sample_regular_graph(60, 3, 1)
    expected = _digest(full_lifted_spectrum(g))
    held, certify = [], nbspectra.spectral._certify

    def spy(*args):
        held.append(not _pin_free())
        return certify(*args)

    monkeypatch.setattr(nbspectra.blas, "_scipy_openblas", lambda: None)
    monkeypatch.setattr(nbspectra.spectral, "_certify", spy)
    assert _digest(full_lifted_spectrum(g)) == expected
    assert held == [True] and _pin_free()


def test_outlier_eigs_never_enters_the_region(monkeypatch, two_blas_threads):
    # recovery and the insider report stay pinned throughout; only the
    # fallback full solve, outside the pin, enters the region
    entered, region = [], nbspectra.spectral.threaded_blas

    def spy():
        entered.append(blas_counts())
        return region()

    monkeypatch.setattr(nbspectra.spectral, "threaded_blas", spy)
    g = sample_rsbm(400, 12, 4, 0)
    assert recover_communities(g).exact
    assert insider_gap_report(g).specials == (15.0, 1.0, 5.0, 3.0)
    assert entered == []
    assert len(nbspectra.spectral.outlier_eigs(np.diag(np.arange(1.0, 41.0)), 0.5, 1.0)[0]) == 40
    assert entered == [two_blas_threads]


LIFETIME = """
import os
import numpy as np
import nbspectra.blas as blas
from nbspectra.graphs import sample_regular_graph
from nbspectra.spectral import full_lifted_spectrum

def tasks():
    return len(os.listdir("/proc/self/task"))

X = np.ones((400, 400))
X @ X  # numpy's pool has run
numpy_tasks = tasks()  # counted before scipy loads its OpenBLAS
count = blas._scipy_openblas()[0]()
full_lifted_spectrum(sample_regular_graph(600, 4, 1))
print(tasks() - numpy_tasks, numpy_tasks > 1, blas._scipy_openblas()[0]() == count)
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="OpenBLAS starts no workers on one core")
def test_full_eigensolve_leaves_no_blas_worker():
    # scipy's workers exit when the eigensolve ends, instead of spinning out
    # their timeout, and its thread count stays; numpy's workers are untouched
    found = _scipy_openblas()
    if found is None or found[2] is None:
        pytest.skip("scipy links no OpenBLAS with blas_thread_shutdown_")
    assert fresh_python(LIFETIME).split() == ["0", "True", "True"]


HANG = """
import faulthandler, threading
import numpy as np
from nbspectra.graphs import sample_regular_graph
from nbspectra.operators import adjacency_csr
from nbspectra.spectral import symmetric_eigs

faulthandler.dump_traceback_later(15, exit=True)  # a hang exits 1 here
A = adjacency_csr(sample_regular_graph(300, 4, 1)).toarray()
X = np.random.default_rng(0).random((400, 400))
stop, products = threading.Event(), []

def multiply():
    while not stop.is_set():
        X @ X.T
        products.append(1)

thread = threading.Thread(target=multiply)
thread.start()
for _ in range(30):
    symmetric_eigs(A)
stop.set()
thread.join()
print(len(products))
"""


def test_eigensolves_beside_a_numpy_thread_leave_it_running():
    # a library caller multiplies with numpy on another thread while the main
    # thread runs threaded eigensolves. A region that also parked numpy's pool
    # hung that thread in 10 of 10 runs of this size; parking scipy's alone,
    # the child takes 1.5-1.8 s on a 2-core Xeon VM, with 146-211 products
    assert int(fresh_python(HANG)) >= 30


CONCURRENT = """
from concurrent.futures import ThreadPoolExecutor
import numpy as np
from nbspectra.graphs import sample_regular_graph, sample_rsbm
from nbspectra.rsbm import recover_communities
from nbspectra.spectral import full_lifted_spectrum

graphs = [sample_regular_graph(600, 4, seed) for seed in (1, 2)]
rsbm = sample_rsbm(400, 12, 4, 0)

def digest(spec):
    arrays = (spec.lams, spec.mus, spec.mus_prime, spec.residual_u, spec.residual_u_prime, spec.V)
    return b"".join(np.ascontiguousarray(a).tobytes() for a in arrays)

def solves():
    return [digest(full_lifted_spectrum(g)) for g in graphs * 2]

def recoveries():
    return [recover_communities(rsbm) for _ in range(3)]  # each under `outlier_eigs`' pin

serial, serial_recovery = solves(), recover_communities(rsbm)
with ThreadPoolExecutor(max_workers=3) as pool:
    runs = [pool.submit(solves), pool.submit(solves), pool.submit(recoveries)]
    a, b, c = (run.result() for run in runs)
print(a == serial, b == serial, c == [serial_recovery] * 3)
"""


def test_threaded_eigensolves_beside_a_pin_finish_bit_for_bit():
    # two threads park the pools while a third holds the pin; a deadlock
    # fails through the fresh interpreter's timeout instead of hanging the suite
    assert fresh_python(CONCURRENT).split() == ["True", "True", "True"]
