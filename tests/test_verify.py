import json
import math
import threading

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg

import nbspectra.blas
import nbspectra.operators
import nbspectra.verify
from nbspectra.blas import single_blas_thread
from nbspectra.cli import main as cli_main
from nbspectra.errors import NearSingularError, SingularError, ZeroVectorError
from nbspectra.graphs import RegularGraph, sample_regular_hypergraph, sample_rsbm
from nbspectra.operators import nonbacktracking_matrix, oriented_index, reduced_nb_operator
from nbspectra.spectral import full_lifted_spectrum, lift_eigenvector_nb, symmetric_eigs
from nbspectra.verify import (
    LogDet,
    ihara_bass_check,
    ihara_bass_check_hyper,
    ihara_bass_checks,
    ihara_bass_report,
    ihara_bass_system,
    logdet,
    phase_distance,
    sample_z_points,
)

from conftest import IHARA_CORPUS, blas_counts, fresh_python, named_graph
from oracles import dense_logdet, eigen_residual, lift_eigenvalue, serial_ihara_bass_checks


# ------------------------------------------------------------------- logdet


def test_logdet_identity():
    for n in (1, 4, 9):
        ld = logdet(np.eye(n))
        assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
        assert ld.phase == pytest.approx(0.0, abs=1e-14)


def test_logdet_diag():
    ld = logdet(np.diag([2.0, 3.0]))
    assert ld.log_abs == pytest.approx(math.log(6), rel=1e-14)
    assert ld.phase == pytest.approx(0.0, abs=1e-14)


def test_logdet_rotation_2x2():
    # [[0,1],[-1,0]] has det = +1
    ld = logdet(np.array([[0.0, 1.0], [-1.0, 0.0]]))
    assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
    assert phase_distance(ld.phase, 0.0) <= 1e-12


def test_logdet_negative_det():
    ld = logdet(np.diag([-2.0, 3.0]))
    assert ld.log_abs == pytest.approx(math.log(6), rel=1e-14)
    assert phase_distance(ld.phase, math.pi) <= 1e-12


def test_logdet_complex_value():
    z = 1.3 + 0.7j
    ld = logdet(np.array([[z]]))
    assert ld.log_abs == pytest.approx(math.log(abs(z)), rel=1e-14)
    assert phase_distance(ld.phase, np.angle(z)) <= 1e-12


def test_logdet_permutation_invariance():
    rng = np.random.default_rng(3)
    M = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    perm = rng.permutation(12)
    P = np.eye(12)[perm]
    ld = logdet(M)
    ld2 = logdet(P @ M @ P.T)
    assert abs(ld.log_abs - ld2.log_abs) <= 1e-10
    assert phase_distance(ld.phase, ld2.phase) <= 1e-10


def test_logdet_singular():
    with pytest.raises(SingularError):
        logdet(np.zeros((3, 3)))


def test_logdet_rejects_a_non_square_matrix():
    with pytest.raises(ValueError, match="square"):
        logdet(np.ones((2, 3)))
    with pytest.raises(ValueError, match="square"):
        logdet(sp.csc_matrix((3, 2)))


def test_logdet_pivot_underflow_is_singular():
    # a nonzero pivot that SuperLU accepts, below the 1e-300 underflow floor
    with pytest.raises(SingularError, match="underflow"):
        logdet(np.diag([1.0, 1e-301]))


def test_logdet_passes_other_superlu_errors_on(monkeypatch):
    def broken(A):
        raise RuntimeError("superlu internal failure")

    monkeypatch.setattr(scipy.sparse.linalg, "splu", broken)
    with pytest.raises(RuntimeError, match="internal failure") as info:
        logdet(np.eye(2))
    assert not isinstance(info.value, SingularError)


def test_logdet_sparse_odd_permutation():
    # det of a permutation matrix is its sign; partial pivoting must undo the
    # permutation through perm_r, so a dropped row parity shows here
    perm = np.random.default_rng(7).permutation(40)
    if np.linalg.det(np.eye(40)[perm]) > 0:
        perm[[0, 1]] = perm[[1, 0]]
    P = sp.csc_matrix((np.ones(40), (np.arange(40), perm)), shape=(40, 40))
    ld = logdet(P)
    assert ld.log_abs == pytest.approx(0.0, abs=1e-14)
    assert phase_distance(ld.phase, math.pi) <= 1e-12


def test_logdet_sparse_zero_column():
    rows = [0, 1, 2, 3, 0, 2]
    cols = [0, 1, 3, 4, 1, 4]  # column 2 holds no entry
    M = sp.csc_matrix((np.ones(6), (rows, cols)), shape=(5, 5))
    with pytest.raises(SingularError):
        logdet(M)


#: z points off every spectrum of the oracle corpus
ORACLE_Z = (0.3 + 0.4j, -1.2 + 0.7j, 1.7 - 0.6j)


@pytest.mark.parametrize("name", IHARA_CORPUS + ["hyper923"])
def test_logdet_matches_dense_oracle(name, hyper923):
    # B - zI, reduced - zI and the A-polynomial; across these cases SuperLU's
    # row and column permutations are each odd in some and even in others.
    # hyper923 has |E| - n < 0.
    g = hyper923 if name == "hyper923" else named_graph(name)
    system = ihara_bass_system(g)
    for z in ORACLE_Z:
        for M in (system.lhs_matrix(z), *system.rhs_matrices(z)):
            ld = logdet(M)
            log_abs, phase = dense_logdet(M)
            assert abs(ld.log_abs - log_abs) <= 1e-12 * max(1.0, abs(log_abs))
            assert phase_distance(ld.phase, phase) <= 1e-10


def test_logdet_matches_slogdet():
    rng = np.random.default_rng(5)
    M = rng.normal(size=(20, 20)) + 1j * rng.normal(size=(20, 20))
    ld = logdet(M)
    sign, la = np.linalg.slogdet(M)
    assert ld.log_abs == pytest.approx(la, rel=1e-12)
    assert phase_distance(ld.phase, np.angle(sign)) <= 1e-10


# ------------------------------------------------------------- ihara-bass


@pytest.mark.parametrize("name", ["petersen", "hyper923"])
def test_system_builds_adjacency_once(monkeypatch, name, hyper923):
    # one build serves the eigensolve, the reduced matrix and the polynomial in A
    g = hyper923 if name == "hyper923" else named_graph(name)
    ref = reduced_nb_operator(g)
    calls = []
    build = nbspectra.operators.adjacency_csr

    def counted(module):
        def spy(h):
            calls.append(module)
            return build(h)

        return spy

    for module in (nbspectra.verify, nbspectra.operators, nbspectra.spectral):
        monkeypatch.setattr(module, "adjacency_csr", counted(module.__name__))
    system = ihara_bass_system(g)
    assert calls == ["nbspectra.verify"]
    # the shared A gives the reduced matrix that its own build gives, array for array
    for a, b in ((system.reduced.indptr, ref.indptr), (system.reduced.indices, ref.indices), (system.reduced.data, ref.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


@pytest.mark.parametrize("name", ["petersen", "hyper923", "rsbm"])
def test_system_eigenvalues_match_the_lifted_spectrum(name, hyper923):
    # the guard's eigenvalues are the spectrum's, bit for bit: the same CSR,
    # the same certified eigensolve, the same roots
    g = {"petersen": named_graph("petersen"), "hyper923": hyper923, "rsbm": sample_rsbm(40, 3, 1, 2)}[name]
    expected = full_lifted_spectrum(g).eigenvalues()
    mus = ihara_bass_system(g).mus
    assert mus.dtype == expected.dtype and mus.tobytes() == expected.tobytes()


@pytest.mark.parametrize("name", IHARA_CORPUS)
def test_ihara_bass_corpus_8_points(name):
    g = named_graph(name)
    records, ok = ihara_bass_report(g, trials=8, seed=11)
    assert len(records) == 8
    assert ok, [(r.z, r.mag_err, r.phase_err) for r in records if not r.ok]


def test_ihara_bass_n200():
    from nbspectra.graphs import sample_regular_graph

    g = sample_regular_graph(200, 3, 17)
    records, ok = ihara_bass_report(g, trials=8, seed=19)
    assert ok, [(r.z, r.mag_err, r.phase_err) for r in records if not r.ok]


def test_ihara_bass_k4_specific_point(k4):
    rec = ihara_bass_check(k4, 0.3 + 0.4j)
    assert rec.ok
    assert rec.mag_err <= 1e-8 * (1 + abs(rec.lhs.log_abs))
    assert rec.phase_err <= 1e-8


def test_ihara_bass_c3_exponent_vanishes(c3):
    # 2-regular: |E| = n, so det(B - zI) = det(reduced - zI) exactly
    rec = ihara_bass_check(c3, 2.0 + 0.0j)
    assert rec.ok
    assert abs(rec.lhs.log_abs - rec.rhs_reduced.log_abs) <= 1e-12


def test_ihara_bass_near_singular_guard(k4):
    spec = full_lifted_spectrum(k4)
    mu = spec.mus[0]  # = 2
    with pytest.raises(NearSingularError):
        ihara_bass_check(k4, mu + 1e-9)
    with pytest.raises(NearSingularError):
        ihara_bass_check(k4, 1.0 + 1e-9)


@pytest.mark.parametrize("n,d,k", [(9, 2, 3), (12, 3, 3), (8, 2, 4)])
def test_ihara_bass_hyper_corpus(n, d, k):
    h = sample_regular_hypergraph(n, d, k, 21)
    records, ok = ihara_bass_report(h, trials=8, seed=13)
    assert ok, [(r.z, r.mag_err, r.phase_err) for r in records if not r.ok]


def test_ihara_bass_hyper_specific_point(hyper923):
    rec = ihara_bass_check_hyper(hyper923, 0.5 + 0.5j)
    assert rec.ok


def test_ihara_bass_hyper_negative_exponent(hyper923):
    # (d=2, k=3): |E| - n = -n/3 < 0; identity still holds in log space
    assert len(hyper923.hyperedges) - hyper923.n < 0
    rec = ihara_bass_check_hyper(hyper923, 1.7 - 0.6j)
    assert rec.ok


def test_ihara_bass_hyper_k2_reduces_to_graph():
    h = sample_regular_hypergraph(8, 3, 2, 4)
    g = RegularGraph(n=8, d=3, edges=h.hyperedges)
    z = 0.4 + 1.1j
    rg = ihara_bass_check(g, z)
    rh = ihara_bass_check_hyper(h, z)
    assert rg.ok and rh.ok
    assert rg.lhs.log_abs == pytest.approx(rh.lhs.log_abs, rel=1e-10)
    assert phase_distance(rg.lhs.phase, rh.lhs.phase) <= 1e-10


def test_ihara_bass_hyper_guard(hyper923):
    with pytest.raises(NearSingularError):
        ihara_bass_check_hyper(hyper923, -(hyper923.k - 1.0) + 1e-8)


# ------------------------------------------------------------------ lanes


def _graph_file(tmp_path) -> str:
    g = tmp_path / "g.json"
    assert cli_main(["gen", "--model", "regular", "--n", "12", "--d", "3", "--seed", "4", "--out", str(g)]) == 0
    return str(g)


def test_openblas_found():
    counts = blas_counts()
    assert counts and all(c >= 1 for c in counts)


def test_pin_and_region_control_superlus_openblas_in_a_fresh_process():
    # scipy loads on first use; the pin finds the OpenBLAS that SuperLU calls
    # before scipy.sparse.linalg is loaded, and neither the eigensolve's region
    # nor the pin moves numpy's count
    code = """
import ctypes, os, sys
import numpy as np
import nbspectra.blas as blas
import nbspectra.spectral as spectral
import nbspectra.verify as verify
from nbspectra.graphs import sample_regular_graph

get, put, _ = blas._scipy_openblas()
print("scipy.sparse.linalg" not in sys.modules)
numpy_get = ctypes.CDLL(np._core._multiarray_umath.__file__, os.RTLD_NOLOAD).scipy_openblas_get_num_threads64_
counts, seen = (get(), numpy_get()), set()

def spy(module, name):
    original = getattr(module, name)
    setattr(module, name, lambda *args: seen.add((name, get(), numpy_get())) or original(*args))

spy(spectral, "_certify")
spy(verify, "logdet")
verify.ihara_bass_report(sample_regular_graph(12, 3, 4), trials=2, seed=1)
from scipy.sparse.linalg._dsolve import _superlu
superlu = ctypes.CDLL(_superlu.__file__, os.RTLD_NOLOAD).scipy_openblas_set_num_threads
print(*(ctypes.cast(f, ctypes.c_void_p).value for f in (put, superlu)))
print(sorted(seen) == [("_certify", *counts), ("logdet", 1, counts[1])], (get(), numpy_get()) == counts)
"""
    early, put, superlu, controlled, restored = fresh_python(code).split()
    assert early == "True" and put == superlu and controlled == restored == "True"


@pytest.mark.parametrize("name", ["petersen", "hyper923"])
def test_checks_match_serial_bit_for_bit(name, hyper923):
    g = hyper923 if name == "hyper923" else named_graph(name)
    system = ihara_bass_system(g)
    zs = sample_z_points(system, 6, 3)
    with single_blas_thread():
        serial = serial_ihara_bass_checks(system, zs)
    assert ihara_bass_checks(system, zs) == serial


def test_verify_pins_and_restores_blas_threads(tmp_path, monkeypatch, two_blas_threads):
    seen = []
    original = nbspectra.verify.logdet

    def spy(M):
        seen.append((threading.current_thread() is threading.main_thread(), blas_counts()))
        return original(M)

    monkeypatch.setattr(nbspectra.verify, "logdet", spy)
    assert cli_main(["verify", "--in", _graph_file(tmp_path), "--trials", "3", "--seed", "1"]) == 0
    assert len(seen) == 9
    assert sum(main for main, _ in seen) == 3  # det(B - zI) in the caller, the rest in the worker
    assert all(counts == [1] * len(two_blas_threads) for _, counts in seen)
    assert blas_counts() == two_blas_threads


def test_worker_lane_error_restores_blas_threads(tmp_path, capsys, monkeypatch, two_blas_threads):
    original = nbspectra.verify.logdet

    def failing(M):
        if threading.current_thread() is not threading.main_thread():
            raise SingularError("pivot magnitude underflow; matrix is singular")
        return original(M)

    monkeypatch.setattr(nbspectra.verify, "logdet", failing)
    assert cli_main(["verify", "--in", _graph_file(tmp_path), "--trials", "3", "--seed", "1"]) == 3
    assert "internal error: SingularError: pivot magnitude underflow" in capsys.readouterr().err
    assert blas_counts() == two_blas_threads


def test_caller_lane_error_waits_for_one_z_only(tmp_path, capsys, monkeypatch, two_blas_threads):
    worker_calls = []
    original = nbspectra.verify.logdet

    def failing(M):
        if threading.current_thread() is threading.main_thread():
            raise SingularError("pivot magnitude underflow; matrix is singular")
        worker_calls.append(M.shape)
        return original(M)

    monkeypatch.setattr(nbspectra.verify, "logdet", failing)
    assert cli_main(["verify", "--in", _graph_file(tmp_path), "--trials", "6", "--seed", "1"]) == 3
    assert "internal error: SingularError: pivot magnitude underflow" in capsys.readouterr().err
    assert len(worker_calls) == 2  # the reduced side of the first z, not of all six
    assert blas_counts() == two_blas_threads


def test_pins_from_two_threads_take_turns(two_blas_threads):
    held, release, entered = threading.Event(), threading.Event(), threading.Event()

    def first():
        with single_blas_thread():
            held.set()
            release.wait(10)

    def second():
        with single_blas_thread():
            entered.set()

    a = threading.Thread(target=first)
    a.start()
    assert held.wait(10)
    b = threading.Thread(target=second)
    b.start()
    assert not entered.wait(0.2)  # the second pin waits for the first to restore
    release.set()
    a.join(10)
    b.join(10)
    assert entered.is_set()
    assert blas_counts() == two_blas_threads


def test_concurrent_checks_restore_blas_threads(two_blas_threads):
    system = ihara_bass_system(named_graph("petersen"))
    zs = sample_z_points(system, 4, 3)
    results = [None, None]

    def run(i):
        results[i] = ihara_bass_checks(system, zs)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(30)
    assert results[0] == results[1] and all(r.ok for r in results[0])
    assert blas_counts() == two_blas_threads


def test_verify_without_openblas_runs_in_the_worker(tmp_path, capsys, monkeypatch):
    # with no OpenBLAS to pin, the lanes are the same: the reduced side still runs in the worker
    seen = []
    original = nbspectra.verify.logdet

    def spy(M):
        seen.append(threading.current_thread() is threading.main_thread())
        return original(M)

    monkeypatch.setattr(nbspectra.blas, "_scipy_openblas", lambda: None)
    monkeypatch.setattr(nbspectra.verify, "logdet", spy)
    assert cli_main(["verify", "--in", _graph_file(tmp_path), "--trials", "4", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["all_ok"] and doc["trials"] == 4
    assert len(seen) == 12 and sum(seen) == 4  # det(B - zI) in the caller, the rest in the worker


def test_sample_z_points_respect_guard(k4):
    system = ihara_bass_system(k4)
    zs = sample_z_points(system, 16, 3)
    mus = full_lifted_spectrum(k4).eigenvalues()
    for z in zs:
        assert 0.1 <= abs(z) <= 2 * math.sqrt(3) + 1e-12
        assert np.min(np.abs(mus - z)) >= 1e-6


def test_sample_z_points_exhausted(k4, monkeypatch):
    system = ihara_bass_system(k4)
    # a guard wider than the annulus leaves no z to sample
    monkeypatch.setattr(nbspectra.verify, "GUARD_RADIUS", 100.0)
    with pytest.raises(NearSingularError, match="could not sample"):
        sample_z_points(system, 2, 3)


def test_sample_z_points_deterministic(k4):
    system = ihara_bass_system(k4)
    assert sample_z_points(system, 5, 9) == sample_z_points(system, 5, 9)


# --------------------------------------------------------- eigen_residual


def test_eigen_residual_identity():
    v = np.ones(4) / 2.0
    assert eigen_residual(np.eye(4), 1.0, v) == 0.0


def test_eigen_residual_perron(k4):
    B = nonbacktracking_matrix(k4)
    ones = np.ones(B.shape[0])
    assert eigen_residual(B, float(k4.d - 1), ones) <= 1e-15


def test_eigen_residual_c3_cube_root(c3):
    lams, V, _ = symmetric_eigs(np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))
    mu, _ = lift_eigenvalue(lams[1], 2)
    idx = oriented_index(c3)
    w = lift_eigenvector_nb(V[:, 1], mu, idx)
    B = nonbacktracking_matrix(c3, idx)
    assert eigen_residual(B, mu, w) <= 1e-12


def test_eigen_residual_zero_vector():
    with pytest.raises(ZeroVectorError):
        eigen_residual(np.eye(3), 1.0, np.zeros(3))


def test_logdet_addition_wraps_phase():
    a = LogDet(1.0, 3.0)
    b = LogDet(2.0, 3.0)
    s = a + b
    assert s.log_abs == pytest.approx(3.0)
    assert -math.pi < s.phase <= math.pi
