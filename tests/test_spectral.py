import dataclasses
import json
import math
import sys

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import lapack

import nbspectra.spectral
from nbspectra.cli import main as cli_main
from nbspectra.errors import ConvergenceError, DegenerateError, TrivialEigenvalueError, ZeroVectorError
from nbspectra.graphs import sample_regular_graph, sample_regular_hypergraph, sample_rsbm
from nbspectra.io import write_graph
from nbspectra.operators import (
    adjacency_csr,
    adjacency_matrix,
    nonbacktracking_matrix,
    oriented_index,
    reduced_nb_matrix,
)
from nbspectra.rsbm import insider_gap_report, recover_communities
from nbspectra.spectral import (
    INERTIA_GAP,
    R_BLOCK,
    LiftModel,
    _count_beyond,
    _quad_roots,
    deterministic_deloc_bound,
    full_lifted_spectrum,
    lift_eigenvector_nb,
    nb_norm_sq,
    outlier_eigs,
    spectrum_audit,
    symmetric_eigs,
)

from conftest import ORACLE_CORPUS, fresh_python, named_graph
from oracles import (
    charpoly_roots,
    lift_eigenvalue,
    lift_eigenvalue_hyper,
    lift_eigenvector_reduced,
    multiset_match_distance,
    pairwise_lifted_spectrum,
    pairwise_spectrum_document,
    quad_roots,
)


# ---------------------------------------------------------------- eigensolver


def test_eigs_k4(k4):
    lams, _, _ = symmetric_eigs(adjacency_matrix(k4))
    assert np.allclose(lams, [3, -1, -1, -1])


def test_eigs_c3(c3):
    lams, _, _ = symmetric_eigs(adjacency_matrix(c3))
    assert np.allclose(lams, [2, -1, -1])


def test_eigs_perron_vector_is_constant(sampled_graphs):
    g = sampled_graphs[(20, 4)]
    lams, V, _ = symmetric_eigs(adjacency_matrix(g))
    assert lams[0] == pytest.approx(4.0, abs=1e-12)
    v = V[:, 0] * np.sign(V[0, 0])
    assert np.allclose(v, 1.0 / math.sqrt(g.n), atol=1e-10)


def test_eigs_sorted_descending(sampled_graphs):
    lams = symmetric_eigs(adjacency_matrix(sampled_graphs[(30, 3)]))[0].tolist()
    assert lams == sorted(lams, reverse=True)


@pytest.mark.parametrize(
    "name, edge, ks",
    [
        # 3 above; the triple -1 sits at the edge, so the count below it is n - 1
        ("K4", 1.0, [1]),
        # 3 and the triple 1 above, the triple -1 and -3 below: where the
        # count is 4, one solve with k = 4 returns every copy
        ("cube", 0.0, [4, 4]),
    ],
)
def test_extreme_eigs_falls_back_to_full_solve(eigsh_calls, name, edge, ks):
    # the two sides of the edge give the whole spectrum: a side whose count
    # reaches n - 1 is the full solve, any other one Lanczos call for its count
    A = adjacency_matrix(named_graph(name))
    part = np.concatenate([outlier_eigs(A, edge, side)[0] for side in (1.0, -1.0)])
    assert eigsh_calls == ks
    assert part == pytest.approx(symmetric_eigs(A)[0], abs=1e-12)


def test_outlier_eigs_falls_back_to_full_solve(eigsh_calls, k4):
    # K4 has eigenvalues 3, -1, -1, -1: three below -0.5 is n - 1, one above is not
    A = adjacency_matrix(k4)
    full = symmetric_eigs(A)[0]
    below = outlier_eigs(A, 0.5, -1.0)
    assert eigsh_calls == []
    assert np.array_equal(below[0], full[1:])
    above = outlier_eigs(A, 0.5, 1.0)
    assert eigsh_calls == [1]
    assert above[0] == pytest.approx(full[:1], abs=1e-12)


def test_outlier_eigs_both_sides_match_full_solve(eigsh_calls):
    # (60, 2, 9): Perron 11 above the bulk edge 2 sqrt(10), d1-d2 = -7 below
    A = adjacency_matrix(sample_rsbm(60, 2, 9, 0))
    part = np.concatenate([outlier_eigs(A, 2.0 * math.sqrt(10), side)[0] for side in (1.0, -1.0)])
    full = [lam for lam in symmetric_eigs(A)[0] if abs(lam) > 2.0 * math.sqrt(10)]
    assert len(eigsh_calls) == 2 and sum(eigsh_calls) == len(part)
    assert np.allclose(part, full, rtol=0, atol=1e-9)


# Sizes above LAPACK's block size of 64, so the blocked LDL^T runs. Shifts at
# both bulk edges; the (300,2,3) hypergraph has n - nd/k = 100 eigenvalues
# exactly -2, with shifts 1e-7 ||A|| either side of them.
@pytest.mark.parametrize(
    "g, shifts",
    [
        (sample_rsbm(400, 12, 4, 0), [2.0 * math.sqrt(15), -2.0 * math.sqrt(15)]),
        (sample_regular_graph(300, 5, 1), [4.0, -4.0]),
        (
            sample_regular_hypergraph(300, 2, 3, 1),
            [1.0 + 2.0 * math.sqrt(2), 1.0 - 2.0 * math.sqrt(2), -2.0 + 4.0 * INERTIA_GAP, -2.0 - 4.0 * INERTIA_GAP],
        ),
    ],
    ids=["rsbm-400-12-4", "regular-300-5", "hypergraph-300-2-3"],
)
def test_count_beyond_matches_eigvalsh(g, shifts):
    A = adjacency_csr(g).astype(np.float64)
    lams = np.linalg.eigvalsh(adjacency_matrix(g))
    for s in shifts:
        assert np.min(np.abs(lams - s)) > 1e-9  # each count is well posed
        assert _count_beyond(A, s, 1.0) == np.sum(lams > s)
        assert _count_beyond(A, s, -1.0) == np.sum(lams < s)


def test_count_beyond_uses_blocked_workspace(monkeypatch):
    # dsytrf's default lwork = n would fall back to the unblocked dsytf2
    lworks = []
    dsytrf = lapack.dsytrf

    def spy(a, **kw):
        lworks.append((a.shape[0], kw.get("lwork")))
        return dsytrf(a, **kw)

    monkeypatch.setattr(lapack, "dsytrf", spy)
    g = sample_rsbm(400, 12, 4, 0)
    recover_communities(g)  # one count, on the side of d1-d2
    insider_gap_report(g)  # one count on each side
    assert len(lworks) == 3
    for n, lwork in lworks:
        assert lwork is not None and lwork >= lapack.dsytrf_lwork(n)[0] > n


def _corrupt_eigh(monkeypatch, corrupt):
    """Patch `_eigh` so that it hands (vals, V) through `corrupt` first."""
    eigh = nbspectra.spectral._eigh

    def corrupted(As):
        vals, V = eigh(As)
        corrupt(vals, V)
        return vals, V

    monkeypatch.setattr(nbspectra.spectral, "_eigh", corrupted)


def test_certificate_catches_residual_in_last_block(monkeypatch):
    # swapping two eigenvectors keeps V orthonormal; only the last R block's
    # residuals grow, so a block loop that stopped short would pass them
    A = adjacency_matrix(sample_regular_graph(R_BLOCK + 40, 3, 2))
    vals = symmetric_eigs(A)[0]
    assert vals[-2] - vals[-1] > 1e-3

    def swap_last_two(vals, V):
        V[:, [-2, -1]] = V[:, [-1, -2]]

    _corrupt_eigh(monkeypatch, swap_last_two)
    with pytest.raises(ConvergenceError, match="eigen-residual"):
        symmetric_eigs(A)


def test_certificate_catches_non_orthonormal_vectors(monkeypatch):
    def stretch_one(vals, V):
        V[:, 3] *= 1.0 + 1e-6  # residual 1e-6 |lambda|, defect 2e-6

    _corrupt_eigh(monkeypatch, stretch_one)
    with pytest.raises(ConvergenceError, match="orthonormality defect"):
        symmetric_eigs(adjacency_matrix(sample_regular_graph(30, 3, 1)))


def test_symmetric_eigs_leaves_callers_array_alone(monkeypatch):
    # an F-ordered float64 array is the one layout LAPACK could overwrite
    # without a copy; the eigensolve may overwrite only its own buffer
    A = np.asfortranarray(adjacency_matrix(sample_regular_graph(30, 3, 1)), dtype=np.float64)
    before = A.copy()
    buffers = []
    eigh = scipy.linalg.eigh

    def spy(a, **kw):
        buffers.append((a, kw.get("overwrite_a")))
        return eigh(a, **kw)

    monkeypatch.setattr(scipy.linalg, "eigh", spy)
    symmetric_eigs(A)
    assert np.array_equal(A, before)
    [(a, overwrite)] = buffers
    assert overwrite and not np.shares_memory(a, A)


# Peak RSS of one fresh process per size. VmHWM, not ru_maxrss: a spawned
# child's ru_maxrss starts at its parent's peak, which exec carries over.
PEAK_RSS = """
import sys
import scipy.linalg, scipy.linalg.blas, scipy.sparse
from nbspectra.graphs import sample_regular_graph
from nbspectra.spectral import full_lifted_spectrum
full_lifted_spectrum(sample_regular_graph(int(sys.argv[1]), 5, 7))
print(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))  # kB
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
def test_full_lifted_spectrum_peak_grows_under_4_n_squared():
    # Growth of the peak from n = 1000 to 2000 in doubles per n^2, which
    # cancels the process base: measured 3.13-3.15 (92.5 and 166.4 MB, one
    # or two OpenBLAS threads, 2-core Xeon VM), 5.13 when np.linalg.eigh
    # copied the dense A. It is the in-place dsyevd (A and about 2 n^2 of
    # workspace); 4.0 leaves a 27% margin and still fails the copying solve.
    peak = {n: int(fresh_python(PEAK_RSS, str(n))) * 1024 for n in (1000, 2000)}
    growth = (peak[2000] - peak[1000]) / (8 * (2000**2 - 1000**2))
    assert growth <= 4.0


# ------------------------------------------------------------ eigenvalue lift


def _bits(z) -> bytes:
    return np.asarray(z, dtype=np.complex128).tobytes()


def test_vectorized_roots_match_scalar_bit_for_bit():
    # bulk, real, edge-snapped (2 sqrt(p) +- 1e-15) and just-unsnapped values, both signs and -0.0
    p = 4.0
    edge = 2.0 * math.sqrt(p)
    t = np.array(
        [0.0, -0.0, 1.3, -1.3, 5.0, -5.0, 12.0, -12.0, edge, -edge, edge + 1e-15, edge - 1e-15,
         edge + 1e-6, -edge - 1e-6, edge - 1e-6, 1e-300, -3.999999999999]
    )
    mu, mup = _quad_roots(t, p)
    for i, ti in enumerate(t):
        ref = quad_roots(float(ti), p)
        assert _bits(mu[i]) == _bits(ref[0]) and _bits(mup[i]) == _bits(ref[1]), ti


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.floats(min_value=-50.0, max_value=50.0, allow_nan=False), min_size=1, max_size=20),
    st.floats(min_value=0.5, max_value=100.0),
)
def test_vectorized_roots_match_scalar_property(ts, p):
    mu, mup = _quad_roots(np.asarray(ts), p)
    ref = [quad_roots(t, p) for t in ts]
    assert _bits(mu) == _bits([r[0] for r in ref]) and _bits(mup) == _bits([r[1] for r in ref])


def test_roots_snapped_inside_tolerance_are_a_bulk_pair():
    # the audit's bulk test is mu' == conj(mu): a positive discriminant within
    # the snap tolerance (1e-13 of 4q) is a double root on the circle, one just
    # past it two distinct real roots
    for model in (LiftModel(5), LiftModel(3, 3)):  # q = 4, the edge at t = 4
        edge = model.shift + 2.0 * model.radius
        for lam, bulk in ((edge + 1e-13, True), (edge + 1e-12, False)):
            t = lam - model.shift
            assert 0.0 < t * t - 4.0 * model.q
            mu, mup = (complex(r[0]) for r in model.roots([lam]))
            assert (mup == mu.conjugate()) is bulk
            assert mu.imag == mup.imag == 0.0
            assert (mu.real > mup.real) is not bulk



def test_lift_perron_pair():
    for d in (2, 3, 5, 12):
        mu, mup = lift_eigenvalue(float(d), d)
        assert mu == pytest.approx(d - 1)
        assert mup == pytest.approx(1.0)


def test_lift_zero_lambda():
    mu, mup = lift_eigenvalue(0.0, 3)
    assert mu == pytest.approx(1j * math.sqrt(2))
    assert mup == pytest.approx(-1j * math.sqrt(2))


def test_lift_double_root():
    d = 5
    lam = 2 * math.sqrt(d - 1)
    mu, mup = lift_eigenvalue(lam, d)
    assert mu == pytest.approx(mup)
    assert mu == pytest.approx(math.sqrt(d - 1))


def test_lift_requires_d_ge_2():
    with pytest.raises(DegenerateError):
        lift_eigenvalue(0.0, 1)


def test_lift_hyper_perron():
    for d, k in ((2, 3), (3, 3), (8, 8)):
        mu, mup = lift_eigenvalue_hyper(float(d * (k - 1)), d, k)
        assert mu == pytest.approx((d - 1) * (k - 1))
        assert mup == pytest.approx(1.0)


def test_lift_hyper_k2_reduces_to_graph():
    for lam in (-2.5, 0.0, 1.7, 4.0):
        assert lift_eigenvalue_hyper(lam, 5, 2) == lift_eigenvalue(lam, 5)


def test_lift_hyper_pure_imaginary_at_shift():
    d, k = 4, 3
    mu, mup = lift_eigenvalue_hyper(float(k - 2), d, k)
    r = math.sqrt((d - 1) * (k - 1))
    assert mu == pytest.approx(1j * r)
    assert mup == pytest.approx(-1j * r)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=60),
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
)
def test_lift_vieta_and_branch(d, lam_frac):
    lam = lam_frac * d / 60.0  # eigenvalues of a d-regular graph live in [-d, d]
    mu, mup = lift_eigenvalue(lam, d)
    assert abs(mu + mup - lam) <= 1e-10 * max(1.0, abs(lam))
    assert abs(mu * mup - (d - 1)) <= 1e-10 * (d - 1)
    assert mu.real >= mup.real - 1e-14
    if lam * lam < 4 * (d - 1):
        assert abs(abs(mu) - math.sqrt(d - 1)) <= 1e-10
        assert mu.imag >= 0


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=2, max_value=20),
    st.integers(min_value=2, max_value=20),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
def test_lift_hyper_vieta(d, k, t):
    lam = t * d * (k - 1)
    mu, mup = lift_eigenvalue_hyper(lam, d, k)
    q = (d - 1) * (k - 1)
    assert abs(mu + mup - (lam - k + 2)) <= 1e-10 * max(1.0, abs(lam) + k)
    assert abs(mu * mup - q) <= 1e-10 * q
    if (lam - k + 2) ** 2 < 4 * q:
        assert abs(abs(mu) - math.sqrt(q)) <= 1e-10


# --------------------------------------------------------- reduced-lift u


def test_reduced_lift_perron_structure(k4):
    n, d = 4, 3
    v1 = np.full(n, 1.0 / math.sqrt(n))
    u = lift_eigenvector_reduced(v1, d - 1.0, d)
    assert np.allclose(u[:n] / u[0], np.ones(n))
    assert np.allclose(u[n:] / u[n], np.ones(n))
    assert np.linalg.norm(u) == pytest.approx(1.0, abs=1e-12)


def test_reduced_lift_norm_factor_on_circle():
    d, n = 4, 10
    rng = np.random.default_rng(0)
    v = rng.normal(size=n)
    v /= np.linalg.norm(v)
    mu = 1j * math.sqrt(d - 1)
    raw = np.concatenate([v.astype(complex), (mu / (d - 1)) * v])
    assert np.linalg.norm(raw) == pytest.approx(math.sqrt(1 + 1 / (d - 1)), abs=1e-12)


def test_reduced_lift_residual_against_dense_operator(small_graph):
    g = small_graph
    Bt = reduced_nb_matrix(g)
    spec = full_lifted_spectrum(g)
    for i in range(spec.n):
        for mu in (spec.mus[i], spec.mus_prime[i]):
            u = lift_eigenvector_reduced(spec.V[:, i], mu, g.d)
            assert np.linalg.norm(Bt @ u - mu * u) <= 1e-10


def test_reduced_lift_residual_hyper(hyper923):
    Bt = reduced_nb_matrix(hyper923)
    spec = full_lifted_spectrum(hyper923)
    for i in range(spec.n):
        for mu in (spec.mus[i], spec.mus_prime[i]):
            u = lift_eigenvector_reduced(spec.V[:, i], mu, hyper923.d)
            assert np.linalg.norm(Bt @ u - mu * u) <= 1e-10


def test_reduced_lift_ratio_never_exceeds_v(sampled_graphs):
    spec = full_lifted_spectrum(sampled_graphs[(20, 4)])
    assert np.all(spec.ratio_u <= spec.ratio_v + 1e-12)
    assert np.all(spec.ratio_u_prime <= spec.ratio_v + 1e-12)


def test_reduced_lift_rejects_d1():
    with pytest.raises(DegenerateError):
        lift_eigenvector_reduced(np.ones(3), 1.0, 1)


# --------------------------------------------------------------- edge lift w


def test_nb_lift_k4_norm_by_explicit_summation(k4):
    # lambda = -1, d = 3: sum over the 12 oriented edges must equal d^2 - lambda^2 = 8
    lams, V, _ = symmetric_eigs(adjacency_matrix(k4))
    lam, v = lams[1], V[:, 1]
    assert lam == pytest.approx(-1.0)
    mu, _ = lift_eigenvalue(lam, 3)
    idx = oriented_index(k4)
    tails, partners = idx
    total = 0.0
    for u_, p in zip(tails, partners[:, 0]):
        total += abs(mu * v[tails[p]] - v[u_]) ** 2
    assert total == pytest.approx(8.0, rel=1e-10)
    w = lift_eigenvector_nb(v, mu, idx)
    assert np.linalg.norm(w) ** 2 == pytest.approx(8.0, rel=1e-10)


def test_nb_lift_c3_residual_machine_precision(c3):
    lams, V, _ = symmetric_eigs(adjacency_matrix(c3))
    assert lams[1] == pytest.approx(-1.0)
    mu, _ = lift_eigenvalue(lams[1], 2)
    idx = oriented_index(c3)
    w = lift_eigenvector_nb(V[:, 1], mu, idx)
    B = nonbacktracking_matrix(c3, idx).toarray()
    assert np.linalg.norm(B @ w - mu * w) <= 1e-12


def test_nb_lift_perron_ratio(sampled_graphs):
    g = sampled_graphs[(30, 3)]
    v1 = np.full(g.n, 1.0 / math.sqrt(g.n))
    idx = oriented_index(g)
    w = lift_eigenvector_nb(v1, float(g.d - 1), idx)
    ratio = np.max(np.abs(w)) / np.linalg.norm(w)
    assert ratio == pytest.approx(1.0 / math.sqrt(g.n * g.d), abs=1e-15)


def test_nb_lift_rejects_trivial_mu():
    idx = oriented_index(named_graph("K4"))
    v = np.ones(4) / 2.0
    with pytest.raises(TrivialEigenvalueError):
        lift_eigenvector_nb(v, 1.0, idx)
    with pytest.raises(TrivialEigenvalueError):
        lift_eigenvector_nb(v, -1.0, idx)


def test_nb_lift_rejects_zero_vector():
    idx = oriented_index(named_graph("K4"))
    with pytest.raises(ZeroVectorError):
        lift_eigenvector_nb(np.zeros(4), 2.0, idx)


def test_nb_lift_hyper_matches_graph_at_k2():
    h = sample_regular_hypergraph(8, 3, 2, 4)
    from nbspectra.graphs import RegularGraph

    g = RegularGraph(n=8, d=3, edges=h.hyperedges)
    lams, V, _ = symmetric_eigs(adjacency_matrix(g))
    mu, _ = lift_eigenvalue(lams[3], 3)
    wg = lift_eigenvector_nb(V[:, 3], mu, oriented_index(g))
    # same index: (v, rank of edge) sorts like oriented (v, other) here, so the same bits
    wh = lift_eigenvector_nb(V[:, 3], mu, oriented_index(h))
    assert wh.shape == wg.shape and np.array_equal(wh, wg)
    assert np.linalg.norm(wg) ** 2 == pytest.approx(nb_norm_sq(lams[3], mu, 3, 2), rel=1e-12)


def test_nb_lift_hyper_residual(hyper923):
    h = hyper923
    idx = oriented_index(h)
    B = nonbacktracking_matrix(h, idx)
    spec = full_lifted_spectrum(h)
    for lam, mu, v in zip(spec.lams[1:], spec.mus[1:], spec.V.T[1:]):
        w = lift_eigenvector_nb(v, mu, idx)
        assert np.linalg.norm(B @ w - mu * w) / np.linalg.norm(w) <= 1e-10
        exp = nb_norm_sq(lam, mu, h.d, h.k)
        assert np.linalg.norm(w) ** 2 == pytest.approx(exp, rel=1e-8)


def test_nb_lift_hyper_rejects_trivials(hyper923):
    idx = oriented_index(hyper923)
    v = np.ones(9) / 3.0
    with pytest.raises(TrivialEigenvalueError):
        lift_eigenvector_nb(v, 1.0, idx)
    with pytest.raises(TrivialEigenvalueError):
        lift_eigenvector_nb(v, -(hyper923.k - 1.0), idx)


# -------------------------------------------------------- deterministic bound


def test_bound_arithmetic_example():
    val = deterministic_deloc_bound(0.0, 1j * math.sqrt(2), 3, 2, 1.0)
    assert val == pytest.approx((math.sqrt(2) + 1) / 3, rel=1e-12)


def test_bound_hyper_reduces_to_graph():
    # at k = 2 the bound is the graph one, v_inf (|mu|+1) / sqrt(d^2 - lambda^2)
    for lam in (0.0, 1.3, -2.0):
        g = 0.7 * (abs(1.5 + 0.5j) + 1.0) / math.sqrt(25 - lam * lam)
        h = deterministic_deloc_bound(lam, 1.5 + 0.5j, 5, 2, 0.7)
        assert h == pytest.approx(g, rel=1e-12)


def test_bound_elementwise_matches_scalar_calls_bit_for_bit():
    rng = np.random.default_rng(5)
    for d, k in ((3, 2), (4, 3)):
        lam = rng.uniform(-d + 0.01, d * (k - 1) - 0.01, 200)
        mu = rng.standard_normal(200) + 1j * rng.standard_normal(200)
        v_inf = rng.uniform(0.01, 1.0, 200)
        bounds = deterministic_deloc_bound(lam, mu, d, k, v_inf)
        assert bounds.dtype == np.float64 and bounds.shape == (200,)
        for i in range(200):
            scalar = deterministic_deloc_bound(float(lam[i]), complex(mu[i]), d, k, float(v_inf[i]))
            # and the Python-float formula, whose |mu| is abs(complex)
            plain = v_inf[i] * math.sqrt(k - 1) * (abs(complex(mu[i])) + 1.0) / math.sqrt(
                (d + lam[i]) * (d * (k - 1) - lam[i])
            )
            assert bounds[i].tobytes() == np.float64(scalar).tobytes() == np.float64(plain).tobytes()


def test_bound_elementwise_raises_on_any_degenerate_entry():
    lam = np.array([0.0, 1.0, -3.0, 2.0, 3.5])
    mu = np.full(5, 1.0 + 1.0j)
    with pytest.raises(DegenerateError, match=r"lambda = -3\.0 outside"):
        deterministic_deloc_bound(lam, mu, 3, 2, 1.0)
    with pytest.raises(DegenerateError, match=r"lambda = 3\.5 outside"):
        deterministic_deloc_bound(lam[3:], mu[3:], 3, 2, 1.0)
    assert np.all(np.isfinite(deterministic_deloc_bound(lam[:2], mu[:2], 3, 2, 1.0)))


def test_bound_degenerate_cases():
    with pytest.raises(DegenerateError):
        deterministic_deloc_bound(3.0, 2.0, 3, 2, 1.0)
    with pytest.raises(DegenerateError):
        deterministic_deloc_bound(-3.0, 2.0, 3, 2, 1.0)
    with pytest.raises(DegenerateError):
        deterministic_deloc_bound(6.0, 4.0, 3, 3, 1.0)  # lambda = d(k-1)
    with pytest.raises(DegenerateError):
        deterministic_deloc_bound(-3.0, 4.0, 3, 3, 1.0)  # lambda = -d


def test_bound_dominates_measured_ratio_on_sample():
    g = sample_regular_graph(60, 3, 9)
    idx = oriented_index(g)
    spec = full_lifted_spectrum(g)
    for lam, mu, v in zip(spec.lams, spec.mus, spec.V.T):
        if (lam**2 > 4 * (g.d - 1)) or abs(abs(lam) - g.d) < 1e-9:
            continue
        w = lift_eigenvector_nb(v, mu, idx)
        ratio = np.max(np.abs(w)) / np.linalg.norm(w)
        bound = deterministic_deloc_bound(lam, mu, g.d, 2, float(np.max(np.abs(v))))
        assert ratio <= bound + 1e-12


# ------------------------------------------------- full spectrum + oracle


def test_full_spectrum_k4(k4):
    spec = full_lifted_spectrum(k4)
    mus = spec.eigenvalues()
    s7 = math.sqrt(7)
    expected = [2, 1] + [complex(-0.5, s7 / 2)] * 3 + [complex(-0.5, -s7 / 2)] * 3
    assert multiset_match_distance(mus, expected) < 1e-10
    for m in mus:
        if abs(m.imag) > 0:
            assert abs(m) == pytest.approx(math.sqrt(2), rel=1e-12)


def test_full_spectrum_c3_matches_reduced_matrix(c3):
    spec = full_lifted_spectrum(c3)
    roots = charpoly_roots(reduced_nb_matrix(c3).astype(int))
    assert multiset_match_distance(spec.eigenvalues(), roots) < 1e-8


@pytest.mark.parametrize("name", ORACLE_CORPUS)
def test_small_instance_oracle(name):
    g = named_graph(name)
    spec = full_lifted_spectrum(g)
    roots = charpoly_roots(reduced_nb_matrix(g).astype(int))
    assert multiset_match_distance(spec.eigenvalues(), roots) < 1e-8


def test_small_instance_oracle_sampled(sampled_graphs):
    g = sampled_graphs[(8, 3)]
    spec = full_lifted_spectrum(g)
    roots = charpoly_roots(reduced_nb_matrix(g).astype(int))
    assert multiset_match_distance(spec.eigenvalues(), roots) < 1e-8


def test_small_instance_oracle_hypergraph(hyper923):
    spec = full_lifted_spectrum(hyper923)
    roots = charpoly_roots(reduced_nb_matrix(hyper923).astype(int))
    assert multiset_match_distance(spec.eigenvalues(), roots) < 1e-8


@pytest.mark.parametrize(
    "make",
    [
        lambda: sample_regular_graph(300, 5, 1),
        lambda: sample_regular_hypergraph(90, 3, 3, 1),
        lambda: sample_rsbm(400, 12, 4, 1),
    ],
    ids=["regular-300-5", "hypergraph-90-3-3", "rsbm-400-12-4"],
)
def test_lifted_spectrum_matches_pairwise_oracle(make, tmp_path):
    g = make()
    spec = full_lifted_spectrum(g)
    pairs = pairwise_lifted_spectrum(g)
    exact = {
        "lam": spec.lams,
        "mu": spec.mus,
        "mu_prime": spec.mus_prime,
        "degenerate": spec.degenerate,
        "ratio_v": spec.ratio_v,
        "ratio_u": spec.ratio_u,
        "ratio_u_prime": spec.ratio_u_prime,
    }
    for name, arr in exact.items():
        ref = np.asarray([getattr(p, name) for p in pairs], dtype=arr.dtype)
        assert arr.tobytes() == ref.tobytes(), name
    for name in ("residual_u", "residual_u_prime"):
        ref = np.asarray([getattr(p, name) for p in pairs])
        assert np.max(np.abs(getattr(spec, name) - ref)) <= 1e-15, name

    # the spectrum file differs from the per-pair one at most in the residual fields
    graph, out = tmp_path / "g.json", tmp_path / "s.json"
    write_graph(g, graph)
    assert cli_main(["spectrum", "--in", str(graph), "--out", str(out)]) == 0
    got, want = json.loads(out.read_text()), pairwise_spectrum_document(g, pairs)
    residuals = {"residual_u", "residual_u_prime"}
    for a, b in zip(got["pairs"], want["pairs"]):
        assert max(abs(a[key] - b[key]) for key in residuals) <= 1e-15
        for rec in (a, b):
            for key in residuals:
                del rec[key]
    assert json.dumps(got, sort_keys=True) == json.dumps(want, sort_keys=True)


def test_degenerate_flag_set_on_exact_double_root():
    # lambda = 2 = 2*sqrt(d-1) for d = 2: C4 has lambda in {2, 0, 0, -2}
    spec = full_lifted_spectrum(named_graph("C4"))
    flags = dict(zip(np.round(spec.lams, 9).tolist(), spec.degenerate.tolist()))
    assert flags[2.0] and flags[-2.0]
    assert not flags[0.0]


def test_degenerate_flag_means_snapped_roots():
    # lambda = -2.999999999999142 sits 8.6e-13 inside the edge -d: its roots
    # mu = -2 +- 1.31e-6 i are not snapped, so the pair is not degenerate
    spec = full_lifted_spectrum(sample_regular_hypergraph(900, 3, 3, 1732846562))
    assert np.array_equal(spec.degenerate, spec.mus == spec.mus_prime)
    edge = int(np.argmin(spec.lams))
    assert spec.lams[edge] == pytest.approx(-3.0, abs=1e-11)
    assert spec.mus[edge] != spec.mus_prime[edge] and not spec.degenerate[edge]


def test_vieta_holds_for_all_pairs(sampled_graphs):
    g = sampled_graphs[(50, 4)] if (50, 4) in sampled_graphs else sampled_graphs[(20, 4)]
    spec = full_lifted_spectrum(g)
    assert np.all(np.abs(spec.mus + spec.mus_prime - spec.lams) <= 1e-10 * np.maximum(1.0, np.abs(spec.lams)))
    assert np.all(np.abs(spec.mus * spec.mus_prime - (g.d - 1)) <= 1e-10 * (g.d - 1))


# ------------------------------------------------------------------- audit


@pytest.mark.parametrize("n, d, seed", [(8, 3, 4), (60, 3, 1), (120, 4, 2)])
def test_graph_is_the_k2_hypergraph_bit_for_bit(n, d, seed):
    # one code path: the same edges as a graph and as a 2-uniform hypergraph give the same bits
    from nbspectra.graphs import RegularGraph

    h = sample_regular_hypergraph(n, d, 2, seed)
    g = RegularGraph(n=n, d=d, edges=h.hyperedges)
    for a, b in zip(oriented_index(g), oriented_index(h)):
        assert a.dtype == b.dtype and np.array_equal(a, b)
    Bg, Bh = nonbacktracking_matrix(g), nonbacktracking_matrix(h)
    for field in ("indptr", "indices", "data"):
        a, b = getattr(Bg, field), getattr(Bh, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field
    sg, sh = full_lifted_spectrum(g), full_lifted_spectrum(h)
    assert (sg.kind, sg.k, sh.kind, sh.k) == ("regular", None, "hypergraph", 2)
    for name in ("lams", "mus", "mus_prime", "degenerate", "residual_u", "residual_u_prime",
                 "ratio_v", "ratio_u", "ratio_u_prime", "V"):
        a, b = getattr(sg, name), getattr(sh, name)
        assert a.dtype == b.dtype and np.array_equal(a, b), name
    ag, ah = spectrum_audit(g), spectrum_audit(h)
    assert len(ag.lams) == 2 * n and ag.perron_ratio_err is not None
    for f in dataclasses.fields(ag):
        a, b = getattr(ag, f.name), getattr(ah, f.name)
        if isinstance(a, np.ndarray):
            # repr prints 8 digits of an array: compare values, NaNs and sign bits
            assert a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True), f.name
            fa, fb = (x.view(np.float64) if x.dtype.kind == "c" else x for x in (a, b))
            assert np.array_equal(np.signbit(fa), np.signbit(fb)), f.name
        elif f.name not in ("kind", "k"):
            # repr tells every float bit apart, -0.0 from 0.0 too
            assert repr(a) == repr(b), f.name


def test_spectrum_audit_takes_keep_records_by_keyword():
    # a stale call that passed a spectrum second fails, not binds to keep_records
    g = sample_regular_graph(8, 3, 4)
    with pytest.raises(TypeError):
        spectrum_audit(g, full_lifted_spectrum(g))


def test_spectrum_audit_clean_on_samples():
    for g in (sample_regular_graph(120, 3, 1), sample_regular_hypergraph(60, 2, 3, 1)):
        a = spectrum_audit(g)
        assert a.vieta_sum_err <= 1e-10
        assert a.vieta_prod_err <= 1e-10
        assert a.circle_err <= 1e-10
        assert a.resid_u_max <= 1e-9
        assert a.resid_w_max <= 1e-9
        assert a.norm_paper_err <= 1e-8
        assert a.norm_general_err <= 1e-8
        assert a.ratio_mono_violations == 0
        assert a.bound_violations == 0
        assert a.perron_ratio_err is not None and a.perron_ratio_err <= 1e-12


def test_norm_identity_general_vs_conjugate_domain():
    # the RSBM insider eigenvalue lambda = d1-d2 lies outside the bulk circle:
    # its real lift obeys the general norm formula, not d^2 - lambda^2
    g = sample_rsbm(40, 8, 1, 3)
    d = 9
    idx = oriented_index(g.graph)
    spec = full_lifted_spectrum(g)
    i = int(np.argmin(np.abs(spec.lams - 7)))
    lam, mu = spec.lams[i], spec.mus[i]
    assert lam == pytest.approx(7.0, abs=1e-9)
    w = lift_eigenvector_nb(spec.V[:, i], mu, idx)
    nsq = float(np.linalg.norm(w) ** 2)
    assert nsq == pytest.approx(nb_norm_sq(lam, mu, d, 2), rel=1e-9)
    assert abs(nsq - (d * d - lam**2)) > 1.0  # paper form does not apply here
