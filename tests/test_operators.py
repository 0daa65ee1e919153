import ast
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse as sp

import nbspectra
from nbspectra.graphs import RegularGraph, sample_regular_graph, sample_regular_hypergraph, sample_rsbm
from nbspectra.operators import (
    adjacency_csr,
    adjacency_matrix,
    nonbacktracking_matrix,
    oriented_index,
    reduced_nb_matrix,
    reduced_nb_operator,
)
from nbspectra.spectral import full_lifted_spectrum

from conftest import IHARA_CORPUS, named_graph
from oracles import (
    charpoly_roots,
    loop_adjacency,
    loop_nonbacktracking_matrix,
    loop_oriented_index,
    multiset_match_distance,
)


def test_adjacency_k4(k4):
    A = adjacency_matrix(k4)
    assert np.array_equal(A, np.ones((4, 4), dtype=int) - np.eye(4, dtype=int))
    assert set(A.sum(axis=1).tolist()) == {3}


def test_adjacency_c3(c3):
    A = adjacency_matrix(c3)
    assert np.array_equal(A, np.array([[0, 1, 1], [1, 0, 1], [1, 1, 0]]))


def test_adjacency_hypergraph_row_sums(hyper923):
    A = adjacency_matrix(hyper923)
    assert np.array_equal(A, A.T)
    assert np.all(np.diag(A) == 0)
    assert set(A.sum(axis=1).tolist()) == {hyper923.d * (hyper923.k - 1)}


def test_adjacency_k2_hypergraph_matches_graph():
    h = sample_regular_hypergraph(8, 3, 2, 4)
    from nbspectra.graphs import RegularGraph

    g = RegularGraph(n=8, d=3, edges=h.hyperedges)
    assert np.array_equal(adjacency_matrix(h), adjacency_matrix(g))


@pytest.mark.parametrize(
    "g",
    [
        sample_regular_graph(300, 5, 1),
        sample_regular_graph(10, 1, 0),
        sample_regular_hypergraph(300, 2, 3, 1),
        sample_regular_hypergraph(90, 3, 3, 2),  # pairs shared by two hyperedges: entries 2
        sample_rsbm(400, 12, 4, 0),
    ],
    ids=["regular-300-5", "matching-10", "hypergraph-300-2-3", "hypergraph-90-3-3", "rsbm-400-12-4"],
)
def test_adjacency_matches_loop_oracle(g):
    ref = loop_adjacency(g)
    A = adjacency_matrix(g)
    assert A.dtype == ref.dtype and np.array_equal(A, ref)
    # the CSR is canonical and, as float64, equals the CSR of the dense matrix array for array
    C = adjacency_csr(g)
    assert C.dtype == np.int64 and C.has_canonical_format
    F, R = C.astype(np.float64), sp.csr_matrix(ref, dtype=np.float64)
    for a, b in ((F.indptr, R.indptr), (F.indices, R.indices), (F.data, R.data)):
        assert a.dtype == b.dtype and np.array_equal(a, b)


def test_oriented_index_sizes(c3, k4, hyper923):
    assert [len(a) for a in oriented_index(c3)] == [6, 6]
    assert [len(a) for a in oriented_index(k4)] == [12, 12]
    assert [len(a) for a in oriented_index(hyper923)] == [18, 18]


def test_oriented_index_bijection(k4):
    # positions 0..11 are the 12 oriented edges (tail, tail of the one partner), each once, in sorted order
    tails, partners = oriented_index(k4)
    assert partners.shape == (12, 1)
    items = list(zip(tails.tolist(), tails[partners[:, 0]].tolist()))
    assert items == sorted({(u, v) for e in k4.edges.tolist() for u, v in (e, e[::-1])})


def test_nb_matrix_c3_is_two_directed_cycles(c3):
    B = nonbacktracking_matrix(c3).toarray()
    # every row and column exactly one 1: a permutation matrix
    assert np.all(B.sum(axis=0) == 1)
    assert np.all(B.sum(axis=1) == 1)
    # eigenvalues are the cube roots of unity, each twice
    roots = charpoly_roots(B.astype(int))
    expected = np.array([1, 1, np.exp(2j * np.pi / 3), np.exp(2j * np.pi / 3),
                         np.exp(-2j * np.pi / 3), np.exp(-2j * np.pi / 3)])
    assert multiset_match_distance(roots, expected) < 1e-8


def test_nb_matrix_row_sums_and_diag(k4, hyper923):
    B = nonbacktracking_matrix(k4)
    assert B.shape == (12, 12)
    assert set(np.asarray(B.sum(axis=1)).ravel().tolist()) == {k4.d - 1}
    assert np.all(B.diagonal() == 0)
    Bh = nonbacktracking_matrix(hyper923)
    assert Bh.shape == (18, 18)
    assert set(np.asarray(Bh.sum(axis=1)).ravel().tolist()) == {
        (hyper923.k - 1) * (hyper923.d - 1)
    }


def test_nb_matrix_hyper_no_same_edge_transitions(hyper923):
    # B[(i,e),(j,e)] = 0 for all j: an incidence never stays on its hyperedge
    idx = oriented_index(hyper923)
    B = nonbacktracking_matrix(hyper923, idx).toarray()
    # an incidence and its partners make up one hyperedge; label it by its first position
    ranks = np.minimum(np.arange(len(idx[0])), idx[1].min(axis=1))
    assert len(set(ranks.tolist())) == len(hyper923.hyperedges)
    for r, erank in enumerate(ranks):
        for c, frank in enumerate(ranks):
            if frank == erank:
                assert B[r, c] == 0


def test_nb_perron_vector(small_graph):
    B = nonbacktracking_matrix(small_graph)
    ones = np.ones(B.shape[0])
    resid = np.linalg.norm(B @ ones - (small_graph.d - 1) * ones)
    assert resid <= 1e-12


def test_nb_perron_vector_hyper(hyper923):
    B = nonbacktracking_matrix(hyper923)
    ones = np.ones(B.shape[0])
    lam = (hyper923.k - 1) * (hyper923.d - 1)
    assert np.linalg.norm(B @ ones - lam * ones) <= 1e-12


def test_reduced_blocks_graph(k4):
    Bt = reduced_nb_matrix(k4)
    n = 4
    assert Bt.shape == (8, 8)
    assert np.array_equal(Bt[:n, :n], np.zeros((n, n)))
    assert np.array_equal(Bt[:n, n:], 2 * np.eye(n))
    assert np.array_equal(Bt[n:, :n], -np.eye(n))
    assert np.array_equal(Bt[n:, n:], adjacency_matrix(k4))
    assert np.trace(Bt) == 0


def test_reduced_blocks_hypergraph(hyper923):
    h = hyper923
    Bt = reduced_nb_matrix(h)
    n, d, k = h.n, h.d, h.k
    A = adjacency_matrix(h)
    assert np.array_equal(Bt[:n, n:], (d - 1) * np.eye(n))  # D - I with D = dI
    assert np.array_equal(Bt[n:, :n], -(k - 1) * np.eye(n))
    assert np.array_equal(Bt[n:, n:], A - (k - 2) * np.eye(n))
    assert np.isclose(np.trace(Bt), np.trace(A) - n * (k - 2))


def test_reduced_c3_eigenvalues(c3):
    Bt = reduced_nb_matrix(c3)
    roots = charpoly_roots(Bt.astype(int))
    w = np.exp(2j * np.pi / 3)
    expected = np.array([1, 1, w, w, np.conj(w), np.conj(w)])
    assert multiset_match_distance(roots, expected) < 1e-8


def test_rsbm_operators_match_its_regular_graph():
    # an RSBM sample is a RegularGraph: every operator reads the same rows, bit for bit
    r = sample_rsbm(40, 4, 2, 0)
    g = RegularGraph(r.n, r.d, r.edges)
    for make in (adjacency_csr, nonbacktracking_matrix, reduced_nb_operator):
        a, b = make(r), make(g)
        assert a.shape == b.shape
        for field in ("indptr", "indices", "data"):
            x, y = getattr(a, field), getattr(b, field)
            assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), (make.__name__, field)
    for x, y in zip(oriented_index(r), oriented_index(g)):
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes()
    s, t = full_lifted_spectrum(r), full_lifted_spectrum(g)
    assert (s.kind, s.d, s.d1, s.d2, t.kind) == ("rsbm", 6, 4, 2, "regular")
    arrays = ("lams", "mus", "mus_prime", "degenerate", "residual_u", "residual_u_prime")
    for field in (*arrays, "ratio_v", "ratio_u", "ratio_u_prime", "V"):
        x, y = getattr(s, field), getattr(t, field)
        assert x.dtype == y.dtype and x.tobytes() == y.tobytes(), field


@pytest.mark.parametrize("module", ["operators", "verify"])
def test_module_names_no_graph_class(module):
    # each graph hands out its own rows, so these modules never dispatch on its kind
    tree = ast.parse((Path(nbspectra.__file__).parent / f"{module}.py").read_text())
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            names.add(node.module)
        names.add(getattr(node, "id", None) or getattr(node, "attr", None) or getattr(node, "name", None))
    assert not names & {"RegularGraph", "RegularHypergraph", "RsbmGraph", "graphs"}


@pytest.mark.parametrize(
    "g",
    [named_graph(name) for name in IHARA_CORPUS]
    + [
        sample_regular_hypergraph(9, 2, 3, 42),
        sample_regular_hypergraph(90, 3, 3, 2),  # pairs shared by two hyperedges
        sample_regular_hypergraph(8, 3, 2, 4),
        sample_rsbm(400, 12, 4, 0),
    ],
    ids=lambda g: f"{type(g).__name__}-{g.n}",
)
def test_index_and_nb_matrix_match_loop_oracle(g):
    tails, partners = oriented_index(g)
    assert tails.dtype == partners.dtype == np.int64
    ref = loop_oriented_index(g)
    assert partners.shape == (len(ref), len(ref[0][1]))
    assert list(zip(tails.tolist(), map(tuple, partners.tolist()))) == list(ref)
    B, R = nonbacktracking_matrix(g), loop_nonbacktracking_matrix(g)
    assert B.shape == R.shape
    for field in ("indptr", "indices", "data"):
        a, b = getattr(B, field), getattr(R, field)
        assert a.dtype == b.dtype and np.array_equal(a, b), field


def test_oracle_hypergraph_has_multiplicity_two():
    assert adjacency_csr(sample_regular_hypergraph(90, 3, 3, 2)).max() == 2
