"""Adjacency matrix, oriented-edge index, non-backtracking operator B, and
the reduced 2n x 2n form.

A is built as sparse CSR from the edge arrays; `adjacency_matrix` is its
dense copy. B and the reduced matrix are sparse CSR, as they are only
applied to vectors or factored by sparse LU (`reduced_nb_matrix` is a dense
copy for small-size oracles). The incidences (a graph's oriented edges)
are indexed in CSR order, so serialized operators are reproducible.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # scipy loads on first use, so `gen`, `project` and `ks` start without it
    import scipy.sparse as sp


def adjacency_csr(g) -> sp.csr_matrix:
    """Symmetric int64 adjacency in canonical CSR, built from the edge arrays.

    Graph entries are 0/1; hypergraph entries count the hyperedges containing
    both endpoints, so rows sum to d(k-1).
    """
    import scipy.sparse as sp

    E = g.rows
    a, b = np.triu_indices(E.shape[1], 1)
    tails, heads = E[:, a].ravel(), E[:, b].ravel()
    rows, cols = np.concatenate([tails, heads]), np.concatenate([heads, tails])
    # tocsr sums the repeated pairs of a hypergraph into multiplicities
    A = sp.coo_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(g.n, g.n)).tocsr()
    A.sort_indices()
    return A


def adjacency_matrix(g) -> np.ndarray:
    """Dense int64 copy of `adjacency_csr`, zero diagonal."""
    return adjacency_csr(g).toarray()


def oriented_index(g) -> "tuple[np.ndarray, np.ndarray]":
    """The incidences (vertex, hyperedge) in A's CSR order, as int64 arrays
    (tails, partners).

    tails[i] is the vertex of incidence i; the incidences are sorted by
    vertex, then by the rank (row) of their hyperedge, which is the CSR order
    of the incidence matrix. partners[i] holds, ascending, the positions of
    the other k-1 incidences of the same hyperedge. A graph is the k = 2
    case: incidence i is the oriented edge (tails[i], tails[partners[i, 0]]),
    and as edges are sorted, rank order at a vertex is the order of the other
    endpoints. Position i is row i of B and entry i of an edge-lifted
    eigenvector.
    """
    E = g.rows
    m, k = E.size, E.shape[1]
    flat = E.ravel()
    slots = np.argsort(flat, kind="stable")  # by vertex, then by rank
    pos = np.empty(m, dtype=np.int64)
    pos[slots] = np.arange(m)
    # each incidence's whole hyperedge, as positions ascending with the vertex; drop its own
    members = pos.reshape(-1, k)[slots // k]
    return flat[slots], members[members != np.arange(m)[:, None]].reshape(m, k - 1)


def nonbacktracking_matrix(g, index: "tuple[np.ndarray, np.ndarray] | None" = None) -> sp.csr_matrix:
    """Non-backtracking operator B as a CSR matrix over the oriented index.

    B[(i,e),(j,f)] = 1 iff j in e\\{i} and f != e; for a graph (k = 2) that
    is B[(u,v),(x,y)] = 1 iff v = x and u != y.

    Row (i, e) holds, for each partner (j, e), the index block of vertex j
    without (j, e) itself. The index is sorted by vertex and the partners
    ascend, so each row's columns come out ascending.
    """
    import scipy.sparse as sp

    tails, partners = oriented_index(g) if index is None else index
    m, k = len(tails), partners.shape[1] + 1
    starts = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=g.n), out=starts[1:])
    pivots = partners.ravel()
    # each pivot's whole index block, concatenated; the pivot itself is then dropped
    lo, size = starts[tails[pivots]], np.diff(starts)[tails[pivots]]
    cols = np.repeat(lo - np.cumsum(size) + size, size) + np.arange(np.sum(size))
    indptr = np.zeros(m + 1, dtype=np.int64)
    indptr[1:] = np.cumsum(size - 1)[k - 2 :: k - 1]
    return sp.csr_matrix((np.ones(indptr[-1]), cols[cols != np.repeat(pivots, size)], indptr), shape=(m, m))


def reduced_nb_operator(g, A: "sp.csr_matrix | None" = None) -> sp.csr_matrix:
    """Reduced non-backtracking matrix as sparse CSR: 2n x 2n, four n x n blocks.

    Graph: [[0, (d-1)I], [-I, A]].
    Hypergraph: [[0, (d-1)I], [-(k-1)I, A-(k-2)I]].
    A is the float64 `adjacency_csr` of g, built here unless given.
    """
    import scipy.sparse as sp

    if A is None:
        A = adjacency_csr(g).astype(np.float64)
    k = g.rows.shape[1]
    eye = sp.identity(g.n, format="csr")
    return sp.bmat([[None, (g.d - 1) * eye], [-(k - 1) * eye, A - (k - 2) * eye]], format="csr")


def reduced_nb_matrix(g) -> np.ndarray:
    """Dense copy of `reduced_nb_operator`."""
    return reduced_nb_operator(g).toarray()
