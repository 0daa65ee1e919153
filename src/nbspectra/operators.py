"""Adjacency matrix, oriented-edge index, non-backtracking operator B, and
the reduced 2n x 2n form.

A is built as sparse CSR from the edge arrays; `adjacency_matrix` is its
dense copy. B and the reduced matrix are sparse CSR, as they are only
applied to vectors or factored by sparse LU (`reduced_nb_matrix` is a dense
copy for small-size oracles). The oriented edges are indexed in A's CSR
order, so serialized operators are reproducible.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from .graphs import RegularHypergraph, RsbmGraph


def underlying_graph(g):
    """The plain graph/hypergraph under any sampled object."""
    return g.graph if isinstance(g, RsbmGraph) else g


def edge_size(g) -> int:
    """Hyperedge size k; a graph is the k = 2 case."""
    g = underlying_graph(g)
    return g.k if isinstance(g, RegularHypergraph) else 2


def _rows(g) -> np.ndarray:
    """The (m, k) array of g's hyperedges; a graph's edges are the k = 2 case."""
    return g.hyperedges if isinstance(g, RegularHypergraph) else g.edges


def adjacency_csr(g) -> sp.csr_matrix:
    """Symmetric int64 adjacency in canonical CSR, built from the edge arrays.

    Graph entries are 0/1; hypergraph entries count the hyperedges containing
    both endpoints, so rows sum to d(k-1).
    """
    g = underlying_graph(g)
    E = _rows(g)
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
    """The oriented edges in A's CSR order, as int64 arrays (tails, heads).

    Graphs: the oriented edges (u, v), sorted. Hypergraphs: the incidences
    (vertex, hyperedge rank), sorted, which is the CSR order of the
    incidence matrix; the rank is the row of the hyperedge. Position i is
    row i of B and entry i of an edge-lifted eigenvector.
    """
    g = underlying_graph(g)
    flat = _rows(g).ravel()
    slots = np.argsort(flat, kind="stable")  # by vertex, then by rank
    if isinstance(g, RegularHypergraph):
        return flat[slots], slots // g.k
    # edges are sorted, so at each vertex rank order is the order of the other endpoints
    return flat[slots], flat[slots ^ 1]


def nonbacktracking_matrix(g, index: "tuple[np.ndarray, np.ndarray] | None" = None) -> sp.csr_matrix:
    """Non-backtracking operator B as a CSR matrix over the oriented index.

    Graphs: B[(u,v),(x,y)] = 1 iff v = x and u != y.
    Hypergraphs: B[(i,e),(j,f)] = 1 iff j in e\\{i} and f != e.

    One rule covers both: row (i, e) holds, for each other incidence (j, e)
    of its (hyper)edge, the index block of vertex j without (j, e) itself;
    a graph's one other incidence of (u, v) is the reverse edge (v, u). The
    index is sorted by vertex and the j ascend, so each row's columns come
    out ascending.
    """
    g = underlying_graph(g)
    tails, heads = oriented_index(g) if index is None else index
    m, k = len(tails), edge_size(g)
    starts = np.zeros(g.n + 1, dtype=np.int64)
    np.cumsum(np.bincount(tails, minlength=g.n), out=starts[1:])
    if isinstance(g, RegularHypergraph):
        # the incidences of each row's hyperedge, ascending vertex, but the row's own
        members = np.argsort(heads, kind="stable").reshape(-1, k)[heads]
        pivots = members[members != np.arange(m)[:, None]]
    else:
        # ordered by head, position p holds (v, u): the reverse of (u, v) at p
        pivots = np.argsort(heads, kind="stable")
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
    h = underlying_graph(g)
    if A is None:
        A = adjacency_csr(h).astype(np.float64)
    k = edge_size(h)
    eye = sp.identity(h.n, format="csr")
    return sp.bmat([[None, (h.d - 1) * eye], [-(k - 1) * eye, A - (k - 2) * eye]], format="csr")


def reduced_nb_matrix(g) -> np.ndarray:
    """Dense copy of `reduced_nb_operator`."""
    return reduced_nb_operator(g).toarray()


def sparse_triplets(M: sp.spmatrix) -> list:
    """Row-major sorted (row, col, value) triplets of a sparse matrix."""
    coo = M.tocoo()
    order = np.lexsort((coo.col, coo.row))
    return [(int(coo.row[i]), int(coo.col[i]), float(coo.data[i])) for i in order]
