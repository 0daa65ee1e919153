"""Adjacency matrix, oriented-edge index, non-backtracking operator B, and
the reduced 2n x 2n form.

A is built as sparse CSR from the edge arrays; `adjacency_matrix` is its
dense copy, for the full symmetric eigensolve. B and the reduced matrix are
sparse CSR, as they are only applied to vectors or factored by sparse LU
(`reduced_nb_matrix` is a dense copy for small-size oracles).
Index ordering of oriented edges is lexicographic so serialized operators
are reproducible.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .graphs import RegularGraph, RegularHypergraph, RsbmGraph


@dataclass(frozen=True)
class OrientedEdgeIndex:
    """Bijection between oriented (hyper)edges and 0..nd-1.

    Graphs: items are oriented edges (u, v) with {u, v} an edge.
    Hypergraphs: items are incidences (vertex, hyperedge rank), where the
    rank is the position of the hyperedge in the sorted hyperedge list.
    """

    items: tuple
    lookup: dict

    def __len__(self) -> int:
        return len(self.items)

    def tails_heads(self) -> "tuple[np.ndarray, np.ndarray]":
        """Component arrays: (tails, heads) for graphs, (vertices, ranks) for hypergraphs."""
        a = np.asarray([it[0] for it in self.items], dtype=np.int64)
        b = np.asarray([it[1] for it in self.items], dtype=np.int64)
        return a, b


def underlying_graph(g):
    """The plain graph/hypergraph under any sampled object."""
    return g.graph if isinstance(g, RsbmGraph) else g


def edge_size(g) -> int:
    """Hyperedge size k; a graph is the k = 2 case."""
    g = underlying_graph(g)
    return g.k if isinstance(g, RegularHypergraph) else 2


def adjacency_csr(g) -> sp.csr_matrix:
    """Symmetric int64 adjacency in canonical CSR, built from the edge arrays.

    Graph entries are 0/1; hypergraph entries count the hyperedges containing
    both endpoints, so rows sum to d(k-1).
    """
    g = underlying_graph(g)
    if isinstance(g, RegularHypergraph):
        E = np.asarray(g.hyperedges, dtype=np.int64).reshape(-1, g.k)
        a, b = np.triu_indices(g.k, 1)
        tails, heads = E[:, a].ravel(), E[:, b].ravel()
    else:
        E = np.asarray(g.edges, dtype=np.int64).reshape(-1, 2)
        tails, heads = E[:, 0], E[:, 1]
    rows, cols = np.concatenate([tails, heads]), np.concatenate([heads, tails])
    # tocsr sums the repeated pairs of a hypergraph into multiplicities
    A = sp.coo_matrix((np.ones(len(rows), dtype=np.int64), (rows, cols)), shape=(g.n, g.n)).tocsr()
    A.sort_indices()
    return A


def adjacency_matrix(g) -> np.ndarray:
    """Dense int64 copy of `adjacency_csr`, zero diagonal."""
    return adjacency_csr(g).toarray()


def oriented_index(g) -> OrientedEdgeIndex:
    g = underlying_graph(g)
    if isinstance(g, RegularHypergraph):
        items = sorted((v, rank) for rank, e in enumerate(g.hyperedges) for v in e)
    else:
        items = sorted(x for u, v in g.edges for x in ((u, v), (v, u)))
    items = tuple(items)
    return OrientedEdgeIndex(items=items, lookup={it: r for r, it in enumerate(items)})


def nonbacktracking_matrix(g, index: OrientedEdgeIndex | None = None) -> sp.csr_matrix:
    """Non-backtracking operator B as a CSR matrix over the oriented index.

    Graphs: B[(u,v),(x,y)] = 1 iff v = x and u != y.
    Hypergraphs: B[(i,e),(j,f)] = 1 iff j in e\\{i} and f != e.
    """
    g = underlying_graph(g)
    if index is None:
        index = oriented_index(g)
    rows: list = []
    cols: list = []
    if isinstance(g, RegularHypergraph):
        incident: list = [[] for _ in range(g.n)]
        for rank, e in enumerate(g.hyperedges):
            for v in e:
                incident[v].append(rank)
        for r, (i, erank) in enumerate(index.items):
            for j in g.hyperedges[erank]:
                if j == i:
                    continue
                for frank in incident[j]:
                    if frank != erank:
                        rows.append(r)
                        cols.append(index.lookup[(j, frank)])
    else:
        nbrs: list = [[] for _ in range(g.n)]
        for u, v in g.edges:
            nbrs[u].append(v)
            nbrs[v].append(u)
        for r, (u, v) in enumerate(index.items):
            for y in nbrs[v]:
                if y != u:
                    rows.append(r)
                    cols.append(index.lookup[(v, y)])
    m = len(index)
    B = sp.coo_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(m, m), dtype=np.float64
    ).tocsr()
    B.sort_indices()
    return B


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
