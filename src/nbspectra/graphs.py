"""Seeded samplers for random regular graphs, hypergraphs, and the regular SBM.

All samplers are pure functions of (parameters, seed): stub matching with
rejection of self-loops, multi-edges, degenerate hyperedges, and duplicate
hyperedges. Every returned object passes a full degree audit.

A graph holds read-only arrays: int64 edge or hyperedge rows and, for the
RSBM, an int8 community vector. Each pairing and bipartite pass is a few
array operations over the shuffled stubs.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import (
    DivisibilityError,
    InfeasibleError,
    InvariantError,
    ParityError,
    RetryExhausted,
)
from .seeds import Seed, as_seed

MAX_RESTARTS = 10_000
# within-attempt repair budget for the hypergraph grouper before a full restart
_MAX_DISSOLVES = 1_000


class _Arrays:
    """Equality over a graph's fields, array fields compared by value."""

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return all(
            np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b
            for a, b in ((getattr(self, f.name), getattr(other, f.name)) for f in fields(self))
        )


def _frozen(values, dtype=np.int64, width: "int | None" = None) -> np.ndarray:
    """A read-only copy of `values` as a `dtype` array; the empty list becomes
    (0, width) when a width is given. InvariantError when the cast would
    change a value: a fraction dropped or an integer wrapped."""
    given = np.asarray(values)
    a = given.astype(dtype)
    if a.dtype != given.dtype and not np.array_equal(a, given):
        raise InvariantError(f"values do not convert to {a.dtype} exactly")
    if width is not None and a.shape == (0,):
        a = a.reshape(0, width)
    a.flags.writeable = False
    return a


def _audit_rows(E: np.ndarray, n: int, d: int, what: str) -> None:
    """Rows of E strictly increasing lexicographically, and every vertex in d rows."""
    step = np.diff(E, axis=0)
    # each step's first nonzero entry (0 where two rows are equal) sets its sign
    lead = step[np.arange(len(step)), np.argmax(step != 0, axis=1)]
    if np.any(lead == 0):
        raise InvariantError(f"repeated {what} {E[1:][lead == 0][0].tolist()}")
    if np.any(lead < 0):
        raise InvariantError(f"{what}s not sorted")
    if np.any(np.bincount(E.ravel(), minlength=n) != d):
        raise InvariantError("degree audit failed")


@dataclass(frozen=True, eq=False)
class RegularGraph(_Arrays):
    """Simple d-regular graph on vertices 0..n-1.

    ``edges`` is a read-only (m, 2) int64 array of pairs (u, v) with u < v,
    rows sorted lexicographically, so equal graphs serialize to identical
    bytes. Any sequence of pairs is accepted and copied into that array.
    """

    n: int
    d: int
    edges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "edges", _frozen(self.edges, width=2))

    def validate(self) -> None:
        E = self.edges
        if self.n < 1 or self.d < 0 or E.ndim != 2 or E.shape[1] != 2:
            raise InvariantError(f"bad sizes n={self.n} d={self.d} edges {E.shape}")
        if len(E) != self.n * self.d // 2 or (self.n * self.d) % 2:
            raise InvariantError("edge count does not match n*d/2")
        bad = (E[:, 0] < 0) | (E[:, 0] >= E[:, 1]) | (E[:, 1] >= self.n)
        if np.any(bad):
            raise InvariantError(f"bad edge {E[bad][0].tolist()}")
        _audit_rows(E, self.n, self.d, "edge")


@dataclass(frozen=True, eq=False)
class RegularHypergraph(_Arrays):
    """(d, k)-regular hypergraph: every vertex in d hyperedges, each of size k.

    ``hyperedges`` is a read-only (m, k) int64 array: each row k distinct
    vertices ascending, rows sorted lexicographically. Two hyperedges may
    share more than one vertex (adjacency then counts multiplicity);
    duplicates are forbidden.
    """

    n: int
    d: int
    k: int
    hyperedges: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "hyperedges", _frozen(self.hyperedges, width=self.k))

    def validate(self) -> None:
        E = self.hyperedges
        if self.d < 2 or self.k < 2:
            raise InvariantError("require d >= 2 and k >= 2")
        if (self.n * self.d) % self.k:
            raise InvariantError("k must divide n*d")
        if E.ndim != 2 or E.shape[1] != self.k:
            raise InvariantError(f"hyperedges {E.shape} are not rows of {self.k} vertices")
        if len(E) != self.n * self.d // self.k:
            raise InvariantError("hyperedge count does not match n*d/k")
        bad = np.any(np.diff(E, axis=1) <= 0, axis=1) | (E[:, 0] < 0) | (E[:, -1] >= self.n)
        if np.any(bad):
            raise InvariantError(
                f"hyperedge {E[bad][0].tolist()} is not {self.k} distinct vertices ascending in range"
            )
        _audit_rows(E, self.n, self.d, "hyperedge")


@dataclass(frozen=True, eq=False)
class RsbmGraph(_Arrays):
    """Regular stochastic block model sample.

    Two d1-regular halves joined by a d2-regular bipartite graph; ``sigma``,
    a read-only int8 array in {-1,+1}^n, records the community of each
    vertex and ``graph`` is the resulting simple (d1+d2)-regular graph.
    """

    n: int
    d1: int
    d2: int
    sigma: np.ndarray
    graph: RegularGraph

    def __post_init__(self):
        object.__setattr__(self, "sigma", _frozen(self.sigma, np.int8))

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def validate(self) -> None:
        s = self.sigma
        if self.n % 2:
            raise InvariantError("n must be even")
        if s.shape != (self.n,) or np.any((s != 1) & (s != -1)):
            raise InvariantError("sigma must be a +-1 vector of length n")
        if np.count_nonzero(s == 1) != self.n // 2:
            raise InvariantError("sigma must split vertices evenly")
        if self.graph.n != self.n or self.graph.d != self.d1 + self.d2:
            raise InvariantError("underlying graph has wrong size or degree")
        self.graph.validate()
        E = self.graph.edges
        # every degree is d1 + d2, so d1 within means d2 across
        within = np.bincount(E[s[E[:, 0]] == s[E[:, 1]]].ravel(), minlength=self.n)
        if np.any(within != self.d1):
            raise InvariantError("within/cross degree audit failed")


def _permuted(items: list, rng: np.random.Generator) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _member(keys: np.ndarray, sorted_keys: np.ndarray) -> np.ndarray:
    """Whether each key occurs in the ascending array `sorted_keys`."""
    return np.searchsorted(sorted_keys, keys, "right") > np.searchsorted(sorted_keys, keys)


def _first_new(keys: np.ndarray, taken: np.ndarray) -> np.ndarray:
    """Which pairs of one pass are accepted: the first occurrence of each
    pair key that is not among `taken`, the sorted keys of earlier passes."""
    s = np.sort(keys)
    new = ~_member(keys, taken)
    # the few positions whose key repeats, in key order and, within a key, position order
    dup = np.flatnonzero(_member(keys, s[1:][s[1:] == s[:-1]]))
    dup = dup[np.argsort(keys[dup], kind="stable")]
    new[dup[1:][keys[dup[1:]] == keys[dup[:-1]]]] = False
    return new


def _pairs_within(taken: np.ndarray, size: int, rows: np.ndarray, cols: np.ndarray) -> int:
    """How many of the pair keys `taken` (row * size + col) fall in rows x cols."""
    in_rows, in_cols = np.zeros(size, dtype=bool), np.zeros(size, dtype=bool)
    in_rows[rows] = in_cols[cols] = True
    return int(np.count_nonzero(in_rows[taken // size] & in_cols[taken % size]))


def _sorted_edges(E: np.ndarray, n: int) -> np.ndarray:
    """Edges (u < v < n) in lexicographic order."""
    return E[np.argsort(E[:, 0] * n + E[:, 1])]


def _try_pairing(n: int, d: int, rng: np.random.Generator) -> "np.ndarray | None":
    """One attempt at stub matching; keeps good pairs across passes.

    Each pass pairs off the shuffled stubs, accepts the first occurrence of
    every pair that is no self-loop and no edge yet, and passes the stubs of
    the rest on, vertices in first-seen order. Returns the edges (u < v) in
    acceptance order, or None if the remaining stubs cannot be completed
    (full restart required). `taken` holds the sorted keys u * n + v of the
    accepted edges, so memory stays O(nd).
    """
    taken = np.empty(0, dtype=np.int64)
    accepted = []
    stubs = np.tile(np.arange(n), d)
    while len(stubs):
        a, b = stubs[rng.permutation(len(stubs))].reshape(-1, 2).T
        pairs = np.column_stack([np.minimum(a, b), np.maximum(a, b)])
        keys = pairs[:, 0] * n + pairs[:, 1]
        new = _first_new(keys, taken) & (a != b)
        taken = np.sort(np.concatenate([taken, keys[new]]))
        accepted.append(pairs[new])
        rest = pairs[~new].ravel()
        if not len(rest):
            break
        verts, first, counts = np.unique(rest, return_index=True, return_counts=True)
        # no pair of distinct leftover vertices can still form a new edge
        r = len(verts)
        if _pairs_within(taken, n, verts, verts) == r * (r - 1) // 2:
            return None
        order = np.argsort(first)
        stubs = np.repeat(verts[order], counts[order])
    return np.concatenate(accepted)


def sample_regular_graph(n: int, d: int, seed: "int | Seed") -> RegularGraph:
    """Sample a simple d-regular graph on n vertices.

    Parameters
    ----------
    n, d : int
        Vertex count and degree; requires n >= d+1, d >= 1 and n*d even.
    seed : int or Seed
        Master seed; identical arguments yield byte-identical graphs.

    Raises
    ------
    ParityError
        If n*d is odd.
    InfeasibleError
        If d < 1 or d >= n.
    RetryExhausted
        If the rejection cap is hit (infeasible-in-practice parameters).
    """
    if (n * d) % 2:
        raise ParityError(f"n*d = {n * d} is odd; no {d}-regular graph on {n} vertices")
    if d < 1 or d >= n:
        raise InfeasibleError(f"need 1 <= d <= n-1, got n={n} d={d}")
    rng = as_seed(seed).generator()
    for _ in range(MAX_RESTARTS):
        edges = _try_pairing(n, d, rng)
        if edges is not None:
            g = RegularGraph(n=n, d=d, edges=_sorted_edges(edges, n))
            g.validate()
            return g
    raise RetryExhausted(f"no simple {d}-regular graph found in {MAX_RESTARTS} restarts")


def _try_grouping(n: int, d: int, k: int, rng: np.random.Generator):
    """One attempt at grouping stubs into k-sets; dissolves accepted
    hyperedges back into the pool when a pass stalls."""
    edges: list = []
    edge_set: set = set()
    stubs = list(range(n)) * d
    dissolves = 0
    while stubs:
        stubs = _permuted(stubs, rng)
        leftover: list = []
        accepted = 0
        for i in range(0, len(stubs), k):
            block = tuple(sorted(stubs[i : i + k]))
            if len(set(block)) == k and block not in edge_set:
                edge_set.add(block)
                edges.append(block)
                accepted += 1
            else:
                leftover.extend(block)
        stubs = leftover
        if stubs and accepted == 0:
            need = len(stubs) // k + 1
            if len(edges) < need or dissolves >= _MAX_DISSOLVES:
                return None
            dissolves += 1
            for _ in range(need):
                j = int(rng.integers(len(edges)))
                block = edges.pop(j)
                edge_set.remove(block)
                stubs.extend(block)
    return edges


def sample_regular_hypergraph(n: int, d: int, k: int, seed: "int | Seed") -> RegularHypergraph:
    """Sample a (d, k)-regular hypergraph on n vertices.

    Requires d >= 2, k >= 2, n >= k and k | n*d. Hyperedges have k distinct
    vertices and are pairwise distinct; larger overlaps are allowed.
    """
    if k >= 2 and (n * d) % k:
        raise DivisibilityError(f"k={k} does not divide n*d={n * d}")
    if d < 2 or k < 2 or n < k:
        raise InfeasibleError(f"need d >= 2, k >= 2, n >= k; got n={n} d={d} k={k}")
    rng = as_seed(seed).generator()
    for _ in range(MAX_RESTARTS):
        edges = _try_grouping(n, d, k, rng)
        if edges is not None:
            h = RegularHypergraph(n=n, d=d, k=k, hyperedges=sorted(edges))
            h.validate()
            return h
    raise RetryExhausted(f"no ({d},{k})-regular hypergraph found in {MAX_RESTARTS} restarts")


def _try_bipartite(size: int, deg: int, rng: np.random.Generator) -> "np.ndarray | None":
    """One attempt at a deg-regular bipartite matching between two sets of
    `size` vertices, as pairs (i, j) of positions in the left and right set.

    Each pass shuffles both stub lists, accepts the first occurrence of every
    new pair and passes the rest on in order; None if no leftover pair can
    still be new (full restart required).
    """
    taken = np.empty(0, dtype=np.int64)  # sorted keys i * size + j of the accepted pairs
    accepted = []
    left = right = np.repeat(np.arange(size), deg)
    while len(left):
        left = left[rng.permutation(len(left))]
        right = right[rng.permutation(len(right))]
        keys = left * size + right
        new = _first_new(keys, taken)
        taken = np.sort(np.concatenate([taken, keys[new]]))
        accepted.append(np.column_stack([left[new], right[new]]))
        left, right = left[~new], right[~new]
        if len(left):
            rows, cols = np.unique(left), np.unique(right)
            if _pairs_within(taken, size, rows, cols) == len(rows) * len(cols):
                return None
    return np.concatenate(accepted)


def sample_rsbm(n: int, d1: int, d2: int, seed: "int | Seed") -> RsbmGraph:
    """Sample an (n, d1, d2) regular stochastic block model.

    A uniformly random equal partition of the vertices, an independent
    d1-regular graph on each half, and a d2-regular bipartite graph across.

    Raises
    ------
    ParityError
        If n is odd or d1*(n/2) is odd.
    InfeasibleError
        If d1 >= n/2, d1 < 1, or d2 outside [1, n/2].
    """
    if n % 2:
        raise ParityError(f"n = {n} must be even")
    if (d1 * (n // 2)) % 2:
        raise ParityError(f"d1*(n/2) = {d1 * (n // 2)} is odd; halves cannot be {d1}-regular")
    if d1 < 1 or d1 >= n // 2:
        raise InfeasibleError(f"need 1 <= d1 <= n/2 - 1, got d1={d1} n={n}")
    if not 1 <= d2 <= n // 2:
        raise InfeasibleError(f"need 1 <= d2 <= n/2, got d2={d2} n={n}")
    rng = as_seed(seed).generator()
    half = n // 2
    perm = rng.permutation(n)
    side1, side2 = np.sort(perm[:half]), np.sort(perm[half:])
    sigma = np.ones(n, dtype=np.int8)
    sigma[side2] = -1

    for _ in range(MAX_RESTARTS):
        e1 = _try_pairing(half, d1, rng)
        if e1 is None:
            continue
        e2 = _try_pairing(half, d1, rng)
        if e2 is None:
            continue
        ec = _try_bipartite(half, d2, rng)
        if ec is None:
            continue
        # the sides are ascending, so within-side pairs keep u < v
        cross = np.sort(np.column_stack([side1[ec[:, 0]], side2[ec[:, 1]]]), axis=1)
        edges = _sorted_edges(np.concatenate([side1[e1], side2[e2], cross]), n)
        g = RsbmGraph(n=n, d1=d1, d2=d2, sigma=sigma, graph=RegularGraph(n=n, d=d1 + d2, edges=edges))
        g.validate()
        return g
    raise RetryExhausted(f"no simple RSBM({n},{d1},{d2}) found in {MAX_RESTARTS} restarts")
