import json
import sys
from dataclasses import replace

import numpy as np
import pytest

import nbspectra.graphs as graphs
from nbspectra.errors import (
    DivisibilityError,
    InfeasibleError,
    InvariantError,
    ParityError,
)
from nbspectra.graphs import (
    RegularGraph,
    RegularHypergraph,
    RsbmGraph,
    sample_regular_graph,
    sample_regular_hypergraph,
    sample_rsbm,
)
from nbspectra.io import graph_document
from nbspectra.seeds import Seed
from conftest import fresh_python
from oracles import loop_sample_regular_graph, loop_sample_rsbm, loop_validate


def test_k4_is_forced():
    # the unique simple 3-regular graph on 4 vertices
    for seed in (0, 1, 99):
        g = sample_regular_graph(4, 3, seed)
        assert g.edges.tolist() == [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]]


def test_triangle_is_forced():
    for seed in (0, 17):
        g = sample_regular_graph(3, 2, seed)
        assert g.edges.tolist() == [[0, 1], [0, 2], [1, 2]]


def test_parity_error():
    with pytest.raises(ParityError):
        sample_regular_graph(5, 3, 0)


def test_infeasible_degree():
    with pytest.raises(InfeasibleError):
        sample_regular_graph(4, 4, 0)
    with pytest.raises(InfeasibleError):
        sample_regular_graph(4, 0, 0)


@pytest.mark.parametrize("n,d", [(10, 3), (50, 4), (20, 5), (2000, 40)])
def test_graph_audit_and_determinism(n, d):
    g1 = sample_regular_graph(n, d, 7)
    g2 = sample_regular_graph(n, d, 7)
    g1.validate()
    assert g1 == g2
    # byte-identical serialization
    assert json.dumps(graph_document(g1)) == json.dumps(graph_document(g2))
    g3 = sample_regular_graph(n, d, 8)
    assert g3 != g1


def test_hypergraph_figure_parameters():
    h = sample_regular_hypergraph(9, 2, 3, 0)
    assert len(h.hyperedges) == 6
    h.validate()


def test_hypergraph_k2_is_a_graph():
    h = sample_regular_hypergraph(6, 2, 2, 3)
    assert all(len(e) == 2 for e in h.hyperedges)
    g = RegularGraph(n=6, d=2, edges=h.hyperedges)
    g.validate()


def test_hypergraph_divisibility_error():
    with pytest.raises(DivisibilityError):
        sample_regular_hypergraph(7, 2, 3, 0)


def test_hypergraph_infeasible():
    with pytest.raises(InfeasibleError):
        sample_regular_hypergraph(9, 1, 3, 0)
    with pytest.raises(InfeasibleError):
        sample_regular_hypergraph(2, 3, 3, 0)


@pytest.mark.parametrize("n,d,k", [(9, 2, 3), (60, 2, 3), (90, 3, 3), (40, 4, 4), (1024, 8, 8)])
def test_hypergraph_audit_and_determinism(n, d, k):
    h1 = sample_regular_hypergraph(n, d, k, 13)
    h2 = sample_regular_hypergraph(n, d, k, 13)
    h1.validate()
    assert h1 == h2
    assert sample_regular_hypergraph(n, d, k, 14) != h1


def test_rsbm_cycle_structure():
    g = sample_rsbm(8, 2, 1, 0)
    g.validate()  # includes within/cross degree audit
    assert g.graph.d == 3


def test_rsbm_parity_error():
    with pytest.raises(ParityError):
        sample_rsbm(6, 3, 1, 0)  # d1 * n/2 = 9 odd
    with pytest.raises(ParityError):
        sample_rsbm(7, 2, 1, 0)  # odd n


def test_rsbm_infeasible():
    with pytest.raises(InfeasibleError):
        sample_rsbm(8, 4, 1, 0)  # d1 >= n/2
    with pytest.raises(InfeasibleError):
        sample_rsbm(8, 2, 0, 0)
    with pytest.raises(InfeasibleError):
        sample_rsbm(8, 2, 5, 0)


def test_rsbm_audit_and_determinism():
    g1 = sample_rsbm(2000, 12, 4, Seed(1))
    g2 = sample_rsbm(2000, 12, 4, Seed(1))
    g1.validate()
    assert g1 == g2
    assert sample_rsbm(2000, 12, 4, Seed(2)) != g1


def test_rsbm_sigma_balanced():
    g = sample_rsbm(40, 8, 1, 5)
    assert sum(1 for s in g.sigma if s == 1) == 20


def test_validate_rejects_corruption():
    g = sample_regular_graph(10, 3, 0)
    bad = RegularGraph(n=g.n, d=g.d, edges=np.vstack([g.edges[:-1], [(0, 9)]]))
    with pytest.raises(InvariantError):
        bad.validate()
    r = sample_rsbm(8, 2, 1, 0)
    flipped = np.concatenate([-r.sigma[:1], r.sigma[1:]])
    with pytest.raises(InvariantError):
        RsbmGraph(r.n, r.d1, r.d2, flipped, r.graph).validate()


@pytest.fixture
def restarts(monkeypatch):
    """Failed attempts (None results) of the pairing and bipartite passes, counted by a spy."""
    counts = {"_try_pairing": 0, "_try_bipartite": 0}
    for name in counts:
        def spy(*args, _fn=getattr(graphs, name), _name=name):
            out = _fn(*args)
            counts[_name] += out is None
            return out

        monkeypatch.setattr(graphs, name, spy)
    return counts


# restarted: these seeds make the vectorized passes give up and restart, and
# the spy shows it, so the comparison covers the restart path too
@pytest.mark.parametrize(
    "n,d,restarted", [(6, 5, False), (10, 8, True), (16, 14, True), (50, 4, False), (2000, 5, True)]
)
def test_regular_sampler_matches_loop_oracle(n, d, restarted, restarts):
    for seed in range(4):
        g = sample_regular_graph(n, d, seed)
        assert g.edges.tolist() == [list(e) for e in loop_sample_regular_graph(n, d, seed)], seed
        loop_validate(g)
    if restarted:
        assert restarts["_try_pairing"] > 0


@pytest.mark.parametrize("n,d1,d2", [(16, 1, 6), (40, 1, 8), (60, 2, 9), (400, 12, 4), (1000, 12, 4)])
def test_rsbm_sampler_matches_loop_oracle(n, d1, d2, restarts):
    for seed in range(3):
        g = sample_rsbm(n, d1, d2, seed)
        sigma, edges = loop_sample_rsbm(n, d1, d2, seed)
        assert g.sigma.tolist() == list(sigma), seed
        assert g.graph.edges.tolist() == [list(e) for e in edges], seed
        loop_validate(g)
    assert restarts["_try_pairing"] + restarts["_try_bipartite"] > 0


def test_first_new_takes_first_occurrences_of_keys_of_any_size():
    # keys up to 1e16, the pair keys of a graph on 1e8 vertices: a composite
    # key * m + position would overflow int64 here
    keys = np.repeat(np.random.default_rng(0).integers(0, 10**16, 1000), 2)
    expected = np.zeros(2000, dtype=bool)
    expected[20::2] = True  # the first of each repeated pair, past the 10 keys already taken
    assert np.array_equal(graphs._first_new(keys, np.sort(keys[:20:2])), expected)


# Growth of a fresh process's peak RSS (VmHWM) over its peak after imports, in kB.
GEN_PEAK = """
import sys
from nbspectra.cli import main
def peak():
    return int(next(line.split()[1] for line in open("/proc/self/status") if line.startswith("VmHWM:")))
base = peak()
assert main(["gen", *sys.argv[2:], "--n", "20000", "--seed", "1", "--out", sys.argv[1]]) == 0
print(peak() - base)
"""


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="reads /proc/self/status")
@pytest.mark.parametrize("model", [["--model", "regular", "--d", "3"], ["--model", "rsbm", "--d1", "3", "--d2", "2"]])
def test_gen_peak_stays_linear_at_n_20000(tmp_path, model):
    # measured 12.9 MB (regular) and 17.2 MB (rsbm) on a 2-core Xeon VM; the
    # n x n and (n/2) x (n/2) masks the samplers kept before made it 387 and
    # 100 MB. 40 MB leaves a 2.3x margin and still fails either mask.
    growth_mb = int(fresh_python(GEN_PEAK, str(tmp_path / "g.json"), *model)) / 1024
    assert growth_mb <= 40


_G = sample_regular_graph(10, 3, 0)
_H = sample_regular_hypergraph(9, 2, 3, 0)
_R = sample_rsbm(16, 2, 1, 2)


def _with_row(E, i, row):
    E = np.array(E)
    E[i] = row
    return E


def _swap_sides(r):
    # one vertex of each community trades places: balanced, but no longer blocks
    s = np.array(r.sigma)
    i, j = int(np.argmax(s == 1)), int(np.argmax(s == -1))
    s[i], s[j] = -1, 1
    return s


@pytest.mark.parametrize(
    "make,match",
    [
        (lambda: replace(_G, n=0), "bad sizes"),
        (lambda: replace(_G, edges=_G.edges[:, :1]), "bad sizes"),
        (lambda: replace(_G, edges=_G.edges[:-1]), "edge count"),
        (lambda: replace(_G, edges=_with_row(_G.edges, 0, (0, 0))), "bad edge"),
        (lambda: replace(_G, edges=_with_row(_G.edges, -1, (8, 10))), "bad edge"),
        (lambda: replace(_G, edges=_with_row(_G.edges, 1, _G.edges[0])), "repeated edge"),
        (lambda: replace(_G, edges=_G.edges[::-1]), "edges not sorted"),
        (lambda: RegularGraph(4, 2, ((0, 1), (0, 2), (0, 3), (1, 2))), "degree audit"),
        (lambda: replace(_H, d=1), "require d >= 2"),
        (lambda: replace(_H, n=8), "k must divide"),
        (lambda: replace(_H, hyperedges=_H.hyperedges[:, :2]), "not rows of 3"),
        (lambda: replace(_H, hyperedges=_H.hyperedges[:-1]), "hyperedge count"),
        (lambda: replace(_H, hyperedges=_with_row(_H.hyperedges, 0, (0, 0, 1))), "distinct vertices"),
        (lambda: replace(_H, hyperedges=_with_row(_H.hyperedges, 0, (1, 0, 2))), "distinct vertices"),
        (lambda: replace(_H, hyperedges=_with_row(_H.hyperedges, -1, (6, 7, 9))), "distinct vertices"),
        (lambda: replace(_H, hyperedges=_with_row(_H.hyperedges, 1, _H.hyperedges[0])), "repeated hyperedge"),
        (lambda: replace(_H, hyperedges=_H.hyperedges[::-1]), "hyperedges not sorted"),
        (lambda: RegularHypergraph(6, 2, 3, ((0, 1, 2), (0, 1, 3), (0, 1, 4), (2, 3, 5))), "degree audit"),
        (lambda: replace(_R, n=15, sigma=_R.sigma[:15]), "n must be even"),
        (lambda: replace(_R, sigma=_R.sigma[:-1]), "sigma must be a"),
        (lambda: replace(_R, sigma=_with_row(_R.sigma, 0, 0)), "sigma must be a"),
        (lambda: replace(_R, sigma=np.abs(_R.sigma)), "split vertices evenly"),
        (lambda: replace(_R, d2=2), "wrong size or degree"),
        (lambda: replace(_R, graph=replace(_R.graph, edges=_R.graph.edges[::-1])), "edges not sorted"),
        (lambda: replace(_R, sigma=_swap_sides(_R)), "within/cross"),
    ],
)
def test_validate_branch_rejects(make, match):
    bad = make()
    with pytest.raises(InvariantError, match=match):
        bad.validate()
    with pytest.raises(InvariantError):
        loop_validate(bad)


def test_graph_arrays_are_read_only_copies():
    r, h = sample_rsbm(16, 2, 1, 0), sample_regular_hypergraph(9, 2, 3, 0)
    for a in (r.sigma, r.graph.edges, h.hyperedges):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = a[-1]
    assert (r.sigma.dtype, r.graph.edges.dtype, h.hyperedges.dtype) == (np.int8, np.int64, np.int64)
    E = np.array(r.graph.edges)
    g = RegularGraph(r.n, r.d, E)
    E[0] = (0, 0)  # the graph owns a copy
    assert g == r.graph
    g.validate()


def test_rsbm_sigma_out_of_int8_range_rejected():
    # 257 would wrap to 1 in int8
    r = sample_rsbm(16, 2, 1, 0)
    sigma = r.sigma.astype(np.int64)
    sigma[sigma == 1] = 257
    with pytest.raises(InvariantError, match="int8"):
        RsbmGraph(n=16, d1=2, d2=1, sigma=sigma, graph=r.graph)


def test_fractional_edges_rejected():
    # the fractions would be dropped on the cast to int64
    g = sample_regular_graph(16, 3, 0)
    with pytest.raises(InvariantError, match="int64"):
        RegularGraph(n=16, d=3, edges=g.edges + 0.4)
    assert RegularGraph(n=16, d=3, edges=g.edges.astype(np.float64)) == g
