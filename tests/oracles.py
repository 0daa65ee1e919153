"""Independent brute-force oracles used only by tests.

`dense_logdet` is the dense LU log-determinant that the sparse `logdet`
under test replaced, `full_recovery` and `full_insider_report` the
community recovery and the insider report from the full certified
spectrum that the partial solves under test replaced, `quad_cdf` the
per-segment adaptive quadrature that the closed-form CDFs under test
replaced, and `sigma_reduced_eigenvector` the reduced-operator lift of
the community vector. `model_quantile` inverts `certified_cdf` by root
finding, `eigen_residual` a relative eigen-residual, and
`serial_ihara_bass_checks` the one-z-at-a-time determinant check that the
two-lane `ihara_bass_checks` under test replaced. `pairwise_lifted_spectrum` is the per-pair lift
(one scalar quadratic and one `LiftedPair` per eigenvalue, complex
residuals) that the array-backed `full_lifted_spectrum` replaced, with the
scalar `quad_roots` and the one-pair lifts `lift_eigenvalue[_hyper]` and
`lift_eigenvector_reduced`; `pairwise_spectrum_document` is the spectrum
file it wrote, with the kind and parameters that `model_params` reads off
the graph's class. `loop_adjacency` is the entry-by-entry dense adjacency that
the CSR builder under test replaced. The `loop_*` graph functions are the
per-item samplers (`loop_try_pairing`, `loop_try_bipartite`, over Python
tuples with the same RNG calls), degree
audit (`loop_validate`), oriented index and non-backtracking matrix (one
nonzero at a time through a lookup dict) that the array-backed graph layer
under test replaced; `loop_gen_document` is the `gen` file they give.

The characteristic polynomial is computed by the Faddeev-LeVerrier trace
recursion in exact integer arithmetic, split into exact squarefree factors
(repeated roots would otherwise cost ~eps^(1/multiplicity) accuracy), and
each simple factor is rooted with a companion-matrix solver. This shares no
code with the quadratic-lift path under test.
"""

import math
import warnings
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg as sla
import scipy.sparse as sp
import sympy
from scipy import integrate
from scipy.optimize import brentq, linear_sum_assignment

from nbspectra.errors import (
    AmbiguityError,
    DegenerateError,
    DomainError,
    InvariantError,
    MultiplicityError,
    ZeroVectorError,
)
from nbspectra.graphs import RegularGraph, RegularHypergraph, RsbmGraph, _try_grouping
from nbspectra.io import FORMAT_VERSION
from nbspectra.measures import _segment_integral
from nbspectra.operators import adjacency_matrix
from nbspectra.rsbm import ISOLATION_TOL, MATCH_TOL, InsiderGapReport, RecoveryResult, rsbm_mu2
from nbspectra.seeds import as_seed
from nbspectra.spectral import full_lifted_spectrum, symmetric_eigs
from nbspectra.verify import IharaBassRecord, logdet


def dense_logdet(M) -> "tuple[float, float]":
    """(log|det M|, arg det M) by dense pivoted LU; M dense or sparse.

    The phase is not reduced mod 2*pi. Every row swap of the pivot vector
    flips the sign.
    """
    M = M.toarray() if hasattr(M, "toarray") else np.asarray(M)
    lu, piv = sla.lu_factor(M.astype(np.complex128), check_finite=False)
    diag = np.diagonal(lu)
    swaps = int(np.sum(piv != np.arange(len(piv))))
    return float(np.sum(np.log(np.abs(diag)))), float(np.sum(np.angle(diag))) + math.pi * (swaps % 2)


def loop_adjacency(g) -> np.ndarray:
    """Dense int64 adjacency, one entry at a time; hypergraph entries count
    the hyperedges containing both endpoints."""
    A = np.zeros((g.n, g.n), dtype=np.int64)
    if isinstance(g, RegularHypergraph):
        for e in g.hyperedges:
            for a in range(len(e)):
                for b in range(a + 1, len(e)):
                    A[e[a], e[b]] += 1
                    A[e[b], e[a]] += 1
    else:
        for u, v in g.edges:
            A[u, v] = 1
            A[v, u] = 1
    return A


def quad_cdf(model, xs) -> np.ndarray:
    """Model CDF at ascending xs by adaptive quadrature of `model.pdf`.

    The mass is accumulated segment by segment between consecutive points,
    from the left support endpoint; points outside the support are clipped.
    Within about 1e-10 of a pole on a support edge it loses the mass of the
    last abscissae that round onto the edge (up to about 5e-9).
    """
    a, b = model.support
    F = np.empty(len(xs))
    acc, prev = 0.0, a
    for i, x in enumerate(np.clip(xs, a, b)):
        if x > prev:
            # roundoff warnings next to sqrt-singular endpoints are expected
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", integrate.IntegrationWarning)
                acc += integrate.quad(model.pdf, prev, x, epsabs=1e-12, epsrel=1e-12, limit=400)[0]
            prev = x
        F[i] = acc
    return F


def certified_cdf(model, x: float) -> float:
    """The program's certified closed-form CDF at x: the mass from the left
    support end, which the CDF clips x to."""
    return _segment_integral(model, model.support[0], float(x))


def model_quantile(model, p: float) -> float:
    """Inverse CDF by bisection (p strictly inside (0, 1))."""
    if not 0.0 < p < 1.0:
        raise DomainError("quantile level must be in (0, 1)")
    a, b = model.support
    return float(brentq(lambda x: certified_cdf(model, x) - p, a, b, xtol=1e-12))


def eigen_residual(M, mu: complex, w: np.ndarray) -> float:
    """Relative eigen-residual ||M w - mu w|| / ||w||; M dense or sparse."""
    w = np.asarray(w)
    nw = np.linalg.norm(w)
    if nw < 1e-300:
        raise ZeroVectorError("w must be nonzero")
    return float(np.linalg.norm(M @ w - complex(mu) * w) / nw)


def serial_ihara_bass_checks(system, zs) -> list:
    """The determinant check one z at a time, every factorization in the
    calling thread; same arithmetic as `ihara_bass_checks`."""
    records = []
    for z in map(complex, zs):
        reduced_z, poly = system.rhs_matrices(z)
        scalar = system.scalar(z)
        lhs = logdet(system.lhs_matrix(z))
        records.append(IharaBassRecord(z, lhs, scalar + logdet(reduced_z), scalar + logdet(poly)))
    return records


def full_recovery(g) -> RecoveryResult:
    """`recover_communities` over the whole spectrum from `symmetric_eigs`
    (detectability is not checked)."""
    lams, V, _ = symmetric_eigs(adjacency_matrix(g))
    perron = int(np.argmin(np.abs(lams - (g.d1 + g.d2))))
    target = float(g.d1 - g.d2)
    cand = sorted((i for i in range(len(lams)) if i != perron), key=lambda i: abs(lams[i] - target))
    best = cand[0]
    if abs(lams[cand[1]] - lams[best]) < 1e-6:
        raise AmbiguityError(f"eigenvalues {lams[best]} and {lams[cand[1]]} both lie near {target}")
    v = V[:, best]
    sigma_hat = np.where(v >= 0.0, 1, -1)
    agree = float(np.mean(sigma_hat == np.asarray(g.sigma)))
    agreement = max(agree, 1.0 - agree)
    return RecoveryResult(
        sigma_hat=tuple(int(s) for s in sigma_hat),
        agreement=agreement,
        exact=agreement == 1.0,
        zero_entries=int(np.sum(v == 0.0)),
        lam_selected=float(lams[best]),
    )


def full_insider_report(g) -> InsiderGapReport:
    """`insider_gap_report` over all 2n lifted eigenvalues of the full
    certified spectrum (detectability and even d1 are not checked)."""
    pair = rsbm_mu2(g.d1, g.d2)
    mus = full_lifted_spectrum(g).eigenvalues()
    specials = (float(g.d1 + g.d2 - 1), 1.0, float(pair.mu2.real), float(pair.mu2_prime.real))
    taken = np.zeros(len(mus), dtype=bool)
    for s in specials:
        dist = np.abs(mus - s)
        hits = np.flatnonzero((dist <= MATCH_TOL) & ~taken)
        if len(hits) != 1:
            raise MultiplicityError(f"expected exactly one eigenvalue at {s}, found {len(hits)}")
        if np.min(np.delete(dist, hits[0])) < ISOLATION_TOL:
            raise MultiplicityError(f"eigenvalue at {s} is not isolated at radius {ISOLATION_TOL}")
        taken[hits] = True
    radius = math.sqrt(g.d1 + g.d2 - 1)
    return InsiderGapReport(
        n=g.n,
        d1=g.d1,
        d2=g.d2,
        mu2=float(pair.mu2.real),
        mu2_prime=float(pair.mu2_prime.real),
        specials=specials,
        max_circle_deviation=float(np.max(np.abs(np.abs(mus[~taken]) - radius))),
        radius=radius,
    )


def sigma_reduced_eigenvector(g, mu: complex) -> np.ndarray:
    """Unit reduced-operator eigenvector [sigma; (mu/(d1+d2-1)) sigma]."""
    sigma = np.asarray(g.sigma, dtype=np.float64)
    u = np.concatenate([sigma.astype(np.complex128), (complex(mu) / (g.d1 + g.d2 - 1)) * sigma])
    return u / np.linalg.norm(u)


def quad_roots(t: float, p: float) -> "tuple[complex, complex]":
    """Roots of x^2 - t*x + p = 0, larger real part first (tie: +imag first).

    Uses the product identity for the second root to avoid cancellation.
    A discriminant within floating-point noise of zero is snapped to an
    exact double root.
    """
    disc = t * t - 4.0 * p
    if abs(disc) <= 1e-13 * max(1.0, t * t, 4.0 * abs(p)):
        return complex(0.5 * t), complex(0.5 * t)
    if disc >= 0.0:
        s = math.sqrt(disc)
        if t >= 0.0:
            big = 0.5 * (t + s)
            small = p / big if big != 0.0 else 0.5 * (t - s)
            return complex(big), complex(small)
        small = 0.5 * (t - s)
        big = p / small
        return complex(big), complex(small)
    s = math.sqrt(-disc)
    return complex(0.5 * t, 0.5 * s), complex(0.5 * t, -0.5 * s)


def lift_eigenvalue(lam: float, d: int) -> "tuple[complex, complex]":
    """The two eigenvalues of the reduced operator lifted from lambda (graph case)."""
    if d < 2:
        raise DegenerateError("lift requires d >= 2")
    return quad_roots(float(lam), float(d - 1))


def lift_eigenvalue_hyper(lam: float, d: int, k: int) -> "tuple[complex, complex]":
    """Lifted eigenvalue pair for a (d, k)-regular hypergraph; k=2 matches the graph lift."""
    if d < 2 or k < 2:
        raise DegenerateError("lift requires d >= 2 and k >= 2")
    return quad_roots(float(lam) - (k - 2), float((d - 1) * (k - 1)))


def lift_eigenvector_reduced(v: np.ndarray, mu: complex, d: int) -> np.ndarray:
    """Unit eigenvector [v; (mu/(d-1)) v] of the reduced operator."""
    if d <= 1:
        raise DegenerateError("reduced lift divides by d-1")
    v = np.asarray(v)
    c = complex(mu) / (d - 1)
    u = np.concatenate([v.astype(np.complex128), c * v])
    return u / np.linalg.norm(u)


@dataclass(frozen=True)
class LiftedPair:
    """Eigenvalue lambda of A with its two lifted eigenvalues and diagnostics."""

    lam: float
    mu: complex
    mu_prime: complex
    degenerate: bool
    d: int
    k: "int | None" = None
    residual_u: "float | None" = None
    residual_u_prime: "float | None" = None
    ratio_v: "float | None" = None
    ratio_u: "float | None" = None
    ratio_u_prime: "float | None" = None
    v: "np.ndarray | None" = field(default=None, repr=False, compare=False)

    def u(self) -> np.ndarray:
        return lift_eigenvector_reduced(self.v, self.mu, self.d)

    def u_prime(self) -> np.ndarray:
        return lift_eigenvector_reduced(self.v, self.mu_prime, self.d)


def model_params(g) -> tuple:
    """(kind, n, d, k, d1, d2) of g's spectrum file, by g's class: k null
    but for a hypergraph, d1 and d2 null but for an RSBM."""
    if isinstance(g, RsbmGraph):  # an RSBM is also a RegularGraph
        return "rsbm", g.n, g.d, None, g.d1, g.d2
    if isinstance(g, RegularHypergraph):
        return "hypergraph", g.n, g.d, g.k, None, None
    return "regular", g.n, g.d, None, None, None


def pairwise_lifted_spectrum(g) -> tuple:
    """One LiftedPair per eigenpair of `symmetric_eigs(A)` (lambda descending),
    lifted pair by pair, with the u-residuals in complex arithmetic."""
    kind, n, d, k, d1, d2 = model_params(g)
    A = adjacency_matrix(g)
    lams, V, _ = symmetric_eigs(A)
    shift, prod = (0.0, float(d - 1)) if k is None else (float(k - 2), float((d - 1) * (k - 1)))
    roots = [quad_roots(lam - shift, prod) for lam in lams]
    mus = np.asarray([r[0] for r in roots], dtype=np.complex128)
    mups = np.asarray([r[1] for r in roots], dtype=np.complex128)

    As = sp.csr_matrix(A.astype(np.float64))
    AV = As @ V
    vnorms = np.linalg.norm(V, axis=0)
    vinfs = np.max(np.abs(V), axis=0)

    def u_residuals(muvec: np.ndarray, cols=slice(None)) -> np.ndarray:
        c = muvec / (d - 1)
        s = np.sqrt(1.0 + np.abs(c) ** 2)
        Vc, vn = V[:, cols], vnorms[cols]
        top = np.abs((d - 1) * c - muvec) * vn
        if k is None:
            R = AV[:, cols] * c[None, :] - Vc - Vc * (muvec * c)[None, :]
        else:
            R = AV[:, cols] * c[None, :] - (k - 2) * Vc * c[None, :] - (k - 1) * Vc - Vc * (muvec * c)[None, :]
        bottom = np.linalg.norm(R, axis=0)
        return np.sqrt(top**2 + bottom**2) / (s * vn)

    def u_ratios(muvec: np.ndarray) -> np.ndarray:
        c = np.abs(muvec) / (d - 1)
        return np.maximum(1.0, c) * vinfs / (np.sqrt(1.0 + c**2) * vnorms)

    res_u = u_residuals(mus)
    res_up = res_u.copy()
    own = np.flatnonzero(mups != np.conj(mus))
    res_up[own] = u_residuals(mups[own], own)
    ratio_u = u_ratios(mus)
    ratio_up = u_ratios(mups)
    return tuple(
        LiftedPair(
            lam=float(lams[i]),
            mu=complex(mus[i]),
            mu_prime=complex(mups[i]),
            degenerate=bool(mus[i] == mups[i]),
            d=d,
            k=k,
            residual_u=float(res_u[i]),
            residual_u_prime=float(res_up[i]),
            ratio_v=float(vinfs[i] / vnorms[i]),
            ratio_u=float(ratio_u[i]),
            ratio_u_prime=float(ratio_up[i]),
            v=V[:, i],
        )
        for i in range(len(lams))
    )


def pairwise_spectrum_document(g, pairs) -> dict:
    """The spectrum file of `pairs` (from `pairwise_lifted_spectrum(g)`), as a JSON document."""
    kind, n, d, k, d1, d2 = model_params(g)
    return {
        "format": FORMAT_VERSION,
        "model": kind,
        "params": {"n": n, "d": d, "k": k, "d1": d1, "d2": d2},
        "pairs": [
            {
                "lambda": p.lam,
                "mu_re": p.mu.real,
                "mu_im": p.mu.imag,
                "mu_prime_re": p.mu_prime.real,
                "mu_prime_im": p.mu_prime.imag,
                "residual_u": p.residual_u,
                "residual_u_prime": p.residual_u_prime,
                "ratio_v": p.ratio_v,
                "ratio_u": p.ratio_u,
                "ratio_u_prime": p.ratio_u_prime,
                "degenerate": p.degenerate,
            }
            for p in pairs
        ],
    }


def _eye_obj(n: int) -> np.ndarray:
    eye = np.zeros((n, n), dtype=object)
    for i in range(n):
        eye[i, i] = 1
    return eye


def charpoly_int(M) -> list:
    """Monic characteristic polynomial coefficients [1, c1, ..., cn] of an
    integer matrix, exact."""
    arr = np.asarray(M)
    if not np.allclose(arr, np.round(arr)):
        raise ValueError("oracle needs an integer matrix")
    n = arr.shape[0]
    A = np.array([[int(round(x)) for x in row] for row in arr], dtype=object)
    eye = _eye_obj(n)
    coeffs = [1]
    Mk = np.zeros((n, n), dtype=object)
    for k in range(1, n + 1):
        Mk = A @ Mk + coeffs[-1] * eye
        tr = int(np.trace(A @ Mk))
        assert tr % k == 0, "Faddeev-LeVerrier trace must divide exactly"
        coeffs.append(-(tr // k))
    return coeffs


def charpoly_roots(M) -> np.ndarray:
    """All eigenvalues of an integer matrix via its exact characteristic
    polynomial, with exact multiplicities."""
    coeffs = charpoly_int(M)
    z = sympy.Symbol("z")
    poly = sympy.Poly(coeffs, z, domain=sympy.ZZ)
    roots: list = []
    _, factors = poly.sqf_list()
    for factor, mult in factors:
        simple = np.roots([float(c) for c in factor.all_coeffs()])
        roots.extend(list(simple) * mult)
    assert len(roots) == M.shape[0]
    return np.asarray(roots, dtype=np.complex128)


def multiset_match_distance(a, b) -> float:
    """Max pairing distance of an optimal matching between two equal-size
    complex multisets."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    assert len(a) == len(b)
    cost = np.abs(a[:, None] - b[None, :])
    rows, cols = linear_sum_assignment(cost)
    return float(np.max(cost[rows, cols]))


# ------------------------------------------------------------------ loop graphs
# The per-item samplers, audits and operators that the array-backed graph layer
# replaced, over Python tuples: same RNG calls, same acceptance rules.


def _permuted(items: list, rng: np.random.Generator) -> list:
    return [items[i] for i in rng.permutation(len(items))]


def _suitable(edges: set, leftover: dict) -> bool:
    # True if some pair of leftover stubs can still form a new simple edge.
    if not leftover:
        return True
    nodes = list(leftover)
    for i, u in enumerate(nodes):
        for v in nodes[i + 1 :]:
            e = (u, v) if u < v else (v, u)
            if e not in edges:
                return True
    return False


def loop_try_pairing(n: int, d: int, rng: np.random.Generator):
    """One attempt at stub matching: the edge set, or None (restart)."""
    edges: set = set()
    stubs = list(range(n)) * d
    while stubs:
        stubs = _permuted(stubs, rng)
        leftover: dict = defaultdict(int)
        it = iter(stubs)
        for u, v in zip(it, it):
            if u > v:
                u, v = v, u
            if u != v and (u, v) not in edges:
                edges.add((u, v))
            else:
                leftover[u] += 1
                leftover[v] += 1
        if not _suitable(edges, leftover):
            return None
        stubs = [v for v, c in leftover.items() for _ in range(c)]
    return edges


def _suitable_bipartite(edges: set, left: list, right: list) -> bool:
    if not left:
        return True
    for u in set(left):
        for v in set(right):
            if (u, v) not in edges:
                return True
    return False


def loop_try_bipartite(left: list, right: list, deg: int, rng: np.random.Generator):
    """One attempt at a deg-regular bipartite matching: the edge set, or None."""
    edges: set = set()
    ls = [u for u in left for _ in range(deg)]
    rs = [v for v in right for _ in range(deg)]
    while ls:
        ls = _permuted(ls, rng)
        rs = _permuted(rs, rng)
        lo_l: list = []
        lo_r: list = []
        for u, v in zip(ls, rs):
            if (u, v) not in edges:
                edges.add((u, v))
            else:
                lo_l.append(u)
                lo_r.append(v)
        if not _suitable_bipartite(edges, lo_l, lo_r):
            return None
        ls, rs = lo_l, lo_r
    return edges


def loop_sample_regular_graph(n: int, d: int, seed) -> tuple:
    """The sorted edge tuple that `sample_regular_graph(n, d, seed)` must return."""
    rng = as_seed(seed).generator()
    while True:
        edges = loop_try_pairing(n, d, rng)
        if edges is not None:
            return tuple(sorted(edges))


def loop_sample_regular_hypergraph(n: int, d: int, k: int, seed) -> tuple:
    """The sorted hyperedge tuple of `sample_regular_hypergraph(n, d, k, seed)`;
    the grouping pass is the package's own, which works on Python tuples."""
    rng = as_seed(seed).generator()
    while True:
        edges = _try_grouping(n, d, k, rng)
        if edges is not None:
            return tuple(sorted(edges))


def loop_sample_rsbm(n: int, d1: int, d2: int, seed) -> "tuple[tuple, tuple]":
    """(sigma, sorted edges) of `sample_rsbm(n, d1, d2, seed)`, as tuples."""
    rng = as_seed(seed).generator()
    half = n // 2
    perm = [int(x) for x in rng.permutation(n)]
    side1, side2 = sorted(perm[:half]), sorted(perm[half:])
    sigma = [0] * n
    for v in side1:
        sigma[v] = 1
    for v in side2:
        sigma[v] = -1
    while True:
        e1 = loop_try_pairing(half, d1, rng)
        if e1 is None:
            continue
        e2 = loop_try_pairing(half, d1, rng)
        if e2 is None:
            continue
        ec = loop_try_bipartite(side1, side2, d2, rng)
        if ec is None:
            continue
        edges = {tuple(sorted((side1[u], side1[v]))) for u, v in e1}
        edges |= {tuple(sorted((side2[u], side2[v]))) for u, v in e2}
        edges |= {tuple(sorted(e)) for e in ec}
        return tuple(sigma), tuple(sorted(edges))


def loop_gen_document(model: str, n: int, seed, d=None, k=None, d1=None, d2=None) -> dict:
    """The `gen` file of the loop sample of a model, as a JSON document."""
    head = {"format": FORMAT_VERSION, "model": model, "n": n}
    if model == "regular":
        return {**head, "d": d, "edges": [list(e) for e in loop_sample_regular_graph(n, d, seed)]}
    if model == "hypergraph":
        rows = loop_sample_regular_hypergraph(n, d, k, seed)
        return {**head, "d": d, "k": k, "hyperedges": [list(e) for e in rows]}
    sigma, edges = loop_sample_rsbm(n, d1, d2, seed)
    return {
        **head,
        "d": d1 + d2,
        "d1": d1,
        "d2": d2,
        "sigma": list(sigma),
        "edges": [list(e) for e in edges],
    }


def loop_validate(g) -> None:
    """The per-item degree audit of a graph, hypergraph or RSBM sample."""
    if isinstance(g, RsbmGraph):
        sigma = g.sigma.tolist()
        if g.n % 2:
            raise InvariantError("n must be even")
        if len(sigma) != g.n or any(s not in (-1, 1) for s in sigma):
            raise InvariantError("sigma must be a +-1 vector of length n")
        if sum(1 for s in sigma if s == 1) != g.n // 2:
            raise InvariantError("sigma must split vertices evenly")
        if g.d != g.d1 + g.d2:
            raise InvariantError("wrong size or degree")
        loop_validate(RegularGraph(g.n, g.d, g.edges))
        within = [0] * g.n
        cross = [0] * g.n
        for u, v in g.edges.tolist():
            side = within if sigma[u] == sigma[v] else cross
            side[u] += 1
            side[v] += 1
        if any(x != g.d1 for x in within) or any(x != g.d2 for x in cross):
            raise InvariantError("within/cross degree audit failed")
        return
    hyper = isinstance(g, RegularHypergraph)
    k = g.k if hyper else 2
    if hyper and (g.d < 2 or k < 2 or (g.n * g.d) % k):
        raise InvariantError("bad hypergraph sizes")
    if not hyper and (g.n < 1 or g.d < 0 or (g.n * g.d) % 2):
        raise InvariantError(f"bad sizes n={g.n} d={g.d}")
    rows = [tuple(e) for e in (g.hyperedges if hyper else g.edges).tolist()]
    if len(rows) != g.n * g.d // k:
        raise InvariantError("edge count mismatch")
    deg = [0] * g.n
    seen: set = set()
    prev = None
    for t in rows:
        if len(t) != k or len(set(t)) != k or list(t) != sorted(t) or not (0 <= t[0] and t[-1] < g.n):
            raise InvariantError(f"bad edge {t}")
        if t in seen:
            raise InvariantError(f"repeated edge {t}")
        if prev is not None and not prev < t:
            raise InvariantError("edges not sorted")
        seen.add(t)
        prev = t
        for v in t:
            deg[v] += 1
    if any(x != g.d for x in deg):
        raise InvariantError("degree audit failed")


def _loop_items(g) -> list:
    """Sorted oriented edges (u, v) of a graph, or sorted incidences (vertex,
    hyperedge rank) of a hypergraph."""
    if isinstance(g, RegularHypergraph):
        return sorted((v, rank) for rank, e in enumerate(g.hyperedges.tolist()) for v in e)
    return sorted(x for u, v in g.edges.tolist() for x in ((u, v), (v, u)))


def loop_oriented_index(g) -> tuple:
    """(tail vertex, partner positions) of each item of `_loop_items`: the
    partners are the other incidences of the item's hyperedge, ascending,
    and the one partner of an oriented edge (u, v) is (v, u)."""
    items = _loop_items(g)
    lookup = {it: r for r, it in enumerate(items)}
    if isinstance(g, RegularHypergraph):
        hyperedges = g.hyperedges.tolist()
        return tuple(
            (i, tuple(sorted(lookup[(j, rank)] for j in hyperedges[rank] if j != i))) for i, rank in items
        )
    return tuple((u, (lookup[(v, u)],)) for u, v in items)


def loop_nonbacktracking_matrix(g) -> sp.csr_matrix:
    """B over `_loop_items`, one nonzero at a time through a lookup dict."""
    items = _loop_items(g)
    lookup = {it: r for r, it in enumerate(items)}
    rows: list = []
    cols: list = []
    if isinstance(g, RegularHypergraph):
        hyperedges = g.hyperedges.tolist()
        incident: list = [[] for _ in range(g.n)]
        for rank, e in enumerate(hyperedges):
            for v in e:
                incident[v].append(rank)
        for r, (i, erank) in enumerate(items):
            for j in hyperedges[erank]:
                if j == i:
                    continue
                for frank in incident[j]:
                    if frank != erank:
                        rows.append(r)
                        cols.append(lookup[(j, frank)])
    else:
        nbrs: list = [[] for _ in range(g.n)]
        for u, v in g.edges.tolist():
            nbrs[u].append(v)
            nbrs[v].append(u)
        for r, (u, v) in enumerate(items):
            for y in nbrs[v]:
                if y != u:
                    rows.append(r)
                    cols.append(lookup[(v, y)])
    m = len(items)
    B = sp.coo_matrix((np.ones(len(rows)), (rows, cols)), shape=(m, m), dtype=np.float64).tocsr()
    B.sort_indices()
    return B
