"""Symmetric eigendecomposition of A and the algebraic lift to the
non-backtracking spectra.

Each adjacency eigenpair (lambda, v) yields two eigenvalues of the reduced
operator through a quadratic:

    graphs:       mu^2 - lambda*mu + (d-1) = 0
    hypergraphs:  mu^2 - (lambda-k+2)*mu + (d-1)(k-1) = 0

with eigenvectors [v; (mu/(d-1)) v] for the reduced operator and the
edge-indexed lifts for B itself. The "+" branch is fixed as the root with
larger real part (ties: nonnegative imaginary part) so runs are comparable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.linalg import lapack
from scipy.sparse.linalg import eigsh

from .errors import (
    ConvergenceError,
    DegenerateError,
    TrivialEigenvalueError,
    ZeroVectorError,
)
from .graphs import RegularGraph, RegularHypergraph, RsbmGraph
from .operators import (
    OrientedEdgeIndex,
    adjacency_matrix,
    nonbacktracking_matrix,
    oriented_index,
    underlying_graph,
)

#: lifted eigenvalues closer than this to a trivial value are rejected for w-lifts
TRIVIAL_TOL = 1e-9
#: a lifted w below this norm counts as the zero vector
ZERO_W_TOL = 1e-12
#: the inertia shift sits this far (relative to ||A||) past the innermost Ritz
#: value: 100 residual tolerances, so the eigenvalue that value certifies lies
#: beyond it, and far above the backward error of the LDL^T factorization
INERTIA_GAP = 1e-7


@dataclass(frozen=True)
class SpectralPair:
    """Real eigenpair of A with its certified residual ||Av - lambda v||."""

    lam: float
    v: np.ndarray
    residual: float


def _symmetric_float(A) -> np.ndarray:
    A = np.asarray(A)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError("A must be square")
    Af = A.astype(np.float64, copy=False)
    if not np.array_equal(Af, Af.T):
        raise ValueError("A must be symmetric")
    return Af


def _certified_pairs(As, vals: np.ndarray, vecs: np.ndarray, scale: float, resid_tol: float, ortho_tol: float):
    """SpectralPairs of (vals, vecs) once ||A v_i - lambda_i v_i|| <= resid_tol * scale
    for every i and the v_i are orthonormal to ortho_tol, else ConvergenceError."""
    # "not max <= tol" also rejects a NaN
    residuals = np.linalg.norm(As @ vecs - vecs * vals[None, :], axis=0)
    if not np.max(residuals) <= resid_tol * scale:
        raise ConvergenceError(f"eigen-residual {np.max(residuals):.3e} exceeds certificate")
    defect = np.max(np.abs(vecs.T @ vecs - np.eye(len(vals))))
    if not defect <= ortho_tol:
        raise ConvergenceError(f"orthonormality defect {defect:.3e}")
    return [SpectralPair(float(vals[i]), vecs[:, i], float(residuals[i])) for i in range(len(vals))]


def symmetric_eigs(A: np.ndarray, resid_tol: float = 1e-9, ortho_tol: float = 1e-9):
    """Full eigendecomposition of a symmetric matrix, certified a posteriori.

    Returns SpectralPairs sorted by eigenvalue descending. The residual
    certificate requires ||A v_i - lambda_i v_i|| <= resid_tol * ||A|| for
    every i and pairwise orthonormality to ortho_tol, else ConvergenceError.
    """
    Af = _symmetric_float(A)
    vals, vecs = np.linalg.eigh(Af)
    # contiguous copies: negative-stride views force matmul off the BLAS path
    vals = np.ascontiguousarray(vals[::-1])
    vecs = np.ascontiguousarray(vecs[:, ::-1])
    scale = max(float(np.max(np.abs(vals))), 1.0)
    return _certified_pairs(sp.csr_matrix(Af), vals, vecs, scale, resid_tol, ortho_tol)


def _count_beyond(A: np.ndarray, s: float, side: float) -> int:
    """Number of eigenvalues of symmetric A above s (side = 1) or below s (side = -1).

    Sylvester's law of inertia: they are the positive eigenvalues of
    side*(A - sI) = L D L^T, hence of Bunch-Kaufman's block-diagonal D. Each
    2x2 block of D has a negative determinant (the pivoting rule ensures it),
    so it holds one eigenvalue of each sign.
    """
    M = np.array(A, dtype=np.float64, order="F")
    M.flat[:: M.shape[0] + 1] -= s
    M *= side
    ldu, ipiv, _ = lapack.dsytrf(M, overwrite_a=True)
    one = ipiv > 0
    return int(np.count_nonzero(np.diagonal(ldu)[one] > 0)) + int(np.count_nonzero(~one)) // 2


def _lanczos_pairs(As, k: int, side: float, scale: float):
    """The k extreme eigenpairs of sparse As on one side, descending, certified."""
    # not the all-ones vector: that is the Perron vector of a regular graph,
    # orthogonal to every other eigenvector
    v0 = np.random.default_rng(0).standard_normal(As.shape[0])
    vals, vecs = eigsh(As, k=k, which="LA" if side > 0 else "SA", v0=v0)
    order = np.argsort(-vals, kind="stable")
    vals, vecs = np.ascontiguousarray(vals[order]), np.ascontiguousarray(vecs[:, order])
    return vals, _certified_pairs(As, vals, vecs, scale, 1e-9, 1e-9)


def extreme_eigs(A: np.ndarray, target: float):
    """The extreme eigenpairs of symmetric A on the side of `target`, certified.

    Returns SpectralPairs sorted by eigenvalue descending: the k largest
    eigenpairs when target >= 0, else the k smallest, for the least k >= 3
    whose innermost eigenvalue lies past target and no nearer it than the
    one before. So the two eigenvalues nearest target, the extreme one not
    counted, are among those returned, and every eigenvalue not returned is
    farther from target than they are.

    Lanczos (ARPACK `eigsh` on sparse A, from a fixed start vector, so runs
    are reproducible) gives k Ritz pairs. Their residuals must be <= 1e-9 *
    ||A|| and the vectors orthonormal to 1e-9, as in `symmetric_eigs` (||A||
    is taken as the largest absolute row sum: equal for a regular graph, an
    upper bound otherwise). Then a Sylvester-inertia count of A - sI, with s
    just past the innermost Ritz value, must be k: that proves no eigenvalue
    beyond s was missed. A larger count, or an innermost value short of
    target or nearer it than the one before, raises k to the count plus one
    and solves again; a smaller count raises ConvergenceError. Where k would reach n-1, where ARPACK cannot run,
    this is `symmetric_eigs(A)`.
    """
    Af = _symmetric_float(A)
    n = Af.shape[0]
    As = sp.csr_matrix(Af)
    scale = max(float(abs(As).sum(axis=1).max()), 1.0)
    side = 1.0 if target >= 0 else -1.0
    k = 3
    while k < n - 1:
        vals, pairs = _lanczos_pairs(As, k, side, scale)
        inner, before = (vals[-1], vals[-2]) if side > 0 else (vals[0], vals[1])
        count = _count_beyond(Af, inner - side * INERTIA_GAP * scale, side)
        if count < k:
            raise ConvergenceError(f"inertia count {count} below the {k} Ritz values it must certify")
        if count == k and side * (inner + before) <= 2.0 * side * target:
            return pairs
        k = count + 1
    return symmetric_eigs(A)


def outlier_eigs(A: np.ndarray, edge: float):
    """The eigenpairs of symmetric A above s and below -s, s = edge - INERTIA_GAP *
    ||A||, largest first on each side. An inertia count fixes how many lie on
    each side, Lanczos solves for exactly that many, certified as in
    `extreme_eigs`, and each Ritz value must lie beyond its shift, else
    ConvergenceError. Where a count would reach n-1, `symmetric_eigs` solves."""
    Af = _symmetric_float(A)
    As = sp.csr_matrix(Af)
    scale = max(float(abs(As).sum(axis=1).max()), 1.0)
    s = edge - INERTIA_GAP * scale
    counts = [(side, _count_beyond(Af, side * s, side)) for side in (1.0, -1.0)]
    if max(count for _, count in counts) >= len(Af) - 1:
        return [p for p in symmetric_eigs(A) if abs(p.lam) > s]
    pairs = []
    for side, count in counts:
        if count:
            vals, found = _lanczos_pairs(As, count, side, scale)
            if not np.min(side * vals) > s:
                raise ConvergenceError(f"a Ritz value lies short of the inertia shift {side * s:.6g}")
            pairs += found
    return pairs


def _quad_roots(t: float, p: float) -> "tuple[complex, complex]":
    """Roots of x^2 - t*x + p = 0, larger real part first (tie: +imag first).

    Uses the product identity for the second root to avoid cancellation.
    A discriminant within floating-point noise of zero is snapped to an
    exact double root: near the bulk edge the raw formula would amplify an
    eps-size eigenvalue error to sqrt(eps) in the roots.
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
    return _quad_roots(float(lam), float(d - 1))


def lift_eigenvalue_hyper(lam: float, d: int, k: int) -> "tuple[complex, complex]":
    """Lifted eigenvalue pair for a (d, k)-regular hypergraph; k=2 matches the graph lift."""
    if d < 2 or k < 2:
        raise DegenerateError("lift requires d >= 2 and k >= 2")
    return _quad_roots(float(lam) - (k - 2), float((d - 1) * (k - 1)))


def lift_eigenvector_reduced(v: np.ndarray, mu: complex, d: int) -> np.ndarray:
    """Unit eigenvector [v; (mu/(d-1)) v] of the reduced operator."""
    if d <= 1:
        raise DegenerateError("reduced lift divides by d-1")
    v = np.asarray(v)
    c = complex(mu) / (d - 1)
    u = np.concatenate([v.astype(np.complex128), c * v])
    return u / np.linalg.norm(u)


def lift_eigenvector_nb(v: np.ndarray, mu: complex, index: OrientedEdgeIndex) -> np.ndarray:
    """Eigenvector of B on oriented edges: w(x, y) = mu*v(y) - v(x).

    Unnormalized; for a unit v and a conjugate-pair mu its squared norm is
    d^2 - lambda^2. Trivial eigenvalues +-1 are rejected, as is a vanishing w.
    """
    mu = complex(mu)
    if abs(mu - 1.0) < TRIVIAL_TOL or abs(mu + 1.0) < TRIVIAL_TOL:
        raise TrivialEigenvalueError(f"mu = {mu} is a trivial eigenvalue of B")
    tails, heads = index.tails_heads()
    v = np.asarray(v)
    w = mu * v[heads] - v[tails]
    if np.linalg.norm(w) < ZERO_W_TOL:
        raise ZeroVectorError("lifted eigenvector vanished")
    return w


def _hyperedge_sums(H: RegularHypergraph, V: np.ndarray) -> np.ndarray:
    """Per-hyperedge sums of vector entries; V may be (n,) or (n, m)."""
    rows = np.asarray([rank for rank, e in enumerate(H.hyperedges) for _ in e])
    cols = np.asarray([v for e in H.hyperedges for v in e])
    M = sp.csr_matrix(
        (np.ones(len(rows)), (rows, cols)), shape=(len(H.hyperedges), H.n)
    )
    return M @ V


def lift_eigenvector_nb_hyper(
    v: np.ndarray, mu: complex, H: RegularHypergraph, index: OrientedEdgeIndex
) -> np.ndarray:
    """Eigenvector of hypergraph B: w(x, e) = mu * sum_{y in e, y != x} v(y) - (k-1) v(x)."""
    mu = complex(mu)
    k = H.k
    if abs(mu - 1.0) < TRIVIAL_TOL or abs(mu + (k - 1)) < TRIVIAL_TOL:
        raise TrivialEigenvalueError(f"mu = {mu} is a trivial eigenvalue of hypergraph B")
    v = np.asarray(v)
    esum = _hyperedge_sums(H, v)
    verts, ranks = index.tails_heads()
    w = mu * (esum[ranks] - v[verts]) - (k - 1) * v[verts]
    if np.linalg.norm(w) < ZERO_W_TOL:
        raise ZeroVectorError("lifted eigenvector vanished")
    return w


def deterministic_deloc_bound(lam: float, mu: complex, d: int, k: "int | None", v_inf: float) -> float:
    """Deterministic l_inf/l_2 bound for a lifted eigenvector of B.

    Graph: v_inf (|mu|+1) / sqrt(d^2 - lambda^2).
    Hypergraph: v_inf sqrt(k-1) (|mu|+1) / sqrt((d+lambda)(d(k-1)-lambda)).
    """
    am = abs(complex(mu))
    if k is None or k == 2:
        if abs(abs(lam) - d) < 1e-9:
            raise DegenerateError(f"bound diverges at lambda = +-d (lambda={lam})")
        den = d * d - lam * lam
        if den <= 0:
            raise DegenerateError(f"|lambda| = {abs(lam)} exceeds d = {d}")
        return v_inf * (am + 1.0) / math.sqrt(den)
    if abs(lam - d * (k - 1)) < 1e-9 or abs(lam + d) < 1e-9:
        raise DegenerateError(f"bound diverges at lambda in {{d(k-1), -d}} (lambda={lam})")
    den = (d + lam) * (d * (k - 1) - lam)
    if den <= 0:
        raise DegenerateError(f"lambda = {lam} outside (-d, d(k-1))")
    return v_inf * math.sqrt(k - 1) * (am + 1.0) / math.sqrt(den)


def nb_norm_sq_graph(lam: float, mu: complex, d: int) -> float:
    """Exact ||w||^2 of the graph lift for unit v: d(|mu|^2+1) - 2*lambda*Re(mu).

    Reduces to d^2 - lambda^2 when mu, mu' are complex conjugates.
    """
    mu = complex(mu)
    return d * (abs(mu) ** 2 + 1.0) - 2.0 * lam * mu.real


def nb_norm_sq_hyper(lam: float, mu: complex, d: int, k: int) -> float:
    """Exact ||w||^2 of the hypergraph lift for unit v.

    Reduces to (k-1)(d+lambda)(d(k-1)-lambda) for conjugate pairs.
    """
    mu = complex(mu)
    s = (k - 2) * lam + (k - 1) * d
    return abs(mu) ** 2 * s + (k - 1) ** 2 * d - 2.0 * mu.real * (k - 1) * lam


@dataclass(frozen=True)
class LiftedPair:
    """Eigenvalue lambda of A with its two lifted eigenvalues and diagnostics.

    Holds the unit eigenvector v of A when computed locally (None when read
    back from a spectrum file); u/u_prime/w/w_prime are built on demand.
    """

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

    def _require_v(self) -> np.ndarray:
        if self.v is None:
            raise ValueError("this pair carries no eigenvector (loaded from file?)")
        return self.v

    def u(self) -> np.ndarray:
        return lift_eigenvector_reduced(self._require_v(), self.mu, self.d)

    def u_prime(self) -> np.ndarray:
        return lift_eigenvector_reduced(self._require_v(), self.mu_prime, self.d)

    def w(self, g, index: OrientedEdgeIndex | None = None) -> np.ndarray:
        h = underlying_graph(g)
        index = index or oriented_index(h)
        if isinstance(h, RegularHypergraph):
            return lift_eigenvector_nb_hyper(self._require_v(), self.mu, h, index)
        return lift_eigenvector_nb(self._require_v(), self.mu, index)

    def w_prime(self, g, index: OrientedEdgeIndex | None = None) -> np.ndarray:
        h = underlying_graph(g)
        index = index or oriented_index(h)
        if isinstance(h, RegularHypergraph):
            return lift_eigenvector_nb_hyper(self._require_v(), self.mu_prime, h, index)
        return lift_eigenvector_nb(self._require_v(), self.mu_prime, index)


@dataclass(frozen=True)
class LiftedSpectrum:
    """All 2n eigenvalues of the reduced operator, as n lifted pairs (lambda descending)."""

    kind: str  # "regular" | "hypergraph" | "rsbm"
    n: int
    d: int
    k: "int | None"
    pairs: tuple
    d1: "int | None" = None
    d2: "int | None" = None

    def mus(self) -> np.ndarray:
        """The 2n lifted eigenvalues: mu of each pair, then mu_prime of each pair."""
        return np.asarray(
            [p.mu for p in self.pairs] + [p.mu_prime for p in self.pairs], dtype=np.complex128
        )

    def lams(self) -> np.ndarray:
        return np.asarray([p.lam for p in self.pairs], dtype=np.float64)


def _model_params(g) -> "tuple[str, int, int, int | None, int | None, int | None]":
    h = underlying_graph(g)
    if isinstance(g, RsbmGraph):
        return "rsbm", g.n, g.d1 + g.d2, None, g.d1, g.d2
    if isinstance(h, RegularHypergraph):
        return "hypergraph", h.n, h.d, h.k, None, None
    return "regular", h.n, h.d, None, None, None


def _lift_quadratic_params(d: int, k: "int | None") -> "tuple[float, float]":
    """(shift, product): the lift quadratic is mu^2 - (lambda - shift) mu + product."""
    if k is None:
        return 0.0, float(d - 1)
    return float(k - 2), float((d - 1) * (k - 1))


def full_lifted_spectrum(g) -> LiftedSpectrum:
    """Eigendecompose A and lift every eigenpair to the reduced operator.

    Residuals of each lifted eigenvector are evaluated against the actual
    block operator (sparse A), not the algebraic identity that produced them.
    """
    kind, n, d, k, d1, d2 = _model_params(g)
    A = adjacency_matrix(g)
    eigs = symmetric_eigs(A)
    lams = np.asarray([p.lam for p in eigs])
    V = np.column_stack([p.v for p in eigs])
    shift, prod = _lift_quadratic_params(d, k)
    roots = [_quad_roots(lam - shift, prod) for lam in lams]
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
    # V and AV are real: where mu' = conj(mu) the residual is the conjugate one, same norm
    res_up = res_u.copy()
    own = np.flatnonzero(mups != np.conj(mus))
    res_up[own] = u_residuals(mups[own], own)
    ratio_u = u_ratios(mus)
    ratio_up = u_ratios(mups)

    pairs = tuple(
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
        for i in range(len(eigs))
    )
    return LiftedSpectrum(kind=kind, n=n, d=d, k=k, pairs=pairs, d1=d1, d2=d2)


@dataclass(frozen=True)
class DelocRecord:
    """Per-lifted-eigenvector delocalization record.

    ratio_w and bound are None when the w-lift is trivial/zero or the
    deterministic bound does not apply (real non-conjugate root).
    """

    lam: float
    mu: complex
    ratio_v: float
    ratio_u: float
    ratio_w: "float | None"
    bound: "float | None"
    bound_ok: "bool | None"


@dataclass(frozen=True)
class SpectrumAudit:
    """Aggregated exact-identity and delocalization audit of one instance.

    All *_err fields are worst-case deviations over the instance; violation
    counters must be zero for a healthy instance.
    """

    kind: str
    n: int
    d: int
    k: "int | None"
    vieta_sum_err: float
    vieta_prod_err: float
    n_bulk: int
    circle_err: float
    resid_u_max: float
    resid_w_max: float
    norm_paper_err: float
    norm_general_err: float
    ratio_mono_violations: int
    bound_violations: int
    perron_ratio_err: "float | None"
    skipped_trivial: int
    skipped_zero: int
    records: tuple


#: eigenvectors per block of the w-lift statistics; keeps each (rows x nd) temporary in cache
W_BLOCK = 32


def _w_row_stats(muvec: np.ndarray, G1: np.ndarray, G2: np.ndarray, P: np.ndarray, BG2: np.ndarray):
    """Norm and max modulus of each row W = mu*G1 - G2, and the norm of B W - mu W.

    B W - mu W = mu*P - mu^2*G1 - BG2 with P = B G1 + G2 and BG2 = B G2 (rows
    hold B applied to the real factors). Real arithmetic on the real factors:
    Re W = a*G1 - G2, Im W = b*G1 for mu = a + ib.
    """
    a, b = muvec.real[:, None], muvec.imag[:, None]
    m2 = (muvec**2)[:, None]
    re = G1 * a - G2
    im = G1 * b
    sq = re * re + im * im
    wnorm = np.sqrt(sq.sum(axis=1))
    winf = np.sqrt(sq.max(axis=1))
    re = P * a - G1 * m2.real - BG2
    im = P * b - G1 * m2.imag
    resid = np.sqrt(np.einsum("ij,ij->i", re, re) + np.einsum("ij,ij->i", im, im))
    return wnorm, winf, resid


def spectrum_audit(g, spectrum: LiftedSpectrum | None = None, keep_records: bool = True) -> SpectrumAudit:
    """Verify every lift identity of one instance against the real operators.

    Covers: Vieta sum/product (relative errors), the bulk circle law,
    reduced and edge-level eigen-residuals (the latter via the assembled
    sparse B), the closed-form w norms, ratio monotonicity of u against v,
    the deterministic l_inf bound for conjugate-pair w's, and the Perron w
    ratio 1/sqrt(nd). keep_records=False drops the per-eigenvector records
    (large corpora keep only the aggregates).
    """
    h = underlying_graph(g)
    kind, n, d, k, _, _ = _model_params(g)
    spec = spectrum if spectrum is not None else full_lifted_spectrum(g)
    lams = spec.lams()
    mus = np.asarray([p.mu for p in spec.pairs], dtype=np.complex128)
    mups = np.asarray([p.mu_prime for p in spec.pairs], dtype=np.complex128)
    VT = np.vstack([p.v for p in spec.pairs])  # one eigenvector per row
    shift, prod = _lift_quadratic_params(d, k)
    q = prod

    vieta_sum_err = float(
        np.max(np.abs(mus + mups - (lams - shift)) / np.maximum(1.0, np.abs(lams - shift)))
    )
    vieta_prod_err = float(np.max(np.abs(mus * mups - q)) / q)

    disc = (lams - shift) ** 2 - 4.0 * q
    bulk = disc <= 0.0
    n_bulk = int(np.sum(bulk))
    circle_err = 0.0
    if n_bulk:
        r = math.sqrt(q)
        circle_err = float(
            max(
                np.max(np.abs(np.abs(mus[bulk]) - r)),
                np.max(np.abs(np.abs(mups[bulk]) - r)),
            )
        )

    resid_u_max = float(
        max(max(p.residual_u for p in spec.pairs), max(p.residual_u_prime for p in spec.pairs))
    )

    index = oriented_index(h)
    B = nonbacktracking_matrix(h, index)
    tails, heads = index.tails_heads()
    # hypergraph rows of W need each eigenvector's per-hyperedge sums
    EST = None if k is None else np.ascontiguousarray(_hyperedge_sums(h, VT.T).T)
    vinfs = np.asarray([p.ratio_v for p in spec.pairs])  # v is unit: ratio_v == ||v||_inf

    # w-lift statistics (wnorm, winf, resid) of every pair, for mu and for mu'.
    # The factors G1, G2 (W = mu*G1 - G2) are real, so B is applied once per
    # block to them and the scalars enter after; and where mu' = conj(mu) the
    # W and residual of mu' are conjugates of those of mu, whose norms and
    # maxima are the same bits, so they are not computed again.
    m = len(spec.pairs)
    wstats = np.empty((2, 3, m))
    own = np.flatnonzero(mups != np.conj(mus))
    for r0 in range(0, m, W_BLOCK):
        rows = slice(r0, min(r0 + W_BLOCK, m))
        vt = VT[rows]
        if EST is None:
            G1, G2 = vt[:, heads], vt[:, tails]
        else:
            G1 = EST[rows][:, heads] - vt[:, tails]
            G2 = (k - 1) * vt[:, tails]
        BG2 = (B @ G2.T).T
        P = (B @ G1.T).T + G2
        wstats[0, :, rows] = _w_row_stats(mus[rows], G1, G2, P, BG2)
        wstats[1, :, rows] = wstats[0, :, rows]
        mine = own[(own >= r0) & (own < rows.stop)]
        if len(mine):
            j = mine - r0
            wstats[1][:, mine] = _w_row_stats(mups[mine], G1[j], G2[j], P[j], BG2[j])

    trivial_vals = (1.0, -1.0) if k is None else (1.0, -(k - 1.0))

    resid_w_max = 0.0
    norm_paper_err = 0.0
    norm_general_err = 0.0
    bound_violations = 0
    skipped_trivial = 0
    skipped_zero = 0
    records: list = []

    for muvec, ratios_u, (wnorm, winf, resid) in (
        (mus, [p.ratio_u for p in spec.pairs], wstats[0]),
        (mups, [p.ratio_u_prime for p in spec.pairs], wstats[1]),
    ):
        trivial = np.zeros(m, dtype=bool)
        for t in trivial_vals:
            trivial |= np.abs(muvec - t) < TRIVIAL_TOL
        zero = (~trivial) & (wnorm < ZERO_W_TOL)
        ok = ~(trivial | zero)
        rel_resid = np.zeros(m)
        rel_resid[ok] = resid[ok] / wnorm[ok]
        skipped_trivial += int(np.sum(trivial))
        skipped_zero += int(np.sum(zero))
        if np.any(ok):
            resid_w_max = max(resid_w_max, float(np.max(rel_resid[ok])))
        if k is None:
            general = d * (np.abs(muvec) ** 2 + 1.0) - 2.0 * lams * muvec.real
            paper = d * d - lams**2
        else:
            s = (k - 2) * lams + (k - 1) * d
            general = np.abs(muvec) ** 2 * s + (k - 1) ** 2 * d - 2.0 * muvec.real * (k - 1) * lams
            paper = (k - 1) * (d + lams) * (d * (k - 1) - lams)
        gerr = np.abs(wnorm**2 - general) / np.maximum(np.abs(general), 1.0)
        if np.any(ok):
            norm_general_err = max(norm_general_err, float(np.max(gerr[ok])))
        conj = ok & bulk
        if np.any(conj):
            perr = np.abs(wnorm[conj] ** 2 - paper[conj]) / np.maximum(np.abs(paper[conj]), 1.0)
            norm_paper_err = max(norm_paper_err, float(np.max(perr)))
        for i in range(len(muvec)):
            ratio_w = float(winf[i] / wnorm[i]) if ok[i] else None
            bound = None
            bound_ok = None
            if ok[i] and bulk[i]:
                bound = deterministic_deloc_bound(
                    float(lams[i]), complex(muvec[i]), d, k, float(vinfs[i])
                )
                bound_ok = ratio_w <= bound + 1e-12
                if not bound_ok:
                    bound_violations += 1
            if keep_records:
                records.append(
                    DelocRecord(
                        lam=float(lams[i]),
                        mu=complex(muvec[i]),
                        ratio_v=float(vinfs[i]),
                        ratio_u=float(ratios_u[i]),
                        ratio_w=ratio_w,
                        bound=bound,
                        bound_ok=bound_ok,
                    )
                )

    ratio_mono_violations = sum(
        1
        for p in spec.pairs
        for r in (p.ratio_u, p.ratio_u_prime)
        if r > p.ratio_v + 1e-12
    )

    # Perron lift from the exact all-ones eigenvector; ratio must be 1/sqrt(nd)
    perron_ratio_err = None
    mu1 = float(q) if k else float(d - 1)
    if abs(mu1 - 1.0) >= TRIVIAL_TOL:
        ones = np.full(n, 1.0 / math.sqrt(n))
        if k is None:
            w1 = lift_eigenvector_nb(ones, mu1, index)
        else:
            w1 = lift_eigenvector_nb_hyper(ones, mu1, h, index)
        ratio1 = float(np.max(np.abs(w1)) / np.linalg.norm(w1))
        perron_ratio_err = abs(ratio1 - 1.0 / math.sqrt(len(index)))

    return SpectrumAudit(
        kind=kind,
        n=n,
        d=d,
        k=k,
        vieta_sum_err=vieta_sum_err,
        vieta_prod_err=vieta_prod_err,
        n_bulk=n_bulk,
        circle_err=circle_err,
        resid_u_max=resid_u_max,
        resid_w_max=resid_w_max,
        norm_paper_err=norm_paper_err,
        norm_general_err=norm_general_err,
        ratio_mono_violations=ratio_mono_violations,
        bound_violations=bound_violations,
        perron_ratio_err=perron_ratio_err,
        skipped_trivial=skipped_trivial,
        skipped_zero=skipped_zero,
        records=tuple(records),
    )
