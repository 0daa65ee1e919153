"""Symmetric eigendecomposition of A and the algebraic lift to the
non-backtracking spectra.

Each adjacency eigenpair (lambda, v) yields two eigenvalues of the reduced
operator through the quadratic

    mu^2 - (lambda-k+2)*mu + (d-1)(k-1) = 0

with eigenvectors [v; (mu/(d-1)) v] for the reduced operator and the
incidence-indexed lifts for B itself. A graph is the k = 2 hypergraph, so
every lift identity is written once in k. The "+" branch is fixed as the
root with larger real part (ties: nonnegative imaginary part) so runs are
comparable.

A spectrum is arrays, one entry per adjacency eigenpair, lambda descending:
the lift is a few vectorized maps over the eigenvalues and the eigenvector
matrix V, and `LiftModel` holds the (d, k) constants every map uses.
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
from .graphs import RegularHypergraph, RsbmGraph
from .operators import adjacency_csr, edge_size, nonbacktracking_matrix, oriented_index, underlying_graph

#: lifted eigenvalues closer than this to a trivial value are rejected for w-lifts
TRIVIAL_TOL = 1e-9
#: a lifted w below this norm counts as the zero vector
ZERO_W_TOL = 1e-12
#: the inertia shift sits this far (relative to ||A||) inside the edge: 100
#: residual tolerances, so an eigenvalue at the edge is counted and its Ritz
#: value still lies beyond the shift, and far above the backward error of the
#: LDL^T factorization
INERTIA_GAP = 1e-7
#: eigen-certificate: residuals <= CERT_TOL * ||A||, orthonormality to CERT_TOL
CERT_TOL = 1e-9


def _symmetric_csr(A) -> sp.csr_matrix:
    """The float64 CSR copy of A, dense or sparse, once A is square and symmetric."""
    if np.ndim(A) != 2 or np.shape(A)[0] != np.shape(A)[1]:
        raise ValueError("A must be square")
    As = sp.csr_matrix(A, dtype=np.float64)
    if (As != As.T).nnz:
        raise ValueError("A must be symmetric")
    return As


def _certify(AV: np.ndarray, vals: np.ndarray, V: np.ndarray, scale: float) -> np.ndarray:
    """The residuals ||A v_i - lambda_i v_i|| (AV = A V), once every one is
    <= CERT_TOL * scale and the v_i are orthonormal to CERT_TOL, else
    ConvergenceError."""
    R = V * vals
    np.subtract(AV, R, out=R)
    residuals = np.sqrt(np.einsum("ij,ij->j", R, R))
    # "not max <= tol" also rejects a NaN
    if not np.max(residuals) <= CERT_TOL * scale:
        raise ConvergenceError(f"eigen-residual {np.max(residuals):.3e} exceeds certificate")
    G = np.dot(V.T, V)  # np.dot spots the transposed pair and calls syrk
    G.flat[:: len(vals) + 1] -= 1.0
    defect = max(np.max(G), -np.min(G))
    if not defect <= CERT_TOL:
        raise ConvergenceError(f"orthonormality defect {defect:.3e}")
    return residuals


def _eigh(A: np.ndarray) -> "tuple[np.ndarray, np.ndarray]":
    """Eigenvalues of symmetric A descending, and the C-ordered eigenvector matrix."""
    vals, vecs = np.linalg.eigh(A)
    # contiguous copies: negative-stride views force matmul off the BLAS path
    return np.ascontiguousarray(vals[::-1]), np.ascontiguousarray(vecs[:, ::-1])


def _scale(vals: np.ndarray) -> float:
    return max(float(np.max(np.abs(vals))), 1.0)


def symmetric_eigs(A: np.ndarray):
    """Full eigendecomposition of a symmetric matrix, certified a posteriori.

    Returns (vals, V, residuals): the eigenvalues descending, the unit
    eigenvectors as the columns of V, and ||A v_i - lambda_i v_i||. The
    certificate requires every residual <= CERT_TOL * ||A|| and the columns
    orthonormal to CERT_TOL, else ConvergenceError.
    """
    As = _symmetric_csr(A)
    vals, V = _eigh(np.asarray(A))
    return vals, V, _certify(As @ V, vals, V, _scale(vals))


def _count_beyond(As: sp.csr_matrix, s: float, side: float) -> int:
    """Number of eigenvalues of symmetric CSR As above s (side = 1) or below s (side = -1).

    Sylvester's law of inertia: they are the positive eigenvalues of
    side*(A - sI) = L D L^T, hence of Bunch-Kaufman's block-diagonal D. Each
    2x2 block of D has a negative determinant (the pivoting rule ensures it),
    so it holds one eigenvalue of each sign. The one dense n x n buffer is
    filled from the CSR, shifted and signed in place and factored in place,
    with the workspace LAPACK asks for: `dsytrf`'s default of n words would
    drop it to the unblocked, BLAS-2 `dsytf2`.
    """
    n = As.shape[0]
    M = As.toarray(order="F")
    M.ravel(order="F")[:: n + 1] -= s
    if side < 0:
        np.negative(M, out=M)
    lwork = int(lapack.dsytrf_lwork(n)[0])
    ldu, ipiv, _ = lapack.dsytrf(M, lwork=lwork, overwrite_a=True)
    one = ipiv > 0
    return int(np.count_nonzero(np.diagonal(ldu)[one] > 0)) + int(np.count_nonzero(~one)) // 2


def _row_sum_norm(As) -> float:
    """||A|| taken as the largest absolute row sum: equal for a regular graph,
    an upper bound otherwise."""
    return max(float(abs(As).sum(axis=1).max()), 1.0)


def outlier_eigs(A, edge: float, side: float):
    """The eigenpairs of symmetric A (dense or sparse) beyond the shift
    s = edge - INERTIA_GAP * ||A|| on one side, above s (side = 1) or below -s
    (side = -1), as (vals, V, residuals), eigenvalues descending.

    A Sylvester-inertia count fixes how many eigenvalues lie beyond the
    shift, and Lanczos (ARPACK `eigsh` on sparse A, from a fixed start
    vector, so runs are reproducible) solves for exactly that many. The
    result is certified: Lanczos returned exactly `count` pairs, every
    residual is <= CERT_TOL * ||A|| (||A|| the largest absolute row sum),
    the vectors are orthonormal to CERT_TOL and every Ritz value lies beyond
    the shift, else ConvergenceError. So the pairs are all the eigenpairs
    beyond the shift, a multiple eigenvalue with all its copies. Where the
    count reaches n-1, where ARPACK cannot run, `symmetric_eigs` solves.
    """
    As = _symmetric_csr(A)
    n = As.shape[0]
    scale = _row_sum_norm(As)
    s = edge - INERTIA_GAP * scale
    count = _count_beyond(As, side * s, side)
    if count >= n - 1:
        vals, V, residuals = symmetric_eigs(As.toarray())
        keep = side * vals > s
        return vals[keep], V[:, keep], residuals[keep]
    if count == 0:
        return np.empty(0), np.empty((n, 0)), np.empty(0)
    # not the all-ones vector: that is the Perron vector of a regular graph,
    # orthogonal to every other eigenvector
    v0 = np.random.default_rng(0).standard_normal(n)
    vals, vecs = eigsh(As, k=count, which="LA" if side > 0 else "SA", v0=v0)
    if len(vals) != count:
        raise ConvergenceError(f"Lanczos returned {len(vals)} Ritz pairs for an inertia count of {count}")
    order = np.argsort(-vals, kind="stable")
    vals, V = np.ascontiguousarray(vals[order]), np.ascontiguousarray(vecs[:, order])
    residuals = _certify(As @ V, vals, V, scale)
    if not np.min(side * vals) > s:
        raise ConvergenceError(f"a Ritz value lies short of the inertia shift {side * s:.6g}")
    return vals, V, residuals


def _quad_roots(t, p: float) -> "tuple[np.ndarray, np.ndarray]":
    """Roots of x^2 - t*x + p = 0 for each t, larger real part first (tie: +imag first).

    A real pair takes the root of larger modulus from the formula and its
    partner from the product identity, to avoid cancellation. A discriminant
    within floating-point noise of zero is snapped to an exact double root:
    near the bulk edge the raw formula would amplify an eps-size eigenvalue
    error to sqrt(eps) in the roots.
    """
    t = np.asarray(t, dtype=np.float64)
    disc = t * t - 4.0 * p
    s = np.sqrt(np.abs(disc))
    snap = np.abs(disc) <= 1e-13 * np.maximum(np.maximum(1.0, t * t), 4.0 * abs(p))
    real = (disc >= 0.0) & ~snap
    mu = np.empty(t.shape, dtype=np.complex128)
    mu.real = 0.5 * t
    mu_prime = mu.copy()
    mu.imag = np.where(real | snap, 0.0, 0.5 * s)
    mu_prime.imag = np.where(real | snap, 0.0, -0.5 * s)
    tr, sr, plus = t[real], s[real], t[real] >= 0.0
    far = np.where(plus, 0.5 * (tr + sr), 0.5 * (tr - sr))
    near = p / far
    mu.real[real] = np.where(plus, far, near)
    mu_prime.real[real] = np.where(plus, near, far)
    return mu, mu_prime


@dataclass(frozen=True)
class LiftModel:
    """The (d, k) constants of the lift; k = None (or 2) for a graph.

    The lift quadratic is mu^2 - (lambda - shift) mu + q = 0 with shift = k-2
    and q = (d-1)(k-1). B's trivial eigenvalues 1 and -(k-1) are also the
    zeros of the scalar factor of the determinant identity.
    """

    d: int
    k: "int | None" = None

    @property
    def _k(self) -> int:
        return 2 if self.k is None else self.k

    @property
    def shift(self) -> float:
        return float(self._k - 2)

    @property
    def q(self) -> float:
        return float((self.d - 1) * (self._k - 1))

    @property
    def radius(self) -> float:
        """sqrt(q): the bulk circle |mu| = sqrt(q) and the rescale x -> 2x / sqrt(q)."""
        return math.sqrt(self.q)

    @property
    def trivial(self) -> "tuple[float, float]":
        return (1.0, -(self._k - 1.0))

    @property
    def perron(self) -> "tuple[float, float]":
        """The deterministic pair (q, 1) lifted from lambda_1 = d(k-1)."""
        return (self.q, 1.0)

    def roots(self, lams) -> "tuple[np.ndarray, np.ndarray]":
        """(mu, mu') of each lambda, branch convention as `_quad_roots`."""
        return _quad_roots(np.asarray(lams, dtype=np.float64) - self.shift, self.q)


def _partner_sums(X: np.ndarray, index: "tuple[np.ndarray, np.ndarray]") -> np.ndarray:
    """For each incidence, the sum of X over the vertices of its partners;
    X is (n,) or (rows, n), the sums run along the last axis."""
    tails, partners = index
    heads = tails[partners]
    S = X[..., heads[:, 0]]
    for j in range(1, heads.shape[1]):
        S += X[..., heads[:, j]]
    return S


def lift_eigenvector_nb(v: np.ndarray, mu: complex, index: "tuple[np.ndarray, np.ndarray]") -> np.ndarray:
    """Eigenvector of B on the incidences: w(x, e) = mu * sum_{y in e, y != x} v(y) - (k-1) v(x).

    A graph is k = 2: w(x, y) = mu*v(y) - v(x). Unnormalized; for a unit v
    and a conjugate-pair mu its squared norm is (k-1)(d+lambda)(d(k-1)-lambda).
    The trivial eigenvalues 1 and -(k-1) are rejected, as is a vanishing w.
    """
    mu = complex(mu)
    tails, partners = index
    k = partners.shape[1] + 1
    if abs(mu - 1.0) < TRIVIAL_TOL or abs(mu + (k - 1)) < TRIVIAL_TOL:
        raise TrivialEigenvalueError(f"mu = {mu} is a trivial eigenvalue of B")
    v = np.asarray(v)
    w = mu * _partner_sums(v, index) - (k - 1) * v[tails]
    if np.linalg.norm(w) < ZERO_W_TOL:
        raise ZeroVectorError("lifted eigenvector vanished")
    return w


def deterministic_deloc_bound(lam: float, mu: complex, d: int, k: int, v_inf: float) -> float:
    """Deterministic l_inf/l_2 bound for a lifted eigenvector of B:
    v_inf sqrt(k-1) (|mu|+1) / sqrt((d+lambda)(d(k-1)-lambda)), k = 2 for a graph.
    """
    den = (d + lam) * (d * (k - 1) - lam)
    if den <= 0:
        raise DegenerateError(f"lambda = {lam} outside (-d, d(k-1))")
    return v_inf * math.sqrt(k - 1) * (abs(complex(mu)) + 1.0) / math.sqrt(den)


def nb_norm_sq(lam, mu, d: int, k: int):
    """Exact ||w||^2 of the lift for unit v, elementwise over arrays:
    |mu|^2 ((k-2) lambda + (k-1) d) + (k-1)^2 d - 2 (k-1) lambda Re(mu).

    Reduces to (k-1)(d+lambda)(d(k-1)-lambda) for conjugate pairs, which is
    d^2 - lambda^2 for a graph (k = 2).
    """
    s = (k - 2) * lam + (k - 1) * d
    return np.abs(mu) ** 2 * s + (k - 1) ** 2 * d - 2.0 * np.real(mu) * (k - 1) * lam


@dataclass(frozen=True, eq=False)
class LiftedSpectrum:
    """All 2n eigenvalues of the reduced operator, as n lifted pairs in arrays
    (lambda descending), with each pair's diagnostics.

    V holds the unit eigenvectors of A as columns when the spectrum was
    computed, and is None when it was read back from a file.
    """

    kind: str  # "regular" | "hypergraph" | "rsbm"
    n: int
    d: int
    k: "int | None"
    lams: np.ndarray
    mus: np.ndarray
    mus_prime: np.ndarray
    degenerate: np.ndarray
    residual_u: np.ndarray
    residual_u_prime: np.ndarray
    ratio_v: np.ndarray
    ratio_u: np.ndarray
    ratio_u_prime: np.ndarray
    V: "np.ndarray | None" = field(default=None, repr=False)
    d1: "int | None" = None
    d2: "int | None" = None

    @property
    def model(self) -> LiftModel:
        return LiftModel(self.d, self.k)

    def eigenvalues(self) -> np.ndarray:
        """The 2n lifted eigenvalues: mu of each pair, then mu' of each pair."""
        return np.concatenate([self.mus, self.mus_prime])


def _model_params(g) -> "tuple[str, int, int, int | None, int | None, int | None]":
    h = underlying_graph(g)
    if isinstance(g, RsbmGraph):
        return "rsbm", g.n, g.d1 + g.d2, None, g.d1, g.d2
    if isinstance(h, RegularHypergraph):
        return "hypergraph", h.n, h.d, h.k, None, None
    return "regular", h.n, h.d, None, None, None


#: rows per block of the u-residuals; keeps each (rows x n) temporary in cache
U_BLOCK = 64


def _u_residuals(AV: np.ndarray, V: np.ndarray, vnorms: np.ndarray, mus: np.ndarray, model: LiftModel):
    """||B~ u - mu u|| / ||u|| of u = [v; c v], c = mu/(d-1), against the block operator.

    B~ u - mu u = [((d-1)c - mu) v; c Av - (k-2) c v - (k-1) v - mu c v].
    AV and V are real, so the bottom block is formed as its real and
    imaginary parts, c = a + ib: a Av - ((k-2)a + (k-1)) v - Re(mu c) v and
    b Av - ((k-2)b + Im(mu c)) v, in row blocks, with no complex temporary.
    """
    d, shift = model.d, model.shift  # shift = k-2
    c = mus / (d - 1)
    a, b = c.real, c.imag
    mc = mus * c
    coef_re = shift * a + (shift + 1.0)
    coef_im = shift * b + mc.imag
    bottom_sq = np.zeros(len(mus))
    for r0 in range(0, len(V), U_BLOCK):
        av, v = AV[r0 : r0 + U_BLOCK], V[r0 : r0 + U_BLOCK]
        re = av * a
        im = av * b
        re -= v * coef_re
        re -= v * mc.real
        im -= v * coef_im
        bottom_sq += np.einsum("ij,ij->j", re, re)
        bottom_sq += np.einsum("ij,ij->j", im, im)
    top = np.abs((d - 1) * c - mus) * vnorms
    return np.sqrt(top**2 + bottom_sq) / (np.sqrt(1.0 + np.abs(c) ** 2) * vnorms)


def full_lifted_spectrum(g) -> LiftedSpectrum:
    """Eigendecompose A and lift every eigenpair to the reduced operator.

    One product AV = A V with sparse A serves the eigen-certificate (as in
    `symmetric_eigs`) and the residual of each lifted eigenvector, which is
    evaluated against the actual block operator, not the algebraic identity
    that produced it.
    """
    kind, n, d, k, d1, d2 = _model_params(g)
    model = LiftModel(d, k)
    As = adjacency_csr(g).astype(np.float64)
    lams, V = _eigh(As.toarray())
    AV = As @ V
    _certify(AV, lams, V, _scale(lams))
    mus, mups = model.roots(lams)

    vnorms = np.linalg.norm(V, axis=0)
    vinfs = np.maximum(np.max(V, axis=0), -np.min(V, axis=0))

    res_u = _u_residuals(AV, V, vnorms, mus, model)
    # V and AV are real: where mu' = conj(mu) the residual is the conjugate one, same norm
    res_up = res_u.copy()
    own = np.flatnonzero(mups != np.conj(mus))
    res_up[own] = _u_residuals(AV[:, own], V[:, own], vnorms[own], mups[own], model)

    def u_ratios(muvec: np.ndarray) -> np.ndarray:
        c = np.abs(muvec) / (d - 1)
        return np.maximum(1.0, c) * vinfs / (np.sqrt(1.0 + c**2) * vnorms)

    return LiftedSpectrum(
        kind=kind,
        n=n,
        d=d,
        k=k,
        lams=lams,
        mus=mus,
        mus_prime=mups,
        degenerate=mus == mups,
        residual_u=res_u,
        residual_u_prime=res_up,
        ratio_v=vinfs / vnorms,
        ratio_u=u_ratios(mus),
        ratio_u_prime=u_ratios(mups),
        V=V,
        d1=d1,
        d2=d2,
    )


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
    (large corpora keep only the aggregates). A given spectrum must carry
    its eigenvectors (one read from a file does not).
    """
    h = underlying_graph(g)
    kind, n, d, model_k, _, _ = _model_params(g)
    k = edge_size(h)
    spec = spectrum if spectrum is not None else full_lifted_spectrum(g)
    if spec.V is None:
        raise ValueError("the audit needs the eigenvectors, which a spectrum read from a file lacks")
    lams, mus, mups, V = spec.lams, spec.mus, spec.mus_prime, spec.V
    model = LiftModel(d, model_k)
    shift, q = model.shift, model.q

    vieta_sum_err = float(
        np.max(np.abs(mus + mups - (lams - shift)) / np.maximum(1.0, np.abs(lams - shift)))
    )
    vieta_prod_err = float(np.max(np.abs(mus * mups - q)) / q)

    disc = (lams - shift) ** 2 - 4.0 * q
    bulk = disc <= 0.0
    n_bulk = int(np.sum(bulk))
    circle_err = 0.0
    if n_bulk:
        circle_err = float(
            max(
                np.max(np.abs(np.abs(mus[bulk]) - model.radius)),
                np.max(np.abs(np.abs(mups[bulk]) - model.radius)),
            )
        )

    resid_u_max = float(max(np.max(spec.residual_u), np.max(spec.residual_u_prime)))

    index = oriented_index(h)
    B = nonbacktracking_matrix(h, index)
    tails = index[0]
    vinfs = spec.ratio_v  # v is unit: ratio_v == ||v||_inf

    # w-lift statistics (wnorm, winf, resid) of every pair, for mu and for mu'.
    # The factors G1 (partner sums) and G2 = (k-1) v(tails) of W = mu*G1 - G2,
    # as in `lift_eigenvector_nb`, are real, so B is applied once per
    # block to them and the scalars enter after; and where mu' = conj(mu) the
    # W and residual of mu' are conjugates of those of mu, whose norms and
    # maxima are the same bits, so they are not computed again.
    m = len(lams)
    wstats = np.empty((2, 3, m))
    own = np.flatnonzero(mups != np.conj(mus))
    for r0 in range(0, m, W_BLOCK):
        rows = slice(r0, min(r0 + W_BLOCK, m))
        vt = np.ascontiguousarray(V[:, rows].T)  # one eigenvector per row
        G1, G2 = _partner_sums(vt, index), (k - 1) * vt[:, tails]
        BG2 = (B @ G2.T).T
        P = (B @ G1.T).T + G2
        wstats[0, :, rows] = _w_row_stats(mus[rows], G1, G2, P, BG2)
        wstats[1, :, rows] = wstats[0, :, rows]
        mine = own[(own >= r0) & (own < rows.stop)]
        if len(mine):
            j = mine - r0
            wstats[1][:, mine] = _w_row_stats(mups[mine], G1[j], G2[j], P[j], BG2[j])

    resid_w_max = 0.0
    norm_paper_err = 0.0
    norm_general_err = 0.0
    bound_violations = 0
    skipped_trivial = 0
    skipped_zero = 0
    records: list = []
    paper = (k - 1) * (d + lams) * (d * (k - 1) - lams)

    for muvec, ratios_u, (wnorm, winf, resid) in (
        (mus, spec.ratio_u, wstats[0]),
        (mups, spec.ratio_u_prime, wstats[1]),
    ):
        trivial = np.zeros(m, dtype=bool)
        for t in model.trivial:
            trivial |= np.abs(muvec - t) < TRIVIAL_TOL
        zero = (~trivial) & (wnorm < ZERO_W_TOL)
        ok = ~(trivial | zero)
        rel_resid = np.zeros(m)
        rel_resid[ok] = resid[ok] / wnorm[ok]
        skipped_trivial += int(np.sum(trivial))
        skipped_zero += int(np.sum(zero))
        if np.any(ok):
            resid_w_max = max(resid_w_max, float(np.max(rel_resid[ok])))
        general = nb_norm_sq(lams, muvec, d, k)
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

    ratio_mono_violations = int(
        np.sum(spec.ratio_u > spec.ratio_v + 1e-12) + np.sum(spec.ratio_u_prime > spec.ratio_v + 1e-12)
    )

    # Perron lift from the exact all-ones eigenvector; ratio must be 1/sqrt(nd)
    perron_ratio_err = None
    mu1 = model.perron[0]
    if abs(mu1 - 1.0) >= TRIVIAL_TOL:
        ones = np.full(n, 1.0 / math.sqrt(n))
        w1 = lift_eigenvector_nb(ones, mu1, index)
        ratio1 = float(np.max(np.abs(w1)) / np.linalg.norm(w1))
        perron_ratio_err = abs(ratio1 - 1.0 / math.sqrt(len(tails)))

    return SpectrumAudit(
        kind=kind,
        n=n,
        d=d,
        k=model_k,
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
