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

The full eigensolve and its certificate run in one BLAS library, scipy's
OpenBLAS: `dsyevd` through `scipy.linalg.eigh` and V^T V through
`scipy.linalg.blas.dsyrk`. numpy links an OpenBLAS of its own, and each
library keeps a pool of threads that spin for a while after a call; with
both pools busy on the same cores a numpy V^T V after scipy's eigensolve
made the identity audit about 23% slower on a 2-core machine. The dense
matrix is the solver's own buffer, filled from the CSR and factored in
place, so the eigensolve peaks at about 3 n^2 doubles: the matrix and
dsyevd's workspace.

This eigensolve is the one place that runs on OpenBLAS's threads, inside
`blas.threaded_blas`: when the certificate is done, the region shuts
scipy's pool down, so its workers exit instead of spinning for their
timeout (about 0.13 s of CPU per solve) beside the lift and the audit that
follow; numpy's pool, which a caller's other threads may be using, is left
alone. The partial solver `outlier_eigs` (inertia count, Lanczos and
certificate) runs under `blas.single_blas_thread`, where the second thread
saved at most about 20% of the wall time for nearly twice the CPU, and
which parks nothing; blas.py states the policy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

import numpy as np

from .blas import single_blas_thread, threaded_blas
from .errors import (
    ConvergenceError,
    DegenerateError,
    DomainError,
    TrivialEigenvalueError,
    ZeroVectorError,
)
from .operators import adjacency_csr, nonbacktracking_matrix, oriented_index

if TYPE_CHECKING:  # scipy loads on first use, so `gen`, `project` and `ks` start without it
    import scipy.sparse as sp

#: lifted eigenvalues closer than this to a trivial value are rejected for w-lifts
TRIVIAL_TOL = 1e-9
#: a lifted w below this norm counts as the zero vector
ZERO_W_TOL = 1e-12
#: the inertia shift sits this far (relative to ||A||) inside the edge: 100
#: residual tolerances, so an eigenvalue at the edge is counted and its Ritz
#: value still lies beyond the shift. The Bunch-Kaufman count's backward error
#: is about n eps (||A - sI|| + || |L||D||L^T| ||) (Higham, Accuracy and
#: Stability of Numerical Algorithms, ch. 11). On RSBM (12,4) at the recovery
#: shift the growth term was 380, 955 and 1800 times ||A - sI|| (inf-norms) at
#: n = 1000, 2000 and 4000, a budget of 2.0e-9, 1.0e-8 and 3.8e-8 against the
#: margin 1.6e-6; at 4-5 times per doubling of n it reaches the margin near
#: n ~ 2e4, and no count checks it at run time. Counting both sides on
#: A^2 - s^2 I (side = 0), an eigenvalue at the edge e = 2 sqrt(q) of a
#: (q+1)-regular A clears the shift by ~ 2e INERTIA_GAP ||A||: relative to
#: ||A^2|| = (q+1)^2, 9.7e-8 at (d1,d2) = (12,4), against a growth not measured
INERTIA_GAP = 1e-7
#: eigen-certificate: residuals <= CERT_TOL * ||A||, orthonormality to CERT_TOL
CERT_TOL = 1e-9


def _symmetric_csr(A) -> sp.csr_matrix:
    """The float64 CSR copy of A, dense or sparse, once A is square and symmetric."""
    import scipy.sparse as sp

    if np.ndim(A) != 2 or np.shape(A)[0] != np.shape(A)[1]:
        raise ValueError("A must be square")
    As = sp.csr_matrix(A, dtype=np.float64)
    if (As != As.T).nnz:
        raise ValueError("A must be symmetric")
    return As


#: columns per block of the eigen-residuals R = AV - V diag(vals), and of A^2
R_BLOCK = 256


def _certify(
    As: sp.csr_matrix, vals: np.ndarray, V: np.ndarray, scale: float
) -> "tuple[np.ndarray, np.ndarray]":
    """(residuals, AV): the residuals ||A v_i - lambda_i v_i|| and the product
    AV = A V, once the v_i are orthonormal to CERT_TOL and every residual is
    <= CERT_TOL * scale, else ConvergenceError.

    V^T V is formed (by scipy's `dsyrk`, one triangle) and checked before AV
    is built, and R a block of R_BLOCK columns at a time, so besides V at
    most one more n x n array is alive.
    """
    from scipy.linalg.blas import dsyrk

    G = dsyrk(1.0, V.T)  # the upper triangle of V^T V; the lower one stays 0
    G.ravel(order="F")[:: len(vals) + 1] -= 1.0
    defect = max(np.max(G), -np.min(G))
    del G  # freed before AV is built
    # "not defect <= tol" also rejects a NaN
    if not defect <= CERT_TOL:
        raise ConvergenceError(f"orthonormality defect {defect:.3e}")
    AV = As @ V
    residuals = np.empty(len(vals))
    for c0 in range(0, len(vals), R_BLOCK):
        cols = slice(c0, c0 + R_BLOCK)
        R = V[:, cols] * vals[cols]
        np.subtract(AV[:, cols], R, out=R)
        residuals[cols] = np.sqrt(np.einsum("ij,ij->j", R, R))
    if not np.max(residuals) <= CERT_TOL * scale:
        raise ConvergenceError(f"eigen-residual {np.max(residuals):.3e} exceeds certificate")
    return residuals, AV


def _eigh(As: sp.csr_matrix) -> "tuple[np.ndarray, np.ndarray]":
    """Eigenvalues of symmetric CSR As descending, and the C-ordered eigenvector matrix.

    The one dense n x n buffer is filled from the CSR and factored in place
    by LAPACK's divide-and-conquer `dsyevd` (its workspace adds about 2 n^2
    doubles), so no array of the caller's is ever overwritten.
    """
    from scipy.linalg import eigh

    vals, vecs = eigh(As.toarray(order="F"), overwrite_a=True, check_finite=False, driver="evd")
    # C-ordered copies: `dsyrk` then takes V^T and A @ V takes V without a copy
    return np.ascontiguousarray(vals[::-1]), np.ascontiguousarray(vecs[:, ::-1])


def _scale(vals: np.ndarray) -> float:
    return max(float(np.max(np.abs(vals))), 1.0)


def _certified_eigh(As: sp.csr_matrix):
    """(vals, V, residuals, AV): `_eigh` and its `_certify`, in blas.py's
    threaded region, which parks scipy's OpenBLAS workers when the solve ends."""
    with threaded_blas():
        vals, V = _eigh(As)
        return (vals, V, *_certify(As, vals, V, _scale(vals)))


def symmetric_eigs(A: np.ndarray):
    """Full eigendecomposition of a symmetric matrix, certified a posteriori.

    Returns (vals, V, residuals): the eigenvalues descending, the unit
    eigenvectors as the columns of V, and ||A v_i - lambda_i v_i||. The
    certificate requires every residual <= CERT_TOL * ||A|| and the columns
    orthonormal to CERT_TOL, else ConvergenceError.
    """
    return _certified_eigh(_symmetric_csr(A))[:3]


def _dense_square(As: sp.csr_matrix) -> np.ndarray:
    """A^2 as an F-ordered dense n x n buffer, exact for an integer A.

    A^2 is symmetric, so the R_BLOCK rows of one sparse block (As[rows] @ As)
    are the buffer's contiguous columns `rows`, written in place: no sparse
    A^2 and no dense block live beside the buffer.
    """
    n = As.shape[0]
    M = np.empty((n, n), order="F")
    for r0 in range(0, n, R_BLOCK):
        rows = slice(r0, r0 + R_BLOCK)
        (As[rows] @ As).T.toarray(out=M[:, rows])
    return M


def _count_beyond(As: sp.csr_matrix, s: float, side: float) -> int:
    """Number of eigenvalues of symmetric CSR As above s (side = 1), below s
    (side = -1), or of absolute value above s >= 0 (side = 0).

    Sylvester's law of inertia: they are the eigenvalues of sign `side` of
    A - sI = L D L^T, hence of Bunch-Kaufman's block-diagonal D. Each 2x2
    block of D has a negative determinant (the pivoting rule ensures it),
    so it holds one eigenvalue of each sign. Both sides at once are the
    positive inertia of A^2 - s^2 I, since |lambda| > s exactly when
    lambda^2 > s^2. The one dense n x n buffer is filled from the CSR
    (A^2 by `_dense_square`), shifted in place and factored in place, with
    the workspace LAPACK asks for: `dsytrf`'s default of n words would drop
    it to the unblocked, BLAS-2 `dsytf2`.
    """
    from scipy.linalg import lapack

    n = As.shape[0]
    if side == 0:
        M, s, side = _dense_square(As), s * s, 1.0
    else:
        M = As.toarray(order="F")
    M.ravel(order="F")[:: n + 1] -= s
    lwork = int(lapack.dsytrf_lwork(n)[0])
    ldu, ipiv, _ = lapack.dsytrf(M, lwork=lwork, overwrite_a=True)
    one = ipiv > 0
    return int(np.count_nonzero(side * np.diagonal(ldu)[one] > 0)) + int(np.count_nonzero(~one)) // 2


def _row_sum_norm(As) -> float:
    """||A|| taken as the largest absolute row sum: equal for a regular graph,
    an upper bound otherwise."""
    return max(float(abs(As).sum(axis=1).max()), 1.0)


def eigsh(A, **kwargs):
    """scipy's `eigsh`, imported on first call."""
    from scipy.sparse.linalg import eigsh

    return eigsh(A, **kwargs)


def outlier_eigs(A, edge: float, side: float):
    """The eigenpairs of symmetric A (dense or sparse) beyond the shift
    s = edge - INERTIA_GAP * ||A|| on one side, above s (side = 1) or below -s
    (side = -1), or on both, |lambda| > s (side = 0), as (vals, V, residuals),
    eigenvalues descending.

    A Sylvester-inertia count fixes how many eigenvalues lie beyond the
    shift, and Lanczos (ARPACK `eigsh` on sparse A, from a fixed start
    vector, so runs are reproducible) solves for exactly that many: the
    largest (side = 1), the smallest (side = -1) or those largest in
    absolute value (side = 0). Both sides take one count, of the positive
    inertia of A^2 - s^2 I, and one Lanczos call, on A; for s < 0 (an edge
    within INERTIA_GAP * ||A|| of 0) they are the pairs with |lambda| > |s|.
    An eigenvalue at the edge e then clears the shift by lambda^2 - s^2 ~
    2e INERTIA_GAP ||A||, relative to ||A^2|| = ||A||^2 a margin 2e/||A||
    times that of one side. INERTIA_GAP's comment weighs the margin against
    the factorization's backward error: on the measured growth it holds to n
    near 2e4, which nothing checks at run time. The result is certified:
    Lanczos returned exactly `count` pairs, every residual is <= CERT_TOL *
    ||A|| (||A|| the largest absolute row sum), the vectors are orthonormal
    to CERT_TOL and every Ritz value lies beyond the shift, else
    ConvergenceError. So the pairs are all the eigenpairs
    beyond the shift, a multiple eigenvalue with all its copies. The count,
    the solve and the certificate run under `single_blas_thread`, as blas.py
    sets out. Where the count reaches n-1, where ARPACK cannot run, the full
    certified eigensolve of the validated CSR solves, outside the pin.
    """
    As = _symmetric_csr(A)
    n = As.shape[0]
    scale = _row_sum_norm(As)
    s = edge - INERTIA_GAP * scale
    if side == 0:
        s = abs(s)

    def beyond(vals):
        return (side * vals if side else np.abs(vals)) > s

    with single_blas_thread():
        count = _count_beyond(As, side * s if side else s, side)
        if 0 < count < n - 1:
            # not the all-ones vector: that is the Perron vector of a regular
            # graph, orthogonal to every other eigenvector
            v0 = np.random.default_rng(0).standard_normal(n)
            which = "LA" if side > 0 else "SA" if side < 0 else "LM"
            vals, vecs = eigsh(As, k=count, which=which, v0=v0)
            if len(vals) != count:
                raise ConvergenceError(f"Lanczos returned {len(vals)} Ritz pairs for an inertia count of {count}")
            order = np.argsort(-vals, kind="stable")
            vals, V = np.ascontiguousarray(vals[order]), np.ascontiguousarray(vecs[:, order])
            residuals = _certify(As, vals, V, scale)[0]
            if not np.all(beyond(vals)):
                raise ConvergenceError(f"a Ritz value lies short of the inertia shift {s:.6g} on side {side:g}")
            return vals, V, residuals
    if count >= n - 1:
        vals, V, residuals = _certified_eigh(As)[:3]
        keep = beyond(vals)
        return vals[keep], V[:, keep], residuals[keep]
    return np.empty(0), np.empty((n, 0)), np.empty(0)


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
    """The (d, k) constants of the lift; k = 2 for a graph.

    The lift quadratic is mu^2 - (lambda - shift) mu + q = 0 with shift = k-2
    and q = (d-1)(k-1). B's trivial eigenvalues 1 and -(k-1) are also the
    zeros of the scalar factor of the determinant identity.
    """

    d: int
    k: int = 2

    def __post_init__(self):
        # at d = 1 the u-lift's c = mu/(d-1) divides by zero and q = 0; k < 2 is no hyperedge
        if self.d < 2 or self.k < 2:
            raise DomainError(f"the lift needs d >= 2 and k >= 2, got d={self.d} k={self.k}")

    @property
    def shift(self) -> float:
        return float(self.k - 2)

    @property
    def q(self) -> float:
        return float((self.d - 1) * (self.k - 1))

    @property
    def radius(self) -> float:
        """sqrt(q): the bulk circle |mu| = sqrt(q) and the rescale x -> 2x / sqrt(q)."""
        return math.sqrt(self.q)

    @property
    def trivial(self) -> "tuple[float, float]":
        return (1.0, -(self.k - 1.0))

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


def _modulus(z):
    """|z| elementwise through hypot, the same bits as Python's abs(complex);
    numpy's complex abs differs from it in the last bit for about a third of values."""
    z = np.asarray(z, dtype=np.complex128)
    return np.hypot(z.real, z.imag)


def _trivial_mu(mu, k: int):
    """Whether each mu (elementwise) lies within TRIVIAL_TOL of B's trivial
    eigenvalues 1 and -(k-1), where no w-lift is taken."""
    return (_modulus(mu - 1.0) < TRIVIAL_TOL) | (_modulus(mu + (k - 1)) < TRIVIAL_TOL)


def lift_eigenvector_nb(v: np.ndarray, mu: complex, index: "tuple[np.ndarray, np.ndarray]") -> np.ndarray:
    """Eigenvector of B on the incidences: w(x, e) = mu * sum_{y in e, y != x} v(y) - (k-1) v(x).

    A graph is k = 2: w(x, y) = mu*v(y) - v(x). Unnormalized; for a unit v
    and a conjugate-pair mu its squared norm is (k-1)(d+lambda)(d(k-1)-lambda).
    The trivial eigenvalues 1 and -(k-1) are rejected, as is a vanishing w.
    """
    mu = complex(mu)
    tails, partners = index
    k = partners.shape[1] + 1
    if _trivial_mu(mu, k):
        raise TrivialEigenvalueError(f"mu = {mu} is a trivial eigenvalue of B")
    v = np.asarray(v)
    w = mu * _partner_sums(v, index) - (k - 1) * v[tails]
    if np.linalg.norm(w) < ZERO_W_TOL:
        raise ZeroVectorError("lifted eigenvector vanished")
    return w


def deterministic_deloc_bound(lam, mu, d: int, k: int, v_inf):
    """Deterministic l_inf/l_2 bound for a lifted eigenvector of B, elementwise over arrays:
    v_inf sqrt(k-1) (|mu|+1) / sqrt((d+lambda)(d(k-1)-lambda)), k = 2 for a graph.

    DegenerateError, naming the first such lambda, when any lambda lies
    outside (-d, d(k-1)).
    """
    lam = np.asarray(lam, dtype=np.float64)
    den = (d + lam) * (d * (k - 1) - lam)
    bad = den <= 0
    if np.any(bad):
        raise DegenerateError(f"lambda = {float(lam[bad][0])} outside (-d, d(k-1))")
    return v_inf * math.sqrt(k - 1) * (_modulus(mu) + 1.0) / np.sqrt(den)


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

    kind: str  # the graph's kind, a key of graphs.GRAPH_KINDS
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
        return _lift_model(self.d, self.k)

    def eigenvalues(self) -> np.ndarray:
        """The 2n lifted eigenvalues: mu of each pair, then mu' of each pair."""
        return np.concatenate([self.mus, self.mus_prime])


def _lift_model(d: int, k: "int | None") -> LiftModel:
    """The model of a spectrum's (d, k): the null k of a graph or RSBM spectrum is 2."""
    return LiftModel(d, 2 if k is None else k)


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
    n, d = g.n, g.d
    # a spectrum carries its graph's kind and parameters, null where the kind has none
    k, d1, d2 = (getattr(g, name, None) for name in ("k", "d1", "d2"))
    model = _lift_model(d, k)
    As = adjacency_csr(g).astype(np.float64)
    lams, V, _, AV = _certified_eigh(As)
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
        kind=g.kind,
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


#: the audit's tolerances on its worst-case errors; `deloc` exits 1 when one is exceeded
AUDIT_TOLS = {
    "vieta_sum_err": 1e-10,
    "vieta_prod_err": 1e-10,
    "circle_err": 1e-10,
    "resid_u_max": 1e-9,
    "resid_w_max": 1e-9,
    "norm_paper_err": 1e-8,
    "norm_general_err": 1e-8,
    "perron_ratio_err": 1e-12,
}


def _bound_ok(ratio_w, bound):
    """The deterministic bound holds, elementwise, up to 1e-12 (False where either is NaN)."""
    return ratio_w <= bound + 1e-12


@dataclass(frozen=True, eq=False)
class SpectrumAudit:
    """Aggregated exact-identity and delocalization audit of one instance,
    with the per-eigenvector values behind it.

    All *_err fields are worst-case deviations over the instance; violation
    counters must be zero for a healthy instance. The arrays hold one entry
    per lifted eigenvector of B, every mu and then every mu': ratio_w is NaN
    where the w-lift is trivial or zero, and bound is NaN where, besides,
    the deterministic bound does not apply (a real root off the bulk circle).
    """

    kind: str
    n: int
    d: int
    k: "int | None"
    vieta_sum_err: float
    vieta_prod_err: float
    circle_err: float
    resid_u_max: float
    resid_w_max: float
    norm_paper_err: float
    norm_general_err: float
    ratio_mono_violations: int
    bound_violations: int
    perron_ratio_err: "float | None"
    lams: np.ndarray
    mus: np.ndarray
    ratio_v: np.ndarray
    ratio_u: np.ndarray
    ratio_w: np.ndarray
    bound: np.ndarray

    @property
    def bound_ok(self) -> np.ndarray:
        """Whether each ratio_w meets its bound; False where bound is NaN."""
        return _bound_ok(self.ratio_w, self.bound)

    def worst_certificate(self) -> "tuple[str, float, float]":
        """(name, value, value / tolerance) of the AUDIT_TOLS entry nearest to
        or furthest past its tolerance; a NaN value counts as infinitely far."""
        rows = [(name, getattr(self, name), tol) for name, tol in AUDIT_TOLS.items() if getattr(self, name) is not None]
        return max(((name, v, v / tol if v == v else math.inf) for name, v, tol in rows), key=lambda row: row[2])


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


def spectrum_audit(g, *, keep_records: bool = True) -> SpectrumAudit:
    """Verify every lift identity of one instance against the real operators.

    Covers: Vieta sum/product (relative errors), the bulk circle law,
    reduced and edge-level eigen-residuals (the latter via the assembled
    sparse B), the closed-form w norms, ratio monotonicity of u against v,
    the deterministic l_inf bound for conjugate-pair w's, and the Perron w
    ratio 1/sqrt(nd). The per-eigenvector values are a few arrays of length
    2n, computed in one vectorized pass after the blocked w-lift statistics,
    so they are always kept; keep_records is accepted for older callers and
    changes nothing. A pair is in the bulk when mu' = conj(mu), a double
    root that `_quad_roots` snapped included.
    """
    spec = full_lifted_spectrum(g)
    n, d, model = spec.n, spec.d, spec.model
    k, shift, q = model.k, model.shift, model.q
    lams, mus, mups, V = spec.lams, spec.mus, spec.mus_prime, spec.V

    vieta_sum_err = float(
        np.max(np.abs(mus + mups - (lams - shift)) / np.maximum(1.0, np.abs(lams - shift)))
    )
    vieta_prod_err = float(np.max(np.abs(mus * mups - q)) / q)

    bulk = mups == np.conj(mus)
    resid_u_max = float(max(np.max(spec.residual_u), np.max(spec.residual_u_prime)))

    index = oriented_index(g)
    B = nonbacktracking_matrix(g, index)
    tails = index[0]
    vinfs = spec.ratio_v  # v is unit: ratio_v == ||v||_inf

    # w-lift statistics (wnorm, winf, resid) of every pair, for mu and for mu'.
    # The factors G1 (partner sums) and G2 = (k-1) v(tails) of W = mu*G1 - G2,
    # as in `lift_eigenvector_nb`, are real, so B is applied once per
    # block to them and the scalars enter after; and where mu' = conj(mu) the
    # W and residual of mu' are conjugates of those of mu, whose norms and
    # maxima are the same bits, so they are not computed again.
    m = len(lams)
    wstats = np.empty((3, 2 * m))  # wnorm, winf, resid of every mu, then of every mu'
    own = np.flatnonzero(~bulk)
    for r0 in range(0, m, W_BLOCK):
        rows = slice(r0, min(r0 + W_BLOCK, m))
        vt = np.ascontiguousarray(V[:, rows].T)  # one eigenvector per row
        G1, G2 = _partner_sums(vt, index), (k - 1) * vt[:, tails]
        BG2 = (B @ G2.T).T
        P = (B @ G1.T).T + G2
        wstats[:, rows] = wstats[:, m + r0 : m + rows.stop] = _w_row_stats(mus[rows], G1, G2, P, BG2)
        mine = own[(own >= r0) & (own < rows.stop)]
        if len(mine):
            j = mine - r0
            wstats[:, m + mine] = _w_row_stats(mups[mine], G1[j], G2[j], P[j], BG2[j])

    # the 2n lifted eigenvectors, every mu and then every mu'
    lams2, mus2, vinfs2 = np.concatenate([lams, lams]), spec.eigenvalues(), np.concatenate([vinfs, vinfs])
    ratios_u = np.concatenate([spec.ratio_u, spec.ratio_u_prime])
    wnorm, winf, resid = wstats
    trivial = _trivial_mu(mus2, k)
    ok = ~trivial & ~(wnorm < ZERO_W_TOL)  # a zero w-lift is skipped like a trivial one
    bulk2 = np.concatenate([bulk, bulk])
    conj = ok & bulk2
    general = nb_norm_sq(lams2, mus2, d, k)
    paper = (k - 1) * (d + lams2) * (d * (k - 1) - lams2)
    ratio_w = np.divide(winf, wnorm, out=np.full(2 * m, np.nan), where=ok)
    bound = np.full(2 * m, np.nan)
    bound[conj] = deterministic_deloc_bound(lams2[conj], mus2[conj], d, k, vinfs2[conj])

    def worst(err: np.ndarray, where: np.ndarray) -> float:
        return float(np.max(err[where], initial=0.0))

    # Perron lift from the exact all-ones eigenvector; ratio must be 1/sqrt(nd)
    perron_ratio_err = None
    mu1 = model.perron[0]
    if not _trivial_mu(mu1, k):
        ones = np.full(n, 1.0 / math.sqrt(n))
        w1 = lift_eigenvector_nb(ones, mu1, index)
        ratio1 = float(np.max(np.abs(w1)) / np.linalg.norm(w1))
        perron_ratio_err = abs(ratio1 - 1.0 / math.sqrt(len(tails)))

    return SpectrumAudit(
        kind=spec.kind,
        n=n,
        d=d,
        k=spec.k,
        vieta_sum_err=vieta_sum_err,
        vieta_prod_err=vieta_prod_err,
        circle_err=worst(np.abs(np.abs(mus2) - model.radius), bulk2),
        resid_u_max=resid_u_max,
        resid_w_max=worst(np.divide(resid, wnorm, out=np.zeros(2 * m), where=ok), ok),
        norm_paper_err=worst(np.abs(wnorm**2 - paper) / np.maximum(np.abs(paper), 1.0), conj),
        norm_general_err=worst(np.abs(wnorm**2 - general) / np.maximum(np.abs(general), 1.0), ok),
        ratio_mono_violations=int(np.count_nonzero(ratios_u > vinfs2 + 1e-12)),
        bound_violations=int(np.count_nonzero(conj & ~_bound_ok(ratio_w, bound))),
        perron_ratio_err=perron_ratio_err,
        lams=lams2,
        mus=mus2,
        ratio_v=vinfs2,
        ratio_u=ratios_u,
        ratio_w=ratio_w,
        bound=bound,
    )
