"""Independent brute-force oracles used only by tests.

`dense_logdet` is the dense LU log-determinant that the sparse `logdet`
under test replaced, `full_recovery` and `full_insider_report` the
community recovery and the insider report from the full certified
spectrum that the partial solves under test replaced, `quad_cdf` the
per-segment adaptive quadrature that the closed-form CDFs under test
replaced, and `sigma_reduced_eigenvector` the reduced-operator lift of
the community vector.

The characteristic polynomial is computed by the Faddeev-LeVerrier trace
recursion in exact integer arithmetic, split into exact squarefree factors
(repeated roots would otherwise cost ~eps^(1/multiplicity) accuracy), and
each simple factor is rooted with a companion-matrix solver. This shares no
code with the quadratic-lift path under test.
"""

import math
import warnings

import numpy as np
import scipy.linalg as sla
import sympy
from scipy import integrate
from scipy.optimize import linear_sum_assignment

from nbspectra.errors import AmbiguityError, MultiplicityError
from nbspectra.operators import adjacency_matrix
from nbspectra.rsbm import ISOLATION_TOL, MATCH_TOL, InsiderGapReport, RecoveryResult, rsbm_mu2
from nbspectra.spectral import full_lifted_spectrum, symmetric_eigs


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


def full_recovery(g) -> RecoveryResult:
    """`recover_communities` over the whole spectrum from `symmetric_eigs`
    (detectability is not checked)."""
    eigs = symmetric_eigs(adjacency_matrix(g))
    lams = np.asarray([p.lam for p in eigs])
    perron = int(np.argmin(np.abs(lams - (g.d1 + g.d2))))
    target = float(g.d1 - g.d2)
    cand = sorted((i for i in range(len(eigs)) if i != perron), key=lambda i: abs(lams[i] - target))
    best = cand[0]
    if abs(lams[cand[1]] - lams[best]) < 1e-6:
        raise AmbiguityError(f"eigenvalues {lams[best]} and {lams[cand[1]]} both lie near {target}")
    v = eigs[best].v
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
    mus = full_lifted_spectrum(g).mus()
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
