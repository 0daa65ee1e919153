"""Insider eigenvalues and exact community recovery for the regular SBM.

The community vector sigma is an exact integer eigenvector of A with
eigenvalue d1-d2; its lift puts two real eigenvalues inside the bulk circle
of radius sqrt(d1+d2-1) whenever (d1-d2)^2 > 4(d1+d2-1), and the sign
pattern of the corresponding eigenvector recovers the communities.

In exactly that regime d1-d2 is an outlier of A, beyond the bulk edge
2 sqrt(d1+d2-1). Recovery solves only for the extreme eigenpairs on its side
(`extreme_eigs`), the insider report only for the outliers beyond +-2
sqrt(d1+d2-1) (`outlier_eigs`): both are Lanczos solves certified by
residuals, orthonormality and Sylvester-inertia counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    AmbiguityError,
    DetectabilityError,
    DomainError,
    MultiplicityError,
    StructureError,
)
from .graphs import RsbmGraph
from .operators import adjacency_csr
from .spectral import INERTIA_GAP, LiftedSpectrum, LiftModel, extreme_eigs, outlier_eigs

#: tolerance for matching the four deterministic eigenvalues in a lifted spectrum
MATCH_TOL = 1e-8
#: isolation radius certifying those eigenvalues are simple
ISOLATION_TOL = 1e-6


@dataclass(frozen=True)
class InsiderPair:
    """Roots of mu^2 - (d1-d2) mu + (d1+d2-1) = 0, larger real part first."""

    mu2: complex
    mu2_prime: complex
    detectable: bool


@dataclass(frozen=True)
class RecoveryResult:
    sigma_hat: tuple
    agreement: float
    exact: bool
    zero_entries: int
    lam_selected: float


def rsbm_mu2(d1: int, d2: int) -> InsiderPair:
    """Insider eigenvalue pair for (d1, d2); detectable iff the roots are
    real and distinct, i.e. (d1-d2)^2 > 4(d1+d2-1) strictly."""
    if d1 < 1 or d2 < 1:
        raise DomainError("degrees must be positive")
    mu, mup = (complex(r[0]) for r in LiftModel(d1 + d2).roots([d1 - d2]))
    detectable = (d1 - d2) ** 2 > 4 * (d1 + d2 - 1)
    return InsiderPair(mu2=mu, mu2_prime=mup, detectable=detectable)


def deterministic_sigma_eigenpair(g: RsbmGraph) -> "tuple[int, bool]":
    """Verify A sigma = (d1-d2) sigma in exact integer arithmetic (int64 CSR A).

    This holds for every valid sample by the degree structure; a failure
    means the generator (or a loaded file) is corrupt.
    """
    A = adjacency_csr(g)
    sigma = np.asarray(g.sigma, dtype=np.int64)
    lhs = A @ sigma
    lam = g.d1 - g.d2
    if not np.array_equal(lhs, lam * sigma):
        raise StructureError("A sigma != (d1-d2) sigma; sigma is not an exact eigenvector")
    return lam, True


def recover_communities(g: RsbmGraph) -> RecoveryResult:
    """Estimate sigma from the sign pattern of the eigenvector of A whose
    eigenvalue is nearest d1-d2 (the Perron eigenvalue d1+d2 excluded).

    The eigenpairs come from `extreme_eigs(A, d1-d2)`: the extreme ones on
    the side of d1-d2 (the largest when d1 >= d2, else the smallest), each
    certified to the residual and orthonormality tolerances of
    `symmetric_eigs`, with an inertia count proving that every eigenvalue
    not returned is farther from d1-d2 than the two nearest candidates. So
    the choice and the ambiguity test below are those over the whole
    spectrum.

    Raises AmbiguityError when the two nearest candidate eigenvalues are
    within 1e-6 of each other, and DetectabilityError below the threshold.
    """
    pair = rsbm_mu2(g.d1, g.d2)
    if not pair.detectable:
        raise DetectabilityError(
            f"(d1-d2)^2 = {(g.d1 - g.d2) ** 2} <= 4(d1+d2-1) = {4 * (g.d1 + g.d2 - 1)}"
        )
    target = float(g.d1 - g.d2)
    lams, V, _ = extreme_eigs(adjacency_csr(g), target)
    cand = list(range(len(lams)))
    # the Perron eigenvalue d1+d2 is the largest: returned on the d1 >= d2 side,
    # or when the solve covered the whole spectrum
    if target >= 0 or len(lams) == g.n:
        cand.remove(int(np.argmin(np.abs(lams - (g.d1 + g.d2)))))
    cand.sort(key=lambda i: abs(lams[i] - target))
    best = cand[0]
    if len(cand) > 1 and abs(lams[cand[1]] - lams[best]) < 1e-6:
        raise AmbiguityError(
            f"eigenvalues {lams[best]} and {lams[cand[1]]} both lie near {target}"
        )
    v = V[:, best]
    zero_entries = int(np.sum(v == 0.0))
    sigma_hat = np.where(v >= 0.0, 1, -1)
    sigma = np.asarray(g.sigma)
    agree = float(np.mean(sigma_hat == sigma))
    agreement = max(agree, 1.0 - agree)
    return RecoveryResult(
        sigma_hat=tuple(sigma_hat.tolist()),
        agreement=agreement,
        exact=agreement == 1.0,
        zero_entries=zero_entries,
        lam_selected=float(lams[best]),
    )


@dataclass(frozen=True)
class InsiderGapReport:
    n: int
    d1: int
    d2: int
    mu2: float
    mu2_prime: float
    specials: tuple
    max_circle_deviation: float
    radius: float


def insider_gap_report(g: RsbmGraph, spectrum: LiftedSpectrum | None = None) -> InsiderGapReport:
    """Locate {d1+d2-1, 1, mu2, mu2'} in the lifted spectrum (each simple)
    and report how far the remaining eigenvalues sit from the bulk circle.

    A bulk eigenvalue of A, in [-2 sqrt(q), 2 sqrt(q)] with q = d1+d2-1, lifts
    onto the circle |mu| = sqrt(q), so only the outliers enter: certified by
    `outlier_eigs`, or from `spectrum` beyond the same edges. Each special must
    match one lifted outlier within MATCH_TOL, ISOLATION_TOL clear of the
    others and of the circle; the deviation is over the other lifted outliers
    (0.0 if none). n=2000, (12,4): 0.14–0.19 s, 1.1–1.3 s with `eigh` (2-core Xeon VM).
    """
    pair = rsbm_mu2(g.d1, g.d2)
    if not pair.detectable:
        raise DetectabilityError("insider gap requires detectable parameters")
    if g.d1 % 2:
        raise DomainError("insider gap report requires even d1")
    model = LiftModel(g.d1 + g.d2)
    radius = model.radius
    if spectrum is None:
        lams = outlier_eigs(adjacency_csr(g), 2.0 * radius)[0]
    else:
        lams = spectrum.lams[np.abs(spectrum.lams) > 2.0 * radius - INERTIA_GAP * (g.d1 + g.d2)]
    mus = np.concatenate(model.roots(lams))
    specials = (*model.perron, float(pair.mu2.real), float(pair.mu2_prime.real))
    taken = np.zeros(len(mus), dtype=bool)
    for s in specials:
        dist = np.abs(mus - s)
        hits = np.flatnonzero((dist <= MATCH_TOL) & ~taken)
        if len(hits) != 1:
            raise MultiplicityError(f"expected exactly one eigenvalue at {s}, found {len(hits)}")
        if min(np.min(np.delete(dist, hits[0])), abs(abs(s) - radius)) < ISOLATION_TOL:
            raise MultiplicityError(f"eigenvalue at {s} is not isolated at radius {ISOLATION_TOL}")
        taken[hits] = True
    dev = float(np.max(np.abs(np.abs(mus[~taken]) - radius), initial=0.0))
    return InsiderGapReport(
        n=g.n,
        d1=g.d1,
        d2=g.d2,
        mu2=float(pair.mu2.real),
        mu2_prime=float(pair.mu2_prime.real),
        specials=specials,
        max_circle_deviation=dev,
        radius=radius,
    )
