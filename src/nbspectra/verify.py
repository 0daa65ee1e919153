"""Machine-precision verification of the determinant identities relating B,
the reduced operator, and A, via complex log-determinants.

Comparisons live in log space because the scalar factor (z^2-1)^{|E|-n}
overflows double precision once |E|-n is a few hundred; log magnitude and
phase mod 2*pi carry the same information and stay bounded.

Every determinant is a sparse LU factorization: B is nd x nd with about
d(k-1) nonzeros per row, and a dense copy would cost 16 (nd)^2 bytes.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .errors import NearSingularError, SingularError, ZeroVectorError
from .graphs import RegularGraph, RegularHypergraph
from .operators import (
    adjacency_matrix,
    edge_size,
    nonbacktracking_matrix,
    reduced_nb_operator,
    underlying_graph,
)
from .seeds import Seed, as_seed
from .spectral import LiftedSpectrum, full_lifted_spectrum

GUARD_RADIUS = 1e-6
MAG_TOL = 1e-8
PHASE_TOL = 1e-8


def _wrap_phase(phi: float) -> float:
    """Reduce to (-pi, pi]."""
    phi = math.remainder(phi, 2.0 * math.pi)
    if phi <= -math.pi:
        phi += 2.0 * math.pi
    return phi


@dataclass(frozen=True)
class LogDet:
    """log|det| and arg(det) in (-pi, pi]."""

    log_abs: float
    phase: float

    def __add__(self, other: "LogDet") -> "LogDet":
        return LogDet(self.log_abs + other.log_abs, _wrap_phase(self.phase + other.phase))


def _parity(perm: np.ndarray) -> int:
    """0 for an even permutation, 1 for an odd one: (length - cycle count) mod 2."""
    perm = perm.tolist()
    seen = [False] * len(perm)
    cycles = 0
    for i in range(len(perm)):
        if not seen[i]:
            cycles += 1
            j = i
            while not seen[j]:
                seen[j] = True
                j = perm[j]
    return (len(perm) - cycles) % 2


def logdet(M) -> LogDet:
    """Log-determinant of a dense or sparse square matrix via sparse LU.

    SuperLU factors Pr M Pc = L U (COLAMD column order, partial pivoting).
    L has a unit diagonal, so det M = sign(Pr) sign(Pc) prod U_ii. An exactly
    zero pivot or a pivot underflow raises SingularError.
    """
    if not sp.issparse(M):
        M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("M must be square")
    try:
        lu = spla.splu(sp.csc_matrix(M, dtype=np.complex128))
    except RuntimeError as e:
        if "singular" not in str(e):
            raise
        raise SingularError(f"sparse LU: {e}") from e
    diag = lu.U.diagonal()
    mags = np.abs(diag)
    if np.min(mags) < 1e-300:
        raise SingularError("pivot magnitude underflow; matrix is singular")
    log_abs = float(np.sum(np.log(mags)))
    phase = float(np.sum(np.angle(diag)))
    if _parity(lu.perm_r) != _parity(lu.perm_c):
        phase += math.pi
    return LogDet(log_abs=log_abs, phase=_wrap_phase(phase))


def _scaled_log(z: complex, exponent: float) -> LogDet:
    """exponent * log(z) as a LogDet (exponent may be negative)."""
    return LogDet(exponent * math.log(abs(z)), _wrap_phase(exponent * cmath.phase(z)))


def phase_distance(a: float, b: float) -> float:
    return abs(_wrap_phase(a - b))


@dataclass(frozen=True)
class IharaBassRecord:
    """One z-point comparison; rhs_reduced uses the reduced operator
    determinant, rhs_adjacency the quadratic polynomial in A directly."""

    z: complex
    lhs: LogDet
    rhs_reduced: LogDet
    rhs_adjacency: LogDet
    mag_err: float
    phase_err: float
    ok: bool

    @property
    def mag_over_tol(self) -> float:
        """mag_err as a share of its tolerance MAG_TOL (1 + |log|det(B - zI)||)."""
        return self.mag_err / (MAG_TOL * (1.0 + abs(self.lhs.log_abs)))

    @property
    def phase_over_tol(self) -> float:
        """phase_err as a share of its tolerance PHASE_TOL."""
        return self.phase_err / PHASE_TOL


def _guard(z: complex, mus: np.ndarray, poles) -> None:
    if np.min(np.abs(mus - z)) < GUARD_RADIUS:
        raise NearSingularError(f"z = {z} within {GUARD_RADIUS} of a reduced-operator eigenvalue")
    for p in poles:
        if abs(z - p) < GUARD_RADIUS:
            raise NearSingularError(f"z = {z} within {GUARD_RADIUS} of scalar factor zero {p}")


def _compare(z, lhs: LogDet, rhs_reduced: LogDet, rhs_adjacency: LogDet) -> IharaBassRecord:
    mag_err = max(
        abs(lhs.log_abs - rhs_reduced.log_abs), abs(lhs.log_abs - rhs_adjacency.log_abs)
    )
    phase_err = max(
        phase_distance(lhs.phase, rhs_reduced.phase),
        phase_distance(lhs.phase, rhs_adjacency.phase),
    )
    ok = mag_err <= MAG_TOL * (1.0 + abs(lhs.log_abs)) and phase_err <= PHASE_TOL
    return IharaBassRecord(
        z=complex(z),
        lhs=lhs,
        rhs_reduced=rhs_reduced,
        rhs_adjacency=rhs_adjacency,
        mag_err=mag_err,
        phase_err=phase_err,
        ok=ok,
    )


@dataclass(frozen=True)
class IharaBassSystem:
    """Sparse operators and guard spectrum of one graph or hypergraph, built
    once and shared by every z point checked against it.

    With k = 2 for graphs, the identities read
        det(B - zI) = (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n} det(reduced - zI),
        det(reduced - zI) = det((z^2 + (k-2)z + (k-1)(d-1)) I - zA).
    """

    graph: "RegularGraph | RegularHypergraph"
    spectrum: LiftedSpectrum
    B: sp.csr_matrix
    reduced: sp.csr_matrix
    A: sp.csr_matrix
    k: int

    def shifted(self, z: complex) -> tuple:
        """The three sparse matrices whose determinants the identity compares:
        B - zI, reduced - zI and the quadratic polynomial in A."""
        n, d, k = self.graph.n, self.graph.d, self.k
        poly = (z * z + (k - 2) * z + (k - 1) * (d - 1)) * sp.identity(n) - z * self.A
        return (
            self.B - z * sp.identity(self.B.shape[0]),
            self.reduced - z * sp.identity(2 * n),
            poly,
        )

    def scalar(self, z: complex) -> LogDet:
        """log of (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n}."""
        n, k = self.graph.n, self.k
        m = self.B.shape[0] // k  # B is indexed by the k|E| (vertex, edge) incidences
        return _scaled_log(z - 1.0, (k - 1) * m - n) + _scaled_log(z + (k - 1.0), m - n)


def ihara_bass_system(g, spectrum: "LiftedSpectrum | None" = None) -> IharaBassSystem:
    """Build B, the reduced matrix and A (all sparse) and, unless given, the spectrum."""
    h = underlying_graph(g)
    return IharaBassSystem(
        graph=h,
        spectrum=full_lifted_spectrum(h) if spectrum is None else spectrum,
        B=nonbacktracking_matrix(h),
        reduced=reduced_nb_operator(h),
        A=sp.csr_matrix(adjacency_matrix(h), dtype=np.float64),
        k=edge_size(h),
    )


def _check(system: IharaBassSystem, z: complex) -> IharaBassRecord:
    z = complex(z)
    # the zeros of the scalar factor are B's trivial eigenvalues 1 and -(k-1)
    _guard(z, system.spectrum.eigenvalues(), system.spectrum.model.trivial)
    B_z, reduced_z, poly = system.shifted(z)
    scalar = system.scalar(z)
    return _compare(z, logdet(B_z), scalar + logdet(reduced_z), scalar + logdet(poly))


def ihara_bass_check(g, z: complex, spectrum=None) -> IharaBassRecord:
    """Compare det(B - zI) against (z^2-1)^{|E|-n} det(reduced - zI) and the
    equivalent quadratic form in A, all in log space.

    ``g`` is a graph, hypergraph or RSBM, or an `IharaBassSystem` that
    carries its operators and spectrum across many z points (``spectrum``
    is then unused). Hypergraphs go to `ihara_bass_check_hyper`.
    """
    system = g if isinstance(g, IharaBassSystem) else ihara_bass_system(g, spectrum)
    if isinstance(system.graph, RegularHypergraph):
        return ihara_bass_check_hyper(system, z)
    return _check(system, z)


def ihara_bass_check_hyper(H, z: complex, spectrum=None) -> IharaBassRecord:
    """Hypergraph identity: det(B - zI) =
    (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n} det(reduced - zI).

    ``H`` is a hypergraph or its `IharaBassSystem`, as in `ihara_bass_check`.
    """
    system = H if isinstance(H, IharaBassSystem) else ihara_bass_system(H, spectrum)
    return _check(system, z)


def eigen_residual(M, mu: complex, w: np.ndarray) -> float:
    """Relative eigen-residual ||M w - mu w|| / ||w||; M dense or sparse."""
    w = np.asarray(w)
    nw = np.linalg.norm(w)
    if nw < 1e-300:
        raise ZeroVectorError("w must be nonzero")
    return float(np.linalg.norm(M @ w - complex(mu) * w) / nw)


def sample_z_points(g, count: int, seed: "int | Seed", spectrum: "LiftedSpectrum | None" = None) -> list:
    """Pseudo-random z in the annulus 0.1 <= |z| <= 2*sqrt(q) that avoid the
    near-singular guard (q = (d-1)(k-1), with k = 2 for graphs). The guard
    uses ``spectrum`` when given, else computes it."""
    spec = full_lifted_spectrum(underlying_graph(g)) if spectrum is None else spectrum
    poles = spec.model.trivial
    rng = as_seed(seed).generator()
    mus = spec.eigenvalues()
    rmax = 2.0 * spec.model.radius
    out: list = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise NearSingularError("could not sample z points clear of the guard")
        r = rng.uniform(0.1, rmax)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(r * math.cos(theta), r * math.sin(theta))
        if np.min(np.abs(mus - z)) < GUARD_RADIUS:
            continue
        if any(abs(z - p) < GUARD_RADIUS for p in poles):
            continue
        out.append(z)
    return out


def ihara_bass_report(g, trials: int = 8, seed: "int | Seed" = 0) -> "tuple[list, bool]":
    """Run the identity check at ``trials`` sampled z points.

    Returns (records, all_ok). The operators and the spectrum are built once
    and shared by the z sampler and every check.
    """
    system = ihara_bass_system(g)
    zs = sample_z_points(system.graph, trials, seed, spectrum=system.spectrum)
    records = [ihara_bass_check(system, z) for z in zs]
    return records, all(r.ok for r in records)
