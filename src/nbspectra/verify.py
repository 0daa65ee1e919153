"""Machine-precision verification of the determinant identities relating B,
the reduced operator, and A, via complex log-determinants.

Comparisons live in log space because the scalar factor (z^2-1)^{|E|-n}
overflows double precision once |E|-n is a few hundred; log magnitude and
phase mod 2*pi carry the same information and stay bounded.

Every determinant is a sparse LU factorization: B is nd x nd with about
d(k-1) nonzeros per row, and a dense copy would cost 16 (nd)^2 bytes.

The checks run in two lanes that meet at every z: det(B - zI) in the
calling thread and the reduced side in one worker, under
`blas.single_blas_thread`, which holds scipy's OpenBLAS, the one SuperLU
links, at one thread where it is found. SuperLU releases the GIL, and
otherwise hands its small supernodal panels to threaded BLAS, which costs
about twice the CPU for the same wall time; blas.py states the policy.

Besides the three sparse operators, the checks need only the 2n lifted
eigenvalues, which keep each z off the spectrum: one certified eigensolve
of the same sparse A gives them.
"""

from __future__ import annotations

import cmath
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .blas import single_blas_thread
from .errors import NearSingularError, SingularError
from .operators import adjacency_csr, nonbacktracking_matrix, reduced_nb_operator
from .seeds import Seed, as_seed
from .spectral import LiftModel, _certified_eigh

if TYPE_CHECKING:  # scipy loads on first use, so `gen`, `project` and `ks` start without it
    import scipy.sparse as sp

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
    import scipy.sparse as sp
    import scipy.sparse.linalg as spla

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
    determinant, rhs_adjacency the quadratic polynomial in A directly. The
    errors and the pass flag derive from the three log-determinants."""

    z: complex
    lhs: LogDet
    rhs_reduced: LogDet
    rhs_adjacency: LogDet

    @property
    def mag_err(self) -> float:
        return max(abs(self.lhs.log_abs - rhs.log_abs) for rhs in (self.rhs_reduced, self.rhs_adjacency))

    @property
    def phase_err(self) -> float:
        return max(phase_distance(self.lhs.phase, rhs.phase) for rhs in (self.rhs_reduced, self.rhs_adjacency))

    @property
    def mag_tol(self) -> float:
        """The tolerance of mag_err, MAG_TOL (1 + |log|det(B - zI)||)."""
        return MAG_TOL * (1.0 + abs(self.lhs.log_abs))

    @property
    def ok(self) -> bool:
        return self.mag_err <= self.mag_tol and self.phase_err <= PHASE_TOL

    @property
    def mag_over_tol(self) -> float:
        """mag_err as a share of its tolerance."""
        return self.mag_err / self.mag_tol

    @property
    def phase_over_tol(self) -> float:
        """phase_err as a share of its tolerance PHASE_TOL."""
        return self.phase_err / PHASE_TOL


def _guard(z: complex, system: IharaBassSystem) -> None:
    """NearSingularError unless z lies GUARD_RADIUS clear of every lifted
    eigenvalue and of the scalar factor's zeros, B's trivial eigenvalues 1
    and -(k-1)."""
    if np.min(np.abs(system.mus - z)) < GUARD_RADIUS:
        raise NearSingularError(f"z = {z} within {GUARD_RADIUS} of a reduced-operator eigenvalue")
    for p in system.model.trivial:
        if abs(z - p) < GUARD_RADIUS:
            raise NearSingularError(f"z = {z} within {GUARD_RADIUS} of scalar factor zero {p}")


@dataclass(frozen=True)
class IharaBassSystem:
    """Sparse operators of one graph or hypergraph, with its lift model and
    the 2n lifted eigenvalues `mus` (every mu, then every mu') that guard
    each z, built once and shared by every z point checked against it.

    With k = 2 for graphs, the identities read
        det(B - zI) = (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n} det(reduced - zI),
        det(reduced - zI) = det((z^2 + (k-2)z + (k-1)(d-1)) I - zA).
    """

    model: LiftModel
    mus: np.ndarray
    B: sp.csr_matrix
    reduced: sp.csr_matrix
    A: sp.csr_matrix

    def lhs_matrix(self, z: complex) -> sp.csr_matrix:
        """B - zI, the left-hand side of the identity."""
        import scipy.sparse as sp

        return self.B - z * sp.identity(self.B.shape[0])

    def rhs_matrices(self, z: complex) -> tuple:
        """reduced - zI and the quadratic polynomial in A, the two right-hand
        sides of the identity (each without the scalar factor)."""
        import scipy.sparse as sp

        n, model = self.A.shape[0], self.model
        poly = (z * z + model.shift * z + model.q) * sp.identity(n) - z * self.A
        return self.reduced - z * sp.identity(2 * n), poly

    def scalar(self, z: complex) -> LogDet:
        """log of (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n}, whose zeros are B's trivial eigenvalues."""
        n, model = self.A.shape[0], self.model
        k, (one, other) = model.k, model.trivial
        m = self.B.shape[0] // k  # B is indexed by the k|E| (vertex, edge) incidences
        # z + (k-1), not z - (-(k-1)): at a real z given with Im z = -0.0 the
        # two differ in the sign of the zero, and so in the phase, +pi or -pi
        return _scaled_log(z - one, (k - 1) * m - n) + _scaled_log(z + -other, m - n)


def ihara_bass_system(g) -> IharaBassSystem:
    """Build B, the reduced matrix and A (all sparse) and the lifted
    eigenvalues, from one adjacency build."""
    A = adjacency_csr(g).astype(np.float64)
    model = LiftModel(g.d, g.rows.shape[1])
    return IharaBassSystem(
        model=model,
        mus=np.concatenate(model.roots(_certified_eigh(A)[0])),
        B=nonbacktracking_matrix(g),
        reduced=reduced_nb_operator(g, A),
        A=A,
    )


def _rhs(system: IharaBassSystem, z: complex) -> tuple:
    """The two right-hand sides at ``z``, scalar factor included."""
    scalar = system.scalar(z)
    reduced_z, poly = system.rhs_matrices(z)
    return scalar + logdet(reduced_z), scalar + logdet(poly)


def ihara_bass_checks(system: IharaBassSystem, zs) -> list:
    """Compare det(B - zI) against (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n}
    det(reduced - zI) and the equivalent quadratic form in A, in log space,
    at every z of ``zs``; one record per z, in order.

    Every z is guarded before any factorization. At each z, det(B - zI) is
    factored in the calling thread while one worker factors the reduced
    side, under `single_blas_thread`. The two sides meet at every z, so at
    most one z is in flight when either side raises.
    """
    zs = [complex(z) for z in zs]
    for z in zs:
        _guard(z, system)
    records = []
    with single_blas_thread(), ThreadPoolExecutor(max_workers=1) as worker:
        for z in zs:
            right = worker.submit(_rhs, system, z)
            left = logdet(system.lhs_matrix(z))
            records.append(IharaBassRecord(z, left, *right.result()))
    return records


def ihara_bass_check(g, z: complex) -> IharaBassRecord:
    """`ihara_bass_checks` at the one point ``z`` of a graph, hypergraph or RSBM."""
    return ihara_bass_checks(ihara_bass_system(g), [z])[0]


#: the same check, under the name a hypergraph caller may use
ihara_bass_check_hyper = ihara_bass_check


def sample_z_points(system: IharaBassSystem, count: int, seed: "int | Seed") -> list:
    """Pseudo-random z in the annulus 0.1 <= |z| <= 2*sqrt(q) that avoid the
    near-singular guard around the lifted eigenvalues of ``system`` and B's
    trivial eigenvalues (q = (d-1)(k-1), with k = 2 for graphs)."""
    rng = as_seed(seed).generator()
    rmax = 2.0 * system.model.radius
    out: list = []
    attempts = 0
    while len(out) < count:
        attempts += 1
        if attempts > 1000 * count:
            raise NearSingularError("could not sample z points clear of the guard")
        r = rng.uniform(0.1, rmax)
        theta = rng.uniform(0.0, 2.0 * math.pi)
        z = complex(r * math.cos(theta), r * math.sin(theta))
        try:
            _guard(z, system)
        except NearSingularError:
            continue
        out.append(z)
    return out


def ihara_bass_report(g, trials: int = 8, seed: "int | Seed" = 0) -> "tuple[list, bool]":
    """Run the identity check at ``trials`` sampled z points.

    Returns (records, all_ok). The operators and the lifted eigenvalues are
    built once and shared by the z sampler and every check.
    """
    system = ihara_bass_system(g)
    zs = sample_z_points(system, trials, seed)
    records = ihara_bass_checks(system, zs)
    return records, all(r.ok for r in records)
