"""Machine-precision verification of the determinant identities relating B,
the reduced operator, and A, via complex log-determinants.

Comparisons live in log space because the scalar factor (z^2-1)^{|E|-n}
overflows double precision once |E|-n is a few hundred; log magnitude and
phase mod 2*pi carry the same information and stay bounded.

Every determinant is a sparse LU factorization: B is nd x nd with about
d(k-1) nonzeros per row, and a dense copy would cost 16 (nd)^2 bytes.

The checks run in two lanes that meet at every z: det(B - zI) in the
calling thread and the reduced side in one worker, while every loaded
OpenBLAS is held at one thread. SuperLU releases the GIL, and otherwise
hands its small supernodal panels to threaded BLAS, which costs about
twice the CPU for the same wall time.
"""

from __future__ import annotations

import cmath
import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import contextmanager
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .errors import NearSingularError, SingularError
from .operators import adjacency_csr, nonbacktracking_matrix, reduced_nb_operator, underlying_graph
from .seeds import Seed, as_seed
from .spectral import LiftedSpectrum, full_lifted_spectrum

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

    spectrum: LiftedSpectrum
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

        n, model = self.spectrum.n, self.spectrum.model
        poly = (z * z + model.shift * z + model.q) * sp.identity(n) - z * self.A
        return self.reduced - z * sp.identity(2 * n), poly

    def scalar(self, z: complex) -> LogDet:
        """log of (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n}, whose zeros are B's trivial eigenvalues."""
        n, model = self.spectrum.n, self.spectrum.model
        k, (one, other) = model.k, model.trivial
        m = self.B.shape[0] // k  # B is indexed by the k|E| (vertex, edge) incidences
        # z + (k-1), not z - (-(k-1)): at a real z given with Im z = -0.0 the
        # two differ in the sign of the zero, and so in the phase, +pi or -pi
        return _scaled_log(z - one, (k - 1) * m - n) + _scaled_log(z + -other, m - n)


def ihara_bass_system(g, spectrum: "LiftedSpectrum | None" = None) -> IharaBassSystem:
    """Build B, the reduced matrix and A (all sparse) and, unless given, the spectrum."""
    h = underlying_graph(g)
    A = adjacency_csr(h).astype(np.float64)
    return IharaBassSystem(
        spectrum=full_lifted_spectrum(h) if spectrum is None else spectrum,
        B=nonbacktracking_matrix(h),
        reduced=reduced_nb_operator(h, A),
        A=A,
    )


#: (get, set) thread-count symbol names, by build prefix and symbol suffix
_OPENBLAS_SYMBOLS = tuple(
    (f"{prefix}openblas_get_num_threads{suffix}", f"{prefix}openblas_set_num_threads{suffix}")
    for prefix in ("scipy_", "")
    for suffix in ("", "64_")
)


def _openblas_controls() -> list:
    """(get, set) thread-count functions of every OpenBLAS the process has loaded.

    As threadpoolctl does, the libraries are found among the process's
    mapped files, and each build exports the pair under its own prefix and
    symbol suffix: scipy's wheel as ``scipy_openblas_set_num_threads``,
    numpy's 64-bit-integer one as ``scipy_openblas_set_num_threads64_``.
    ``openblas_set_num_threads_local`` is not used: it changes the global
    count too. Empty where /proc/self/maps cannot be read.
    """
    try:
        with open("/proc/self/maps") as f:
            paths = sorted({line.split(maxsplit=5)[5].strip() for line in f if "openblas" in line})
    except OSError:
        return []
    controls = []
    for path in paths:
        if not os.path.basename(path).startswith(("libopenblas", "libscipy_openblas")):
            continue
        try:
            lib = ctypes.CDLL(path, mode=os.RTLD_NOLOAD | os.RTLD_LAZY)
        except OSError:
            continue
        for get_name, set_name in _OPENBLAS_SYMBOLS:
            if hasattr(lib, get_name) and hasattr(lib, set_name):
                get, put = getattr(lib, get_name), getattr(lib, set_name)
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                controls.append((get, put))
                break
    return controls


#: serializes `single_blas_thread` across threads, as the counts are process-wide
_BLAS_PIN = threading.RLock()


@contextmanager
def single_blas_thread():
    """Hold every loaded OpenBLAS at one thread, and restore each library's
    previous count on exit, on error too. Yields whether any was found.

    The counts are process-wide, so callers in different threads take turns:
    if two pins overlapped, the later one would restore the pinned count.
    """
    with _BLAS_PIN:
        saved = [(put, get()) for get, put in _openblas_controls()]
        try:
            for put, _ in saved:
                put(1)
            yield bool(saved)
        finally:
            for put, count in saved:
                put(count)


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
    side, under `single_blas_thread`; with no OpenBLAS to pin, both run in
    the caller. The two sides meet at every z, so at most one z is in
    flight when either side raises.
    """
    zs = [complex(z) for z in zs]
    mus = system.spectrum.eigenvalues()
    for z in zs:
        # the zeros of the scalar factor are B's trivial eigenvalues 1 and -(k-1)
        _guard(z, mus, system.spectrum.model.trivial)
    # SuperLU's OpenBLAS must be mapped before the pin, or it would load, and
    # run threaded, inside it
    import scipy.sparse.linalg  # noqa: F401

    records = []
    with single_blas_thread() as pinned, ThreadPoolExecutor(max_workers=1) as worker:
        for z in zs:
            right = worker.submit(_rhs, system, z) if pinned else None
            left = logdet(system.lhs_matrix(z))
            right = right.result() if pinned else _rhs(system, z)
            records.append(_compare(z, left, *right))
    return records


def ihara_bass_check(g, z: complex, spectrum=None) -> IharaBassRecord:
    """`ihara_bass_checks` at the one point ``z``.

    ``g`` is a graph, hypergraph or RSBM, or an `IharaBassSystem` that
    carries its operators and spectrum across many z points (``spectrum``
    is then unused).
    """
    system = g if isinstance(g, IharaBassSystem) else ihara_bass_system(g, spectrum)
    return ihara_bass_checks(system, [z])[0]


def ihara_bass_check_hyper(H, z: complex, spectrum=None) -> IharaBassRecord:
    """`ihara_bass_check` for a hypergraph ``H`` or its `IharaBassSystem`:
    det(B - zI) = (z-1)^{(k-1)|E|-n} (z+k-1)^{|E|-n} det(reduced - zI)."""
    return ihara_bass_check(H, z, spectrum)


def sample_z_points(spectrum: LiftedSpectrum, count: int, seed: "int | Seed") -> list:
    """Pseudo-random z in the annulus 0.1 <= |z| <= 2*sqrt(q) that avoid the
    near-singular guard around the eigenvalues of ``spectrum`` and B's
    trivial eigenvalues (q = (d-1)(k-1), with k = 2 for graphs)."""
    rng = as_seed(seed).generator()
    mus, model = spectrum.eigenvalues(), spectrum.model
    rmax = 2.0 * model.radius
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
            _guard(z, mus, model.trivial)
        except NearSingularError:
            continue
        out.append(z)
    return out


def ihara_bass_report(g, trials: int = 8, seed: "int | Seed" = 0) -> "tuple[list, bool]":
    """Run the identity check at ``trials`` sampled z points.

    Returns (records, all_ok). The operators and the spectrum are built once
    and shared by the z sampler and every check.
    """
    system = ihara_bass_system(g)
    zs = sample_z_points(system.spectrum, trials, seed)
    records = ihara_bass_checks(system, zs)
    return records, all(r.ok for r in records)
