import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import nbspectra.rsbm
import nbspectra.spectral
from nbspectra.errors import (
    ConvergenceError,
    DetectabilityError,
    DomainError,
    MultiplicityError,
    StructureError,
)
from nbspectra.graphs import RsbmGraph, sample_rsbm
from nbspectra.operators import reduced_nb_matrix
from nbspectra.rsbm import (
    deterministic_sigma_eigenpair,
    insider_gap_report,
    recover_communities,
    rsbm_mu2,
)
from nbspectra.seeds import Seed
from nbspectra.spectral import full_lifted_spectrum

from oracles import full_insider_report, full_recovery, sigma_reduced_eigenvector

ROOT = Path(__file__).resolve().parents[1]

#: (n, d1, d2) with n <= 100, both sides of the partial solve: "LA" (d1 > d2)
#: and "SA" (d1 < d2), and (40, 6, 1), (40, 1, 6) just above the threshold
RECOVERY_CORPUS = [(40, 8, 1), (100, 8, 1), (100, 12, 4), (40, 6, 1), (40, 1, 8), (60, 2, 9), (40, 1, 6)]
def test_mu2_figure_parameters():
    pair = rsbm_mu2(12, 4)
    assert pair.mu2 == pytest.approx(5.0)
    assert pair.mu2_prime == pytest.approx(3.0)
    assert pair.detectable
    # Vieta, exactly
    assert pair.mu2 * pair.mu2_prime == pytest.approx(15.0, abs=1e-12)
    assert pair.mu2 + pair.mu2_prime == pytest.approx(8.0, abs=1e-12)


def test_mu2_boundary_not_detectable():
    pair = rsbm_mu2(8, 2)
    assert pair.mu2 == pytest.approx(3.0)
    assert pair.mu2_prime == pytest.approx(3.0)
    assert not pair.detectable  # strict inequality required


def test_mu2_equal_degrees_imaginary():
    d = 5
    pair = rsbm_mu2(d, d)
    assert pair.mu2 == pytest.approx(1j * math.sqrt(2 * d - 1))
    assert pair.mu2_prime == pytest.approx(-1j * math.sqrt(2 * d - 1))
    assert not pair.detectable


def test_sigma_is_exact_eigenvector():
    g = sample_rsbm(40, 8, 1, 0)
    lam, ok = deterministic_sigma_eigenpair(g)
    assert lam == 7 and ok


def test_sigma_eigenpair_small_example():
    g = sample_rsbm(8, 2, 1, 1)
    lam, _ = deterministic_sigma_eigenpair(g)
    assert lam == 1


def test_corrupted_sigma_raises():
    g = sample_rsbm(16, 2, 1, 2)
    swapped = list(g.sigma)
    i = swapped.index(1)
    j = swapped.index(-1)
    swapped[i], swapped[j] = -1, 1
    bad = RsbmGraph(g.n, g.d1, g.d2, tuple(swapped), g.graph)
    with pytest.raises(StructureError):
        deterministic_sigma_eigenpair(bad)


def test_recovery_exact_on_detectable_sample():
    g = sample_rsbm(200, 8, 1, 4)
    r = recover_communities(g)
    assert r.exact
    assert r.agreement == 1.0
    assert r.lam_selected == pytest.approx(7.0, abs=1e-9)
    assert r.zero_entries == 0


def test_recovery_agreement_sign_invariant():
    g = sample_rsbm(100, 8, 1, 9)
    r = recover_communities(g)
    flipped = tuple(-s for s in r.sigma_hat)
    sigma = np.asarray(g.sigma)
    a1 = max(np.mean(np.asarray(r.sigma_hat) == sigma), np.mean(np.asarray(r.sigma_hat) == -sigma))
    a2 = max(np.mean(np.asarray(flipped) == sigma), np.mean(np.asarray(flipped) == -sigma))
    assert a1 == a2 == r.agreement


def test_recovery_rejects_non_detectable():
    g = sample_rsbm(40, 4, 2, 0)
    with pytest.raises(DetectabilityError):
        recover_communities(g)


def test_sigma_reduced_eigenvector_residual():
    g = sample_rsbm(60, 8, 1, 3)
    pair = rsbm_mu2(g.d1, g.d2)
    Bt = reduced_nb_matrix(g)
    for mu in (pair.mu2, pair.mu2_prime):
        u = sigma_reduced_eigenvector(g, mu)
        assert np.linalg.norm(Bt @ u - mu * u) <= 1e-10


def test_insider_mu2_in_lifted_spectrum():
    g = sample_rsbm(120, 12, 4, 5)
    mus = full_lifted_spectrum(g).eigenvalues()
    for target in (5.0, 3.0):
        assert np.min(np.abs(mus - target)) <= 1e-9


def test_insider_gap_report_small():
    g = sample_rsbm(120, 12, 4, 5)
    rep = insider_gap_report(g)
    assert rep.specials == (15.0, 1.0, 5.0, 3.0)
    assert rep.radius == pytest.approx(math.sqrt(15))
    assert rep.max_circle_deviation <= 0.5


def test_insider_gap_requires_even_d1():
    g = sample_rsbm(40, 9, 1, 2)  # d1 odd: 9*20 = 180 even so sampling works
    assert rsbm_mu2(9, 1).detectable
    with pytest.raises(DomainError):
        insider_gap_report(g)


def test_insider_gap_rejects_non_detectable():
    g = sample_rsbm(40, 4, 2, 0)
    with pytest.raises(DetectabilityError):
        insider_gap_report(g)


def _extra_outlier(monkeypatch, offset: float) -> None:
    """Make `outlier_eigs` report, above the bulk, one more eigenvalue of A at
    `offset` from the one nearest d1-d2 = 7."""
    outlier_eigs = nbspectra.rsbm.outlier_eigs

    def doctored(A, edge, side):
        vals, V, residuals = outlier_eigs(A, edge, side)
        if side > 0:
            vals = np.append(vals, vals[np.argmin(np.abs(vals - 7))] + offset)
        return vals, V, residuals

    monkeypatch.setattr(nbspectra.rsbm, "outlier_eigs", doctored)


def test_insider_gap_multiplicity_guard(monkeypatch):
    # a duplicated mu2 slot: the outliers report the eigenvalue d1-d2 twice
    g = sample_rsbm(40, 8, 1, 7)
    _extra_outlier(monkeypatch, 0.0)
    with pytest.raises(MultiplicityError, match="exactly one"):
        insider_gap_report(g)


def test_insider_gap_isolation_guard(monkeypatch):
    # an extra eigenvalue 1e-7 from d1-d2 lifts about 1.3e-7 from mu2: past
    # MATCH_TOL, so mu2 is matched once, but within ISOLATION_TOL of it
    g = sample_rsbm(40, 8, 1, 7)
    _extra_outlier(monkeypatch, 1e-7)
    with pytest.raises(MultiplicityError, match="not isolated"):
        insider_gap_report(g)


# (n, d1, d2, seed, only the specials lie outside the bulk): the first four
# have 3+0, 2+1, 2+1 and 2+1 eigenvalues above+below the bulk, one more than
# Perron and d1-d2, and that extra outlier sets the circle deviation
INSIDER_CORPUS = [
    (400, 6, 1, 8, False),
    (400, 8, 1, 12, False),
    (400, 2, 9, 9, False),
    (400, 12, 4, 28, False),
    (120, 12, 4, 5, True),
]


@pytest.mark.parametrize("n, d1, d2, seed, only_specials", INSIDER_CORPUS)
def test_insider_report_matches_full_spectrum(n, d1, d2, seed, only_specials):
    g = sample_rsbm(n, d1, d2, seed)
    rep, full = insider_gap_report(g), full_insider_report(g)
    assert rep.specials == full.specials
    assert rep.max_circle_deviation == pytest.approx(full.max_circle_deviation, abs=1e-9)
    if only_specials:
        assert rep.max_circle_deviation == 0.0  # the bulk lifts onto the circle exactly
    else:
        assert rep.max_circle_deviation > 0.05


def test_insider_report_solves_only_outliers(eigsh_calls, monkeypatch):
    # criterion 7's first instance: 2 eigenvalues above the bulk (Perron and
    # d1-d2), none below; no full eigendecomposition
    eighs, eigh = [], nbspectra.spectral._eigh

    def spy(As):
        eighs.append(As.shape)
        return eigh(As)

    monkeypatch.setattr(nbspectra.spectral, "_eigh", spy)
    rep = insider_gap_report(sample_rsbm(2000, 12, 4, Seed(7).trial(0)))
    assert eigsh_calls == [2] and eighs == []
    assert rep.specials == (15.0, 1.0, 5.0, 3.0) and rep.max_circle_deviation == 0.0


def test_insider_report_corrupted_residual_raises(monkeypatch):
    eigsh = nbspectra.spectral.eigsh

    def shifted(A, **kw):
        vals, vecs = eigsh(A, **kw)
        return vals + 1e-6, vecs

    monkeypatch.setattr(nbspectra.spectral, "eigsh", shifted)
    with pytest.raises(ConvergenceError, match="eigen-residual"):
        insider_gap_report(sample_rsbm(120, 12, 4, 5))


def test_insider_report_ritz_value_short_of_shift_raises(monkeypatch):
    # one eigenvalue too many counted above the bulk: Lanczos returns a
    # certified third pair, which lies inside the bulk
    count = nbspectra.spectral._count_beyond
    monkeypatch.setattr(nbspectra.spectral, "_count_beyond", lambda A, s, side: count(A, s, side) + (side > 0))
    with pytest.raises(ConvergenceError, match="short of the inertia shift"):
        insider_gap_report(sample_rsbm(120, 12, 4, 5))


def test_rsbm_path_builds_no_dense_adjacency(monkeypatch):
    # the sigma check, recovery and the insider report work on the CSR of A
    def dense(g):
        raise AssertionError("dense n x n adjacency built on the RSBM path")

    for mod in list(sys.modules.values()):
        if getattr(mod, "__name__", "").startswith("nbspectra") and hasattr(mod, "adjacency_matrix"):
            monkeypatch.setattr(mod, "adjacency_matrix", dense)
    g = sample_rsbm(400, 12, 4, 0)
    assert deterministic_sigma_eigenpair(g) == (8, True)
    assert recover_communities(g).exact
    assert insider_gap_report(g).specials == (15.0, 1.0, 5.0, 3.0)


def assert_matches_full_recovery(g):
    part, full = recover_communities(g), full_recovery(g)
    assert part.lam_selected == pytest.approx(full.lam_selected, abs=1e-9)
    assert (part.agreement, part.exact, part.zero_entries) == (full.agreement, full.exact, full.zero_entries)
    assert abs(np.dot(part.sigma_hat, full.sigma_hat)) == g.n  # equal up to a global sign


@pytest.mark.parametrize("seed", range(3))
@pytest.mark.parametrize("n, d1, d2", RECOVERY_CORPUS)
def test_recovery_matches_full_spectrum(n, d1, d2, seed):
    assert_matches_full_recovery(sample_rsbm(n, d1, d2, seed))


def test_recovery_raises_k_from_inertia_count(eigsh_calls):
    # eigenvalue -2 is double next to the target -5 but inside the bulk edge
    # 2 sqrt(6): the inertia count below the edge is 1, so the one Lanczos
    # solve has k = 1, and recovery still matches the full solve
    assert_matches_full_recovery(sample_rsbm(16, 1, 6, 1))
    assert eigsh_calls == [1]


def test_rsbm_recovery_demo_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "rsbm_recovery.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "exact recovery: 10/10" in proc.stdout
