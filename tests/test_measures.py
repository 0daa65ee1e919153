import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath
import numpy as np
import pytest
from scipy import integrate

from nbspectra.errors import DomainError, IntegrationError, InvariantError
from nbspectra.graphs import sample_regular_graph, sample_regular_hypergraph
from nbspectra.measures import (
    ALPHA_MAX,
    CDF_CERT_TOL,
    EmpiricalMeasure,
    HyperAlpha,
    HyperFixed,
    KestenMcKay,
    Semicircle,
    consistency_check_k2,
    histogram,
    ks_distance,
    project_real_parts,
)
from nbspectra.seeds import Seed
from nbspectra.spectral import full_lifted_spectrum

from oracles import certified_cdf, model_quantile, quad_cdf

ROOT = Path(__file__).resolve().parents[1]

ALL_MODELS = [KestenMcKay(3), KestenMcKay(5), Semicircle(), HyperFixed(3, 3), HyperAlpha(1.0), HyperAlpha(2.5)]


def test_km_value_at_zero():
    # 2d sqrt(d-1) / (pi d^2) at x=0; for d=3 this is 2*sqrt(2)/(3*pi)
    assert KestenMcKay(3).pdf(0.0) == pytest.approx(2 * math.sqrt(2) / (3 * math.pi), rel=1e-12)


def test_semicircle_value_at_zero():
    assert Semicircle().pdf(0.0) == pytest.approx(1 / math.pi, rel=1e-12)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pdf_zero_outside_support(model):
    a, b = model.support
    assert model.pdf(a - 0.5) == 0.0
    assert model.pdf(b + 0.5) == 0.0
    assert model.pdf(b + 100.0) == 0.0


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pdf_nonnegative_on_dense_grid(model):
    a, b = model.support
    xs = np.linspace(a, b, 2001)
    assert np.all(model.pdf(xs) >= 0.0)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_pdf_integrates_to_one(model):
    a, b = model.support
    val, _ = integrate.quad(model.pdf, a, b, epsabs=1e-10, limit=400)
    assert val == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("model", ALL_MODELS)
def test_cdf_endpoints(model):
    a, b = model.support
    assert certified_cdf(model, a) == 0.0
    assert certified_cdf(model, b) == pytest.approx(1.0, abs=1e-6)
    assert certified_cdf(model, b + 3.0) == pytest.approx(1.0, abs=1e-6)


# HyperFixed(3, 3), HyperAlpha(1) and HyperFixed(2, 2) have a pole on a support edge (a 1/sqrt
# singularity there), KestenMcKay(3) one 0.09 outside it
@pytest.mark.parametrize("model", ALL_MODELS + [HyperFixed(2, 2)], ids=repr)
def test_cdf_matches_quadrature_oracle(model):
    a, b = model.support
    xs = np.linspace(a, b, 201)
    assert np.max(np.abs(model.cdf(xs) - quad_cdf(model, xs))) <= 1e-10


def test_pdf_matches_product_forms():
    # the densities as products, as the paper states them
    xs = np.linspace(-2.0, 2.0, 401)[1:-1]
    root = np.sqrt(1.0 - xs * xs / 4.0)
    for d, k in ((3, 3), (2, 2), (5, 3), (3, 5), (8, 8)):
        q = (d - 1) * (k - 1)
        f1 = 1.0 + 1.0 / q - xs / math.sqrt(q)
        f2 = 1.0 + (k - 1) ** 2 / q + (k - 1) * xs / math.sqrt(q)
        expected = (1.0 + (k - 1) / q) * root / (f1 * f2 * math.pi)
        assert np.allclose(HyperFixed(d, k).pdf(xs), expected, rtol=1e-13, atol=0)
    for a in (1.0, 2.5, 1e4):
        expected = a * root / ((1.0 + a + math.sqrt(a) * xs) * math.pi)
        assert np.allclose(HyperAlpha(a).pdf(xs), expected, rtol=1e-13, atol=0)
    for d in (3, 5, 40):
        ys = xs * math.sqrt(d - 1) / 2.0
        expected = 2 * d * np.sqrt((d - 1) - ys * ys) / (math.pi * (d * d - 4.0 * ys * ys))
        assert np.allclose(KestenMcKay(d).pdf(ys), expected, rtol=1e-13, atol=0)


def test_ks_matches_quadrature_oracle():
    # the acceptance suite's master seed: a criterion-3 and a criterion-5 instance. Criterion 5's
    # first instance is not used: its smallest sample lies 3.4e-11 above the edge pole, where the
    # oracle is off by 4.8e-9 (see test_cdf_next_to_edge_pole_matches_high_precision)
    master = Seed(20260809)
    g = sample_regular_graph(2000, 5, master.trial(31000))
    h = sample_regular_hypergraph(900, 3, 3, master.trial(51001))
    for m, model in (
        (project_real_parts(full_lifted_spectrum(g), "none", True), KestenMcKay(5)),
        (project_real_parts(full_lifted_spectrum(h), "hypergraph", True), HyperFixed(3, 3)),
    ):
        F = np.minimum(quad_cdf(model, m.samples), 1.0)
        n = len(F)
        oracle = max(np.max(np.abs(np.arange(1, n + 1) / n - F)), np.max(np.abs(np.arange(0, n) / n - F)))
        assert abs(ks_distance(m, model) - oracle) <= 1e-9


def test_cdf_next_to_edge_pole_matches_high_precision():
    # the smallest samples of three (900,3,3) instances: the edge reproducer (seed 1732846562) and
    # criterion 5's first and fifth. Reference: the product-form density at 40 digits with
    # x = -2 + s^2, where f2 = 2 + x = s^2 cancels the 1/sqrt(x+2) singularity
    def integrand(s):
        x = -2 + s * s
        f1 = 1 + mpmath.mpf(1) / 4 - x / 2
        return 2 * s * (1 + mpmath.mpf(2) / 4) * mpmath.sqrt(1 - x * x / 4) / (f1 * (2 + x) * mpmath.pi)

    with mpmath.workdps(40):
        for x in (-1.999999999999571, -1.9999999999660412, -1.9999958380873069):
            exact = mpmath.quad(integrand, [0, mpmath.sqrt(mpmath.mpf(x) + 2)], method="gauss-legendre")
            assert abs(certified_cdf(HyperFixed(3, 3), x) - float(exact)) <= 1e-15


@pytest.mark.parametrize(
    "fault, message",
    [
        (lambda F, x: F + np.nan, "total mass nan"),
        (lambda F, x: 0.5 * F, "total mass 0.5"),
        (lambda F, x: F + 0.1 * np.sin(np.pi * x / 2), "largest decrease"),
    ],
    ids=["non-finite", "mass", "decreasing"],
)
def test_cdf_certificate_failures(monkeypatch, fault, message):
    cdf = Semicircle.cdf
    monkeypatch.setattr(Semicircle, "cdf", lambda self, x: fault(cdf(self, x), np.asarray(x)))
    with pytest.raises(IntegrationError, match=message):
        ks_distance(EmpiricalMeasure(np.linspace(-2.0, 2.0, 41)), Semicircle())


def test_cdf_mass_below_stated_regime():
    # for d < k the fixed-(d,k) density carries d/k of the mass
    assert certified_cdf(HyperFixed(2, 3), 2.0) == pytest.approx(2 / 3, abs=1e-12)


def test_hypergraph_demo_runs():
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "hypergraph_spectra.py")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "KS to the fixed-(d,k) law" in proc.stdout and "alpha = 1 law" in proc.stdout


def test_km_requires_d3():
    with pytest.raises(DomainError):
        KestenMcKay(2)


@pytest.mark.parametrize("d, k", [(1, 3), (3, 1)])
def test_hyperfixed_requires_d_and_k_at_least_2(d, k):
    with pytest.raises(DomainError, match="d >= 2 and k >= 2"):
        HyperFixed(d, k)


def test_hyperalpha_certified_at_its_bound_and_rejected_above():
    assert ALPHA_MAX == pytest.approx(2.03e7, rel=1e-3)
    # clustered samples: the closed form's rounding shows as decreases between near neighbours
    base = np.random.default_rng(3).uniform(-2.0, 2.0, 2000)
    xs = np.sort(np.concatenate([base + delta for delta in (0.0, 1e-15, 1e-14, 1e-13, 1e-12)]))
    ks_distance(EmpiricalMeasure(xs), HyperAlpha(ALPHA_MAX))  # certified, else IntegrationError
    # the same samples break the certificate at alpha = 1e10, built past the check
    law = object.__new__(HyperAlpha)
    object.__setattr__(law, "alpha", 1e10)
    assert -np.min(np.diff(law.cdf(xs))) > CDF_CERT_TOL
    for alpha in (np.nextafter(ALPHA_MAX, np.inf), 1e25, 1e300, math.inf):
        with pytest.raises(DomainError, match="exceeds"):
            HyperAlpha(alpha)


def test_hyperalpha_rejects_alpha_below_one():
    for alpha in (0.5, np.nextafter(1.0, 0.0), 0.0, -1.0, math.nan):
        with pytest.raises(DomainError, match="alpha >= 1 regime"):
            HyperAlpha(alpha)


def test_ks_of_plugin_quantiles():
    model = Semicircle()
    m = 50
    qs = [model_quantile(model, (i - 0.5) / m) for i in range(1, m + 1)]
    ks = ks_distance(EmpiricalMeasure(np.asarray(qs)), model)
    assert ks <= 1 / (2 * m) + 1e-6


def test_ks_point_mass_at_zero_vs_semicircle():
    ks = ks_distance(EmpiricalMeasure(np.zeros(1)), Semicircle())
    assert ks == pytest.approx(0.5, abs=1e-9)


def test_ks_in_unit_interval_and_tie_invariant():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-2, 2, size=200)
    ks1 = ks_distance(EmpiricalMeasure(xs), Semicircle())
    assert 0.0 <= ks1 <= 1.0
    # duplicating every sample (zero-weight ties in the sup) leaves KS unchanged
    ks2 = ks_distance(EmpiricalMeasure(np.repeat(xs, 2)), Semicircle())
    assert ks2 == pytest.approx(ks1, abs=1e-9)


def test_projection_modes_and_exclusion():
    g = sample_regular_graph(100, 5, 3)
    spec = full_lifted_spectrum(g)
    m_all = project_real_parts(spec, rescale="none", exclude_trivial=False)
    assert len(m_all) == 2 * g.n
    m = project_real_parts(spec, rescale="none", exclude_trivial=True)
    assert len(m) == 2 * g.n - 2
    # exactly {4, 1} removed for a 5-regular graph
    removed = sorted(np.setdiff1d(np.round(m_all.samples, 9), np.round(m.samples, 9)))
    assert any(abs(r - 1.0) < 1e-6 for r in removed)
    assert any(abs(r - 4.0) < 1e-6 for r in removed)
    # bulk lambda contributes lambda/2 twice
    bulk = spec.lams[spec.lams**2 < 4 * (g.d - 1)]
    lam = bulk[len(bulk) // 2]
    hits = np.sum(np.abs(m.samples - lam / 2) < 1e-12)
    assert hits >= 2


def test_projection_graph_rescale():
    # x -> 2x/sqrt(q), q = (d-1)(k-1): a hypergraph's graph variable uses its own q
    for g, q in ((sample_regular_graph(64, 5, 1), 4), (sample_regular_hypergraph(30, 2, 3, 5), 2)):
        spec = full_lifted_spectrum(g)
        raw = project_real_parts(spec, "none", True).samples
        scaled = project_real_parts(spec, "graph", True).samples
        assert np.allclose(scaled, 2 * raw / math.sqrt(q))


def test_projection_hypergraph_rescale_hits_normalized_adjacency():
    h = sample_regular_hypergraph(30, 2, 3, 5)
    spec = full_lifted_spectrum(h)
    q = (h.d - 1) * (h.k - 1)
    scaled = project_real_parts(spec, "hypergraph", True).samples
    # conjugate-pair real parts map to (lambda - (k-2))/sqrt(q)
    expected = []
    for lam in spec.lams[1:]:
        if (lam - (h.k - 2)) ** 2 <= 4 * q:
            expected.append((lam - (h.k - 2)) / math.sqrt(q))
    for e in expected:
        assert np.min(np.abs(scaled - e)) < 1e-9


def test_projection_rejects_bad_mode():
    g = sample_regular_graph(10, 3, 0)
    spec = full_lifted_spectrum(g)
    with pytest.raises(DomainError):
        project_real_parts(spec, rescale="bogus")
    with pytest.raises(DomainError):
        project_real_parts(spec, rescale="hypergraph")


def test_projection_lambda_d_contributes_trivial_pair():
    g = sample_regular_graph(24, 4, 2)
    spec = full_lifted_spectrum(g)
    m = project_real_parts(spec, "none", False)
    assert np.min(np.abs(m.samples - 3.0)) < 1e-9
    assert np.min(np.abs(m.samples - 1.0)) < 1e-9


def test_consistency_check_k2():
    rep = consistency_check_k2(d_values=(3, 5))
    assert rep["k2_max_deviation"][3] <= 1e-10
    assert rep["k2_max_deviation"][5] <= 1e-10
    # alpha -> infinity convergence is O(1/sqrt(alpha)): ~3.2e-3 at 1e4
    assert rep["alpha_semicircle_deviation"] == pytest.approx(1 / (1e2 * math.pi), rel=0.05)
    rep6 = consistency_check_k2(d_values=(3,), alpha=1e6)
    assert rep6["alpha_semicircle_deviation"] <= 1e-3


def test_hyperalpha_limit_matches_rate():
    ys = np.linspace(-2, 2, 401)
    for alpha in (1e4, 1e6):
        dev = float(np.max(np.abs(HyperAlpha(alpha).pdf(ys) - Semicircle().pdf(ys))))
        assert dev == pytest.approx(1 / (math.sqrt(alpha) * math.pi), rel=0.05)


def test_histogram_freedman_diaconis_default():
    rng = np.random.default_rng(1)
    m = EmpiricalMeasure(rng.normal(size=500))
    edges, counts, dens = histogram(m)
    assert counts.sum() == 500
    widths = np.diff(edges)
    assert np.allclose((dens * widths * 500), counts)
    edges2, counts2, _ = histogram(m, bins=20)
    assert len(counts2) == 20


def test_ks_of_an_empty_measure_is_a_domain_error():
    # a ValueError to API callers, and exit 2 in the CLI
    with pytest.raises(DomainError, match="empty empirical measure"):
        ks_distance(EmpiricalMeasure(np.empty(0)), KestenMcKay(3))
