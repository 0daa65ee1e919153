"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Stochastic criteria run at pinned seeds; tolerances are fixed here, not
configurable. Criterion 1's instance corpus is computed once (threaded) and
shared with criterion 6.
"""

import math
import time
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from nbspectra.cli import main as cli_main
from nbspectra.graphs import sample_regular_graph, sample_regular_hypergraph, sample_rsbm
from nbspectra.measures import (
    EmpiricalMeasure,
    HyperAlpha,
    HyperFixed,
    KestenMcKay,
    Semicircle,
    consistency_check_k2,
    ks_distance,
    project_real_parts,
)
from nbspectra.operators import reduced_nb_matrix
from nbspectra.rsbm import deterministic_sigma_eigenpair, insider_gap_report, recover_communities
from nbspectra.seeds import Seed
from nbspectra.spectral import full_lifted_spectrum, spectrum_audit
from nbspectra.verify import ihara_bass_report

from conftest import named_graph
from oracles import charpoly_roots, multiset_match_distance

MASTER = Seed(20260809)
TRIALS_PER_CONFIG = 50
GRAPH_CONFIGS = [(n, d) for n in (50, 200, 1000) for d in (3, 4, 5)]
HYPER_CONFIGS = [(60, 2, 3), (90, 3, 3), (120, 4, 3)]


def _report(num, name: str, ok: bool, detail: str = "") -> None:
    print(f"[acceptance] criterion {num} ({name}): {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"criterion {num} ({name}) failed: {detail}"


def _audit_one(job):
    cfg_index, trial, cfg = job
    seed = MASTER.trial(cfg_index * 1000 + trial)
    if len(cfg) == 2:
        g = sample_regular_graph(cfg[0], cfg[1], seed)
    else:
        g = sample_regular_hypergraph(cfg[0], cfg[1], cfg[2], seed)
    return spectrum_audit(g, keep_records=False)


@pytest.fixture(scope="module")
def identity_corpus():
    """All criterion-1 instances audited; reused by criterion 6."""
    jobs = [
        (ci, t, cfg)
        for ci, cfg in enumerate(GRAPH_CONFIGS + HYPER_CONFIGS)
        for t in range(TRIALS_PER_CONFIG)
    ]
    start = time.perf_counter()
    with ThreadPoolExecutor(max_workers=2) as pool:
        audits = list(pool.map(_audit_one, jobs))
    elapsed = time.perf_counter() - start
    return audits, elapsed


def test_criterion_1_exact_identity_suite(identity_corpus):
    audits, elapsed = identity_corpus
    assert len(audits) == TRIALS_PER_CONFIG * (len(GRAPH_CONFIGS) + len(HYPER_CONFIGS))
    worst = {
        "vieta_sum": max(a.vieta_sum_err for a in audits),
        "vieta_prod": max(a.vieta_prod_err for a in audits),
        "circle": max(a.circle_err for a in audits),
        "resid_u": max(a.resid_u_max for a in audits),
        "resid_w": max(a.resid_w_max for a in audits),
        "norm": max(a.norm_paper_err for a in audits),
    }
    violations = sum(a.ratio_mono_violations + a.bound_violations for a in audits)
    ok = (
        worst["vieta_sum"] <= 1e-10
        and worst["vieta_prod"] <= 1e-10
        and worst["circle"] <= 1e-10
        and worst["resid_u"] <= 1e-9
        and worst["resid_w"] <= 1e-9
        and worst["norm"] <= 1e-8
        and violations == 0
        and elapsed <= 120.0
    )
    detail = (
        f"600 instances in {elapsed:.1f}s; worst: vieta=({worst['vieta_sum']:.1e},"
        f"{worst['vieta_prod']:.1e}) circle={worst['circle']:.1e} resid=({worst['resid_u']:.1e},"
        f"{worst['resid_w']:.1e}) norm={worst['norm']:.1e} violations={violations}"
    )
    _report(1, "exact identities", ok, detail)


def test_criterion_2_brute_force_oracle():
    start = time.perf_counter()
    names = ["C3", "C4", "K4", "K33", "prism", "cube"]
    corpus = [named_graph(n) for n in names] + [sample_regular_graph(8, 3, MASTER.trial(999))]
    worst_match = 0.0
    all_ok = True
    for g in corpus:
        assert g.n * g.d <= 24
        spec = full_lifted_spectrum(g)
        roots = charpoly_roots(reduced_nb_matrix(g).astype(int))
        worst_match = max(worst_match, multiset_match_distance(spec.eigenvalues(), roots))
        records, ok = ihara_bass_report(g, trials=8, seed=5)
        all_ok = all_ok and ok
        all_ok = all_ok and all(
            r.mag_err <= 1e-8 * (1 + abs(r.lhs.log_abs)) and r.phase_err <= 1e-8 for r in records
        )
    elapsed = time.perf_counter() - start
    ok = worst_match <= 1e-8 and all_ok and elapsed <= 10.0
    _report(2, "brute-force oracle", ok, f"max multiset distance {worst_match:.2e}, {elapsed:.1f}s")


def _median_ks(sampler, law, rescale, n_seeds, seed_base):
    values = []
    for i in range(n_seeds):
        g = sampler(MASTER.trial(seed_base + i))
        spec = full_lifted_spectrum(g)
        m = project_real_parts(spec, rescale=rescale, exclude_trivial=True)
        values.append(ks_distance(m, law))
    return float(np.median(values)), values


def test_criterion_3_kesten_mckay_projection():
    start = time.perf_counter()
    med, vals = _median_ks(
        lambda s: sample_regular_graph(2000, 5, s), KestenMcKay(5), "none", 5, 31000
    )
    elapsed = time.perf_counter() - start
    ok = med <= 0.06 and elapsed <= 60.0
    _report(3, "Kesten-McKay projection", ok, f"median KS {med:.4f} over {vals}, {elapsed:.1f}s")


def test_criterion_4_semicircle_projection():
    med, vals = _median_ks(
        lambda s: sample_regular_graph(2000, 40, s), Semicircle(), "graph", 5, 41000
    )
    _report(4, "semicircle projection", med <= 0.06, f"median KS {med:.4f} over {vals}")


def test_criterion_5_hypergraph_projections():
    med1, v1 = _median_ks(
        lambda s: sample_regular_hypergraph(900, 3, 3, s), HyperFixed(3, 3), "hypergraph", 5, 51000
    )
    med2, v2 = _median_ks(
        lambda s: sample_regular_hypergraph(1024, 8, 8, s), HyperAlpha(1.0), "hypergraph", 5, 52000
    )
    ok = med1 <= 0.08 and med2 <= 0.10
    _report(
        5,
        "hypergraph projections",
        ok,
        f"fixed-(3,3) median KS {med1:.4f}, alpha=1 median KS {med2:.4f}",
    )


@pytest.mark.xfail(
    strict=True,
    reason="unattainable as stated: max |mu_alpha - mu_sc| = 1/(sqrt(alpha)*pi) "
    "= 3.18e-3 at alpha = 1e4; <= 1e-3 first holds near alpha ~ 1.1e5",
)
def test_criterion_5_alpha_limit_as_stated():
    # The assertion below is the stated tolerance at the stated alpha,
    # unchanged; the closed forms make it fail deterministically. The
    # strict xfail records that fact (and trips if anyone games the check).
    rep = consistency_check_k2(d_values=(3, 5), alpha=1e4)
    k2_ok = max(rep["k2_max_deviation"].values()) <= 1e-10
    # the limit property itself does hold at the rate the formula dictates
    rep_large = consistency_check_k2(d_values=(3,), alpha=1e6)
    assert k2_ok and rep_large["alpha_semicircle_deviation"] <= 1e-3
    dev = rep["alpha_semicircle_deviation"]
    _report(
        5,
        "alpha->infinity check at stated alpha=1e4",
        dev <= 1e-3,
        f"deviation {dev:.2e} (closed-form rate 1/(sqrt(alpha) pi) = {1 / (100 * math.pi):.2e}; "
        f"<= 1e-3 first holds near alpha ~ 1.1e5)",
    )


def test_criterion_6_delocalization(identity_corpus):
    audits, _ = identity_corpus
    mono = sum(a.ratio_mono_violations for a in audits)
    bound = sum(a.bound_violations for a in audits)
    perron = max(a.perron_ratio_err for a in audits)
    ok = mono == 0 and bound == 0 and perron <= 1e-12
    _report(
        6,
        "delocalization bounds",
        ok,
        f"ratio violations {mono}, bound violations {bound}, perron ratio err {perron:.1e}",
    )


def test_criterion_7_rsbm_insider_and_recovery():
    start = time.perf_counter()
    # (a)+(b): exact sigma eigenpair, insider values in spectrum, 10/10 recovery
    exact = 0
    for i in range(10):
        g = sample_rsbm(400, 12, 4, Seed(i))
        lam, _ = deterministic_sigma_eigenpair(g)
        assert lam == 8
        mus = full_lifted_spectrum(g).eigenvalues()
        assert np.min(np.abs(mus - 5.0)) <= 1e-9
        assert np.min(np.abs(mus - 3.0)) <= 1e-9
        if recover_communities(g).exact:
            exact += 1
    # (c): insider gap at n=2000, 3 seeds, specials simple
    max_dev = 0.0
    for i in range(3):
        g = sample_rsbm(2000, 12, 4, Seed(7).trial(i))
        rep = insider_gap_report(g)
        assert rep.specials == (15.0, 1.0, 5.0, 3.0)
        max_dev = max(max_dev, rep.max_circle_deviation)
    elapsed = time.perf_counter() - start
    ok = exact == 10 and max_dev <= 0.15 and elapsed <= 120.0
    _report(
        7,
        "RSBM insider + recovery",
        ok,
        f"recovery {exact}/10, insider max deviation {max_dev:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_reproducibility(tmp_path):
    def pipeline(tag: str):
        g = tmp_path / f"g{tag}.json"
        s = tmp_path / f"s{tag}.json"
        h = tmp_path / f"h{tag}.csv"
        kk = tmp_path / f"k{tag}.json"
        v = tmp_path / f"v{tag}.json"
        r = tmp_path / f"r{tag}.json"
        assert cli_main(["gen", "--model", "regular", "--n", "2000", "--d", "5", "--seed", "7", "--out", str(g)]) == 0
        assert cli_main(["spectrum", "--in", str(g), "--out", str(s)]) == 0
        assert cli_main(["project", "--in", str(s), "--rescale", "none", "--exclude-trivial", "--out", str(h)]) == 0
        assert cli_main(["ks", "--in", str(s), "--law", "km", "--out", str(kk)]) == 0
        kg = tmp_path / f"kg{tag}.json"
        assert cli_main(["gen", "--model", "regular", "--n", "4", "--d", "3", "--seed", "0", "--out", str(kg)]) == 0
        assert cli_main(["verify", "--in", str(kg), "--trials", "8", "--seed", "1", "--out", str(v)]) == 0
        assert cli_main(["rsbm-recover", "--n", "400", "--d1", "12", "--d2", "4", "--seed", "0", "--trials", "3", "--out", str(r)]) == 0
        return tuple(p.read_bytes() for p in (g, s, h, kk, v, r))

    first = pipeline("1")
    second = pipeline("2")
    ok = first == second
    _report(8, "reproducibility", ok, "byte-identical outputs across reruns of every command")
