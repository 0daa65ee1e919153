import json
import math
import re
import threading
from pathlib import Path

import numpy as np
import pytest

import nbspectra.cli
import nbspectra.errors
import nbspectra.graphs
import nbspectra.io
import nbspectra.measures
import nbspectra.operators
import nbspectra.rsbm
import nbspectra.spectral
import nbspectra.verify
from nbspectra.cli import main, parse_complex
from nbspectra.seeds import Seed

from conftest import fresh_python


def run(args):
    return main(args)


def test_gen_regular(tmp_path, capsys):
    out = tmp_path / "g.json"
    assert run(["gen", "--model", "regular", "--n", "50", "--d", "3", "--seed", "7", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["model"] == "regular" and doc["n"] == 50 and doc["d"] == 3


def test_gen_parity_error_exits_2(tmp_path, capsys):
    assert run(["gen", "--model", "regular", "--n", "5", "--d", "3"]) == 2
    assert "ParityError" in capsys.readouterr().err


def test_gen_missing_flags_exit_2():
    assert run(["gen", "--model", "hypergraph", "--n", "9", "--d", "2"]) == 2
    assert run(["gen", "--model", "rsbm", "--n", "8"]) == 2


def test_unknown_flag_exits_2(capsys):
    assert run(["gen", "--model", "regular", "--n", "10", "--d", "3", "--frobnicate"]) == 2


def test_unknown_command_exits_2():
    assert run(["transmogrify"]) == 2


#: each count option, with the rest of a valid command line before it
COUNT_OPTIONS = {
    "rsbm-recover": ["rsbm-recover", "--n", "16", "--d1", "2", "--d2", "1", "--trials"],
    "verify": ["verify", "--in", "{g}", "--trials"],
    "project": ["project", "--in", "{s}", "--out", "{h}", "--bins"],
}


@pytest.mark.parametrize(
    "command, value",
    [("rsbm-recover", "0"), ("rsbm-recover", "-2"), ("verify", "0"), ("verify", "-1"), ("project", "0"), ("project", "-3")],
)
def test_count_below_one_rejected_by_parser(tmp_path, capsys, command, value):
    files = {"g": str(tmp_path / "g.json"), "s": str(tmp_path / "s.json"), "h": str(tmp_path / "h.csv")}
    assert run(["gen", "--model", "regular", "--n", "10", "--d", "3", "--out", files["g"]]) == 0
    assert run(["spectrum", "--in", files["g"], "--out", files["s"]]) == 0
    capsys.readouterr()
    assert run([a.format(**files) for a in COUNT_OPTIONS[command]] + [value]) == 2
    assert "must be a positive integer" in capsys.readouterr().err
    assert not (tmp_path / "h.csv").exists()


#: each --seed option, with the rest of a valid command line before it
SEED_OPTIONS = {
    "gen": ["gen", "--model", "regular", "--n", "10", "--d", "3", "--out", "{o}", "--seed"],
    "verify": ["verify", "--in", "{g}", "--trials", "2", "--out", "{o}", "--seed"],
    "rsbm-recover": ["rsbm-recover", "--n", "40", "--d1", "8", "--d2", "1", "--out", "{o}", "--seed"],
}


@pytest.mark.parametrize(
    "command, value",
    [("gen", "-1"), ("gen", str(2**64)), ("verify", "-2"), ("verify", str(2**64)), ("rsbm-recover", "-4")],
)
def test_seed_out_of_range_rejected_by_parser(tmp_path, capsys, command, value):
    files = {"g": str(tmp_path / "g.json"), "o": str(tmp_path / "o.json")}
    assert run(["gen", "--model", "regular", "--n", "10", "--d", "3", "--out", files["g"]]) == 0
    capsys.readouterr()
    assert run([a.format(**files) for a in SEED_OPTIONS[command]] + [value]) == 2
    assert "seed must be a 64-bit unsigned integer" in capsys.readouterr().err
    assert not (tmp_path / "o.json").exists()


def test_seed_range_ends_accepted(capsys):
    for seed in ("0", str(2**64 - 1)):
        assert run(["gen", "--model", "regular", "--n", "10", "--d", "3", "--seed", seed]) == 0


def test_gen_writes_stdout_without_out(capsys):
    assert run(["gen", "--model", "regular", "--n", "10", "--d", "3", "--seed", "1"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["n"] == 10


def test_spectrum_project_ks_pipeline(tmp_path, capsys):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    h = tmp_path / "h.csv"
    r = tmp_path / "ks.json"
    assert run(["gen", "--model", "regular", "--n", "200", "--d", "5", "--seed", "3", "--out", str(g)]) == 0
    assert run(["spectrum", "--in", str(g), "--out", str(s)]) == 0
    spec_doc = json.loads(s.read_text())
    assert len(spec_doc["pairs"]) == 200
    assert run(["project", "--in", str(s), "--rescale", "none", "--exclude-trivial", "--bins", "31", "--out", str(h)]) == 0
    lines = h.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count,density"
    assert sum(int(x.split(",")[2]) for x in lines[1:]) == 398
    assert run(["ks", "--in", str(s), "--law", "km", "--out", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert rep["pass"] and rep["ks"] <= 0.06
    assert rep["n_samples"] == 398


def test_ks_threshold_failure_exits_1(tmp_path):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "regular", "--n", "100", "--d", "5", "--seed", "3", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    assert run(["ks", "--in", str(s), "--law", "km", "--threshold", "0.0001"]) == 1


@pytest.mark.parametrize("value", ["nan", "-1", "inf", "-0.5"])
def test_ks_threshold_must_be_finite_and_nonnegative(tmp_path, capsys, value):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "regular", "--n", "30", "--d", "3", "--seed", "3", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    capsys.readouterr()
    assert run(["ks", "--in", str(s), "--law", "km", "--threshold", value, "--out", str(tmp_path / "k.json")]) == 2
    assert "must be a finite number >= 0" in capsys.readouterr().err
    assert not (tmp_path / "k.json").exists()


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "0", "-1"])
def test_ks_alpha_must_be_finite_and_positive(tmp_path, capsys, value):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "hypergraph", "--n", "30", "--d", "3", "--k", "3", "--seed", "1", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    capsys.readouterr()
    k = tmp_path / "k.json"
    assert run(["ks", "--in", str(s), "--law", "hyperalpha", f"--alpha={value}", "--out", str(k)]) == 2
    assert "must be a finite number > 0" in capsys.readouterr().err
    assert not k.exists()


def test_project_bins_above_sample_count_exits_2(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    h = tmp_path / "h.csv"
    run(["gen", "--model", "regular", "--n", "30", "--d", "3", "--seed", "3", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    # 2n = 60 samples, 58 once the trivial pair is left out
    assert run(["project", "--in", str(s), "--exclude-trivial", "--bins", "58", "--out", str(h)]) == 0
    assert len(h.read_text().splitlines()) == 1 + 58
    h.unlink()

    def no_histogram(*args, **kw):
        raise AssertionError("histogram ran")

    monkeypatch.setattr(nbspectra.io, "histogram", no_histogram)
    capsys.readouterr()
    for bins in ("59", "100000000"):
        assert run(["project", "--in", str(s), "--exclude-trivial", "--bins", bins, "--out", str(h)]) == 2
        assert f"--bins {bins} exceeds the 58 projected samples" in capsys.readouterr().err
        assert not h.exists()


def test_ks_hyperalpha_requires_alpha(tmp_path):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "hypergraph", "--n", "30", "--d", "2", "--k", "3", "--seed", "1", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    assert run(["ks", "--in", str(s), "--law", "hyperalpha"]) == 2
    with pytest.warns(UserWarning, match="outside the stated"):
        assert run(["ks", "--in", str(s), "--law", "hyperalpha", "--alpha", "0.67", "--threshold", "0.9"]) == 0


def test_ks_alpha_at_and_above_its_bound(tmp_path, capsys):
    # the closed form is certified up to ALPHA_MAX; 1e30 and 1e300 exited 3 (IntegrationError) before
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "hypergraph", "--n", "30", "--d", "3", "--k", "3", "--seed", "1", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    top = repr(nbspectra.measures.ALPHA_MAX)
    assert run(["ks", "--in", str(s), "--law", "hyperalpha", "--alpha", top, "--threshold", "1"]) == 0
    for value in (repr(math.nextafter(nbspectra.measures.ALPHA_MAX, math.inf)), "1e30", "1e300"):
        capsys.readouterr()
        k = tmp_path / "k.json"
        assert run(["ks", "--in", str(s), "--law", "hyperalpha", "--alpha", value, "--out", str(k)]) == 2
        assert "DomainError" in capsys.readouterr().err and not k.exists()


def test_deloc_command(tmp_path):
    g = tmp_path / "g.json"
    r = tmp_path / "deloc.json"
    run(["gen", "--model", "regular", "--n", "60", "--d", "4", "--seed", "5", "--out", str(g)])
    assert run(["deloc", "--in", str(g), "--out", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert rep["bound_violations"] == 0
    assert rep["ratio_monotonicity_violations"] == 0
    assert len(rep["records"]) == 120


def test_deloc_eigenvalue_next_to_minus_d(tmp_path, monkeypatch):
    # an adjacency eigenvalue 9.2e-10 above -d: the bound there is large but
    # finite, and the w-lift still meets its residual tolerance
    g = tmp_path / "h.json"
    r = tmp_path / "deloc.json"
    run(["gen", "--model", "hypergraph", "--n", "900", "--d", "3", "--k", "3", "--seed", "907061070", "--out", str(g)])
    audits = []
    audit = nbspectra.cli.spectrum_audit
    monkeypatch.setattr(nbspectra.cli, "spectrum_audit", lambda h: audits.append(audit(h)) or audits[-1])
    assert run(["deloc", "--in", str(g), "--out", str(r)]) == 0
    rep = json.loads(r.read_text())
    assert rep["bound_violations"] == rep["ratio_monotonicity_violations"] == 0
    lams = [rec["lambda"] for rec in rep["records"]]
    assert min(lams) + 3.0 < 1e-9
    assert audits[0].resid_w_max <= 1e-9


@pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="known defect (ROADMAP item 6): lambda_min + d = 8.6e-13 and the w-lift's relative residual reads "
    "9.45e-9 against its 1e-9 tolerance, so deloc exits 1 on a valid sample",
)
def test_deloc_passes_near_edge_hypergraph(tmp_path, capsys):
    # the data, not the rounding: ||Av - lambda v|| = 6.6e-15, but ||w|| = 3.9e-6
    g, r = tmp_path / "h.json", tmp_path / "deloc.json"
    run(["gen", "--model", "hypergraph", "--n", "900", "--d", "3", "--k", "3", "--seed", "1732846562", "--out", str(g)])
    code = run(["deloc", "--in", str(g), "--out", str(r)])
    json.loads(r.read_text())  # the report is written whatever the exit code
    assert code == 0, capsys.readouterr().err


def test_deloc_records_match_per_eigenvector_lifts(tmp_path):
    # the per-eigenvector loop the audit's arrays replaced: each w lifted on
    # its own. (60,2,3) has d < k, so lambda = -d lifts to the trivial
    # mu' = -(k-1); the RSBM's outliers lift to real roots off the bulk circle.
    # null falls exactly on trivial or zero lifts (ratio_w) and, besides, on
    # off-bulk lifts (bound, bound_ok)
    cases = [
        (["--model", "hypergraph", "--n", "60", "--d", "2", "--k", "3", "--seed", "1"], 3),
        (["--model", "rsbm", "--n", "40", "--d1", "4", "--d2", "2", "--seed", "2"], 2),
    ]
    for args, k in cases:
        g, r = tmp_path / "g.json", tmp_path / "deloc.json"
        run(["gen", *args, "--out", str(g)])
        assert run(["deloc", "--in", str(g), "--out", str(r)]) == 0
        doc = json.loads(r.read_text())
        graph = nbspectra.io.read_graph(g)
        index = nbspectra.operators.oriented_index(nbspectra.operators.underlying_graph(graph))
        spec = nbspectra.spectral.full_lifted_spectrum(graph)
        d, q = doc["d"], (doc["d"] - 1) * (k - 1)
        nulls = {"ratio_w": 0, "bound": 0}
        for rec, v in zip(doc["records"], np.concatenate([spec.V, spec.V], axis=1).T):
            lam, mu = rec["lambda"], complex(rec["mu_re"], rec["mu_im"])
            try:
                w = nbspectra.spectral.lift_eigenvector_nb(v, mu, index)
            except (nbspectra.errors.TrivialEigenvalueError, nbspectra.errors.ZeroVectorError):
                w = None
            off_bulk = (lam - (k - 2)) ** 2 > 4 * q
            assert (rec["ratio_w"] is None) == (w is None)
            assert (rec["bound"] is None) == (rec["bound_ok"] is None) == (w is None or off_bulk)
            if w is not None:
                assert rec["ratio_w"] == pytest.approx(np.max(np.abs(w)) / np.linalg.norm(w), rel=1e-12)
            if rec["bound"] is not None:
                assert rec["bound"] == nbspectra.spectral.deterministic_deloc_bound(lam, mu, d, k, rec["ratio_v"])
                assert rec["bound_ok"] is (rec["ratio_w"] <= rec["bound"] + 1e-12) is True
            nulls["ratio_w"] += rec["ratio_w"] is None
            nulls["bound"] += rec["bound"] is None
        assert 0 < nulls["ratio_w"] < nulls["bound"] < len(doc["records"])


def _acceptance_literals() -> dict:
    """{audit field: tolerance} as the acceptance suite states them."""
    text = (Path(__file__).parent / "test_acceptance.py").read_text()
    fields = dict(re.findall(r'"(\w+)": max\(a\.(\w+) for a in audits\)', text))
    limits = {fields[key]: float(tol) for key, tol in re.findall(r'worst\["(\w+)"\] <= ([\de.-]+)', text)}
    limits["perron_ratio_err"] = float(re.search(r"perron <= ([\de.-]+)", text).group(1))
    return limits


def test_audit_tolerances_no_looser_than_acceptance():
    literals = _acceptance_literals()
    assert len(literals) == 7 and set(literals) == set(nbspectra.spectral.AUDIT_TOLS)
    for name, tol in nbspectra.spectral.AUDIT_TOLS.items():
        assert tol <= literals[name], name


def test_deloc_exits_1_on_w_residual_over_tolerance(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    r = tmp_path / "deloc.json"
    run(["gen", "--model", "regular", "--n", "60", "--d", "4", "--seed", "5", "--out", str(g)])
    assert run(["deloc", "--in", str(g), "--out", str(r)]) == 0
    clean = r.read_bytes()
    assert "worst certificate" in capsys.readouterr().err
    stats = nbspectra.spectral._w_row_stats

    def inflated(*args):
        wnorm, winf, resid = stats(*args)
        return wnorm, winf, resid + 3e-9 * wnorm  # a relative w-residual of 3e-9, over 1e-9

    monkeypatch.setattr(nbspectra.spectral, "_w_row_stats", inflated)
    assert run(["deloc", "--in", str(g), "--out", str(r)]) == 1
    err = capsys.readouterr().err
    assert "0 violation(s)" in err and re.search(r"worst certificate resid_w_max = 3\.00e-09, 3\.00e\+00 of tolerance", err)
    assert r.read_bytes() == clean  # the headroom goes to stderr, never into --out


def test_verify_command(tmp_path):
    g = tmp_path / "g.json"
    run(["gen", "--model", "regular", "--n", "10", "--d", "3", "--seed", "5", "--out", str(g)])
    assert run(["verify", "--in", str(g), "--trials", "8", "--seed", "2"]) == 0


def test_verify_explicit_z(tmp_path, capsys):
    g = tmp_path / "g.json"
    run(["gen", "--model", "regular", "--n", "4", "--d", "3", "--out", str(g)])
    assert run(["verify", "--in", str(g), "--z", "0.3+0.4i"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["trials"] == 1 and doc["all_ok"]


def test_verify_guards_every_z_before_factoring(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    run(["gen", "--model", "regular", "--n", "4", "--d", "3", "--out", str(g)])
    calls = []
    original = nbspectra.verify.logdet

    def counted(M):
        calls.append(1)
        return original(M)

    monkeypatch.setattr(nbspectra.verify, "logdet", counted)
    assert run(["verify", "--in", str(g), "--z", "0.3+0.4i", "--z", "1.0"]) == 2
    assert "NearSingularError" in capsys.readouterr().err
    assert calls == []


@pytest.mark.parametrize("z", ["nan+0i", "-nan-2i", "1e400", "1-1e400i"])
def test_verify_non_finite_z_rejected_by_parser(tmp_path, capsys, monkeypatch, z):
    g = tmp_path / "g.json"
    run(["gen", "--model", "regular", "--n", "4", "--d", "3", "--out", str(g)])
    capsys.readouterr()
    calls = []
    monkeypatch.setattr(nbspectra.verify, "logdet", lambda M: calls.append(1))
    assert run(["verify", "--in", str(g), f"--z={z}"]) == 2
    assert "is not finite" in capsys.readouterr().err
    assert calls == []


def test_cli_import_leaves_out_scipy_optimize():
    code = "import sys, nbspectra.cli; print('scipy.optimize' in sys.modules)"
    assert fresh_python(code).strip() == "False"


def test_gen_project_ks_leave_out_scipy(tmp_path):
    # the spectrum is written here, as `spectrum` factors with scipy
    s = tmp_path / "s.json"
    run(["gen", "--model", "hypergraph", "--n", "30", "--d", "2", "--k", "3", "--seed", "1", "--out", str(tmp_path / "h.json")])
    assert run(["spectrum", "--in", str(tmp_path / "h.json"), "--out", str(s)]) == 0
    code = """
import sys, nbspectra, nbspectra.cli
out, s = sys.argv[1:]
main = nbspectra.cli.main
codes = [
    main(["gen", "--model", "regular", "--n", "30", "--d", "3", "--out", out + "/g.json"]),
    main(["gen", "--model", "hypergraph", "--n", "30", "--d", "2", "--k", "3", "--out", out + "/h.json"]),
    main(["gen", "--model", "rsbm", "--n", "40", "--d1", "8", "--d2", "1", "--out", out + "/r.json"]),
    main(["project", "--in", s, "--exclude-trivial", "--out", out + "/p.csv"]),
    main(["ks", "--in", s, "--law", "hyperfixed", "--threshold", "1", "--out", out + "/k.json"]),
]
print(codes, sorted(m for m in sys.modules if m.split(".")[0] == "scipy"))
"""
    assert fresh_python(code, str(tmp_path), str(s)).strip() == "[0, 0, 0, 0, 0] []"
    assert all((tmp_path / f).exists() for f in ("g.json", "r.json", "p.csv", "k.json"))


def test_verify_computes_spectrum_once(tmp_path, monkeypatch):
    g = tmp_path / "g.json"
    run(["gen", "--model", "regular", "--n", "12", "--d", "3", "--seed", "4", "--out", str(g)])
    calls = []
    original = nbspectra.verify.full_lifted_spectrum

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(nbspectra.verify, "full_lifted_spectrum", counted)
    assert run(["verify", "--in", str(g), "--trials", "4", "--seed", "1"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert run(["verify", "--in", str(g), "--z", "0.3+0.4i", "--z=-1.1+0.2i"]) == 0
    assert len(calls) == 1


def test_verify_stderr_headroom(tmp_path, capsys):
    g = tmp_path / "g.json"
    v = tmp_path / "v.json"
    run(["gen", "--model", "regular", "--n", "12", "--d", "3", "--seed", "4", "--out", str(g)])
    capsys.readouterr()
    assert run(["verify", "--in", str(g), "--trials", "4", "--seed", "1", "--out", str(v)]) == 0
    err = capsys.readouterr().err
    m = re.search(
        r"4/4 z-points pass; worst log\|det\| error (\S+) of tolerance at z=(\S+); "
        r"worst phase error (\S+) of tolerance at z=(\S+)\n",
        err,
    )
    assert m, err
    records = json.loads(v.read_text())["records"]
    worst_mag = max(records, key=lambda r: r["mag_err"] / (1.0 + abs(r["lhs_logabs"])))
    worst_phase = max(records, key=lambda r: r["phase_err"])
    mag_ratio = worst_mag["mag_err"] / (1e-8 * (1.0 + abs(worst_mag["lhs_logabs"])))
    assert float(m[1]) == pytest.approx(mag_ratio, rel=1e-2, abs=1e-12)
    assert parse_complex(m[2]) == complex(worst_mag["z_re"], worst_mag["z_im"])
    assert float(m[3]) == pytest.approx(worst_phase["phase_err"] / 1e-8, rel=1e-2, abs=1e-12)
    assert parse_complex(m[4]) == complex(worst_phase["z_re"], worst_phase["z_im"])
    assert max(float(m[1]), float(m[3])) <= 1.0
    # the --out document keeps its fields
    assert set(records[0]) == {
        "z_re", "z_im", "lhs_logabs", "rhs_logabs", "lhs_phase", "rhs_phase", "mag_err", "phase_err", "pass"
    }


def test_verify_hypergraph(tmp_path):
    g = tmp_path / "h.json"
    run(["gen", "--model", "hypergraph", "--n", "9", "--d", "2", "--k", "3", "--seed", "1", "--out", str(g)])
    assert run(["verify", "--in", str(g), "--trials", "4", "--seed", "0"]) == 0


def test_rsbm_recover_command(tmp_path, capsys):
    r = tmp_path / "rec.json"
    code = run(["rsbm-recover", "--n", "100", "--d1", "8", "--d2", "1", "--seed", "0", "--trials", "3", "--out", str(r)])
    assert code == 0
    assert "exact: 3/3" in capsys.readouterr().err
    rep = json.loads(r.read_text())
    assert rep["exact_trials"] == 3
    assert rep["mu2"] == pytest.approx(5.561552812808830)


def test_rsbm_recover_runs_trials_in_calling_thread_in_order(monkeypatch):
    calls = []
    sample = nbspectra.cli.sample_rsbm

    def spy(n, d1, d2, seed):
        calls.append((threading.get_ident(), seed))
        return sample(n, d1, d2, seed)

    monkeypatch.setattr(nbspectra.cli, "sample_rsbm", spy)
    assert run(["rsbm-recover", "--n", "40", "--d1", "8", "--d2", "1", "--seed", "3", "--trials", "4"]) == 0
    assert calls == [(threading.get_ident(), Seed(3).trial(i)) for i in range(4)]


def test_rsbm_recover_non_detectable_exits_2():
    assert run(["rsbm-recover", "--n", "40", "--d1", "4", "--d2", "2", "--trials", "1"]) == 2


# Declared internal errors, injected, each exit 3. eigsh returns the Ritz
# values beyond the bulk edge 2 sqrt(8) ascending, as many as the inertia count
# finds, at least d1-d2 = 7 and the Perron 9 for (d1, d2) = (8, 1). The
# orthonormality case puts a copy of the second pair in the first's place.
@pytest.mark.parametrize(
    "corrupt, message",
    [
        (lambda vals, vecs: (vals + 1e-6, vecs), "eigen-residual"),
        (lambda vals, vecs: (vals[np.r_[1, 1 : len(vals)]], vecs[:, np.r_[1, 1 : len(vals)]]), "orthonormality defect"),
        (lambda vals, vecs: (vals[1:], vecs[:, 1:]), "Ritz pairs for an inertia count of"),
    ],
    ids=["residual", "orthonormality", "inertia"],
)
def test_rsbm_recover_convergence_error_exits_3(tmp_path, capsys, monkeypatch, corrupt, message):
    eigsh = nbspectra.spectral.eigsh
    monkeypatch.setattr(nbspectra.spectral, "eigsh", lambda A, **kw: corrupt(*eigsh(A, **kw)))
    assert run(["rsbm-recover", "--n", "100", "--d1", "8", "--d2", "1", "--trials", "2", "--out", str(tmp_path / "r.json")]) == 3
    err = capsys.readouterr().err
    assert "ConvergenceError" in err and message in err


def test_rsbm_recover_ambiguity_error_exits_3(tmp_path, capsys, monkeypatch):
    outlier_eigs = nbspectra.rsbm.outlier_eigs

    def near_tie(A, edge, side):
        vals, V, residuals = outlier_eigs(A, edge, side)  # [Perron, target, ...]
        return np.append(vals[:2], vals[1] - 1e-7), V[:, [0, 1, 1]], residuals[[0, 1, 1]]

    monkeypatch.setattr(nbspectra.rsbm, "outlier_eigs", near_tie)
    assert run(["rsbm-recover", "--n", "100", "--d1", "8", "--d2", "1", "--trials", "2", "--out", str(tmp_path / "r.json")]) == 3
    assert "AmbiguityError" in capsys.readouterr().err


def test_gen_retry_exhausted_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(nbspectra.graphs, "MAX_RESTARTS", 0)
    assert run(["gen", "--model", "regular", "--n", "10", "--d", "3"]) == 3
    assert "RetryExhausted" in capsys.readouterr().err


def test_ks_integration_error_exits_3(tmp_path, capsys, monkeypatch):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "regular", "--n", "30", "--d", "3", "--seed", "1", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    # a closed-form primitive gone non-finite fails the CDF certificate
    monkeypatch.setattr(nbspectra.measures, "_pole_integral", lambda c, r, x: np.full(np.shape(x), np.nan))
    assert run(["ks", "--in", str(s), "--law", "km"]) == 3
    assert "IntegrationError" in capsys.readouterr().err


def test_ks_sample_next_to_support_edge(tmp_path):
    # an adjacency eigenvalue 8.6e-13 above -d puts a sample next to the
    # edge where the fixed-(3,3) density has its 1/sqrt(x+2) singularity
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    r = tmp_path / "ks.json"
    assert run(["gen", "--model", "hypergraph", "--n", "900", "--d", "3", "--k", "3", "--seed", "1732846562", "--out", str(g)]) == 0
    assert run(["spectrum", "--in", str(g), "--out", str(s)]) == 0
    assert run(["ks", "--in", str(s), "--law", "hyperfixed", "--out", str(r)]) == 0
    assert json.loads(r.read_text())["ks"] <= 0.08


def test_ks_corrupt_spectrum_exits_2(tmp_path, capsys):
    g = tmp_path / "g.json"
    s = tmp_path / "s.json"
    run(["gen", "--model", "regular", "--n", "200", "--d", "3", "--seed", "1", "--out", str(g)])
    run(["spectrum", "--in", str(g), "--out", str(s)])
    doc = json.loads(s.read_text())
    doc["pairs"] = doc["pairs"][:50]
    doc["pairs"][7]["mu_re"] = float("nan")
    s.write_text(json.dumps(doc))
    capsys.readouterr()
    assert run(["ks", "--in", str(s), "--law", "km"]) == 2
    assert "InvariantError" in capsys.readouterr().err


def test_missing_input_file_exits_2(tmp_path):
    assert run(["spectrum", "--in", str(tmp_path / "nope.json"), "--out", str(tmp_path / "s.json")]) == 2


def test_reproducibility_byte_identical(tmp_path):
    outs = []
    for tag in ("x", "y"):
        g = tmp_path / f"g{tag}.json"
        s = tmp_path / f"s{tag}.json"
        h = tmp_path / f"h{tag}.csv"
        v = tmp_path / f"v{tag}.json"
        r = tmp_path / f"r{tag}.json"
        run(["gen", "--model", "regular", "--n", "30", "--d", "3", "--seed", "9", "--out", str(g)])
        run(["spectrum", "--in", str(g), "--out", str(s)])
        run(["project", "--in", str(s), "--rescale", "none", "--exclude-trivial", "--out", str(h)])
        run(["verify", "--in", str(g), "--trials", "4", "--seed", "1", "--out", str(v)])
        run(["rsbm-recover", "--n", "40", "--d1", "8", "--d2", "1", "--seed", "2", "--trials", "2", "--out", str(r)])
        outs.append(tuple(p.read_bytes() for p in (g, s, h, v, r)))
    assert outs[0] == outs[1]


def test_parse_complex_forms():
    assert parse_complex("0.3+0.4i") == 0.3 + 0.4j
    assert parse_complex("-2i") == -2j
    assert parse_complex("1.5") == 1.5
    assert parse_complex("-1-1i") == -1 - 1j
    with pytest.raises(Exception):
        parse_complex("zebra")


def test_help_runs(capsys):
    assert run(["--help"]) == 0
    assert run(["gen", "--help"]) == 0
    capsys.readouterr()
