"""The four benchmark workloads: what one op runs and how its output is checked.

Each op drives nbspectra the way a user does, through the CLI entry point
(`nbspectra.cli.main`, in process) and the public API, and checks every
result against the acceptance suite's tolerances. An op returns a digest
of everything it produced; the runner re-runs one op seed per run and
requires the same digest (reproducibility applied to benchmark inputs).

A workload is a pair of functions: ``inputs(seed, small)`` chooses the op's
sizes and instance seeds, untimed, and ``op(op, inputs)`` runs and checks it.

Functions are looked up on their modules at call time (`nbspectra.cli.main`,
`nbspectra.spectrum_audit`) so that the traced run sees the wrapped ones.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import itertools
import json
from pathlib import Path

import numpy as np

import nbspectra
import nbspectra.cli

# Tolerances of tests/test_acceptance.py, restated so the benchmark stands alone.
KS_THRESHOLDS = {"km": 0.06, "hyperfixed": 0.08}
AUDIT_BOUNDS = {
    "vieta_sum_err": 1e-10,
    "vieta_prod_err": 1e-10,
    "circle_err": 1e-10,
    "resid_u_max": 1e-9,
    "resid_w_max": 1e-9,
    "norm_paper_err": 1e-8,
}
PERRON_RATIO_TOL = 1e-12
INSIDER_SPECIALS = (15.0, 1.0, 5.0, 3.0)
INSIDER_DEVIATION = 0.15

#: criterion 1's twelve configurations, plus the README hypergraph
AUDIT_CONFIGS = [(n, d) for n in (50, 200, 1000) for d in (3, 4, 5)] + [
    (60, 2, 3),
    (90, 3, 3),
    (120, 4, 3),
    (900, 3, 3),
]


#: Hypergraph instances whose adjacency has an eigenvalue within this distance
#: above -d are not benchmark inputs. On them the program fails (a known
#: defect, ROADMAP item 5): `spectrum_audit` and `deloc` raise DegenerateError
#: below the bound's 1e-9 tolerance, and `ks_distance` raises IntegrationError
#: on the sample next to the support edge (seen near 1e-12). Twice the
#: tolerance leaves a margin far above the gap's rounding error (about 1e-13).
#: About 1% of (900,3,3) instances are screened; `DEFECT_PROBES` shows the
#: defect in every run.
NEAR_EDGE = 2e-9

#: (n, d, k, seed, gap) of every instance screened out in this process
SCREENED: list = []


class CheckFailed(Exception):
    """An op's output broke one of the acceptance tolerances (an incorrect result)."""


class OpError(Exception):
    """A CLI command ended with a usage or internal error (a failed op, no result)."""


def derive_seed(seed: int, *path: int) -> int:
    """Deterministic 31-bit seed for a sub-task of a seeded run."""
    text = ":".join(str(x) for x in (seed, *path))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=4).digest(), "little") >> 1


def edge_gap(h) -> float:
    """lambda_min(A) + d of a hypergraph, computed without nbspectra.

    A = H H^T - d I for the vertex-hyperedge incidence matrix H, so the gap
    is the smallest squared singular value of H. Only min(n, m) singular
    values exist, so the exact eigenvalues -d that a wide H forces (m < n)
    are not counted; the program treats those as trivial.
    """
    H = np.zeros((h.n, len(h.hyperedges)))
    for j, e in enumerate(h.hyperedges):
        H[list(e), j] = 1.0
    return float(np.linalg.svd(H, compute_uv=False).min() ** 2)


@functools.lru_cache(maxsize=None)
def hypergraph_seed(n: int, d: int, k: int, seed: int) -> int:
    """`seed`, or else the first seed derived from it, whose instance is off the edge."""
    for j in itertools.count():
        s = seed if j == 0 else derive_seed(seed, j)
        gap = edge_gap(nbspectra.sample_regular_hypergraph(n, d, k, s))
        if gap >= NEAR_EDGE:
            return s
        SCREENED.append((n, d, k, s, gap))


class Op:
    """Work directory, CLI runner and output digest of one op."""

    def __init__(self, workdir: Path, check: bool):
        self.dir = workdir
        self.check = check
        self.digest = hashlib.sha256()

    def path(self, name: str) -> str:
        return str(self.dir / name)

    def cli(self, *argv) -> None:
        argv = [str(a) for a in argv]
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            code = nbspectra.cli.main(argv)
        if self.check and code != 0:
            # exit 1 means a quantitative check failed; 2 and 3 mean no result
            what = f"nbspectra {argv[0]} exited {code}: {err.getvalue().strip()}"
            raise CheckFailed(what) if code == 1 else OpError(what)
        for i, a in enumerate(argv[:-1]):
            if a == "--out" and Path(argv[i + 1]).exists():
                self.digest.update(Path(argv[i + 1]).read_bytes())

    def json(self, name: str) -> dict:
        return json.loads(Path(self.path(name)).read_text())

    def record(self, value) -> None:
        self.digest.update(repr(value).encode())

    def require(self, ok: bool, what: str) -> None:
        if self.check and not ok:
            raise CheckFailed(what)


def spectral_pipeline_inputs(seed: int, small: bool) -> dict:
    n, hn = (100, 90) if small else (2000, 900)
    return {"n": n, "seed": seed, "hn": hn, "hseed": hypergraph_seed(hn, 3, 3, seed)}


def spectral_pipeline(op: Op, x: dict) -> None:
    n = x["n"]
    g, s, h, k = (op.path(p) for p in ("g.json", "s.json", "h.csv", "ks.json"))
    op.cli("gen", "--model", "regular", "--n", n, "--d", 5, "--seed", x["seed"], "--out", g)
    op.cli("spectrum", "--in", g, "--out", s)
    op.cli("project", "--in", s, "--rescale", "none", "--exclude-trivial", "--out", h)
    counts = [int(line.split(",")[2]) for line in Path(h).read_text().splitlines()[1:]]
    op.require(sum(counts) == 2 * n - 2, f"histogram holds {sum(counts)} samples, expected {2 * n - 2}")
    op.cli("ks", "--in", s, "--law", "km", "--out", k)
    op.require(op.json("ks.json")["ks"] <= KS_THRESHOLDS["km"], "Kesten-McKay KS over threshold")
    hg, hs, hk = (op.path(p) for p in ("hg.json", "hs.json", "hks.json"))
    hyper = ("--model", "hypergraph", "--n", x["hn"], "--d", 3, "--k", 3)
    op.cli("gen", *hyper, "--seed", x["hseed"], "--out", hg)
    op.cli("spectrum", "--in", hg, "--out", hs)
    op.cli("ks", "--in", hs, "--law", "hyperfixed", "--out", hk)
    op.require(op.json("hks.json")["ks"] <= KS_THRESHOLDS["hyperfixed"], "hyperfixed KS over threshold")


def identity_audit_inputs(seed: int, small: bool) -> dict:
    configs = []
    for i, cfg in enumerate(AUDIT_CONFIGS[:1] if small else AUDIT_CONFIGS):
        s = derive_seed(seed, i)
        configs.append((cfg, s if len(cfg) == 2 else hypergraph_seed(*cfg, s)))
    return {"configs": configs, "n": 50 if small else 1000, "seed": seed}


def identity_audit(op: Op, x: dict) -> None:
    for cfg, s in x["configs"]:
        if len(cfg) == 2:
            g = nbspectra.sample_regular_graph(cfg[0], cfg[1], s)
        else:
            g = nbspectra.sample_regular_hypergraph(cfg[0], cfg[1], cfg[2], s)
        a = nbspectra.spectrum_audit(g, keep_records=False)
        worst = {key: getattr(a, key) for key in AUDIT_BOUNDS}
        op.record((cfg, worst, a.ratio_mono_violations, a.bound_violations, a.perron_ratio_err))
        for key, bound in AUDIT_BOUNDS.items():
            op.require(worst[key] <= bound, f"audit {cfg}: {key} = {worst[key]:.2e} > {bound}")
        op.require(a.ratio_mono_violations + a.bound_violations == 0, f"audit {cfg}: violations")
        op.require(a.perron_ratio_err <= PERRON_RATIO_TOL, f"audit {cfg}: Perron ratio error")
    n = x["n"]
    g, dl = op.path("g.json"), op.path("deloc.json")
    op.cli("gen", "--model", "regular", "--n", n, "--d", 4, "--seed", x["seed"], "--out", g)
    op.cli("deloc", "--in", g, "--out", dl)
    doc = op.json("deloc.json")
    op.require(len(doc["records"]) == 2 * n, "deloc record count")
    op.require(doc["bound_violations"] + doc["ratio_monotonicity_violations"] == 0, "deloc violations")


def determinant_verify_inputs(seed: int, small: bool) -> dict:
    return {"n": 30 if small else 600, "seed": seed}


def determinant_verify(op: Op, x: dict) -> None:
    n, seed = x["n"], x["seed"]
    for model, extra in (("regular", ("--d", 4)), ("hypergraph", ("--d", 3, "--k", 3))):
        g, v = op.path(f"{model}.json"), op.path(f"{model}-verify.json")
        op.cli("gen", "--model", model, "--n", n, *extra, "--seed", seed, "--out", g)
        op.cli("verify", "--in", g, "--trials", 8, "--seed", seed, "--out", v)
        doc = op.json(f"{model}-verify.json")
        op.require(doc["all_ok"] and doc["trials"] == 8, f"{model} determinant identity failed")


def rsbm_recovery_inputs(seed: int, small: bool) -> dict:
    n, gap_n = (200, 200) if small else (1000, 2000)
    return {"n": n, "gap_n": gap_n, "seed": seed}


def rsbm_recovery(op: Op, x: dict) -> None:
    seed, r = x["seed"], op.path("recover.json")
    op.cli("rsbm-recover", "--n", x["n"], "--d1", 12, "--d2", 4, "--seed", seed, "--trials", 10, "--out", r)
    op.require(op.json("recover.json")["exact_trials"] == 10, "RSBM recovery not exact in 10/10 trials")
    # The 0.15 deviation bound is criterion 7's, on its three instances. On fresh
    # instances about 1% of correct reports exceed it: a non-special eigenvalue
    # just outside the bulk edge lifts to real values off the circle.
    g = nbspectra.sample_rsbm(x["gap_n"], 12, 4, nbspectra.Seed(7).trial(seed % 3))
    rep = nbspectra.insider_gap_report(g)
    op.record((rep.specials, rep.max_circle_deviation))
    op.require(rep.specials == INSIDER_SPECIALS, f"insider specials {rep.specials}")
    op.require(rep.max_circle_deviation <= INSIDER_DEVIATION, "insider circle deviation over 0.15")


def probe_ks_edge() -> None:
    h = nbspectra.sample_regular_hypergraph(900, 3, 3, 1732846562)  # gap 8.6e-13
    spec = nbspectra.full_lifted_spectrum(h)
    m = nbspectra.project_real_parts(spec, rescale="hypergraph", exclude_trivial=True)
    nbspectra.ks_distance(m, nbspectra.HyperFixed(3, 3))


def probe_audit_edge() -> None:
    h = nbspectra.sample_regular_hypergraph(900, 3, 3, 907061070)  # gap 9.2e-10
    nbspectra.spectrum_audit(h, keep_records=False)


#: workload name -> (inputs, op); why each exists is in perfbench/README.md
WORKLOADS = {
    "spectral_pipeline": (spectral_pipeline_inputs, spectral_pipeline),
    "identity_audit": (identity_audit_inputs, identity_audit),
    "determinant_verify": (determinant_verify_inputs, determinant_verify),
    "rsbm_recovery": (rsbm_recovery_inputs, rsbm_recovery),
}

#: workload name -> a reproducer of the defect its screened-out instances hit;
#: run once per run, untimed, so each run shows whether the defect is still there
DEFECT_PROBES = {"spectral_pipeline": probe_ks_edge, "identity_audit": probe_audit_edge}
