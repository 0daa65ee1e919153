"""Command-line driver.

Subcommands: gen, spectrum, project, ks, deloc, verify, rsbm-recover.
Exit codes: 0 success, 1 quantitative check failed, 2 usage/parse error,
3 internal error. Machine output goes to --out (or stdout), human summaries
to stderr. Identical command lines produce byte-identical output files
(for `spectrum` and `deloc`, on the same OpenBLAS build and thread count).
"""

from __future__ import annotations

import argparse
import cmath
import math
import sys

# not used here: perfbench/tracer.py patches `cli.ThreadPoolExecutor`, and
# tests/test_benchmark_contract.py pins that the name stays
from concurrent.futures import ThreadPoolExecutor  # noqa: F401

import numpy as np

from . import io as nbio
from .errors import (
    DetectabilityError,
    DivisibilityError,
    DomainError,
    InfeasibleError,
    InvariantError,
    NearSingularError,
    ParityError,
    ParseError,
)
from .graphs import sample_regular_graph, sample_regular_hypergraph, sample_rsbm
from .measures import HyperAlpha, HyperFixed, KestenMcKay, Semicircle, ks_distance, project_real_parts
from .rsbm import deterministic_sigma_eigenpair, recover_communities, rsbm_mu2
from .seeds import Seed
from .spectral import full_lifted_spectrum, spectrum_audit
from .verify import ihara_bass_checks, ihara_bass_report, ihara_bass_system

_USAGE_ERRORS = (
    ParityError,
    InfeasibleError,
    DivisibilityError,
    DomainError,
    DetectabilityError,
    ParseError,
    InvariantError,
    NearSingularError,
)

KS_DEFAULT_THRESHOLDS = {"km": 0.06, "sc": 0.06, "hyperfixed": 0.08, "hyperalpha": 0.10}
KS_RESCALE = {"km": "none", "sc": "graph", "hyperfixed": "hypergraph", "hyperalpha": "hypergraph"}


def parse_complex(text: str) -> complex:
    """Parse a finite 'a+bi' with optional signs, e.g. 0.3+0.4i, -2i, 1.5."""
    try:
        z = complex(text.replace(" ", "").replace("i", "j"))
    except ValueError as e:
        raise argparse.ArgumentTypeError(f"cannot parse complex value {text!r}") from e
    if not cmath.isfinite(z):
        raise argparse.ArgumentTypeError(f"complex value {text!r} is not finite")
    return z


def positive_int(text: str) -> int:
    """argparse type of a count: an integer >= 1."""
    value = int(text)  # argparse reports the ValueError as an invalid value
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be a positive integer, got {value}")
    return value


def seed_int(text: str) -> int:
    """argparse type of a master seed: an integer in [0, 2^64)."""
    value = int(text)
    try:
        Seed(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from e
    return value


def threshold_float(text: str) -> float:
    """argparse type of a KS threshold: a finite number >= 0."""
    value = float(text)
    if not (math.isfinite(value) and value >= 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number >= 0, got {text!r}")
    return value


def alpha_float(text: str) -> float:
    """argparse type of the hyperalpha law's alpha: a finite number > 0."""
    value = float(text)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    return value


def _format_z(z: complex) -> str:
    """z in the a+bi form that --z accepts, at full precision."""
    return f"{z.real!r}{'+' if z.imag >= 0 else '-'}{abs(z.imag)!r}i"


def _emit(doc: dict, out_path) -> None:
    if out_path:
        nbio.write_report(doc, out_path)
    else:
        sys.stdout.write(nbio._dumps(doc))


def _say(msg: str) -> None:
    print(msg, file=sys.stderr)


def cmd_gen(args) -> int:
    if args.model == "regular":
        if args.d is None:
            raise DomainError("--model regular requires --d")
        g = sample_regular_graph(args.n, args.d, args.seed)
    elif args.model == "hypergraph":
        if args.d is None or args.k is None:
            raise DomainError("--model hypergraph requires --d and --k")
        g = sample_regular_hypergraph(args.n, args.d, args.k, args.seed)
    else:
        if args.d1 is None or args.d2 is None:
            raise DomainError("--model rsbm requires --d1 and --d2")
        g = sample_rsbm(args.n, args.d1, args.d2, args.seed)
    if args.out:
        nbio.write_graph(g, args.out)
        _say(f"wrote {args.model} graph (n={args.n}) to {args.out}")
    else:
        sys.stdout.write(nbio._dumps(nbio.graph_document(g)))
    return 0


def cmd_spectrum(args) -> int:
    g = nbio.read_graph(args.infile)
    spec = full_lifted_spectrum(g)
    nbio.write_spectrum(spec, args.out)
    _say(f"wrote {2 * spec.n}-eigenvalue spectrum to {args.out}")
    return 0


def cmd_project(args) -> int:
    spec = nbio.read_spectrum(args.infile)
    m = project_real_parts(spec, rescale=args.rescale, exclude_trivial=args.exclude_trivial)
    # more bins than samples shows nothing, and a huge count costs time and memory in proportion
    if args.bins is not None and args.bins > len(m):
        raise DomainError(f"--bins {args.bins} exceeds the {len(m)} projected samples")
    nbio.write_histogram(m, args.out, bins=args.bins)
    _say(f"wrote histogram of {len(m)} samples to {args.out}")
    return 0


def _ks_model(law: str, spec, alpha):
    if law == "km":
        return KestenMcKay(spec.d)
    if law == "sc":
        return Semicircle()
    if law == "hyperfixed":
        if spec.k is None:
            raise DomainError("hyperfixed law needs a hypergraph spectrum")
        return HyperFixed(spec.d, spec.k)
    if alpha is None:
        raise DomainError("--law hyperalpha requires --alpha")
    return HyperAlpha(alpha)


def cmd_ks(args) -> int:
    spec = nbio.read_spectrum(args.infile)
    model = _ks_model(args.law, spec, args.alpha)
    m = project_real_parts(spec, rescale=KS_RESCALE[args.law], exclude_trivial=True)
    ks = ks_distance(m, model)
    threshold = args.threshold if args.threshold is not None else KS_DEFAULT_THRESHOLDS[args.law]
    doc = {
        "model": args.law,
        "params": {"n": spec.n, "d": spec.d, "k": spec.k, "alpha": args.alpha},
        "n_samples": len(m),
        "ks": ks,
        "threshold": threshold,
        "pass": ks <= threshold,
    }
    _emit(doc, args.out)
    _say(f"ks = {ks:.5f} (threshold {threshold})")
    return 0 if ks <= threshold else 1


#: per-lifted-eigenvector fields of a deloc report, in SpectrumAudit terms;
#: bound_ok is null where bound is, and every other NaN is written as null
_DELOC_FIELDS = {
    "lambda": lambda a: a.lams,
    "mu_re": lambda a: a.mus.real,
    "mu_im": lambda a: a.mus.imag,
    "ratio_v": lambda a: a.ratio_v,
    "ratio_u": lambda a: a.ratio_u,
    "ratio_w": lambda a: a.ratio_w,
    "bound": lambda a: a.bound,
    "bound_ok": lambda a: np.where(np.isnan(a.bound), None, a.bound_ok),
}


def cmd_deloc(args) -> int:
    g = nbio.read_graph(args.infile)
    audit = spectrum_audit(g)
    columns = (get(audit) for get in _DELOC_FIELDS.values())
    columns = [(np.where(np.isnan(c), None, c) if c.dtype.kind == "f" else c).tolist() for c in columns]
    violations = audit.bound_violations + audit.ratio_mono_violations
    doc = {
        "n": audit.n,
        "d": audit.d,
        "k": audit.k,
        "bound_violations": audit.bound_violations,
        "ratio_monotonicity_violations": audit.ratio_mono_violations,
        "perron_ratio_err": audit.perron_ratio_err,
        "records": [dict(zip(_DELOC_FIELDS, rec)) for rec in zip(*columns)],
    }
    _emit(doc, args.out)
    name, value, over = audit.worst_certificate()
    _say(
        f"delocalization audit: {violations} violation(s) over {len(audit.lams)} lifted eigenvectors"
        f"; worst certificate {name} = {value:.2e}, {over:.2e} of tolerance"
    )
    return 0 if violations == 0 and over <= 1.0 else 1


def cmd_verify(args) -> int:
    g = nbio.read_graph(args.infile)
    if args.z:
        records = ihara_bass_checks(ihara_bass_system(g), args.z)
        ok = all(r.ok for r in records)
    else:
        records, ok = ihara_bass_report(g, trials=args.trials, seed=args.seed)
    doc = {
        "trials": len(records),
        "all_ok": ok,
        "records": [
            {
                "z_re": r.z.real,
                "z_im": r.z.imag,
                "lhs_logabs": r.lhs.log_abs,
                "rhs_logabs": r.rhs_reduced.log_abs,
                "lhs_phase": r.lhs.phase,
                "rhs_phase": r.rhs_reduced.phase,
                "mag_err": r.mag_err,
                "phase_err": r.phase_err,
                "pass": r.ok,
            }
            for r in records
        ],
    }
    _emit(doc, args.out)
    summary = f"determinant identity: {sum(r.ok for r in records)}/{len(records)} z-points pass"
    if records:
        mag = max(records, key=lambda r: r.mag_over_tol)
        phase = max(records, key=lambda r: r.phase_over_tol)
        summary += (
            f"; worst log|det| error {mag.mag_over_tol:.2e} of tolerance at z={_format_z(mag.z)}"
            f"; worst phase error {phase.phase_over_tol:.2e} of tolerance at z={_format_z(phase.z)}"
        )
    _say(summary)
    return 0 if ok else 1


def cmd_rsbm_recover(args) -> int:
    master = Seed(args.seed)
    pair = rsbm_mu2(args.d1, args.d2)

    def one_trial(i: int):
        g = sample_rsbm(args.n, args.d1, args.d2, master.trial(i))
        deterministic_sigma_eigenpair(g)
        return recover_communities(g)

    # one thread, in trial order: a worker pool bought no wall time on a
    # 2-core machine and doubled the CPU
    results = [one_trial(i) for i in range(args.trials)]
    exact = sum(1 for r in results if r.exact)
    doc = {
        "n": args.n,
        "d1": args.d1,
        "d2": args.d2,
        "seed": args.seed,
        "mu2": pair.mu2.real,
        "mu2_prime": pair.mu2_prime.real,
        "detectable": pair.detectable,
        "trials": args.trials,
        "exact_trials": exact,
        "agreements": [r.agreement for r in results],
    }
    _emit(doc, args.out)
    _say(f"exact: {exact}/{args.trials}")
    return 0 if exact == args.trials else 1


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="nbspectra",
        description="Non-backtracking spectra of regular graphs, hypergraphs, and the regular SBM.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="sample a graph/hypergraph/RSBM and write it to a file")
    g.add_argument("--model", required=True, choices=["regular", "hypergraph", "rsbm"])
    g.add_argument("--n", type=int, required=True)
    g.add_argument("--d", type=int)
    g.add_argument("--k", type=int)
    g.add_argument("--d1", type=int)
    g.add_argument("--d2", type=int)
    g.add_argument("--seed", type=seed_int, default=0)
    g.add_argument("--out")
    g.set_defaults(func=cmd_gen)

    s = sub.add_parser("spectrum", help="full lifted spectrum of a graph file")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--out", required=True)
    s.set_defaults(func=cmd_spectrum)

    pr = sub.add_parser("project", help="project eigenvalue real parts to a histogram CSV")
    pr.add_argument("--in", dest="infile", required=True, help="spectrum JSON from 'spectrum'")
    pr.add_argument("--rescale", choices=["none", "graph", "hypergraph"], default="none")
    pr.add_argument("--exclude-trivial", action="store_true")
    pr.add_argument(
        "--bins", type=positive_int, default=None, help="bin count, at most the sample count (default Freedman-Diaconis)"
    )
    pr.add_argument("--out", required=True)
    pr.set_defaults(func=cmd_project)

    ks = sub.add_parser("ks", help="Kolmogorov-Smirnov distance to a limit law")
    ks.add_argument("--in", dest="infile", required=True, help="spectrum JSON")
    ks.add_argument("--law", required=True, choices=["km", "sc", "hyperfixed", "hyperalpha"])
    ks.add_argument("--alpha", type=alpha_float, help="alpha for --law hyperalpha")
    ks.add_argument("--threshold", type=threshold_float, help="failure threshold (defaults per law)")
    ks.add_argument("--out")
    ks.set_defaults(func=cmd_ks)

    dl = sub.add_parser("deloc", help="delocalization audit: ratios vs deterministic bounds")
    dl.add_argument("--in", dest="infile", required=True)
    dl.add_argument("--out")
    dl.set_defaults(func=cmd_deloc)

    vf = sub.add_parser("verify", help="determinant-identity checks at random z points")
    vf.add_argument("--in", dest="infile", required=True)
    vf.add_argument("--trials", type=positive_int, default=8)
    vf.add_argument("--seed", type=seed_int, default=0)
    vf.add_argument(
        "--z",
        type=parse_complex,
        action="append",
        help="explicit z value(s) as a+bi (e.g. 0.3+0.4i); overrides sampling",
    )
    vf.add_argument("--out")
    vf.set_defaults(func=cmd_verify)

    rc = sub.add_parser("rsbm-recover", help="seeded RSBM community-recovery trials")
    rc.add_argument("--n", type=int, required=True)
    rc.add_argument("--d1", type=int, required=True)
    rc.add_argument("--d2", type=int, required=True)
    rc.add_argument("--seed", type=seed_int, default=0)
    rc.add_argument("--trials", type=positive_int, default=1)
    rc.add_argument("--out")
    rc.set_defaults(func=cmd_rsbm_recover)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except _USAGE_ERRORS as e:
        print(f"error: {type(e).__name__}: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # internal error
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
