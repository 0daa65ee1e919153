"""Time the ROADMAP "Baseline" figures with the benchmark's tracer.

    python3 perfbench/baseline.py

Each figure is one traced call at the size the ROADMAP names, repeated
REPS times; the median span duration is printed beside the ROADMAP value.
"""

from __future__ import annotations

from statistics import median

from run import load_program

REPS = 3

#: (label, traced function, ROADMAP seconds)
FIGURES = (
    ("spectrum_audit, n=1000 d=5", "spectrum_audit", 1.16),
    ("  its eigensolve (symmetric_eigs)", "symmetric_eigs", 0.25),
    ("symmetric_eigs, n=2000 d=5", "symmetric_eigs", 1.35),
    ("full_lifted_spectrum, n=2000 d=5", "full_lifted_spectrum", 1.8),
    ("ks_distance (Kesten-McKay), n=2000 d=5", "ks_distance", 0.84),
    ("insider_gap_report, RSBM(2000,12,4)", "insider_gap_report", 2.1),
)


def main() -> int:
    load_program()
    import nbspectra
    from tracer import Tracer

    g1000 = nbspectra.sample_regular_graph(1000, 5, 7)
    g2000 = nbspectra.sample_regular_graph(2000, 5, 7)
    spec = nbspectra.full_lifted_spectrum(g2000)
    m = nbspectra.project_real_parts(spec, rescale="none", exclude_trivial=True)
    rsbm = nbspectra.sample_rsbm(2000, 12, 4, 7)
    calls = {
        "spectrum_audit, n=1000 d=5": lambda: nbspectra.spectrum_audit(g1000, keep_records=False),
        "symmetric_eigs, n=2000 d=5": lambda: nbspectra.symmetric_eigs(nbspectra.adjacency_matrix(g2000)),
        "full_lifted_spectrum, n=2000 d=5": lambda: nbspectra.full_lifted_spectrum(g2000),
        "ks_distance (Kesten-McKay), n=2000 d=5": lambda: nbspectra.ks_distance(m, nbspectra.KestenMcKay(5)),
        "insider_gap_report, RSBM(2000,12,4)": lambda: nbspectra.insider_gap_report(rsbm),
    }
    tracer = Tracer()
    tracer.install()
    try:
        durations: dict = {}
        quad_calls = 0
        for label, call in calls.items():
            for _ in range(REPS):
                tracer.reset()
                call()
                for s in tracer.spans:
                    durations.setdefault((label, s.name), []).append(s.end - s.start)
                quad_calls = tracer.quad_calls or quad_calls
    finally:
        tracer.uninstall()
    print(f"{'figure':44s} {'ROADMAP':>8s} {'traced':>8s}")
    caller = None
    for label, fn, roadmap in FIGURES:
        caller = caller if label.startswith(" ") else label
        values = durations[(caller, fn)]
        print(f"{label:44s} {roadmap:8.2f} {median(values):8.3f}")
    print(f"quad calls in one ks_distance: {quad_calls}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
