"""nbspectra benchmark: closed-loop, fixed-seed workloads against the CLI and API.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload spectral_pipeline --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

One caller issues each op after the previous one completes (concurrency 1).
With --trace 0 no wrapper is installed and the last stdout line holds the
end-to-end metrics; with --trace 1 the layers are timed from outside
(perfbench/tracer.py) and the last line holds the per-layer metrics, per op.
Human-readable detail goes to stderr; each run also appends a record,
machine facts included, to .perfbench_runs/runs.jsonl.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
#: fresh interpreters started per untraced run to time set-up; the median is reported
SETUP_PROBES = 10


def load_program():
    """Import nbspectra from this checkout's src/ and nowhere else."""
    if not (SRC / "nbspectra" / "__init__.py").is_file():
        sys.exit(f"perfbench: no nbspectra sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import nbspectra

    if Path(nbspectra.__file__).resolve().parent != (SRC / "nbspectra").resolve():
        sys.exit(f"perfbench: imported nbspectra from {nbspectra.__file__}, not {SRC}")
    import workloads

    return workloads


def machine_facts() -> dict:
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = ""
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


def time_setup(workload: str, probes: int) -> list:
    """Wall times from spawning a fresh interpreter to the workload being ready."""
    times = []
    for _ in range(probes):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, str(HERE / "run.py"), "--probe", workload], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return times


def cpu_seconds() -> float:
    ru = resource.getrusage(resource.RUSAGE_SELF)
    return ru.ru_utime + ru.ru_stime


def plan(workloads, seed: int, trace: int):
    """Groups of (op seed, traced) in run order; a run stops between groups.

    The first op seed runs twice, so its outputs can be compared, and when
    tracing it runs once untraced and twice traced, so its counts can be
    compared too. Later traced groups pair an untraced op with a traced one
    on the same seed, which gives the tracing overhead.
    """
    s0 = workloads.derive_seed(seed, 0)
    yield [(s0, False), (s0, True), (s0, True)] if trace else [(s0, False), (s0, False)]
    for i in itertools.count(1):
        s = workloads.derive_seed(seed, i)
        yield [(s, False), (s, True)] if trace else [(s, False)]


def run_workload(args, workloads) -> dict:
    inputs_fn, op_fn = workloads.WORKLOADS[args.workload]
    facts = machine_facts()
    # set-up is probed before and after the ops, so that it samples the machine
    # over the whole run rather than one moment of it; traced runs do not report it
    probes = 0 if args.trace else SETUP_PROBES // 2
    setup = time_setup(args.workload, probes)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()

    work = RUNS / f"work-{os.getpid()}"
    ops: list = []  # run_op results, in run order
    digests: dict = {}
    counts: dict = {}
    try:
        work.mkdir(parents=True, exist_ok=True)
        try:  # warm-up: the same code paths on small inputs, unchecked and untimed
            op_fn(workloads.Op(work, check=False), inputs_fn(workloads.derive_seed(args.seed, 10**6), True))
        except Exception as e:  # noqa: BLE001 - a warm-up outcome is not a result
            print(f"perfbench: warm-up raised {type(e).__name__}: {e}", file=sys.stderr)
        start = time.perf_counter()
        for group in plan(workloads, args.seed, args.trace):
            if ops:
                est = median(o["wall"] for o in ops) * len(group)
                if time.perf_counter() - start + 0.5 * est > args.seconds:
                    break
            for seed, traced in group:
                traced_by = tracer if traced else None
                ops.append(run_op(workloads, inputs_fn, op_fn, work, seed, traced_by, digests, counts))
    finally:
        shutil.rmtree(work, ignore_errors=True)
    defect = probe_defect(workloads, args.workload)
    setup += time_setup(args.workload, probes)

    failed = sum(not o["ok"] for o in ops)
    # correct: no op produced a wrong result; an op that raised failed without one
    result = {"correct": not any(o["wrong"] for o in ops), "attempted": len(ops), "failed": failed}
    done = [o for o in ops if o["ok"]]
    if args.trace:
        from tracer import PER_LAYER, median_metrics

        traced = [o for o in done if o["traced"]]
        values = median_metrics([o["layer"] for o in traced]) if traced else {}
        plain = {o["seed"]: o["wall"] for o in done if not o["traced"]}
        first = {}
        for o in traced:
            first.setdefault(o["seed"], o["wall"])
        pairs = [first[s] - plain[s] for s in first if s in plain]
        values["trace.overhead_s"] = median(pairs) if pairs else 0.0
        metrics = {name: {"value": values.get(name, 0.0), "unit": unit} for name, unit in PER_LAYER}
        report_self_times(tracer)
    else:
        walls = [o["wall"] for o in done] or [float("nan")]
        metrics = {
            "op_s.p50": {"value": median(walls), "unit": "s"},
            "ops_per_s": {"value": len(done) / sum(walls), "unit": "ops/s"},
            "cpu_s_per_op": {"value": sum(o["cpu"] for o in done) / max(len(done), 1), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "unit": "MB"},
            "setup_s": {"value": median(setup), "unit": "s"},
        }
    result["metrics"] = metrics
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "facts": facts,
        "fail_ratio": failed / len(ops),
        "setup_probes": setup,
        "screened": workloads.SCREENED,
        "known_defect": defect,
        "ops": [{k: o[k] for k in ("seed", "traced", "wall", "cpu", "ok", "why")} for o in ops],
        "result": result,
    }
    RUNS.mkdir(exist_ok=True)
    with open(RUNS / "runs.jsonl", "a") as f:
        f.write(json.dumps(record) + "\n")
    print(f"perfbench: {json.dumps(facts)}", file=sys.stderr)
    print(f"perfbench: {args.workload}: {len(ops)} ops, fail_ratio {failed / len(ops)}", file=sys.stderr)
    for n, d, k, s, gap in workloads.SCREENED:
        print(f"perfbench: screened out hypergraph ({n},{d},{k}) seed {s}: gap {gap:.2e}", file=sys.stderr)
    if defect:
        print(f"perfbench: known defect on screened-out instances: {defect}", file=sys.stderr)
    return result


def probe_defect(workloads, workload: str):
    """Run the workload's defect reproducer, untimed; what it raised, or None."""
    probe = workloads.DEFECT_PROBES.get(workload)
    if probe is None:
        return None
    try:
        probe()
    except Exception as e:  # noqa: BLE001 - the reproducer is expected to raise
        return f"still present: {type(e).__name__}: {e}"
    return "not reproduced; the screen in workloads.py may be removable"


def run_op(workloads, inputs_fn, op_fn, work: Path, seed: int, tracer, digests: dict, counts: dict) -> dict:
    """Run one op to a checked result; time it, and trace it if a tracer is given."""
    inputs = inputs_fn(seed, False)
    opdir = work / f"op-{seed}"
    opdir.mkdir()
    op = workloads.Op(opdir, check=True)
    if tracer is not None:
        tracer.reset()
        tracer.install()
    ok, wrong, why = True, False, ""
    cpu0 = cpu_seconds()
    t0 = time.perf_counter()
    try:
        op_fn(op, inputs)
    except workloads.CheckFailed as e:
        ok, wrong, why = False, True, f"check failed: {e}"
    except Exception as e:  # noqa: BLE001 - an exception fails the op without a wrong result
        ok, why = False, f"{type(e).__name__}: {e}"
    wall = time.perf_counter() - t0
    cpu = cpu_seconds() - cpu0
    layer = None
    if tracer is not None:
        tracer.uninstall()
        if ok:
            from tracer import REPEATABLE

            layer = tracer.op_metrics()
            repeat = {k: layer[k] for k in REPEATABLE}
            if counts.setdefault(seed, repeat) != repeat:
                ok, wrong, why = False, True, f"counts differ on a traced re-run: {counts[seed]} vs {repeat}"
    shutil.rmtree(opdir, ignore_errors=True)
    digest = op.digest.hexdigest()
    if ok and digests.setdefault(seed, digest) != digest:
        ok, wrong, why = False, True, "outputs differ from an earlier op with the same seed"
    tag = "traced" if tracer is not None else "plain"
    print(f"perfbench: op seed={seed} {tag} {wall:.3f}s {'ok' if ok else 'FAILED ' + why}", file=sys.stderr)
    return {"seed": seed, "traced": tracer is not None, "wall": wall, "cpu": cpu, "ok": ok, "wrong": wrong,
            "why": why, "layer": layer}


def report_self_times(tracer) -> None:
    """Self seconds per traced function over the run's last traced op, largest first."""
    ranked = sorted(tracer.self_by_function().items(), key=lambda kv: -kv[1])
    print("perfbench: self time of the last traced op, by function:", file=sys.stderr)
    for name, secs in ranked:
        print(f"perfbench:   {name:32s} {secs:9.4f} s", file=sys.stderr)


def run_all(args, names) -> dict:
    """Each workload in its own fresh interpreter; prints every metric by name and unit."""
    results = {}
    for name in names:
        argv = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, check=True, cwd=ROOT, stdout=subprocess.PIPE, text=True).stdout
        results[name] = json.loads(out.strip().splitlines()[-1])
        for metric, m in results[name]["metrics"].items():
            print(f"{name:20s} {metric:28s} {m['value']:.6g} {m['unit']}")
        r = results[name]
        print(f"{name:20s} {'fail_ratio':28s} {r['failed'] / r['attempted']:.6g}")
    return results


def main() -> int:
    workloads = load_program()
    names = tuple(workloads.WORKLOADS)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=names + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--probe", choices=names, help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.probe:  # one set-up probe: start, import, get ready, exit
        return 0
    if args.workload is None:
        p.error("--workload is required")
    if args.workload == "all":
        result = run_all(args, names)
    else:
        result = run_workload(args, workloads)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
