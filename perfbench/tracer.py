"""Span tracer that times nbspectra's layers from outside the program.

`Tracer.install()` replaces each traced public function in every
``nbspectra`` module namespace that binds it (``symmetric_eigs`` is bound
in both ``spectral`` and ``rsbm``, for example), so calls made inside the
package go through the wrapper too. `Tracer.uninstall()` restores the
originals. Spans are kept in memory, one stack per thread, so spans opened
by ``rsbm-recover``'s worker threads get the right parents.
"""

from __future__ import annotations

import functools
import hashlib
import os
import sys
import threading
import time
from statistics import median

import numpy as np

#: traced functions, by layer (module) name
LAYERS = {
    "graphs": ("sample_regular_graph", "sample_regular_hypergraph", "sample_rsbm"),
    "operators": ("adjacency_matrix", "oriented_index", "nonbacktracking_matrix", "reduced_nb_matrix"),
    "spectral": ("symmetric_eigs", "full_lifted_spectrum", "spectrum_audit"),
    "measures": ("project_real_parts", "ks_distance"),
    "verify": ("logdet", "ihara_bass_check", "ihara_bass_check_hyper", "ihara_bass_report"),
    "rsbm": ("deterministic_sigma_eigenpair", "recover_communities", "insider_gap_report"),
    "io": ("read_graph", "read_spectrum", "write_graph", "write_spectrum", "write_histogram", "write_report"),
    "cli": ("main",),
}
READS = ("read_graph", "read_spectrum")
WRITES = ("write_graph", "write_spectrum", "write_histogram", "write_report")
SAMPLERS = LAYERS["graphs"]
CHECKS = ("ihara_bass_check", "ihara_bass_check_hyper")

#: per-layer metrics in report order; all are per op
PER_LAYER = (
    ("spectral.eigs_s", "s"),
    ("spectral.eigs_calls", "count"),
    ("spectral.eigs_per_graph", "count"),
    ("spectral.lift_self_s", "s"),
    ("spectral.audit_self_s", "s"),
    ("measures.ks_s", "s"),
    ("measures.quad_calls", "count"),
    ("measures.project_s", "s"),
    ("verify.logdet_s", "s"),
    ("verify.logdet_calls", "count"),
    ("verify.dense_mb_computed", "MB"),
    ("verify.report_s", "s"),
    ("verify.check_self_s", "s"),
    ("verify.z_points", "count"),
    ("verify.ok_ratio", "ratio"),
    ("operators.adjacency_s", "s"),
    ("operators.index_s", "s"),
    ("operators.nb_matrix_s", "s"),
    ("operators.reduced_s", "s"),
    ("operators.nb_nnz", "count"),
    ("rsbm.recover_s", "s"),
    ("rsbm.insider_s", "s"),
    ("rsbm.sigma_check_s", "s"),
    ("rsbm.exact_ratio", "ratio"),
    ("cli.pool_busy_ratio", "ratio"),
    ("cli.self_s", "s"),
    ("graphs.sample_s", "s"),
    ("graphs.samples", "count"),
    ("io.read_s", "s"),
    ("io.write_s", "s"),
    ("io.bytes_read", "B"),
    ("io.bytes_written", "B"),
) + tuple((f"{layer}.layer_self_s", "s") for layer in LAYERS if layer != "cli") + (
    ("trace.overhead_s", "s"),
)

#: counts that must repeat exactly when one op seed is traced twice
REPEATABLE = (
    "spectral.eigs_calls",
    "spectral.eigs_per_graph",
    "measures.quad_calls",
    "verify.logdet_calls",
    "verify.dense_mb_computed",
    "verify.z_points",
    "operators.nb_nnz",
    "graphs.samples",
    "io.bytes_read",
    "io.bytes_written",
)


class Span:
    __slots__ = ("name", "parent", "start", "end", "info")

    def __init__(self, name: str, parent: "Span | None"):
        self.name = name
        self.parent = parent
        self.start = time.perf_counter()
        self.end = self.start
        self.info: dict = {}


def _fingerprint(A) -> bytes:
    """Cheap identity of an adjacency matrix: its shape and first rows."""
    A = np.asarray(A)
    return hashlib.blake2b(repr(A.shape).encode() + A[:8].tobytes(), digest_size=16).digest()


class Tracer:
    """Collects spans and counters for the ops run while it is installed."""

    def __init__(self):
        self.spans: list = []
        self.quad_calls = 0
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patched: list = []

    # -- span bookkeeping -------------------------------------------------
    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self) -> "Span | None":
        stack = self._stack()
        return stack[-1] if stack else None

    def open(self, name: str, parent: "Span | None" = None) -> Span:
        stack = self._stack()
        span = Span(name, parent if parent is not None else (stack[-1] if stack else None))
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        stack = self._stack()
        if stack and stack[-1] is span:
            stack.pop()
        self.spans.append(span)

    def reset(self) -> None:
        self.spans = []
        self.quad_calls = 0

    # -- wrappers ----------------------------------------------------------
    def _wrap(self, name: str, fn, on_result=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = tracer.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.close(span)
            if on_result is not None:
                on_result(span, args, kwargs, result)
            return result

        return traced

    def _count_quad(self, fn):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            with tracer._lock:
                tracer.quad_calls += 1
            return fn(*args, **kwargs)

        return counted

    def _pool_class(self, base):
        tracer = self

        class TracedPool(base):
            """Executor that records its lifetime and each task as spans."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                self._span = tracer.open("cli.pool")
                self._span.info["workers"] = self._max_workers

            def submit(self, fn, /, *args, **kwargs):
                parent = tracer.current()

                def task(*a, **kw):
                    span = tracer.open("cli.pool_task", parent)
                    try:
                        return fn(*a, **kw)
                    finally:
                        tracer.close(span)

                return super().submit(task, *args, **kwargs)

            def shutdown(self, *args, **kwargs):
                super().shutdown(*args, **kwargs)
                if self._span in tracer._stack():
                    tracer.close(self._span)

        return TracedPool

    def _hooks(self) -> dict:
        def eigs(span, args, kwargs, result):
            span.info["graph"] = _fingerprint(args[0] if args else kwargs["A"])

        def logdet(span, args, kwargs, result):
            m = np.shape(args[0] if args else kwargs["M"])[0]
            span.info["dense_mb"] = 16.0 * m * m / 1e6

        def check(span, args, kwargs, result):
            span.info["ok"] = bool(result.ok)

        def nb(span, args, kwargs, result):
            span.info["nnz"] = int(result.nnz)

        def recover(span, args, kwargs, result):
            span.info["exact"] = bool(result.exact)

        def read(span, args, kwargs, result):
            span.info["bytes"] = os.path.getsize(args[0] if args else kwargs["path"])

        def write(span, args, kwargs, result):
            span.info["bytes"] = os.path.getsize(args[1] if len(args) > 1 else kwargs["path"])

        hooks = {
            "symmetric_eigs": eigs,
            "logdet": logdet,
            "ihara_bass_check": check,
            "ihara_bass_check_hyper": check,
            "nonbacktracking_matrix": nb,
            "recover_communities": recover,
        }
        hooks.update({fn: read for fn in READS})
        hooks.update({fn: write for fn in WRITES})
        return hooks

    def install(self) -> None:
        """Wrap every traced function in each nbspectra namespace binding it."""
        import nbspectra.cli
        import nbspectra.measures

        modules = [m for k, m in sys.modules.items() if k == "nbspectra" or k.startswith("nbspectra.")]
        hooks = self._hooks()
        for layer, fns in LAYERS.items():
            home = sys.modules[f"nbspectra.{layer}"]
            for fn_name in fns:
                original = getattr(home, fn_name)
                traced = self._wrap(fn_name, original, hooks.get(fn_name))
                for mod in modules:
                    if getattr(mod, fn_name, None) is original:
                        self._patch(mod, fn_name, traced)
        self._patch(nbspectra.measures, "_segment_integral",
                    self._count_quad(nbspectra.measures._segment_integral))
        self._patch(nbspectra.cli, "ThreadPoolExecutor", self._pool_class(nbspectra.cli.ThreadPoolExecutor))

    def _patch(self, mod, attr: str, value) -> None:
        self._patched.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # -- per-op metrics ----------------------------------------------------
    def _self_times(self) -> dict:
        """id(span) -> span duration minus the union of its children's spans."""
        children: dict = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(id(s.parent), []).append(s)
        out = {}
        for s in self.spans:
            covered = 0.0
            edge = s.start
            # pool tasks overlap one another, so take the union, not the sum
            for c in sorted(children.get(id(s), ()), key=lambda c: c.start):
                lo, hi = max(c.start, edge), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    edge = hi
            out[id(s)] = (s.end - s.start) - covered
        return out

    def self_by_function(self) -> dict:
        """Self seconds of each traced function over the recorded spans."""
        self_of = self._self_times()
        acc: dict = {}
        for s in self.spans:
            acc[s.name] = acc.get(s.name, 0.0) + self_of[id(s)]
        return acc

    def op_metrics(self) -> dict:
        """Per-layer metrics of the spans recorded since the last reset."""
        spans = self.spans
        self_of = self._self_times()

        def named(*names):
            return [s for s in spans if s.name in names]

        def total(*names) -> float:
            return sum(s.end - s.start for s in named(*names))

        def self_sum(*names) -> float:
            return sum(self_of[id(s)] for s in named(*names))

        def outer(names):
            return [s for s in named(*names) if s.parent is None or s.parent.name not in names]

        def ratio(spans, key):
            return sum(s.info[key] for s in spans) / len(spans) if spans else 0.0

        eigs = named("symmetric_eigs")
        graphs = {s.info["graph"] for s in eigs}
        checks = outer(CHECKS)
        pool_capacity = sum((p.end - p.start) * p.info["workers"] for p in named("cli.pool"))
        samples = outer(SAMPLERS)
        m = {
            "spectral.eigs_s": total("symmetric_eigs"),
            "spectral.eigs_calls": len(eigs),
            "spectral.eigs_per_graph": len(eigs) / len(graphs) if graphs else 0.0,
            "spectral.lift_self_s": self_sum("full_lifted_spectrum"),
            "spectral.audit_self_s": self_sum("spectrum_audit"),
            "measures.ks_s": total("ks_distance"),
            "measures.quad_calls": self.quad_calls,
            "measures.project_s": total("project_real_parts"),
            "verify.logdet_s": total("logdet"),
            "verify.logdet_calls": len(named("logdet")),
            "verify.dense_mb_computed": sum(s.info["dense_mb"] for s in named("logdet")),
            "verify.report_s": total("ihara_bass_report"),
            "verify.check_self_s": self_sum(*CHECKS),
            "verify.z_points": len(checks),
            "verify.ok_ratio": ratio(checks, "ok"),
            "operators.adjacency_s": total("adjacency_matrix"),
            "operators.index_s": total("oriented_index"),
            "operators.nb_matrix_s": self_sum("nonbacktracking_matrix"),
            "operators.reduced_s": self_sum("reduced_nb_matrix"),
            "operators.nb_nnz": sum(s.info["nnz"] for s in named("nonbacktracking_matrix")),
            "rsbm.recover_s": total("recover_communities"),
            "rsbm.insider_s": total("insider_gap_report"),
            "rsbm.sigma_check_s": total("deterministic_sigma_eigenpair"),
            "rsbm.exact_ratio": ratio(named("recover_communities"), "exact"),
            "cli.pool_busy_ratio": total("cli.pool_task") / pool_capacity if pool_capacity else 0.0,
            "cli.self_s": self_sum("main"),
            "graphs.sample_s": sum(s.end - s.start for s in samples),
            "graphs.samples": len(samples),
            "io.read_s": total(*READS),
            "io.write_s": total(*WRITES),
            "io.bytes_read": sum(s.info["bytes"] for s in named(*READS)),
            "io.bytes_written": sum(s.info["bytes"] for s in named(*WRITES)),
        }
        for layer, fns in LAYERS.items():
            if layer != "cli":
                m[f"{layer}.layer_self_s"] = self_sum(*fns)
        return m


def median_metrics(per_op: list) -> dict:
    """Median over ops of each per-layer metric."""
    return {name: float(median(m[name] for m in per_op)) for name, _ in PER_LAYER if name != "trace.overhead_s"}
