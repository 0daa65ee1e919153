"""The program names that perfbench/tracer.py wraps must stay in the package.

The tracer patches each name in its LAYERS table, `measures._segment_integral`
and `cli.ThreadPoolExecutor`, and reads `.nnz` off every non-backtracking
matrix; a name that disappears crashes every traced benchmark run. The tracer
and the workloads are loaded from their files, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import nbspectra.cli
import nbspectra.measures
import nbspectra.operators

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _perfbench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _tracer_module():
    return _perfbench_module("tracer")


def test_tracer_names_resolve():
    for layer, names in _tracer_module().LAYERS.items():
        module = importlib.import_module(f"nbspectra.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"nbspectra.{layer}.{name}"
    assert callable(nbspectra.measures._segment_integral)
    assert isinstance(nbspectra.cli.ThreadPoolExecutor, type)


def test_tracer_installs_and_reads_nb_nnz(k4):
    tracer = _tracer_module().Tracer()
    tracer.install()
    try:
        B = nbspectra.operators.nonbacktracking_matrix(k4)
    finally:
        tracer.uninstall()
    assert isinstance(B.nnz, (int, np.integer)) and B.nnz == 24
    assert {s.name: s.info for s in tracer.spans}["nonbacktracking_matrix"] == {"nnz": 24}


WORKLOADS = _perfbench_module("workloads")


@pytest.mark.parametrize("name", sorted(WORKLOADS.WORKLOADS))
def test_workload_runs_traced_on_small_inputs(tmp_path, name):
    # one checked op of each workload on its small inputs, under the tracer's
    # patches, as a traced benchmark run does
    inputs, op = WORKLOADS.WORKLOADS[name]
    x = inputs(1, small=True)
    tracer_module = _tracer_module()
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        op(WORKLOADS.Op(tmp_path, check=True), x)
    finally:
        tracer.uninstall()
    metrics = tracer.op_metrics()
    assert set(metrics) == {m for m, _ in tracer_module.PER_LAYER} - {"trace.overhead_s"}
