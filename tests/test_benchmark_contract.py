"""The program names that perfbench/tracer.py wraps must stay in the package.

The tracer patches each name in its LAYERS table, `measures._segment_integral`
and `cli.ThreadPoolExecutor`, and reads `.nnz` off every non-backtracking
matrix; a name that disappears crashes every traced benchmark run. The tracer
is loaded from its file, unchanged.
"""

import importlib
import importlib.util
from pathlib import Path

import numpy as np

import nbspectra.cli
import nbspectra.measures
import nbspectra.operators

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
