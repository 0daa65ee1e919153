import os
import subprocess
import sys
from pathlib import Path

import pytest

import nbspectra.spectral
from nbspectra.blas import _scipy_openblas
from nbspectra.graphs import (
    RegularGraph,
    sample_regular_graph,
    sample_regular_hypergraph,
)


def _fresh(argv: list, env: "dict | None") -> subprocess.CompletedProcess:
    """``argv`` run by a fresh interpreter that imports nbspectra from this
    checkout's src/, with ``env`` added to the environment."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {
        **os.environ,
        **(env or {}),
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120)


def fresh_python(code: str, *args: str, env: "dict | None" = None) -> str:
    """The stdout of ``code``, run with ``args`` in a fresh interpreter that
    imports nbspectra from this checkout's src/, with ``env`` added to the
    environment."""
    out = _fresh(["-c", code, *args], env)
    out.check_returncode()
    return out.stdout


def fresh_cli(*args: str, env: "dict | None" = None) -> int:
    """The exit code of ``python -m nbspectra args`` in a fresh interpreter,
    as `fresh_python` runs code."""
    return _fresh(["-m", "nbspectra", *args], env).returncode


def named_graph(name: str) -> RegularGraph:
    """Hand-built fixture graphs; all validated."""
    if name == "C3":
        g = RegularGraph(3, 2, ((0, 1), (0, 2), (1, 2)))
    elif name == "C4":
        g = RegularGraph(4, 2, ((0, 1), (0, 3), (1, 2), (2, 3)))
    elif name == "K4":
        g = RegularGraph(4, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)))
    elif name == "K33":
        edges = tuple(sorted((u, v) for u in (0, 1, 2) for v in (3, 4, 5)))
        g = RegularGraph(6, 3, edges)
    elif name == "prism":
        g = RegularGraph(
            6, 3, ((0, 1), (0, 2), (0, 3), (1, 2), (1, 4), (2, 5), (3, 4), (3, 5), (4, 5))
        )
    elif name == "cube":
        edges = sorted(
            (u, u ^ (1 << b)) for u in range(8) for b in range(3) if u < (u ^ (1 << b))
        )
        g = RegularGraph(8, 3, tuple(edges))
    elif name == "petersen":
        outer = [(i, (i + 1) % 5) for i in range(5)]
        inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
        spokes = [(i, i + 5) for i in range(5)]
        edges = tuple(sorted(tuple(sorted(e)) for e in outer + inner + spokes))
        g = RegularGraph(10, 3, edges)
    else:
        raise KeyError(name)
    g.validate()
    return g


#: graphs with nd <= 24: small enough for the characteristic-polynomial oracle
ORACLE_CORPUS = ["C3", "C4", "K4", "K33", "prism", "cube"]
#: graphs with nd <= 60 for the determinant-identity corpus
IHARA_CORPUS = ORACLE_CORPUS + ["petersen"]


@pytest.fixture(params=ORACLE_CORPUS)
def small_graph(request):
    return named_graph(request.param)


@pytest.fixture
def k4():
    return named_graph("K4")


@pytest.fixture
def c3():
    return named_graph("C3")


@pytest.fixture(scope="session")
def hyper923():
    return sample_regular_hypergraph(9, 2, 3, 42)


@pytest.fixture(scope="session")
def sampled_graphs():
    """A few sampled instances shared across tests."""
    return {
        (8, 3): sample_regular_graph(8, 3, 5),
        (20, 4): sample_regular_graph(20, 4, 11),
        (30, 3): sample_regular_graph(30, 3, 2),
    }


@pytest.fixture
def eigsh_calls(monkeypatch):
    """The k of every `eigsh` call the partial eigensolver makes."""
    calls = []
    eigsh = nbspectra.spectral.eigsh

    def spy(A, k, **kw):
        calls.append(k)
        return eigsh(A, k=k, **kw)

    monkeypatch.setattr(nbspectra.spectral, "eigsh", spy)
    return calls


def blas_counts() -> list:
    """The thread count of scipy's OpenBLAS, in a list that is empty without it."""
    found = _scipy_openblas()
    return [found[0]()] if found else []


@pytest.fixture
def two_blas_threads():
    """scipy's OpenBLAS at two threads for the test, so that a count left
    pinned at one shows; the old count comes back afterwards."""
    get, put, _ = _scipy_openblas()
    count = get()
    put(2)
    yield blas_counts()
    put(count)
