"""Serialization: graphs, spectra, histograms and reports.

One self-describing JSON-shaped format (``"format": 1``) covers all object
types; files are UTF-8 and written canonically (sorted keys, fixed
separators) so equal objects produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from pathlib import Path

import numpy as np

from .errors import InvariantError, ParseError
from .graphs import RegularGraph, RegularHypergraph, RsbmGraph
from .measures import EmpiricalMeasure, histogram
from .spectral import LiftedSpectrum

FORMAT_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_json(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ParseError(f"cannot read {path}: {e}") from e
    try:
        obj = json.loads(raw)
    except json.JSONDecodeError as e:
        raise ParseError(f"{path}: invalid JSON at line {e.lineno}, column {e.colno}") from e
    if not isinstance(obj, dict):
        raise ParseError(f"{path}: expected a JSON object at top level")
    if _require_int(obj, "format", path) != FORMAT_VERSION:
        raise ParseError(f"{path}: unsupported format {obj['format']!r}")
    return obj


def _require(obj: dict, key: str, path):
    if key not in obj:
        raise ParseError(f"{path}: missing field {key!r}")
    return obj[key]


def _require_int(obj: dict, key: str, path) -> int:
    """A required field that must be a JSON integer: json reads 10.9 as a
    float and true as a bool, and neither is truncated to an int."""
    value = _require(obj, key, path)
    if type(value) is not int:
        raise ParseError(f"{path}: field {key!r} must be an integer, got {value!r}")
    return value


def graph_document(g) -> dict:
    if isinstance(g, RsbmGraph):
        return {
            "format": FORMAT_VERSION,
            "model": "rsbm",
            "n": g.n,
            "d": g.d1 + g.d2,
            "d1": g.d1,
            "d2": g.d2,
            "sigma": g.sigma.tolist(),
            "edges": g.graph.edges.tolist(),
        }
    if isinstance(g, RegularHypergraph):
        return {
            "format": FORMAT_VERSION,
            "model": "hypergraph",
            "n": g.n,
            "d": g.d,
            "k": g.k,
            "hyperedges": g.hyperedges.tolist(),
        }
    if isinstance(g, RegularGraph):
        return {
            "format": FORMAT_VERSION,
            "model": "regular",
            "n": g.n,
            "d": g.d,
            "edges": g.edges.tolist(),
        }
    raise TypeError(f"cannot serialize {type(g).__name__}")


def write_graph(g, path) -> None:
    _write_text(path, _dumps(graph_document(g)))


def _int_array(value, ndim: int, dtype=np.int64) -> np.ndarray:
    """A list of integers (ndim 1) or of equal-length integer rows (ndim 2),
    or the empty list, as a `dtype` array. Every entry must be a JSON integer,
    as in `_require_int`, and fit the dtype."""
    a = np.array(value, dtype=dtype)
    if a.ndim != ndim and a.shape != (0,):
        raise ValueError(f"not a {ndim}-d list of integers")
    entries = value if ndim == 1 else itertools.chain.from_iterable(value)
    if not set(map(type, entries)) <= {int}:
        raise ValueError("an entry is not an integer")
    return a


def read_graph(path):
    """Load a graph/hypergraph/RSBM file of format 1 (else ParseError); the
    full degree audit runs before the object is returned (InvariantError on
    failure)."""
    obj = _load_json(path)
    model = _require(obj, "model", path)
    try:
        if model == "regular":
            g = RegularGraph(
                n=_require_int(obj, "n", path),
                d=_require_int(obj, "d", path),
                edges=_int_array(_require(obj, "edges", path), 2),
            )
        elif model == "hypergraph":
            g = RegularHypergraph(
                n=_require_int(obj, "n", path),
                d=_require_int(obj, "d", path),
                k=_require_int(obj, "k", path),
                hyperedges=_int_array(_require(obj, "hyperedges", path), 2),
            )
        elif model == "rsbm":
            n = _require_int(obj, "n", path)
            d1 = _require_int(obj, "d1", path)
            d2 = _require_int(obj, "d2", path)
            g = RsbmGraph(
                n=n,
                d1=d1,
                d2=d2,
                sigma=_int_array(_require(obj, "sigma", path), 1, np.int8),
                graph=RegularGraph(
                    n=n,
                    d=d1 + d2,
                    edges=_int_array(_require(obj, "edges", path), 2),
                ),
            )
        else:
            raise ParseError(f"{path}: unknown model {model!r}")
    except (TypeError, ValueError, OverflowError) as e:
        if isinstance(e, (ParseError, InvariantError)):
            raise
        raise ParseError(f"{path}: malformed field ({e})") from e
    g.validate()
    return g


#: per-pair record fields of a spectrum file, in LiftedSpectrum terms
_PAIR_FIELDS = {
    "lambda": lambda s: s.lams,
    "mu_re": lambda s: s.mus.real,
    "mu_im": lambda s: s.mus.imag,
    "mu_prime_re": lambda s: s.mus_prime.real,
    "mu_prime_im": lambda s: s.mus_prime.imag,
    "residual_u": lambda s: s.residual_u,
    "residual_u_prime": lambda s: s.residual_u_prime,
    "ratio_v": lambda s: s.ratio_v,
    "ratio_u": lambda s: s.ratio_u,
    "ratio_u_prime": lambda s: s.ratio_u_prime,
    "degenerate": lambda s: s.degenerate,
}


def write_spectrum(spec: LiftedSpectrum, path) -> None:
    columns = [get(spec).tolist() for get in _PAIR_FIELDS.values()]
    doc = {
        "format": FORMAT_VERSION,
        "model": spec.kind,
        "params": {
            "n": spec.n,
            "d": spec.d,
            "k": spec.k,
            "d1": spec.d1,
            "d2": spec.d2,
        },
        "pairs": [dict(zip(_PAIR_FIELDS, rec)) for rec in zip(*columns)],
    }
    _write_text(path, _dumps(doc))


def read_spectrum(path) -> LiftedSpectrum:
    """Load a spectrum file; it carries values and diagnostics but no
    eigenvectors (u/w lifts need the original graph).

    ParseError unless the file is format 1, an RSBM's d1 and d2 are integers
    and every pair record has every field; InvariantError unless the model is
    known, k is given exactly for hypergraphs, d = d1 + d2 for an RSBM and d1
    and d2 are null otherwise, there are n pairs, every value is finite and
    lambda is descending.
    """
    obj = _load_json(path)
    params = _require(obj, "params", path)
    kind = _require(obj, "model", path)
    if kind not in ("regular", "hypergraph", "rsbm"):
        raise InvariantError(f"{path}: unknown spectrum model {kind!r}")
    d = _require_int(params, "d", path)
    k = params.get("k")
    k_ok = (isinstance(k, int) and k >= 2) if kind == "hypergraph" else k is None
    if not k_ok:
        raise InvariantError(f"{path}: k = {k!r} is inconsistent with model {kind!r}")
    d1, d2 = params.get("d1"), params.get("d2")
    if kind == "rsbm":
        d1, d2 = _require_int(params, "d1", path), _require_int(params, "d2", path)
    d_ok = d1 + d2 == d if kind == "rsbm" else d1 is None and d2 is None
    if not d_ok:
        raise InvariantError(f"{path}: d1 = {d1!r}, d2 = {d2!r} are inconsistent with model {kind!r}, d = {d}")
    records = _require(obj, "pairs", path)
    try:
        col = {
            key: np.asarray([(bool if key == "degenerate" else float)(rec[key]) for rec in records])
            for key in _PAIR_FIELDS
        }
    except (KeyError, TypeError, ValueError) as e:
        raise ParseError(f"{path}: malformed pair record ({e})") from e
    mus, mus_prime = (col[f"{name}_re"].astype(np.complex128) for name in ("mu", "mu_prime"))
    mus.imag, mus_prime.imag = col["mu_im"], col["mu_prime_im"]
    spec = LiftedSpectrum(
        kind=kind,
        n=_require_int(params, "n", path),
        d=d,
        k=k,
        lams=col["lambda"],
        mus=mus,
        mus_prime=mus_prime,
        degenerate=col["degenerate"],
        residual_u=col["residual_u"],
        residual_u_prime=col["residual_u_prime"],
        ratio_v=col["ratio_v"],
        ratio_u=col["ratio_u"],
        ratio_u_prime=col["ratio_u_prime"],
        d1=d1,
        d2=d2,
    )
    if len(spec.lams) != spec.n:
        raise InvariantError(f"{path}: {len(spec.lams)} pairs for n = {spec.n}")
    values = np.concatenate([col[key] for key in _PAIR_FIELDS if key != "degenerate"])
    if not np.all(np.isfinite(values)):
        raise InvariantError(f"{path}: non-finite value in a pair record")
    if np.any(np.diff(spec.lams) > 0):
        raise InvariantError(f"{path}: lambda is not in descending order")
    return spec


def write_histogram(m: EmpiricalMeasure, path, bins=None) -> None:
    """CSV with header bin_left,bin_right,count,density."""
    edges, counts, dens = histogram(m, bins=bins)
    lines = ["bin_left,bin_right,count,density"]
    for i in range(len(counts)):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{int(counts[i])},{dens[i]!r}")
    _write_text(path, "\n".join(lines) + "\n")


def write_report(report: dict, path) -> None:
    _write_text(path, _dumps(report))
