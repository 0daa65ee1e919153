"""Serialization: graphs, spectra, histograms and reports.

One self-describing JSON-shaped format (``"format": 1``) covers all object
types; files are UTF-8 and written canonically (sorted keys, fixed
separators) so equal objects produce byte-identical files.
"""

from __future__ import annotations

import itertools
import json
from dataclasses import fields
from pathlib import Path

import numpy as np

from .errors import InvariantError, ParseError
from .graphs import GRAPH_KINDS
from .measures import EmpiricalMeasure, histogram
from .spectral import LiftedSpectrum

FORMAT_VERSION = 1


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), allow_nan=False) + "\n"


def _write_text(path, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _load_json(path) -> dict:
    try:
        raw = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
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
    """A graph's file as a JSON document: its kind as "model" and every
    field, arrays as nested lists. TypeError for anything but a graph."""
    if GRAPH_KINDS.get(getattr(g, "kind", None)) is not type(g):
        raise TypeError(f"cannot serialize {type(g).__name__}")
    doc = {"format": FORMAT_VERSION, "model": g.kind}
    for f in fields(g):
        value = getattr(g, f.name)
        doc[f.name] = value.tolist() if isinstance(value, np.ndarray) else value
    return doc


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


#: how each array field of a graph file is read: (ndim, dtype)
_GRAPH_ARRAYS = {"edges": (2, np.int64), "hyperedges": (2, np.int64), "sigma": (1, np.int8)}


def read_graph(path):
    """Load a graph/hypergraph/RSBM file of format 1 (else ParseError); the
    full degree audit runs before the object is returned (InvariantError on
    failure)."""
    obj = _load_json(path)
    model = _require(obj, "model", path)
    cls = GRAPH_KINDS.get(model) if isinstance(model, str) else None
    if cls is None:
        raise ParseError(f"{path}: unknown model {model!r}")
    try:
        g = cls(
            **{
                f.name: _int_array(_require(obj, f.name, path), *_GRAPH_ARRAYS[f.name])
                if f.name in _GRAPH_ARRAYS
                else _require_int(obj, f.name, path)
                for f in fields(cls)
            }
        )
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


def _pair_value(rec: dict, key: str):
    """A pair record's field: a JSON bool for degenerate, a JSON number (not
    a bool) for every other; as in `_require_int`, nothing is converted."""
    value, flag = rec[key], key == "degenerate"
    if type(value) not in ((bool,) if flag else (int, float)):
        raise TypeError(f"field {key!r} must be a JSON {'bool' if flag else 'number'}, got {value!r}")
    return value


def read_spectrum(path) -> LiftedSpectrum:
    """Load a spectrum file; it carries values and diagnostics but no
    eigenvectors (u/w lifts need the original graph).

    ParseError unless the file is UTF-8 JSON of format 1, params is an
    object, an RSBM's d1 and d2 are integers and every pair record has every
    field, a JSON bool for degenerate and a JSON number for the others;
    InvariantError unless the model is known, k is given exactly for
    hypergraphs, d = d1 + d2 for an RSBM and d1 and d2 are null otherwise,
    there are n pairs, every value is finite and lambda is descending.
    """
    obj = _load_json(path)
    params = _require(obj, "params", path)
    if not isinstance(params, dict):
        raise ParseError(f"{path}: field 'params' must be an object, got {params!r}")
    kind = _require(obj, "model", path)
    if not (isinstance(kind, str) and kind in GRAPH_KINDS):
        raise InvariantError(f"{path}: unknown spectrum model {kind!r}")
    n, d = _require_int(params, "n", path), _require_int(params, "d", path)
    if n < 1:
        raise InvariantError(f"{path}: n = {n} leaves no eigenvalue")
    # a spectrum carries each parameter its kind's graph has, and null for the others
    has = {f.name for f in fields(GRAPH_KINDS[kind])}
    k = params.get("k")
    k_ok = (isinstance(k, int) and k >= 2) if "k" in has else k is None
    if not k_ok:
        raise InvariantError(f"{path}: k = {k!r} is inconsistent with model {kind!r}")
    d1, d2 = params.get("d1"), params.get("d2")
    if "d1" in has:
        d1, d2 = _require_int(params, "d1", path), _require_int(params, "d2", path)
    d_ok = d1 + d2 == d if "d1" in has else d1 is None and d2 is None
    if not d_ok:
        raise InvariantError(f"{path}: d1 = {d1!r}, d2 = {d2!r} are inconsistent with model {kind!r}, d = {d}")
    records = _require(obj, "pairs", path)
    try:
        col = {
            key: np.asarray([_pair_value(rec, key) for rec in records], bool if key == "degenerate" else np.float64)
            for key in _PAIR_FIELDS
        }
    except (KeyError, TypeError, ValueError, OverflowError) as e:
        raise ParseError(f"{path}: malformed pair record ({e})") from e
    mus, mus_prime = (col[f"{name}_re"].astype(np.complex128) for name in ("mu", "mu_prime"))
    mus.imag, mus_prime.imag = col["mu_im"], col["mu_prime_im"]
    spec = LiftedSpectrum(
        kind=kind,
        n=n,
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
    """CSV with header bin_left,bin_right,count,density; each float cell is
    the shortest decimal that reads back to the same double."""
    edges, counts, dens = (a.tolist() for a in histogram(m, bins=bins))
    lines = ["bin_left,bin_right,count,density"]
    for i in range(len(counts)):
        lines.append(f"{edges[i]!r},{edges[i + 1]!r},{counts[i]},{dens[i]!r}")
    _write_text(path, "\n".join(lines) + "\n")


def write_report(report: dict, path) -> None:
    _write_text(path, _dumps(report))
