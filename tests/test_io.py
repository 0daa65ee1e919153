import json

import numpy as np
import pytest

from nbspectra.cli import main as cli_main
from nbspectra.errors import InvariantError, ParseError
from nbspectra.graphs import sample_regular_graph, sample_regular_hypergraph, sample_rsbm
from nbspectra.io import (
    graph_document,
    read_graph,
    read_spectrum,
    write_graph,
    write_histogram,
    write_report,
    write_spectrum,
)
from nbspectra.measures import EmpiricalMeasure, histogram, project_real_parts
from nbspectra.spectral import full_lifted_spectrum

from conftest import named_graph
from oracles import loop_gen_document


def test_graph_round_trip(tmp_path, k4):
    p = tmp_path / "k4.json"
    write_graph(k4, p)
    assert read_graph(p) == k4


def test_hypergraph_round_trip(tmp_path):
    h = sample_regular_hypergraph(12, 3, 3, 1)
    p = tmp_path / "h.json"
    write_graph(h, p)
    assert read_graph(p) == h


def test_rsbm_round_trip(tmp_path):
    g = sample_rsbm(16, 2, 1, 1)
    p = tmp_path / "r.json"
    write_graph(g, p)
    assert read_graph(p) == g


def test_write_is_deterministic(tmp_path):
    g = sample_regular_graph(20, 3, 9)
    p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
    write_graph(g, p1)
    write_graph(g, p2)
    assert p1.read_bytes() == p2.read_bytes()


def test_bad_degree_file_rejected(tmp_path):
    g = sample_regular_graph(10, 3, 0)
    doc = json.loads((lambda p: (write_graph(g, p), p.read_text())[1])(tmp_path / "g.json"))
    doc["edges"] = doc["edges"][:-1]  # drop one edge: a vertex now has degree d-1
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    with pytest.raises(InvariantError):
        read_graph(bad)


def test_truncated_file_rejected(tmp_path):
    g = sample_regular_graph(10, 3, 0)
    p = tmp_path / "g.json"
    write_graph(g, p)
    trunc = tmp_path / "trunc.json"
    trunc.write_text(p.read_text()[: len(p.read_text()) // 2])
    with pytest.raises(ParseError):
        read_graph(trunc)


def test_missing_field_rejected(tmp_path):
    p = tmp_path / "m.json"
    p.write_text('{"format": 1, "model": "regular", "n": 4}')
    with pytest.raises(ParseError):
        read_graph(p)


def test_unknown_model_rejected(tmp_path):
    p = tmp_path / "u.json"
    p.write_text('{"format": 1, "model": "weighted", "n": 4, "d": 3, "edges": []}')
    with pytest.raises(ParseError):
        read_graph(p)


@pytest.mark.parametrize(
    "model,field,value",
    [
        ("regular", "edges", [[0, "x"]]),
        ("regular", "edges", [[0, None]]),
        ("regular", "edges", [[0, [1]]]),
        ("regular", "edges", [0, 1]),
        ("regular", "edges", [[0, float("inf")]]),
        ("hypergraph", "hyperedges", [[0, 1, 2], [3, 4]]),
        ("rsbm", "edges", {"x": 1}),
        # a JSON float or boolean where an integer belongs is malformed, never truncated
        pytest.param("regular", "edges", lambda E: [[u + 0.4, v + 0.3] for u, v in E], id="regular-edges-float"),
        ("regular", "n", 10.9),
        ("regular", "d", 3.0),
        pytest.param("regular", "edges", lambda E: [[x == 1 or x for x in e] for e in E], id="regular-edges-true"),
        ("hypergraph", "k", 3.0),
        pytest.param("hypergraph", "hyperedges", lambda E: [[float(x) for x in e] for e in E], id="hypergraph-float"),
        pytest.param("rsbm", "sigma", lambda s: [1.2 * x for x in s], id="rsbm-sigma-float"),
        ("rsbm", "d1", True),
        ("regular", "format", 2),
        ("hypergraph", "format", "1"),
    ],
)
def test_malformed_graph_field_rejected(tmp_path, model, field, value):
    g = {
        "regular": sample_regular_graph(10, 3, 0),
        "hypergraph": sample_regular_hypergraph(12, 3, 3, 1),
        "rsbm": sample_rsbm(16, 2, 1, 1),
    }[model]
    p = tmp_path / "g.json"
    write_graph(g, p)
    doc = json.loads(p.read_text())
    doc[field] = value(doc[field]) if callable(value) else value
    p.write_text(json.dumps(doc))
    with pytest.raises(ParseError):
        read_graph(p)
    assert cli_main(["verify", "--in", str(p), "--z", "0.3+0.4i"]) == 2


@pytest.mark.parametrize(
    "corrupt,error",
    [
        pytest.param(lambda doc: doc.update(d=99), InvariantError, id="d-wrong"),
        pytest.param(lambda doc: doc.update(d="x"), ParseError, id="d-not-int"),
        pytest.param(lambda doc: doc.pop("d"), ParseError, id="d-missing"),
    ],
)
def test_rsbm_graph_degree_field_checked(tmp_path, capsys, corrupt, error):
    # an RSBM file's d used to be rebuilt from d1 + d2, so all three loaded
    p = tmp_path / "g.json"
    write_graph(sample_rsbm(16, 2, 1, 1), p)
    doc = json.loads(p.read_text())
    corrupt(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(error):
        read_graph(p)
    capsys.readouterr()
    assert cli_main(["spectrum", "--in", str(p), "--out", str(tmp_path / "s.json")]) == 2
    assert error.__name__ in capsys.readouterr().err


def test_spectrum_round_trip(tmp_path):
    g = sample_regular_graph(16, 3, 2)
    spec = full_lifted_spectrum(g)
    p = tmp_path / "s.json"
    write_spectrum(spec, p)
    back = read_spectrum(p)
    assert back.kind == "regular" and back.n == 16 and back.d == 3 and back.k is None
    assert len(back.lams) == len(spec.lams)
    for name in ("lams", "mus", "mus_prime", "ratio_u", "degenerate"):
        assert np.array_equal(getattr(back, name), getattr(spec, name)), name
    # values loaded from a file can still be projected
    m = project_real_parts(back, rescale="none", exclude_trivial=True)
    assert len(m) == 30


def _drop_pairs(doc):
    doc["pairs"] = doc["pairs"][:-1]


def _nan_value(doc):
    doc["pairs"][3]["ratio_u"] = float("nan")


def _swap_lambdas(doc):
    doc["pairs"][0], doc["pairs"][-1] = doc["pairs"][-1], doc["pairs"][0]


def _unknown_model(doc):
    doc["model"] = "weighted"


def _k_on_regular(doc):
    doc["params"]["k"] = 3


def _drop_diagnostic(doc):
    del doc["pairs"][5]["residual_u_prime"]


def _float_n(doc):
    doc["params"]["n"] = 16.0


def _bool_d(doc):
    doc["params"]["d"] = True


def _d1_on_regular(doc):
    doc["params"]["d1"] = 2


def _format_2(doc):
    doc["format"] = 2


@pytest.mark.parametrize(
    "corrupt, error",
    [
        pytest.param(corrupt, error, id=corrupt.__name__)
        for corrupt, error in [
            (_drop_pairs, InvariantError),
            (_nan_value, InvariantError),
            (_swap_lambdas, InvariantError),
            (_unknown_model, InvariantError),
            (_k_on_regular, InvariantError),
            (_drop_diagnostic, ParseError),
            (_float_n, ParseError),
            (_bool_d, ParseError),
            (_d1_on_regular, InvariantError),
            (_format_2, ParseError),
        ]
    ],
)
def test_spectrum_invariants_enforced(tmp_path, corrupt, error):
    p = tmp_path / "s.json"
    write_spectrum(full_lifted_spectrum(sample_regular_graph(16, 3, 2)), p)
    doc = json.loads(p.read_text())
    corrupt(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(error):
        read_spectrum(p)


@pytest.mark.parametrize(
    "corrupt, error",
    [
        pytest.param(lambda doc: doc["params"].update(d1=12.5), ParseError, id="rsbm-d1-float"),
        pytest.param(lambda doc: doc["params"].update(d2=None), ParseError, id="rsbm-d2-null"),
        pytest.param(lambda doc: doc["params"].update(d1=11), InvariantError, id="rsbm-d-mismatch"),
    ],
)
def test_rsbm_spectrum_fields_checked(tmp_path, corrupt, error):
    p = tmp_path / "s.json"
    write_spectrum(full_lifted_spectrum(sample_rsbm(16, 2, 1, 1)), p)
    back = read_spectrum(p)
    assert (back.d, back.d1, back.d2) == (3, 2, 1)
    doc = json.loads(p.read_text())
    corrupt(doc)
    p.write_text(json.dumps(doc))
    with pytest.raises(error):
        read_spectrum(p)


def test_edited_rsbm_spectrum_exits_2(tmp_path, capsys):
    # an RSBM spectrum file edited to d1 = 12.5 and format "junk" used to load
    s = tmp_path / "s.json"
    write_spectrum(full_lifted_spectrum(sample_rsbm(16, 2, 1, 1)), s)
    doc = json.loads(s.read_text())
    doc["params"]["d1"] = 12.5
    doc["format"] = "junk"
    s.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli_main(["project", "--in", str(s), "--out", str(tmp_path / "h.csv")]) == 2
    assert "ParseError" in capsys.readouterr().err
    doc["format"] = 1
    s.write_text(json.dumps(doc))
    assert cli_main(["project", "--in", str(s), "--out", str(tmp_path / "h.csv")]) == 2
    assert "ParseError" in capsys.readouterr().err


def test_hypergraph_spectrum_requires_k(tmp_path):
    p = tmp_path / "s.json"
    write_spectrum(full_lifted_spectrum(sample_regular_hypergraph(9, 2, 3, 1)), p)
    assert read_spectrum(p).k == 3
    doc = json.loads(p.read_text())
    doc["params"]["k"] = None
    p.write_text(json.dumps(doc))
    with pytest.raises(InvariantError):
        read_spectrum(p)


def test_spectrum_loaded_pairs_have_no_vectors(tmp_path):
    g = sample_regular_graph(8, 3, 5)
    p = tmp_path / "s.json"
    write_spectrum(full_lifted_spectrum(g), p)
    back = read_spectrum(p)
    assert back.V is None


def test_histogram_csv(tmp_path):
    m = EmpiricalMeasure(np.linspace(-1, 1, 101))
    p = tmp_path / "h.csv"
    write_histogram(m, p, bins=10)
    lines = p.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count,density"
    assert len(lines) == 11
    counts = [int(line.split(",")[2]) for line in lines[1:]]
    assert sum(counts) == 101
    # every cell is a plain number that reads back to histogram()'s value, bit for bit
    edges, _, dens = histogram(m, bins=10)
    cells = [[float(cell) for cell in line.split(",")] for line in lines[1:]]
    assert [row[0] for row in cells] + [cells[-1][1]] == edges.tolist()
    assert [row[3] for row in cells] == dens.tolist()


def test_graph_document_rejects_a_non_graph(k4):
    with pytest.raises(TypeError, match="cannot serialize"):
        graph_document({"n": 4, "d": 3, "edges": k4.edges})


def test_report_with_nan_is_not_written(tmp_path):
    # NaN and Infinity are not JSON, and read_spectrum rejects them
    p = tmp_path / "r.json"
    for bad in (float("nan"), float("inf")):
        with pytest.raises(ValueError, match="JSON compliant"):
            write_report({"a": [1.0, bad]}, p)
        assert not p.exists()


def test_report_round_trip(tmp_path):
    p = tmp_path / "r.json"
    write_report({"b": 2, "a": [1, 2]}, p)
    assert json.loads(p.read_text()) == {"a": [1, 2], "b": 2}


@pytest.mark.parametrize(
    "model,params",
    [
        ("regular", {"n": 50, "d": 4}),
        ("regular", {"n": 16, "d": 14}),
        ("hypergraph", {"n": 90, "d": 3, "k": 3}),
        ("hypergraph", {"n": 60, "d": 2, "k": 3}),
        ("rsbm", {"n": 60, "d1": 2, "d2": 9}),
        ("rsbm", {"n": 400, "d1": 12, "d2": 4}),
    ],
)
def test_gen_file_matches_loop_oracle(tmp_path, model, params):
    for seed in range(3):
        out = tmp_path / f"{seed}.json"
        flags = [x for key, value in params.items() for x in (f"--{key}", str(value))]
        assert cli_main(["gen", "--model", model, *flags, "--seed", str(seed), "--out", str(out)]) == 0
        doc = loop_gen_document(model, seed=seed, **params)
        assert out.read_bytes() == (json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n").encode()
