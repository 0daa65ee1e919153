"""Each rule about what a graph is has one owner module.

graphs.py alone tells the graph kinds apart: every other module reads a
graph's `kind` or `graphs.GRAPH_KINDS`, never its class. Read from the
syntax tree, so a comment or a docstring does not count.
"""

import ast
from pathlib import Path

from nbspectra.graphs import GRAPH_KINDS

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "nbspectra"
GRAPH_CLASSES = {cls.__name__ for cls in GRAPH_KINDS.values()}


def _class_tests(tree) -> list:
    """(line, class name) of every isinstance or issubclass call on a graph class."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) in ("isinstance", "issubclass"):
            for arg in node.args[1:]:
                for name in ast.walk(arg):
                    label = name.id if isinstance(name, ast.Name) else name.attr if isinstance(name, ast.Attribute) else None
                    if label in GRAPH_CLASSES:
                        found.append((node.lineno, label))
    return found


def test_only_graphs_py_tests_a_graph_class():
    offenders = {
        path.name: hits
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "graphs.py" and (hits := _class_tests(ast.parse(path.read_text())))
    }
    assert not offenders, f"isinstance on a graph class outside graphs.py: {offenders}"


def test_the_class_test_finds_one():
    code = "def f(g):\n    return isinstance(g, (int, graphs.RsbmGraph))\n"
    assert _class_tests(ast.parse(code)) == [(2, "RsbmGraph")]
