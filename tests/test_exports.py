"""Every name the package exports has a user besides the tests.

A name counts as used when src uses it outside its own definition (read
from the syntax tree, so a definition or an import is not a use), or when a
demo or a perfbench file names it.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nbspectra"


def _exports() -> list:
    tree = ast.parse((PACKAGE / "__init__.py").read_text())
    return [alias.asname or alias.name for node in tree.body if isinstance(node, ast.ImportFrom) for alias in node.names]


def _src_uses() -> set:
    """Names read in src outside the top-level definition of the same name."""
    used = set()
    for path in PACKAGE.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else node.attr if isinstance(node, ast.Attribute) else None
                if name is not None and name != owner:
                    used.add(name)
    return used


def test_every_export_has_a_user_outside_the_tests():
    used = _src_uses()
    others = "\n".join(p.read_text() for d in ("demos", "perfbench") for p in sorted((ROOT / d).glob("*.py")))
    unused = [name for name in _exports() if name not in used and not re.search(rf"\b{name}\b", others)]
    assert _exports() and not unused, f"exported but used only by tests: {unused}"
