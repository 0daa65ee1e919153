"""Print every `raise` statement of src/nbspectra that the test suite does not reach.

Usage, from the repository root:

    python tests/raise_sites.py [pytest arguments]

It runs pytest in this process (by default on the whole suite under tests/,
or on whatever arguments are given) under a stdlib `sys.settrace` line
tracer that watches only the files of src/nbspectra, then prints each
unreached `raise` as `path:line: source` and a one-line summary on stderr.
Worker threads are traced too (`threading.settrace`), but code that tests
run in a fresh interpreter (`conftest.fresh_python`, `fresh_cli`) is not:
a site reached only by a subprocess test is listed as unreached.

pytest does not collect this file (it is not named test_*.py); it is a
check to run by hand, not a test. The line tracer slows the suite down.
Exits with pytest's exit code.
"""

from __future__ import annotations

import ast
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "nbspectra"


def raise_sites() -> dict:
    """{file: {line: first line of its raise statement}}, a statement
    counted on each line it spans, for every .py file of the package."""
    sites = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {}
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Raise):
                lines.update((line, node.lineno) for line in range(node.lineno, node.end_lineno + 1))
        sites[str(path)] = lines
    return sites


def main(argv: list) -> int:
    sites = raise_sites()
    reached: set = set()
    tracers: dict = {}  # co_filename -> the local tracer of that file, or None

    def tracer_for(filename: str):
        key = str(Path(filename).resolve())
        lines = sites.get(key)
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                site = lines.get(frame.f_lineno)
                if site is not None:
                    reached.add((key, site))
            return local

        return local

    def on_call(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in tracers:
            tracers[filename] = tracer_for(filename)
        return tracers[filename]

    sys.path.insert(0, str(PACKAGE.parent))
    import pytest

    start = time.perf_counter()
    threading.settrace(on_call)
    sys.settrace(on_call)
    try:
        code = pytest.main(argv or [str(ROOT / "tests"), "-q", "-p", "no:cacheprovider"])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    elapsed = time.perf_counter() - start

    total = 0
    for filename, lines in sites.items():
        source = Path(filename).read_text(encoding="utf-8").splitlines()
        for site in sorted(set(lines.values())):
            total += 1
            if (filename, site) not in reached:
                print(f"{Path(filename).relative_to(ROOT)}:{site}: {source[site - 1].strip()}")
    print(
        f"{total - len(reached)} of {total} raise statements unreached; pytest exit {int(code)}; {elapsed:.0f} s",
        file=sys.stderr,
    )
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
