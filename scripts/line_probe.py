#!/usr/bin/env python3
"""List the statements of the ``cask`` package that no test executes.

Runs the test suite in this process under ``sys.settrace``, records the
lines each ``src/cask`` module executes, and prints one
``<path>:<line>  <source>`` line per statement none of them falls in,
then a count.  Code that only the suite's subprocesses run (the scripts,
``python -m cask``) counts as unexecuted.  Tracing slows the suite
several times over.

Usage: python3 scripts/line_probe.py [pytest arguments]
Without arguments it runs ``tests/`` quietly.  The exit status is the
suite's.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
PACKAGE = REPO / "src" / "cask"


def statement_spans(source: str) -> list[tuple[int, int]]:
    """The ``(first, last)`` lines of each statement of ``source`` that runs
    code, decorators included, in source order.  A function's docstring and
    a ``global`` or ``nonlocal`` declaration run none.  A compound
    statement ran if any line of its span did, since its body runs only
    after its header."""
    tree = ast.parse(source)
    skipped = {id(node.body[0]) for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
               and ast.get_docstring(node) is not None}
    return sorted(
        (min([node.lineno] + [d.lineno for d in
                              getattr(node, "decorator_list", [])]),
         node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, ast.stmt) and id(node) not in skipped
        and not isinstance(node, (ast.Global, ast.Nonlocal)))


def main() -> int:
    hits: dict[str, set[int]] = {str(p): set() for p in PACKAGE.glob("*.py")}
    lines_of: dict[str, set[int] | None] = {}

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in lines_of:
            lines_of[name] = hits.get(str(Path(name).resolve()))
        lines = lines_of[name]
        if lines is None:
            return None

        def local(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return local
        return local

    sys.settrace(trace)
    try:
        status = pytest.main(sys.argv[1:] or [
            "-q", "-p", "no:cacheprovider", str(REPO / "tests")])
    finally:
        sys.settrace(None)
    missed = total = 0
    for path in sorted(hits):
        text = Path(path).read_text()
        source = text.splitlines()
        for first, last in statement_spans(text):
            total += 1
            if hits[path].isdisjoint(range(first, last + 1)):
                missed += 1
                print(f"{Path(path).relative_to(REPO)}:{first}  "
                      f"{source[first - 1].strip()}")
    print(f"{missed} of {total} statements not executed")
    return int(status)


if __name__ == "__main__":
    sys.exit(main())
