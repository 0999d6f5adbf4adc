"""Count the settable values of the ``cask`` package.

A settable value is a parameter of a ``def`` or ``lambda`` (``self`` and
``cls`` excepted, ``*args`` and ``**kwargs`` included) or an annotated
field of a ``@dataclass``.  Fewer settable values with the same rows is
the package's measure of a smaller design.

Usage: python3 scripts/settable_values.py
Prints one ``<count> <module>`` line per module of ``src/cask``, then the
total.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "cask"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for deco in node.decorator_list:
        target = deco.func if isinstance(deco, ast.Call) else deco
        name = target.attr if isinstance(target, ast.Attribute) \
            else getattr(target, "id", None)
        if name == "dataclass":
            return True
    return False


def count_settable(source: str) -> int:
    """Settable values defined in one module's ``source``."""
    total = 0
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            total += sum(name not in ("self", "cls") for name in names)
        elif isinstance(node, ast.ClassDef) and _is_dataclass(node):
            total += sum(isinstance(stmt, ast.AnnAssign) for stmt in node.body)
    return total


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        n = count_settable(path.read_text())
        total += n
        print(f"{n:5d} {path.stem}")
    print(f"{total:5d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
