"""Count the code lines of each module of src/netepi: the lines spanned by
statement and expression nodes of the module's syntax tree, leaving out
docstrings, comment-only lines and blank lines.

    python3 tools/code_lines.py
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "netepi"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    tree = ast.parse(source)
    text = source.splitlines()
    spanned = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.stmt, ast.expr)):
            spanned.update(range(node.lineno, node.end_lineno + 1))
    spanned -= docstring_lines(tree)
    return sum(1 for i in spanned
               if text[i - 1].strip() and not text[i - 1].strip().startswith("#"))


def main() -> int:
    total = 0
    for path in sorted(PACKAGE.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.stem:12s} {count:5d}")
    print(f"{'total':12s} {total:5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
