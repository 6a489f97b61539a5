"""tools/code_lines.py: which lines of a module count as code."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_lines)

SOURCE = '''"""A module docstring
over two lines."""

import math  # a trailing comment does not hide the statement

# a comment-only line


class Box:
    """A class docstring."""

    size = 1


def area(width,
         height):
    """A function docstring
    over two lines."""
    # inside a body
    return (width
            * height)
'''


def test_docstrings_comments_and_blank_lines_not_counted():
    # import, class, size, the def's two lines and the return's two lines
    assert code_lines.code_lines(SOURCE) == 7


def test_each_line_of_a_multi_line_statement_counts():
    assert code_lines.code_lines("x = [\n    1,\n\n    # two\n    2,\n]\n") == 4
    assert code_lines.code_lines("x = 1\n") == 1


def test_only_leading_string_statements_are_docstrings():
    # a string statement after the first is an expression like any other
    assert code_lines.code_lines('"""doc"""\nx = 1\n"""not a docstring"""\n') == 2
    assert code_lines.code_lines('def f():\n    x = 1\n    """no"""\n') == 3


def test_main_prints_each_module_and_the_total(capsys):
    assert code_lines.main() == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    names = sorted(p.stem for p in (ROOT / "src" / "netepi").glob("*.py"))
    assert [row[0] for row in rows] == names + ["total"]
    assert int(rows[-1][1]) == sum(int(row[1]) for row in rows[:-1])
