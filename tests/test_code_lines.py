"""Tests for tools/code_lines.py, the package's code-line counter."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

# 7 code lines: the import, the constant (two lines), the class line,
# the def line, its return (two lines); not the docstrings, the comments
# or the blank lines
_FIXTURE = '''"""Module docstring,
on two lines."""

import math  # a comment after code counts

# a comment line does not
LIMIT = (1 +
         2)


class Thing:
    """Class docstring."""

    def area(self, r):
        """Method docstring,

        with a blank line inside.
        """
        return (math.pi
                * r * r)
'''


def test_fixture_count():
    assert code_lines.code_lines(_FIXTURE) == 7


def test_a_string_that_is_not_a_docstring_counts():
    assert code_lines.code_lines('x = 1\ny = """a\nb"""\n') == 3


def test_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(_FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", "7"], ["b.py", "1"], ["total", "8"]]
