"""Count the code lines of each module of the sgnspec package.

Run from the root of a checkout:

    python3 tools/code_lines.py [DIR]

DIR defaults to src/sgnspec.  A code line is a line that holds part of a
token other than a comment, and that is not part of a docstring (the
string that opens a module, a class or a function).  Blank lines,
comment lines and docstring lines do not count; a line of code that ends
in a comment does.  Prints one line per module, sorted by name, and the
total.  Standard library only.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in the Python source text."""
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("dir", nargs="?", default="src/sgnspec",
                        help="package directory (default: src/sgnspec)")
    root = Path(parser.parse_args(argv).dir)
    total = 0
    for path in sorted(root.glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:<16} {count:>6}")
    print(f"{'total':<16} {total:>6}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
