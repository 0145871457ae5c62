"""Count the lines and the code lines of Python files.

A code line holds part of a token that is neither a comment nor a
docstring, so blank lines, comment lines and docstring lines are not code
lines. A docstring is a string literal that stands alone as the first
statement of a module, class or function. The output is one line, the
totals over every file named::

    $ python tools/count_lines.py src/erpcoder/*.py
    4749 lines, 2990 code lines
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

TRIVIA = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
          tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_starts(tree: ast.AST) -> set[tuple[int, int]]:
    """The (line, column) where each docstring of ``tree`` starts."""
    starts = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                starts.add((first.lineno, first.col_offset))
    return starts


def count(source: str) -> tuple[int, int]:
    """(lines, code lines) of the Python source ``source``."""
    docstrings = docstring_starts(ast.parse(source))
    code: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type in TRIVIA or tok.start in docstrings:
            continue
        code.update(range(tok.start[0], tok.end[0] + 1))
    return len(source.splitlines()), len(code)


def main(paths: list[str]) -> int:
    if not paths:
        print("usage: count_lines.py FILE...", file=sys.stderr)
        return 2
    totals = [sum(pair) for pair in zip(*(count(Path(p).read_text()) for p in paths))]
    print(f"{totals[0]} lines, {totals[1]} code lines")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
