"""Count the code lines of each module of the maxplus package.

    python ci/loc.py

A code line is a line of source that holds a token of code: blank lines,
comment lines and the lines of module, class and function docstrings do
not count.  A statement that spans several lines counts each of them.
Prints one line per module of src/maxplus and their total; always exits
0.  Standard library only.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "maxplus"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in source."""
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type not in NOT_CODE:
            lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source)))


total = 0
for path in sorted(PACKAGE.glob("*.py")):
    count = code_lines(path.read_text())
    total += count
    print(f"{path.name:<14} {count:>5}")
print(f"{'total':<14} {total:>5}")
