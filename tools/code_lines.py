"""Print the code lines of each module of src/zassenhaus, and their total.

    python3 tools/code_lines.py

It may be run from any directory, and uses only the standard library.

A code line holds a token other than a comment or a docstring (the string
that opens a module, class or function body), by the tokenize module;
blank lines and the line breaks of a statement count for nothing.  A token
that spans lines, such as a multi-line string that is not a docstring,
counts each of its lines.  This is the count that ROADMAP's "net lines
removed" is measured in.
"""

from __future__ import annotations

import ast
import io
import os
import tokenize

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "zassenhaus")
_SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
         tokenize.ENDMARKER, tokenize.ENCODING}


def _docstrings(source: str) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    # The (line, column) where each docstring starts and ends.
    spans = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def code_lines(path: str) -> int:
    """The number of code lines of one Python file."""
    with open(path, "rb") as fh:
        source = fh.read()
    docstrings = _docstrings(source.decode("utf-8"))
    lines = set()
    for tok in tokenize.tokenize(io.BytesIO(source).readline):
        if tok.type in _SKIP or any(a <= tok.start and tok.end <= b for a, b in docstrings):
            continue
        lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main() -> None:
    total = 0
    for name in sorted(os.listdir(PACKAGE)):
        if name.endswith(".py"):
            count = code_lines(os.path.join(PACKAGE, name))
            total += count
            print(f"{name:20} {count:5}")
    print(f"{'total':20} {total:5}")


if __name__ == "__main__":
    main()
