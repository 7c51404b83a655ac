"""Count code lines in Python modules: lines that are not blank, comment or docstring.

A line counts when it holds at least one token that is neither a comment nor a
docstring, so a statement spanning three lines counts three.  Docstrings are
the string-literal first statements of modules, classes and functions, found
with ``ast``; comments and blank lines are found with ``tokenize``.

    python tools/code_lines.py [directory]   # default: src/simpbound

prints the count per module, then the total; anything but one directory that
holds modules exits 2 with a usage line on standard error.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_lines(tree: ast.AST) -> set[int]:
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that hold code."""
    docstrings = _docstring_lines(ast.parse(source))
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE and tok.start[0] not in docstrings:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines)


def main(argv: list[str]) -> int:
    root = Path(argv[0] if argv else "src/simpbound")
    paths = sorted(root.glob("*.py"))
    if len(argv) > 1 or not paths:
        print(f"usage: python tools/code_lines.py [directory of modules] (got {argv})", file=sys.stderr)
        return 2
    total = 0
    for path in paths:
        count = code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total ({root})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
