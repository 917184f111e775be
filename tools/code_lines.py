"""Print the code lines of each ``src/minpath/*.py`` module and their total.

    python3 tools/code_lines.py

A code line is a non-blank line that is neither a comment nor part of a
module, class or function docstring. Other string literals count, and so
does a line holding code and a trailing comment.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "minpath"


def code_lines(source: str) -> int:
    skipped: set[int] = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
                if isinstance(body[0].value.value, str):
                    skipped.update(range(body[0].lineno, body[0].end_lineno + 1))
    code: set[int] = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                          tokenize.DEDENT, tokenize.ENDMARKER):
            continue
        code.update(range(token.start[0], token.end[0] + 1))
    return len(code - skipped)


def main() -> int:
    total = 0
    for module in sorted(PACKAGE.glob("*.py")):
        count = code_lines(module.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6,d}  {module.name}")
    print(f"{total:6,d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main())
