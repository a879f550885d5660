"""Count the code lines of Python sources: lines that hold a token other than a comment or a docstring.

Usage:

    python tests/code_lines.py src/squintsim

prints one ``count path`` line per module, sorted by path, and a ``count total``
line. Blank lines, comment lines and the lines of a module, class or function
docstring do not count; a statement written over several lines counts each of
them, and a line holding code and a comment counts once.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

#: Tokens that are no code: layout, comments and the end of the file.
_NON_CODE = {
    tokenize.COMMENT,
    tokenize.NL,
    tokenize.NEWLINE,
    tokenize.INDENT,
    tokenize.DEDENT,
    tokenize.ENDMARKER,
    tokenize.ENCODING,
}


def _docstring_lines(tree: ast.Module) -> set[int]:
    """The lines of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def count_code_lines(source: str) -> int:
    """Number of lines of ``source`` that hold a token other than a comment or a docstring."""
    docstrings = _docstring_lines(ast.parse(source))
    lines = set()
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in _NON_CODE or (token.type == tokenize.STRING and token.start[0] in docstrings):
            continue
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines)


def main(argv) -> int:
    if len(argv) != 1:
        print("usage: python tests/code_lines.py PACKAGE_DIR", file=sys.stderr)
        return 1
    total = 0
    for path in sorted(Path(argv[0]).rglob("*.py")):
        count = count_code_lines(path.read_text(encoding="utf-8"))
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
