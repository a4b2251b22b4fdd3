"""Code lines per module: the lines that are not blank, comment or docstring.

    python tools/codelines.py src/algcheck    # one line per module, then the total

A line counts if it holds a token other than a comment, a newline or an
indent.  A docstring, the string that opens a module, class or function
body, does not count on any of its lines; any other string does.  Each
argument is a ``.py`` file or a directory, read recursively in sorted
order.  The last line of standard output is the total.
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def _docstring_lines(tree) -> set:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of lines of ``source`` that are not blank, comment or
    docstring."""
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _LAYOUT:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - _docstring_lines(ast.parse(source)))


def modules(paths) -> list:
    out = []
    for path in map(Path, paths):
        out += sorted(path.rglob("*.py")) if path.is_dir() else [path]
    return out


def main(argv=None) -> int:
    total = 0
    for path in modules(argv if argv is not None else sys.argv[1:]):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d} {path}")
    print(f"{total:6d} total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
