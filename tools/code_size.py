"""Count the code lines and tokens of the detstrata sources.

Docstrings, comments and blank lines are left out: a code line is a line
that holds at least one counted token, and the tokens are those of
``tokenize`` without comments, line breaks, indentation markers and the
string tokens of docstrings.  Prints one row per module of ``src/detstrata``
and a total; a path argument counts the ``*.py`` files of that directory
instead.  Stdlib only.

    python tools/code_size.py [DIRECTORY]
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
           tokenize.ENDMARKER, tokenize.ENCODING}


def _docstring_spans(tree: ast.Module) -> list[tuple[tuple[int, int], tuple[int, int]]]:
    """(start, end) positions of the module's, each class's and each function's docstring."""
    spans = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                spans.append(((first.lineno, first.col_offset), (first.end_lineno, first.end_col_offset)))
    return spans


def count(source: str) -> tuple[int, int]:
    """(code lines, tokens) of one Python source text."""
    spans = _docstring_spans(ast.parse(source))
    lines: set[int] = set()
    tokens = 0
    for token in tokenize.generate_tokens(io.StringIO(source).readline):
        if token.type in SKIPPED:
            continue
        if token.type == tokenize.STRING and any(start <= token.start < end for start, end in spans):
            continue
        tokens += 1
        lines.update(range(token.start[0], token.end[0] + 1))
    return len(lines), tokens


def main(argv: list[str]) -> int:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent / "src" / "detstrata"
    total_lines = total_tokens = 0
    print(f"{'module':<20} {'lines':>6} {'tokens':>7}")
    for path in sorted(root.glob("*.py")):
        lines, tokens = count(path.read_text(encoding="utf-8"))
        total_lines += lines
        total_tokens += tokens
        print(f"{path.name:<20} {lines:>6} {tokens:>7}")
    print(f"{'total':<20} {total_lines:>6} {total_tokens:>7}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
