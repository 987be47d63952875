"""Count the code lines and tokens of the detstrata sources.

Docstrings, comments and blank lines are left out: a code line is a line
that holds at least one counted token, and the tokens are those of
``tokenize`` without comments, line breaks, indentation markers and the
string tokens of docstrings.  Prints one row per module of ``src/detstrata``
and a total; a path argument counts the ``*.py`` files of that directory
instead.  With a second directory, each row gives the lines and the tokens
of both trees side by side, each followed by the second's count less the
first's; a module found in one tree only counts as 0 in the other.  Stdlib
only.

    python tools/code_size.py [DIRECTORY [OTHER_DIRECTORY]]
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


def sizes(root: Path) -> dict[str, tuple[int, int]]:
    """(code lines, tokens) of each ``*.py`` file of a directory, by file name."""
    return {path.name: count(path.read_text(encoding="utf-8")) for path in root.glob("*.py")}


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv[:2]] or [Path(__file__).resolve().parent.parent / "src" / "detstrata"]
    tables = [sizes(root) for root in roots]
    rows = [(name, [table.get(name, (0, 0)) for table in tables]) for name in sorted(set().union(*tables))]
    # (0, 0) starts each column's sum, so a tree without modules totals (0, 0)
    rows.append(("total", [tuple(map(sum, zip((0, 0), *table.values()))) for table in tables]))
    if len(tables) == 1:
        print(f"{'module':<20} {'lines':>6} {'tokens':>7}")
        for name, [(lines, tokens)] in rows:
            print(f"{name:<20} {lines:>6} {tokens:>7}")
        return 0
    print(f"a: {roots[0]}\nb: {roots[1]}")
    print(f"{'module':<20} {'lines a':>7} {'lines b':>7} {'diff':>6} {'tokens a':>8} {'tokens b':>8} {'diff':>6}")
    for name, [(lines_a, tokens_a), (lines_b, tokens_b)] in rows:
        print(f"{name:<20} {lines_a:>7} {lines_b:>7} {lines_b - lines_a:>+6}"
              f" {tokens_a:>8} {tokens_b:>8} {tokens_b - tokens_a:>+6}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
