"""Count the code lines of each module in a package directory.

A code line holds a token other than a comment; blank lines, comment-only
lines and docstrings (module, class and function) do not count.  Uses only
the standard library.

    python tools/code_lines.py [DIR]     # DIR defaults to src/settlekit/
"""

from __future__ import annotations

import ast
import io
import sys
import tokenize
from pathlib import Path

SKIP = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
        tokenize.DEDENT, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set:
    """The line numbers of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(
                    first.value, ast.Constant) and isinstance(
                    first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The number of code lines in the Python source file ``path``."""
    source = path.read_text(encoding="utf-8")
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(source, str(path))))


def main(argv) -> int:
    root = Path(argv[1] if len(argv) > 1 else "src/settlekit/")
    counts = {p.relative_to(root).as_posix(): code_lines(p)
              for p in sorted(root.rglob("*.py"))}
    width = max(map(len, counts), default=0)
    for name, n in counts.items():
        print(f"{name:<{width}}  {n:5d}")
    print(f"{'total':<{width}}  {sum(counts.values()):5d}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
