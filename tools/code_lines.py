"""Count the code lines of the anyonlin package.

A code line is a physical line that holds a token other than a comment
or a newline and is not part of a docstring (the string statement that
opens a module, class or function).  Blank, comment and docstring lines
are therefore not counted.  Uses the standard library only.

    python tools/code_lines.py [PATH ...]

With no PATH it counts the repository's ``src/anyonlin``; a directory
counts every ``*.py`` file below it.  Prints one line per file and the
total.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "anyonlin"

_SKIPPED = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.AST) -> set[int]:
    """Line numbers spanned by the docstrings of a module's scopes."""
    lines: set[int] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant) \
                    and isinstance(body[0].value.value, str):
                lines.update(range(body[0].lineno, body[0].end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    source = path.read_text(encoding="utf-8")
    docs = docstring_lines(ast.parse(source))
    lines: set[int] = set()
    with path.open("rb") as handle:
        for tok in tokenize.tokenize(handle.readline):
            if tok.type not in _SKIPPED:
                lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def main(argv: list[str]) -> int:
    roots = [Path(arg) for arg in argv] or [PACKAGE]
    files = sorted(f for root in roots for f in (root.rglob("*.py") if root.is_dir() else [root]))
    total = 0
    for f in files:
        count = code_lines(f)
        total += count
        print(f"{count:6d}  {f}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
