"""Code lines of src/swigert, per module and in total.

    python3 tools/code_lines.py

A code line is a line that is not blank, not only a comment, and not inside
a module, class or function docstring.  Lines that hold code and a comment
count.
"""

from __future__ import annotations

import ast
import io
import tokenize
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]


def docstring_lines(tree: ast.Module) -> set[int]:
    """Line numbers covered by the docstrings of the module and of every class and function."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            first = node.body[0] if node.body else None
            doc = first.value if isinstance(first, ast.Expr) else None
            if isinstance(doc, ast.Constant) and isinstance(doc.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    """The number of code lines in one module's source."""
    skip = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in (tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
                            tokenize.DEDENT, tokenize.ENDMARKER):
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - skip)


def main() -> int:
    total = 0
    for path in sorted((REPO / "src" / "swigert").glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{count:6d}  {path.name}")
    print(f"{total:6d}  total")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
