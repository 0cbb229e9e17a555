#!/usr/bin/env python3
"""Count the code lines of each ``src/stringlab`` module.

    python3 tools/code_lines.py [PARENT_CHECKOUT]

A code line carries a token other than a comment or a line break, outside
the docstrings of modules, classes and functions.  Blank lines, comment
lines and docstrings are not code; a line holding code and a comment is.
Prints one line per module and the total; given a parent checkout, prints
its count, this checkout's and the difference.
"""

from __future__ import annotations

import argparse
import ast
import io
import sys
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "stringlab"
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}
_HAS_DOCSTRING = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, _HAS_DOCSTRING) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def code_lines(source: str) -> int:
    docs = docstring_lines(ast.parse(source))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in _NOT_CODE:
            lines.update(n for n in range(tok.start[0], tok.end[0] + 1) if n not in docs)
    return len(lines)


def count(checkout: Path) -> dict[str, int]:
    """``{module file name: code lines}`` for one checkout."""
    return {path.name: code_lines(path.read_text())
            for path in sorted((checkout / PACKAGE).glob("*.py"))}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, nargs="?", help="checkout to compare against")
    args = parser.parse_args(argv)
    this = count(ROOT)
    if args.parent is None:
        for name, n in this.items():
            print(f"{name:18s} {n:5d}")
        print(f"{'total':18s} {sum(this.values()):5d}")
        return 0
    parent = count(args.parent.resolve())
    print(f"{'module':18s} {'parent':>6s} {'this':>6s} {'diff':>6s}")
    for name in sorted(set(parent) | set(this)):
        old, new = parent.get(name, 0), this.get(name, 0)
        print(f"{name:18s} {old:6d} {new:6d} {new - old:+6d}")
    old, new = sum(parent.values()), sum(this.values())
    print(f"{'total':18s} {old:6d} {new:6d} {new - old:+6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
