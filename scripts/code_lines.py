#!/usr/bin/env python3
"""Code lines of the skewsharp package, per module and in total.

Usage: python scripts/code_lines.py [--src src/skewsharp]

A code line is a source line that holds at least one token (tokenize) other
than a comment, and that lies outside every docstring: the string that opens
a module, class or function body (ast).  Blank lines, comment lines and
docstring lines do not count.  The script only reports.
"""

import argparse
import ast
import io
import tokenize
from pathlib import Path

NON_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
            tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant) \
                    and isinstance(first.value.value, str):
                lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(text: str) -> int:
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NON_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docstring_lines(ast.parse(text)))


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--src", default=str(Path(__file__).resolve().parent.parent / "src" / "skewsharp"),
                    help="package directory to count")
    args = ap.parse_args()
    total = 0
    for path in sorted(Path(args.src).glob("*.py")):
        count = code_lines(path.read_text())
        total += count
        print(f"{path.name:16s} {count:6d}")
    print(f"{'total':16s} {total:6d}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
