#!/usr/bin/env python3
"""Line counts of the package's modules: the code budget.

For each module of src/marginfilter, prints three counts:

- total: every line of the file;
- code: non-blank lines that are neither comments nor inside a
  docstring;
- docstring: the lines of module, class and function docstrings, as
  ``ast`` finds them.

A last row sums each column.  Run from anywhere:
``python3 scripts/code_budget.py [package directory]``.
"""

import argparse
import ast
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "marginfilter"


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers (from 1) of every module, class and function docstring."""
    lines = set()
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                                 ast.AsyncFunctionDef)):
            continue
        if ast.get_docstring(node, clean=False) is None:
            continue
        doc = node.body[0]
        lines.update(range(doc.lineno, doc.end_lineno + 1))
    return lines


def count(path: Path) -> tuple[int, int, int]:
    """(total, code, docstring) lines of one module."""
    text = path.read_text(encoding="utf-8")
    lines = text.splitlines()
    docs = docstring_lines(ast.parse(text, filename=str(path)))
    code = sum(1 for i, line in enumerate(lines, start=1)
               if i not in docs and line.strip() and not line.lstrip().startswith("#"))
    return len(lines), code, len(docs)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("package", nargs="?", type=Path, default=PACKAGE,
                    help="directory of the modules (default: src/marginfilter)")
    args = ap.parse_args(argv)
    modules = sorted(args.package.glob("*.py"))
    if not modules:
        print(f"error: no modules in {args.package}", file=sys.stderr)
        return 1
    print(f"{'module':20} {'total':>6} {'code':>6} {'docstring':>9}")
    sums = [0, 0, 0]
    for path in modules:
        counts = count(path)
        sums = [s + c for s, c in zip(sums, counts)]
        print(f"{path.name:20} {counts[0]:6d} {counts[1]:6d} {counts[2]:9d}")
    print(f"{'total':20} {sums[0]:6d} {sums[1]:6d} {sums[2]:9d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
