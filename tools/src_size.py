#!/usr/bin/env python3
"""Count the lines of src/ by kind: code, docstring, comment and blank.

    python3 tools/src_size.py

Every line of every `.py` file under this checkout's `src/` is counted
once, so the four kinds add up to what `wc -l` gives.  A docstring line
lies inside the docstring of a module, class or function, as `ast` finds
it (its blank lines included); outside docstrings, a comment line starts
with `#` after its indentation, a blank line holds only whitespace, and
every other line is code.  A change that only rewrites prose moves the
docstring and comment counts; the code count moves with the code.

Prints one row per file, then the total row, in the columns
code, docstring, comment, blank, total, path.
"""

from __future__ import annotations

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
KINDS = ("code", "docstring", "comment", "blank")


def split(text: str) -> dict:
    """kind -> line count of one module's source text."""
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr)
                    and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                docs.update(range(first.lineno, first.end_lineno + 1))
    counts = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(text.splitlines(), start=1):
        stripped = line.strip()
        if number in docs:
            counts["docstring"] += 1
        elif stripped.startswith("#"):
            counts["comment"] += 1
        elif not stripped:
            counts["blank"] += 1
        else:
            counts["code"] += 1
    return counts


def _row(counts: dict, name: str) -> str:
    cells = [counts[kind] for kind in KINDS] + [sum(counts.values())]
    return "".join(f"{cell:>10,}" for cell in cells) + f"  {name}"


def main() -> None:
    total = dict.fromkeys(KINDS, 0)
    print("".join(f"{kind:>10}" for kind in (*KINDS, "total")) + "  path")
    for path in sorted(SRC.rglob("*.py")):
        counts = split(path.read_text())
        for kind in KINDS:
            total[kind] += counts[kind]
        print(_row(counts, str(path.relative_to(SRC.parent))))
    print(_row(total, "total"))


if __name__ == "__main__":
    main()
