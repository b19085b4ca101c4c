#!/usr/bin/env python3
"""Code lines of each module under a tree's src/quadperfect/.

    python3 tools/code_lines.py [ROOT]

A code line holds at least one token that is not a comment, and is not part
of a module, class or function docstring; blank lines count for nothing.
ROOT defaults to the tree holding this script.  Prints one JSON object: the
count per module, keyed by file name, and their total.
"""

from __future__ import annotations

import ast
import io
import json
import sys
import tokenize
from pathlib import Path

SKIP = {
    tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
    tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER,
}
DOCUMENTED = (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)


def code_lines(source: str) -> int:
    lines: set[int] = set()
    for tok in tokenize.generate_tokens(io.StringIO(source).readline):
        if tok.type not in SKIP:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, DOCUMENTED) and ast.get_docstring(node, clean=False) is not None:
            doc = node.body[0]
            lines.difference_update(range(doc.lineno, doc.end_lineno + 1))
    return len(lines)


def main(argv: list[str]) -> None:
    root = Path(argv[0]) if argv else Path(__file__).resolve().parent.parent
    pkg = root / "src" / "quadperfect"
    modules = {f.name: code_lines(f.read_text()) for f in sorted(pkg.glob("*.py"))}
    if not modules:
        raise SystemExit(f"code_lines: no modules under {pkg}")
    print(json.dumps({"modules": modules, "total": sum(modules.values())}))


if __name__ == "__main__":
    main(sys.argv[1:])
