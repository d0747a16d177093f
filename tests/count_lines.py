"""Count the docstring, comment, blank and code lines of each module.

    python tests/count_lines.py [package_dir]

The package defaults to ``src/roast``.  A line belongs to a docstring when it
lies in the span of the first string statement of a module, class or
function body (by ``ast``); of the other lines, those empty after stripping
are blank, those that start with ``#`` are comments, and the rest are code.
"""

import ast
import sys
from pathlib import Path

KINDS = ("docstring", "comment", "blank", "code")


def count(source: str) -> dict:
    lines = source.splitlines()
    in_docstring = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                             ast.AsyncFunctionDef)) and node.body:
            first = node.body[0]
            if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
                    and isinstance(first.value.value, str)):
                in_docstring.update(range(first.lineno, first.end_lineno + 1))
    tally = dict.fromkeys(KINDS, 0)
    for number, line in enumerate(lines, start=1):
        text = line.strip()
        if number in in_docstring:
            tally["docstring"] += 1
        elif not text:
            tally["blank"] += 1
        elif text.startswith("#"):
            tally["comment"] += 1
        else:
            tally["code"] += 1
    return tally


def main(argv: list) -> None:
    package = Path(argv[1] if len(argv) > 1 else
                   Path(__file__).resolve().parent.parent / "src" / "roast")
    total = dict.fromkeys(KINDS, 0)
    print(f"{'module':<16}" + "".join(f"{k:>11}" for k in KINDS) + f"{'total':>8}")
    for path in sorted(package.glob("*.py")):
        tally = count(path.read_text(encoding="utf-8"))
        for kind in KINDS:
            total[kind] += tally[kind]
        print(f"{path.stem:<16}" + "".join(f"{tally[k]:>11}" for k in KINDS)
              + f"{sum(tally.values()):>8}")
    print(f"{'total':<16}" + "".join(f"{total[k]:>11}" for k in KINDS)
          + f"{sum(total.values()):>8}")


if __name__ == "__main__":
    main(sys.argv)
