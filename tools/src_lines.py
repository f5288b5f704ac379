"""Count the code lines of the ``seqids`` package, the figure each change
records as its net change in ``src/`` lines.

A code line is a line that holds a token of Python code. Blank lines,
comments and the docstrings of modules, classes and functions are not
code; any other string, over however many lines, is. Run from the root of
the repository::

    python tools/src_lines.py [folder]

It prints each module's count, largest first, then the total. ``folder``
defaults to ``src/seqids``.
"""

from __future__ import annotations

import ast
import sys
import tokenize
from pathlib import Path

#: tokens that hold no code: comments, line breaks, indentation and the
#: stream's start and end
_NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
             tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def docstring_lines(tree: ast.Module) -> set[int]:
    """The line numbers of the module's, its classes' and its functions' docstrings."""
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)) \
                and ast.get_docstring(node, clean=False) is not None:
            first = node.body[0]
            lines.update(range(first.lineno, first.end_lineno + 1))
    return lines


def code_lines(path: Path) -> int:
    """The code lines of one Python file."""
    with path.open("rb") as fh:
        tokens = list(tokenize.tokenize(fh.readline))
    lines = {n for t in tokens if t.type not in _NOT_CODE for n in range(t.start[0], t.end[0] + 1)}
    return len(lines - docstring_lines(ast.parse(path.read_bytes())))


def main(argv: list[str]) -> int:
    folder = Path(argv[0] if argv else "src/seqids")
    counts = {path.stem: code_lines(path) for path in sorted(folder.glob("*.py"))}
    if not counts:
        print(f"no Python files in {folder}", file=sys.stderr)
        return 1
    for name, count in sorted(counts.items(), key=lambda item: (-item[1], item[0])):
        print(f"{name:<12} {count:>5}")
    print(f"{'total':<12} {sum(counts.values()):>5}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
