"""List the lines of ``src/ssbv`` that the tier-1 suite never runs.

    python3 tools/untested.py

Runs the tier-1 suite (``pytest -q --continue-on-collection-errors`` from
the root of the checkout) in this process under a ``sys.settrace`` line
tracer that follows only frames whose code lives in ``src/ssbv``.  Then it
prints, as ``path:line: source``, each line that carries bytecode and never
ran, apart from the lines of ``raise`` statements.

Tests that run the package in a subprocess (the demos, the bench smoke
tests, the CLI runs through ``subprocess``) are not traced, so a line only
they reach is listed too.  Tracing makes the suite about 2.5 times as slow.
The exit code is pytest's when the suite fails, else 0.
"""
from __future__ import annotations

import ast
import os
import sys
import threading
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
PACKAGE = os.path.join(ROOT, "src", "ssbv")


class FileLines(set):
    """The lines that ran in one file; also the local trace function of
    each frame in it, which adds every line event."""

    def __call__(self, frame, event, arg):
        if event == "line":
            self.add(frame.f_lineno)
        return self


class LineTracer:
    """Global trace function: for frames of the package only, records the
    first line of the call and hands the frame to its file's FileLines.
    Nothing is allocated per call, so tracing leaves no garbage cycles."""

    def __init__(self) -> None:
        self.ran: dict[str, FileLines] = defaultdict(FileLines)

    def __call__(self, frame, event, arg):
        path = frame.f_code.co_filename
        if not path.startswith(PACKAGE + os.sep):
            return None
        lines = self.ran[path]
        lines.add(frame.f_lineno)
        return lines


def code_lines(source: str, path: str) -> set[int]:
    """Lines that carry bytecode in any code object of the file, minus the
    lines of raise statements."""
    lines: set[int] = set()
    codes = [compile(source, path, "exec")]
    while codes:
        code = codes.pop()
        lines.update(line for _, _, line in code.co_lines() if line)
        codes.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Raise):
            lines.difference_update(range(node.lineno, node.end_lineno + 1))
    return lines


def main() -> int:
    import pytest

    os.chdir(ROOT)
    tracer = LineTracer()
    threading.settrace(tracer)
    sys.settrace(tracer)
    try:
        status = pytest.main(["-q", "--continue-on-collection-errors"])
    finally:
        sys.settrace(None)
        threading.settrace(None)

    for name in sorted(os.listdir(PACKAGE)):
        if not name.endswith(".py"):
            continue
        path = os.path.join(PACKAGE, name)
        with open(path) as fh:
            source = fh.read()
        text = source.splitlines()
        for line in sorted(code_lines(source, path) - tracer.ran[path]):
            print(f"{os.path.relpath(path, ROOT)}:{line}: {text[line - 1].strip()}")
    return int(status)


if __name__ == "__main__":
    raise SystemExit(main())
