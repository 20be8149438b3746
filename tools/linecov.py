"""The statement lines of ``src/ltbe`` that a pytest run never executes.

    python3 tools/linecov.py [pytest args]

The script runs pytest in this process, with the given arguments, under a
line tracer on the modules of ``src/ltbe``.  It puts ``src`` first on the
import path, its own and that of the Python subprocesses the tests start.
It then prints, for each module, the first lines of the statements that
never ran, and exits with pytest's status.  Docstrings and ``def``,
``class`` and ``import`` lines are not listed: they run when the module is
imported, not when its code is used.  Nor is a module's
``if __name__ == "__main__":`` block, which runs only when the file is run
as a script.  A statement counts as run when any line of its own ran,
since the tracer may report any line of a statement that spans several; a
compound statement owns its header, not its body.

A test that replaces the tracer (``sys.settrace``) stops the tracing for
every later test; the script then says so, lists nothing, and exits
non-zero.  Two limits:

* code run in a subprocess is not traced, so the statements that only the
  CLI tests reach through a fresh interpreter are listed as never run;
* tracing slows every traced call several times, so a test with a time
  budget can fail under it: ``test_c01_semiring_law_suite`` took 12.3 s.
"""

from __future__ import annotations

import ast
import os
import sys
import threading
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

_SKIPPED = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Import, ast.ImportFrom,
            ast.Global, ast.Nonlocal)


def _is_docstring(node: ast.stmt) -> bool:
    return (isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant)
            and isinstance(node.value.value, str))


def _is_script_guard(node: ast.stmt) -> bool:
    return isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"


def never_ran(source: str, hit: set[int]) -> list[int]:
    """The first lines of the statements of ``source`` none of whose own lines is in ``hit``.

    A statement's own lines are its lines less those of the statements
    nested in it, so an ``if`` owns the lines of its condition, not its body.
    """
    tree = ast.parse(source)
    script = {id(n) for top in tree.body if _is_script_guard(top) for n in ast.walk(top)}
    owned: dict[int, set[int]] = {}
    for node in ast.walk(tree):
        if not isinstance(node, ast.stmt) or id(node) in script:
            continue
        lines = set(range(node.lineno, node.end_lineno + 1))
        for child in ast.walk(node):
            if child is not node and isinstance(child, ast.stmt):
                lines -= set(range(child.lineno, child.end_lineno + 1))
        if not isinstance(node, _SKIPPED) and not _is_docstring(node):
            owned[node.lineno] = lines
    return sorted(first for first, lines in owned.items() if not lines & hit)


def listing(paths: list[Path], hits: dict[Path, set[int]]) -> list[str]:
    """One line per module: its name, then the statement lines that never ran."""
    out = []
    for path in paths:
        lines = never_ran(path.read_text(), hits.get(path, set()))
        out.append(f"{path.name}: {' '.join(map(str, lines)) if lines else 'every statement ran'}")
    return out


def main(argv: list[str]) -> int:
    paths = sorted((SRC / "ltbe").glob("*.py"))
    hits: dict[Path, set[int]] = {path: set() for path in paths}
    traced = {}  # code file name -> the line tracer of its module, or None

    def tracer(lines: set[int]):
        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line

        return line

    def trace(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in traced:
            lines = hits.get(Path(name).resolve())
            traced[name] = None if lines is None else tracer(lines)
        return traced[name]

    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    import pytest

    sys.settrace(trace)
    threading.settrace(trace)
    try:
        status = pytest.main(argv)
        kept = sys.gettrace() is trace
    finally:
        sys.settrace(None)
        threading.settrace(None)
    if not kept:
        print("linecov: tracing stopped during the run, since a test replaced the line tracer;"
              " no listing is given, as it would name lines that ran", file=sys.stderr)
        return int(status) or 1
    print("\n".join(listing(paths, hits)))
    return int(status)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
