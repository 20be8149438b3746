"""The listing of ``tools/linecov.py``: which statements it names as never run."""

import importlib.util
import pathlib
import subprocess
import sys

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "linecov.py"
_SPEC = importlib.util.spec_from_file_location("linecov", _PATH)
linecov = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(linecov)

MODULE = '''\
"""A module docstring."""

import os
from sys import argv


class Box:
    """A class docstring."""

    def open(self, flag):
        if flag:
            return os.sep
        total = sum(
            argv,
        )
        return total


def unused():
    global X
    X = 1
'''


def test_lists_the_statements_that_never_ran(tmp_path):
    path = tmp_path / "box.py"
    path.write_text(MODULE)
    # the call ran flag false: its header, the second line of the sum and the return
    hits = {path: {11, 14, 16}}
    assert linecov.listing([path], hits) == ["box.py: 12 21"]


def test_a_module_no_line_of_which_ran(tmp_path):
    path = tmp_path / "box.py"
    path.write_text(MODULE)
    assert linecov.listing([path], {}) == ["box.py: 11 12 13 16 21"]


def test_a_script_guard_is_not_listed(tmp_path):
    path = tmp_path / "tool.py"
    path.write_text(MODULE + '\n\nif __name__ == "__main__":\n    unused()\n    print(X)\n')
    assert linecov.listing([path], {}) == ["tool.py: 11 12 13 16 21"]


def test_a_guard_in_a_function_is_listed(tmp_path):
    path = tmp_path / "tool.py"
    path.write_text('def main():\n    if __name__ == "__main__":\n        return 1\n')
    assert linecov.listing([path], {}) == ["tool.py: 2 3"]


def test_a_module_every_statement_of_which_ran(tmp_path):
    path = tmp_path / "box.py"
    path.write_text(MODULE)
    hits = {path: set(range(1, 22))}
    assert linecov.listing([path], hits) == ["box.py: every statement ran"]


TRACE_STOPPED = """\
import sys

import ltbe


def test_a_stops_the_tracer():
    sys.settrace(None)


def test_b_parses():
    assert ltbe.parse_expr("Id") == ltbe.Id()
"""


def test_a_test_that_stops_the_tracer_fails_the_run(tmp_path):
    (tmp_path / "test_stop.py").write_text(TRACE_STOPPED)
    proc = subprocess.run([sys.executable, str(_PATH), "-q", "-p", "no:cacheprovider",
                           "test_stop.py"], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode != 0
    assert "tracing stopped" in proc.stderr
    assert "polyfunctor.py:" not in proc.stdout
