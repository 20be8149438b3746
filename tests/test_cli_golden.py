"""Golden CLI outputs: every converged demo query must print exactly the pinned text.

Each file ``golden/<command>__<a>__<b>.csv`` holds the stdout of
``ltbe <command>`` on ``demos/data/<a>.json`` and ``demos/data/<b>.json``
with default flags, and the query must exit 0.  Queries that end
``converged=false`` are not pinned, so a change that makes them converge
needs no edit here.
"""

import pathlib

import pytest

from ltbe.cli import main

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "demos" / "data"
GOLDEN = sorted((HERE / "golden").glob("*.csv"))
FLAGS = {"behaviour": ("--system", "--spec"), "common": ("--a", "--b"), "bisim": ("--a", "--b")}


def test_every_command_is_pinned():
    assert {p.name.split("__")[0] for p in GOLDEN} == set(FLAGS)


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda p: p.stem)
def test_output_matches_golden(golden, capsys):
    command, a, b = golden.stem.split("__")
    first, second = FLAGS[command]
    code = main([command, first, str(DATA / f"{a}.json"), second, str(DATA / f"{b}.json")])
    captured = capsys.readouterr()
    assert code == 0
    assert captured.err == ""
    assert captured.out == golden.read_text(encoding="utf-8")
