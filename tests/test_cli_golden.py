"""Golden CLI outputs: every demo query that converges or is rejected prints the pinned text.

Each file ``golden/<command>__<a>__<b>.csv`` holds the stdout of
``ltbe <command>`` on ``demos/data/<a>.json`` and ``demos/data/<b>.json``
with default flags, and the query must exit 0.  Each row
``[command, a, b, exit code, stderr]`` of ``golden/rejected.json`` is a
query on the same files that rejects its input and prints nothing to
stdout.  Each row ``[command, a, b, flags, exit code, stdout]`` of
``golden/flags.json`` is a pinned query rerun with ``--format json``, with
``--max-iter 2`` (which ``bisim`` rejects as a usage error), or with
``--format json`` and ``--threshold``.  Each row
``[mode, a, b, depth, exit code, stdout, stderr]`` of ``golden/oracle.json``
is ``ltbe oracle`` at one depth on the pair of a pinned query, read with
``--system``/``--spec`` (mode ``spec``) or ``--a``/``--b`` (mode ``pair``),
plus a negative depth and a stack mismatch.  Each row
``[command, exit code, stdout]`` of ``golden/help.json`` is
``ltbe --help`` or ``ltbe <command> --help`` at a terminal 80 columns
wide, which pins every subcommand, flag, metavar and their order.  Queries
that end ``converged=false`` are not pinned, so a change that makes them
converge needs no edit here.
"""

import json
import pathlib

import pytest

from ltbe import Atom, BranchVal, Inj, Pair, StateRef, TupleTerm, cli
from ltbe.cli import main

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "demos" / "data"
GOLDEN = sorted((HERE / "golden").glob("*.csv"))
REJECTED = json.loads((HERE / "golden" / "rejected.json").read_text(encoding="utf-8"))
FLAGGED = json.loads((HERE / "golden" / "flags.json").read_text(encoding="utf-8"))
ORACLE = json.loads((HERE / "golden" / "oracle.json").read_text(encoding="utf-8"))
HELP = json.loads((HERE / "golden" / "help.json").read_text(encoding="utf-8"))
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


@pytest.mark.parametrize("row", REJECTED, ids=lambda r: "__".join(r[:3]))
def test_rejection_matches_golden(row, capsys):
    command, a, b, code, err = row
    first, second = FLAGS[command]
    assert main([command, first, str(DATA / f"{a}.json"), second, str(DATA / f"{b}.json")]) == code
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == err


@pytest.mark.parametrize("row", FLAGGED, ids=lambda r: "__".join(r[:3]) + " " + " ".join(r[3]))
def test_flagged_output_matches_golden(row, capsys):
    command, a, b, flags, code, out = row
    first, second = FLAGS[command]
    args = [command, first, str(DATA / f"{a}.json"), second, str(DATA / f"{b}.json"), *flags]
    assert main(args) == code
    assert capsys.readouterr().out == out


@pytest.mark.parametrize("row", ORACLE, ids=lambda r: "__".join(map(str, r[:4])))
def test_oracle_output_matches_golden(row, capsys):
    mode, a, b, depth, code, out, err = row
    first, second = ("--system", "--spec") if mode == "spec" else ("--a", "--b")
    args = ["oracle", first, str(DATA / f"{a}.json"), second, str(DATA / f"{b}.json")]
    assert main([*args, "--depth", str(depth)]) == code
    assert capsys.readouterr() == (out, err)


@pytest.mark.parametrize("row", HELP, ids=lambda r: r[0] or "ltbe")
def test_help_matches_golden(row, capsys, monkeypatch):
    command, code, out = row
    monkeypatch.setenv("COLUMNS", "80")  # argparse wraps to the terminal width
    with pytest.raises(SystemExit) as stop:
        main([*command.split(), "--help"])
    assert stop.value.code == code
    assert capsys.readouterr() == (out, "")


def _no_key(self):
    raise AssertionError(f"the key of {self!r} was rendered")


@pytest.mark.parametrize("golden", GOLDEN, ids=lambda p: p.stem)
def test_query_path_renders_no_key(golden, capsys, monkeypatch):
    """Once its models are parsed, a query runs on positions alone."""
    command, a, b = golden.stem.split("__")
    first, second = FLAGS[command]
    text_a, text_b = ((DATA / f"{n}.json").read_text(encoding="utf-8") for n in (a, b))
    kind_b = "spec" if command == "behaviour" else "system"
    parse = {"system": cli.parse_system, "spec": cli.parse_spec}
    models = {("system", text_a): parse["system"](text_a), (kind_b, text_b): parse[kind_b](text_b)}
    monkeypatch.setattr(cli, "parse_system", lambda text: models["system", text])
    monkeypatch.setattr(cli, "parse_spec", lambda text: models["spec", text])
    for cls in (StateRef, Atom, Pair, Inj, TupleTerm, BranchVal):
        monkeypatch.setattr(cls, "key", _no_key)
    code = main([command, first, str(DATA / f"{a}.json"), second, str(DATA / f"{b}.json")])
    assert (code, capsys.readouterr().out) == (0, golden.read_text(encoding="utf-8"))
