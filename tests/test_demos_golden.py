"""Golden demo outputs: each ``demos/<name>.py`` must print exactly ``golden/demos/<name>.txt``.

The demos are deterministic.  Each runs in a fresh interpreter that
imports ``ltbe`` from ``src``.  To write the files from a trusted commit,
run from the repository root::

    for f in demos/*.py; do PYTHONPATH=src python $f > tests/golden/demos/$(basename $f .py).txt; done
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden" / "demos"
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def test_every_demo_is_pinned():
    assert sorted(p.stem for p in GOLDEN.glob("*.txt")) == sorted(p.stem for p in DEMOS)


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_output_matches_golden(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    run = subprocess.run(
        [sys.executable, str(demo)], capture_output=True, text=True, env=env, timeout=120
    )
    assert run.returncode == 0, run.stderr
    assert run.stderr == ""
    assert run.stdout == (GOLDEN / f"{demo.stem}.txt").read_text(encoding="utf-8")
