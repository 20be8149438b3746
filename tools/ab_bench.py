"""Alternated A/B runs of the query benchmark on two source checkouts.

    python3 tools/ab_bench.py PARENT CHANGE --workload pairs --seeds 501-510

``PARENT`` and ``CHANGE`` are the roots of two source checkouts.  For each
workload and seed, the script runs ``bench/run.py`` of each checkout, in that
checkout, as one pair; the parent runs first on the pair's even positions
and second on its odd ones.  Every run lasts the ``run_seconds`` of the
parent's ``BENCHMARK.json``, the length the benchmark itself runs at, since
at a few seconds one slow process moves a side's quartiles.  It prints, for
each workload and end-to-end metric of that file, each side's median and
quartiles, the change of the medians, and the pairs the change wins, loses
and ties.  A gain holds when the change wins at least nine tenths of the
pairs and the medians differ by more than the parent's quartile distance.
Against the metric's ``bound``, a relative change, each row also reads
``worse``, ``no worse`` or ``unresolved`` (see :func:`verdict`).  The
row of the change's failed operations ends with both sides' totals and
whether the change fails no larger a share of its operations.

Each run imports its checkout's sources with ``PYTHONDONTWRITEBYTECODE=1``,
so both sides compile them afresh, as the benchmark's fresh checkouts do.
Python still reads valid bytecode when writing it is off, so the script
refuses a checkout whose ``src/ltbe/__pycache__`` holds any.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """The lower quartile, median and upper quartile, by linear interpolation."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def tally(parent: list[float], change: list[float], better: str) -> tuple[int, int, int]:
    """Pairs the change wins, loses and ties, when ``better`` is ``lower`` or ``higher``."""
    sign = 1 if better == "lower" else -1
    diffs = [sign * (p - c) for p, c in zip(parent, change, strict=True)]
    return sum(d > 0 for d in diffs), sum(d < 0 for d in diffs), sum(d == 0 for d in diffs)


def gain_holds(parent: list[float], change: list[float], better: str) -> bool:
    """Nine tenths of the pairs won, and the medians further apart than the parent's quartiles."""
    wins, _, _ = tally(parent, change, better)
    q1, med, q3 = quartiles(parent)
    moved = med - quartiles(change)[1] if better == "lower" else quartiles(change)[1] - med
    return wins * 10 >= 9 * len(parent) and moved > q3 - q1


def verdict(parent: list[float], change: list[float], better: str, bound: float) -> str:
    """``worse`` when the change's median is worse than the parent's by more
    than ``bound`` of the parent's median, else ``no worse``.

    When the runs spread wider than ``bound``, that is when either side's
    quartile distance exceeds ``bound`` of the parent's median, the answer is
    ``unresolved``, unless every run of the change is better than every run
    of the parent.
    """
    sign = 1 if better == "lower" else -1
    if all(sign * (p - c) > 0 for p in parent for c in change):
        return "no worse"
    (p1, pm, p3), (c1, cm, c3) = quartiles(parent), quartiles(change)
    if max(p3 - p1, c3 - c1) > bound * abs(pm):
        return "unresolved"
    return "worse" if sign * (cm - pm) > bound * abs(pm) else "no worse"


def failed_shares(parent: list[dict], change: list[dict]) -> str:
    """Each side's failed operations over its attempted ones, summed over its
    runs, and whether the change's share is no larger than the parent's."""
    (pf, pa), (cf, ca) = ((sum(r["failed"] for r in side), sum(r["attempted"] for r in side))
                          for side in (parent, change))
    share = "share no larger" if cf * pa <= pf * ca else "share larger"
    return f"totals parent {pf}/{pa} change {cf}/{ca}  {share}"


def parse_seeds(text: str) -> list[int]:
    """``501-510`` or ``1,4,9``."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def stale_bytecode(root: Path) -> list[Path]:
    """The compiled package files in ``root`` that a run would read instead of the sources."""
    return sorted((root / "src" / "ltbe" / "__pycache__").glob("*.pyc"))


def refuse_stale_bytecode(parser: argparse.ArgumentParser, *roots: Path) -> None:
    """Stop with a usage error if a checkout of ``roots`` holds compiled package files."""
    for root in roots:
        if stale := stale_bytecode(root):
            parser.error(f"{stale[0].parent} holds {len(stale)} compiled files, which would be "
                         "read in place of the sources and skew setup_s; delete them first")


def run(root: Path, workload: str, seed: int, seconds: float) -> dict:
    """One benchmark run in ``root``: the JSON object its last stdout line holds."""
    out = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds)],
        cwd=root, capture_output=True, text=True, check=True,
        env={**os.environ, "PYTHONDONTWRITEBYTECODE": "1"},
    )
    return json.loads(out.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", required=True)
    args = parser.parse_args(argv)
    refuse_stale_bytecode(parser, args.parent, args.change)
    spec = json.loads((args.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["better"], m["bound"]) for m in spec["end_to_end"]]
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        for k, seed in enumerate(parse_seeds(args.seeds)):
            order = ["parent", "change"] if k % 2 == 0 else ["change", "parent"]
            for side in order:
                runs[side].append(run(getattr(args, side), workload, seed, spec["run_seconds"]))
        for side, records in runs.items():
            failed = [f"{r['failed']}/{r['attempted']}" for r in records]
            correct = all(r["correct"] for r in records)
            row = f"{workload} {side}: correct={correct} failed={' '.join(failed)}"
            if side == "change":
                row += "  " + failed_shares(runs["parent"], records)
            print(row)
        for name, better, bound in metrics:
            p = [r["metrics"][name]["value"] for r in runs["parent"]]
            c = [r["metrics"][name]["value"] for r in runs["change"]]
            (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
            wins, losses, ties = tally(p, c, better)
            print(f"{workload} {name}: parent {pm:.4g} [{p1:.4g}-{p3:.4g}]  "
                  f"change {cm:.4g} [{c1:.4g}-{c3:.4g}]  {100 * (cm - pm) / pm:+.1f}%  "
                  f"wins {wins} losses {losses} ties {ties}  "
                  f"gain {'holds' if gain_holds(p, c, better) else 'not shown'}  "
                  f"{verdict(p, c, better, bound)} (bound {bound:.0%})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
