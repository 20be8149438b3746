"""Per-query cost of a workload's queries, warm and cold, and the code each runs.

    python3 tools/querycost.py --workload tree [--root CHECKOUT] [--seed 1] [--reps 15]

For each query of the workload at the seed (``bench/workloads.py``), the
script parses the two models once and then times the call the benchmark
times, ``behaviour``/``common_trace``/``bisimilarity`` followed by
``result.to_csv()``: ``--reps`` times warm, back to back after one untimed
call, and ``--reps`` times cold, each right after ``gc.collect()`` as
``bench/run.py`` times it, since a collection evicts the CPU caches.  It
prints each query's median warm and cold wall time in microseconds and the
number of distinct Python code objects one call runs, counted with
``sys.setprofile``, then the sums over the workload.  So a change to the
fixed path around the fixpoint (checks, options, start and result) can be
sized without the 20 s benchmark: run the script on both checkouts, in
alternation, on an otherwise idle machine.  Times are plain wall times,
not divided by the benchmark's reference loop.

The package is imported from ``CHECKOUT/src`` (by default the checkout
that holds this script); the queries come from this checkout's
``bench/workloads.py``, the only module imported from ``bench/``.
"""

from __future__ import annotations

import argparse
import gc
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent.parent


def code_objects(call) -> int:
    """The number of distinct Python code objects that ``call()`` runs."""
    seen = set()

    def profile(frame, event, arg):
        if event == "call":
            seen.add(frame.f_code)

    sys.setprofile(profile)
    try:
        call()
    finally:
        sys.setprofile(None)
    return len(seen)


def median_us(call, reps: int, cold: bool) -> float:
    """The median wall time of ``call()`` in microseconds, over ``reps`` calls."""
    times = []
    for _ in range(reps):
        if cold:
            gc.collect()
        start = perf_counter()
        call()
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e6


def query_call(ltbe, q):
    """The benchmark's timed call of query ``q``, over models parsed once; it
    returns the CSV text, or ``None`` where the query raises."""
    a = ltbe.parse_system(q.a)
    b = ltbe.parse_spec(q.b) if q.op == "behaviour" else ltbe.parse_system(q.b)
    solve = {"behaviour": ltbe.behaviour, "common": ltbe.common_trace,
             "bisim": ltbe.bisimilarity}[q.op]

    def call():
        try:
            return solve(a, b).result.to_csv()
        except Exception:  # a raising query is timed too, as the benchmark times it
            return None

    return call


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lts", "tree", "pairs"))
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=15)
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    src = args.root.resolve() / "src"
    if not (src / "ltbe" / "__init__.py").is_file():
        parser.error(f"no ltbe sources under {src}")
    sys.path[:0] = [str(src), str(HERE / "bench")]
    sys.dont_write_bytecode = True  # stale bytecode in a checkout would skew its setup_s
    import ltbe
    import workloads

    totals = [0.0, 0.0, 0]
    print(f"{'query':<40} {'warm_us':>9} {'cold_us':>9} {'codes':>6}")
    for q in workloads.build(args.workload, args.seed):
        call = query_call(ltbe, q)
        call()
        row = (median_us(call, args.reps, False), median_us(call, args.reps, True),
               code_objects(call))
        totals = [t + x for t, x in zip(totals, row)]
        print(f"{q.name:<40} {row[0]:9.1f} {row[1]:9.1f} {row[2]:6d}")
    print(f"{'total':<40} {totals[0]:9.1f} {totals[1]:9.1f} {totals[2]:6d}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
