"""Per-query cost of a workload's queries, warm and cold, and the code each runs.

    python3 tools/querycost.py --workload tree [--root CHECKOUT] [--seed 1] [--reps 15]
    python3 tools/querycost.py --workload lts --setup [--root CHECKOUT] [--seed 1] [--reps 15]
    python3 tools/querycost.py --workload lts --phases [--root CHECKOUT] [--seed 1] [--reps 15]

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

With ``--setup`` it sizes the benchmark's ``setup_s`` instead, in its two
parts: ``--reps`` times, it imports ``ltbe`` afresh and then parses every
model text of the workload, as ``bench/run.py``'s ``time_setup`` does,
each part timed right after ``gc.collect()``.  It prints the median import
and parse times in milliseconds, and the five model texts slowest to parse
with their median times, each named by the first query that reads it.
The import compiles the sources unless ``src/ltbe/__pycache__`` holds
their bytecode, which the benchmark's fresh checkouts do not; the script
warns of such a checkout.

With ``--phases`` it splits the cold call of each ``behaviour`` and
``common`` query into the four phases that ``behaviour``/``common_trace``
and ``to_csv`` run in turn: the stack check (``check_spec`` or
``check_pair``), compiling the program (``engine._walker``), the fixpoint
(``engine._run_fixpoint``) and rendering (``to_csv``).  ``--reps`` times,
right after ``gc.collect()``, it runs the four back to back, timing each.
As it times each query, it writes the query's median microseconds in each
phase, and their sum, as a row to standard error: the benchmark's
``query_ref.p50`` is one query's cost, so its phases are visible there.
Then it prints each phase's median milliseconds summed over the queries,
and their total.  ``bisim`` queries run none of these phases and are left
out, as is a query that raises.

The package is imported from ``CHECKOUT/src`` (by default the checkout
that holds this script); the queries come from this checkout's
``bench/workloads.py``, the only module imported from ``bench/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
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


def phase_call(ltbe, q):
    """The benchmark's timed call of the ``behaviour`` or ``common`` query ``q``,
    over models parsed once, as its four phases; it returns each phase's
    seconds and the CSV text."""
    engine = importlib.import_module("ltbe.engine")
    a = ltbe.parse_system(q.a)
    if q.op == "behaviour":
        b, check = ltbe.parse_spec(q.b), engine.check_spec
    else:
        b, check = ltbe.parse_system(q.b), engine.check_pair

    def call():
        t0 = perf_counter()
        check(a, b)
        t1 = perf_counter()
        program = engine._walker(a, b)
        t2 = perf_counter()
        report = engine._run_fixpoint(program, a.stack.kind, a.states, b.states, None)
        t3 = perf_counter()
        text = report.result.to_csv()
        return (t1 - t0, t2 - t1, t3 - t2, perf_counter() - t3), text

    return call


def phase_ms(call, reps: int) -> list[float]:
    """The median milliseconds of each phase of ``call()``, over ``reps``
    calls, each right after ``gc.collect()``."""
    times = []
    for _ in range(reps):
        gc.collect()
        times.append(call()[0])
    return [statistics.median(phase) * 1e3 for phase in zip(*times)]


PHASES = ("check", "walker", "fixpoint", "to_csv")


def print_phases(ltbe, workload: str, seed: int, reps: int) -> None:
    import workloads

    totals, timed, left_out = [0.0] * len(PHASES), 0, 0
    print(f"{'query':<40}" + "".join(f" {name + '_us':>11}" for name in (*PHASES, "total")),
          file=sys.stderr)
    for q in workloads.build(workload, seed):
        if q.op == "bisim":
            left_out += 1
            continue
        call = phase_call(ltbe, q)
        try:
            call()
        except Exception:
            left_out += 1
            continue
        ms = phase_ms(call, reps)
        print(f"{q.name:<40}" + "".join(f" {t * 1e3:11.1f}" for t in (*ms, sum(ms))),
              file=sys.stderr)
        totals = [t + x for t, x in zip(totals, ms)]
        timed += 1
    print(f"{'phase':<9} {'cold_ms':>9}")
    for name, ms in zip(PHASES, totals):
        print(f"{name:<9} {ms:9.3f}")
    print(f"{'total':<9} {sum(totals):9.3f}  ({timed} queries, {left_out} left out)")


def fresh_import():
    """Import ltbe as if for the first time in this process, as ``bench/run.py`` does."""
    for name in [m for m in sys.modules if m == "ltbe" or m.startswith("ltbe.")]:
        del sys.modules[name]
    return importlib.import_module("ltbe")


def setup_models(queries) -> dict[str, tuple[str, bool]]:
    """Each model text that ``time_setup`` parses, with the name of the first
    query side that reads it and whether it is parsed as a specification."""
    spec, names = {}, {}
    for q in queries:
        spec[q.a] = False
        spec.setdefault(q.b, q.op == "behaviour")
        names.setdefault(q.a, f"{q.name}.a")
        names.setdefault(q.b, f"{q.name}.b")
    return {text: (names[text], is_spec) for text, is_spec in spec.items()}


def setup_cost(models: dict, reps: int, load=fresh_import) -> tuple[float, float, dict]:
    """The median milliseconds of ``load()`` and of parsing every text of
    ``models`` with the package it returns, each after ``gc.collect()``, and
    each text's median parse milliseconds."""
    imports, parses, per_text = [], [], {text: [] for text in models}
    for _ in range(reps):
        gc.collect()
        start = perf_counter()
        ltbe = load()
        imports.append(perf_counter() - start)
        gc.collect()
        for text, (_, is_spec) in models.items():
            start = perf_counter()
            (ltbe.parse_spec if is_spec else ltbe.parse_system)(text)
            per_text[text].append(perf_counter() - start)
        parses.append(sum(times[-1] for times in per_text.values()))
    return (statistics.median(imports) * 1e3, statistics.median(parses) * 1e3,
            {text: statistics.median(times) * 1e3 for text, times in per_text.items()})


def print_setup(workload: str, seed: int, reps: int) -> None:
    import workloads

    models = setup_models(workloads.build(workload, seed))
    import_ms, parse_ms, per_text = setup_cost(models, reps)
    print(f"import_ms {import_ms:9.2f}")
    print(f"parse_ms  {parse_ms:9.2f}  ({len(models)} model texts)")
    print("slowest to parse (ms):")
    for text in sorted(per_text, key=per_text.get, reverse=True)[:5]:
        print(f"  {models[text][0]:<44} {per_text[text]:7.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lts", "tree", "pairs"))
    parser.add_argument("--root", type=Path, default=HERE)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--reps", type=int, default=15)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--setup", action="store_true",
                      help="time the fresh import and the parse of the model texts instead")
    mode.add_argument("--phases", action="store_true",
                      help="split the cold queries into check, compile, fixpoint and render")
    args = parser.parse_args(argv)
    if args.reps < 1:
        parser.error("--reps must be >= 1")
    src = args.root.resolve() / "src"
    if not (src / "ltbe" / "__init__.py").is_file():
        parser.error(f"no ltbe sources under {src}")
    sys.path[:0] = [str(src), str(HERE / "bench")]
    sys.dont_write_bytecode = True  # stale bytecode in a checkout would skew its setup_s
    if args.setup:
        if any((src / "ltbe" / "__pycache__").glob("*.pyc")):
            print(f"querycost: {src / 'ltbe' / '__pycache__'} holds bytecode, "
                  "so import_ms leaves out compiling", file=sys.stderr)
        print_setup(args.workload, args.seed, args.reps)
        return 0
    import ltbe
    import workloads

    if args.phases:
        print_phases(ltbe, args.workload, args.seed, args.reps)
        return 0
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
