"""Query benchmark for ltbe: one workload, one process, one thread.

    python3 bench/run.py --workload lts|tree|pairs --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from its
``src`` directory.  The run

1. generates the workload's model texts from the seed (``workloads.py``);
2. times set-up: importing ``ltbe`` afresh and parsing every model text,
   ``SETUP_REPS`` times, reporting the median as ``setup_s``;
3. runs every query once and checks every answer (``check.py``);
4. repeats whole rounds of the same queries until ``--seconds`` have
   passed, and requires every round to give the same outputs.

A query is ``parse_system``/``parse_spec`` (untimed), then the timed
``behaviour``/``common_trace``/``bisimilarity`` call and
``result.to_csv()``.  The machine's speed drifts by a third within
seconds, so each query's wall time is divided by the time of a fixed
pure-Python reference loop, the median of samples taken just before and
just after it; the unit of the quotient is ``ref``.  A query's value is
its median over the timed rounds.  Set-up time is normalised the same way
and converted back to seconds with ``REF_LOOP_S``.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics, or with ``--trace 1``
the per-layer ones).  The full record, including every failed query with
its reason, goes to ``bench/out/<workload>-seed<N>-trace<T>.json``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_REPS = 15
REF_ROWS = 75
REF_SAMPLES = 2
#: About the reference loop's time on the 2-CPU VM the README baselines come
#: from (median 2.3 ms); it turns reference-normalised set-up time into seconds.
REF_LOOP_S = 0.0025


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: str, value: int) -> None:
        self.key = key
        self.value = value


def ref_loop() -> float:
    """Seconds taken by a fixed loop that shares no code with ltbe.

    It builds rows of small slotted objects, indexes some by string keys and
    sums them: the same kind of allocation and attribute traffic as the
    engine, so cache and memory contention from other tenants slow it about
    as much as they slow a query.  A plain integer loop tracked CPU steal
    but not that contention.
    """
    start = perf_counter()
    rows = [tuple(_Cell(f"r{i}", i * j % 7) for j in range(40)) for i in range(REF_ROWS)]
    len({cell.key + str(j): cell for row in rows for j, cell in enumerate(row[:5])})
    sum(cell.value for row in rows for cell in row)
    return perf_counter() - start


def ref_samples() -> list[float]:
    return [ref_loop() for _ in range(REF_SAMPLES)]


def fresh_import():
    """Import ltbe from ``src`` as if for the first time in this process."""
    for name in [m for m in sys.modules if m == "ltbe" or m.startswith("ltbe.")]:
        del sys.modules[name]
    return importlib.import_module("ltbe")


def time_setup(queries) -> tuple[object, list[float], list[float]]:
    """Import ltbe afresh and parse every model text, ``SETUP_REPS`` times.

    Returns the last import, the raw wall seconds of each repetition, and
    each repetition in seconds at reference speed: its wall time divided by
    the reference loop time around it, times ``REF_LOOP_S``.
    """
    models = {}
    for q in queries:
        models[q.a] = False
        models.setdefault(q.b, q.op == "behaviour")
    raw, normalised = [], []
    for _ in range(SETUP_REPS):
        gc.collect()
        before = ref_samples()
        start = perf_counter()
        ltbe = fresh_import()
        for text, is_spec in models.items():
            (ltbe.parse_spec if is_spec else ltbe.parse_system)(text)
        elapsed = perf_counter() - start
        raw.append(elapsed)
        normalised.append(elapsed / statistics.median(before + ref_samples()) * REF_LOOP_S)
    return ltbe, raw, normalised


def run_query(ltbe, q):
    """(ref-normalised time, outcome); outcome is (status, csv or message, iterations)."""
    a = ltbe.parse_system(q.a)
    b = ltbe.parse_spec(q.b) if q.op == "behaviour" else ltbe.parse_system(q.b)
    solve = {"behaviour": ltbe.behaviour, "common": ltbe.common_trace,
             "bisim": ltbe.bisimilarity}[q.op]
    gc.collect()
    before = ref_samples()
    start = perf_counter()
    try:
        report = solve(a, b)
        text = report.result.to_csv()
    except Exception as exc:  # a raising query is a failed query, not a failed run
        elapsed = perf_counter() - start
        outcome = ("exception", f"{type(exc).__name__}: {exc}", 0)
    else:
        elapsed = perf_counter() - start
        status = "ok" if report.converged else "not converged"
        outcome = (status, text, report.iterations)
    # the median, not the mean: one preempted sample would skew the quotient
    ref = statistics.median(before + ref_samples())
    return elapsed / ref, outcome, ref


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("lts", "tree", "pairs"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "ltbe" / "__init__.py").is_file():
        print(f"bench: no ltbe sources under {SRC}", file=sys.stderr)
        return 1
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import workloads

    queries = workloads.build(args.workload, args.seed)
    ltbe, setup_raw, setup_times = time_setup(queries)
    if Path(ltbe.__file__).resolve().parent != SRC / "ltbe":
        print(f"bench: imported ltbe from {ltbe.__file__}, not from {SRC}", file=sys.stderr)
        return 1
    import check
    from spans import Tracer

    tracer = Tracer(ltbe) if args.trace else None

    # round 0: warm up and check every answer
    first = []
    failures = {}
    failed = 0
    wrong = False
    for q in queries:
        _, outcome, _ = run_query(ltbe, q)
        status, payload, _ = outcome
        if status == "ok":
            reason = check.check_answer(ltbe, q, payload)
            if reason is not None:
                status = "wrong answer"
                wrong = True
                failures[q.name] = {"reason": status, "detail": reason, "fault": q.fault}
        else:
            failures[q.name] = {"reason": status, "detail": payload if status == "exception"
                                else f"{outcome[2]} iterations", "fault": q.fault}
        failed += status != "ok"
        first.append((status, payload))

    # timed rounds of the same queries, each checked against round 0
    per_query = [[] for _ in queries]
    layer_rounds = []
    iterations = []
    refs = []
    rounds = 0
    start = perf_counter()
    while True:
        if tracer:
            tracer.reset()
        round_iterations = 0
        for i, q in enumerate(queries):
            value, (status, payload, its), ref_s = run_query(ltbe, q)
            per_query[i].append(value)
            refs.append(ref_s)
            round_iterations += its
            if first[i][0] != "ok":
                failed += 1
            elif (status, payload) != first[i]:
                failed += 1
                wrong = True
                failures.setdefault(q.name, {"reason": "wrong answer", "fault": q.fault,
                                             "detail": "output differs from the first round"})
        iterations.append(round_iterations)
        if tracer:
            layer_rounds.append(tracer.snapshot())
        rounds += 1
        if perf_counter() - start >= args.seconds:
            break
    if tracer:
        tracer.close()

    query_ref = [statistics.median(v) for v in per_query]
    metrics = {
        "solve_ref": {"value": sum(query_ref), "unit": "ref"},
        "query_ref.p50": {"value": statistics.median(query_ref), "unit": "ref"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "rounds": 1 + rounds,
        "queries": len(queries),
        "attempted": (1 + rounds) * len(queries),
        "failed": failed,
        "failed_queries": [{"name": n, **f} for n, f in failures.items()],
        "ref_loop_s": statistics.median(refs),
        "setup_s_all": setup_times,
        "setup_wall_s_all": setup_raw,
        "query_ref": {q.name: v for q, v in zip(queries, query_ref)},
        "engine_iterations_per_round": iterations[0],
        "end_to_end": metrics,
    }
    if tracer:
        # times are medians over the rounds; counts are the same in every round
        layers = dict(layer_rounds[0])
        for name in tracer.self_s:
            layers[f"{name}.self_ms"] = statistics.median(r[f"{name}.self_ms"] for r in layer_rounds)
        record["counts_repeat"] = all(
            r[k] == layer_rounds[0][k] for r in layer_rounds for k in tracer.counts
        ) and len(set(iterations)) == 1
        lift_cells = sum(layers[f"lifting.{n}.cells"] for n in (
            "lift_poly", "lift_extension", "lift_double_extension", "lift_egli_milner"))
        per_layer = {"engine.iterations": {"value": iterations[0], "unit": "count"}}
        for name, value in layers.items():
            unit = "ms" if name.endswith(".self_ms") else "count"
            per_layer[name] = {"value": value, "unit": unit}
        per_layer["relation.cells_read_ratio"] = {
            "value": layers["relation.reindex.cells"] / lift_cells if lift_cells else 0.0,
            "unit": "ratio",
        }
        record["per_layer"] = per_layer
        metrics = per_layer
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for f in record["failed_queries"]:
        print(f"failed: {f['name']}: {f['reason']} ({f['detail']})", file=sys.stderr)
    print(json.dumps({
        "correct": not wrong,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
