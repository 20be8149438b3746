"""Record one benchmark run of each workload as ``BENCH_<PR>.json``.

    python3 tools/bench_record.py PR [--seed 1] [--root CHECKOUT]

For each workload of the checkout's ``BENCHMARK.json``, the script runs
``bench/run.py`` once, at the file's ``run_seconds``, through
``tools/ab_bench.run``, so the sources are compiled afresh as the
benchmark's fresh checkouts compile them.  It writes ``BENCH_<PR>.json``
at the checkout root: the seed, ``run_seconds`` and, per workload,
``correct``, ``failed``, ``attempted`` and the value of each end-to-end
metric.  Committed with each change, the files are the benchmark's
trajectory.  Like ``ab_bench``, it refuses a checkout whose
``src/ltbe/__pycache__`` holds bytecode, which would be read in place of
the sources.  The checkout is by default the one that holds this script.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import ab_bench  # noqa: E402

HERE = Path(__file__).resolve().parent.parent


def record(root: Path, seed: int) -> dict:
    """One run of each workload of ``root``'s benchmark, in file order."""
    spec = json.loads((root / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [m["name"] for m in spec["end_to_end"]]
    workloads = {}
    for workload in spec["workloads"]:
        out = ab_bench.run(root, workload["name"], seed, spec["run_seconds"])
        workloads[workload["name"]] = {
            **{field: out[field] for field in ("correct", "failed", "attempted")},
            "metrics": {name: out["metrics"][name]["value"] for name in names},
        }
    return {"seed": seed, "run_seconds": spec["run_seconds"], "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("pr", type=int, metavar="PR")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--root", type=Path, default=HERE)
    args = parser.parse_args(argv)
    ab_bench.refuse_stale_bytecode(parser, args.root)
    path = args.root / f"BENCH_{args.pr}.json"
    path.write_text(json.dumps(record(args.root, args.seed), indent=2) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
