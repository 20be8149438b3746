"""Command-line front end.

Subcommands: ``behaviour``, ``bisim``, ``common``, ``oracle`` and
``check-laws``.  Matrices go to stdout (or ``--out``) as CSV or JSON with
a convergence footer where applicable.  Exit codes: 0 success/converged,
1 invalid input or failed law check, 2 I/O failure, 3 fixpoint not
converged (the matrix is still emitted), 4 decided by ``--threshold``.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import engine
from .errors import LtbeError
from .semiring import SemiringKind, from_text, json_value
from .system import parse_spec, parse_system


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); flag misuse is input error
        raise _UsageError(message)


# command: help, the flags of its two models (a ``spec`` is parsed as a
# specification), the engine's call, and whether that call iterates to a
# fixpoint and so takes ``--max-iter``, ``--tol`` and ``--threshold``
_QUERIES = {
    "behaviour": ("behaviour values of a system against a spec", ("system", "spec"),
                  engine.behaviour, True),
    "bisim": ("largest bisimulation between two bool systems", ("a", "b"),
              engine.bisimilarity, False),
    "common": ("joint behaviour values of two systems", ("a", "b"), engine.common_trace, True),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="ltbe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    for command, (text, flags, _, fixpoint) in _QUERIES.items():
        p = sub.add_parser(command, help=text)
        for flag in flags:
            p.add_argument(f"--{flag}", required=True)
        if fixpoint:
            p.add_argument("--max-iter", type=int, default=None)
            p.add_argument("--tol", type=float, default=1e-9)
            p.add_argument("--threshold", default=None, help="early-exit verification threshold")
        add_output_flags(p)

    p = sub.add_parser("oracle", help="bounded-depth brute-force matrix")
    for flag in ("system", "spec", "a", "b"):
        p.add_argument(f"--{flag}", default=None)
    p.add_argument("--depth", type=int, required=True)
    add_output_flags(p)

    p = sub.add_parser("check-laws", help="semiring law suite and monad consistency")
    p.add_argument("--kind", required=True, choices=[k.value for k in SemiringKind])
    p.add_argument("--samples", type=int, default=10000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--size-bound", type=int, default=2)
    p.add_argument("--out", default=None)

    return parser


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _models(args, flags: tuple) -> list:
    """The two models named by ``flags``, parsed in order, the first as a system."""
    return [(parse_spec if flag == "spec" else parse_system)(_read(getattr(args, flag)))
            for flag in flags]


def _matrix_text(rel, fmt: str, footer: list) -> str:
    """``rel`` and its ``(name, value)`` footer rows as CSV or as a JSON document.

    A CSV footer follows a blank line and writes booleans as ``true`` and
    ``false`` and floats by ``repr``; JSON writes an infinite value as
    ``"inf"``.
    """
    if fmt == "json":
        doc = {"matrix": rel.to_json_records()}
        doc.update((name, json_value(v)) for name, v in footer)
        return json.dumps(doc, indent=2) + "\n"
    rows = "".join(f"{name},{str(v).lower() if type(v) is bool else repr(v)}\n"
                   for name, v in footer)
    return rel.to_csv() + ("\n" + rows if rows else "")


_EXIT_CODES = {"converged": 0, "budget": 3, "threshold": 4}


def _cmd_query(args) -> int:
    _, flags, run, fixpoint = _QUERIES[args.command]
    left, right = _models(args, flags)
    opts = ()
    if fixpoint:
        threshold = None if args.threshold is None else from_text(left.stack.kind, args.threshold)
        opts = (engine.FixpointOptions(args.max_iter, args.tol, threshold),)
    report = run(left, right, *opts)
    footer = [("iterations", report.iterations), ("converged", report.converged),
              ("final_gap", report.final_gap)]
    if getattr(args, "threshold", None) is not None:
        footer.append(("threshold_decided", report.threshold_decided))
    _emit(_matrix_text(report.result, args.format, footer), args.out)
    return _EXIT_CODES[report.stop_reason]


def _cmd_oracle(args) -> int:
    from . import oracle

    given = [flags for flags in (("system", "spec"), ("a", "b"))
             if any(getattr(args, flag) is not None for flag in flags)]
    if len(given) != 1 or None in (getattr(args, flag) for flag in given[0]):
        raise _UsageError("oracle needs either --system and --spec, or --a and --b")
    left, right = _models(args, given[0])
    run = oracle.oracle_matrix if given[0][1] == "spec" else oracle.oracle_common
    _emit(_matrix_text(run(left, right, args.depth), args.format, []), args.out)
    return 0


def _cmd_check_laws(args) -> int:
    from . import laws

    kind = SemiringKind(args.kind)
    law_report = laws.check_semiring_laws(kind, samples=args.samples, seed=args.seed)
    monad_report = laws.check_monad_consistency(kind, size_bound=args.size_bound)
    text = law_report.format() + "\n" + monad_report.format() + "\n"
    ok = law_report.passed and monad_report.passed
    text += ("all checks passed" if ok else "CHECKS FAILED") + "\n"
    _emit(text, args.out)
    return 0 if ok else 1


_COMMANDS = {"oracle": _cmd_oracle, "check-laws": _cmd_check_laws}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS.get(args.command, _cmd_query)(args)
    except LtbeError as exc:
        print(f"ltbe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except (_UsageError, ValueError) as exc:
        print(f"ltbe: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ltbe: {exc}", file=sys.stderr)
        return 2
