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
import math
import sys

from . import engine
from .errors import LtbeError
from .semiring import SemiringKind, from_text
from .system import parse_spec, parse_system


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # argparse would exit(2); flag misuse is input error
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="ltbe", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_output_flags(p):
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")

    def add_fixpoint_flags(p):
        p.add_argument("--max-iter", type=int, default=None)
        p.add_argument("--tol", type=float, default=1e-9)
        p.add_argument("--threshold", default=None, help="early-exit verification threshold")

    p = sub.add_parser("behaviour", help="behaviour values of a system against a spec")
    p.add_argument("--system", required=True)
    p.add_argument("--spec", required=True)
    add_fixpoint_flags(p)
    add_output_flags(p)

    p = sub.add_parser("bisim", help="largest bisimulation between two bool systems")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_output_flags(p)

    p = sub.add_parser("common", help="joint behaviour values of two systems")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_fixpoint_flags(p)
    add_output_flags(p)

    p = sub.add_parser("oracle", help="bounded-depth brute-force matrix")
    p.add_argument("--system", default=None)
    p.add_argument("--spec", default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--b", default=None)
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


def _gap_json(g: float):
    return "inf" if math.isinf(g) else g


def _matrix_text(rel, fmt: str, report=None, with_threshold: bool = False) -> str:
    if fmt == "json":
        doc: dict = {"matrix": rel.to_json_records()}
        if report is not None:
            doc["iterations"] = report.iterations
            doc["converged"] = report.converged
            doc["final_gap"] = _gap_json(report.final_gap)
            if with_threshold:
                doc["threshold_decided"] = report.threshold_decided
        return json.dumps(doc, indent=2) + "\n"
    text = rel.to_csv()
    if report is not None:
        text += "\n"
        text += f"iterations,{report.iterations}\n"
        text += f"converged,{'true' if report.converged else 'false'}\n"
        text += f"final_gap,{report.final_gap!r}\n"
        if with_threshold:
            text += f"threshold_decided,{'true' if report.threshold_decided else 'false'}\n"
    return text


def _fixpoint_options(args, kind: SemiringKind) -> engine.FixpointOptions:
    threshold = None
    if args.threshold is not None:
        threshold = from_text(kind, args.threshold)
    return engine.FixpointOptions(
        max_iterations=args.max_iter, tolerance=args.tol, threshold=threshold
    )


_EXIT_CODES = {"converged": 0, "budget": 3, "threshold": 4}


def _cmd_behaviour(args) -> int:
    sys_model = parse_system(_read(args.system))
    spec_model = parse_spec(_read(args.spec))
    opts = _fixpoint_options(args, sys_model.stack.kind)
    report = engine.behaviour(sys_model, spec_model, opts)
    _emit(
        _matrix_text(report.result, args.format, report, args.threshold is not None),
        args.out,
    )
    return _EXIT_CODES[report.stop_reason]


def _cmd_bisim(args) -> int:
    a = parse_system(_read(args.a))
    b = parse_system(_read(args.b))
    report = engine.bisimilarity(a, b)
    _emit(_matrix_text(report.result, args.format, report), args.out)
    return _EXIT_CODES[report.stop_reason]


def _cmd_common(args) -> int:
    a = parse_system(_read(args.a))
    b = parse_system(_read(args.b))
    opts = _fixpoint_options(args, a.stack.kind)
    report = engine.common_trace(a, b, opts)
    _emit(
        _matrix_text(report.result, args.format, report, args.threshold is not None),
        args.out,
    )
    return _EXIT_CODES[report.stop_reason]


def _cmd_oracle(args) -> int:
    from . import oracle

    pair_mode = args.a is not None or args.b is not None
    spec_mode = args.system is not None or args.spec is not None
    if pair_mode == spec_mode or (pair_mode and (args.a is None or args.b is None)) or (
        spec_mode and (args.system is None or args.spec is None)
    ):
        raise _UsageError("oracle needs either --system and --spec, or --a and --b")
    if spec_mode:
        rel = oracle.oracle_matrix(
            parse_system(_read(args.system)), parse_spec(_read(args.spec)), args.depth
        )
    else:
        rel = oracle.oracle_common(
            parse_system(_read(args.a)), parse_system(_read(args.b)), args.depth
        )
    _emit(_matrix_text(rel, args.format), args.out)
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


_COMMANDS = {
    "behaviour": _cmd_behaviour,
    "bisim": _cmd_bisim,
    "common": _cmd_common,
    "oracle": _cmd_oracle,
    "check-laws": _cmd_check_laws,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        print(f"ltbe: {exc}", file=sys.stderr)
        return 1
    except LtbeError as exc:
        print(f"ltbe: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except ValueError as exc:
        print(f"ltbe: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"ltbe: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
