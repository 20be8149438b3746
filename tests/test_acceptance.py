"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import pathlib
import random
import subprocess
import sys
import time

from ltbe import (
    FixpointOptions,
    SemiringKind,
    behaviour,
    bisimilarity,
    check_monad_consistency,
    check_semiring_laws,
    common_trace,
    dirac,
    iterates,
    lift_double_extension,
    lift_egli_milner,
    lift_extension,
    lift_poly,
    oracle_matrix,
    parse_expr,
    step_operator,
)
from modelgen import (
    chain_spec,
    corpus,
    gen_model_pair,
    gen_system_pair,
    loop_exit_system,
    loop_with_exit_to_deadlock,
    lowered,
    lts_terms,
    omega_spec,
    pure_loop_system,
    random_branchvals,
    random_valrel,
    tropical_stopper,
)

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL
DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def _report(num, name, ok, detail=""):
    line = f"[criterion {num:02d}] {name}: {'PASS' if ok else 'FAIL'}"
    print(line)
    assert ok, f"{line} {detail}".strip()


def test_c01_semiring_law_suite():
    started = time.monotonic()
    reports = [
        check_semiring_laws(B, samples=1),
        check_semiring_laws(P, samples=10000, seed=2024),
        check_semiring_laws(T, samples=10000, seed=2024),
    ]
    elapsed = time.monotonic() - started
    ok = all(r.passed for r in reports) and elapsed < 5.0
    names = {c.name for r in reports for c in r.checks}
    ok = ok and "distributivity-partial" in names
    _report(1, "semiring-laws", ok, f"elapsed={elapsed:.2f}s")


def test_c02_partial_additivity_witness():
    started = time.monotonic()
    prob = check_monad_consistency(P, 1)
    ok = prob.injective and not prob.additive and prob.passed
    if prob.partiality_witness:
        w1, w2 = prob.partiality_witness
        ok = ok and (w1.total_mass() + w2.total_mass() > 1.0)
    else:
        ok = False
    for bound in (1, 2):
        bool_report = check_monad_consistency(B, bound)
        ok = ok and bool_report.injective and bool_report.additive and bool_report.passed
    tropical = check_monad_consistency(T, 1)
    ok = ok and tropical.injective and tropical.passed
    elapsed = time.monotonic() - started
    ok = ok and elapsed < 10.0
    _report(2, "partial-additivity-witness", ok, f"elapsed={elapsed:.2f}s")


def test_c03_extension_unit_law():
    rng = random.Random(303)
    kinds = list(SemiringKind)
    failures = 0
    for i in range(100):
        kind = kinds[i % 3]
        rows = [f"x{j}" for j in range(rng.randint(1, 5))]
        cols = [f"y{j}" for j in range(rng.randint(1, 5))]
        rel = random_valrel(rng, kind, rows, cols)
        for x in rows:
            d = dirac(kind, x)
            out = lift_extension(rel, [d])
            for y in cols:
                if out.get(d.key(), y) != rel.get(x, y):
                    failures += 1
    _report(3, "extension-unit-law", failures == 0, f"failures={failures}")


def test_c04_monotonicity():
    rng = random.Random(404)
    expr = parse_expr("{*} + {a,b} * Id")
    kinds = list(SemiringKind)
    violations = 0
    for i in range(200):
        kind = kinds[i % 3]
        rows = [f"x{j}" for j in range(rng.randint(1, 4))]
        cols = [f"y{j}" for j in range(rng.randint(1, 4))]
        upper = random_valrel(rng, kind, rows, cols)
        below = lowered(rng, upper)
        ts = random_branchvals(rng, kind, rows, 3)
        us = random_branchvals(rng, kind, cols, 3)
        row_terms, col_terms = lts_terms("ab", rows), lts_terms("ab", cols)
        if not lift_poly(expr, below, row_terms, col_terms).pointwise_leq(
            lift_poly(expr, upper, row_terms, col_terms)
        ):
            violations += 1
        if not lift_extension(below, ts).pointwise_leq(lift_extension(upper, ts)):
            violations += 1
        if not lift_double_extension(below, ts, us).pointwise_leq(
            lift_double_extension(upper, ts, us)
        ):
            violations += 1
        if kind is B and not lift_egli_milner(below, ts, us).pointwise_leq(
            lift_egli_milner(upper, ts, us)
        ):
            violations += 1
        sys_model, spec = gen_model_pair(
            rng, kind, rng.choice(("TF", "GT", "GTF")), n_states=rng.randint(2, 4), n_spec=rng.randint(1, 4)
        )
        upper_sz = random_valrel(rng, kind, sys_model.states, spec.states)
        below_sz = lowered(rng, upper_sz)
        if not step_operator(sys_model, spec, below_sz).pointwise_leq(
            step_operator(sys_model, spec, upper_sz)
        ):
            violations += 1
    _report(4, "lifting-and-step-monotonicity", violations == 0, f"violations={violations}")


def test_c05_oracle_equivalence():
    started = time.monotonic()
    models = corpus(seed=20240811, per_cell=6)  # 3 kinds x 3 shapes x 6 = 54 systems
    assert len(models) >= 50
    mismatches = 0
    for kind, shape, sys_model, spec in models:
        chain = iterates(sys_model, spec, 6)
        for depth, rel in enumerate(chain):
            reference = oracle_matrix(sys_model, spec, depth)
            if kind is P:
                if rel.max_gap(reference) > 1e-9:
                    mismatches += 1
            elif rel != reference:
                mismatches += 1
    elapsed = time.monotonic() - started
    ok = mismatches == 0 and elapsed < 60.0
    _report(
        5,
        "oracle-equivalence",
        ok,
        f"systems={len(models)} mismatches={mismatches} elapsed={elapsed:.2f}s",
    )


def test_c06_coin_loop_numbers():
    sys_model = loop_exit_system("prob")
    ok = True
    for n in range(11):
        spec = chain_spec(n, "prob")
        report = behaviour(sys_model, spec)
        expected = 2.0 ** -(n + 1)
        ok = ok and report.converged
        ok = ok and abs(report.result.get("c", f"z{n}").payload - expected) <= 1e-9
    spec_omega = omega_spec("prob")
    chain = iterates(sys_model, spec_omega, 12)
    for i, rel in enumerate(chain):
        ok = ok and abs(rel.get("c", "zw").payload - 2.0**-i) <= 1e-12
    fast = behaviour(sys_model, spec_omega, FixpointOptions(max_iterations=10, tolerance=0.0))
    ok = ok and not fast.converged  # still above tolerance: must not claim convergence
    full = behaviour(sys_model, spec_omega, FixpointOptions(max_iterations=100))
    ok = ok and full.converged and full.final_gap <= 1e-9
    ok = ok and full.result.get("c", "zw").payload <= 2e-9
    _report(6, "coin-loop-numbers", ok)


def test_c07_bool_convergence_bound():
    rng = random.Random(707)
    ok = True
    for _ in range(50):
        sys_model, spec = gen_model_pair(rng, B, rng.choice(("TF", "GT", "GTF")))
        report = behaviour(sys_model, spec)
        ok = ok and report.converged and report.final_gap == 0.0
        ok = ok and report.iterations <= len(sys_model.states) * len(spec.states) + 1
    for _ in range(50):
        a, b = gen_system_pair(rng, B, rng.choice(("TF", "GT", "GTF")))
        report = bisimilarity(a, b)
        ok = ok and report.converged and report.final_gap == 0.0
        ok = ok and report.iterations <= len(a.states) * len(b.states) + 1
    _report(7, "bool-convergence-bound", ok)


def test_c08_semantics_separation():
    looped = pure_loop_system("bool")
    branching = loop_with_exit_to_deadlock("bool")
    bisim = bisimilarity(looped, branching).result.get("c", "d").payload
    common = common_trace(looped, branching).result.get("c", "d").payload
    _report(8, "trace-vs-bisimulation", bisim is False and common is True)


def test_c09_tropical_joint_cost():
    report = common_trace(tropical_stopper(2, "c"), tropical_stopper(3, "d"))
    value = report.result.get("c", "d").payload
    _report(9, "tropical-joint-cost", report.converged and value == 5)


def test_c10_cli_determinism():
    cases = [
        ("behaviour", "--system", DATA / "coin.json", "--spec", DATA / "spec_chain2.json"),
        (
            "behaviour",
            "--system",
            DATA / "automaton.json",
            "--spec",
            DATA / "spec_always_accept.json",
        ),
        ("bisim", "--a", DATA / "pure_loop.json", "--b", DATA / "loop_or_deadlock.json"),
        ("common", "--a", DATA / "stop_cost2.json", "--b", DATA / "stop_cost3.json"),
        (
            "oracle",
            "--system",
            DATA / "routes.json",
            "--spec",
            DATA / "spec_a_stop_trop.json",
            "--depth",
            "4",
        ),
        ("check-laws", "--kind", "tropical", "--samples", "500", "--seed", "4"),
    ]
    ok = True
    for case in cases:
        argv = [sys.executable, "-m", "ltbe", *[str(a) for a in case]]
        first = subprocess.run(argv, capture_output=True, timeout=120)
        second = subprocess.run(argv, capture_output=True, timeout=120)
        ok = ok and first.returncode == second.returncode in (0, 3)
        ok = ok and first.stdout == second.stdout and first.stderr == second.stderr
    _report(10, "cli-determinism", ok)
