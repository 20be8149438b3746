"""Self-test of the benchmark's answer checker: it must catch wrong answers.

    python3 -m pytest -q bench/test_check.py

Each test takes a right answer computed by the engine, corrupts it in one
place, and requires ``check.check_answer`` to reject it.
"""

import math
import random
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import ltbe  # noqa: E402
import check  # noqa: E402
import workloads as wl  # noqa: E402


def solve(q) -> str:
    a = ltbe.parse_system(q.a)
    b = ltbe.parse_spec(q.b) if q.op == "behaviour" else ltbe.parse_system(q.b)
    fn = {"behaviour": ltbe.behaviour, "common": ltbe.common_trace, "bisim": ltbe.bisimilarity}
    report = fn[q.op](a, b)
    assert report.converged
    return report.result.to_csv()


def render(kind, rows, cols, table) -> str:
    def cell(v):
        if kind == "bool":
            return "1" if v else "0"
        if kind == "tropical":
            return "inf" if v == math.inf else str(v)
        return f"{v:.9f}"

    lines = [",".join([""] + cols)]
    lines += [",".join([r] + [cell(table[(r, c)]) for c in cols]) for r in rows]
    return "\n".join(lines) + "\n"


def corrupt(q, text, key, fn) -> str:
    kind = check.Model(q.a).kind
    rows, cols, table = check.decode_csv(kind, text)
    table[key] = fn(table[key])
    return render(kind, rows, cols, table)


def small_queries():
    rng = random.Random(7)
    return {
        "bool-cyclic": wl.Query("b", "behaviour", wl.lts_system(rng, "bool", 5, anchor=3),
                                wl.cyclic_spec(rng, "bool", 2), "cyclic"),
        "prob-cyclic": wl.Query("p", "behaviour", wl.lts_system(rng, "prob", 5, anchor=1),
                                wl.cyclic_spec(rng, "prob", 2), "cyclic"),
        "prob-trace": wl.Query("t", "behaviour", wl.lts_system(rng, "prob", 5),
                               wl.trace_spec(rng, "prob", 3), "acyclic", depth=4),
        "tropical-trace": wl.Query("w", "behaviour", wl.lts_system(rng, "tropical", 5),
                                   wl.trace_spec(rng, "tropical", 3), "acyclic", depth=4),
        "prob-common": wl.Query("c", "common", wl.lts_system(rng, "prob", 4, "a", anchor=1),
                                wl.lts_system(rng, "prob", 4, "b", anchor=1), "cyclic"),
        "io-tree": wl.Query("i", "behaviour", wl.io_system(rng, "prob", 3),
                            wl.io_tree_spec(rng, "prob", 3), "acyclic", depth=3),
        "automaton": wl.Query("m", "behaviour", wl.automaton_system(rng, "bool", 3),
                              wl.automaton_spec(rng, "bool", 2), "cyclic"),
        "bisim": wl.Query("s", "bisim", *wl.lts_twins(rng, 4, 2), "bisim"),
    }


QUERIES = small_queries()


@pytest.mark.parametrize("name", sorted(QUERIES))
def test_engine_answers_pass(name):
    q = QUERIES[name]
    assert check.check_answer(ltbe, q, solve(q)) is None


@pytest.mark.parametrize("name", ["prob-cyclic", "prob-trace", "prob-common", "io-tree"])
def test_prob_cell_pushed_beyond_tolerance_fails(name):
    q = QUERIES[name]
    text = solve(q)
    _, _, table = check.decode_csv("prob", text)
    push = 10 * (check.FIX_TOL if q.check == "cyclic" else check.EXACT_TOL)
    for key, value in table.items():
        moved = (lambda v: v - push) if value >= push else (lambda v: v + push)
        assert check.check_answer(ltbe, q, corrupt(q, text, key, moved)) is not None, key


@pytest.mark.parametrize("name", ["bool-cyclic", "automaton", "tropical-trace"])
def test_exact_cell_changed_fails(name):
    q = QUERIES[name]
    text = solve(q)
    kind = check.Model(q.a).kind
    _, _, table = check.decode_csv(kind, text)
    change = (lambda v: not v) if kind == "bool" else (lambda v: 3 if v == math.inf else v + 1)
    for key in table:
        assert check.check_answer(ltbe, q, corrupt(q, text, key, change)) is not None, key


def test_relation_that_is_not_a_bisimulation_fails():
    q = QUERIES["bisim"]
    text = solve(q)
    _, _, table = check.decode_csv("bool", text)
    unrelated = [key for key, related in table.items() if not related]
    related = [key for key, related in table.items() if related]
    assert unrelated and related
    for key in unrelated:
        reason = check.check_answer(ltbe, q, corrupt(q, text, key, lambda v: True))
        assert reason is not None, key
    # dropping a pair leaves a bisimulation, but not the largest one
    for key in related:
        assert check.check_answer(ltbe, q, corrupt(q, text, key, lambda v: False)) is not None


def test_a_demo_value_off_by_a_little_fails():
    q = next(d for d in wl.demo_lts_queries() if d.name == "demo.coin.chain2")
    text = solve(q)
    assert check.check_answer(ltbe, q, text) is None
    wrong = corrupt(q, text, ("c", "z2"), lambda v: v + 1e-6)
    assert check.check_answer(ltbe, q, wrong) is not None


def test_rows_out_of_order_fail():
    q = QUERIES["prob-trace"]
    text = solve(q)
    header, *lines = text.splitlines()
    swapped = "\n".join([header, lines[1], lines[0], *lines[2:]]) + "\n"
    assert check.check_answer(ltbe, q, swapped) is not None


def test_truncated_answer_fails():
    q = QUERIES["prob-trace"]
    text = solve(q)
    header, *lines = text.splitlines()
    short = "\n".join([header, lines[0].rsplit(",", 1)[0], *lines[1:]]) + "\n"
    assert check.check_answer(ltbe, q, short) is not None
