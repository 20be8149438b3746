"""The engine against exact values at the limit (``limitref``).

The oracle is exact only to a bounded depth, so it agrees with a run that
stopped too early; ``limitref.limit`` is exact at the limit on linear
stacks, and ``limitref.unfolded_limit`` on every bool and tropical stack.
A run that ends ``converged`` must give the limit, exactly for bool and
tropical and within 1e-8 for prob, and a run that ends on ``budget`` must
lie above it in the order the iterates descend in.  The known failures are
pinned below as strict xfails, each on a named case that the property
tests skip.
"""

import json
import math
import pathlib
import random
from fractions import Fraction

import pytest

from limitref import limit, unfolded_limit
from ltbe import (
    SemiringKind,
    behaviour,
    common_trace,
    oracle_common,
    oracle_matrix,
    parse_spec,
    parse_system,
)
from modelgen import (
    LTS_F,
    gen_layered_spec,
    gen_model_pair,
    gen_models_on,
    gen_system_pair,
    gen_systems_on,
    omega_spec,
    step_term,
    stop_term,
    with_unit_branching,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"
B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL
RUN = {"behaviour": behaviour, "common": common_trace}
SEEDS = range(60)
# drawn by ``_draw`` and pinned as a strict xfail below
SKIPPED = {(T, "behaviour", 0)}

# every pair of ``demos/data`` models over a linear stack that ``behaviour``
# or ``common`` accepts: rows are the first model's states and columns the
# second's, in file order
DEMO_LIMITS = {
    ("loop_or_deadlock", "spec_a_omega"): "1;0",
    ("loop_or_deadlock", "spec_a_stop"): "0 0;0 0",
    ("lts_loop_exit", "spec_a_omega"): "1",
    ("lts_loop_exit", "spec_a_stop"): "1 1",
    ("pure_loop", "spec_a_omega"): "1",
    ("pure_loop", "spec_a_stop"): "0 0",
    ("spec_a_omega", "spec_a_omega"): "1",
    ("spec_a_omega", "spec_a_stop"): "0 0",
    ("spec_a_stop", "spec_a_omega"): "0;0",
    ("spec_a_stop", "spec_a_stop"): "1 0;0 1",
    ("spec_always_accept", "spec_always_accept"): "1",
    ("loop_or_deadlock", "loop_or_deadlock"): "1 0;0 0",
    ("loop_or_deadlock", "lts_loop_exit"): "1;0",
    ("loop_or_deadlock", "pure_loop"): "1;0",
    ("lts_loop_exit", "loop_or_deadlock"): "1 0",
    ("lts_loop_exit", "lts_loop_exit"): "1",
    ("lts_loop_exit", "pure_loop"): "1",
    ("pure_loop", "loop_or_deadlock"): "1 0",
    ("pure_loop", "lts_loop_exit"): "1",
    ("pure_loop", "pure_loop"): "1",
    ("coin", "spec_a_omega_prob"): "0",
    ("coin", "spec_chain2"): "1/8 1/4 1/2",
    ("coin", "coin"): "1/3",
    ("spec_a_omega_prob", "spec_a_omega_prob"): "1",
    ("spec_a_omega_prob", "spec_chain2"): "0 0 0",
    ("spec_chain2", "spec_a_omega_prob"): "0;0;0",
    ("spec_chain2", "spec_chain2"): "1 0 0;0 1 0;0 0 1",
    ("routes", "spec_a_stop_trop"): "2 inf;inf 0;inf 0",
    ("stop_cost2", "spec_a_stop_trop"): "inf 2",
    ("stop_cost3", "spec_a_stop_trop"): "inf 3",
    ("spec_a_stop_trop", "spec_a_stop_trop"): "0 inf;inf 0",
    ("routes", "routes"): "4 inf inf;inf 0 0;inf 0 0",
    ("routes", "stop_cost2"): "inf;2;2",
    ("routes", "stop_cost3"): "inf;3;3",
    ("stop_cost2", "routes"): "inf 2 2",
    ("stop_cost2", "stop_cost2"): "4",
    ("stop_cost2", "stop_cost3"): "5",
    ("stop_cost3", "routes"): "inf 3 3",
    ("stop_cost3", "stop_cost2"): "5",
    ("stop_cost3", "stop_cost3"): "6",
}


def _doc(name):
    return json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))


def _linear(doc):
    stack = doc["stack"]
    return stack[-1] != "T" and len(stack) - (stack[0] == "T") == 1


def _ops(a, b):
    """The queries that take the documents ``a`` and ``b``, in that order."""
    if a["kind"] != b["kind"] or not (_linear(a) and _linear(b)):
        return []
    behaviour = b["stack"] == a["stack"][-1:]
    return ["behaviour"] * behaviour + ["common"] * (a["stack"] == b["stack"])


def _load(doc, op, second):
    text = json.dumps(doc)
    return parse_spec(text) if op == "behaviour" and second else parse_system(text)


def _entries(rel):
    return dict(zip([(r, c) for r in rel.rows for c in rel.cols], rel.payloads()))


def _at_limit(kind, got, ref):
    if kind is P:
        return all(abs(got[e] - ref[e]) <= 1e-8 for e in ref)
    return got == ref


def _above_limit(kind, got, ref):
    if kind is B:
        return all(got[e] or not ref[e] for e in ref)
    if kind is P:
        return all(got[e] >= ref[e] - 1e-12 for e in ref)
    return all(got[e] <= ref[e] for e in ref)


def _check(kind, report, ref):
    got = _entries(report.result)
    if report.stop_reason == "converged":
        assert _at_limit(kind, got, ref), {e: (got[e], ref[e]) for e in ref if got[e] != ref[e]}
    else:
        assert report.stop_reason == "budget"
        assert _above_limit(kind, got, ref)


def _draw(kind, op, seed, n_states=None):
    rng = random.Random(seed)
    if op == "behaviour":
        return gen_model_pair(rng, kind, "TF", n_states)
    return gen_system_pair(rng, kind, "TF", n_states)


def test_every_linear_demo_pair_is_listed():
    docs = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in DATA.glob("*.json")}
    runnable = {(a, b) for a in docs for b in docs if _ops(docs[a], docs[b])}
    assert runnable == set(DEMO_LIMITS)


@pytest.mark.parametrize("pair", sorted(DEMO_LIMITS), ids="__".join)
def test_reference_is_the_hand_derived_demo_value(pair):
    a, b = map(_doc, pair)
    read = {"bool": lambda t: t == "1", "prob": Fraction,
            "tropical": lambda t: math.inf if t == "inf" else int(t)}[a["kind"]]
    rows = [row.split() for row in DEMO_LIMITS[pair].split(";")]
    want = {(x, y): read(v) for x, row in zip(a["states"], rows) for y, v in zip(b["states"], row)}
    assert len(want) == len(a["states"]) * len(b["states"])
    assert limit(a, b) == want


@pytest.mark.parametrize("pair", sorted(DEMO_LIMITS), ids="__".join)
def test_engine_meets_the_limit_on_demo_pairs(pair):
    a, b = map(_doc, pair)
    for op in _ops(a, b):
        report = RUN[op](_load(a, op, False), _load(b, op, True))
        _check(SemiringKind(a["kind"]), report, limit(a, b))


@pytest.mark.parametrize("kind", list(SemiringKind), ids=lambda k: k.value)
def test_reference_is_the_oracle_on_acyclic_pairs(kind):
    """Against a spec whose states refer only to earlier ones, depth ``n`` is exact."""
    rng = random.Random(f"limit-acyclic:{kind.value}")
    for _ in range(15):
        texts = ["T", rng.choice(("{*} + {a} * Id", "{*} + {a,b} * Id"))]
        n = rng.randint(1, 4)
        sys_model, _ = gen_models_on(rng, kind, texts, rng.randint(2, 5), 1)
        spec = gen_layered_spec(rng, kind, texts, n, stop_term())
        for b, oracle in ((spec, oracle_matrix), (with_unit_branching(spec, sys_model),
                                                  oracle_common)):
            want, got = _entries(oracle(sys_model, b, n)), limit(sys_model.to_json(), b.to_json())
            if kind is P:
                assert all(abs(got[e] - want[e]) <= 1e-12 for e in want)
            else:
                assert got == want


@pytest.mark.parametrize("op", list(RUN))
@pytest.mark.parametrize("kind", list(SemiringKind), ids=lambda k: k.value)
def test_engine_meets_the_limit(kind, op):
    reasons = set()
    for seed in SEEDS:
        if (kind, op, seed) in SKIPPED:
            continue
        a, b = _draw(kind, op, seed)
        report = RUN[op](a, b)
        reasons.add(report.stop_reason)
        try:
            _check(kind, report, limit(a.to_json(), b.to_json()))
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from None
    assert "converged" in reasons


# --- known failures, each with the reference value it must reach ---------


def _demo(name, parse):
    return parse((DATA / f"{name}.json").read_text(encoding="utf-8"))


def _one_state(kind, transitions):
    doc = {"kind": kind, "stack": ["T", LTS_F], "states": list(transitions),
           "transitions": transitions}
    return parse_system(json.dumps(doc))


def _f3():
    """One state looping on ``a`` at weight 1 - 1e-10: its first step gap is
    1e-10, below the tolerance, though the limit is 0."""
    loop = [{"term": step_term("a", "s"), "weight": 1 - 1e-10}]
    return _one_state("prob", {"s": loop}), _demo("spec_a_omega_prob", parse_spec)


def _f2():
    """A finite but slow climb: ``s`` pays 1000 to reach ``t``, which loops
    for free, or 1 to loop on itself, so the limit 1000 is reached at round
    1001, past the default budget of 30."""
    s = [{"term": step_term("a", "t"), "weight": 1000}, {"term": step_term("a", "s"), "weight": 1}]
    t = [{"term": step_term("a", "t"), "weight": 0}]
    return _one_state("tropical", {"s": s, "t": t}), omega_spec("tropical")


def _f1():
    """``demo.coin.omega``: the default budget, 20 rounds, is a bool bound."""
    return _demo("coin", parse_system), _demo("spec_a_omega_prob", parse_spec)


_GAP = "a prob run stops on a step gap, which bounds nothing when the contraction is near 1"
_LAPS = "a tropical run climbs by one lap a round, so it ends on the budget short of its limit"
PINNED = {
    # name: the models of a ``behaviour`` query, entries of its reference,
    # and why the run misses it
    "F3-near-one-loop": (_f3, {("s", "zw"): 0}, _GAP),
    "F2-slow-finite-climb": (_f2, {("s", "zw"): 1000, ("t", "zw"): 0}, _LAPS),
    "F1-coin-a-omega": (_f1, {("c", "zw"): 0}, "the default budget is a bool bound"),
    # ``c8`` loops on ``a`` at mass 0.933815 against ``z2``'s loop: the run
    # converges at round 264, 1.4e-8 above the limit 0
    "prob-loop-seed-5": (lambda: _draw(P, "behaviour", 5, 16), {("c8", "z2"): 0}, _GAP),
    # ``c0`` loops on ``b`` at cost 2 against ``z2``'s loop: its ``inf``
    # climbs to 140 by the budget
    "tropical-inf-seed-0": (lambda: _draw(T, "behaviour", 0),
                            {("c0", "z2"): math.inf, ("c1", "z0"): 4}, _LAPS),
}


@pytest.mark.parametrize("name", list(PINNED))
def test_pinned_reference(name):
    build, want, _ = PINNED[name]
    a, b = build()
    ref = limit(a.to_json(), b.to_json())
    assert {e: ref[e] for e in want} == want


@pytest.mark.parametrize("name", [
    pytest.param(name, marks=pytest.mark.xfail(strict=True, raises=AssertionError, reason=why))
    for name, (_, _, why) in PINNED.items()])
def test_pinned_run_reaches_the_limit(name):
    a, b = PINNED[name][0]()
    report = behaviour(a, b)
    assert report.stop_reason == "converged"
    _check(a.stack.kind, report, limit(a.to_json(), b.to_json()))


def _f3_two_layers():
    """ROADMAP item 14's case: ``s`` observes ``y`` and branches twice, on
    ``a`` and ``b``, back to itself at weight 1 - 1e-10, against the spec
    ``z ↦ (y, (z, z))``.  The limit is 0, since ``x = w²x²`` has no fixpoint
    in (0, 1], yet the first step gap is 2e-10.  ``limitref`` covers linear
    stacks only, so the reference is the deep oracle and the hand-derived 0."""
    back = [{"term": {"state": "s"}, "weight": 1 - 1e-10}]
    z = {"state": "z"}
    doc = {"kind": "prob", "stack": ["{n,y} * Id^{a,b}", "T"], "states": ["s"],
           "transitions": {"s": {"pair": [{"atom": "y"}, {"tuple": {"a": back, "b": back}}]}}}
    spec = {"kind": "prob", "stack": ["{n,y} * Id^{a,b}"], "states": ["z"],
            "transitions": {"z": {"pair": [{"atom": "y"}, {"tuple": {"a": z, "b": z}}]}}}
    return parse_system(json.dumps(doc)), parse_spec(json.dumps(spec))


def test_two_layer_near_one_reference():
    assert oracle_matrix(*_f3_two_layers(), 100).payloads() == [0.0]


@pytest.mark.xfail(strict=True, raises=AssertionError, reason=_GAP)
def test_two_layer_near_one_run_reaches_the_limit():
    report = behaviour(*_f3_two_layers())
    assert report.stop_reason != "converged" or abs(report.result.payloads()[0]) <= 1e-8


# --- the unfolded reference, on every bool and tropical stack -------------

# stacks with several ``Id`` in a summand, where ``limit`` reads no model
MULTI_ID = (
    ["{n,y} * Id^{a,b}", "T"],
    ["Id^{a,b,c}", "T"],
    ["({*} + Id)^{go,halt}", "T", "{*} + {a} * Id"],
    ["{*} + {a} * Id * Id", "T"],
)


@pytest.mark.parametrize("op", list(RUN))
@pytest.mark.parametrize("kind", [B, T], ids=lambda k: k.value)
def test_unfolded_reference_is_the_linear_reference(kind, op):
    for seed in SEEDS:
        a, b = (m.to_json() for m in _draw(kind, op, seed))
        assert unfolded_limit(a, b) == limit(a, b), f"seed {seed}"
    for pair in DEMO_LIMITS:
        a, b = map(_doc, pair)
        if a["kind"] == kind.value:
            assert unfolded_limit(a, b) == limit(a, b), pair


def _multi_id_draw(kind, op, texts, seed):
    rng = random.Random(seed)
    if op == "behaviour":
        return gen_models_on(rng, kind, texts, rng.randint(2, 6), rng.randint(1, 4))
    return gen_systems_on(rng, kind, texts, rng.randint(2, 5), rng.randint(2, 5))


@pytest.mark.parametrize("texts", [*MULTI_ID, "TF"], ids=lambda t: "|".join(t) if type(t) is list else t)
@pytest.mark.parametrize("op", list(RUN))
@pytest.mark.parametrize("kind", [B, T], ids=lambda k: k.value)
def test_engine_meets_the_unfolded_reference(kind, op, texts):
    """A converged run is the reference, and a run on its budget lies above it."""
    reasons = []
    for seed in SEEDS:
        if texts == "TF" and (kind, op, seed) in SKIPPED:
            continue
        a, b = _draw(kind, op, seed) if texts == "TF" else _multi_id_draw(kind, op, texts, seed)
        report = RUN[op](a, b)
        reasons.append(report.stop_reason)
        try:
            _check(kind, report, unfolded_limit(a.to_json(), b.to_json()))
        except AssertionError as exc:
            raise AssertionError(f"seed {seed}: {exc}") from None
    assert reasons.count("converged") >= len(reasons) // 2
