"""The engine's fused, semi-naive step against a hand-chained full pass.

The full pass pushes the relation through every layer with the public
liftings, from the innermost layer outwards, and reads it back with
``reindex``, evaluating every cell of every layer at every step.  The
engine fuses layers and re-evaluates only the cells whose inputs changed,
so its iterates must equal the full pass's, payload for payload, and a
run's report must equal the one its stop rules give over the full pass's
whole matrices.
"""

import json
import random

import pytest

from ltbe import (
    BranchLayer,
    FixpointOptions,
    PolyLayer,
    SemiringKind,
    ValRel,
    behaviour,
    bisimilarity,
    common_iterates,
    common_trace,
    iterates,
    lift_double_extension,
    lift_egli_milner,
    lift_extension,
    leq,
    lift_poly,
    one,
    parse_system,
    reindex,
    step_operator,
    value_key,
)
from modelgen import (
    LTS_F,
    SHAPES,
    corpus,
    gen_models_on,
    gen_system_pair,
    random_valrel,
    step_term,
    stop_term,
)

STEPS = 6


def full_step(left, right, lift_branch, rel):
    """One step of the operator between ``left`` and ``right``, layer by layer."""
    plan, j = [], 0
    for idx, layer in enumerate(left.stack.layers):
        if isinstance(layer, BranchLayer) and right.stack.is_linear:
            plan.append((layer, left.values_at(idx), None))
        else:
            plan.append((layer, left.values_at(idx), right.values_at(j)))
            j += 1
    for layer, mine, theirs in reversed(plan):
        if isinstance(layer, PolyLayer):
            rel = lift_poly(layer.expr, rel, mine, theirs)
        elif theirs is None:
            rel = lift_extension(rel, mine)
        else:
            rel = lift_branch(rel, mine, theirs)
    f = {c: value_key(left.transitions[c]) for c in left.states}
    g = {d: value_key(right.transitions[d]) for d in right.states}
    return reindex(f, g, rel)


def full_chain(left, right, lift_branch, steps):
    rel = ValRel.top(left.states, right.states, left.stack.kind)
    out = [rel]
    for _ in range(steps):
        rel = full_step(left, right, lift_branch, rel)
        out.append(rel)
    return out


def exact(rels):
    """Every payload of every relation, in full precision."""
    return [[repr(p) for p in rel.payloads()] for rel in rels]


#: Stacks whose outer layer has several ``Id``s, so the engine keeps more than one layer.
MULTI_ID_STACKS = (
    ["({*} + Id)^{l,r}", "T"],
    ["Id^{a,b,c}", "T", "{*} + {x} * Id"],
    ["{*} + Id * Id", "T", "{*} + {a,b} * Id"],
    ["{*} + Id * Id^{a,b}", "T"],
    ["{*} + (Id * Id)^{a,b}", "T"],
)


def multi_id_cases(seed, per_cell):
    rng = random.Random(seed)
    return [
        (kind, texts) + gen_models_on(rng, kind, texts, rng.randint(2, 5), rng.randint(1, 3))
        for kind in SemiringKind
        for texts in MULTI_ID_STACKS
        for _ in range(per_cell)
    ]


BEHAVIOUR_CASES = corpus(seed=7, per_cell=4) + multi_id_cases(8, 3)


@pytest.mark.parametrize("case", range(len(BEHAVIOUR_CASES)))
def test_behaviour_iterates_match_full_pass(case):
    kind, shape, sys_model, spec = BEHAVIOUR_CASES[case]
    want = full_chain(sys_model, spec, None, STEPS)
    assert exact(iterates(sys_model, spec, STEPS)) == exact(want)


@pytest.mark.parametrize("case", range(len(BEHAVIOUR_CASES)))
def test_step_operator_matches_full_pass_off_the_chain(case):
    kind, shape, sys_model, spec = BEHAVIOUR_CASES[case]
    rel = random_valrel(random.Random(case), kind, sys_model.states, spec.states)
    assert exact([step_operator(sys_model, spec, rel)]) == exact(
        [full_step(sys_model, spec, None, rel)]
    )


def common_pairs(kind, shape):
    rng = random.Random(f"common:{kind.value}:{shape}")
    return [gen_system_pair(rng, kind, shape) for _ in range(4)]


def several_ids_pair(case):
    rng = random.Random(f"common-ids:{case}")
    kind = list(SemiringKind)[case % 3]
    texts = MULTI_ID_STACKS[case // 3]
    a, _ = gen_models_on(rng, kind, texts, rng.randint(2, 4), 1)
    b, _ = gen_models_on(rng, kind, texts, rng.randint(2, 4), 1)
    return a, b


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", list(SemiringKind))
def test_common_iterates_match_full_pass(kind, shape):
    for a, b in common_pairs(kind, shape):
        want = full_chain(a, b, lift_double_extension, STEPS)
        assert exact(common_iterates(a, b, STEPS)) == exact(want)


@pytest.mark.parametrize("case", range(len(MULTI_ID_STACKS) * 3))
def test_common_iterates_match_full_pass_on_several_ids(case):
    a, b = several_ids_pair(case)
    want = full_chain(a, b, lift_double_extension, STEPS)
    assert exact(common_iterates(a, b, STEPS)) == exact(want)


#: The longest run of the report checks: short, so a tropical entry climbing to ``inf`` stays cheap.
BUDGET = 12


def report_options(kind):
    """The runs each report case makes: at the budget, at a budget of 2 that
    most runs reach, and for a weighted kind with the threshold ``one``."""
    runs = [FixpointOptions(max_iterations=BUDGET), FixpointOptions(max_iterations=2)]
    if kind is not SemiringKind.BOOL:
        runs.append(FixpointOptions(max_iterations=BUDGET, threshold=one(kind)))
    return runs


def reference_report(chain, opts):
    """``(result, iterations, final_gap, stop_reason)`` of a run whose iterates
    are ``chain``, each round checked and stopped over whole matrices: the
    iterate must be below its predecessor; a prob run converges on a gap
    within the tolerance, a bool or tropical one on an exact repeat; a run
    with a threshold (a weighted one) stops once every entry is strictly
    below it; otherwise the budget stops it."""
    kind, bound = chain[0].kind, opts.threshold
    for i in range(1, opts.max_iterations + 1):
        cur, prev = chain[i], chain[i - 1]
        assert cur.pointwise_leq(prev)
        gap = cur.max_gap(prev)
        if gap <= opts.tolerance if kind is SemiringKind.PROB else cur == prev:
            return cur, i, gap, "converged"
        if bound is not None and all(leq(v, bound) and not leq(bound, v)
                                     for _, _, v in cur.entries()):
            return cur, i, gap, "threshold"
    return cur, i, gap, "budget"


def stop_reasons(run, pairs, lift_branch):
    """Check the report of every run of every pair against the reference over
    its full chain, and give the stop reasons the runs reached."""
    reasons = set()
    for n, (left, right) in enumerate(pairs):
        chain = full_chain(left, right, lift_branch, BUDGET)
        for opts in report_options(left.stack.kind):
            result, iterations, gap, reason = reference_report(chain, opts)
            report = run(left, right, opts)
            got = (report.iterations, report.stop_reason, repr(report.final_gap))
            assert got == (iterations, reason, repr(gap)), f"pair {n}"
            assert exact([report.result]) == exact([result]), f"pair {n}"
            reasons.add(reason)
    return reasons


def every_reason(kind):
    return {"converged", "budget"} | ({"threshold"} if kind is not SemiringKind.BOOL else set())


@pytest.mark.parametrize("kind", list(SemiringKind))
def test_behaviour_report_matches_full_pass(kind):
    pairs = [(sys_model, spec) for k, _, sys_model, spec in BEHAVIOUR_CASES if k is kind]
    assert stop_reasons(behaviour, pairs, None) == every_reason(kind)


@pytest.mark.parametrize("kind", list(SemiringKind))
def test_common_report_matches_full_pass(kind):
    pairs = [p for shape in SHAPES for p in common_pairs(kind, shape)]
    pairs += [several_ids_pair(case) for case in range(len(MULTI_ID_STACKS) * 3)
              if list(SemiringKind)[case % 3] is kind]
    assert stop_reasons(common_trace, pairs, lift_double_extension) == every_reason(kind)


def _bool_model(stack, transitions):
    doc = {"kind": "bool", "stack": stack, "states": list(transitions), "transitions": transitions}
    return parse_system(json.dumps(doc))


LINEAR = ["{*} + {a,b} * Id"]

#: Edge cases, each with the number of rounds of its forall-exists chain.
BISIM_EDGES = {
    "both-empty": ((LINEAR, {}), (LINEAR, {}), 1),
    "empty-vs-one": ((["T", LTS_F], {}), (["T", LTS_F], {"d": [stop_term()]}), 1),
    "linear": ((LINEAR, {"c0": step_term("a", "c1"), "c1": stop_term()}),
               (LINEAR, {"d0": step_term("a", "d1"), "d1": step_term("a", "d1")}), 3),
    "deadlock": ((["T", LTS_F], {"c": []}),
                 (["T", LTS_F], {"d0": [], "d1": [step_term("a", "d1")]}), 2),
}


def bisim_pairs(case):
    """The bool pairs of one case: random pairs of a shape and their self-pairs,
    pairs on a stack of several ``Id``s with both self-pairs, or an edge case."""
    if case in SHAPES:
        rng = random.Random(f"bisim:{case}")
        pairs = [gen_system_pair(rng, SemiringKind.BOOL, case) for _ in range(4)]
        return pairs + [(a, a) for a, _ in pairs]
    if case in BISIM_EDGES:
        (sa, ta), (sb, tb), _ = BISIM_EDGES[case]
        return [(_bool_model(sa, ta), _bool_model(sb, tb))]
    rng = random.Random(f"bisim-ids:{case}")
    texts = MULTI_ID_STACKS[int(case[-1])]
    a, _ = gen_models_on(rng, SemiringKind.BOOL, texts, rng.randint(2, 4), 1)
    b, _ = gen_models_on(rng, SemiringKind.BOOL, texts, rng.randint(2, 4), 1)
    return [(a, b), (a, a), (b, b)]


@pytest.mark.parametrize(
    "case", [*SHAPES, *(f"ids{i}" for i in range(len(MULTI_ID_STACKS))), *BISIM_EDGES])
def test_bisimilarity_matches_full_pass(case):
    for a, b in bisim_pairs(case):
        chain = full_chain(a, b, lift_egli_milner, 1)
        while chain[-1] != chain[-2]:
            chain.append(full_step(a, b, lift_egli_milner, chain[-1]))
        report = bisimilarity(a, b)
        assert report.iterations == len(chain) - 1
        if case in BISIM_EDGES:
            assert report.iterations == BISIM_EDGES[case][2]
        assert exact([report.result]) == exact(chain[-1:])
