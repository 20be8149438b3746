"""The engine's fused, semi-naive step against a hand-chained full pass.

The full pass pushes the relation through every layer with the public
liftings, from the innermost layer outwards, and reads it back with
``reindex``, evaluating every cell of every layer at every step.  The
engine fuses layers and re-evaluates only the cells whose inputs changed,
so its iterates must equal the full pass's, payload for payload.
"""

import json
import random

import pytest

from ltbe import (
    BranchLayer,
    PolyLayer,
    SemiringKind,
    ValRel,
    bisimilarity,
    common_iterates,
    iterates,
    lift_double_extension,
    lift_egli_milner,
    lift_extension,
    lift_poly,
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


@pytest.mark.parametrize("shape", SHAPES)
@pytest.mark.parametrize("kind", list(SemiringKind))
def test_common_iterates_match_full_pass(kind, shape):
    rng = random.Random(f"common:{kind.value}:{shape}")
    for _ in range(4):
        a, b = gen_system_pair(rng, kind, shape)
        want = full_chain(a, b, lift_double_extension, STEPS)
        assert exact(common_iterates(a, b, STEPS)) == exact(want)


@pytest.mark.parametrize("case", range(len(MULTI_ID_STACKS) * 3))
def test_common_iterates_match_full_pass_on_several_ids(case):
    rng = random.Random(f"common-ids:{case}")
    kind = list(SemiringKind)[case % 3]
    texts = MULTI_ID_STACKS[case // 3]
    a, _ = gen_models_on(rng, kind, texts, rng.randint(2, 4), 1)
    b, _ = gen_models_on(rng, kind, texts, rng.randint(2, 4), 1)
    want = full_chain(a, b, lift_double_extension, STEPS)
    assert exact(common_iterates(a, b, STEPS)) == exact(want)


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
