"""Canonical keys are injective, whatever characters state ids and labels hold.

A key embeds raw state ids and atom labels.  Were a name that holds a
delimiter of the key syntax written as itself, two distinct values could
share a key, and a model's decoder would keep only one of them.
"""

import json
import random

import pytest

from ltbe import (
    SemiringKind,
    behaviour,
    bisimilarity,
    common_trace,
    oracle_matrix,
    parse_spec,
    parse_system,
)
from ltbe.branching import BranchVal
from ltbe.polyfunctor import Atom, Pair, StateRef, TupleTerm
from ltbe.semiring import one
from modelgen import SHAPES, gen_model_pair, gen_models_on, gen_system_pair

STOP = {"inj": 0, "of": {"atom": "*"}}


def model(stack, transitions, kind="bool", parse=parse_system):
    doc = {"kind": kind, "stack": stack, "states": list(transitions),
           "transitions": transitions}
    return parse(json.dumps(doc))


def split_pair(left, right):
    return [{"inj": 1, "of": {"pair": [{"state": left}, {"state": right}]}}]


def observed(successors):
    return {"pair": [{"atom": "o"}, [{"state": s} for s in successors]]}


def labels(p, q):
    return {"inj": 0, "of": {"tuple": {"p": {"atom": p}, "q": {"atom": q}}}}


class TestDistinctValuesKeepDistinctKeys:
    def test_keys_of_pairs_of_state_ids(self):
        one_way = Pair(StateRef("a,b"), StateRef("c"))
        other_way = Pair(StateRef("a"), StateRef("b,c"))
        assert one_way.key() != other_way.key()

    def test_keys_of_branching_over_state_ids(self):
        unit = one(SemiringKind.BOOL)
        one_way = BranchVal(SemiringKind.BOOL, (("a|b", unit), ("c", unit)))
        other_way = BranchVal(SemiringKind.BOOL, (("a", unit), ("b|c", unit)))
        assert one_way.key() != other_way.key()

    def test_keys_of_tuples_of_labels(self):
        one_way = TupleTerm((Atom("x;@y"), Atom("z")))
        other_way = TupleTerm((Atom("x"), Atom("y;@z")))
        assert one_way.key() != other_way.key()

    @pytest.mark.parametrize("name", ["c0", "s_1", "zw", "état"])
    def test_a_plain_name_is_written_as_itself(self, name):
        assert StateRef(name).key() == name
        assert Atom(name).key() == "@" + name

    @pytest.mark.parametrize("name", ["", "a b", "a,b", 'say "hi"', "@a", "{}"])
    def test_any_other_name_is_written_as_a_json_string(self, name):
        assert StateRef(name).key() == json.dumps(name)


class TestCollidingNamesAnswerAsTheOracle:
    def test_two_splits_of_three_names_behave_apart(self):
        sys_model = model(["T", "{*} + Id * Id"], {
            "x": split_pair("a,b", "c"), "y": split_pair("a", "b,c"),
            "a,b": [STOP], "c": [STOP], "a": [STOP], "b,c": [],
        })
        spec = model(["{*} + Id * Id"], {
            "p": {"inj": 1, "of": {"pair": [{"state": "e"}, {"state": "e"}]}}, "e": STOP,
        }, parse=parse_spec)
        report = behaviour(sys_model, spec)
        assert report.converged
        assert report.result == oracle_matrix(sys_model, spec, 3)
        assert report.result.get("y", "p").payload is False
        related = bisimilarity(sys_model, sys_model).result
        assert related.get("x", "y").payload is False

    def test_two_successor_sets_of_three_names_are_not_bisimilar(self):
        sys_model = model(["{o} * Id", "T"], {
            "x": observed(["a|b", "c"]), "y": observed(["a", "b|c"]),
            "a|b": observed(["a|b"]), "c": observed(["c"]), "a": observed(["a"]),
            "b|c": observed([]),
        })
        related = bisimilarity(sys_model, sys_model).result
        assert related.get("x", "y").payload is False
        assert related.get("x", "x").payload is True

    def test_two_tuples_of_labels_with_delimiters_differ(self):
        stack = ["{x, x;@y, z, y;@z}^{p,q} + Id"]
        transitions = {"s": labels("x;@y", "z"), "t": labels("x", "y;@z")}
        sys_model = model(stack, transitions)
        spec = model(stack, transitions, parse=parse_spec)
        report = behaviour(sys_model, spec)
        assert report.result == oracle_matrix(sys_model, spec, 3)
        assert report.result.get("s", "t").payload is False


def renaming(rng, names):
    """An injective map of ``names`` onto runs of one unit joined by one separator.

    The separator is one of the key syntax's, and the unit holds one of
    its other delimiters or whitespace.  Such runs make collisions likely:
    written as themselves, the pairs of ids ``a`` and ``a,a`` and of
    ``a,a`` and ``a`` would share the key ``(a,a,a)``.
    """
    sep, unit = rng.choice(",;|"), rng.choice('(){}:@" \t') + "a"
    runs = rng.sample(range(1, len(names) + 1), len(names))
    return {name: sep.join([unit] * k) for name, k in zip(names, runs)}


def renamed(model_, f, parse):
    """``model_`` with every state id ``s`` written as ``f[s]``."""

    def walk(raw):
        if isinstance(raw, dict):
            if set(raw) == {"state"}:
                return {"state": f[raw["state"]]}
            return {k: walk(v) for k, v in raw.items()}
        if isinstance(raw, list):
            return [walk(v) for v in raw]
        return raw

    doc = model_.to_json()
    doc["states"] = [f[s] for s in doc["states"]]
    doc["transitions"] = {f[s]: walk(v) for s, v in doc["transitions"].items()}
    return parse(json.dumps(doc))


def assert_renamed(rel, image, f, g):
    """``image`` is ``rel`` with rows renamed by ``f`` and columns by ``g``.

    A renaming can reorder a prob sum, since the order of a model's values
    follows their keys, so prob payloads agree to rounding, not bit for bit.
    """
    assert image.rows == tuple(f[r] for r in rel.rows)
    assert image.cols == tuple(g[c] for c in rel.cols)
    for r, c, value in rel.entries():
        expected = value.payload
        if rel.kind is SemiringKind.PROB:
            expected = pytest.approx(expected, rel=1e-12, abs=1e-15)
        assert image.get(f[r], g[c]).payload == expected, (r, c)


def assert_same_run(report, image, f, g):
    assert (report.stop_reason, report.iterations) == (image.stop_reason, image.iterations)
    assert_renamed(report.result, image.result, f, g)


# stacks with several identity positions in one term, where a run of
# delimiters can split two ways
MANY_ID_STACKS = (
    ["T", "{*} + {a} * Id * Id"],
    ["Id^{a,b,c}", "T"],
    ["{o} * Id + Id * Id", "T", "{*} + {a,b} * Id"],
)


def model_pairs(seed):
    """Systems and specs: the ``modelgen`` shapes, then the stacks above."""
    rng = random.Random(seed)
    pairs = [gen_model_pair(rng, kind, shape) for kind in SemiringKind for shape in SHAPES]
    return pairs + [gen_models_on(rng, kind, texts, 8, 3)
                    for kind in SemiringKind for texts in MANY_ID_STACKS]


def system_pairs(seed):
    """Pairs of systems on one stack, drawn as in :func:`model_pairs`."""
    rng = random.Random(seed)
    pairs = [gen_system_pair(rng, kind, shape) for kind in SemiringKind for shape in SHAPES]
    return pairs + [(gen_models_on(rng, kind, texts, 8, 1)[0],
                     gen_models_on(rng, kind, texts, 7, 1)[0])
                    for kind in SemiringKind for texts in MANY_ID_STACKS]


class TestRenamingStatesRenamesTheMatrices:
    """Every matrix stays the same up to an injective renaming of the states."""

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_behaviour(self, seed):
        rng = random.Random(seed)
        for sys_model, spec in model_pairs(seed):
            f, g = renaming(rng, sys_model.states), renaming(rng, spec.states)
            image = behaviour(renamed(sys_model, f, parse_system), renamed(spec, g, parse_spec))
            assert_same_run(behaviour(sys_model, spec), image, f, g)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_common_and_bisim(self, seed):
        rng = random.Random(seed)
        for a, b in system_pairs(seed):
            f, g = renaming(rng, a.states), renaming(rng, b.states)
            image_a, image_b = renamed(a, f, parse_system), renamed(b, g, parse_system)
            assert_same_run(common_trace(a, b), common_trace(image_a, image_b), f, g)
            if a.stack.kind is SemiringKind.BOOL:
                assert_same_run(bisimilarity(a, b), bisimilarity(image_a, image_b), f, g)
