import json
import pathlib
import random

import pytest

from ltbe import (
    Atom,
    BranchLayer,
    DegenerateStack,
    Inj,
    Pair,
    ParseError,
    PolyLayer,
    SemiringKind,
    StateRef,
    TransitionTypeError,
    TypeStack,
    ValidationError,
    behaviour,
    linear_part,
    parse_expr,
    parse_spec,
    parse_system,
)
from ltbe.polyfunctor import Coprod, Id, Power, Prod, value_key
from modelgen import (
    LTS_F,
    corpus,
    gen_models_on,
    loop_exit_system,
    omega_spec,
    step_term,
    stop_term,
)

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def doc_text(**overrides):
    doc = {
        "kind": "bool",
        "stack": ["T", LTS_F],
        "states": ["c"],
        "transitions": {"c": [stop_term(), step_term("a", "c")]},
    }
    doc.update(overrides)
    return json.dumps(doc)


ILL_TYPED = {"inj": 1, "of": {"atom": "a"}}


class TestParseSystem:
    def test_lts_example(self):
        sys_model = parse_system(doc_text())
        assert sys_model.states == ("c",)
        assert sys_model.stack.kind is SemiringKind.BOOL
        assert isinstance(sys_model.stack.layers[0], BranchLayer)
        assert sys_model.stack.layers[1] == PolyLayer(parse_expr(LTS_F))

    def test_spec_example(self):
        spec = omega_spec()
        assert spec.states == ("zw",)
        assert spec.stack.is_linear

    def test_spec_rejects_branch_layers(self):
        with pytest.raises(ValidationError):
            parse_spec(doc_text())

    def test_prob_mass_over_one_rejected(self):
        text = doc_text(
            kind="prob",
            transitions={
                "c": [
                    {"term": stop_term(), "weight": 0.5},
                    {"term": step_term("a", "c"), "weight": 0.6},
                ]
            },
        )
        with pytest.raises(ValidationError):
            parse_system(text)

    def test_unknown_state_rejected(self):
        text = doc_text(transitions={"c": [step_term("a", "ghost")]})
        with pytest.raises(ValidationError):
            parse_system(text)

    @pytest.mark.parametrize(
        "target", [{"state": "c"}, ["c"], 5], ids=["object", "array", "number"]
    )
    def test_state_reference_must_be_an_id(self, target):
        ref = {"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": target}]}}
        text = doc_text(transitions={"c": [ref]})
        with pytest.raises(TransitionTypeError, match="expected a state id"):
            parse_system(text)

    def test_ill_typed_value_rejected(self):
        text = doc_text(transitions={"c": [{"inj": 1, "of": {"atom": "a"}}]})
        with pytest.raises(TransitionTypeError):
            parse_system(text)

    def test_injection_out_of_range(self):
        text = doc_text(transitions={"c": [{"inj": 7, "of": {"atom": "*"}}]})
        with pytest.raises(TransitionTypeError):
            parse_system(text)

    def test_wrong_label_rejected(self):
        text = doc_text(transitions={"c": [step_term("zz", "c")]})
        with pytest.raises(TransitionTypeError):
            parse_system(text)

    def test_missing_transition_rejected(self):
        with pytest.raises(ValidationError):
            parse_system(doc_text(states=["c", "d"]))

    def test_duplicate_states_rejected(self):
        with pytest.raises(ValidationError):
            parse_system(doc_text(states=["c", "c"]))

    @pytest.mark.parametrize(
        "mutant",
        [
            "not json at all",
            json.dumps(["a", "list"]),
            json.dumps({"kind": "bool"}),
            doc_text(kind="fuzzy"),
            doc_text(stack=[]),
            doc_text(stack=["T", "{a"]),
            doc_text(stack=["T", 17]),
            # the JSON decoder refuses integers of over 4300 digits with a plain ValueError
            pytest.param(doc_text()[:-1] + ', "padding": ' + "1" * 5000 + "}", id="5000-digits"),
        ],
    )
    def test_parse_errors(self, mutant):
        with pytest.raises(ParseError):
            parse_system(mutant)

    def test_weighted_entries_need_term_and_weight(self):
        text = doc_text(kind="tropical", transitions={"c": [{"term": stop_term()}]})
        with pytest.raises(TransitionTypeError):
            parse_system(text)

    @pytest.mark.parametrize(
        "parse, doc, error, message",
        [
            pytest.param(
                parse_system,
                {"states": ["c"], "transitions": {"c": [stop_term()], "ghost": [ILL_TYPED]}},
                TransitionTypeError,
                "transitions['ghost'][0].inj1: expected a pair node, got {'atom': 'a'}",
                id="malformed-transition-of-undeclared-state",
            ),
            pytest.param(
                parse_system,
                {"states": ["c", "c"], "transitions": {"c": [ILL_TYPED]}},
                TransitionTypeError,
                "transitions['c'][0].inj1: expected a pair node, got {'atom': 'a'}",
                id="duplicate-state-and-malformed-transition",
            ),
            pytest.param(
                parse_spec,
                {"transitions": {"c": [ILL_TYPED]}},
                TransitionTypeError,
                "transitions['c'][0].inj1: expected a pair node, got {'atom': 'a'}",
                id="spec-with-T-layer-and-malformed-transition",
            ),
            pytest.param(
                parse_spec,
                {"states": ["c", "c"]},
                ValidationError,
                "a specification stack must not contain branching layers",
                id="spec-with-T-layer-and-duplicate-state",
            ),
            pytest.param(
                parse_system,
                {"kind": "tropical", "transitions": {"c": [{"term": stop_term(), "weight": None}]}},
                ValidationError,
                "bad tropical value None",
                id="null-weight",
            ),
            # a weight is a JSON number, or the string "inf" for tropical
            *(
                pytest.param(
                    parse_system,
                    {"kind": kind, "transitions": {"c": [{"term": stop_term(), "weight": w}]}},
                    ValidationError,
                    f"bad {kind} value {w!r}",
                    id=f"string-{kind}-weight",
                )
                for kind, w in [("prob", "0.5"), ("tropical", "Inf")]
            ),
            *(
                pytest.param(
                    parse_system,
                    {"kind": kind,
                     "transitions": {"c": [{"term": step_term("a", "c"), "weight": w}] * 2}},
                    ValidationError,
                    "transitions['c']: duplicate entry 'i1((@a,c))' in branching value",
                    id=f"duplicate-{kind}-entry",
                )
                for kind, w in [("prob", 0.5), ("tropical", 1)]
            ),
            pytest.param(
                parse_system,
                {"transitions": {"c": stop_term()}},
                TransitionTypeError,
                "transitions['c']: expected a branching list, got {'inj': 0, 'of': {'atom': '*'}}",
                id="branching-value-not-a-list",
            ),
            pytest.param(
                parse_system,
                {"stack": ["Id^{a,b}", "T", LTS_F], "transitions": {"c": {"tuple": [[], []]}}},
                TransitionTypeError,
                "transitions['c']: expected a tuple node, got {'tuple': [[], []]}",
                id="tuple-node-not-an-object",
            ),
        ],
    )
    def test_first_error_reported(self, parse, doc, error, message):
        # the transitions are decoded before the stack and the carrier are checked
        with pytest.raises(error) as info:
            parse(doc_text(**doc))
        assert str(info.value) == message

    def test_tropical_inf_weight_is_dropped(self):
        # inf is the tropical zero, and a branching value keeps no zero weight
        step = {"term": step_term("a", "c"), "weight": 1}
        dropped = {"term": stop_term(), "weight": "inf"}
        text = doc_text(kind="tropical", transitions={"c": [dropped, step]})
        expected = parse_system(doc_text(kind="tropical", transitions={"c": [step]}))
        assert parse_system(text).transitions == expected.transitions

    def test_tuple_keys_must_match_exponent(self):
        doc = {
            "kind": "bool",
            "stack": ["Id^{a,b}", "T", LTS_F],
            "states": ["c"],
            "transitions": {"c": {"tuple": {"a": [], "zz": []}}},
        }
        with pytest.raises(TransitionTypeError):
            parse_system(json.dumps(doc))


class TestLinearPart:
    def test_gtf(self):
        stack = TypeStack(
            SemiringKind.BOOL,
            (PolyLayer(parse_expr("{g} * Id")), BranchLayer(), PolyLayer(parse_expr(LTS_F))),
        )
        assert linear_part(stack).layers == (
            PolyLayer(parse_expr("{g} * Id")),
            PolyLayer(parse_expr(LTS_F)),
        )

    def test_tf(self):
        stack = TypeStack(SemiringKind.BOOL, (BranchLayer(), PolyLayer(parse_expr(LTS_F))))
        assert linear_part(stack).layers == (PolyLayer(parse_expr(LTS_F)),)

    def test_gt(self):
        stack = TypeStack(SemiringKind.BOOL, (PolyLayer(parse_expr("{g} * Id")), BranchLayer()))
        assert linear_part(stack).layers == (PolyLayer(parse_expr("{g} * Id")),)

    def test_idempotent(self):
        stack = TypeStack(
            SemiringKind.PROB,
            (PolyLayer(parse_expr("{g} * Id")), BranchLayer(), PolyLayer(parse_expr(LTS_F))),
        )
        assert linear_part(linear_part(stack)) == linear_part(stack)

    def test_pure_branching_degenerate(self):
        stack = TypeStack(SemiringKind.BOOL, (BranchLayer(),))
        with pytest.raises(DegenerateStack):
            linear_part(stack)

    def test_a_stack_needs_a_layer(self):
        with pytest.raises(ValidationError, match="at least one layer"):
            TypeStack(SemiringKind.BOOL, ())

    def test_a_layer_needs_its_expression(self):
        with pytest.raises(TypeError, match="PolyLayer takes the fields expr"):
            PolyLayer()

    def test_models_of_one_stack_text_share_its_layers(self):
        # so the stack check of every query finds each layer identical at once
        model = parse_system(doc_text())
        spec = parse_spec(doc_text(stack=[LTS_F], transitions={"c": stop_term()}))
        assert linear_part(model.stack).layers[0] is spec.stack.layers[0]
        spaced = parse_spec(doc_text(stack=[LTS_F.replace(" ", "")],
                                     transitions={"c": stop_term()}))
        assert spaced.stack.layers[0] is not spec.stack.layers[0]
        assert spaced.stack == spec.stack

    def test_degenerate_stack_parses_and_fails_in_a_query(self):
        model = parse_system(doc_text(stack=["T"], transitions={"c": [{"state": "c"}]}))
        spec = parse_spec(doc_text(stack=[LTS_F], transitions={"c": stop_term()}))
        with pytest.raises(DegenerateStack):
            behaviour(model, spec)


class TestRoundTrip:
    @pytest.mark.parametrize(
        "builder",
        [
            lambda: loop_exit_system("bool"),
            lambda: loop_exit_system("prob"),
            lambda: loop_exit_system("tropical"),
            omega_spec,
        ],
    )
    def test_serialize_parse_fixpoint(self, builder):
        model = builder()
        text = model.to_text()
        assert parse_system(text).to_text() == text

    def test_compound_stack_round_trip(self):
        doc = {
            "kind": "prob",
            "stack": ["({*} + Id)^{i}", "T", "Id * {o1,o2}"],
            "states": ["c"],
            "transitions": {
                "c": {
                    "tuple": {
                        "i": {
                            "inj": 1,
                            "of": [
                                {
                                    "term": {"pair": [{"state": "c"}, {"atom": "o1"}]},
                                    "weight": 0.5,
                                }
                            ],
                        }
                    }
                }
            },
        }
        text = parse_system(json.dumps(doc)).to_text()
        assert parse_system(text).to_text() == text


class TestBranchValues:
    def test_lts_branch_values(self):
        sys_model = loop_exit_system("bool")
        (values,) = (sys_model.values_at(0),)
        assert len(values) == 1
        assert values[0].support_keys() == ("i0(@*)", "i1((@a,c))")

    def test_nested_collection(self):
        doc = {
            "kind": "bool",
            "stack": ["{g} * Id", "T"],
            "states": ["c", "d"],
            "transitions": {
                "c": {"pair": [{"atom": "g"}, [{"state": "c"}, {"state": "d"}]]},
                "d": {"pair": [{"atom": "g"}, []]},
            },
        }
        sys_model = parse_system(json.dumps(doc))
        values = sys_model.values_at(1)
        assert {v.key() for v in values} == {"{}", "{c|d}"}

    def test_duplicates_collapse(self):
        doc = {
            "kind": "bool",
            "stack": ["T", LTS_F],
            "states": ["c", "d"],
            "transitions": {
                "c": [step_term("a", "c")],
                "d": [step_term("a", "c")],
            },
        }
        sys_model = parse_system(json.dumps(doc))
        assert len(sys_model.values_at(0)) == 1

    def test_polynomial_layer_terms(self):
        doc = {
            "kind": "bool",
            "stack": ["T", LTS_F],
            "states": ["c", "d", "e"],
            "transitions": {
                "c": [stop_term(), step_term("a", "c"), step_term("a", "d")],
                "d": [step_term("a", "c")],
                "e": [],
            },
        }
        sys_model = parse_system(json.dumps(doc))
        assert sys_model.values_at(1) == (
            Inj(0, Atom("*")),
            Inj(1, Pair(Atom("a"), StateRef("c"))),
            Inj(1, Pair(Atom("a"), StateRef("d"))),
        )

    def test_spec_layer_terms(self):
        spec = omega_spec("bool")
        assert spec.values_at(0) == (Inj(1, Pair(Atom("a"), StateRef("zw"))),)


def reference_values(model):
    """The values at every layer of ``model``, found by walking its decoded transitions."""
    layers = model.stack.layers
    found = [{} for _ in layers]

    def walk(idx, value):
        if idx == len(layers):
            return
        found[idx].setdefault(value_key(value), value)
        if isinstance(layers[idx], BranchLayer):
            items = [item for item, _ in value.entries]
        else:
            items = list(targets(layers[idx].expr, value))
        for item in items:
            walk(idx + 1, item)

    for state in model.states:
        walk(0, model.transitions[state])
    return [tuple(vals[k] for k in sorted(vals)) for vals in found]


def targets(expr, term):
    """The targets of the identity positions of ``term``, left to right."""
    if isinstance(expr, Id):
        yield term.target
    elif isinstance(expr, Prod):
        yield from targets(expr.left, term.fst)
        yield from targets(expr.right, term.snd)
    elif isinstance(expr, Coprod):
        yield from targets(expr.branches[term.index], term.arg)
    elif isinstance(expr, Power):
        for c in term.components:
            yield from targets(expr.body, c)


# several Ids in one term, powers, and [G, T, F] stacks, which the standard corpus lacks
VALUE_STACKS = (
    ["T", "{*} + {a} * Id * Id"],
    ["Id^{a,b,c}", "T"],
    ["{o} * Id + Id * Id", "T", "{*} + {a,b} * Id"],
    ["Id^{a,b,c}", "T", "{*} + Id * {a}"],
)


def demo_models():
    return [parse_system(p.read_text(encoding="utf-8")) for p in sorted(DATA.glob("*.json"))]


def corpus_models():
    return [model for *_, sys_model, spec in corpus() for model in (sys_model, spec)]


def stack_models():
    rng = random.Random(7)
    return [
        model
        for kind in SemiringKind
        for texts in VALUE_STACKS
        for _ in range(3)
        for model in gen_models_on(rng, kind, texts, 4, 3)
    ]


class TestCollectedValues:
    @pytest.mark.parametrize("models", [demo_models, corpus_models, stack_models])
    def test_values_match_a_walk_of_the_transitions(self, models):
        widest = 0
        for model in models():
            expected = reference_values(model)
            assert [model.values_at(i) for i in range(len(expected))] == expected
            widest = max(widest, *map(len, expected))
        assert widest > 1


class TestResolvedPositions:
    """Every position a model resolves at parse, against the keys one layer down."""

    @pytest.mark.parametrize("models", [demo_models, corpus_models, stack_models])
    def test_positions_index_the_keys_below(self, models):
        checked = 0
        for model in models():
            layers = model.stack.layers
            keys = [[value_key(v) for v in model.values_at(i)] for i in range(len(layers))]
            keys.append(list(model.states))
            for idx, layer in enumerate(layers):
                below = keys[idx + 1]
                assert len(model.resolved[idx]) == len(model.values_at(idx))
                for value, record in zip(model.values_at(idx), model.resolved[idx]):
                    if isinstance(layer, BranchLayer):
                        positions, weights, same = record
                        assert same is value
                        assert weights == [w.payload for _, w in value.entries]
                        items = [item for item, _ in value.entries]
                    else:
                        positions = record[2]
                        items = list(targets(layer.expr, value))
                    assert positions == [below.index(value_key(x)) for x in items]
                    checked += len(positions)
            assert model.top_positions == [
                keys[0].index(value_key(model.transitions[s])) for s in model.states
            ]
        assert checked > 0
