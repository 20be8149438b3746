import json
import pathlib
import random
import subprocess
import sys

import pytest

from ltbe import (
    INF,
    Atom,
    BranchLayer,
    BranchVal,
    DegenerateStack,
    Inj,
    KindMismatch,
    Pair,
    ParseError,
    PolyLayer,
    SemiringKind,
    SemiringValue,
    SpecSystem,
    StateRef,
    System,
    TransitionTypeError,
    TupleTerm,
    TypeStack,
    ValidationError,
    behaviour,
    bisimilarity,
    common_trace,
    linear_part,
    one,
    oracle_matrix,
    parse_expr,
    parse_spec,
    parse_system,
)
from ltbe import system
from ltbe.lifting import resolve_branch, resolve_term
from ltbe.polyfunctor import Const, Coprod, Id, Power, Prod, value_key
from modelgen import (
    LTS_F,
    SHAPES,
    corpus,
    gen_models_on,
    gen_system_pair,
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

    @pytest.mark.parametrize("index", [7, True, False])
    def test_injection_out_of_range(self, index):
        text = doc_text(transitions={"c": [{"inj": index, "of": {"atom": "*"}}]})
        with pytest.raises(TransitionTypeError):
            parse_system(text)

    def test_a_bool_injection_index_is_no_index(self):
        """``true`` is no ``1``: a model file holds one index rule, the resolver's."""
        text = doc_text(states=["c", "d"], transitions={
            "c": [{"inj": True, "of": step_term("a", "c")["of"]}], "d": [step_term("a", "c")]})
        with pytest.raises(TransitionTypeError,
                           match=r"^transitions\['c'\]\[0\]: injection index True out of range$"):
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
            # JSON reads 1e400 and the token Infinity as a float infinity, which is
            # no tropical weight: the infinite weight is the string "inf"
            *(
                pytest.param(
                    parse,
                    {"kind": "tropical",
                     "transitions": {"c": [{"term": stop_term(), "weight": INF}]}},
                    ValidationError,
                    "bad tropical value inf",
                    id=f"{token}-tropical-weight",
                )
                for token, parse in [
                    ("Infinity", parse_system),  # as json.dumps writes INF
                    ("1e400", lambda text: parse_system(text.replace("Infinity", "1e400"))),
                ]
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


F_LAYER = PolyLayer(parse_expr("{*} + {a} * Id"))
LTS_STACK = TypeStack(SemiringKind.BOOL, (BranchLayer(), F_LAYER))

#: A stack built from a bad kind or bad layers: the call, its error and its message.
BAD_STACKS = {
    "kind-string": (lambda: TypeStack("bool", (BranchLayer(), F_LAYER)), KindMismatch,
                    "^'bool' is not a semiring kind$"),
    "layer-string": (lambda: TypeStack(SemiringKind.BOOL, ("T",)), ValidationError,
                     r"needs a tuple of layers, got \('T',\)"),
    "bare-expression": (lambda: TypeStack(SemiringKind.BOOL, (parse_expr("Id"),)),
                        ValidationError, r"needs a tuple of layers, got \(Id\(\),\)"),
    "list-of-layers": (lambda: TypeStack(SemiringKind.BOOL, [BranchLayer(), F_LAYER]),
                       ValidationError, r"needs a tuple of layers, got \[BranchLayer\(\), "),
    "layer-of-text": (lambda: System(TypeStack(SemiringKind.BOOL, (PolyLayer("Id"),)), ["c"],
                                     {"c": {"state": "c"}}),
                      TransitionTypeError, "^'Id' is not a functor expression$"),
    "layer-of-list": (lambda: hash(PolyLayer([1])), TransitionTypeError,
                      r"^\[1\] is not a functor expression$"),
    "layer-of-bad-factor": (lambda: System(TypeStack(SemiringKind.BOOL,
                                                     (PolyLayer(Prod(Id(), "x")),)),
                                           ["c"], {"c": {"pair": [{"state": "c"}, "x"]}}),
                            TransitionTypeError, "^'x' is not a functor expression$"),
}

#: A model's arguments of a wrong type: the arguments, the error and its message.
BAD_MODELS = {
    "stack-string": (("x", ["c"], {"c": [stop_term()]}), ValidationError,
                     "^a model's stack must be a TypeStack, got 'x'$"),
    "transitions-list": ((LTS_STACK, ["c"], [[stop_term()]]), ParseError,
                         "^'transitions' must be an object$"),
    "state-int": ((LTS_STACK, [1], {1: [stop_term()]}), ParseError,
                  "^'states' must be a list of state ids$"),
    "states-string": ((LTS_STACK, "c", {"c": [stop_term()]}), ParseError,
                      "^'states' must be a list of state ids$"),
}


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

    @pytest.mark.parametrize("case", BAD_STACKS)
    def test_a_stack_takes_a_kind_and_a_tuple_of_layers(self, case):
        error, message = BAD_STACKS[case][1:]
        with pytest.raises(error, match=message):
            BAD_STACKS[case][0]()

    @pytest.mark.parametrize("case", BAD_MODELS)
    def test_a_model_checks_its_arguments_before_it_decodes(self, case):
        args, error, message = BAD_MODELS[case]
        for model in (System, SpecSystem):
            with pytest.raises(error, match=message):
                model(*args)

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

    def test_models_with_a_branching_layer_share_one(self):
        # ``_layer`` reads every stack entry, ``"T"`` too, and builds its layer once
        a, b = parse_system(doc_text()), parse_system(doc_text(stack=["T", "Id"],
                                                               transitions={"c": [{"state": "c"}]}))
        assert a.stack.layers[0] is b.stack.layers[0] is system._layer("T")
        assert system._layer("T") == BranchLayer()

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


def pair_models():
    rng = random.Random(11)
    return [
        model
        for kind in SemiringKind
        for shape in SHAPES
        for _ in range(3)
        for model in gen_system_pair(rng, kind, shape)
    ]


# powers whose body is a product, and a product with a power in it: a power's tree
# folds component trees that are themselves products
POWER_STACKS = (
    ["T", "(Id * Id)^{a,b}"],
    ["{n,y} * Id^{a,b,c}", "T"],
    ["(Id * ({*} + Id))^{a,b}", "T", "{*} + {a} * Id"],
)


def power_models():
    rng = random.Random(13)
    return [
        model
        for kind in SemiringKind
        for texts in POWER_STACKS
        for _ in range(3)
        for model in gen_models_on(rng, kind, texts, 4, 3)
    ]


MODEL_FAMILIES = [demo_models, corpus_models, stack_models, pair_models, power_models]


class TestCollectedValues:
    @pytest.mark.parametrize("models", MODEL_FAMILIES)
    def test_values_match_a_walk_of_the_transitions(self, models):
        widest = 0
        for model in models():
            expected = reference_values(model)
            assert [model.values_at(i) for i in range(len(expected))] == expected
            widest = max(widest, *map(len, expected))
        assert widest > 1


def carrier_indexes(model):
    """The position of each key at every layer of ``model`` and of each state."""
    layers = model.stack.layers
    keys = [[value_key(v) for v in model.values_at(i)] for i in range(len(layers))]
    keys.append(list(model.states))
    return [{k: i for i, k in enumerate(ks)} for ks in keys]


class TestResolvedPositions:
    """Every row a model's decoder makes, against the values boxed from the rows."""

    @pytest.mark.parametrize("models", MODEL_FAMILIES)
    def test_positions_index_the_keys_below(self, models):
        checked = 0
        for model in models():
            layers = model.stack.layers
            keys = [list(index) for index in carrier_indexes(model)]
            for idx, layer in enumerate(layers):
                below = keys[idx + 1]
                assert len(model.resolved[idx]) == len(model.values_at(idx))
                for value, record in zip(model.values_at(idx), model.resolved[idx]):
                    if isinstance(layer, BranchLayer):
                        positions, weights, same = record
                        assert same == value.key()
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

    @pytest.mark.parametrize("models", MODEL_FAMILIES)
    def test_rows_resolve_the_boxed_values(self, models):
        """The one decoding walk gives the rows that ``lifting`` makes of the boxed values."""
        for model in models():
            index = carrier_indexes(model)
            for idx, layer in enumerate(model.stack.layers):
                values = model.values_at(idx)
                if isinstance(layer, BranchLayer):
                    expected = [resolve_branch(v, index[idx + 1]) for v in values]
                else:
                    expected = [resolve_term(layer.expr, v, index[idx + 1]) for v in values]
                assert model.resolved[idx] == expected

    @pytest.mark.parametrize("models", MODEL_FAMILIES)
    def test_text_round_trip_keeps_rows_and_keys(self, models):
        for model in models():
            twin = (parse_spec if type(model) is SpecSystem else parse_system)(model.to_text())
            assert twin.resolved == model.resolved
            assert twin.top_positions == model.top_positions
            assert [list(i) for i in carrier_indexes(twin)] == [
                list(i) for i in carrier_indexes(model)]


BOXED_CLASSES = (StateRef, Atom, Pair, Inj, TupleTerm, BranchVal, SemiringValue)


@pytest.fixture
def boxed(monkeypatch):
    """The number of boxed values built while the fixture is live."""
    built = []
    for cls in BOXED_CLASSES:
        def counting(self, *args, __init=cls.__init__, **kwargs):
            built.append(self)
            __init(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counting)
    return built


def box_json(stack, raw, idx=0):
    """The boxed value of layer ``idx`` that ``raw`` writes, built by the value constructors."""
    layers, kind = stack.layers, stack.kind
    if idx == len(layers):
        return raw["state"]
    if isinstance(layers[idx], BranchLayer):
        if kind is SemiringKind.BOOL:
            return BranchVal(kind, tuple((box_json(stack, r, idx + 1), one(kind)) for r in raw))
        return BranchVal(kind, tuple(
            (box_json(stack, r["term"], idx + 1), SemiringValue(kind, INF if r["weight"] == "inf"
                                                                else r["weight"]))
            for r in raw))

    def term(expr, raw):
        if isinstance(expr, Id):
            return StateRef(box_json(stack, raw, idx + 1))
        if isinstance(expr, Const):
            return Atom(raw["atom"])
        if isinstance(expr, Prod):
            return Pair(term(expr.left, raw["pair"][0]), term(expr.right, raw["pair"][1]))
        if isinstance(expr, Coprod):
            return Inj(raw["inj"], term(expr.branches[raw["inj"]], raw["of"]))
        return TupleTerm(tuple(term(expr.body, raw["tuple"][a]) for a in expr.exponent))

    return term(layers[idx].expr, raw)


class TestValuesBoxedOnFirstRead:
    QUERIES = [
        (parse_spec, behaviour, "coin", "spec_chain2"),
        (parse_spec, behaviour, "automaton", "spec_always_accept"),
        (parse_spec, behaviour, "io_machine", "spec_io_all_ok"),
        (parse_system, common_trace, "routes", "stop_cost2"),
        (parse_system, common_trace, "coin", "coin"),
        (parse_system, bisimilarity, "lts_loop_exit", "loop_or_deadlock"),
    ]

    @pytest.mark.parametrize("parse, query, a, b", QUERIES)
    def test_a_query_boxes_nothing(self, boxed, parse, query, a, b):
        sys_model = parse_system((DATA / f"{a}.json").read_text(encoding="utf-8"))
        other = parse((DATA / f"{b}.json").read_text(encoding="utf-8"))
        query(sys_model, other).result.to_csv()
        assert boxed == []
        assert sys_model.values_at(0) and boxed  # built on first read

    @pytest.mark.parametrize("path", sorted(DATA.glob("*.json")), ids=lambda p: p.stem)
    def test_boxed_values_are_those_the_file_writes(self, path):
        doc = json.loads(path.read_text(encoding="utf-8"))
        model = parse_system(path.read_text(encoding="utf-8"))
        expected = {s: box_json(model.stack, doc["transitions"][s]) for s in model.states}
        assert model.transitions == expected
        assert [model.values_at(i) for i in range(len(model.stack.layers))] == reference_values(model)
        twin = json.loads(json.dumps(model.to_json()))
        assert {s: box_json(model.stack, twin["transitions"][s]) for s in model.states} == expected

    @pytest.mark.parametrize("models", MODEL_FAMILIES)
    def test_to_json_writes_the_boxed_values(self, models):
        for model in models():
            doc = json.loads(json.dumps(model.to_json()))
            assert {s: box_json(model.stack, doc["transitions"][s])
                    for s in model.states} == model.transitions

    @pytest.mark.parametrize("name", ["coin", "routes", "lts_loop_exit"])
    def test_to_json_boxes_nothing(self, boxed, name):
        model = parse_system((DATA / f"{name}.json").read_text(encoding="utf-8"))
        doc = model.to_json()
        assert boxed == []
        assert doc == json.loads((DATA / f"{name}.json").read_text(encoding="utf-8"))

    def test_oracle_reads_the_boxed_values(self, boxed):
        sys_model = parse_system((DATA / "coin.json").read_text(encoding="utf-8"))
        spec = parse_spec((DATA / "spec_chain2.json").read_text(encoding="utf-8"))
        assert oracle_matrix(sys_model, spec, 6) == behaviour(sys_model, spec).result
        assert boxed


# The deepest nesting of each shape that the previous decoder parsed at the
# default recursion limit, called from one function at module level, as found
# by bisection; 10x deeper it ended in a ParseError.
NESTING = {"prod-chain": 494, "power": 247, "branching-stack": 987}
NESTING_SCRIPT = """
import json, sys
import ltbe

def text(shape, n):
    if shape == "prod-chain":
        stack, value = ["Id" + " * Id" * n], '{"pair": [' * n + '{"state": "c"}' + ', {"state": "c"}]}' * n
    elif shape == "power":
        stack, value = ["Id" + "^{a}" * n], '{"tuple": {"a": ' * n + '{"state": "c"}' + "}}" * n
    else:
        stack, value = ["T"] * n + ["{*}"], "[" * n + '{"atom": "*"}' + "]" * n
    return '{"kind": "bool", "stack": %s, "states": ["c"], "transitions": {"c": %s}}' % (
        json.dumps(stack), value)

def parses(shape, n):
    parse = ltbe.parse_system if shape == "branching-stack" else ltbe.parse_spec
    try:
        parse(text(shape, n))
    except ltbe.ParseError:
        return False
    return True

shape, n = sys.argv[1], int(sys.argv[2])
if len(sys.argv) > 3:
    open(sys.argv[3], "w").write(text(shape, n))
else:
    print(parses(shape, n))
"""

BOXING_SCRIPT = """
import json, pathlib, sys
k, out = int(sys.argv[1]), pathlib.Path(sys.argv[2])
expr, term = "{*} + Id" + "^{a}" * k, {"state": "c"}
for _ in range(k):
    term = {"tuple": {"a": term}}
term = {"inj": 1, "of": term}
for name, stack, value in (("system", ["T", expr], [term]), ("spec", [expr], term)):
    (out / f"{name}.json").write_text(json.dumps(
        {"kind": "bool", "stack": stack, "states": ["c"], "transitions": {"c": value}}))
"""

# The deepest ``BOXING_SCRIPT`` pair that parses at the default recursion limit,
# called from one function at module level, as found by bisection: the JSON
# decoder spends two levels on each tuple, and boxing one frame.
BOXING_DEPTH = 493
BOXED_ORACLE_SCRIPT = """
import pathlib, sys
import ltbe

def answers(out):
    sys_model = ltbe.parse_system((out / "system.json").read_text())
    spec = ltbe.parse_spec((out / "spec.json").read_text())
    for rel in ltbe.oracle_matrix(sys_model, spec, 2), ltbe.oracle_common(sys_model, sys_model, 1):
        print(rel.to_csv(), end="")

answers(pathlib.Path(sys.argv[1]))
"""


class TestNestingDepth:
    """The decoder recurses once per term node and once per branching layer."""

    @pytest.mark.parametrize("shape", NESTING)
    def test_the_deepest_nesting_parsed_before_still_parses(self, shape):
        proc = subprocess.run([sys.executable, "-c", NESTING_SCRIPT, shape, str(NESTING[shape])],
                              capture_output=True, text=True, timeout=120)
        assert (proc.stdout, proc.stderr) == ("True\n", "")

    def test_a_recursion_error_while_parsing_is_a_parse_error(self, monkeypatch):
        """The same rule in process, with the overflow stood in for: a real one
        here would also overflow a line tracer's own call, which switches
        tracing off for the rest of the run."""
        def too_deep(text):
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(system, "_parse_model", too_deep)
        with pytest.raises(ParseError, match="^input is nested too deeply$"):
            parse_spec("{}")

    @pytest.mark.parametrize("flags", [["--system", "system.json", "--spec", "spec.json",
                                        "--depth", "2"],
                                       ["--a", "system.json", "--b", "system.json", "--depth", "1"]])
    def test_the_oracle_answers_a_value_nested_400_deep(self, flags, tmp_path):
        """Boxing renders a term's key one frame per level, as the decoder reads it."""
        subprocess.run([sys.executable, "-c", BOXING_SCRIPT, "400", str(tmp_path)],
                       check=True, timeout=120)
        flags = [str(tmp_path / f) if f.endswith(".json") else f for f in flags]
        proc = subprocess.run([sys.executable, "-m", "ltbe", "oracle", *flags],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, ",c\nc,1\n", "")

    def test_the_deepest_value_that_parses_boxes(self, tmp_path):
        subprocess.run([sys.executable, "-c", BOXING_SCRIPT, str(BOXING_DEPTH), str(tmp_path)],
                       check=True, timeout=120)
        proc = subprocess.run([sys.executable, "-c", BOXED_ORACLE_SCRIPT, str(tmp_path)],
                              capture_output=True, text=True, timeout=120)
        assert (proc.stdout, proc.stderr) == (",c\nc,1\n" * 2, "")

    @pytest.mark.parametrize("shape", NESTING)
    def test_ten_times_deeper_is_a_parse_error(self, shape, tmp_path):
        model = tmp_path / "deep.json"
        subprocess.run([sys.executable, "-c", NESTING_SCRIPT, shape, str(10 * NESTING[shape]),
                        str(model)], check=True, timeout=120)
        flags = ["--a", str(model), "--b", str(model)]
        if shape != "branching-stack":
            flags = ["--system", str(DATA / "spec_a_stop.json"), "--spec", str(model)]
        proc = subprocess.run([sys.executable, "-m", "ltbe",
                               "common" if shape == "branching-stack" else "behaviour", *flags],
                              capture_output=True, text=True, timeout=120)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "ltbe: ParseError: input is nested too deeply\n"
