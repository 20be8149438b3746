"""Every public lifting checks its values against the layer it lifts through.

A term that is not one of the expression, or a branching position that
holds no branching value, ends in ``TransitionTypeError``; a well-typed
value whose key is not in the relation's carrier ends in
``CarrierMismatch``.  ``validate_term`` answers by the same walk.  A
value that is no functor expression, or branching entries that are not
iterable, end in ``TransitionTypeError`` too, and a kind that is no
``SemiringKind`` ends in ``KindMismatch`` in every kinded constructor.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ltbe import (
    Atom,
    BranchLayer,
    BranchVal,
    CarrierMismatch,
    Inj,
    KindMismatch,
    Pair,
    SemiringKind,
    SemiringValue,
    StateRef,
    TransitionTypeError,
    TupleTerm,
    ValRel,
    check_semiring_laws,
    dirac,
    expr_to_text,
    lift_double_extension,
    lift_egli_milner,
    lift_extension,
    lift_poly,
    one,
    parse_expr,
    validate_term,
    value_key,
    zero,
)
from modelgen import SHAPES, gen_model_pair

B = SemiringKind.BOOL
REL = ValRel.top(["c"], ["d"], B)
LTS = parse_expr("{*} + {a} * Id")
SQUARE = parse_expr("Id^{x,y}")
ID = parse_expr("Id")

#: An expression, a term of it over either carrier, and a value that is no term of it.
ILL_TYPED = {
    "label-outside-the-constant": (LTS, lambda s: Inj(0, Atom("*")), lambda s: Inj(0, Atom("zz"))),
    "short-tuple": (SQUARE, lambda s: TupleTerm((StateRef(s), StateRef(s))),
                    lambda s: TupleTerm((StateRef(s),))),
    "components-not-a-tuple": (SQUARE, lambda s: TupleTerm((StateRef(s), StateRef(s))),
                               lambda s: TupleTerm([StateRef(s), StateRef(s)])),
    "atom-for-a-pair": (LTS, lambda s: Inj(1, Pair(Atom("a"), StateRef(s))),
                        lambda s: Inj(1, Atom("a"))),
    "injection-out-of-range": (LTS, lambda s: Inj(0, Atom("*")), lambda s: Inj(5, Atom("*"))),
    "bool-injection-index": (LTS, lambda s: Inj(0, Atom("*")), lambda s: Inj(False, Atom("*"))),
    "target-not-a-key": (SQUARE, lambda s: TupleTerm((StateRef(s), StateRef(s))),
                         lambda s: TupleTerm((StateRef(s), StateRef(7)))),
    "not-a-term": (LTS, lambda s: Inj(0, Atom("*")), lambda s: "i0(@*)"),
    "target-holds-no-value": (ID, lambda s: StateRef(s), lambda s: StateRef(Pair(Atom("a"), 5))),
}


class TestLiftPoly:
    @pytest.mark.parametrize("case", ILL_TYPED)
    def test_well_typed_sides_lift(self, case):
        expr, good, _ = ILL_TYPED[case]
        assert lift_poly(expr, REL, [good("c")], [good("d")]).payloads() == [True]

    @pytest.mark.parametrize("side", ["rows", "cols", "both"])
    @pytest.mark.parametrize("case", ILL_TYPED)
    def test_an_ill_typed_term_is_a_transition_type_error(self, case, side):
        expr, good, bad = ILL_TYPED[case]
        rows = [bad("c") if side != "cols" else good("c")]
        cols = [bad("d") if side != "rows" else good("d")]
        with pytest.raises(TransitionTypeError, match="is not a term of"):
            lift_poly(expr, REL, rows, cols)

    def test_the_message_names_the_node_and_its_expression(self):
        message = r"^Atom\(label='zz'\) is not a term of \{\*\}$"
        with pytest.raises(TransitionTypeError, match=message):
            lift_poly(LTS, REL, [Inj(0, Atom("zz"))], [Inj(0, Atom("zz"))])

    def test_a_key_outside_the_carrier_is_still_a_carrier_mismatch(self):
        with pytest.raises(CarrierMismatch):
            lift_poly(LTS, REL, [Inj(1, Pair(Atom("a"), StateRef("d")))], [Inj(0, Atom("*"))])

    @pytest.mark.parametrize("case", ILL_TYPED)
    def test_validate_term_gives_the_same_answer(self, case):
        expr, good, bad = ILL_TYPED[case]
        assert validate_term(expr, good("c"), ["c"])
        assert not validate_term(expr, bad("c"), ["c"])


class TestNotAnExpression:
    """A value that is no functor expression where one belongs is a ``TransitionTypeError``."""

    def test_expr_to_text(self):
        with pytest.raises(TransitionTypeError, match="^'Id' is not a functor expression$"):
            expr_to_text("Id")

    def test_lift_poly(self):
        with pytest.raises(TransitionTypeError, match="^'Id' is not a functor expression$"):
            lift_poly("Id", REL, [StateRef("c")], [StateRef("d")])

    def test_validate_term_answers_false(self):
        assert validate_term("Id", StateRef("c"), ["c"]) is False


NOT_BRANCHING = {"text": "notabranch", "term": Inj(0, Atom("*")), "none": None}
BRANCH_LIFTS = {
    "extension": lambda rel, left, right: lift_extension(rel, left),
    "double-extension": lift_double_extension,
    "egli-milner": lift_egli_milner,
}


class TestBranchLifts:
    @pytest.mark.parametrize("value", NOT_BRANCHING)
    @pytest.mark.parametrize("lift", BRANCH_LIFTS)
    def test_a_left_value_that_is_no_branching_value(self, lift, value):
        with pytest.raises(TransitionTypeError, match="is not a branching value"):
            BRANCH_LIFTS[lift](REL, [dirac(B, "c"), NOT_BRANCHING[value]], [dirac(B, "d")])

    @pytest.mark.parametrize("value", NOT_BRANCHING)
    @pytest.mark.parametrize("lift", ["double-extension", "egli-milner"])
    def test_a_right_value_that_is_no_branching_value(self, lift, value):
        with pytest.raises(TransitionTypeError, match="is not a branching value"):
            BRANCH_LIFTS[lift](REL, [dirac(B, "c")], [NOT_BRANCHING[value]])


NOT_A_PAIR = r"is not an \(item, weight\) pair"
#: Hand-built branching values that hold something that is no value.
NOT_VALUES = {
    "weight-not-a-semiring-value": (lambda: BranchVal(B, (("c", True),)), NOT_A_PAIR),
    "item-not-a-value": (lambda: BranchVal(B, ((5, one(B)),)), "5 is not a state id"),
    "entry-not-a-pair": (lambda: BranchVal(B, ("c",)), NOT_A_PAIR),
    "nested-item-not-a-value": (lambda: BranchVal(B, ((Pair(Atom("a"), 5), one(B)),)),
                                "5 is not a state id"),
}


class TestKeysOfNonValues:
    @pytest.mark.parametrize("case", NOT_VALUES)
    def test_a_branching_value_over_a_non_value(self, case):
        build, message = NOT_VALUES[case]
        with pytest.raises(TransitionTypeError, match=message):
            build()

    def test_a_term_that_holds_a_non_value_has_no_key(self):
        with pytest.raises(TransitionTypeError, match="^5 is not a state id, term or branching"):
            value_key(StateRef(Pair(Atom("a"), 5)))


class TestBranchValEntries:
    """``BranchVal`` reads its entries once, so any iterable of them will do."""

    def test_a_generator_gives_the_same_value_as_a_list(self):
        from_generator = BranchVal(B, ((s, one(B)) for s in ["c", "d"]))
        from_list = BranchVal(B, [(s, one(B)) for s in ["c", "d"]])
        assert from_generator == from_list
        assert from_generator.key() == from_list.key() == "{c|d}"

    @pytest.mark.parametrize("entries", [None, 5], ids=repr)
    def test_entries_that_are_not_iterable(self, entries):
        with pytest.raises(TransitionTypeError, match="is not an iterable of entries"):
            BranchVal(B, entries)


#: Every constructor of a kinded value given the string ``"bool"`` for its kind.
NOT_A_KIND = {
    "branch-value": lambda: BranchVal("bool", (("c", one(B)),)),
    "zero": lambda: zero("bool"),
    "dirac": lambda: dirac("bool", "c"),
    "top": lambda: ValRel.top(["a"], ["b"], "bool"),
    "laws": lambda: check_semiring_laws("bool"),
    "semiring-value": lambda: SemiringValue("bool", True),
    "from-payloads": lambda: ValRel.from_payloads("bool", ["a"], ["b"], [True]),
    "valrel": lambda: ValRel("bool", ["a"], ["b"], [[one(B)]]),
}


@pytest.mark.parametrize("case", NOT_A_KIND)
def test_a_kind_that_is_no_semiring_kind(case):
    with pytest.raises(KindMismatch, match="^'bool' is not a semiring kind$"):
        NOT_A_KIND[case]()


@settings(max_examples=40, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2**32 - 1), st.sampled_from(SHAPES), st.sampled_from(list(SemiringKind)))
def test_every_decoded_term_is_valid_one_layer_down(seed, shape, kind):
    """A model's polynomial values are terms over the keys of the layer below them."""
    for model in gen_model_pair(random.Random(seed), kind, shape):
        layers = model.stack.layers
        for idx, layer in enumerate(layers):
            if isinstance(layer, BranchLayer):
                continue
            below = (model.states if idx + 1 == len(layers)
                     else [value_key(v) for v in model.values_at(idx + 1)])
            assert all(validate_term(layer.expr, t, below) for t in model.values_at(idx))
