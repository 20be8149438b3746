import re
import subprocess
import sys

import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltbe import (
    Atom,
    Const,
    Coprod,
    Id,
    Inj,
    Pair,
    ParseError,
    Power,
    Prod,
    StateRef,
    TupleTerm,
    UNIT,
    expr_to_text,
    parse_expr,
    validate_term,
    value_key,
)
from ltbe import polyfunctor

LTS = Coprod((UNIT, Prod(Const(("a",)), Id())))


class TestParse:
    @pytest.mark.parametrize(
        "text,expr",
        [
            ("Id", Id()),
            ("{*}", UNIT),
            ("{a,b}", Const(("a", "b"))),
            ("{*} + {a} * Id", LTS),
            ("{a} * Id * {b}", Prod(Prod(Const(("a",)), Id()), Const(("b",)))),
            ("(1 + Id)".replace("1", "{*}"), Coprod((UNIT, Id()))),
            ("({*} + Id)^{x,y}", Power(("x", "y"), Coprod((UNIT, Id())))),
            ("Id^{a}^{b}", Power(("b",), Power(("a",), Id()))),
            ("{n,y} * Id^{a,b}", Prod(Const(("n", "y")), Power(("a", "b"), Id()))),
        ],
    )
    def test_examples(self, text, expr):
        assert parse_expr(text) == expr

    def test_coproduct_chains_flatten(self):
        assert parse_expr("Id + Id + Id") == Coprod((Id(), Id(), Id()))

    def test_parenthesized_coproducts_nest(self):
        assert parse_expr("(Id + Id) + Id") == Coprod((Coprod((Id(), Id())), Id()))

    @pytest.mark.parametrize(
        "bad",
        ["", "Id +", "* Id", "{}", "{a,,b}", "{a,a}", "(Id", "Id)", "Id ^ a", "Idx", "{a b}"],
    )
    def test_rejects(self, bad):
        with pytest.raises(ParseError):
            parse_expr(bad)

    def test_duplicate_exponent_atoms_rejected(self):
        with pytest.raises(ParseError):
            parse_expr("Id^{a,a}")

    @pytest.mark.parametrize(
        "text,message",
        [("Id^Id", "expected '{...}' after '^'"), ("(Id {a}", "missing ')'")],
    )
    def test_reports_what_it_expected(self, text, message):
        with pytest.raises(ParseError, match=re.escape(message)):
            parse_expr(text)

    def test_an_expression_nested_past_the_recursion_limit_is_a_parse_error(self):
        code = ("import ltbe\ntry:\n    ltbe.parse_expr('(' * 3000 + 'Id' + ')' * 3000)\n"
                "except ltbe.ParseError as exc:\n    print(exc)")
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              timeout=120)
        assert (proc.stdout, proc.stderr) == ("input is nested too deeply\n", "")

    def test_a_recursion_error_while_parsing_is_a_parse_error(self, monkeypatch):
        """The same rule in process, with the overflow stood in for: a real one
        would switch a line tracer off for the rest of the run."""
        def too_deep():
            raise RecursionError("maximum recursion depth exceeded")

        monkeypatch.setattr(polyfunctor, "Id", too_deep)
        with pytest.raises(ParseError, match="^input is nested too deeply$"):
            parse_expr("(Id)")

    def test_trailing_whitespace_is_ignored(self):
        assert parse_expr("Id  ") == Id()

    @pytest.mark.parametrize(
        "build,message",
        [
            (lambda: Const(()), "nonempty"),
            (lambda: Const(("a", "a")), "duplicate labels"),
            (lambda: Coprod((Id(),)), "at least two branches"),
            (lambda: Power((), Id()), "nonempty"),
            (lambda: Power(("a", "a"), Id()), "duplicate exponent atoms"),
            (lambda: Const("ab"), "constant labels must be a tuple of atoms, got 'ab'"),
            (lambda: Const(["a"]), "constant labels must be a tuple of atoms"),
            (lambda: Const((1,)), "constant labels must be a tuple of atoms"),
            (lambda: Const(("a b",)), "constant labels must be a tuple of atoms"),
            (lambda: Coprod([UNIT, Id()]), "coproduct branches must be a tuple"),
            (lambda: Power(["a", "b"], Id()), "power exponent must be a tuple of atoms"),
            (lambda: Power(("{a}",), Id()), "power exponent must be a tuple of atoms"),
            (lambda: Coprod((UNIT, Prod(Const(("a,b",)), Id()))),
             re.escape("constant labels must be a tuple of atoms, got ('a,b',)")),
        ],
    )
    def test_constructors_reject_what_the_grammar_cannot_write(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()


names = st.lists(st.sampled_from("abcxyz*"), min_size=1, max_size=3, unique=True).map(tuple)
exprs = st.recursive(
    st.one_of(st.just(Id()), names.map(Const)),
    lambda inner: st.one_of(
        st.tuples(inner, inner).map(lambda lr: Prod(*lr)),
        st.lists(inner, min_size=2, max_size=3).map(lambda bs: Coprod(tuple(bs))),
        st.tuples(names, inner).map(lambda ne: Power(*ne)),
    ),
    max_leaves=6,
)


class TestRender:
    @given(exprs)
    def test_round_trip(self, expr):
        assert parse_expr(expr_to_text(expr)) == expr

    def test_a_coproduct_branch_keeps_its_parentheses(self):
        assert expr_to_text(parse_expr("({*} + Id) + Id")) == "({*} + Id) + Id"

    def test_a_coproduct_left_factor_keeps_its_parentheses(self):
        assert expr_to_text(parse_expr("({a} + {b}) * Id")) == "({a} + {b}) * Id"


class TestValidate:
    def test_termination_term(self):
        assert validate_term(LTS, Inj(0, Atom("*")), {"c"})

    def test_step_term(self):
        assert validate_term(LTS, Inj(1, Pair(Atom("a"), StateRef("c"))), {"c"})

    def test_pair_required_under_product(self):
        assert not validate_term(LTS, Inj(1, Atom("a")), {"c"})

    def test_unknown_state_rejected(self):
        assert not validate_term(LTS, Inj(1, Pair(Atom("a"), StateRef("q"))), {"c"})

    def test_out_of_range_injection(self):
        assert not validate_term(LTS, Inj(2, Atom("*")), {"c"})

    def test_tuple_arity(self):
        expr = Power(("x", "y"), Id())
        assert validate_term(expr, TupleTerm((StateRef("c"), StateRef("c"))), {"c"})
        assert not validate_term(expr, TupleTerm((StateRef("c"),)), {"c"})


class TestKeys:
    def test_keys_are_structural(self):
        expr = parse_expr("{*} + {a} * Id")
        terms = [Inj(0, Atom("*")), Inj(1, Pair(Atom("a"), StateRef("s")))]
        assert all(validate_term(expr, t, ["s"]) for t in terms)
        keys = [value_key(t) for t in terms]
        assert keys == ["i0(@*)", "i1((@a,s))"]

    def test_state_refs_are_transparent(self):
        assert value_key(StateRef("s")) == "s"

    def test_cached_key_equals_a_fresh_rendering(self):
        term = Inj(1, Pair(Atom("a"), TupleTerm((StateRef("c"), StateRef("d")))))
        assert term.key() == "i1((@a,t(c;d)))"

    def test_cached_key_leaves_eq_hash_and_repr_alone(self):
        cached = Inj(1, Pair(Atom("a"), StateRef("c")))
        fresh = Inj(1, Pair(Atom("a"), StateRef("c")))
        cached.key()
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) == (
            "Inj(index=1, arg=Pair(fst=Atom(label='a'), snd=StateRef(target='c')))"
        )
