import ast
import itertools
import json
import pathlib

import pytest

from ltbe import (
    INF,
    SemiringKind,
    StackMismatch,
    UndefinedSum,
    ValRel,
    behaviour,
    common_iterates,
    common_trace,
    iterates,
    oracle_common,
    oracle_matrix,
    parse_spec,
    parse_system,
)
from modelgen import (
    LTS_F,
    SHAPES,
    chain_spec,
    corpus,
    doubling_docs,
    far_step_doc,
    gen_model_pair,
    gen_system_pair,
    loop_exit_system,
    omega_spec,
    step_term,
    stop_term,
    tropical_stopper,
    with_unit_branching,
)
import random

from ltbe import oracle
from ltbe.oracle import _arithmetic

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL
DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


class TestOracleMatrix:
    def test_depth_zero_is_top(self):
        sys_model = loop_exit_system("prob")
        spec = chain_spec(2, "prob")
        assert oracle_matrix(sys_model, spec, 0) == ValRel.top(
            sys_model.states, spec.states, P
        )

    def test_coin_three_flips(self):
        sys_model = loop_exit_system("prob")
        spec = chain_spec(2, "prob")
        for depth in (3, 4, 6):
            got = oracle_matrix(sys_model, spec, depth)
            assert got.get("c", "z2").payload == pytest.approx(0.125)

    def test_tropical_two_paths(self):
        doc = {
            "kind": "tropical",
            "stack": ["T", LTS_F],
            "states": ["c", "c1", "c2"],
            "transitions": {
                "c": [
                    {"term": step_term("a", "c1"), "weight": 2},
                    {"term": step_term("a", "c2"), "weight": 5},
                ],
                "c1": [{"term": stop_term(), "weight": 0}],
                "c2": [{"term": stop_term(), "weight": 0}],
            },
        }
        sys_model = parse_system(json.dumps(doc))
        spec = chain_spec(1, "tropical")
        assert oracle_matrix(sys_model, spec, 2).get("c", "z1").payload == 2

    def test_acyclic_values_are_depth_stable(self):
        sys_model = loop_exit_system("bool")
        spec = chain_spec(1, "bool")
        deep = oracle_matrix(sys_model, spec, 4)
        deeper = oracle_matrix(sys_model, spec, 5)
        assert deep == deeper

    def test_depth_validated(self):
        with pytest.raises(ValueError):
            oracle_matrix(loop_exit_system("bool"), omega_spec("bool"), -1)

    def test_stack_checked(self):
        sys_model = loop_exit_system("bool")
        wrong_doc = chain_spec(1, "bool").to_json()
        wrong_doc["stack"] = ["{*} + {zz} * Id"]
        wrong_doc["transitions"]["z1"] = step_term("zz", "z0")
        with pytest.raises(StackMismatch):
            oracle_matrix(sys_model, parse_spec(json.dumps(wrong_doc)), 1)


class TestCostsBeyondTheFloatRange:
    """A tropical cost that no float holds, plus ``inf``, is ``inf``, as in the engine."""

    def test_fold(self):
        sys_model = parse_system(json.dumps(far_step_doc()))
        spec = parse_spec((DATA / "spec_a_stop_trop.json").read_text())
        got = oracle_matrix(sys_model, spec, 3)
        assert got == behaviour(sys_model, spec).result
        assert {v.payload for _, _, v in got.entries()} == {INF}

    def test_product(self):
        system, spec = (json.dumps(doc) for doc in doubling_docs())
        got = oracle_matrix(parse_system(system), parse_spec(spec), 1030)
        assert [v.payload for _, _, v in got.entries()] == [2**1030 - 1, INF, INF]


class TestArithmetic:
    """No valid model reaches a prob sum beyond 1, so the guard is tested on the sum itself."""

    def test_prob_sum_beyond_the_slack_is_undefined(self):
        add = _arithmetic(P)[2]
        with pytest.raises(UndefinedSum, match="escaped"):
            add(0.75, 0.5)

    def test_prob_sum_within_the_slack_is_clamped(self):
        assert _arithmetic(P)[2](0.75, 0.25 + 1e-12) == 1.0


class TestOracleCommon:
    def test_depth_zero_is_top(self):
        a, b = tropical_stopper(2, "c"), tropical_stopper(3, "d")
        assert oracle_common(a, b, 0) == ValRel.top(a.states, b.states, T)

    def test_tropical_single_termination_pair(self):
        a, b = tropical_stopper(2, "c"), tropical_stopper(3, "d")
        assert oracle_common(a, b, 1).get("c", "d").payload == 5

    def test_bool_disjoint_alphabets(self):
        a_doc = {
            "kind": "bool",
            "stack": ["T", "{*} + {a,b} * Id"],
            "states": ["c"],
            "transitions": {"c": [{"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": "c"}]}}]},
        }
        b_doc = {
            "kind": "bool",
            "stack": ["T", "{*} + {a,b} * Id"],
            "states": ["d"],
            "transitions": {"d": [{"inj": 1, "of": {"pair": [{"atom": "b"}, {"state": "d"}]}}]},
        }
        got = oracle_common(parse_system(json.dumps(a_doc)), parse_system(json.dumps(b_doc)), 1)
        assert got.get("c", "d").payload is False


class TestAgreementWithEngine:
    def test_behaviour_iterates_match(self):
        for kind, shape, sys_model, spec in corpus(seed=99, per_cell=1):
            chain = iterates(sys_model, spec, 5)
            for depth, rel in enumerate(chain):
                reference = oracle_matrix(sys_model, spec, depth)
                if kind is P:
                    assert rel.max_gap(reference) <= 1e-9
                else:
                    assert rel == reference

    def test_common_iterates_match(self):
        rng = random.Random(123)
        for kind in SemiringKind:
            for shape in ("TF", "GT", "GTF"):
                a, b = gen_system_pair(rng, kind, shape, n_a=3, n_b=3)
                chain = common_iterates(a, b, 4)
                for depth, rel in enumerate(chain):
                    reference = oracle_common(a, b, depth)
                    if kind is P:
                        assert rel.max_gap(reference) <= 1e-9
                    else:
                        assert rel == reference

    def test_common_with_an_unread_heavy_pair(self):
        """The components swap a stop of mass 0.5 and two steps of mass 1 + 9e-10.

        No state pair reads the two heavy values against each other, so
        every entry is 0; their joint mass, 1 + 1.8e-9, passes the slack.
        """
        stop = [{"term": {"inj": 0, "of": {"atom": "*"}}, "weight": 0.5}]
        heavy = [{"term": step_term("a", "s"), "weight": 0.6},
                 {"term": step_term("a", "s2"), "weight": 0.4000000009}]

        def model(first, second):
            def value(a, b):
                return {"pair": [{"atom": "x"}, {"tuple": {"a": a, "b": b}}]}

            doc = {"kind": "prob", "stack": ["{x} * Id^{a,b}", "T", "{*} + {a} * Id"],
                   "states": ["t", "s", "s2"],
                   "transitions": {"t": value(first, second), "s": value([], []),
                                   "s2": value([], [])}}
            return parse_system(json.dumps(doc))

        a, b = model(stop, heavy), model(heavy, stop)
        assert common_trace(a, b).result == oracle_common(a, b, 3)


class TestUnitBranching:
    """A spec is the system that branches by the unit, so behaviour is joint behaviour."""

    @pytest.mark.parametrize("shape", SHAPES)
    @pytest.mark.parametrize("kind", list(SemiringKind), ids=lambda k: k.value)
    def test_behaviour_is_common_trace_against_the_unit(self, kind, shape):
        rng = random.Random(f"unit-{kind.value}-{shape}")
        for _ in range(15):
            sys_model, spec = gen_model_pair(rng, kind, shape)
            unit = with_unit_branching(spec, sys_model)
            for depth in range(4):
                got = oracle_common(sys_model, unit, depth).payloads()
                assert got == oracle_matrix(sys_model, spec, depth).payloads()
            joint, alone = common_trace(sys_model, unit), behaviour(sys_model, spec)
            assert joint.result.payloads() == alone.result.payloads()
            assert (joint.iterations, joint.stop_reason, joint.final_gap) == (
                alone.iterations, alone.stop_reason, alone.final_gap)


def _outcome(query, *args):
    """``"answer"``, or the class and message of the error ``query`` raised."""
    try:
        query(*args)
    except Exception as exc:  # any error: the two routes must fail alike
        return type(exc), str(exc)
    return "answer"


class TestOneRuleForTwoModels:
    """The engine and the oracle accept and reject the same pairs of models,
    with the same error, since both call ``system.check_spec``/``check_pair``."""

    TEXTS = {path.name: path.read_text() for path in sorted(DATA.glob("*.json"))}

    def test_behaviour_and_oracle_matrix(self):
        systems = {name: parse_system(text) for name, text in self.TEXTS.items()}
        specs = {name: parse_spec(text) for name, text in self.TEXTS.items()
                 if not any(layer == "T" for layer in json.loads(text)["stack"])}
        outcomes = set()
        for (a, sys_model), (b, spec) in itertools.product(systems.items(), specs.items()):
            got = _outcome(behaviour, sys_model, spec)
            assert got == _outcome(oracle_matrix, sys_model, spec, 2), (a, b)
            outcomes.add(got if got == "answer" else got[0])
        assert outcomes == {"answer", StackMismatch}

    def test_common_trace_and_oracle_common(self):
        systems = {name: parse_system(text) for name, text in self.TEXTS.items()}
        outcomes = set()
        for (a, sys_a), (b, sys_b) in itertools.product(systems.items(), repeat=2):
            got = _outcome(common_trace, sys_a, sys_b)
            assert got == _outcome(oracle_common, sys_a, sys_b, 2), (a, b)
            outcomes.add(got if got == "answer" else got[0])
        assert outcomes == {"answer", StackMismatch}


def test_the_oracle_imports_nothing_from_the_engine_or_the_lifting():
    """The cross-check rests on the oracle sharing no code with the routes it checks."""
    tree = ast.parse(pathlib.Path(oracle.__file__).read_text())
    modules = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # ``from . import engine`` names its module
            modules += [node.module or alias.name for alias in node.names]
    assert "system" in modules
    assert not {part for name in modules for part in name.split(".")} & {"engine", "lifting"}
