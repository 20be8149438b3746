import json
import random

import pytest

from ltbe import (
    CarrierMismatch,
    FixpointOptions,
    KindMismatch,
    MonotonicityViolation,
    SemiringKind,
    SemiringValue,
    StackMismatch,
    ValRel,
    behaviour,
    bisimilarity,
    check_monad_consistency,
    common_iterates,
    common_trace,
    iterates,
    one,
    parse_spec,
    parse_system,
    step_operator,
    zero,
)
from ltbe.engine import _run_fixpoint
from modelgen import (
    LTS_F,
    chain_spec,
    corpus,
    gen_model_pair,
    gen_models_on,
    gen_system_pair,
    loop_exit_system,
    loop_with_exit_to_deadlock,
    lowered,
    omega_spec,
    pure_loop_system,
    random_valrel,
    step_term,
    stop_term,
    tropical_stopper,
)

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL


def single_state_system(kind, transition):
    return parse_system(
        json.dumps(
            {
                "kind": kind,
                "stack": ["T", LTS_F],
                "states": ["c"],
                "transitions": {"c": transition},
            }
        )
    )


class TestStepOperator:
    def test_matching_termination_stays_top(self):
        sys_model = single_state_system("bool", [stop_term()])
        spec = chain_spec(0, "bool")
        top = ValRel.top(sys_model.states, spec.states, B)
        stepped = step_operator(sys_model, spec, top)
        assert stepped.get("c", "z0").payload is True
        assert step_operator(sys_model, spec, stepped) == stepped

    def test_label_mismatch_kills_all(self):
        doc = {
            "kind": "bool",
            "stack": ["T", "{*} + {a,b} * Id"],
            "states": ["c"],
            "transitions": {"c": [step_term("a", "c")]},
        }
        sys_model = parse_system(json.dumps(doc))
        spec = parse_spec(
            json.dumps(
                {
                    "kind": "bool",
                    "stack": ["{*} + {a,b} * Id"],
                    "states": ["z"],
                    "transitions": {"z": step_term("b", "z")},
                }
            )
        )
        top = ValRel.top(sys_model.states, spec.states, B)
        assert step_operator(sys_model, spec, top).get("c", "z").payload is False

    def test_tropical_single_support(self):
        sys_model = single_state_system(
            "tropical", [{"term": stop_term(), "weight": 4}]
        )
        spec = chain_spec(0, "tropical")
        top = ValRel.top(sys_model.states, spec.states, T)
        assert step_operator(sys_model, spec, top).get("c", "z0").payload == 4

    def test_stack_mismatch_rejected(self):
        sys_model = loop_exit_system("bool")
        other_spec = parse_spec(
            json.dumps(
                {
                    "kind": "bool",
                    "stack": ["{*} + {zz} * Id"],
                    "states": ["z"],
                    "transitions": {"z": {"inj": 0, "of": {"atom": "*"}}},
                }
            )
        )
        with pytest.raises(StackMismatch):
            behaviour(sys_model, other_spec)

    def test_wrong_carriers_rejected(self):
        sys_model = loop_exit_system("bool")
        spec = omega_spec("bool")
        with pytest.raises(CarrierMismatch):
            step_operator(sys_model, spec, ValRel.top(["nope"], spec.states, B))


class TestBehaviour:
    def test_bool_loop_with_exit_has_both_behaviours(self):
        sys_model = loop_exit_system("bool")
        for spec in (omega_spec("bool"), chain_spec(0, "bool")):
            report = behaviour(sys_model, spec)
            assert report.converged and report.final_gap == 0.0
            assert report.result.get("c", spec.states[0]).payload is True

    def test_prob_infinite_trace_decays_geometrically(self):
        sys_model = loop_exit_system("prob")
        spec = omega_spec("prob")
        chain = iterates(sys_model, spec, 8)
        values = [rel.get("c", "zw").payload for rel in chain]
        assert values == pytest.approx([2.0**-i for i in range(9)])

    def test_prob_finite_traces(self):
        sys_model = loop_exit_system("prob")
        spec = chain_spec(1, "prob")
        report = behaviour(sys_model, spec)
        assert report.converged
        assert report.result.get("c", "z1").payload == pytest.approx(0.25)
        assert report.result.get("c", "z0").payload == pytest.approx(0.5)

    def test_bool_converges_within_lattice_height(self):
        rng = random.Random(77)
        for _ in range(15):
            sys_model, spec = gen_model_pair(rng, B, rng.choice(("TF", "GT", "GTF")))
            report = behaviour(sys_model, spec)
            assert report.converged
            assert report.iterations <= len(sys_model.states) * len(spec.states) + 1

    def test_iterates_start_at_top(self):
        sys_model = loop_exit_system("prob")
        spec = omega_spec("prob")
        chain = iterates(sys_model, spec, 0)
        assert chain == [ValRel.top(sys_model.states, spec.states, P)]

    def test_descending_chain_invariant(self):
        rng = random.Random(78)
        for kind in SemiringKind:
            sys_model, spec = gen_model_pair(rng, kind, "GTF")
            chain = iterates(sys_model, spec, 5)
            for below, above in zip(chain[1:], chain):
                assert below.pointwise_leq(above)


class TestTropicalDivergence:
    def test_unreachable_behaviour_diverges_honestly(self):
        sys_model = single_state_system("tropical", [{"term": step_term("a", "c"), "weight": 1}])
        spec = omega_spec("tropical")
        opts = FixpointOptions(max_iterations=500, divergence_cap=50)
        report = behaviour(sys_model, spec, opts)
        assert not report.converged
        assert report.iterations < 500  # the cap stopped the climb early
        assert report.result.get("c", "zw").payload > 50

    def test_max_iterations_reached_reports_nonconvergence(self):
        sys_model = single_state_system("tropical", [{"term": step_term("a", "c"), "weight": 1}])
        spec = omega_spec("tropical")
        report = behaviour(sys_model, spec, FixpointOptions(max_iterations=7))
        assert not report.converged and report.iterations == 7


class TestThreshold:
    def test_early_exit_when_all_entries_fall_below(self):
        sys_model = loop_exit_system("prob")
        spec = omega_spec("prob")
        opts = FixpointOptions(threshold=SemiringValue(P, 0.1), tolerance=0.0)
        report = behaviour(sys_model, spec, opts)
        assert report.threshold_decided and not report.converged
        assert report.result.get("c", "zw").payload < 0.1
        assert report.iterations <= 6

    def test_no_early_exit_when_entries_stay_at_threshold(self):
        sys_model = loop_exit_system("bool")
        spec = omega_spec("bool")
        opts = FixpointOptions(threshold=SemiringValue(B, True))
        report = behaviour(sys_model, spec, opts)
        assert report.converged and not report.threshold_decided


    def test_threshold_of_another_kind_rejected(self):
        sys_model = loop_exit_system("prob")
        spec = omega_spec("prob")
        opts = FixpointOptions(threshold=SemiringValue(B, True))
        with pytest.raises(KindMismatch, match="cannot combine prob with bool"):
            behaviour(sys_model, spec, opts)


class TestFixpointOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"tolerance": -1e-9},
            {"tolerance": float("nan")},
            {"divergence_cap": -1},
        ],
        ids=["max-iterations", "negative-tolerance", "nan-tolerance", "negative-cap"],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FixpointOptions(**kwargs)

    def test_zero_tolerance_and_cap_accepted(self):
        FixpointOptions(tolerance=0.0, divergence_cap=0)


class TestMonotonicityGuard:
    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_climbing_step_is_rejected(self, kind):
        # from bottom everywhere, a step that returns top everywhere climbs
        bottom = ValRel.tabulate(kind, ["x", "y"], ["z"], lambda r, c: zero(kind))

        def climb(flat):
            return [one(kind).payload] * len(flat)

        with pytest.raises(MonotonicityViolation, match="iterate 1 is not below"):
            _run_fixpoint(climb, bottom, FixpointOptions())

    def test_climb_after_descent_is_rejected(self):
        steps = iter([[0.5], [0.25], [0.75]])
        start = ValRel.top(["x"], ["z"], P)
        with pytest.raises(MonotonicityViolation, match="iterate 3 is not below"):
            _run_fixpoint(lambda flat: next(steps), start, FixpointOptions())

    def test_climb_within_prob_slack_is_tolerated(self):
        steps = iter([[0.5], [0.5 + 1e-10]])
        start = ValRel.top(["x"], ["z"], P)
        report = _run_fixpoint(lambda flat: next(steps), start, FixpointOptions())
        assert report.converged and report.iterations == 2


class TestCommonTrace:
    def test_same_deterministic_system_relates_diagonally(self):
        a = pure_loop_system("bool")
        b = pure_loop_system("bool")
        report = common_trace(a, b)
        assert report.converged
        assert report.result.get("c", "c").payload is True

    def test_disjoint_alphabet_labels(self):
        a = single_state_system("bool", [step_term("a", "c")])
        b_doc = {
            "kind": "bool",
            "stack": ["T", LTS_F],
            "states": ["d"],
            "transitions": {"d": [stop_term()]},
        }
        b = parse_system(json.dumps(b_doc))
        report = common_trace(a, b)
        assert report.result.get("c", "d").payload is False
        assert report.iterations <= 2

    def test_tropical_joint_cost(self):
        report = common_trace(tropical_stopper(2, "c"), tropical_stopper(3, "d"))
        assert report.converged
        assert report.result.get("c", "d").payload == 5

    def test_stack_mismatch(self):
        a = loop_exit_system("bool")
        b = parse_system(
            json.dumps(
                {
                    "kind": "bool",
                    "stack": ["T", "{*} + {zz} * Id"],
                    "states": ["d"],
                    "transitions": {"d": []},
                }
            )
        )
        with pytest.raises(StackMismatch):
            common_trace(a, b)

    def test_common_iterates_descend(self):
        rng = random.Random(79)
        a, b = gen_system_pair(rng, P, "TF")
        chain = common_iterates(a, b, 4)
        for below, above in zip(chain[1:], chain):
            assert below.pointwise_leq(above)


class TestBisimilarity:
    def test_identical_loops_bisimilar(self):
        report = bisimilarity(pure_loop_system("bool"), pure_loop_system("bool"))
        assert report.converged and report.result.get("c", "c").payload is True

    def test_different_labels_not_bisimilar(self):
        a = single_state_system("bool", [step_term("a", "c")])
        b_doc = {
            "kind": "bool",
            "stack": ["T", LTS_F],
            "states": ["d"],
            "transitions": {"d": []},
        }
        b = parse_system(json.dumps(b_doc))
        report = bisimilarity(a, b)
        assert report.result.get("c", "d").payload is False
        assert report.iterations <= 2

    def test_trace_equivalent_but_not_bisimilar(self):
        looped = pure_loop_system("bool")
        branching = loop_with_exit_to_deadlock("bool")
        assert bisimilarity(looped, branching).result.get("c", "d").payload is False
        assert common_trace(looped, branching).result.get("c", "d").payload is True

    def test_non_bool_rejected(self):
        with pytest.raises(KindMismatch):
            bisimilarity(loop_exit_system("prob"), loop_exit_system("prob"))

    def test_converges_within_lattice_height(self):
        rng = random.Random(80)
        for _ in range(10):
            a, b = gen_system_pair(rng, B, rng.choice(("TF", "GT", "GTF")))
            report = bisimilarity(a, b)
            assert report.converged
            assert report.iterations <= len(a.states) * len(b.states) + 1


class TestStepMonotonicity:
    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_step_preserves_order(self, kind):
        rng = random.Random(81)
        for _ in range(8):
            sys_model, spec = gen_model_pair(
                rng, kind, rng.choice(("TF", "GT", "GTF")), n_states=3, n_spec=2
            )
            upper = random_valrel(rng, kind, sys_model.states, spec.states)
            below = lowered(rng, upper)
            assert step_operator(sys_model, spec, below).pointwise_leq(
                step_operator(sys_model, spec, upper)
            )


class TestMonadConsistency:
    def test_bool_split_map_bijective_at_two(self):
        report = check_monad_consistency(B, 2)
        assert report.injective and report.additive and report.passed

    def test_prob_partiality_witnessed(self):
        report = check_monad_consistency(P, 1)
        assert report.injective and not report.additive and report.passed
        w1, w2 = report.partiality_witness
        assert w1.total_mass() + w2.total_mass() > 1.0

    def test_tropical_grid_bijective(self):
        report = check_monad_consistency(T, 1)
        assert report.injective and report.additive and report.passed

    def test_size_bound_validated(self):
        with pytest.raises(ValueError):
            check_monad_consistency(B, 9)

    def test_format_mentions_witness(self):
        report = check_monad_consistency(P, 1)
        assert "partial" in report.format()


class TestEngineOracleAgreement:
    def test_small_corpus_agreement(self):
        from ltbe import oracle_matrix

        for kind, shape, sys_model, spec in corpus(seed=5, per_cell=1):
            chain = iterates(sys_model, spec, 4)
            for depth, rel in enumerate(chain):
                reference = oracle_matrix(sys_model, spec, depth)
                if kind is P:
                    assert rel.max_gap(reference) <= 1e-9
                else:
                    assert rel == reference

    def test_wide_automaton_agreement(self):
        # 19 branching values occur, so the observation layer has 2 * 19**3
        # terms over them against 2 * 3**3 over the spec states, but a step
        # reads only 10 * 3 cells
        from ltbe import oracle_matrix

        rng = random.Random(2)
        sys_model, spec = gen_models_on(rng, B, ["{n,y} * Id^{a,b,c}", "T"], 10, 3)
        chain = iterates(sys_model, spec, 4)
        assert chain[4] != chain[0]
        for depth, rel in enumerate(chain):
            assert rel == oracle_matrix(sys_model, spec, depth)
