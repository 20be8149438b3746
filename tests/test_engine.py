import json
import math
import random
import re
from itertools import chain

import pytest

from ltbe import (
    INF,
    CarrierMismatch,
    FixpointOptions,
    FixpointReport,
    KindMismatch,
    MonotonicityViolation,
    SemiringKind,
    SemiringValue,
    StackMismatch,
    ValRel,
    behaviour,
    bisimilarity,
    check_monad_consistency,
    check_semiring_laws,
    common_iterates,
    common_trace,
    iterates,
    oracle_common,
    oracle_matrix,
    parse_spec,
    parse_system,
    step_operator,
    zero,
)
from ltbe import engine
from ltbe.engine import _readers, _run_fixpoint
from ltbe.relation import ONE, ZERO, Folds, reads
from modelgen import (
    LTS_F,
    SHAPES,
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
from test_crosscheck import MULTI_ID_STACKS, exact, full_chain

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

    def test_spec_of_another_kind_rejected(self):
        # the spec's layers are the system's polynomial layers; only the kind differs
        sys_model = loop_exit_system("bool")
        spec = omega_spec("prob")
        assert spec.stack.layers == sys_model.stack.layers[1:]
        with pytest.raises(StackMismatch):
            behaviour(sys_model, spec)

    def test_wrong_carriers_rejected(self):
        sys_model = loop_exit_system("bool")
        spec = omega_spec("bool")
        with pytest.raises(CarrierMismatch):
            step_operator(sys_model, spec, ValRel.top(["nope"], spec.states, B))

    def test_wrong_kind_rejected(self):
        sys_model = loop_exit_system("bool")
        spec = omega_spec("bool")
        with pytest.raises(KindMismatch, match="relation kind does not match"):
            step_operator(sys_model, spec, ValRel.top(sys_model.states, spec.states, P))


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

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            iterates(loop_exit_system("prob"), omega_spec("prob"), -3)

    def test_a_later_round_sums_past_one_within_the_slack(self):
        """``c``'s two ``a``-steps weigh 1 + 5e-10, so its cell sums past 1.0
        and is clamped in every round; after the first it is re-evaluated
        from a set of cells, as ``d`` descends by about 1e-12 a round."""
        def step(target, weight):
            return {"term": {"pair": [{"atom": "a"}, {"state": target}]}, "weight": weight}

        sys_model = parse_system(json.dumps({
            "kind": "prob", "stack": ["T", "{a} * Id"], "states": ["c", "d"],
            "transitions": {"c": [step("c", 0.6), step("d", 0.4000000005)],
                            "d": [step("d", 1 - 1e-12)]}}))
        spec = parse_spec(json.dumps({
            "kind": "prob", "stack": ["{a} * Id"], "states": ["s"],
            "transitions": {"s": {"pair": [{"atom": "a"}, {"state": "s"}]}}}))
        chain = iterates(sys_model, spec, 4)
        assert exact(chain) == exact(full_chain(sys_model, spec, None, 4))
        assert [rel.get("c", "s").payload for rel in chain] == [1.0] * 5

    def test_descending_chain_invariant(self):
        rng = random.Random(78)
        for kind in SemiringKind:
            sys_model, spec = gen_model_pair(rng, kind, "GTF")
            chain = iterates(sys_model, spec, 5)
            for below, above in zip(chain[1:], chain):
                assert below.pointwise_leq(above)


class TestResultRelation:
    """The relation a fixpoint run returns is the one ``from_payloads`` builds over
    the two models' states, though it skips the carrier checks and builds
    its key indexes on first use."""

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_same_as_from_payloads(self, kind):
        rng = random.Random(f"result:{kind.value}")
        runs = []
        for shape in SHAPES:
            sys_model, spec = gen_model_pair(rng, kind, shape)
            runs.append((behaviour(sys_model, spec).result, sys_model.states, spec.states))
            a, b = gen_system_pair(rng, kind, shape)
            runs.append((common_trace(a, b).result, a.states, b.states))
            if kind is B:
                runs.append((bisimilarity(a, b).result, a.states, b.states))
        for result, rows, cols in runs:
            want = ValRel.from_payloads(kind, rows, cols, result.payloads())
            assert result == want and result.to_csv() == want.to_csv()
            assert (result.row_index, result.col_index) == (want.row_index, want.col_index)


def test_no_entry_is_a_negative_zero():
    """The engine makes no prob ``-0.0``: every weight is above zero, every fold
    sums from ``+0.0`` and a product of non-negative floats is never ``-0.0``.
    So only ``from_payloads``, where payloads enter from outside, normalises it."""
    rng = random.Random("negative-zero")
    results = []
    for kind, shape, sys_model, spec in corpus(seed=25, per_cell=3):
        results += [behaviour(sys_model, spec).result, *iterates(sys_model, spec, 4)]
        a, b = gen_system_pair(rng, kind, shape)
        results += [common_trace(a, b).result, *common_iterates(a, b, 4)]
    entries = [p for rel in results for p in rel.payloads()]
    assert not [p for p in entries if p == 0 and math.copysign(1.0, p) < 0]
    assert sum(type(p) is float and p == 0 for p in entries) > 100  # prob zeros, all ``+0.0``


class TestTropicalDivergence:
    def test_large_finite_cost_converges(self):
        # a finite cost, however large, is a limit like any other
        sys_model = parse_system(json.dumps({
            "kind": "tropical",
            "stack": ["T", LTS_F],
            "states": ["c", "d"],
            "transitions": {
                "c": [{"term": step_term("a", "d"), "weight": 2_000_000}],
                "d": [{"term": stop_term(), "weight": 0}],
            },
        }))
        report = behaviour(sys_model, chain_spec(1, "tropical"))
        assert (report.stop_reason, report.iterations) == ("converged", 2)
        assert report.result.get("c", "z1").payload == 2_000_000

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

    def test_tropical_threshold_decides(self):
        # costs only rise, so an entry past the threshold never comes back
        sys_model = single_state_system("tropical", [{"term": step_term("a", "c"), "weight": 1}])
        opts = FixpointOptions(threshold=SemiringValue(T, 5))
        report = behaviour(sys_model, omega_spec("tropical"), opts)
        assert report.stop_reason == "threshold"
        assert report.iterations == 6 and report.result.get("c", "zw").payload == 6

    def test_threshold_of_another_kind_rejected(self):
        sys_model = loop_exit_system("prob")
        spec = omega_spec("prob")
        opts = FixpointOptions(threshold=SemiringValue(B, True))
        with pytest.raises(KindMismatch, match="cannot combine prob with bool"):
            behaviour(sys_model, spec, opts)


class TestStopReason:
    def test_converged(self):
        report = behaviour(loop_exit_system("bool"), omega_spec("bool"))
        assert report.converged and report.stop_reason == "converged"

    def test_budget(self):
        sys_model = single_state_system("tropical", [{"term": step_term("a", "c"), "weight": 1}])
        report = behaviour(sys_model, omega_spec("tropical"), FixpointOptions(max_iterations=7))
        assert not report.converged and report.stop_reason == "budget"

    def test_threshold(self):
        opts = FixpointOptions(threshold=SemiringValue(P, 0.1), tolerance=0.0)
        report = behaviour(loop_exit_system("prob"), omega_spec("prob"), opts)
        assert report.threshold_decided and report.stop_reason == "threshold"

    @pytest.mark.parametrize("reason", ["converged", "budget", "threshold"])
    def test_flags_are_read_off_the_reason(self, reason):
        report = FixpointReport(ValRel.top(["c"], ["d"], B), 3, 0.0, reason)
        assert report.converged == (reason == "converged")
        assert report.threshold_decided == (reason == "threshold")


class TestStopReport:
    """The gap each stop reports; a bool or tropical gap is computed for the report only."""

    def test_tropical_budget_reports_the_lap_cost(self):
        stuck = single_state_system("tropical", [{"term": step_term("a", "c"), "weight": 1}])
        report = behaviour(stuck, omega_spec("tropical"))
        assert (report.stop_reason, report.iterations, report.final_gap) == ("budget", 20, 1.0)

    def test_bool_cut_run_reports_gap_one(self):
        report = behaviour(pure_loop_system("bool"), chain_spec(3, "bool"),
                           FixpointOptions(max_iterations=1))
        assert (report.stop_reason, report.iterations, report.final_gap) == ("budget", 1, 1.0)

    def test_tropical_jump_to_infinity_reports_inf(self):
        sys_model = parse_system(json.dumps({
            "kind": "tropical",
            "stack": ["T", LTS_F],
            "states": ["c", "d"],
            "transitions": {"c": [{"term": step_term("a", "d"), "weight": 3}], "d": []},
        }))
        spec = omega_spec("tropical")
        for cut, payloads in [(1, [3, INF]), (2, [INF, INF])]:
            report = behaviour(sys_model, spec, FixpointOptions(max_iterations=cut))
            assert (report.stop_reason, report.iterations, report.final_gap) == ("budget", cut, INF)
            assert report.result.payloads() == payloads
        report = behaviour(sys_model, spec)
        assert (report.stop_reason, report.iterations, report.final_gap) == ("converged", 3, 0.0)

    def test_tropical_threshold_reports_the_last_step(self):
        sys_model = single_state_system("tropical", [{"term": step_term("a", "c"), "weight": 1}])
        opts = FixpointOptions(threshold=SemiringValue(T, 5))
        report = behaviour(sys_model, omega_spec("tropical"), opts)
        assert (report.stop_reason, report.iterations, report.final_gap) == ("threshold", 6, 1.0)

    def test_converged_reports_zero(self):
        for sys_model, spec in [(loop_exit_system("bool"), omega_spec("bool")),
                                (pure_loop_system("bool"), chain_spec(3, "bool")),
                                (tropical_stopper(3), chain_spec(2, "tropical"))]:
            report = behaviour(sys_model, spec)
            assert (report.stop_reason, report.final_gap) == ("converged", 0.0)


class TestFixpointOptions:
    @pytest.mark.parametrize(
        "kwargs",
        [
            {"max_iterations": 0},
            {"max_iterations": 2.5},
            {"max_iterations": True},
            {"tolerance": -1e-9},
            {"tolerance": float("nan")},
            {"tolerance": "0.1"},
            {"tolerance": None},
            {"tolerance": True},
            {"threshold": 0.5},
        ],
        ids=["max-iterations", "float-max-iterations", "bool-max-iterations",
             "negative-tolerance", "nan-tolerance", "str-tolerance", "none-tolerance",
             "bool-tolerance", "bare-threshold"],
    )
    def test_invalid_options_rejected(self, kwargs):
        with pytest.raises(ValueError):
            FixpointOptions(**kwargs)

    def test_zero_tolerance_and_cap_accepted(self):
        for tolerance in (0, 0.0, float("inf")):
            assert FixpointOptions(tolerance=tolerance).tolerance == tolerance


#: Each count argument: its name, a call that passes it, and the least value it takes.
COUNTS = {
    "iterates": ("steps", lambda n: iterates(loop_exit_system(), omega_spec(), n), 0),
    "common_iterates": ("steps", lambda n: common_iterates(
        pure_loop_system(), loop_exit_system(), n), 0),
    "oracle_matrix": ("depth", lambda n: oracle_matrix(loop_exit_system(), omega_spec(), n), 0),
    "oracle_common": ("depth", lambda n: oracle_common(
        pure_loop_system(), loop_exit_system(), n), 0),
    "check_semiring_laws": ("samples", lambda n: check_semiring_laws(B, n), 1),
    "check_monad_consistency": ("size_bound", lambda n: check_monad_consistency(B, n), 1),
    "FixpointOptions": ("max_iterations", lambda n: FixpointOptions(max_iterations=n), 1),
}


class TestCountArguments:
    @pytest.mark.parametrize("call, bad", [
        (call, bad) for call in COUNTS for bad in (True, False, "2", 2.5, None)
        if not (call == "FixpointOptions" and bad is None)  # None is its default budget
    ])
    def test_a_count_must_be_a_plain_int(self, call, bad):
        name, run, _ = COUNTS[call]
        with pytest.raises(ValueError, match=re.escape(f"{name} must be an int, got {bad!r}")):
            run(bad)

    @pytest.mark.parametrize("call", COUNTS)
    def test_an_int_out_of_range_keeps_its_message(self, call):
        name, run, least = COUNTS[call]
        with pytest.raises(ValueError, match=f"^{name} must be (>= {least}|between 1 and 4)$"):
            run(least - 1)
        run(least)


class _Schedule:
    """Fold weights that change from round to round, so the step they make
    is not monotone, which no program compiled from a model can be."""

    def __init__(self, *weights):
        self._weights = iter(weights)

    def __iter__(self):
        yield next(self._weights)

    def __getitem__(self, i):
        return next(self._weights)


def _self_scaling(*weights):
    """A one-cell prob program whose cell is its own value times the next weight."""
    return [(Folds([_Schedule(*weights)], [(0,)], [()]), [[0]], range(1))]


class TestMonotonicityGuard:
    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_climbing_step_is_rejected(self, kind):
        # from bottom everywhere, a step that reads top everywhere climbs
        bottom = ValRel.tabulate(kind, ["x", "y"], ["z"], lambda r, c: zero(kind))
        top_slot = -1  # the source ends with the constants zero and one
        with pytest.raises(MonotonicityViolation, match="iterate 1 is not below"):
            _run_fixpoint([([top_slot, top_slot], [[], []], range(2))], kind, bottom.rows,
                          bottom.cols, FixpointOptions(), bottom.payloads())

    def test_climb_after_descent_is_rejected(self):
        start = [1.0]  # then 0.5, 0.25 and 0.75
        with pytest.raises(MonotonicityViolation, match="iterate 3 is not below"):
            _run_fixpoint(_self_scaling(0.5, 0.5, 3.0), P, ("x",), ("z",), FixpointOptions(),
                          start)

    def test_climb_within_prob_slack_is_tolerated(self):
        start = [1.0]  # then 0.5 and 0.5 + 1e-10
        report = _run_fixpoint(_self_scaling(0.5, 1 + 2e-10), P, ("x",), ("z",),
                               FixpointOptions(), start)
        assert report.converged and report.iterations == 2
        assert report.result == ValRel.from_payloads(P, ["x"], ["z"], [0.5 * (1 + 2e-10)])


def _program(size, *layers):
    """A hand-built program: ``layers`` from the one that reads the ``size``
    relation cells to the one that writes them, given their readers as
    ``_walker`` gives them."""
    sizes = [size] + [len(cells) for cells in layers[:-1]]
    return _readers(list(zip(layers, sizes)))


def _folds(*positions):
    """A bool layer of folds: bool folds carry no weights."""
    return Folds([()] * len(positions), list(positions), [()] * len(positions))


class TestCountedRun:
    """A bool run from the top relation counts each cell's first false round;
    from an explicit start it iterates.  Both give the same report."""

    @staticmethod
    def _run(program, max_iterations=None):
        n = len(program[-1][0])
        rows, opts = tuple(f"r{i}" for i in range(n)), FixpointOptions(max_iterations)
        counted = _run_fixpoint(program, B, rows, ("z",), opts)
        iterated = _run_fixpoint(program, B, rows, ("z",), opts, [True] * n)
        got = [(r.result.payloads(), r.iterations, r.stop_reason, repr(r.final_gap))
               for r in (counted, iterated)]
        assert got[0] == got[1]
        return got[0]

    def test_a_fold_that_reads_one_never_falls(self):
        program = _program(3, _folds([2, ONE], [2], []))
        assert self._run(program) == ([True, False, False], 3, "converged", "0.0")

    def test_a_zero_read_in_a_fold_is_already_false(self):
        program = _program(2, _folds([ZERO, 1], [ZERO]))
        assert self._run(program) == ([False, False], 3, "converged", "0.0")

    def test_an_empty_fold_falls_in_round_one(self):
        program = _program(2, _folds([], [0, 0]))  # r1 reads r0 twice, and falls after it
        assert self._run(program) == ([False, False], 3, "converged", "0.0")

    def test_a_repeated_position_falls_once(self):
        # r0 is (r1 and r1) or r0: the product reads r1 twice, and falls once,
        # so r0 keeps its own read
        program = _program(2, [(1, 1), 0], _folds([0, 1], []))
        assert self._run(program) == ([True, False], 2, "converged", "0.0")

    def test_products_with_a_zero_and_a_one_factor(self):
        program = _program(2, [(ZERO, 0), (ONE, 0), (ONE, ONE)], _folds([1], [0, 2]))
        assert self._run(program) == ([True, True], 1, "converged", "0.0")
        program = _program(2, [(ZERO, 0), (ONE, 1)], _folds([1], [0]))
        assert self._run(program) == ([False, False], 3, "converged", "0.0")

    def test_a_nested_product(self):
        program = _program(2, [(0, (1, ONE))], _folds([0], []))
        assert self._run(program) == ([False, False], 3, "converged", "0.0")

    def test_a_layer_of_single_reads(self):
        # r0 reads r2, r1 reads ZERO or r0, r2 reads ONE or r3, and r3 nothing
        program = _program(4, [2, ZERO, ONE, 0, 3], _folds([0], [1, 3], [2, 4], []))
        assert self._run(program) == ([True, True, True, False], 2, "converged", "0.0")

    def test_three_layers_fall_in_one_round(self):
        # r1 falls in round 1, then in round 2 the fold over it, the product
        # over that and r0; the bottom layer's last cell is dead
        program = _program(2, _folds([1], [0], []), [(0, 1)], _folds([0], []))
        assert [len(live) for _, _, live in program] == [2, 1, 2]
        assert self._run(program) == ([False, False], 3, "converged", "0.0")
        assert self._run(program, 2) == ([False, False], 2, "budget", "1.0")

    @pytest.mark.parametrize("budget", [1, 2, 3])
    def test_a_budget_stop(self, budget):
        # r4 falls in round 1 and r<i> in round 5 - i
        program = _program(5, _folds([1], [2], [3], [4], []))
        falls = [False] * budget
        assert self._run(program, budget) == ([True] * (5 - budget) + falls, budget, "budget",
                                              "1.0")
        assert self._run(program, 5) == ([False] * 5, 5, "budget", "1.0")
        assert self._run(program, 6) == ([False] * 5, 6, "converged", "0.0")


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

    def test_negative_steps_rejected(self):
        with pytest.raises(ValueError, match="steps must be >= 0"):
            common_iterates(loop_exit_system("prob"), loop_exit_system("prob"), -2)

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


def _position_faults(program):
    """Each read of a program outside ``ZERO``, ``ONE`` and the positions of its
    layer's source, and each product whose first factor is a product."""
    faults = []

    def walk(cell, size):
        if type(cell) is int:
            if cell not in (ZERO, ONE) and not 0 <= cell < size:
                faults.append(cell)
            return
        if type(cell[0]) is tuple:
            faults.append(cell)
        for factor in cell:
            walk(factor, size)

    for cells, users, _ in program:
        for cell in chain.from_iterable(cells.positions) if type(cells) is Folds else cells:
            walk(cell, len(users))
    return faults


class TestPositionSpace:
    """Every compiled read is ``ZERO``, ``ONE`` or a position of its layer's
    source, whatever the layer's size, and every product is flat on the left."""

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_every_read_lies_in_one_space(self, kind):
        rng = random.Random(f"position-space:{kind.value}")
        pairs = []
        for shape in SHAPES:
            for _ in range(8):
                pairs += [gen_model_pair(rng, kind, shape), gen_system_pair(rng, kind, shape)]
        for texts in MULTI_ID_STACKS:
            for _ in range(4):
                sys_model, spec = gen_models_on(rng, kind, texts, rng.randint(2, 5),
                                                rng.randint(1, 3))
                other, _ = gen_models_on(rng, kind, texts, rng.randint(2, 4), 1)
                pairs += [(sys_model, spec), (sys_model, other)]
        constants = products = 0
        for a, b in pairs:
            program = engine._walker(a, b)
            assert _position_faults(program) == []
            for cells, _, _ in program:
                flat = chain.from_iterable(cells.positions) if type(cells) is Folds else cells
                for cell in flat:
                    constants += cell in (ZERO, ONE)
                    products += type(cell) is tuple
        assert constants > 100 and products > 100


class TestLiveCells:
    """Every cell of the last layer is live, and below it exactly the
    positions that a live cell above reads, in ascending order; a ``users``
    list names, in ascending order, exactly the live cells that read its
    position."""

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_users_name_the_live_readers(self, kind):
        rng = random.Random(f"live-cells:{kind.value}")
        dead = 0
        for texts in MULTI_ID_STACKS:
            for _ in range(4):
                sys_model, spec = gen_models_on(rng, kind, texts, rng.randint(2, 5),
                                                rng.randint(1, 3))
                program = engine._walker(sys_model, spec)
                want_live = list(range(len(program[-1][0])))
                for cells, users, live in reversed(program):
                    assert list(live) == want_live
                    dead += len(cells) - len(live)
                    ps = cells.positions if type(cells) is Folds else list(map(reads, cells))
                    ps = [{p for p in read if p >= 0} for read in ps]
                    want = [[k for k in live if p in ps[k]] for p in range(len(users))]
                    assert [sorted(set(ks)) for ks in users] == want
                    assert all(ks == sorted(ks) for ks in users)
                    want_live = sorted(set().union(*(ps[k] for k in live)))
        assert dead > 0


class TestReadLayerOverProducts:
    """A polynomial layer of single reads above a layer of products is picked
    from it, its bottom and top cells from the two constant slots."""

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_iterates_match_the_full_pass(self, kind):
        rng = random.Random(f"reads-over-products:{kind.value}")
        texts = ["{*} + {a,b} * Id", "Id * Id", "T"]
        picked = 0
        for _ in range(8):
            sys_model, spec = gen_models_on(rng, kind, texts, rng.randint(2, 5), rng.randint(2, 4))
            program = engine._walker(sys_model, spec)
            picked += [type(cells) for cells, _, _ in program] == [Folds, list]
            want = full_chain(sys_model, spec, None, 6)
            assert exact(iterates(sys_model, spec, 6)) == exact(want)
        assert picked >= 4


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
