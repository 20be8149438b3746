import csv
import io
import json
import pathlib
import random
import re
from functools import reduce

import pytest

from ltbe import (
    BranchVal,
    CarrierMismatch,
    INF,
    KindMismatch,
    PROB_EPS,
    SemiringKind,
    SemiringValue,
    UndefinedSum,
    ValidationError,
    ValRel,
    parse_spec,
    parse_system,
    reindex,
    step_operator,
)
from ltbe.relation import Folds, Index, fold_kernel
from ltbe.semiring import OPS, to_text
from modelgen import lowered, random_valrel

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL
DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"

#: A payload that is no payload of its kind, and the start of the error that names it.
BAD_PAYLOADS = {
    "prob-above-one": (P, 2.0, "prob payload 2.0 outside"),
    "prob-nan": (P, float("nan"), "prob payload nan is not a finite real"),
    "prob-string": (P, "x", "prob payload must be a real, got 'x'"),
    "tropical-negative": (T, -3, "tropical payload -3 is not"),
    "tropical-fraction": (T, 2.5, "tropical payload 2.5 is not"),
    "bool-int": (B, 1, "bool payload must be a bool, got 1"),
    "bool-string": (B, "x", "bool payload must be a bool, got 'x'"),
}


class TestTop:
    def test_bool_top_entry(self):
        rel = ValRel.top(["c"], ["z"], B)
        assert rel.get("c", "z").payload is True

    def test_tropical_top_is_zero_cost(self):
        rel = ValRel.top(["c"], ["z"], T)
        assert rel.get("c", "z").payload == 0

    def test_prob_top_is_one(self):
        rel = ValRel.top(["c"], ["z"], P)
        assert rel.get("c", "z").payload == 1.0

    def test_empty_carriers_allowed(self):
        rel = ValRel.top([], ["z"], B)
        assert rel.rows == ()


class TestConstruction:
    def test_duplicate_carrier_rejected(self):
        with pytest.raises(CarrierMismatch):
            ValRel.top(["c", "c"], ["z"], B)

    def test_wrong_kind_entry_rejected(self):
        with pytest.raises(KindMismatch):
            ValRel(B, ["c"], ["z"], [[SemiringValue(P, 0.5)]])

    def test_bad_shape_rejected(self):
        with pytest.raises(CarrierMismatch):
            ValRel(B, ["c"], ["z"], [[]])

    def test_missing_key_lookup(self):
        rel = ValRel.top(["c"], ["z"], B)
        with pytest.raises(CarrierMismatch):
            rel.get("q", "z")

    @pytest.mark.parametrize("row,col,key", [("q", "z", "'q'"), ("c", ("z",), "('z',)")])
    def test_a_missing_key_is_named_by_the_index(self, row, col, key):
        rel = ValRel.top(["c"], ["z"], B)
        assert isinstance(rel.row_index, Index) and isinstance(rel.col_index, Index)
        with pytest.raises(CarrierMismatch, match=rf"^key {re.escape(key)} is not in the carrier$"):
            rel.get(row, col)

    def test_an_index_raises_only_for_a_missing_key(self):
        index = Index(c=0)
        assert (index["c"], index.get("q"), "q" in index) == (0, None, False)
        with pytest.raises(CarrierMismatch, match="^key 'q' is not in the carrier$"):
            index["q"]

    def test_duplicate_column_keys_rejected(self):
        with pytest.raises(CarrierMismatch, match="column carrier"):
            ValRel.from_payloads(B, ["c"], ["z", "z"], [True, True])

    def test_payload_count_must_match_the_carriers(self):
        with pytest.raises(CarrierMismatch, match="grid shape"):
            ValRel.from_payloads(B, ["c"], ["z"], [True, True])

    @pytest.mark.parametrize("case", BAD_PAYLOADS)
    def test_each_payload_is_checked(self, case):
        kind, payload, message = BAD_PAYLOADS[case]
        with pytest.raises(ValidationError, match=message):
            ValRel.from_payloads(kind, ["c"], ["d"], [payload])
        with pytest.raises(ValidationError, match=message):  # before the shape
            ValRel.from_payloads(kind, ["c"], ["d"], [OPS[kind].one, payload])

    @pytest.mark.parametrize("kind, payloads", [
        (B, [True, False]), (P, [0.25, -0.0]), (T, [3, INF]),
    ], ids=["bool", "prob", "tropical"])
    def test_a_generator_gives_the_relation_of_a_list(self, kind, payloads):
        from_list = ValRel.from_payloads(kind, ["c"], ["d", "e"], payloads)
        assert ValRel.from_payloads(kind, ["c"], ["d", "e"], iter(payloads)) == from_list
        assert ValRel.from_payloads(kind, ["c"], ["d", "e"], (p for p in payloads)) == from_list

    def test_a_whole_tropical_float_is_stored_as_an_int(self):
        rel = ValRel.from_payloads(T, ["c"], ["d"], [3.0])
        assert rel.payloads() == [3] and type(rel.payloads()[0]) is int
        assert rel.to_csv() == ",d\nc,3\n"

    @pytest.mark.parametrize("payload", ["x", 7.0, 2.0, float("nan")], ids=repr)
    def test_a_bad_payload_never_reaches_the_step_operator(self, payload):
        """Each of these once went through ``from_payloads`` and ended in the engine."""
        sys_model = parse_system((DATA / "coin.json").read_text(encoding="utf-8"))
        spec = parse_spec((DATA / "spec_a_omega_prob.json").read_text(encoding="utf-8"))
        good = ValRel.from_payloads(P, sys_model.states, spec.states, [1.0])
        assert step_operator(sys_model, spec, good).to_csv() == ",zw\nc,0.500000000\n"
        with pytest.raises(ValidationError):
            ValRel.from_payloads(P, sys_model.states, spec.states, [payload])


class TestReindex:
    def setup_method(self):
        rng = random.Random(5)
        self.rel = random_valrel(rng, T, ["u", "v"], ["p", "q"])

    def test_identity(self):
        same = reindex({"u": "u", "v": "v"}, {"p": "p", "q": "q"}, self.rel)
        assert same == self.rel

    def test_constant_maps(self):
        const = reindex({"x": "u"}, {"y": "q"}, self.rel)
        assert const.get("x", "y") == self.rel.get("u", "q")

    def test_single_lookup(self):
        got = reindex({"c": "v"}, {"z": "p"}, self.rel)
        assert got.rows == ("c",) and got.cols == ("z",)
        assert got.get("c", "z") == self.rel.get("v", "p")

    def test_escaping_image_rejected(self):
        with pytest.raises(CarrierMismatch):
            reindex({"c": "nowhere"}, {"z": "p"}, self.rel)

    def test_escaping_column_image_rejected(self):
        with pytest.raises(CarrierMismatch, match="column image 'nowhere' of 'z'"):
            reindex({"c": "u"}, {"z": "nowhere"}, self.rel)

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_preserves_order(self, kind):
        rng = random.Random(11)
        for _ in range(25):
            upper = random_valrel(rng, kind, ["u", "v", "w"], ["p", "q"])
            below = lowered(rng, upper)
            assert below.pointwise_leq(upper)
            f = {"a": rng.choice(upper.rows), "b": rng.choice(upper.rows)}
            g = {"x": rng.choice(upper.cols)}
            assert reindex(f, g, below).pointwise_leq(reindex(f, g, upper))


class TestComparison:
    def test_pointwise_leq_reflexive(self):
        rel = random_valrel(random.Random(1), P, ["a", "b"], ["x"])
        assert rel.pointwise_leq(rel)

    def test_a_relation_is_not_equal_to_a_number(self):
        rel = ValRel.top(["c"], ["z"], B)
        assert (rel == 3) is False

    def test_lowering_one_entry(self):
        top = ValRel.top(["a", "b"], ["x"], P)
        dip = ValRel.tabulate(
            P,
            top.rows,
            top.cols,
            lambda r, c: SemiringValue(P, 0.25) if r == "b" else top.get(r, c),
        )
        assert dip.pointwise_leq(top)
        assert not top.pointwise_leq(dip)

    def test_max_gap_zero_on_equal(self):
        rel = random_valrel(random.Random(2), T, ["a"], ["x", "y"])
        assert rel.max_gap(rel) == 0.0

    def test_max_gap_picks_worst_entry(self):
        a = ValRel(P, ["r"], ["x", "y"], [[SemiringValue(P, 0.9), SemiringValue(P, 0.5)]])
        b = ValRel(P, ["r"], ["x", "y"], [[SemiringValue(P, 0.8), SemiringValue(P, 0.1)]])
        assert a.max_gap(b) == pytest.approx(0.4)

    def test_tropical_infinite_gap(self):
        a = ValRel(T, ["r"], ["x"], [[SemiringValue(T, 3)]])
        b = ValRel(T, ["r"], ["x"], [[SemiringValue(T, INF)]])
        assert a.max_gap(b) == INF

    def test_carrier_mismatch(self):
        a = ValRel.top(["r"], ["x"], B)
        b = ValRel.top(["s"], ["x"], B)
        with pytest.raises(CarrierMismatch):
            a.pointwise_leq(b)

    def test_kind_mismatch(self):
        a = ValRel.top(["r"], ["x"], B)
        b = ValRel.top(["r"], ["x"], P)
        with pytest.raises(KindMismatch):
            a.max_gap(b)


class TestOutput:
    def test_csv_prob_nine_decimals(self):
        rel = ValRel(P, ["c"], ["z1", "z0"], [[SemiringValue(P, 0.25), SemiringValue(P, 0.5)]])
        assert rel.to_csv() == ",z1,z0\nc,0.250000000,0.500000000\n"

    def test_csv_bool_zero_one(self):
        rel = ValRel(B, ["c"], ["z"], [[SemiringValue(B, True)]])
        assert rel.to_csv() == ",z\nc,1\n"

    def test_csv_tropical_inf(self):
        rel = ValRel(T, ["c"], ["z"], [[SemiringValue(T, INF)]])
        assert rel.to_csv() == ",z\nc,inf\n"

    def test_csv_quotes_keys_with_commas(self):
        rel = ValRel.top(["(a,b)"], ["z"], B)
        lines = rel.to_csv().splitlines()
        assert lines[1].startswith('"(a,b)"')

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_csv_is_what_the_csv_module_writes(self, kind):
        """Keys with quotes, commas, line breaks and blanks, and empty carriers,
        against ``csv.writer`` over the same rows."""
        rng = random.Random(f"csv:{kind.value}")
        alphabet = ['a', 'b', ',', '"', "\n", "\r", " ", "\t", "é", ";"]
        for _ in range(300):
            rows, cols = ({"".join(rng.choices(alphabet, k=rng.randint(0, 4)))
                           for _ in range(rng.randint(0, 3))} for _ in range(2))
            rel = random_valrel(rng, kind, sorted(rows), sorted(cols))
            buf = io.StringIO()
            writer = csv.writer(buf, lineterminator="\n")
            writer.writerow(["", *rel.cols])
            for r in rel.rows:
                writer.writerow([r, *(_cell(rel.get(r, c)) for c in rel.cols)])
            assert rel.to_csv() == buf.getvalue(), (rel.rows, rel.cols)

    def test_payloads_box_on_read_and_drop_the_sign_of_zero(self):
        rel = ValRel.from_payloads(P, ["c"], ["z1", "z0"], [-0.0, 0.5])
        assert rel.to_csv() == ",z1,z0\nc,0.000000000,0.500000000\n"
        assert repr(rel.to_json_records()[0]["value"]) == "0.0"
        assert rel.get("c", "z0") == SemiringValue(P, 0.5) == rel.at(0, 1)
        assert rel == ValRel(P, ["c"], ["z1", "z0"], [[SemiringValue(P, 0.0), SemiringValue(P, 0.5)]])

    def test_entries_box_row_major(self):
        rel = ValRel.from_payloads(T, ["c", "d"], ["z1", "z0"], [0, INF, 3, 4])
        assert list(rel.entries()) == [
            ("c", "z1", SemiringValue(T, 0)), ("c", "z0", SemiringValue(T, INF)),
            ("d", "z1", SemiringValue(T, 3)), ("d", "z0", SemiringValue(T, 4)),
        ]

    def test_json_records(self):
        rel = ValRel(T, ["c"], ["z"], [[SemiringValue(T, INF)]])
        records = rel.to_json_records()
        assert records == [{"row": "c", "col": "z", "value": "inf"}]
        json.dumps(records)  # all payloads serializable


def _cell(v):
    """A value as a CSV cell: ``to_text``, with prob at nine decimals."""
    return f"{v.payload:.9f}" if v.kind is P else to_text(v)


def _reference(kind, weights, values):
    """The semiring's own fold: weighted terms summed from zero, left to right."""
    ops = OPS[kind]
    return reduce(ops.add, map(ops.mul, weights, values), ops.zero)


def _fold(kind, weights, values, where=()):
    """The fold kernel on a layer of one fold over ``values``."""
    cell = Folds([weights], [list(range(len(values)))], [where])
    return fold_kernel(kind)(cell, (0,), list(values))[0]


def _branch(kind, key):
    """A one-point branching value of ``kind`` on ``key``."""
    return BranchVal(kind, ((key, SemiringValue(kind, OPS[kind].one)),))


def _random_fold(rng, kind):
    n = rng.randint(0, 6)
    if kind is B:
        return [True] * n, [rng.random() < 0.5 for _ in range(n)]
    if kind is T:
        return ([rng.randint(0, 9) for _ in range(n)],
                [INF if rng.random() < 0.3 else rng.randint(0, 30) for _ in range(n)])
    weights = [rng.random() for _ in range(n)]
    values = [rng.choice([1.0, rng.random()]) for _ in range(n)]
    mass = sum(w * x for w, x in zip(weights, values))
    if mass:  # scale the terms to a total at, just above or far above 1
        target = rng.choice([rng.random(), 1.0, 1.0 + rng.random() * 2 * PROB_EPS, 1.5])
        weights = [w * target / mass for w in weights]
    return weights, values


class TestFold:
    """Each kind's fold gives the bits of the left-to-right semiring fold."""

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_random_folds_match_the_reference(self, kind):
        """One fold cell at a time, and all of them as one layer of fold columns."""
        rng = random.Random(f"fold:{kind.value}")
        src, layer, wants, undefined = [], Folds([], [], []), {}, []
        for k in range(2000):
            weights, values = _random_fold(rng, kind)
            layer.weights.append(weights)
            layer.positions.append(list(range(len(src), len(src) + len(values))))
            layer.where.append((_branch(kind, f"t{k}").key(), _branch(kind, f"u{k}").key()))
            src += values
            try:
                wants[k] = _reference(kind, weights, values)
            except UndefinedSum:
                undefined.append(k)
                with pytest.raises(UndefinedSum):
                    _fold(kind, weights, values)
                continue
            got = _fold(kind, weights, values)
            assert (type(got), repr(got)) == (type(wants[k]), repr(wants[k])), (weights, values)
        run = fold_kernel(kind)
        todo = sorted(wants)
        for k, got in zip(todo, run(layer, todo, src), strict=True):
            assert (type(got), repr(got)) == (type(wants[k]), repr(wants[k])), k
        for k in undefined:  # the undefined sum names both branching values of its cell
            with pytest.raises(UndefinedSum, match=rf"over '{{t{k}:1.0}}' x '{{u{k}:1.0}}'$"):
                run(layer, [todo[0], k], src)
        if kind is P:  # sums just above 1.0 clamp, and sums beyond the slack raise
            above = [k for k in todo if reduce(float.__add__, map(float.__mul__, layer.weights[k],
                                               map(src.__getitem__, layer.positions[k])), 0.0) > 1.0]
            assert len(above) > 100 and all(repr(wants[k]) == "1.0" for k in above)
            assert len(undefined) > 100
        else:
            assert not undefined

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_random_folds_over_a_set_worklist(self, kind):
        """The same folds as one layer, evaluated over a set, the worklist of a later round."""
        rng = random.Random(f"fold:{kind.value}")
        src, layer, wants = [], Folds([], [], []), {}
        for _ in range(2000):
            weights, values = _random_fold(rng, kind)
            positions = list(range(len(src), len(src) + len(values)))
            src += values
            try:
                wants[len(layer)] = _reference(kind, weights, values)
            except UndefinedSum:
                continue
            layer.weights.append(weights)
            layer.positions.append(positions)
            layer.where.append(())
        todo = set(wants)
        got = fold_kernel(kind)(layer, todo, src)
        assert [(type(g), repr(g)) for g in got] == [(type(wants[k]), repr(wants[k])) for k in todo]
        assert {len(p) for p in layer.positions} == set(range(7))

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_tropical_cost_beyond_the_float_range_plus_inf(self, n):
        # 10**400 + inf raises OverflowError in Python; as a cost it is inf
        huge = 10**400
        for weights, values in [([huge] * n, [INF] * n), ([huge] + [0] * (n - 1), [INF] * n)]:
            got = _fold(T, weights, values)
            assert got == INF and type(got) is float
        # a layer that overflows in one cell keeps the bits of every other cell
        layer = Folds([[huge] * n, [3], [2, 1], [2, 1, 0]], [[0] * n, [2], [1, 2], [1, 2, 0]],
                      [()] * 4)
        got = fold_kernel(T)(layer, range(4), [INF, 5, 4])
        assert [(type(g), g) for g in got] == [(float, INF), (int, 7), (int, 5), (int, 5)]

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_empty_fold_is_zero(self, kind):
        got = _fold(kind, [], [])
        assert (type(got), repr(got)) == (type(OPS[kind].zero), repr(OPS[kind].zero))

    def test_empty_folds_in_a_layer(self):
        # each empty fold is the kind's zero, of its type, between folds that read
        wants = {B: [False, True, False], P: [0.0, 0.5, 0.0], T: [INF, 3, INF]}
        for kind, want in wants.items():
            one = OPS[kind].one
            layer = Folds([[], [one], []], [[], [0], []], [(), (), ()])
            src = [{B: True, P: 0.5, T: 3}[kind]]
            got = fold_kernel(kind)(layer, range(3), src)
            assert [(type(g), repr(g)) for g in got] == [(type(w), repr(w)) for w in want]
            assert fold_kernel(kind)(layer, [2, 0], src) == want[:1] * 2

    def test_tropical_tie_keeps_the_first_term(self):
        # as the fold from INF does: min(INF, a) is a, and min(a, b) is a when a == b
        for weights, values in [([1, 0], [2.0, 3]), ([0, 1], [3, 2.0])]:
            got, want = _fold(T, weights, values), _reference(T, weights, values)
            assert (type(got), repr(got)) == (type(want), repr(want))
        assert type(_fold(T, [1, 0], [2.0, 3])) is float
        assert type(_fold(T, [0, 1], [3, 2.0])) is int

    def test_tropical_infinite_entries(self):
        assert _fold(T, [2, 1], [INF, 3]) == 4
        got = _fold(T, [0, 5], [INF, INF])
        assert got == INF and type(got) is float

    def test_left_to_right_float_sum(self):
        # fsum, or a compensated sum() (Python 3.12+), gives 0.6 here
        assert repr(_fold(P, [1.0, 1.0, 1.0], [0.1, 0.2, 0.3])) == "0.6000000000000001"

    @pytest.mark.parametrize("excess", [2e-16, 5e-10, PROB_EPS])
    def test_sum_within_slack_above_one_is_one(self, excess):
        weights, values = [0.5, 0.5 + excess], [1.0, 1.0]
        assert sum(weights) > 1.0
        assert repr(_fold(P, weights, values)) == repr(_reference(P, weights, values)) == "1.0"

    def test_sum_beyond_slack_raises_naming_the_cell(self):
        t = BranchVal(P, (("x", SemiringValue(P, 0.7)), ("y", SemiringValue(P, 0.7))))
        u = BranchVal(P, (("z", SemiringValue(P, 1.0)),))
        msg = "partial sum undefined while extending over '{x:0.7|y:0.7}' x '{z:1.0}'"
        with pytest.raises(UndefinedSum) as exc:
            _fold(P, [0.7, 0.7], [1.0, 1.0], (t.key(), u.key()))
        assert str(exc.value) == msg

    def test_unit_column_names_the_left_value_alone(self):
        # a specification branches by the unit, a column no value names
        t = BranchVal(P, (("x", SemiringValue(P, 0.7)), ("y", SemiringValue(P, 0.7))))
        with pytest.raises(UndefinedSum) as exc:
            _fold(P, [0.7, 0.7], [1.0, 1.0], (t.key(), None))
        assert str(exc.value) == "partial sum undefined while extending over '{x:0.7|y:0.7}'"
