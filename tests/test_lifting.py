import random
from functools import reduce

import pytest

from ltbe import (
    Atom,
    BranchVal,
    CarrierMismatch,
    INF,
    Inj,
    KindMismatch,
    LtbeError,
    Pair,
    SemiringKind,
    SemiringValue,
    StateRef,
    TupleTerm,
    UndefinedSum,
    ValRel,
    behaviour,
    common_trace,
    dirac,
    engine,
    lift_double_extension,
    lift_egli_milner,
    lift_extension,
    lift_poly,
    parse_expr,
)
from ltbe.lifting import TOP, compile_double_extension, times, unit_columns
from ltbe.relation import ZERO, Folds
from ltbe.semiring import OPS
from ltbe.system import BranchLayer
from modelgen import (
    SHAPES,
    gen_model_pair,
    gen_system_pair,
    lowered,
    lts_terms,
    random_branchvals,
    random_valrel,
)

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL

LTS_A = parse_expr("{*} + {a} * Id")


def tv(x):
    return SemiringValue(T, x)


def pv(x):
    return SemiringValue(P, x)


def bv_bool(*keys):
    return BranchVal(B, tuple((k, SemiringValue(B, True)) for k in keys))


class TestLiftPoly:
    def test_tropical_closed_form(self):
        rel = ValRel(T, ["x"], ["y"], [[tv(7)]])
        out = lift_poly(LTS_A, rel, lts_terms("a", ["x"]), lts_terms("a", ["y"]))
        assert out.get("i0(@*)", "i0(@*)") == tv(0)
        assert out.get("i1((@a,x))", "i1((@a,y))") == tv(7)
        assert out.get("i0(@*)", "i1((@a,y))") == tv(INF)
        assert out.get("i1((@a,x))", "i0(@*)") == tv(INF)

    def test_prob_closed_form(self):
        rel = ValRel(P, ["x"], ["y"], [[pv(0.25)]])
        out = lift_poly(LTS_A, rel, lts_terms("a", ["x"]), lts_terms("a", ["y"]))
        assert out.get("i0(@*)", "i0(@*)") == pv(1.0)
        assert out.get("i1((@a,x))", "i1((@a,y))") == pv(0.25)
        assert out.get("i0(@*)", "i1((@a,y))") == pv(0.0)

    def test_label_mismatch_is_bottom(self):
        expr = parse_expr("{a,b} * Id")
        rel = ValRel.top(["x"], ["y"], B)
        rows = [Pair(Atom(label), StateRef("x")) for label in "ab"]
        cols = [Pair(Atom(label), StateRef("y")) for label in "ab"]
        out = lift_poly(expr, rel, rows, cols)
        assert out.get("(@a,x)", "(@a,y)").payload is True
        assert out.get("(@a,x)", "(@b,y)").payload is False

    def test_identity_returns_same_relation(self):
        rel = random_valrel(random.Random(3), T, ["x", "y"], ["p", "q"])
        rows = [StateRef(k) for k in rel.rows]
        cols = [StateRef(k) for k in rel.cols]
        assert lift_poly(parse_expr("Id"), rel, rows, cols) == rel

    def test_constant_becomes_equality(self):
        rel = random_valrel(random.Random(4), P, ["x"], ["y"])
        labels = [Atom("m"), Atom("n")]
        out = lift_poly(parse_expr("{m,n}"), rel, labels, labels)
        assert out.get("@m", "@m") == pv(1.0)
        assert out.get("@m", "@n") == pv(0.0)

    def test_power_equals_iterated_product(self):
        body = parse_expr("{*} + Id")
        power = parse_expr("({*} + Id)^{u,v}")
        pair = parse_expr("({*} + Id) * ({*} + Id)")
        rng = random.Random(9)
        rel = random_valrel(rng, T, ["x", "y"], ["p"])
        body_rows = [Inj(0, Atom("*"))] + [Inj(1, StateRef(k)) for k in rel.rows]
        body_cols = [Inj(0, Atom("*"))] + [Inj(1, StateRef(k)) for k in rel.cols]
        left = lift_poly(
            power,
            rel,
            [TupleTerm((u, v)) for u in body_rows for v in body_rows],
            [TupleTerm((u, v)) for u in body_cols for v in body_cols],
        )
        right = lift_poly(
            pair,
            rel,
            [Pair(u, v) for u in body_rows for v in body_rows],
            [Pair(u, v) for u in body_cols for v in body_cols],
        )
        assert [
            [left.at(i, j) for j in range(len(left.cols))] for i in range(len(left.rows))
        ] == [[right.at(i, j) for j in range(len(right.cols))] for i in range(len(right.rows))]


class TestLiftExtension:
    def test_tropical_min_plus(self):
        rel = ValRel(T, ["x1", "x2"], ["y"], [[tv(3)], [tv(0)]])
        t = BranchVal(T, (("x1", tv(2)), ("x2", tv(5))))
        out = lift_extension(rel, [t])
        assert out.get(t.key(), "y") == tv(5)  # min(2 + 3, 5 + 0)

    def test_bool_singleton_exists(self):
        rel = ValRel.top(["x"], ["y"], B)
        out = lift_extension(rel, [bv_bool("x")])
        assert out.get(bv_bool("x").key(), "y").payload is True

    def test_prob_single_weight(self):
        rel = ValRel.top(["x"], ["y"], P)
        t = BranchVal(P, (("x", pv(0.5)),))
        assert lift_extension(rel, [t]).get(t.key(), "y") == pv(0.5)

    def test_empty_support_is_bottom(self):
        for kind, bottom in ((B, False), (P, 0.0), (T, INF)):
            rel = ValRel.top(["x"], ["y"], kind)
            empty = BranchVal(kind, ())
            assert lift_extension(rel, [empty]).get(empty.key(), "y").payload == bottom

    def test_unit_law_dirac(self):
        rng = random.Random(17)
        for kind in SemiringKind:
            for _ in range(30):
                rows = [f"x{i}" for i in range(rng.randint(1, 5))]
                cols = [f"y{i}" for i in range(rng.randint(1, 5))]
                rel = random_valrel(rng, kind, rows, cols)
                x = rng.choice(rows)
                d = dirac(kind, x)
                out = lift_extension(rel, [d])
                for y in cols:
                    assert out.get(d.key(), y) == rel.get(x, y)  # exact, not approx

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_is_the_double_extension_against_the_unit(self, kind):
        rng = random.Random(f"unit-columns:{kind.value}")
        for _ in range(40):
            rows = [f"x{i}" for i in range(rng.randint(1, 5))]
            cols = [f"y{i}" for i in range(rng.randint(1, 5))]
            rel = random_valrel(rng, kind, rows, cols)
            ts = random_branchvals(rng, kind, rows, 4)
            single = lift_extension(rel, ts).payloads()
            double = lift_double_extension(rel, ts, [dirac(kind, y) for y in rel.cols]).payloads()
            assert [(type(p), repr(p)) for p in single] == [(type(p), repr(p)) for p in double]

    def test_bool_matches_set_theoretic_exists(self):
        rng = random.Random(23)
        rows = ["x0", "x1", "x2"]
        cols = ["y0", "y1"]
        for _ in range(40):
            rel = random_valrel(rng, B, rows, cols)
            supports = random_branchvals(rng, B, rows, 5)
            out = lift_extension(rel, [supports[0]])
            for y in cols:
                expected = any(rel.get(x, y).payload for x in supports[0].support_keys())
                assert out.get(supports[0].key(), y).payload == expected

    def test_undefined_sum_surfaces(self):
        rel = ValRel.top(["x", "y"], ["z"], P)
        overweight = BranchVal(P, (("x", pv(0.8)), ("y", pv(0.8))))
        with pytest.raises(UndefinedSum, match=r"over '\{x:0.8\|y:0.8\}'$"):
            lift_extension(rel, [overweight])

    def test_valid_subprobability_never_undefined(self):
        rng = random.Random(31)
        rows = ["x0", "x1", "x2"]
        for _ in range(50):
            rel = random_valrel(rng, P, rows, ["y"])
            for t in random_branchvals(rng, P, rows, 4):
                lift_extension(rel, [t])  # must not raise

    def test_kind_mismatch(self):
        rel = ValRel.top(["x"], ["y"], B)
        with pytest.raises(KindMismatch):
            lift_extension(rel, [dirac(P, "x")])


class TestLiftDoubleExtension:
    def test_tropical_closed_form(self):
        rel = ValRel(T, ["x"], ["y1", "y2"], [[tv(7), tv(2)]])
        t = BranchVal(T, (("x", tv(1)),))
        u = BranchVal(T, (("y1", tv(0)), ("y2", tv(4))))
        out = lift_double_extension(rel, [t], [u])
        assert out.get(t.key(), u.key()) == tv(7)  # min(1+0+7, 1+4+2)

    def test_undefined_sum_names_both_values(self):
        rel = ValRel.top(["x", "y"], ["u", "v"], P)
        t = BranchVal(P, (("x", pv(0.9)), ("y", pv(0.9))))
        fine, heavy = BranchVal(P, (("u", pv(0.2)),)), BranchVal(P, (("u", pv(0.9)), ("v", pv(0.9))))
        with pytest.raises(UndefinedSum, match=r"over '\{x:0.9\|y:0.9\}' x '\{u:0.9\|v:0.9\}'$"):
            lift_double_extension(rel, [t], [fine, heavy])

    def test_dirac_dirac_is_lookup(self):
        rel = ValRel(P, ["x"], ["y"], [[pv(0.3)]])
        out = lift_double_extension(rel, [dirac(P, "x")], [dirac(P, "y")])
        assert out.get(dirac(P, "x").key(), dirac(P, "y").key()) == pv(0.3)

    def test_bool_common_related_pair(self):
        rel = ValRel(B, ["x1", "x2"], ["y1"], [[SemiringValue(B, False)], [SemiringValue(B, True)]])
        t = bv_bool("x1", "x2")
        u = bv_bool("y1")
        assert lift_double_extension(rel, [t], [u]).get(t.key(), u.key()).payload is True
        t2 = bv_bool("x1")
        assert lift_double_extension(rel, [t2], [u]).get(t2.key(), u.key()).payload is False

    def test_empty_side_is_bottom(self):
        rel = ValRel.top(["x"], ["y"], T)
        t = BranchVal(T, (("x", tv(0)),))
        empty = BranchVal(T, ())
        out = lift_double_extension(rel, [t], [empty])
        assert out.get(t.key(), empty.key()) == tv(INF)

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_agrees_with_one_side_at_a_time(self, kind):
        # left extension followed by the dual (right side) extension, the
        # latter computed through transposition
        rng = random.Random(41)
        rows = ["x0", "x1"]
        cols = ["y0", "y1"]
        for _ in range(25):
            rel = random_valrel(rng, kind, rows, cols)
            ts = random_branchvals(rng, kind, rows, 3)
            us = random_branchvals(rng, kind, cols, 3)
            direct = lift_double_extension(rel, ts, us)
            left = lift_extension(rel, ts)
            transposed = ValRel.tabulate(kind, cols, left.rows, lambda c, r: left.get(r, c))
            right = lift_extension(transposed, us)
            for t in ts:
                for u in us:
                    a = direct.get(t.key(), u.key())
                    b = right.get(u.key(), t.key())
                    if kind is P:
                        assert a.payload == pytest.approx(b.payload, abs=1e-12)
                    else:
                        assert a == b


class TestEgliMilner:
    def test_empty_empty_related(self):
        rel = ValRel.top(["x"], ["y"], B)
        e = BranchVal(B, ())
        assert lift_egli_milner(rel, [e], [e]).get(e.key(), e.key()).payload is True

    def test_nonempty_vs_empty(self):
        rel = ValRel.top(["x"], ["y"], B)
        t, e = bv_bool("x"), BranchVal(B, ())
        out = lift_egli_milner(rel, [t], [e])
        assert out.get(t.key(), e.key()).payload is False

    def test_matched_singletons(self):
        rel = ValRel.top(["x"], ["y"], B)
        t, u = bv_bool("x"), bv_bool("y")
        assert lift_egli_milner(rel, [t], [u]).get(t.key(), u.key()).payload is True

    def test_requires_both_directions(self):
        rel = ValRel(
            B,
            ["x1", "x2"],
            ["y1", "y2"],
            [
                [SemiringValue(B, True), SemiringValue(B, False)],
                [SemiringValue(B, False), SemiringValue(B, False)],
            ],
        )
        t = bv_bool("x1", "x2")  # x2 has no partner
        u = bv_bool("y1")
        assert lift_egli_milner(rel, [t], [u]).get(t.key(), u.key()).payload is False

    def test_wide_successor_sets(self):
        # one cell of 1200 forall-exists checks, each over 600 successors
        xs, ys = [f"x{i}" for i in range(600)], [f"y{i}" for i in range(600)]
        t, u = bv_bool(*xs), bv_bool(*ys)
        assert lift_egli_milner(ValRel.top(xs, ys, B), [t], [u]).at(0, 0).payload is True
        flat = [i < 599 for i in range(600) for _ in ys]  # x599 is related to no y
        last_unmatched = ValRel.from_payloads(B, xs, ys, flat)
        assert lift_egli_milner(last_unmatched, [t], [u]).at(0, 0).payload is False

    def test_non_bool_rejected(self):
        rel = ValRel.top(["x"], ["y"], P)
        with pytest.raises(KindMismatch):
            lift_egli_milner(rel, [dirac(P, "x")], [dirac(P, "y")])


class TestErrorOrder:
    """Arguments wrong in two ways at once: the whole-argument checks come first."""

    def test_non_bool_before_unknown_key(self):
        rel = ValRel.top(["x"], ["y"], P)
        with pytest.raises(KindMismatch, match="only defined for bool"):
            lift_egli_milner(rel, [dirac(P, "nowhere")], [dirac(P, "y")])

    def test_every_kind_before_any_key(self):
        rel = ValRel.top(["x"], ["y"], B)
        with pytest.raises(KindMismatch, match="prob branching value"):
            lift_extension(rel, [bv_bool("nowhere"), dirac(P, "x")])
        with pytest.raises(KindMismatch, match="prob branching value"):
            lift_double_extension(rel, [bv_bool("nowhere")], [dirac(P, "y")])

    def test_columns_before_rows(self):
        rel = ValRel.top(["x"], ["y"], B)
        with pytest.raises(CarrierMismatch, match="'col'"):
            lift_double_extension(rel, [bv_bool("row")], [bv_bool("col")])
        with pytest.raises(CarrierMismatch, match="'col'"):
            lift_egli_milner(rel, [bv_bool("row")], [bv_bool("col")])
        with pytest.raises(CarrierMismatch, match="'col'"):
            lift_poly(LTS_A, rel, lts_terms("a", ["row"]), lts_terms("a", ["col"]))


class TestMonotonicity:
    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_all_liftings_preserve_order(self, kind):
        rng = random.Random(59)
        expr = parse_expr("{*} + {a,b} * Id")
        for _ in range(20):
            rows = [f"x{i}" for i in range(rng.randint(1, 4))]
            cols = [f"y{i}" for i in range(rng.randint(1, 4))]
            upper = random_valrel(rng, kind, rows, cols)
            below = lowered(rng, upper)
            row_terms, col_terms = lts_terms("ab", rows), lts_terms("ab", cols)
            assert lift_poly(expr, below, row_terms, col_terms).pointwise_leq(
                lift_poly(expr, upper, row_terms, col_terms)
            )
            ts = random_branchvals(rng, kind, rows, 3)
            us = random_branchvals(rng, kind, cols, 3)
            assert lift_extension(below, ts).pointwise_leq(lift_extension(upper, ts))
            assert lift_double_extension(below, ts, us).pointwise_leq(
                lift_double_extension(upper, ts, us)
            )
            if kind is B:
                assert lift_egli_milner(below, ts, us).pointwise_leq(
                    lift_egli_milner(upper, ts, us)
                )


class TestBoolWeights:
    """The bool fold reads positions only, so a compiled bool fold carries no weights."""

    def test_compiled_bool_folds_carry_no_weights(self):
        def below(m, idx):  # the size of the carrier under layer ``idx``
            return len(m.resolved[idx + 1]) if idx + 1 < len(m.resolved) else len(m.states)

        rng = random.Random(17)
        cells = []
        for shape in SHAPES:
            for _ in range(20):
                a, b = gen_system_pair(rng, B, shape)
                for idx, layer in enumerate(a.stack.layers):
                    if isinstance(layer, BranchLayer):
                        rows, cols = below(a, idx), below(b, idx)
                        for right in (unit_columns(B, cols), b.resolved[idx]):
                            folds = compile_double_extension(B, rows, cols, a.resolved[idx], right)
                            cells += folds.weights
                # the engine's program, a layer of single reads folded into its folds too
                cells += [ws for layer, _, _ in engine._walker(a, b) if type(layer) is Folds
                          for ws in layer.weights]
        assert len(cells) >= 1000
        assert all(ws == () for ws in cells)

    def test_explicit_false_weight_dropped(self):
        bv = BranchVal(B, (("x", SemiringValue(B, False)), ("y", SemiringValue(B, True))))
        assert bv.support_keys() == ("y",)
        assert [w.payload for _, w in bv.entries] == [True]


def _with_zero_reads(kind, rows, cols, left_values, right_values, source=None):
    """The double extension with a fold for every pair of the two supports,
    the reads of the zero slot included."""
    at, mul = range(rows * cols + 2) if source is None else source, OPS[kind].mul
    weights, positions, where = [], [], []
    for xs, xws, t in left_values:
        for ys, yws, u in right_values:
            weights.append([mul(xw, yw) for xw in xws for yw in yws])
            positions.append([at[x * cols + y] for x in xs for y in ys])
            where.append((t, u))
    return Folds(weights, positions, where)


def _bits(op, a, b):
    """Every bit of a run of ``op``: payloads, iterations and stop reason, or its error."""
    try:
        report = op(a, b)
    except LtbeError as exc:
        return type(exc), str(exc)
    payloads = [(type(p), repr(p)) for p in report.result.payloads()]
    return payloads, report.iterations, report.stop_reason


def _pairing(kind, rows, cols, left_values, right_values, source=None):
    """The double extension as a loop over the pairs of the two supports, each
    term's weight the product of the pair's weights, the unit's single point of
    weight one included, leaving out every pair that reads ``ZERO``."""
    at, mul = range(rows * cols) if source is None else source, OPS[kind].mul
    weights, positions, where = [], [], []
    rights = [(list(zip(ys, yws)), u) for ys, yws, u in right_values]
    for xs, xws, t in left_values:
        xs = [(x * cols, xw) for x, xw in zip(xs, xws)]
        for ys, u in rights:
            ws, ps = [], []
            for x, xw in xs:
                for y, yw in ys:
                    p = at[x + y]
                    if p != ZERO:
                        ws.append(mul(xw, yw))
                        ps.append(p)
            weights.append(ws)
            positions.append(ps)
            where.append((t, u))
    return Folds(weights, positions, where)


class TestSpecificationPath:
    """Against a specification's unit columns, a cell folds the left support
    alone, each point at its own weight, as the pairing loop folds each point
    with the unit's one."""

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_the_folds_and_the_run_of_the_pairing_loop(self, kind, monkeypatch):
        cells, dropped = [], 0

        def both(*args, **kw):
            got, want = compile_double_extension(*args, **kw), _pairing(*args, **kw)
            assert all(u is None for _, _, u in args[4])  # a specification's unit columns
            assert got.positions == want.positions and got.where == want.where
            if kind is not B:
                assert ([[(type(w), repr(w)) for w in ws] for ws in got.weights]
                        == [[(type(w), repr(w)) for w in ws] for ws in want.weights])
            nonlocal dropped
            cells.extend(got.positions)
            every = _with_zero_reads(*args, **kw).positions
            dropped += sum(map(len, every)) - sum(map(len, got.positions))
            return got

        rng = random.Random(f"specification-path:{kind.value}")
        for shape in SHAPES:
            for _ in range(30):
                a, b = gen_model_pair(rng, kind, shape)
                want = _bits(behaviour, a, b)
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "compile_double_extension", both)
                    engine._walker(a, b)
                    patch.setattr(engine, "compile_double_extension", _pairing)
                    assert _bits(behaviour, a, b) == want
        # the cells, their reads, and the reads of ``ZERO`` left out through a layer below
        assert len(cells) > 500 and sum(map(len, cells)) > 400 and dropped > 200


def _zero_reads(program):
    """The reads of the zero slot, ``ZERO``, in a program's folds."""
    return sum(p == ZERO for cells, _, _ in program if type(cells) is Folds
               for ps in cells.positions for p in ps)


class TestBottomFreeDoubleExtension:
    """A double extension, against the unit columns of a specification too,
    leaves out every pair that reads its source's zero slot, and runs as the
    folds that read them all do."""

    @staticmethod
    def _check(op, gen, rng, kind, monkeypatch):
        dropped = 0
        for shape in SHAPES:
            for _ in range(15):
                a, b = gen(rng, kind, shape)
                assert _zero_reads(engine._walker(a, b)) == 0
                want = _bits(op, a, b)
                with monkeypatch.context() as patch:
                    patch.setattr(engine, "compile_double_extension", _with_zero_reads)
                    dropped += _zero_reads(engine._walker(a, b))
                    assert _bits(op, a, b) == want
        assert dropped > 100

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_no_zero_slot_reads_and_the_same_run(self, kind, monkeypatch):
        rng = random.Random(f"bottom-free:{kind.value}")
        self._check(common_trace, gen_system_pair, rng, kind, monkeypatch)

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_behaviour_against_unit_columns(self, kind, monkeypatch):
        rng = random.Random(f"bottom-free:{kind.value}:behaviour")
        self._check(behaviour, gen_model_pair, rng, kind, monkeypatch)


def test_times_of_many_cells_is_the_binary_fold():
    """A power's tree, built by one call, is the product its factors make two at a time."""
    rng = random.Random(5)
    pick = [TOP, 0, 1, 2, (3, 4), (5, (6, 7)), ZERO]
    for _ in range(500):
        cells = [rng.choice(pick) for _ in range(rng.randint(0, 6))]
        assert times(*cells) == reduce(times, cells, TOP), cells
    wide = times(*range(5000))  # one tuple, built in one pass
    assert wide == tuple(range(5000))
