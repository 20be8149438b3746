import pytest
from hypothesis import given
from hypothesis import strategies as st

from ltbe import (
    INF,
    KindMismatch,
    SemiringKind,
    SemiringValue,
    UndefinedSum,
    ValidationError,
    add,
    check_semiring_laws,
    gap,
    leq,
    mul,
    one,
    zero,
)
from ltbe.semiring import OPS, from_text, to_text, values_equal

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL


def b(x):
    return SemiringValue(B, x)


def p(x):
    return SemiringValue(P, x)


def t(x):
    return SemiringValue(T, x)


# Hypothesis strategies use a 1/1024 lattice for prob so float tolerance
# slack can never straddle a comparison.
def values_for(kind):
    if kind is B:
        return st.booleans().map(b)
    if kind is P:
        return st.integers(0, 1024).map(lambda n: p(n / 1024))
    return st.one_of(st.integers(0, 32), st.just(INF)).map(t)


any_kind = st.sampled_from(list(SemiringKind))


class TestConstruction:
    def test_prob_range_enforced(self):
        with pytest.raises(ValidationError):
            p(1.5)
        with pytest.raises(ValidationError):
            p(-0.2)
        with pytest.raises(ValidationError, match="nan"):
            p(float("nan"))

    def test_prob_eps_overshoot_clamps(self):
        assert p(1.0 + 1e-12).payload == 1.0

    def test_prob_negative_zero_normalizes(self):
        assert repr(p(-0.0).payload) == "0.0"

    def test_tropical_rejects_negatives_and_fractions(self):
        with pytest.raises(ValidationError):
            t(-1)
        with pytest.raises(ValidationError):
            t(2.5)

    def test_tropical_integral_float_normalizes(self):
        assert t(4.0).payload == 4 and isinstance(t(4.0).payload, int)

    def test_bool_payload_must_be_bool(self):
        with pytest.raises(ValidationError):
            SemiringValue(B, 1)


class TestAdd:
    def test_tropical_is_min(self):
        assert add(t(3), t(5)) == t(3)

    def test_prob_overflow_is_undefined(self):
        assert add(p(0.7), p(0.6)) is None

    def test_prob_within_bound_is_sum(self):
        assert values_equal(add(p(0.25), p(0.5)), p(0.75))

    def test_bool_is_or(self):
        assert add(b(False), b(True)) == b(True)

    @pytest.mark.parametrize("v", [b(True), p(0.37), t(7), t(INF)])
    def test_zero_is_unit(self, v):
        assert add(zero(v.kind), v) == v

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            add(b(True), p(0.5))


class TestRawOps:
    def test_prob_sum_within_slack_clamps_to_one(self):
        assert OPS[P].add(0.5, 0.5 + 1e-12) == 1.0

    def test_prob_sum_beyond_slack_raises(self):
        with pytest.raises(UndefinedSum):
            OPS[P].add(0.7, 0.6)

    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_units(self, kind):
        assert zero(kind).payload == OPS[kind].zero and one(kind).payload == OPS[kind].one

    @given(any_kind.flatmap(lambda k: st.tuples(values_for(k), values_for(k))))
    def test_boxed_ops_wrap_raw_ops(self, pair):
        x, y = pair
        ops = OPS[x.kind]
        assert mul(x, y).payload == ops.mul(x.payload, y.payload)
        assert leq(x, y) == ops.leq(x.payload, y.payload)
        assert gap(x, y) == ops.gap(x.payload, y.payload)
        try:
            raw = ops.add(x.payload, y.payload)
        except UndefinedSum:
            assert add(x, y) is None
        else:
            assert add(x, y).payload == raw


class TestMul:
    def test_tropical_adds_costs(self):
        assert mul(t(3), t(5)) == t(8)

    def test_tropical_infinity_absorbs(self):
        assert mul(t(INF), t(5)) == t(INF)

    def test_prob_multiplies(self):
        assert mul(p(0.5), p(0.5)) == p(0.25)

    @pytest.mark.parametrize("v", [b(False), p(0.37), t(7)])
    def test_one_is_unit(self, v):
        assert mul(one(v.kind), v) == v

    def test_kind_mismatch(self):
        with pytest.raises(KindMismatch):
            mul(t(1), p(0.5))


class TestLeq:
    def test_tropical_order_is_reversed(self):
        assert leq(t(5), t(3))
        assert not leq(t(3), t(5))

    def test_prob_is_numeric(self):
        assert leq(p(0.3), p(0.7))
        assert not leq(p(0.7), p(0.3))

    def test_bool_false_below_true(self):
        assert leq(b(False), b(True))
        assert not leq(b(True), b(False))

    @given(any_kind.flatmap(values_for))
    def test_bounded_by_zero_and_one(self, v):
        assert leq(zero(v.kind), v)
        assert leq(v, one(v.kind))


class TestGap:
    @pytest.mark.parametrize("v", [b(True), p(0.4), t(9), t(INF)])
    def test_reflexive_zero(self, v):
        assert gap(v, v) == 0.0

    def test_prob_absolute_difference(self):
        assert gap(p(0.25), p(0.5)) == pytest.approx(0.25)

    def test_tropical_infinite_jump(self):
        assert gap(t(INF), t(4)) == INF

    def test_tropical_finite_difference(self):
        assert gap(t(7), t(4)) == 3.0

    def test_bool_discrete(self):
        assert gap(b(True), b(False)) == 1.0


class TestText:
    @pytest.mark.parametrize(
        "v,text",
        [(b(True), "1"), (b(False), "0"), (t(12), "12"), (t(INF), "inf"), (p(0.5), "0.5")],
    )
    def test_round_trip(self, v, text):
        assert to_text(v) == text
        assert from_text(v.kind, text) == v

    def test_bad_text(self):
        with pytest.raises(ValidationError):
            from_text(T, "many")


class TestProperties:
    @given(any_kind.flatmap(lambda k: st.tuples(values_for(k), values_for(k))))
    def test_add_commutative(self, pair):
        x, y = pair
        xy, yx = add(x, y), add(y, x)
        assert (xy is None) == (yx is None)
        if xy is not None:
            assert values_equal(xy, yx)

    @given(any_kind.flatmap(lambda k: st.tuples(values_for(k), values_for(k))))
    def test_add_inflationary(self, pair):
        x, y = pair
        xy = add(x, y)
        if xy is not None:
            assert leq(x, xy)

    @given(
        any_kind.flatmap(
            lambda k: st.tuples(values_for(k), values_for(k), values_for(k), values_for(k))
        )
    )
    def test_mul_monotone(self, quad):
        a, a2, c, c2 = quad
        if leq(a, a2) and leq(c, c2):
            assert leq(mul(a, c), mul(a2, c2))

    @given(
        any_kind.flatmap(lambda k: st.tuples(values_for(k), values_for(k), values_for(k)))
    )
    def test_partial_distributivity(self, triple):
        s, t_, u = triple
        tu = add(t_, u)
        if tu is None:
            return
        lhs = add(mul(s, t_), mul(s, u))
        assert lhs is not None
        assert values_equal(lhs, mul(s, tu))


class TestLawSuite:
    def test_bool_exhaustive(self):
        report = check_semiring_laws(B, samples=1)
        assert report.passed

    def test_tropical_samples(self):
        report = check_semiring_laws(T, samples=1000, seed=7)
        assert report.passed
        # a concrete distributivity instance: min(2+3, 2+5) = 2 + min(3, 5)
        assert add(mul(t(2), t(3)), mul(t(2), t(5))) == mul(t(2), add(t(3), t(5))) == t(5)

    def test_prob_samples(self):
        report = check_semiring_laws(P, samples=1000, seed=7)
        assert report.passed
        # a concrete instance: 0.5*0.4 + 0.5*0.5 = 0.5*(0.4+0.5)
        lhs = add(mul(p(0.5), p(0.4)), mul(p(0.5), p(0.5)))
        assert values_equal(lhs, mul(p(0.5), add(p(0.4), p(0.5))))
        assert lhs.payload == pytest.approx(0.45)

    def test_report_format_lists_every_law(self):
        report = check_semiring_laws(B, samples=1)
        text = report.format()
        assert "PASS distributivity-partial" in text
        assert "PASS order-bounds" in text

    def test_rejects_zero_samples(self):
        with pytest.raises(ValueError):
            check_semiring_laws(P, samples=0)

    def test_broken_law_is_caught(self):
        # sanity check of the harness itself: a wrong "min is plus" claim
        # must produce a counterexample, not a silent pass
        report = check_semiring_laws(T, samples=200, seed=3)
        names = {c.name for c in report.checks}
        assert "distributivity-partial" in names and report.passed
