import pytest

from ltbe import (
    Atom,
    BranchVal,
    INF,
    Inj,
    KindMismatch,
    Pair,
    SemiringKind,
    SemiringValue,
    StateRef,
    ValidationError,
    dirac,
    validate_branchval,
    value_key,
)

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL


def pv(x):
    return SemiringValue(P, x)


class TestCanonicalForm:
    def test_zero_weights_dropped(self):
        bv = BranchVal(P, (("x", pv(0.5)), ("y", pv(0.0))))
        assert bv.support_keys() == ("x",)

    def test_tropical_infinite_weights_dropped(self):
        bv = BranchVal(T, (("x", SemiringValue(T, INF)), ("y", SemiringValue(T, 3))))
        assert bv.support_keys() == ("y",)

    def test_entries_sorted_by_key(self):
        bv = BranchVal(P, (("y", pv(0.2)), ("x", pv(0.3))))
        assert bv.support_keys() == ("x", "y")

    def test_equality_ignores_input_order(self):
        a = BranchVal(P, (("y", pv(0.2)), ("x", pv(0.3))))
        b = BranchVal(P, (("x", pv(0.3)), ("y", pv(0.2))))
        assert a == b and a.key() == b.key() and hash(a) == hash(b)

    def test_bool_duplicates_merge(self):
        t = SemiringValue(B, True)
        bv = BranchVal(B, (("x", t), ("x", t)))
        assert bv.support_keys() == ("x",)

    def test_weighted_duplicates_rejected(self):
        with pytest.raises(ValidationError):
            BranchVal(P, (("x", pv(0.2)), ("x", pv(0.3))))

    def test_weight_kind_checked(self):
        with pytest.raises(KindMismatch):
            BranchVal(B, (("x", pv(0.5)),))

    def test_distinct_weights_distinguish_values(self):
        a = BranchVal(P, (("x", pv(0.25)),))
        b = BranchVal(P, (("x", pv(0.5)),))
        assert a != b and a.key() != b.key()


class TestKeyCache:
    def _value(self):
        step = Inj(1, Pair(Atom("a"), StateRef("c")))
        return BranchVal(P, ((step, pv(0.25)), ("x", pv(0.5))))

    def test_cached_keys_equal_a_fresh_rendering(self):
        bv = self._value()
        first = bv.key()
        assert first == "{i1((@a,c)):0.25|x:0.5}"
        assert bv.key() is first  # the second call reads the cache
        assert bv.support_keys() == tuple(value_key(item) for item, _ in bv.entries)

    def test_cached_keys_leave_eq_hash_and_repr_alone(self):
        cached, fresh = self._value(), self._value()
        cached.key()
        assert cached == fresh and hash(cached) == hash(fresh)
        assert repr(cached) == repr(fresh) and "_key" not in repr(cached)


class TestValidate:
    def test_prob_mass_bound(self):
        assert not validate_branchval(BranchVal(P, (("x", pv(0.5)), ("y", pv(0.6)))))

    def test_empty_is_valid_everywhere(self):
        for kind in SemiringKind:
            assert validate_branchval(BranchVal(kind, ()))

    def test_bool_set_is_valid(self):
        t = SemiringValue(B, True)
        assert validate_branchval(BranchVal(B, (("x", t), ("y", t))))

    def test_full_mass_is_valid(self):
        assert validate_branchval(BranchVal(P, (("x", pv(1.0)),)))


class TestDirac:
    @pytest.mark.parametrize("kind", list(SemiringKind))
    def test_single_unit_entry(self, kind):
        d = dirac(kind, "x")
        assert d.support_keys() == ("x",)
        (item, weight), = d.entries
        assert weight.payload == (True if kind is B else 1.0 if kind is P else 0)

    def test_total_mass(self):
        bv = BranchVal(P, (("x", pv(0.25)), ("y", pv(0.5))))
        assert bv.total_mass() == pytest.approx(0.75)
        assert BranchVal(P, ()).is_empty
