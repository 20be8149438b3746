"""The contract of the immutable value classes.

Every value class is immutable, equal only to values of its own class
with equal fields, hashed consistently with that equality, printed as
``Class(field=value, ...)`` and round-tripped by ``pickle`` and
``copy.deepcopy``.  The cached ``_key`` takes no part in equality,
hashing or ``repr``.  The ``repr`` strings are
pinned because they reach error messages.
"""

import copy
import math
import pathlib
import pickle

import pytest

from ltbe import BranchVal, behaviour, dirac, parse_spec, parse_system
from ltbe.engine import FixpointOptions, FixpointReport
from ltbe.laws import LawCheck, LawReport, MonadReport
from ltbe.polyfunctor import (
    UNIT,
    Atom,
    Const,
    Coprod,
    Id,
    Inj,
    Pair,
    Power,
    Prod,
    StateRef,
    TupleTerm,
)
from ltbe.relation import ValRel
from ltbe.semiring import SemiringKind, SemiringValue
from ltbe.system import BranchLayer, PolyLayer, TypeStack

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL
_BOOL = "SemiringValue(kind=<SemiringKind.BOOL: 'bool'>, payload=True)"
_CHECK = "LawCheck(name='a', passed=True, counterexample=None)"

#: ``(class, constructor arguments, a field or None, repr)``, one case per value class.
CASES = [
    (Id, (), None, "Id()"),
    (Const, (("a", "b"),), "labels", "Const(labels=('a', 'b'))"),
    (Prod, (Id(), UNIT), "left", "Prod(left=Id(), right=Const(labels=('*',)))"),
    (Coprod, ((UNIT, Id()),), "branches", "Coprod(branches=(Const(labels=('*',)), Id()))"),
    (Power, (("x", "y"), Id()), "body", "Power(exponent=('x', 'y'), body=Id())"),
    (StateRef, ("s0",), "target", "StateRef(target='s0')"),
    (Atom, ("a",), "label", "Atom(label='a')"),
    (Pair, (Atom("a"), StateRef("s1")), "fst",
     "Pair(fst=Atom(label='a'), snd=StateRef(target='s1'))"),
    (Inj, (1, StateRef("s1")), "arg", "Inj(index=1, arg=StateRef(target='s1'))"),
    (TupleTerm, ((StateRef("s0"), Atom("b")),), "components",
     "TupleTerm(components=(StateRef(target='s0'), Atom(label='b')))"),
    (SemiringValue, (P, 0.5), "payload",
     "SemiringValue(kind=<SemiringKind.PROB: 'prob'>, payload=0.5)"),
    (SemiringValue, (T, math.inf), "kind",
     "SemiringValue(kind=<SemiringKind.TROPICAL: 'tropical'>, payload=inf)"),
    (BranchVal, (P, ((StateRef("s1"), SemiringValue(P, 0.25)), ("s0", SemiringValue(P, 0.5)))),
     "entries",
     "BranchVal(kind=<SemiringKind.PROB: 'prob'>, entries=(('s0', SemiringValue(kind="
     "<SemiringKind.PROB: 'prob'>, payload=0.5)), (StateRef(target='s1'), SemiringValue("
     "kind=<SemiringKind.PROB: 'prob'>, payload=0.25))))"),
    (PolyLayer, (Coprod((UNIT, Prod(Const(("a",)), Id()))),), "expr",
     "PolyLayer(expr=Coprod(branches=(Const(labels=('*',)), Prod(left=Const(labels=('a',)), "
     "right=Id()))))"),
    (BranchLayer, (), None, "BranchLayer()"),
    (TypeStack, (B, (BranchLayer(), PolyLayer(Id()))), "layers",
     "TypeStack(kind=<SemiringKind.BOOL: 'bool'>, layers=(BranchLayer(), PolyLayer(expr=Id())))"),
    (FixpointOptions, (), "tolerance",
     "FixpointOptions(max_iterations=None, tolerance=1e-09, threshold=None)"),
    (FixpointOptions, (7, 0.5, SemiringValue(T, 3)), "threshold",
     "FixpointOptions(max_iterations=7, tolerance=0.5, threshold=SemiringValue(kind="
     "<SemiringKind.TROPICAL: 'tropical'>, payload=3))"),
    (FixpointReport, (ValRel.top(("s",), ("t",), B), 3, 0.0, "converged"), "iterations",
     "FixpointReport(result=ValRel(kind=bool, rows=1, cols=1), iterations=3, final_gap=0.0, "
     "stop_reason='converged')"),
    (LawCheck, ("assoc", False, "x"), "passed",
     "LawCheck(name='assoc', passed=False, counterexample='x')"),
    (LawReport, (B, 2, 0, (LawCheck("a", True),)), "seed",
     f"LawReport(kind=<SemiringKind.BOOL: 'bool'>, samples=2, seed=0, checks=({_CHECK},))"),
    (MonadReport, (B, 1, True, False, (dirac(B, "x"), BranchVal(B, ())), (LawCheck("a", True),)),
     "additive",
     "MonadReport(kind=<SemiringKind.BOOL: 'bool'>, size_bound=1, injective=True, additive=False, "
     f"partiality_witness=(BranchVal(kind=<SemiringKind.BOOL: 'bool'>, entries=(('x', {_BOOL}),)), "
     f"BranchVal(kind=<SemiringKind.BOOL: 'bool'>, entries=())), checks=({_CHECK},))"),
]

IDS = [f"{cls.__name__}-{k}" for k, (cls, *_) in enumerate(CASES)]


def _hash(value):
    """The hash of ``value``, or ``None`` if a field is unhashable (a ``ValRel``)."""
    try:
        return hash(value)
    except TypeError:
        return None


def _cache(value) -> None:
    """Fill whatever cache the value keeps outside its fields."""
    if hasattr(value, "key"):
        value.key()


@pytest.mark.parametrize("cls, args, field, text", CASES, ids=IDS)
class TestContract:
    def test_fields_cannot_be_set(self, cls, args, field, text):
        value = cls(*args)
        with pytest.raises(AttributeError):
            setattr(value, field or "x", None)
        with pytest.raises(AttributeError):
            delattr(value, field or "x")

    def test_equal_values_hash_equal(self, cls, args, field, text):
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert _hash(a) == _hash(b)

    def test_equality_is_class_sensitive(self, cls, args, field, text):
        # a subclass with the very same fields is another class of value
        twin = type("Twin", (cls,), {"__slots__": ()})(*args)
        assert cls(*args) != twin and twin != cls(*args)

    def test_cache_is_not_a_field(self, cls, args, field, text):
        cached, fresh = cls(*args), cls(*args)
        _cache(cached)
        assert cached == fresh and _hash(cached) == _hash(fresh)
        assert repr(cached) == repr(fresh)

    def test_repr_is_the_pinned_text(self, cls, args, field, text):
        assert repr(cls(*args)) == text


def test_same_fields_of_other_classes_differ():
    x = StateRef("s")
    assert Inj(0, x) != Pair(0, x)
    assert StateRef("a") != Atom("a")
    assert SemiringValue(B, True) != (B, True)
    assert Id() != BranchLayer()


@pytest.mark.parametrize("cls, args, field, text", CASES, ids=IDS)
def test_value_round_trips(cls, args, field, text):
    value = cls(*args)
    _cache(value)
    for twin in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value)):
        assert type(twin) is cls
        assert twin == value and _hash(twin) == _hash(value)
        assert repr(twin) == repr(value)


@pytest.mark.parametrize("parse, name", [(parse_system, "io_machine"), (parse_system, "coin"),
                                         (parse_spec, "spec_io_all_ok")])
def test_model_round_trips(parse, name):
    model = parse((DATA / f"{name}.json").read_text(encoding="utf-8"))
    for twin in (pickle.loads(pickle.dumps(model)), copy.deepcopy(model)):
        assert type(twin) is type(model)
        assert (twin.stack, twin.states, twin.resolved) == (model.stack, model.states, model.resolved)
        assert twin.to_text() == model.to_text()


def test_report_round_trips():
    sys = parse_system((DATA / "coin.json").read_text(encoding="utf-8"))
    spec = parse_spec((DATA / "spec_chain2.json").read_text(encoding="utf-8"))
    report = behaviour(sys, spec)
    for twin in (pickle.loads(pickle.dumps(report)), copy.deepcopy(report)):
        assert (twin.result, twin.iterations, twin.stop_reason) == (
            report.result, report.iterations, report.stop_reason)
        assert twin.result.to_csv() == report.result.to_csv()
