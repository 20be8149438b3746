"""Truth-value semirings for the three supported branching disciplines.

Each branching discipline induces a carrier of truth values with a
(possibly partial) commutative semiring structure and a natural order:

* ``bool``     -- {False, True} with (or, False, and, True); the order is
  the usual False < True.
* ``prob``     -- reals in [0, 1] with (+, 0, *, 1), where a + b is only
  defined when a + b <= 1; the order is numeric <=.
* ``tropical`` -- naturals plus infinity with (min, inf, +, 0); the order
  is *reversed*: a smaller cost sits higher, 0 is the top and inf the
  bottom.

Values carry their kind and mixing kinds raises :class:`KindMismatch`.
Probabilities are binary floats, so all comparisons use the global
tolerance :data:`PROB_EPS`.  :data:`OPS` holds each kind's arithmetic on
bare payloads; the boxed :func:`add`, :func:`mul`, :func:`leq` and
:func:`gap` wrap it.
"""

from __future__ import annotations

import math
import operator
from enum import Enum
from itertools import repeat

from .errors import KindMismatch, UndefinedSum, ValidationError

#: Comparison tolerance for probability values (floats need a slack policy).
PROB_EPS = 1e-9

INF = math.inf


class Record:
    """Base of the package's immutable value classes.

    A subclass adds its fields to its base's in ``__slots__`` (a slot named
    ``_...`` is a cache, no field) and sets each slot once, in ``__init__``,
    with ``object.__setattr__``: a class built in bulk writes its own, the
    others take this one, which then runs their ``__post_init__`` check.
    Values of one class with equal fields are equal and hash equal.
    """

    __slots__ = ()
    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls) -> None:
        own = cls.__dict__.get("__slots__", ())
        cls._fields = fields = cls._fields + tuple(n for n in own if not n.startswith("_"))
        get = operator.attrgetter(*fields) if fields else type  # no fields: only the class
        cls.__eq__ = lambda self, other: (get(self) == get(other)
                                          if other.__class__ is self.__class__ else NotImplemented)
        cls.__hash__ = lambda self: hash(get(self))

    def __init__(self, *args, **kwargs) -> None:
        fields = self._fields
        if len(args) + len(kwargs) != len(fields) or not kwargs.keys() <= set(fields[len(args):]):
            raise TypeError(f"{self.__class__.__name__} takes the fields {', '.join(fields)}")
        for name, value in (*zip(fields, args), *kwargs.items()):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def __post_init__(self) -> None:
        """Check the fields once they are set; nothing to check by default."""

    def __setattr__(self, name: str, value=None) -> None:
        raise AttributeError(f"cannot assign to or delete field {name!r}")

    __delattr__ = __setattr__

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self._fields)


class SemiringKind(Enum):
    """The three supported truth-value carriers."""

    BOOL = "bool"
    PROB = "prob"
    TROPICAL = "tropical"
    __hash__ = object.__hash__  # in C: ``Enum``'s hash runs a Python frame per ``OPS[kind]``


class SemiringValue(Record):
    """A single truth value tagged with its carrier.

    Payloads are ``bool`` for BOOL, ``float`` in [0, 1] for PROB, and a
    nonnegative ``int`` or ``math.inf`` for TROPICAL.  Infinity is a
    distinguished value, never a large integer stand-in.
    """

    __slots__ = ("kind", "payload")

    def __init__(self, kind: SemiringKind, payload: bool | int | float) -> None:
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "payload", payload)
        self.__post_init__()

    def __post_init__(self) -> None:
        OPS[self.kind]  # a kind that is no ``SemiringKind`` raises ``KindMismatch``
        object.__setattr__(self, "payload", checked_payload(self.kind, self.payload))


def checked_payload(kind: SemiringKind, p: object) -> bool | int | float:
    """``p`` as a payload of ``kind``: a prob real is clamped into [0, 1] as a
    float (``-0.0`` to ``0.0``) and a whole tropical float becomes an int;
    anything else that is not a payload raises :class:`ValidationError`."""
    if kind is SemiringKind.BOOL:
        if not isinstance(p, bool):
            raise ValidationError(f"bool payload must be a bool, got {p!r}")
        return p
    if kind is SemiringKind.PROB:
        if isinstance(p, bool) or not isinstance(p, (int, float)):
            raise ValidationError(f"prob payload must be a real, got {p!r}")
        try:
            p = float(p)
        except OverflowError:  # an int beyond the float range
            raise ValidationError("prob payload is beyond the float range") from None
        if not math.isfinite(p):
            raise ValidationError(f"prob payload {p!r} is not a finite real")
        if p < -PROB_EPS or p > 1.0 + PROB_EPS:
            raise ValidationError(f"prob payload {p!r} outside [0, 1]")
        return min(max(0.0, p), 1.0)  # 0.0 first, so that -0.0 becomes 0.0
    if isinstance(p, float):
        if p == INF:
            return p
        if not p.is_integer():
            raise ValidationError(f"tropical payload {p!r} is not a natural or inf")
        p = int(p)
    if not isinstance(p, int) or isinstance(p, bool) or p < 0:
        raise ValidationError(f"tropical payload {p!r} is not a natural or inf")
    return p


def _prob_add(a: float, b: float) -> float:
    s = a + b
    if s > 1.0:
        if s > 1.0 + PROB_EPS:
            raise UndefinedSum(f"{a!r} + {b!r} exceeds 1")
        return 1.0
    return s


def tropical_mul(a: int | float, b: int | float) -> int | float:
    """The tropical ``mul``, ``a + b``, as ``INF`` where either cost is ``INF``:
    ``operator.add`` raises ``OverflowError`` on ``INF`` and an int beyond the
    float range, the one float a tropical payload can be."""
    return INF if a == INF or b == INF else a + b


def _tropical_gap(a: int | float, b: int | float) -> float:
    if a == b:
        return 0.0
    if a == INF or b == INF:
        return INF
    try:
        return float(abs(a - b))
    except OverflowError:
        return INF


class RawOps(Record):
    """The semiring of one kind on bare payloads, the form the engine iterates on.

    ``add`` raises :class:`UndefinedSum` where a prob sum exceeds 1 by more
    than :data:`PROB_EPS` and clamps it to 1 otherwise.  ``leq`` is the
    natural order (prob with :data:`PROB_EPS` slack, tropical numerically
    reversed).  ``gap`` is the convergence distance: the discrete 0/1 metric
    for bool, the absolute difference for prob, and for tropical the
    absolute difference with any finite-to-infinite jump reported as
    ``math.inf``, so truncated iteration never declares convergence across it,
    and so is a difference beyond the float range, as IEEE rounding gives it.
    """

    __slots__ = ("zero", "one", "add", "mul", "leq", "gap")


class _ByKind(dict):
    """A table keyed by :class:`SemiringKind`; any other key raises :class:`KindMismatch`."""

    def __missing__(self, kind: object):
        raise KindMismatch(f"{kind!r} is not a semiring kind")


OPS = _ByKind({
    SemiringKind.BOOL: RawOps(
        False, True, operator.or_, operator.and_, operator.le, lambda a, b: float(a != b)
    ),
    SemiringKind.PROB: RawOps(
        0.0, 1.0, _prob_add, operator.mul, lambda a, b: a <= b + PROB_EPS, lambda a, b: abs(a - b)
    ),
    SemiringKind.TROPICAL: RawOps(INF, 0, min, operator.add, operator.ge, _tropical_gap),
})


def prob_all_leq(news, olds) -> bool:
    """``all(map(OPS[PROB].leq, news, olds))``, mapped in C for the fixpoint checks."""
    return all(map(operator.le, news, map(operator.add, olds, repeat(PROB_EPS))))


def prob_max_gap(news, olds) -> float:
    """``max(map(OPS[PROB].gap, news, olds), default=0.0)``, mapped in C likewise."""
    return max(map(abs, map(operator.sub, news, olds)), default=0.0)


def zero(kind: SemiringKind) -> SemiringValue:
    """Additive unit: bottom of the natural order."""
    return SemiringValue(kind, OPS[kind].zero)


def one(kind: SemiringKind) -> SemiringValue:
    """Multiplicative unit: top of the natural order."""
    return SemiringValue(kind, OPS[kind].one)


def _same_kind(a: SemiringValue, b: SemiringValue) -> SemiringKind:
    if a.kind is not b.kind:
        raise KindMismatch(f"cannot combine {a.kind.value} with {b.kind.value}")
    return a.kind


def add(a: SemiringValue, b: SemiringValue) -> SemiringValue | None:
    """Semiring addition; returns ``None`` where the partial sum is undefined.

    Total for bool (or) and tropical (min).  For prob the sum is defined
    only when a + b <= 1 (up to :data:`PROB_EPS`, then clamped to 1).
    """
    kind = _same_kind(a, b)
    try:
        return SemiringValue(kind, OPS[kind].add(a.payload, b.payload))
    except UndefinedSum:
        return None


def mul(a: SemiringValue, b: SemiringValue) -> SemiringValue:
    """Semiring multiplication (total): and / * / cost addition."""
    kind = _same_kind(a, b)
    raw = tropical_mul if kind is SemiringKind.TROPICAL else OPS[kind].mul
    return SemiringValue(kind, raw(a.payload, b.payload))


def leq(a: SemiringValue, b: SemiringValue) -> bool:
    """Natural order of the semiring; see :class:`RawOps`."""
    return OPS[_same_kind(a, b)].leq(a.payload, b.payload)


def gap(a: SemiringValue, b: SemiringValue) -> float:
    """Convergence distance between two values of the same kind; see :class:`RawOps`."""
    return OPS[_same_kind(a, b)].gap(a.payload, b.payload)


def values_equal(a: SemiringValue, b: SemiringValue) -> bool:
    """Equality up to the prob tolerance; exact for bool and tropical."""
    kind = _same_kind(a, b)
    if kind is SemiringKind.PROB:
        return abs(a.payload - b.payload) <= PROB_EPS
    return a.payload == b.payload


# --- text / JSON encodings -------------------------------------------------

def to_text(v: SemiringValue) -> str:
    """Render a value: bool as 0/1, prob as a decimal, tropical as int or inf."""
    if v.kind is SemiringKind.BOOL:
        return "1" if v.payload else "0"
    if v.kind is SemiringKind.TROPICAL:
        return "inf" if v.payload == INF else str(v.payload)
    return repr(v.payload)


def from_text(kind: SemiringKind, text: str) -> SemiringValue:
    """Parse the textual form accepted on the command line."""
    text = text.strip()
    try:
        if kind is SemiringKind.BOOL:
            if text.lower() in ("1", "true", "top"):
                return SemiringValue(kind, True)
            if text.lower() in ("0", "false", "bot"):
                return SemiringValue(kind, False)
            raise ValidationError(f"not a boolean value: {text!r}")
        if kind is SemiringKind.TROPICAL:
            if text.lower() == "inf":
                return SemiringValue(kind, INF)
            return SemiringValue(kind, int(text))
        return SemiringValue(kind, float(text))
    except ValueError as exc:
        raise ValidationError(f"bad {kind.value} value {text!r}") from exc


def json_value(p: bool | int | float) -> bool | int | float | str:
    """A payload, or a number of a run's report, as JSON: infinity as the string "inf"."""
    return "inf" if p == INF else p


def to_json_value(v: SemiringValue) -> bool | int | float | str:
    """JSON payload: native bool/number, tropical infinity as the string "inf"."""
    return json_value(v.payload)


def json_payload(kind: SemiringKind, raw: object) -> bool | int | float:
    """The payload of a weight as a model file writes it: a JSON number, or
    for tropical the string "inf" (a number that JSON reads as infinite,
    ``1e400`` or ``Infinity``, is no tropical weight)."""
    if kind is SemiringKind.TROPICAL and raw == "inf":
        return INF
    if not isinstance(raw, (bool, int, float)) or kind is SemiringKind.TROPICAL and raw == INF:
        raise ValidationError(f"bad {kind.value} value {raw!r}")
    return checked_payload(kind, raw)
