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
tolerance :data:`PROB_EPS`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from enum import Enum
from itertools import product

from .errors import KindMismatch, ValidationError

#: Comparison tolerance for probability values (floats need a slack policy).
PROB_EPS = 1e-9

INF = math.inf


class SemiringKind(Enum):
    """The three supported truth-value carriers."""

    BOOL = "bool"
    PROB = "prob"
    TROPICAL = "tropical"


@dataclass(frozen=True, slots=True)
class SemiringValue:
    """A single truth value tagged with its carrier.

    Payloads are ``bool`` for BOOL, ``float`` in [0, 1] for PROB, and a
    nonnegative ``int`` or ``math.inf`` for TROPICAL.  Infinity is a
    distinguished value, never a large integer stand-in.
    """

    kind: SemiringKind
    payload: bool | int | float

    def __post_init__(self) -> None:
        p = self.payload
        if self.kind is SemiringKind.BOOL:
            if not isinstance(p, bool):
                raise ValidationError(f"bool payload must be a bool, got {p!r}")
        elif self.kind is SemiringKind.PROB:
            if isinstance(p, bool) or not isinstance(p, (int, float)):
                raise ValidationError(f"prob payload must be a real, got {p!r}")
            p = float(p)
            if not math.isfinite(p):
                raise ValidationError(f"prob payload {p!r} is not a finite real")
            if p < -PROB_EPS or p > 1.0 + PROB_EPS:
                raise ValidationError(f"prob payload {p!r} outside [0, 1]")
            object.__setattr__(self, "payload", min(max(p, 0.0), 1.0))
        else:
            if isinstance(p, float) and not isinstance(p, bool):
                if p == INF:
                    return
                if p.is_integer():
                    p = int(p)
                else:
                    raise ValidationError(f"tropical payload {p!r} is not a natural or inf")
            if not isinstance(p, int) or isinstance(p, bool) or p < 0:
                raise ValidationError(f"tropical payload {p!r} is not a natural or inf")
            object.__setattr__(self, "payload", p)


def zero(kind: SemiringKind) -> SemiringValue:
    """Additive unit: bottom of the natural order."""
    if kind is SemiringKind.BOOL:
        return SemiringValue(kind, False)
    if kind is SemiringKind.PROB:
        return SemiringValue(kind, 0.0)
    return SemiringValue(kind, INF)


def one(kind: SemiringKind) -> SemiringValue:
    """Multiplicative unit: top of the natural order."""
    if kind is SemiringKind.BOOL:
        return SemiringValue(kind, True)
    if kind is SemiringKind.PROB:
        return SemiringValue(kind, 1.0)
    return SemiringValue(kind, 0)


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
    if kind is SemiringKind.BOOL:
        return SemiringValue(kind, a.payload or b.payload)
    if kind is SemiringKind.TROPICAL:
        return SemiringValue(kind, min(a.payload, b.payload))
    s = a.payload + b.payload
    if s > 1.0 + PROB_EPS:
        return None
    return SemiringValue(kind, min(s, 1.0))


def mul(a: SemiringValue, b: SemiringValue) -> SemiringValue:
    """Semiring multiplication (total): and / * / cost addition."""
    kind = _same_kind(a, b)
    if kind is SemiringKind.BOOL:
        return SemiringValue(kind, a.payload and b.payload)
    if kind is SemiringKind.TROPICAL:
        return SemiringValue(kind, a.payload + b.payload)
    return SemiringValue(kind, a.payload * b.payload)


def leq(a: SemiringValue, b: SemiringValue) -> bool:
    """Natural order of the semiring; note tropical is numerically reversed.

    Prob comparisons allow :data:`PROB_EPS` slack so float rounding cannot
    flip an equality into a strict violation.
    """
    kind = _same_kind(a, b)
    if kind is SemiringKind.BOOL:
        return (not a.payload) or b.payload
    if kind is SemiringKind.TROPICAL:
        return a.payload >= b.payload
    return a.payload <= b.payload + PROB_EPS


def gap(a: SemiringValue, b: SemiringValue) -> float:
    """Convergence distance between two values of the same kind.

    Bool is the discrete 0/1 metric; prob is absolute difference; tropical
    is absolute difference with any finite-to-infinite jump reported as
    ``math.inf`` so truncated iteration never declares convergence across it.
    """
    kind = _same_kind(a, b)
    if a.payload == b.payload:
        return 0.0
    if kind is SemiringKind.BOOL:
        return 1.0
    if kind is SemiringKind.TROPICAL:
        if a.payload == INF or b.payload == INF:
            return INF
        return float(abs(a.payload - b.payload))
    return abs(a.payload - b.payload)


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


def to_json_value(v: SemiringValue) -> bool | int | float | str:
    """JSON payload: native bool/number, tropical infinity as the string "inf"."""
    if v.kind is SemiringKind.TROPICAL and v.payload == INF:
        return "inf"
    return v.payload


def from_json_value(kind: SemiringKind, raw: object) -> SemiringValue:
    if kind is SemiringKind.TROPICAL and raw == "inf":
        return SemiringValue(kind, INF)
    if isinstance(raw, str):
        return from_text(kind, raw)
    if not isinstance(raw, (bool, int, float)):
        raise ValidationError(f"bad {kind.value} value {raw!r}")
    return SemiringValue(kind, raw)


# --- law checking ----------------------------------------------------------

@dataclass(frozen=True, slots=True)
class LawCheck:
    """Outcome of one algebraic law over the sampled triples."""

    name: str
    passed: bool
    counterexample: str | None = None


@dataclass(frozen=True, slots=True)
class LawReport:
    """Result of :func:`check_semiring_laws` for one kind."""

    kind: SemiringKind
    samples: int
    seed: int
    checks: tuple[LawCheck, ...]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"semiring laws: kind={self.kind.value} samples={self.samples} seed={self.seed}"]
        for c in self.checks:
            if c.passed:
                lines.append(f"  PASS {c.name}")
            else:
                lines.append(f"  FAIL {c.name}: {c.counterexample}")
        return "\n".join(lines)


_TROPICAL_SAMPLE_GRID = tuple(range(33)) + (INF,)


def _sample_triples(kind: SemiringKind, samples: int, seed: int):
    if kind is SemiringKind.BOOL:
        vals = (SemiringValue(kind, False), SemiringValue(kind, True))
        yield from product(vals, repeat=3)
        return
    rng = random.Random(seed)
    for _ in range(samples):
        if kind is SemiringKind.PROB:
            yield tuple(SemiringValue(kind, rng.random()) for _ in range(3))
        else:
            yield tuple(SemiringValue(kind, rng.choice(_TROPICAL_SAMPLE_GRID)) for _ in range(3))


def _law_add_unit(s, t, u):
    r = add(zero(s.kind), s)
    if r is None or not values_equal(r, s):
        return f"add(0, {s.payload!r}) != {s.payload!r}"
    return None


def _law_add_commutative(s, t, u):
    ab, ba = add(s, t), add(t, s)
    if (ab is None) != (ba is None):
        return f"definedness of add({s.payload!r}, {t.payload!r}) is not symmetric"
    if ab is not None and not values_equal(ab, ba):
        return f"add({s.payload!r}, {t.payload!r}) != add({t.payload!r}, {s.payload!r})"
    return None


def _law_add_associative(s, t, u):
    st = add(s, t)
    left = add(st, u) if st is not None else None
    tu = add(t, u)
    right = add(s, tu) if tu is not None else None
    if (left is None) != (right is None):
        return f"definedness of ({s.payload!r}+{t.payload!r})+{u.payload!r} differs between groupings"
    if left is not None and not values_equal(left, right):
        return f"({s.payload!r}+{t.payload!r})+{u.payload!r} != {s.payload!r}+({t.payload!r}+{u.payload!r})"
    return None


def _law_mul_unit(s, t, u):
    if not values_equal(mul(one(s.kind), s), s):
        return f"mul(1, {s.payload!r}) != {s.payload!r}"
    return None


def _law_mul_commutative(s, t, u):
    if not values_equal(mul(s, t), mul(t, s)):
        return f"mul({s.payload!r}, {t.payload!r}) not commutative"
    return None


def _law_mul_associative(s, t, u):
    if not values_equal(mul(mul(s, t), u), mul(s, mul(t, u))):
        return f"mul not associative on ({s.payload!r}, {t.payload!r}, {u.payload!r})"
    return None


def _law_mul_annihilates(s, t, u):
    if not values_equal(mul(s, zero(s.kind)), zero(s.kind)):
        return f"mul({s.payload!r}, 0) != 0"
    return None


def _law_distributivity(s, t, u):
    tu = add(t, u)
    if tu is None:
        return None
    lhs = add(mul(s, t), mul(s, u))
    if lhs is None:
        return f"add({t.payload!r}, {u.payload!r}) defined but the sum of products is not (s={s.payload!r})"
    if not values_equal(lhs, mul(s, tu)):
        return f"s*(t+u) != s*t+s*u for s={s.payload!r}, t={t.payload!r}, u={u.payload!r}"
    return None


def _law_order_reflexive(s, t, u):
    if not leq(s, s):
        return f"leq({s.payload!r}, {s.payload!r}) is false"
    return None


def _law_order_transitive(s, t, u):
    if leq(s, t) and leq(t, u) and not leq(s, u):
        return f"transitivity fails on ({s.payload!r}, {t.payload!r}, {u.payload!r})"
    return None


def _law_order_bounds(s, t, u):
    if not leq(zero(s.kind), s):
        return f"0 is not below {s.payload!r}"
    if not leq(s, one(s.kind)):
        return f"{s.payload!r} is not below 1"
    return None


def _law_add_inflationary(s, t, u):
    st = add(s, t)
    if st is not None and not leq(s, st):
        return f"s not below s+t for s={s.payload!r}, t={t.payload!r}"
    return None


def _law_mul_monotone(s, t, u):
    if leq(s, t):
        if not leq(mul(s, u), mul(t, u)) or not leq(mul(u, s), mul(u, t)):
            return f"mul not monotone on ({s.payload!r}, {t.payload!r}) with {u.payload!r}"
    return None


_LAWS = (
    ("add-unit", _law_add_unit),
    ("add-commutative", _law_add_commutative),
    ("add-associative", _law_add_associative),
    ("add-inflationary", _law_add_inflationary),
    ("mul-unit", _law_mul_unit),
    ("mul-commutative", _law_mul_commutative),
    ("mul-associative", _law_mul_associative),
    ("mul-annihilates", _law_mul_annihilates),
    ("distributivity-partial", _law_distributivity),
    ("order-reflexive", _law_order_reflexive),
    ("order-transitive", _law_order_transitive),
    ("order-bounds", _law_order_bounds),
    ("mul-monotone", _law_mul_monotone),
)


def check_semiring_laws(kind: SemiringKind, samples: int = 10000, seed: int = 0) -> LawReport:
    """Check the (partial) commutative semiring and order laws on sampled triples.

    Bool is checked exhaustively regardless of ``samples``.  Prob samples
    uniformly on [0, 1]; tropical samples from {0..32, inf}.  The report
    carries the first counterexample found for each failing law.
    """
    if samples < 1:
        raise ValueError("samples must be >= 1")
    failures: dict[str, str] = {}
    for s, t, u in _sample_triples(kind, samples, seed):
        for name, law in _LAWS:
            if name in failures:
                continue
            msg = law(s, t, u)
            if msg is not None:
                failures[name] = msg
    checks = tuple(
        LawCheck(name, name not in failures, failures.get(name)) for name, _ in _LAWS
    )
    return LawReport(kind=kind, samples=samples, seed=seed, checks=checks)
