"""Desk-scale self-checks of the algebra behind the behaviour values.

Behaviour values make sense only if the truth values form a (partial)
commutative semiring with a compatible order, and if the branching values
fit it: splitting a branching value over a disjoint union is partially
additive, and extension is unital and linear.
:func:`check_semiring_laws` checks the first on sampled triples of
values, :func:`check_monad_consistency` the second on exhaustively
enumerated small carriers.  Every report carries the first counterexample
of each failing check.
"""

from __future__ import annotations

import random
from collections.abc import Iterator
from itertools import product

from .branching import BranchVal, dirac
from .errors import plain_int
from .lifting import lift_extension
from .polyfunctor import value_key
from .relation import ValRel
from .semiring import (INF, Record, SemiringKind, SemiringValue, add, leq, mul, one,
                       values_equal, zero)


class LawCheck(Record):
    """Outcome of one algebraic law over the sampled triples."""

    __slots__ = ("name", "passed", "counterexample")

    def __init__(self, name: str, passed: bool, counterexample: str | None = None) -> None:
        object.__setattr__(self, "name", name)
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "counterexample", counterexample)


def _outcome(name: str, counterexample: str | None) -> LawCheck:
    return LawCheck(name, counterexample is None, counterexample)


def _check_lines(checks: tuple[LawCheck, ...]) -> list[str]:
    return [
        f"  PASS {c.name}" if c.passed else f"  FAIL {c.name}: {c.counterexample}"
        for c in checks
    ]


# --- semiring laws ---------------------------------------------------------


class LawReport(Record):
    """Result of :func:`check_semiring_laws` for one kind: ``(kind, samples, seed, checks)``."""

    __slots__ = ("kind", "samples", "seed", "checks")

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def format(self) -> str:
        header = f"semiring laws: kind={self.kind.value} samples={self.samples} seed={self.seed}"
        return "\n".join([header, *_check_lines(self.checks)])


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


def _same(a: SemiringValue | None, b: SemiringValue | None) -> bool:
    """Two partial sums agree: both undefined, or both defined and equal."""
    return (a is None) == (b is None) and (a is None or values_equal(a, b))


def _plus(a: SemiringValue | None, b: SemiringValue | None) -> SemiringValue | None:
    """The partial sum, undefined when either argument is."""
    return None if a is None or b is None else add(a, b)


# One row per law: its name, its statement, and whether it holds at a triple.
# ``0`` and ``1`` are the kind's zero and one (for tropical, inf and 0).
_LAWS = (
    ("add-unit", "0 + s = s", lambda s, t, u: _same(add(zero(s.kind), s), s)),
    ("add-commutative", "s + t = t + s", lambda s, t, u: _same(add(s, t), add(t, s))),
    ("add-associative", "(s + t) + u = s + (t + u)",
     lambda s, t, u: _same(_plus(add(s, t), u), _plus(s, add(t, u)))),
    ("add-inflationary", "s <= s + t where s + t is defined",
     lambda s, t, u: (st := add(s, t)) is None or leq(s, st)),
    ("mul-unit", "1 * s = s", lambda s, t, u: values_equal(mul(one(s.kind), s), s)),
    ("mul-commutative", "s * t = t * s", lambda s, t, u: values_equal(mul(s, t), mul(t, s))),
    ("mul-associative", "(s * t) * u = s * (t * u)",
     lambda s, t, u: values_equal(mul(mul(s, t), u), mul(s, mul(t, u)))),
    ("mul-annihilates", "s * 0 = 0",
     lambda s, t, u: values_equal(mul(s, zero(s.kind)), zero(s.kind))),
    ("distributivity-partial", "s * (t + u) = s * t + s * u where t + u is defined",
     lambda s, t, u: (tu := add(t, u)) is None or _same(add(mul(s, t), mul(s, u)), mul(s, tu))),
    ("order-reflexive", "s <= s", lambda s, t, u: leq(s, s)),
    ("order-transitive", "s <= t <= u implies s <= u",
     lambda s, t, u: not (leq(s, t) and leq(t, u)) or leq(s, u)),
    ("order-bounds", "0 <= s <= 1", lambda s, t, u: leq(zero(s.kind), s) and leq(s, one(s.kind))),
    ("mul-monotone", "s <= t implies s * u <= t * u and u * s <= u * t",
     lambda s, t, u: not leq(s, t) or (leq(mul(s, u), mul(t, u)) and leq(mul(u, s), mul(u, t)))),
)


def check_semiring_laws(kind: SemiringKind, samples: int = 10000, seed: int = 0) -> LawReport:
    """Check the (partial) commutative semiring and order laws on sampled triples.

    Bool is checked exhaustively regardless of ``samples``.  Prob samples
    uniformly on [0, 1]; tropical samples from {0..32, inf}.  The report
    carries the first counterexample found for each failing law.
    """
    if plain_int("samples", samples) < 1:
        raise ValueError("samples must be >= 1")
    failures: dict[str, str] = {}
    for s, t, u in _sample_triples(kind, samples, seed):
        for name, statement, holds in _LAWS:
            if name not in failures and not holds(s, t, u):
                failures[name] = (
                    f"{statement} fails at s={s.payload!r}, t={t.payload!r}, u={u.payload!r}"
                )
    checks = tuple(_outcome(name, failures.get(name)) for name, _, _ in _LAWS)
    return LawReport(kind=kind, samples=samples, seed=seed, checks=checks)


# --- monad consistency -----------------------------------------------------


class MonadReport(Record):
    """Exhaustive small-carrier check that branching and truth values agree.

    ``injective`` states that a branching value over a disjoint union is
    determined by its two restrictions (partial additivity);
    ``additive`` states that every pair of restrictions is realized, which
    fails for prob where the witness pair of masses exceeds 1.
    """

    __slots__ = ("kind", "size_bound", "injective", "additive", "partiality_witness", "checks")

    @property
    def passed(self) -> bool:
        return self.injective and all(c.passed for c in self.checks)

    def format(self) -> str:
        lines = [f"monad consistency: kind={self.kind.value} size_bound={self.size_bound}"]
        lines.append(f"  {'PASS' if self.injective else 'FAIL'} split-map-injective")
        if self.additive:
            lines.append("  INFO addition is total on the checked grid")
        else:
            w1, w2 = self.partiality_witness
            lines.append(
                f"  INFO addition is partial; no joint value for masses "
                f"{w1.total_mass()!r} and {w2.total_mass()!r}"
            )
        return "\n".join(lines + _check_lines(self.checks))


def _weight_grid(kind: SemiringKind) -> tuple[SemiringValue, ...]:
    if kind is SemiringKind.BOOL:
        return (SemiringValue(kind, False), SemiringValue(kind, True))
    if kind is SemiringKind.PROB:
        return tuple(SemiringValue(kind, w) for w in (0.0, 0.25, 0.5, 0.75, 1.0))
    return tuple(SemiringValue(kind, w) for w in (INF, 0, 1, 2))


def _grid_branchvals(kind: SemiringKind, carrier: list[str]) -> list[BranchVal]:
    seen: dict[str, BranchVal] = {}
    for combo in product(_weight_grid(kind), repeat=len(carrier)):
        bv = BranchVal(kind, tuple(zip(carrier, combo)))
        if kind is not SemiringKind.PROB or bv.total_mass() <= 1.0:
            seen.setdefault(bv.key(), bv)
    return list(seen.values())


def _restrict(bv: BranchVal, carrier: set[str]) -> BranchVal:
    return BranchVal(bv.kind, tuple((i, w) for i, w in bv.entries if i in carrier))


def _mix(kind: SemiringKind, weighted: list[tuple[SemiringValue, BranchVal]]) -> BranchVal:
    """Flatten a weighted family of branching values into one (monad bind)."""
    acc: dict[str, tuple[object, SemiringValue]] = {}
    for outer, bv in weighted:
        for item, inner in bv.entries:
            contrib = mul(outer, inner)
            k = value_key(item)
            if k in acc:
                merged = add(acc[k][1], contrib)
                assert merged is not None
                acc[k] = (item, merged)
            else:
                acc[k] = (item, contrib)
    return BranchVal(kind, tuple(acc.values()))


def _induced_add(kind: SemiringKind, grid) -> str | None:
    """Induced addition on single points agrees with the semiring addition.

    A two-point value over a disjoint union exists iff the sum is defined,
    and collapsing the two points onto one yields exactly that sum.
    """
    for a, b in product(grid, repeat=2):
        summed = add(a, b)
        joint = BranchVal(kind, (("p", a), ("q", b)))
        realizable = kind is not SemiringKind.PROB or joint.total_mass() <= 1.0
        if realizable != (summed is not None):
            return f"definedness of {a.payload!r} + {b.payload!r} disagrees"
        if summed is not None:
            collapsed = _mix(kind, [(a, dirac(kind, "r")), (b, dirac(kind, "r"))])
            got = collapsed.entries[0][1] if collapsed.entries else zero(kind)
            if not values_equal(got, summed):
                return (
                    f"collapsed weight of ({a.payload!r}, {b.payload!r}) is "
                    f"{got.payload!r}, expected {summed.payload!r}"
                )
    return None


def _relations(
    kind: SemiringKind, grid, rows, cols, samples: int | None = None
) -> Iterator[ValRel]:
    """The relations from ``rows`` to ``cols`` with entries on ``grid``, in product order.

    With ``samples``, only every ``len // samples``-th of them.
    """
    combos = list(product(grid, repeat=len(rows) * len(cols)))
    for combo in combos[:: max(1, len(combos) // samples) if samples else 1]:
        it = iter(combo)
        yield ValRel(kind, rows, cols, [[next(it) for _ in cols] for _ in rows])


def _extension_unit(kind: SemiringKind, grid, rows, cols) -> str | None:
    """Extending along a one-point unit-weight support is a no-op."""
    diracs = [dirac(kind, x) for x in rows]
    for rel in _relations(kind, grid, rows, cols):
        lifted = lift_extension(rel, diracs)
        for x, d in zip(rows, diracs):
            for y in cols:
                if lifted.get(d.key(), y) != rel.get(x, y):
                    return f"unit extension changed the value at ({x!r}, {y!r})"
    return None


def _extension_linear(kind: SemiringKind, grid, rows, cols) -> str | None:
    """The extension of a weighted mixture is the weighted sum of the extensions."""
    inner = _grid_branchvals(kind, rows)
    cases = [
        (t1, t2, wa, wb, _mix(kind, [(wa, t1), (wb, t2)]))
        for t1, t2 in product(inner, repeat=2)
        for wa, wb in product(grid, repeat=2)
        if kind is not SemiringKind.PROB or wa.payload + wb.payload <= 1.0
    ]
    mixtures = list({mixed.key(): mixed for *_, mixed in cases}.values())
    for rel in _relations(kind, grid, rows, cols, samples=8):
        parts = lift_extension(rel, inner)
        lifted = lift_extension(rel, mixtures)
        for t1, t2, wa, wb, mixed in cases:
            for y in cols:
                lhs = lifted.get(mixed.key(), y)
                rhs = add(mul(wa, parts.get(t1.key(), y)), mul(wb, parts.get(t2.key(), y)))
                if rhs is None or not values_equal(lhs, rhs):
                    return f"linearity fails for weights ({wa.payload!r}, {wb.payload!r})"
    return None


def check_monad_consistency(kind: SemiringKind, size_bound: int = 2) -> MonadReport:
    """Verify, on exhaustively enumerated small instances, that the branching
    representation and the truth-value semiring fit together.

    Checks: the split map from values over a disjoint union to pairs of
    restrictions is injective; its partiality matches the partiality of
    the semiring addition; extending a relation along a one-point support
    with unit weight changes nothing; and extension is linear in weighted
    mixtures of branching values.
    """
    if not 1 <= plain_int("size_bound", size_bound) <= 4:
        raise ValueError("size_bound must be between 1 and 4")
    xs = [f"x{i}" for i in range(size_bound)]
    ys = [f"y{i}" for i in range(size_bound)]

    image: dict[tuple[str, str], list[BranchVal]] = {}
    xset, yset = set(xs), set(ys)
    for w in _grid_branchvals(kind, xs + ys):
        pair_key = (_restrict(w, xset).key(), _restrict(w, yset).key())
        image.setdefault(pair_key, []).append(w)
    injective = all(len(v) == 1 for v in image.values())

    pairs = product(_grid_branchvals(kind, xs), _grid_branchvals(kind, ys))
    witness = next(((lv, rv) for lv, rv in pairs if (lv.key(), rv.key()) not in image), None)

    grid = _weight_grid(kind)
    rows, cols = xs[:2], ys[:1]
    checks = (
        _outcome("induced-add-agrees", _induced_add(kind, grid)),
        _outcome("extension-unit", _extension_unit(kind, grid, rows, cols)),
        _outcome("extension-linear", _extension_linear(kind, grid, rows, cols)),
    )
    return MonadReport(
        kind=kind,
        size_bound=size_bound,
        injective=injective,
        additive=witness is None,
        partiality_witness=witness,
        checks=checks,
    )
