"""Finite-support branching values.

One representation covers all three branching disciplines: a branching
value is a finite weight function from inner values (carrier keys, terms,
or deeper branching values) to truth values of the declared kind.  A set
of successors is the bool-weighted special case; the empty support is the
zero branching value (deadlock).

Values are canonical on construction: zero weights are dropped and entries
are sorted by the canonical key of the inner value, which fixes all fold
orders downstream.
"""

from __future__ import annotations

from .errors import KindMismatch, ValidationError
from .polyfunctor import name_key, value_key
from .semiring import OPS, PROB_EPS, Record, SemiringKind, SemiringValue, one


class BranchVal(Record):
    """A finite-support weight function representing one branching step.

    The support keys are kept on construction, and the canonical key is
    rendered on first use, in slots that take no part in equality,
    hashing or repr.
    """

    __slots__ = ("kind", "entries", "_support_keys", "_key")

    def __init__(self, kind: SemiringKind,
                 entries: tuple[tuple[object, SemiringValue], ...]) -> None:
        z = OPS[kind].zero
        keyed: dict[str, tuple[object, SemiringValue]] = {}
        for item, weight in entries:
            if weight.kind is not kind:
                raise KindMismatch(
                    f"{weight.kind.value} weight inside a {kind.value} branching value"
                )
            if weight.payload == z:
                continue
            k = value_key(item)
            if k in keyed:
                if kind is SemiringKind.BOOL:
                    continue  # set semantics: repeated successors collapse
                raise ValidationError(f"duplicate entry {k!r} in branching value")
            keyed[k] = (item, weight)
        support = tuple(sorted(keyed))
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", tuple(keyed[k] for k in support))
        object.__setattr__(self, "_support_keys", support)
        object.__setattr__(self, "_key", None)

    def key(self) -> str:
        if self._key is None:
            keys = [name_key(k) if isinstance(item, str) else k
                    for k, (item, _) in zip(self._support_keys, self.entries)]
            if self.kind is SemiringKind.BOOL:
                inner = "|".join(keys)
            else:
                inner = "|".join(f"{k}:{w.payload!r}" for k, (_, w) in zip(keys, self.entries))
            object.__setattr__(self, "_key", "{" + inner + "}")
        return self._key

    @property
    def is_empty(self) -> bool:
        return not self.entries

    def support_keys(self) -> tuple[str, ...]:
        return self._support_keys

    def total_mass(self) -> float:
        """Sum of weights; only meaningful for prob values."""
        return sum(w.payload for _, w in self.entries)


def dirac(kind: SemiringKind, item: object) -> BranchVal:
    """The single-successor branching value with the unit weight."""
    return BranchVal(kind, ((item, one(kind)),))


def validate_branchval(v: BranchVal) -> bool:
    """Check the carrier constraints of a branching value.

    Construction already enforces canonical support, so the remaining
    constraint is the sub-probability mass bound.
    """
    if v.kind is SemiringKind.PROB:
        return v.total_mass() <= 1.0 + PROB_EPS
    return True
