"""Finite-support branching values.

One representation covers all three branching disciplines: a branching
value is a finite weight function from inner values (carrier keys, terms,
or deeper branching values) to truth values of the declared kind.  A set
of successors is the bool-weighted special case; the empty support is the
zero branching value (deadlock).

Values are canonical on construction: zero weights are dropped and entries
are sorted by the canonical key of the inner value, which fixes all fold
orders downstream.  :func:`canonical`, :func:`within_mass` and
:func:`branch_key` state these rules once, for :class:`BranchVal` and for
the model decoder, which applies them to keys and bare payloads.
"""

from __future__ import annotations

from .errors import KindMismatch, TransitionTypeError, ValidationError
from .polyfunctor import Value, embed_key, value_key
from .semiring import OPS, PROB_EPS, SemiringKind, SemiringValue, one


def canonical(kind: SemiringKind, keys, items, payloads) -> tuple[list, list, list]:
    """The support of a branching value: the keys, items and payloads of the
    entries whose payload is not zero, in key order.  A repeated key
    collapses for bool (a set of successors) and is an error otherwise."""
    zero = OPS[kind].zero
    keyed: dict[str, tuple] = {}
    for k, item, w in zip(keys, items, payloads):
        if w == zero:
            continue
        if k in keyed:
            if kind is SemiringKind.BOOL:
                continue
            raise ValidationError(f"duplicate entry {k!r} in branching value")
        keyed[k] = item, w
    support = sorted(keyed)
    return support, [keyed[k][0] for k in support], [keyed[k][1] for k in support]


def within_mass(kind: SemiringKind, payloads) -> bool:
    """The carrier constraint on the weights, in support order: a prob
    value's mass is at most 1, up to :data:`PROB_EPS`."""
    return kind is not SemiringKind.PROB or sum(payloads) <= 1.0 + PROB_EPS


def branch_key(kind: SemiringKind, names, payloads) -> str:
    """The canonical key of a branching value, from its support's keys as a
    key embeds them (:func:`~ltbe.polyfunctor.embed_key`)."""
    if kind is SemiringKind.BOOL:
        return "{" + "|".join(names) + "}"
    return "{" + "|".join(f"{k}:{w!r}" for k, w in zip(names, payloads)) + "}"


class BranchVal(Value):
    """A finite-support weight function representing one branching step.

    The support keys are kept on construction, and the canonical key is
    rendered on first use, in slots that take no part in equality,
    hashing or repr.
    """

    __slots__ = ("kind", "entries", "_support_keys", "_key")

    def __init__(self, kind: SemiringKind,
                 entries: tuple[tuple[object, SemiringValue], ...]) -> None:
        OPS[kind]  # a kind that is no ``SemiringKind`` raises ``KindMismatch``
        if not hasattr(entries, "__iter__"):
            raise TransitionTypeError(f"{entries!r} is not an iterable of entries")
        entries = tuple(entries)  # read once: a generator gives each pass every entry
        for entry in entries:
            if not (type(entry) is tuple and len(entry) == 2
                    and isinstance(weight := entry[1], SemiringValue)):
                raise TransitionTypeError(f"{entry!r} is not an (item, weight) pair")
            if weight.kind is not kind:
                raise KindMismatch(
                    f"{weight.kind.value} weight inside a {kind.value} branching value"
                )
        support, entries, _ = canonical(kind, [value_key(item) for item, _ in entries], entries,
                                        [w.payload for _, w in entries])
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "entries", tuple(entries))
        object.__setattr__(self, "_support_keys", tuple(support))
        object.__setattr__(self, "_key", None)

    def key(self) -> str:
        if self._key is None:
            names = [embed_key(item) for item, _ in self.entries]
            key = branch_key(self.kind, names, [w.payload for _, w in self.entries])
            object.__setattr__(self, "_key", key)
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
    return within_mass(v.kind, [w.payload for _, w in v.entries])
