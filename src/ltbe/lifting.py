"""Relation transformers: the four ways to push a relation through one layer.

Given a relation R between carriers X and Y:

* :func:`lift_poly` pushes R through a polynomial layer on both sides,
  by structural recursion on the expression (identity reads R, constants
  become the equality relation, products multiply the component values,
  mismatched coproduct injections go to bottom).
* :func:`lift_extension` abstracts branching on the left only:
  ``(t, y) -> sum over x in support(t) of t(x) * R(x, y)``.
  This instantiates to "some successor is related" (bool), expected
  relatedness (prob) and cheapest successor cost (tropical).
* :func:`lift_double_extension` abstracts branching on both sides:
  ``(t, u) -> sum over (x, y) of t(x) * u(y) * R(x, y)``.
* :func:`lift_egli_milner` is the two-sided forall-exists lifting of a
  boolean relation to successor sets, the branching step of bisimulation.

Every lifting is materialized only on the values that occur in the models
at hand, supplied explicitly as carrier lists: the terms of a polynomial
layer and the branching values of a branching layer.  The number of all
terms is a polynomial in the carrier size, and the space of branching
values is unbounded.
"""

from __future__ import annotations

from typing import Sequence

from .branching import BranchVal
from .errors import KindMismatch, UndefinedSum
from .polyfunctor import (
    Const,
    Coprod,
    Id,
    PolyExpr,
    PolyTerm,
    Power,
    Prod,
    value_key,
)
from .relation import ValRel
from .semiring import SemiringKind, SemiringValue, add, mul, one, zero


def lift_poly(
    expr: PolyExpr,
    rel: ValRel,
    row_terms: Sequence[PolyTerm],
    col_terms: Sequence[PolyTerm],
) -> ValRel:
    """Push a relation through a polynomial layer on both carriers.

    The new rows and columns are the supplied terms of ``expr``; an
    identity position reads ``rel`` at the keys of the two targets.
    """
    kind = rel.kind
    top_value = one(kind)
    bot_value = zero(kind)

    def ev(e: PolyExpr, u, v) -> SemiringValue:
        if isinstance(e, Id):
            return rel.get(value_key(u.target), value_key(v.target))
        if isinstance(e, Const):
            return top_value if u.label == v.label else bot_value
        if isinstance(e, Prod):
            return mul(ev(e.left, u.fst, v.fst), ev(e.right, u.snd, v.snd))
        if isinstance(e, Coprod):
            if u.index != v.index:
                return bot_value
            return ev(e.branches[u.index], u.arg, v.arg)
        assert isinstance(e, Power)
        acc = top_value
        for cu, cv in zip(u.components, v.components):
            acc = mul(acc, ev(e.body, cu, cv))
        return acc

    grid = [[ev(expr, u, v) for v in col_terms] for u in row_terms]
    return ValRel(
        kind,
        tuple(t.key() for t in row_terms),
        tuple(t.key() for t in col_terms),
        grid,
    )


def _check_branch_kinds(kind: SemiringKind, values: Sequence[BranchVal]) -> None:
    for bv in values:
        if bv.kind is not kind:
            raise KindMismatch(
                f"{bv.kind.value} branching value used with a {kind.value} relation"
            )


def lift_extension(rel: ValRel, left_values: Sequence[BranchVal]) -> ValRel:
    """Abstract branching on the left carrier.

    The new rows are the supplied branching values; an empty support gives
    the bottom value.  Folds run in canonical support order, so results are
    reproducible bit for bit.
    """
    kind = rel.kind
    _check_branch_kinds(kind, left_values)
    bot_value = zero(kind)

    def extend(bv: BranchVal, y) -> SemiringValue:
        acc = bot_value
        for item, weight in bv.entries:
            term = mul(weight, rel.get(value_key(item), y))
            nxt = add(acc, term)
            if nxt is None:
                raise UndefinedSum(
                    f"partial sum undefined while extending over {bv.key()!r}"
                )
            acc = nxt
        return acc

    grid = [[extend(bv, y) for y in rel.cols] for bv in left_values]
    return ValRel(kind, tuple(bv.key() for bv in left_values), rel.cols, grid)


def lift_double_extension(
    rel: ValRel, left_values: Sequence[BranchVal], right_values: Sequence[BranchVal]
) -> ValRel:
    """Abstract branching on both carriers at once.

    Equivalent to extending on the left and then on the right; computed
    directly as a double fold over both supports.
    """
    kind = rel.kind
    _check_branch_kinds(kind, left_values)
    _check_branch_kinds(kind, right_values)
    bot_value = zero(kind)

    def extend(t: BranchVal, u: BranchVal) -> SemiringValue:
        acc = bot_value
        for x_item, x_weight in t.entries:
            xk = value_key(x_item)
            for y_item, y_weight in u.entries:
                term = mul(mul(x_weight, y_weight), rel.get(xk, value_key(y_item)))
                nxt = add(acc, term)
                if nxt is None:
                    raise UndefinedSum(
                        f"partial sum undefined while extending over {t.key()!r} x {u.key()!r}"
                    )
                acc = nxt
        return acc

    grid = [[extend(t, u) for u in right_values] for t in left_values]
    return ValRel(
        kind,
        tuple(t.key() for t in left_values),
        tuple(u.key() for u in right_values),
        grid,
    )


def lift_egli_milner(
    rel: ValRel, left_values: Sequence[BranchVal], right_values: Sequence[BranchVal]
) -> ValRel:
    """Boolean forall-exists lifting in both directions.

    Two successor sets are related iff every element of each has a related
    partner in the other.  Only defined for the boolean kind.
    """
    kind = rel.kind
    if kind is not SemiringKind.BOOL:
        raise KindMismatch("the forall-exists lifting is only defined for bool relations")
    _check_branch_kinds(kind, left_values)
    _check_branch_kinds(kind, right_values)

    def related(x: str, y: str) -> bool:
        return bool(rel.get(x, y).payload)

    def match(t: BranchVal, u: BranchVal) -> SemiringValue:
        xs = t.support_keys()
        ys = u.support_keys()
        forward = all(any(related(x, y) for y in ys) for x in xs)
        backward = all(any(related(x, y) for x in xs) for y in ys)
        return SemiringValue(kind, forward and backward)

    grid = [[match(t, u) for u in right_values] for t in left_values]
    return ValRel(
        kind,
        tuple(t.key() for t in left_values),
        tuple(u.key() for u in right_values),
        grid,
    )
