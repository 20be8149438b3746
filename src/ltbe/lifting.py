"""Relation transformers: the ways to push a relation through one layer.

Given a relation R between carriers X and Y:

* :func:`lift_poly` pushes R through a polynomial layer on both sides,
  by structural recursion on the expression (identity reads R, constants
  become the equality relation, products multiply the component values,
  mismatched coproduct injections go to bottom).
* :func:`lift_double_extension` abstracts branching on both sides:
  ``(t, u) -> sum over (x, y) of t(x) * u(y) * R(x, y)``.
* :func:`lift_extension` abstracts branching on the left only:
  ``(t, y) -> sum over x in support(t) of t(x) * R(x, y)``, the double
  extension against the unit on each column ``y``, as a specification
  branches.  This instantiates to "some successor is related" (bool),
  expected relatedness (prob) and cheapest successor cost (tropical).
* :func:`lift_egli_milner` is the two-sided forall-exists lifting of a
  boolean relation to successor sets, the branching step of bisimulation,
  computed directly over the two supports; ``bisimilarity`` refines
  partitions instead, in as many rounds as the chain of this lifting.

Every lifting is materialized only on the values that occur in the models
at hand, supplied explicitly as carrier lists: the terms of a polynomial
layer and the branching values of a branching layer.

The engine's liftings have one implementation each, in stages.
``resolve_term`` and ``resolve_branch`` turn a value into integer
positions in the carrier below it; a model's decoder makes the same rows
straight from its file (``System.resolved``), and :func:`unit_columns`
gives the unit branching already resolved.  ``compile_poly`` and
``compile_double_extension`` take the resolved values and the two source
carrier sizes, and turn every cell of the lifted matrix into cells of
:mod:`ltbe.relation`.  A polynomial cell is a single read, ``ZERO`` or
``ONE``, or a product: a flat tuple of factors in the order it multiplies
them.  A branching layer compiles straight into the columns of a layer of
folds (``Folds``): per cell its weights, its positions and the keys of its
branching values; a bool fold carries no weights, as its kernel reads
positions only.  Against a specification's unit columns, a cell is
compiled from the left support alone, each point at its own weight.  The
public ``lift_*`` functions resolve their arguments against the relation's
carriers, compile, evaluate every cell in order and box the result; the
engine passes ``source`` to compile a layer that reads through a layer of
single reads below it.  A read through that layer can land on ``ZERO``,
where two terms' shapes differ; the double extension leaves such a pair
out of its fold, since a zero term changes no sum.
"""

from __future__ import annotations

from collections.abc import Sequence
from contextlib import suppress
from itertools import repeat

from .branching import BranchVal
from .errors import CarrierMismatch, KindMismatch, TransitionTypeError
from .polyfunctor import (Atom, Const, Coprod, Id, Inj, Pair, PolyExpr, PolyTerm, Power, Prod,
                          StateRef, TupleTerm, expr_to_text, value_key)
from .relation import ONE, ZERO, Folds, Index, ValRel, kernel
from .semiring import OPS, SemiringKind

#: A compiled polynomial cell that is the unit, whatever the relation.
TOP = "top"


def times(*cells):
    """The compiled product of ``cells``, flat on the left, so ``(a, b, c)``
    multiplies as ``(a * b) * c``; a unit factor folds away exactly.  A power
    passes all its components at once, so a wide one is built in linear time."""
    a, *more = [c for c in cells if c is not TOP] or [TOP]
    return (*a, *more) if type(a) is tuple else (a, *more) if more else a


def resolve_term(expr: PolyExpr, term: PolyTerm, index: Index) -> tuple:
    """A term of ``expr`` as ``(shape, tree, leaves)`` over the carrier below.

    The shape is the term's sequence of injection indices and labels.  The
    tree is ``TOP``, a leaf, or the product of its identity positions as a
    flat tuple of factors in the order the expression multiplies them, a
    factor being a leaf or a product nested on the right; leaf ``i`` stands
    for the position ``leaves[i]`` of that identity's target in ``index``.
    A node that does not fit its expression raises
    :class:`TransitionTypeError`; ``index`` is an :class:`~ltbe.relation.Index`,
    so a target not in it raises :class:`CarrierMismatch`.
    """
    shape, leaves = [], []

    def walk(e: PolyExpr, t):
        if isinstance(e, Id) and isinstance(t, StateRef):
            with suppress(TransitionTypeError):  # a target that is no value is no term
                leaves.append(index[value_key(t.target)])
                return len(leaves) - 1
        if isinstance(e, Const) and isinstance(t, Atom) and t.label in e.labels:
            shape.append(t.label)
            return TOP
        if isinstance(e, Prod) and isinstance(t, Pair):
            return times(walk(e.left, t.fst), walk(e.right, t.snd))
        if (isinstance(e, Coprod) and isinstance(t, Inj) and type(t.index) is int
                and 0 <= t.index < len(e.branches)):
            shape.append(t.index)
            return walk(e.branches[t.index], t.arg)
        if (isinstance(e, Power) and isinstance(t, TupleTerm)
                and isinstance(t.components, tuple) and len(t.components) == len(e.exponent)):
            return times(*[walk(e.body, c) for c in t.components])
        raise TransitionTypeError(f"{t!r} is not a term of {expr_to_text(e)}")

    tree = walk(expr, term)
    return tuple(shape), tree, leaves


def validate_term(expr: PolyExpr, term: PolyTerm, states) -> bool:
    """True iff ``term`` is a term of ``expr`` over the carrier keys ``states``:
    iff :func:`resolve_term` resolves it against them."""
    try:
        resolve_term(expr, term, Index.fromkeys(states, 0))
    except (TransitionTypeError, CarrierMismatch):
        return False
    return True


def resolve_branch(value: BranchVal, index: Index) -> tuple:
    """A branching value as ``(positions, weights, key)``.

    The positions in ``index`` of its support and the raw payloads of its
    weights are in canonical support order, which fixes every fold order;
    the key names the value where a fold of it is undefined.  ``index`` is an
    :class:`~ltbe.relation.Index`, so a key not in it raises :class:`CarrierMismatch`.
    """
    positions = list(map(index.__getitem__, value.support_keys()))
    return positions, [w.payload for _, w in value.entries], value.key()


def compile_poly(rows: int, cols: int, row_terms: Sequence, col_terms: Sequence,
                 source=None) -> list:
    """Compile the lifting through a polynomial layer over resolved terms.

    Two terms of different shapes give ``ZERO``.  Otherwise the cell is
    ``ONE``, one source position, or the product of the term's tree with each
    leaf the source position that pairs the two terms' leaves.  Through
    ``source``, a read becomes what that source cell reads: a position
    below it, ``ZERO`` or ``ONE``.
    """
    at = range(rows * cols) if source is None else source

    def cell(tree, lu, lv):
        if type(tree) is int:
            return at[lu[tree] * cols + lv[tree]]
        return tuple(map(cell, tree, repeat(lu), repeat(lv)))

    return [
        (ONE if tree is TOP else cell(tree, lu, lv)) if su == sv else ZERO
        for su, tree, lu in row_terms
        for sv, _, lv in col_terms
    ]


def compile_double_extension(kind: SemiringKind, rows: int, cols: int, left_values: Sequence,
                             right_values: Sequence, source=None) -> Folds:
    """Compile the two-sided extension over resolved branching values.

    The cell of ``(t, u)`` folds the pairs of the two supports, left-major,
    leaving out every pair that reads ``ZERO``: its term is zero, which
    leaves any partial sum of every kind as it was (``False``, ``w + inf``,
    and ``+0.0`` on a non-negative sum).  Against :func:`unit_columns`, a
    specification's, the cell of ``(t, y)`` folds ``t``'s support alone, each
    point at its own weight: times the unit's one, a weight is itself bit for
    bit (``w & True``, ``w * 1.0``, ``w + 0``).  A bool fold carries no
    weights, since its kernel reads positions only.
    """
    at, mul = range(rows * cols) if source is None else source, OPS[kind].mul
    weighted = kind is not SemiringKind.BOOL
    weights, positions, where = [], [], []
    if right_values and right_values[0][2] is None:  # unit columns: the left support alone
        for xs, xws, t in left_values:
            name = (t, None)
            if weighted:
                xs = [(x * cols, xw) for x, xw in zip(xs, xws)]
            else:
                xs = [x * cols for x in xs]
            for (y,), _, _ in right_values:
                if weighted:
                    ws, ps = [], []
                    for x, xw in xs:
                        p = at[x + y]
                        if p != ZERO:
                            ws.append(xw)
                            ps.append(p)
                else:
                    ws, ps = (), []
                    for x in xs:
                        p = at[x + y]
                        if p != ZERO:
                            ps.append(p)
                weights.append(ws)
                positions.append(ps)
                where.append(name)
        return Folds(weights, positions, where)
    rights = [(list(zip(ys, yws)), u) for ys, yws, u in right_values]
    for xs, xws, t in left_values:
        xs = [(x * cols, xw) for x, xw in zip(xs, xws)]
        for ys, u in rights:
            if weighted:
                ws, ps = [], []
                for x, xw in xs:
                    for y, yw in ys:
                        p = at[x + y]
                        if p != ZERO:
                            ws.append(mul(xw, yw))
                            ps.append(p)
            else:
                ws, ps = (), []
                for x, _ in xs:
                    for y, _ in ys:
                        p = at[x + y]
                        if p != ZERO:
                            ps.append(p)
            weights.append(ws)
            positions.append(ps)
            where.append((t, u))
    return Folds(weights, positions, where)


def unit_columns(kind: SemiringKind, size: int) -> list:
    """The unit branching value on each of ``size`` positions, resolved: a
    specification's branching, one point of weight one that no value names."""
    one = OPS[kind].one
    return [((y,), (one,), None) for y in range(size)]


def _run(rel: ValRel, cells: list, rows: Sequence, cols: Sequence | None = None) -> ValRel:
    """Evaluate ``cells`` over ``rel``, keyed by ``rows`` and ``cols`` (default: ``rel.cols``)."""
    col_keys = rel.cols if cols is None else [v.key() for v in cols]
    zero, one = OPS[rel.kind].zero, OPS[rel.kind].one
    payloads = kernel(rel.kind)(cells, range(len(cells)), rel.payloads() + [zero, one])
    return ValRel.from_payloads(rel.kind, [v.key() for v in rows], col_keys, payloads)


def _resolve(rel: ValRel, left_values: Sequence[BranchVal],
             right_values: Sequence[BranchVal]) -> tuple[list, list]:
    """Check every value and kind, then resolve both sides against ``rel``'s carriers,
    columns first."""
    for bv in [*left_values, *right_values]:
        if not isinstance(bv, BranchVal):
            raise TransitionTypeError(f"{bv!r} is not a branching value")
        if bv.kind is not rel.kind:
            raise KindMismatch(
                f"{bv.kind.value} branching value used with a {rel.kind.value} relation"
            )
    right = [resolve_branch(u, rel.col_index) for u in right_values]
    return [resolve_branch(t, rel.row_index) for t in left_values], right


def lift_poly(
    expr: PolyExpr, rel: ValRel, row_terms: Sequence[PolyTerm], col_terms: Sequence[PolyTerm]
) -> ValRel:
    """Push a relation through a polynomial layer on both carriers.

    The new rows and columns are the supplied terms of ``expr``; an
    identity position reads ``rel`` at the keys of the two targets.
    """
    cols = [resolve_term(expr, t, rel.col_index) for t in col_terms]
    rows = [resolve_term(expr, t, rel.row_index) for t in row_terms]
    cells = compile_poly(len(rel.rows), len(rel.cols), rows, cols)
    return _run(rel, cells, row_terms, col_terms)


def lift_extension(rel: ValRel, left_values: Sequence[BranchVal]) -> ValRel:
    """Abstract branching on the left carrier.

    The double extension against the unit on each column: the new rows are
    the supplied branching values, the columns stay, and an empty support
    gives the bottom value.  Folds run in canonical support order, so
    results are reproducible bit for bit.
    """
    left, _ = _resolve(rel, left_values, ())
    cells = compile_double_extension(rel.kind, len(rel.rows), len(rel.cols), left,
                                     unit_columns(rel.kind, len(rel.cols)))
    return _run(rel, cells, left_values)


def lift_double_extension(
    rel: ValRel, left_values: Sequence[BranchVal], right_values: Sequence[BranchVal]
) -> ValRel:
    """Abstract branching on both carriers at once.

    Equivalent to extending on the left and then on the right; computed
    directly as a double fold over both supports.
    """
    left, right = _resolve(rel, left_values, right_values)
    cells = compile_double_extension(rel.kind, len(rel.rows), len(rel.cols), left, right)
    return _run(rel, cells, left_values, right_values)


def lift_egli_milner(
    rel: ValRel, left_values: Sequence[BranchVal], right_values: Sequence[BranchVal]
) -> ValRel:
    """Boolean forall-exists lifting in both directions.

    Two successor sets are related iff every element of each has a related
    partner in the other.  Only defined for the boolean kind.
    """
    if rel.kind is not SemiringKind.BOOL:
        raise KindMismatch("the forall-exists lifting is only defined for bool relations")
    left, right = _resolve(rel, left_values, right_values)
    flat, n = rel.payloads(), len(rel.cols)
    related = [all(any(flat[x * n + y] for y in ys) for x in xs)
               and all(any(flat[x * n + y] for x in xs) for y in ys)
               for xs, _, _ in left for ys, _, _ in right]
    return ValRel.from_payloads(rel.kind, [t.key() for t in left_values],
                                [u.key() for u in right_values], related)
