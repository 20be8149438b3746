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
layer and the branching values of a branching layer.

Each lifting has one implementation, in two stages.  ``compile_*`` takes
the positions of the source carriers' keys and the new carrier lists, and
resolves every cell of the lifted matrix to data over source positions
(see :mod:`ltbe.relation`): a single read, a fold of weights and
positions, a product tree, or a forall-exists pair of position lists.
The public ``lift_*`` functions compile, run the one cell evaluator over
every cell in order and box the result; the engine passes ``source`` to
compile a layer that reads through a layer of single reads below it.
"""

from __future__ import annotations

from functools import partial
from itertools import chain
from typing import Callable, Mapping, Sequence

from .branching import BranchVal
from .errors import CarrierMismatch, KindMismatch
from .polyfunctor import Const, Coprod, Id, PolyExpr, PolyTerm, Prod, value_key
from .relation import Fold, ForallExists, ValRel, run_cells
from .semiring import OPS, SemiringKind

#: The position of each key of a carrier.
Index = Mapping[object, int]

#: A compiled layer: its cells, and the row and column keys of its result.
Compiled = tuple[list, tuple, tuple]

#: A compiled polynomial cell that is the unit, whatever the relation.
_TOP = "top"


def _pos(index: Index, key: object) -> int:
    try:
        return index[key]
    except KeyError:
        raise CarrierMismatch(f"key {key!r} is not in the carrier") from None


def _through(source: Sequence[int] | None, rows: Index, cols: Index) -> Callable[[int], int]:
    """Where a cell reads each position of the source and its two constants."""
    return (range(len(rows) * len(cols) + 2) if source is None else source).__getitem__


def _times(a, b):
    """The compiled product of two cells; a unit factor folds away exactly."""
    return b if a is _TOP else a if b is _TOP else (a, b)


def compile_poly(
    expr: PolyExpr, kind: SemiringKind, rows: Index, cols: Index,
    row_terms: Sequence[PolyTerm], col_terms: Sequence[PolyTerm], source=None,
) -> Compiled:
    """Compile the lifting through a polynomial layer.

    A term's shape is its sequence of injection indices and labels; two
    terms of different shapes give bottom.  Otherwise the cell is top, one
    source position, or a product tree of source positions, one leaf per
    identity position, nested in the order the expression multiplies.
    """
    width = len(cols)
    at = _through(source, rows, cols)

    def walk(e: PolyExpr, t, index, shape: list, leaves: list):
        # the term's product tree, with leaf i standing for leaves[i]
        if isinstance(e, Id):
            leaves.append(_pos(index, value_key(t.target)))
            return len(leaves) - 1
        if isinstance(e, Const):
            shape.append(t.label)
            return _TOP
        if isinstance(e, Prod):
            return _times(walk(e.left, t.fst, index, shape, leaves),
                          walk(e.right, t.snd, index, shape, leaves))
        if isinstance(e, Coprod):
            shape.append(t.index)
            return walk(e.branches[t.index], t.arg, index, shape, leaves)
        acc = _TOP  # a power: the product of its components, left to right
        for c in t.components:
            acc = _times(acc, walk(e.body, c, index, shape, leaves))
        return acc

    def resolve(terms, index):
        out = []
        for t in terms:
            shape, leaves = [], []
            tree = walk(expr, t, index, shape, leaves)
            out.append((tuple(shape), tree, leaves))
        return out

    def cell(tree, lu, lv):
        if type(tree) is int:
            return at(lu[tree] * width + lv[tree])
        return cell(tree[0], lu, lv), cell(tree[1], lu, lv)

    # bottom and top read the two constant slots right after the source cells
    bottom, top = at(len(rows) * width), at(len(rows) * width + 1)
    right = resolve(col_terms, cols)
    cells = [
        (top if tree is _TOP else cell(tree, lu, lv)) if su == sv else bottom
        for su, tree, lu in resolve(row_terms, rows)
        for sv, _, lv in right
    ]
    return cells, tuple(t.key() for t in row_terms), tuple(t.key() for t in col_terms)


def _check_branch_kinds(kind: SemiringKind, *values: Sequence[BranchVal]) -> None:
    for bv in chain.from_iterable(values):
        if bv.kind is not kind:
            raise KindMismatch(
                f"{bv.kind.value} branching value used with a {kind.value} relation"
            )


def compile_extension(
    kind: SemiringKind, rows: Index, cols: Index, left_values: Sequence[BranchVal], source=None
) -> Compiled:
    """Compile the left extension; the columns stay as they are.

    The cell of ``(t, y)`` folds the support of ``t`` against column ``y``
    in canonical support order.
    """
    _check_branch_kinds(kind, left_values)
    at, width, mul, one = _through(source, rows, cols), len(cols), OPS[kind].mul, OPS[kind].one
    cells = []
    for t in left_values:
        xs = [_pos(rows, k) * width for k in t.support_keys()]
        weights = [mul(w.payload, one) for _, w in t.entries]  # w * one is w, exactly
        name = (t.key(),)
        cells += [Fold((weights, [at(x + y) for x in xs], name)) for y in range(width)]
    return cells, tuple(bv.key() for bv in left_values), tuple(cols)


def compile_double_extension(
    kind: SemiringKind, rows: Index, cols: Index, left_values: Sequence[BranchVal],
    right_values: Sequence[BranchVal], source=None,
) -> Compiled:
    """Compile the two-sided extension.

    The cell of ``(t, u)`` folds the pairs of the two supports, left-major,
    in canonical support order.
    """
    _check_branch_kinds(kind, left_values, right_values)
    at, width, mul = _through(source, rows, cols), len(cols), OPS[kind].mul
    right = [
        ([_pos(cols, k) for k in u.support_keys()], [w.payload for _, w in u.entries], u.key())
        for u in right_values
    ]
    cells = []
    for t in left_values:
        xs = [_pos(rows, k) * width for k in t.support_keys()]
        xws = [w.payload for _, w in t.entries]
        for ys, yws, u_key in right:
            weights = [mul(xw, yw) for xw in xws for yw in yws]
            cells.append(Fold((weights, [at(x + y) for x in xs for y in ys], (t.key(), u_key))))
    return cells, tuple(t.key() for t in left_values), tuple(u.key() for u in right_values)


def compile_egli_milner(
    kind: SemiringKind, rows: Index, cols: Index, left_values: Sequence[BranchVal],
    right_values: Sequence[BranchVal], source=None,
) -> Compiled:
    """Compile the forall-exists lifting.

    A cell holds, per left successor, its source cells against every right
    successor, and per right successor its cells against every left one.
    """
    if kind is not SemiringKind.BOOL:
        raise KindMismatch("the forall-exists lifting is only defined for bool relations")
    _check_branch_kinds(kind, left_values, right_values)
    at = _through(source, rows, cols)
    width = len(cols)
    right = [[_pos(cols, k) for k in u.support_keys()] for u in right_values]
    cells = []
    for t in left_values:
        xs = [_pos(rows, k) * width for k in t.support_keys()]
        for ys in right:
            cells.append(ForallExists((
                [[at(x + y) for y in ys] for x in xs], [[at(x + y) for x in xs] for y in ys]
            )))
    return cells, tuple(t.key() for t in left_values), tuple(u.key() for u in right_values)


def _apply(compile_layer: Callable[..., Compiled], rel: ValRel, *values) -> ValRel:
    cells, row_keys, col_keys = compile_layer(rel.kind, rel.row_index, rel.col_index, *values)
    return ValRel.from_payloads(rel.kind, row_keys, col_keys, run_cells(cells, rel.kind, rel.payloads()))


def lift_poly(
    expr: PolyExpr, rel: ValRel, row_terms: Sequence[PolyTerm], col_terms: Sequence[PolyTerm]
) -> ValRel:
    """Push a relation through a polynomial layer on both carriers.

    The new rows and columns are the supplied terms of ``expr``; an
    identity position reads ``rel`` at the keys of the two targets.
    """
    return _apply(partial(compile_poly, expr), rel, row_terms, col_terms)


def lift_extension(rel: ValRel, left_values: Sequence[BranchVal]) -> ValRel:
    """Abstract branching on the left carrier.

    The new rows are the supplied branching values; an empty support gives
    the bottom value.  Folds run in canonical support order, so results are
    reproducible bit for bit.
    """
    return _apply(compile_extension, rel, left_values)


def lift_double_extension(
    rel: ValRel, left_values: Sequence[BranchVal], right_values: Sequence[BranchVal]
) -> ValRel:
    """Abstract branching on both carriers at once.

    Equivalent to extending on the left and then on the right; computed
    directly as a double fold over both supports.
    """
    return _apply(compile_double_extension, rel, left_values, right_values)


def lift_egli_milner(
    rel: ValRel, left_values: Sequence[BranchVal], right_values: Sequence[BranchVal]
) -> ValRel:
    """Boolean forall-exists lifting in both directions.

    Two successor sets are related iff every element of each has a related
    partner in the other.  Only defined for the boolean kind.
    """
    return _apply(compile_egli_milner, rel, left_values, right_values)
