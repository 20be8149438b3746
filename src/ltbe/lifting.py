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
the positions of the source carriers' keys and the new carrier lists and
resolves every cell to integer positions in the source; it returns a
program together with the new row and column keys.  The program maps a
row-major list of raw payloads (see :data:`~ltbe.semiring.OPS`) to the
lifted list.  The fixpoint engine compiles each layer once per run and
runs the programs on every iteration; the public ``lift_*`` functions
compile, run once and box the result.
"""

from __future__ import annotations

from functools import partial, reduce
from typing import Callable, Mapping, Sequence

from .branching import BranchVal
from .errors import CarrierMismatch, KindMismatch, UndefinedSum
from .polyfunctor import Const, Coprod, Id, PolyExpr, PolyTerm, Prod, value_key
from .relation import ValRel
from .semiring import OPS, SemiringKind

#: The position of each key of a carrier.
Index = Mapping[object, int]

#: A compiled layer: the program, and the row and column keys of its result.
Compiled = tuple[Callable[[list], list], tuple, tuple]

#: A compiled polynomial cell that is the unit, whatever the relation.
_TOP = "top"


def _pos(index: Index, key: object) -> int:
    try:
        return index[key]
    except KeyError:
        raise CarrierMismatch(f"key {key!r} is not in the carrier") from None


def _times(a, b):
    """The compiled product of two cells; a unit factor folds away exactly."""
    return b if a is _TOP else a if b is _TOP else (a, b)


def compile_poly(
    expr: PolyExpr, kind: SemiringKind, rows: Index, cols: Index,
    row_terms: Sequence[PolyTerm], col_terms: Sequence[PolyTerm],
) -> Compiled:
    """Compile the lifting through a polynomial layer.

    A term's shape is its sequence of injection indices and labels; two
    terms of different shapes give bottom (``None``).  Otherwise the cell is
    top or a product tree of source positions, one leaf per identity
    position, nested in the order the expression multiplies.
    """
    width = len(cols)

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
            return lu[tree] * width + lv[tree]
        return tree if tree is _TOP else (cell(tree[0], lu, lv), cell(tree[1], lu, lv))

    right = resolve(col_terms, cols)
    cells = [
        cell(tree, lu, lv) if su == sv else None
        for su, tree, lu in resolve(row_terms, rows)
        for sv, _, lv in right
    ]
    # every cell but a product reads one position: the two constants sit
    # right after the source cells
    size = len(rows) * width
    gather = [size + 1 if c is _TOP else c if type(c) is int else size for c in cells]
    products = [(k, c) for k, c in enumerate(cells) if type(c) is tuple]
    ops = OPS[kind]
    units, mul = [ops.zero, ops.one], ops.mul

    def run(cur: list) -> list:
        src = cur + units
        out = list(map(src.__getitem__, gather))
        if products:

            def ev(t):
                return src[t] if type(t) is int else mul(ev(t[0]), ev(t[1]))

            for k, t in products:
                out[k] = ev(t)
        return out

    return run, tuple(t.key() for t in row_terms), tuple(t.key() for t in col_terms)


def _check_branch_kinds(kind: SemiringKind, values: Sequence[BranchVal]) -> None:
    for bv in values:
        if bv.kind is not kind:
            raise KindMismatch(
                f"{bv.kind.value} branching value used with a {kind.value} relation"
            )


def _compile_fold(
    kind: SemiringKind, rows: Index, width: int, left_values: Sequence[BranchVal],
    right: list, where: Callable[[int], str],
) -> Callable[[list], list]:
    """A cell per left value and entry of ``right``, a list of ``(column, weight)``.

    The cell folds weight * source cell over the pairs of the left value's
    support and the entry, left-major, in canonical support order.
    """
    add, mul, zero = OPS[kind].add, OPS[kind].mul, OPS[kind].zero
    cells = []
    for t in left_values:
        xs = [(_pos(rows, value_key(x)) * width, w.payload) for x, w in t.entries]
        for u in right:
            weights = tuple(mul(xw, yw) for _, xw in xs for _, yw in u)
            cells.append((weights, tuple(xi + yi for xi, _ in xs for yi, _ in u)))

    def run(cur: list) -> list:
        get = cur.__getitem__
        out = []
        for n, (ws, idxs) in enumerate(cells):
            try:
                out.append(reduce(add, map(mul, ws, map(get, idxs)), zero))
            except UndefinedSum:
                raise UndefinedSum(
                    f"partial sum undefined while extending over {where(n)}"
                ) from None
        return out

    return run


def compile_extension(
    kind: SemiringKind, rows: Index, cols: Index, left_values: Sequence[BranchVal]
) -> Compiled:
    """Compile the left extension; the columns stay as they are."""
    _check_branch_kinds(kind, left_values)
    width = len(cols)
    one = OPS[kind].one  # weight * one is the weight, exactly
    right = [[(j, one)] for j in range(width)]
    run = _compile_fold(
        kind, rows, width, left_values, right, lambda n: repr(left_values[n // width].key())
    )
    return run, tuple(bv.key() for bv in left_values), tuple(cols)


def compile_double_extension(
    kind: SemiringKind, rows: Index, cols: Index, left_values: Sequence[BranchVal],
    right_values: Sequence[BranchVal],
) -> Compiled:
    """Compile the two-sided extension."""
    _check_branch_kinds(kind, left_values)
    _check_branch_kinds(kind, right_values)
    right = [[(_pos(cols, value_key(y)), w.payload) for y, w in u.entries] for u in right_values]

    def where(n: int) -> str:
        t, u = divmod(n, len(right_values))
        return f"{left_values[t].key()!r} x {right_values[u].key()!r}"

    run = _compile_fold(kind, rows, len(cols), left_values, right, where)
    return run, tuple(t.key() for t in left_values), tuple(u.key() for u in right_values)


def compile_egli_milner(
    kind: SemiringKind, rows: Index, cols: Index, left_values: Sequence[BranchVal],
    right_values: Sequence[BranchVal],
) -> Compiled:
    """Compile the forall-exists lifting.

    A cell holds, per left successor, its source cells against every right
    successor, and per right successor its cells against every left one.
    """
    if kind is not SemiringKind.BOOL:
        raise KindMismatch("the forall-exists lifting is only defined for bool relations")
    _check_branch_kinds(kind, left_values)
    _check_branch_kinds(kind, right_values)
    width = len(cols)
    cells = []
    for t in left_values:
        xs = [_pos(rows, k) * width for k in t.support_keys()]
        for u in right_values:
            ys = [_pos(cols, k) for k in u.support_keys()]
            cells.append(([[x + y for y in ys] for x in xs], [[x + y for x in xs] for y in ys]))

    def run(cur: list) -> list:
        get = cur.__getitem__
        return [
            all(any(map(get, row)) for row in forward)
            and all(any(map(get, col)) for col in backward)
            for forward, backward in cells
        ]

    return run, tuple(t.key() for t in left_values), tuple(u.key() for u in right_values)


def _apply(compile_layer: Callable[..., Compiled], rel: ValRel, *values) -> ValRel:
    run, row_keys, col_keys = compile_layer(rel.kind, rel.row_index, rel.col_index, *values)
    return ValRel.from_payloads(rel.kind, row_keys, col_keys, run(rel.payloads()))


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
