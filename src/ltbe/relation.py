"""Dense multi-valued relation matrices over finite carriers, and their cells.

A relation assigns a truth value to every pair drawn from an ordered row
carrier and an ordered column carrier.  Carrier elements are opaque keys
(state ids or canonical term keys).  Matrices are immutable; they hold
row-major raw payloads (see :data:`~ltbe.semiring.OPS`) and box a value
into a :class:`SemiringValue` only where one is read out.

A *cell* is plain data saying how one entry of a new matrix is computed
from a source list, the old payloads followed by the constants zero and
one, by the semiring's own operations.  Every position lies in one space:
``0 <= p < size`` reads an old payload, and :data:`ZERO` and :data:`ONE`
read the two constants, at the end of every source list whatever its
size.  A layer of the program is one of two forms.  A polynomial layer is
a list of cells, each an ``int`` that reads one position or a ``tuple``
of factors that is a product, multiplied left to right; a factor is a
read or, when the product nests to the right, a product of its own.  The
lifting through a branching layer is a layer of folds, kept as columns
(:class:`Folds`): per cell, its weights, its positions and the keys of
the branching values that name it.  :func:`kernel` evaluates any set of
the cells of either form; a layer of folds runs in one comprehension
(:func:`fold_kernel`), where a fold's length picks an expression with the
semiring fold's bits: written out for one or two terms, one C-level
``any``, ``min`` or float sum for more.
"""

from __future__ import annotations

import operator
from collections.abc import Callable, Collection, Iterable, Iterator, Mapping
from functools import cache, reduce
from itertools import chain

from .errors import CarrierMismatch, KindMismatch, UndefinedSum
from .semiring import (INF, OPS, SemiringKind, SemiringValue, checked_payload, json_value,
                       tropical_mul)

#: The positions of the constants zero and one, the last two of every source list.
ZERO, ONE = -2, -1


class Folds:
    """A layer of folds as three columns: cell ``k`` sums
    ``weights[k][i] * src[positions[k][i]]`` from zero, left to right, and
    ``where[k]`` holds the keys of the branching values that name the cell if
    a prob sum is undefined (``None`` for a unit column, which names none).
    A bool fold carries no weights: every bool weight is ``True``, and its
    kernel reads positions only."""

    __slots__ = ("weights", "positions", "where")

    def __init__(self, weights: list, positions: list, where: list) -> None:
        self.weights = weights
        self.positions = positions
        self.where = where

    def __len__(self) -> int:
        return len(self.positions)


def fold_kernel(kind: SemiringKind) -> Callable[[Folds, Collection[int], list], list]:
    """The function that evaluates the cells ``todo`` of a layer of folds of
    ``kind`` over a source list, in one comprehension.

    Each fold has the bits of the left-to-right ``reduce(add, map(mul, ...),
    zero)``, by an expression its length ``n`` picks: the kind's zero for
    none, written out for one or two terms, and for more one C-level
    ``any``, ``min`` or float sum.  Bool: is some position ``True``; a
    ``BranchVal`` drops zero weights, so every bool weight is ``True``, and
    a bool fold carries no weights.
    Tropical: the least ``weight + value``; ``min``, like ``b if b < a else
    a``, keeps the first of equal terms, as the fold from ``INF`` does.  A
    cost beyond the float range plus ``INF`` raises ``OverflowError``, and
    the layer is evaluated again with :func:`~ltbe.semiring.tropical_mul`.
    Prob: the plain float sum; ``0.0 + a`` is ``a`` for every term, as no
    term is ``-0.0``.  The prob terms are non-negative, so if a sum is at
    most 1.0 no partial sum passed 1.0, where ``add`` clamps or raises; a
    larger sum is folded again with ``add``.
    """
    add, mul = OPS[kind].add, OPS[kind].mul

    if kind is SemiringKind.BOOL:
        def run(folds: Folds, todo: Collection[int], src: list) -> list:
            get, P = src.__getitem__, folds.positions
            return [src[p[0]] if n == 1 else src[p[0]] or src[p[1]] if n == 2
                    else any(map(get, p)) if n else False
                    for k in todo for p in [P[k]] for n in [len(p)]]
    elif kind is SemiringKind.TROPICAL:
        def run(folds: Folds, todo: Collection[int], src: list) -> list:
            get, W, P = src.__getitem__, folds.weights, folds.positions
            try:
                return [w[0] + src[p[0]] if n == 1
                        else (b if (b := w[1] + src[p[1]]) < (a := w[0] + src[p[0]]) else a)
                        if n == 2 else min(map(mul, w, map(get, p))) if n else INF
                        for k in todo for p in [P[k]] for n in [len(p)] for w in [W[k]]]
            except OverflowError:  # a cost beyond the float range plus ``INF``
                return [min(map(tropical_mul, W[k], map(get, P[k])), default=INF) for k in todo]
    else:
        def run(folds: Folds, todo: Collection[int], src: list) -> list:
            get, W, P = src.__getitem__, folds.weights, folds.positions
            out = [w[0] * src[p[0]] if n == 1 else w[0] * src[p[0]] + w[1] * src[p[1]] if n == 2
                   else reduce(operator.add, map(mul, w, map(get, p)), 0.0) if n else 0.0
                   for k in todo for p in [P[k]] for n in [len(p)] for w in [W[k]]]
            if max(out, default=0.0) > 1.0:
                for i, k in enumerate(todo):
                    if out[i] > 1.0:
                        try:
                            out[i] = reduce(add, map(mul, W[k], map(get, P[k])), 0.0)
                        except UndefinedSum:
                            where = " x ".join(repr(key) for key in folds.where[k]
                                              if key is not None)
                            raise UndefinedSum(
                                f"partial sum undefined while extending over {where}") from None
            return out

    return run


@cache
def kernel(kind: SemiringKind) -> Callable[[list | Folds, Collection[int], list], list]:
    """The function (one per kind) that evaluates the cells ``todo`` of a layer
    of ``kind``, of either form, over a source list, giving their values in
    the order ``todo`` iterates, which may be a set.  A read is picked inline;
    a product multiplies its factors left to right, each nested product first."""
    fold, mul = fold_kernel(kind), OPS[kind].mul

    def product(cell: tuple, src: list):
        factors = iter(cell)
        acc = src[next(factors)]  # a product's first factor is a read
        for f in factors:
            try:
                acc = mul(acc, src[f] if type(f) is int else product(f, src))
            except OverflowError:  # a tropical cost beyond the float range plus ``INF``
                acc = INF
        return acc

    def run(cells: list | Folds, todo: Collection[int], src: list) -> list:
        if type(cells) is Folds:
            return fold(cells, todo, src)
        return [src[c] if type(c) is int else product(c, src)
                for c in map(cells.__getitem__, todo)]

    return run


def reads(cell) -> Iterable[int]:
    """The source positions a read or product cell reads, left to right."""
    if type(cell) is int:
        return (cell,)
    return chain.from_iterable(map(reads, cell))


class Index(dict):
    """The position of each key of a carrier; a missing key raises :class:`CarrierMismatch`."""

    def __missing__(self, key):
        raise CarrierMismatch(f"key {key!r} is not in the carrier")


def _field(key) -> str:
    """A key as a CSV field: quoted, quotes doubled, if it holds a comma, a quote or a newline."""
    text = str(key)
    quote = "," in text or '"' in text or "\n" in text
    return '"' + text.replace('"', '""') + '"' if quote else text


class ValRel:
    """An immutable dense matrix of semiring values; its key indexes are built on first use."""

    __slots__ = ("kind", "rows", "cols", "row_index", "col_index", "_flat")

    def __init__(self, kind: SemiringKind, rows, cols, grid) -> None:
        OPS[kind]  # a kind that is no ``SemiringKind`` raises ``KindMismatch``
        rows, cols = self._carriers(rows, cols)
        grid = tuple(tuple(r) for r in grid)
        if len(grid) != len(rows) or any(len(r) != len(cols) for r in grid):
            raise CarrierMismatch("grid shape does not match the carriers")
        for row in grid:
            for v in row:
                if not isinstance(v, SemiringValue) or v.kind is not kind:
                    raise KindMismatch(f"entry {v!r} does not belong to kind {kind.value}")
        self.kind, self.rows, self.cols = kind, rows, cols
        self._flat = [v.payload for row in grid for v in row]

    @staticmethod
    def _carriers(rows, cols) -> tuple[tuple, tuple]:
        rows, cols = tuple(rows), tuple(cols)
        if len(set(rows)) != len(rows):
            raise CarrierMismatch("duplicate keys in the row carrier")
        if len(set(cols)) != len(cols):
            raise CarrierMismatch("duplicate keys in the column carrier")
        return rows, cols

    def __getattr__(self, name: str) -> Index:
        """Build ``row_index`` or ``col_index``, the slot read but not yet set."""
        if name not in ("row_index", "col_index"):
            raise AttributeError(f"'ValRel' object has no attribute {name!r}")
        keys = self.rows if name == "row_index" else self.cols
        index = Index(zip(keys, range(len(keys))))
        setattr(self, name, index)
        return index

    @classmethod
    def top(cls, rows, cols, kind: SemiringKind) -> "ValRel":
        """The everywhere-1 relation, the start of every fixpoint iteration."""
        rows, cols = tuple(rows), tuple(cols)
        return cls.from_payloads(kind, rows, cols, [OPS[kind].one] * (len(rows) * len(cols)))

    @classmethod
    def tabulate(
        cls, kind: SemiringKind, rows, cols, fn: Callable[[object, object], SemiringValue]
    ) -> "ValRel":
        rows, cols = tuple(rows), tuple(cols)
        return cls(kind, rows, cols, [[fn(r, c) for c in cols] for r in rows])

    @classmethod
    def from_payloads(cls, kind: SemiringKind, rows, cols, flat: Iterable) -> "ValRel":
        """Wrap row-major raw payloads, the engine's working form, read once into a new list.

        Each is checked as boxing checks it (:func:`~ltbe.semiring.checked_payload`): one that
        is no payload of ``kind`` raises :class:`ValidationError`, and a prob ``-0.0``, which
        ``{:.9f}`` prints as ``-0.000000000``, becomes ``0.0``.
        """
        OPS[kind]  # a kind that is no ``SemiringKind`` raises ``KindMismatch``
        rows, cols = cls._carriers(rows, cols)
        flat = [checked_payload(kind, p) for p in flat]
        if len(flat) != len(rows) * len(cols):
            raise CarrierMismatch("grid shape does not match the carriers")
        return cls._wrap(kind, rows, cols, flat)

    @classmethod
    def _wrap(cls, kind: SemiringKind, rows: tuple, cols: tuple, flat: list) -> "ValRel":
        """:meth:`from_payloads` unchecked, over two tuples of distinct keys, such as two
        models' states, and a list of payloads with no ``-0.0``, such as the engine's."""
        rel = cls.__new__(cls)
        rel.kind, rel.rows, rel.cols = kind, rows, cols
        rel._flat = flat
        return rel

    def payloads(self) -> list:
        """A copy of the raw payloads, row-major."""
        return list(self._flat)

    def get(self, row: object, col: object) -> SemiringValue:
        return self.at(self.row_index[row], self.col_index[col])

    def at(self, i: int, j: int) -> SemiringValue:
        return SemiringValue(self.kind, self._flat[i * len(self.cols) + j])

    def entries(self) -> Iterator[tuple[object, object, SemiringValue]]:
        payloads = iter(self._flat)
        for r in self.rows:
            for c in self.cols:
                yield r, c, SemiringValue(self.kind, next(payloads))

    def _check_comparable(self, other: "ValRel") -> None:
        if self.kind is not other.kind:
            raise KindMismatch("cannot compare relations of different kinds")
        if self.rows != other.rows or self.cols != other.cols:
            raise CarrierMismatch("cannot compare relations over different carriers")

    def pointwise_leq(self, other: "ValRel") -> bool:
        """Entrywise natural order."""
        self._check_comparable(other)
        return all(map(OPS[self.kind].leq, self._flat, other._flat))

    def max_gap(self, other: "ValRel") -> float:
        """Largest entrywise convergence distance; 0.0 for equal matrices."""
        self._check_comparable(other)
        return max(map(OPS[self.kind].gap, self._flat, other._flat), default=0.0)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValRel):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.rows == other.rows
            and self.cols == other.cols
            and self._flat == other._flat
        )

    def __repr__(self) -> str:
        return f"ValRel(kind={self.kind.value}, rows={len(self.rows)}, cols={len(self.cols)})"

    # --- output -------------------------------------------------------------

    def to_csv(self) -> str:
        """Matrix as CSV: first column holds row keys, header row holds column keys."""
        if self.kind is SemiringKind.BOOL:
            cells = ["1" if p else "0" for p in self._flat]
        elif self.kind is SemiringKind.TROPICAL:
            cells = ["inf" if p == INF else str(p) for p in self._flat]
        else:
            cells = [f"{p:.9f}" for p in self._flat]
        n = len(self.cols)
        lines = [",".join(["", *map(_field, self.cols)])]
        lines += [",".join([_field(r), *cells[i * n : i * n + n]]) for i, r in enumerate(self.rows)]
        return "".join([line + "\n" if line else '""\n' for line in lines])  # as ``csv.writer``

    def to_json_records(self) -> list[dict]:
        payloads = iter(self._flat)
        return [
            {"row": r, "col": c, "value": json_value(p)}
            for r in self.rows
            for c, p in zip(self.cols, payloads)
        ]


def reindex(f: Mapping[object, object], g: Mapping[object, object], rel: ValRel) -> ValRel:
    """Precompose a relation with a pair of carrier maps.

    The result is indexed by the keys of ``f`` and ``g``; every image must
    lie inside the carriers of ``rel``, whose payloads it copies unchecked.
    """
    for x, fx in f.items():
        if fx not in rel.row_index:
            raise CarrierMismatch(f"row image {fx!r} of {x!r} is outside the carrier")
    for y, gy in g.items():
        if gy not in rel.col_index:
            raise CarrierMismatch(f"column image {gy!r} of {y!r} is outside the carrier")
    n, flat = len(rel.cols), rel._flat
    rows = [rel.row_index[fx] * n for fx in f.values()]
    cols = [rel.col_index[gy] for gy in g.values()]
    payloads = [flat[i + j] for i in rows for j in cols]
    return ValRel._wrap(rel.kind, tuple(f), tuple(g), payloads)
