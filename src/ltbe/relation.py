"""Dense multi-valued relation matrices over finite carriers.

A relation assigns a truth value to every pair drawn from an ordered row
carrier and an ordered column carrier.  Carrier elements are opaque keys
(state ids or canonical term keys).  Matrices are immutable.  The
fixpoint engine iterates on row-major lists of raw payloads instead and
boxes them into a matrix only where it hands one out.
"""

from __future__ import annotations

import csv
import io
from typing import Callable, Iterator, Mapping

from .errors import CarrierMismatch, KindMismatch
from .semiring import (
    SemiringKind,
    SemiringValue,
    gap,
    leq,
    one,
    to_json_value,
)


class ValRel:
    """An immutable dense matrix of semiring values."""

    __slots__ = ("kind", "rows", "cols", "row_index", "col_index", "_grid")

    def __init__(self, kind: SemiringKind, rows, cols, grid) -> None:
        rows = tuple(rows)
        cols = tuple(cols)
        if len(set(rows)) != len(rows):
            raise CarrierMismatch("duplicate keys in the row carrier")
        if len(set(cols)) != len(cols):
            raise CarrierMismatch("duplicate keys in the column carrier")
        grid = tuple(tuple(r) for r in grid)
        if len(grid) != len(rows) or any(len(r) != len(cols) for r in grid):
            raise CarrierMismatch("grid shape does not match the carriers")
        for row in grid:
            for v in row:
                if not isinstance(v, SemiringValue) or v.kind is not kind:
                    raise KindMismatch(f"entry {v!r} does not belong to kind {kind.value}")
        self.kind = kind
        self.rows = rows
        self.cols = cols
        self.row_index = {k: i for i, k in enumerate(rows)}
        self.col_index = {k: j for j, k in enumerate(cols)}
        self._grid = grid

    @classmethod
    def top(cls, rows, cols, kind: SemiringKind) -> "ValRel":
        """The everywhere-1 relation, the start of every fixpoint iteration."""
        top_value = one(kind)
        rows = tuple(rows)
        cols = tuple(cols)
        return cls(kind, rows, cols, [[top_value] * len(cols) for _ in rows])

    @classmethod
    def tabulate(
        cls, kind: SemiringKind, rows, cols, fn: Callable[[object, object], SemiringValue]
    ) -> "ValRel":
        rows = tuple(rows)
        cols = tuple(cols)
        return cls(kind, rows, cols, [[fn(r, c) for c in cols] for r in rows])

    @classmethod
    def from_payloads(cls, kind: SemiringKind, rows, cols, flat: list) -> "ValRel":
        """Box a row-major list of raw payloads, the engine's working form."""
        rows, cols = tuple(rows), tuple(cols)
        n = len(cols)
        grid = [[SemiringValue(kind, p) for p in flat[i * n : i * n + n]] for i in range(len(rows))]
        return cls(kind, rows, cols, grid)

    def payloads(self) -> list:
        """The raw payloads, row-major."""
        return [v.payload for row in self._grid for v in row]

    def get(self, row: object, col: object) -> SemiringValue:
        try:
            return self._grid[self.row_index[row]][self.col_index[col]]
        except KeyError as exc:
            raise CarrierMismatch(f"key {exc.args[0]!r} is not in the carrier") from None

    def at(self, i: int, j: int) -> SemiringValue:
        return self._grid[i][j]

    def entries(self) -> Iterator[tuple[object, object, SemiringValue]]:
        for r, row in zip(self.rows, self._grid):
            for c, v in zip(self.cols, row):
                yield r, c, v

    def _check_comparable(self, other: "ValRel") -> None:
        if self.kind is not other.kind:
            raise KindMismatch("cannot compare relations of different kinds")
        if self.rows != other.rows or self.cols != other.cols:
            raise CarrierMismatch("cannot compare relations over different carriers")

    def pointwise_leq(self, other: "ValRel") -> bool:
        """Entrywise natural order."""
        self._check_comparable(other)
        return all(
            leq(a, b)
            for ra, rb in zip(self._grid, other._grid)
            for a, b in zip(ra, rb)
        )

    def max_gap(self, other: "ValRel") -> float:
        """Largest entrywise convergence distance; 0.0 for equal matrices."""
        self._check_comparable(other)
        worst = 0.0
        for ra, rb in zip(self._grid, other._grid):
            for a, b in zip(ra, rb):
                worst = max(worst, gap(a, b))
        return worst

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ValRel):
            return NotImplemented
        return (
            self.kind is other.kind
            and self.rows == other.rows
            and self.cols == other.cols
            and self._grid == other._grid
        )

    def __repr__(self) -> str:
        return f"ValRel(kind={self.kind.value}, rows={len(self.rows)}, cols={len(self.cols)})"

    # --- output -------------------------------------------------------------

    def _cell(self, v: SemiringValue) -> str:
        if self.kind is SemiringKind.BOOL:
            return "1" if v.payload else "0"
        if self.kind is SemiringKind.TROPICAL:
            return "inf" if v.payload == float("inf") else str(v.payload)
        return f"{v.payload:.9f}"

    def to_csv(self) -> str:
        """Matrix as CSV: first column holds row keys, header row holds column keys."""
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow([""] + [str(c) for c in self.cols])
        for r, row in zip(self.rows, self._grid):
            writer.writerow([str(r)] + [self._cell(v) for v in row])
        return buf.getvalue()

    def to_json_records(self) -> list[dict]:
        return [
            {"row": r, "col": c, "value": to_json_value(v)}
            for r, c, v in self.entries()
        ]


def compile_reindex(
    f: Mapping[object, object], g: Mapping[object, object], rows: Mapping, cols: Mapping
) -> Callable[[list], list]:
    """Precomposition with a pair of carrier maps, on row-major payload lists.

    ``rows`` and ``cols`` give the position of each key of the source
    carriers; every image under ``f`` and ``g`` must be among them.  The
    result reads one source cell per pair of keys of ``f`` and ``g``.
    """
    for x, fx in f.items():
        if fx not in rows:
            raise CarrierMismatch(f"row image {fx!r} of {x!r} is outside the carrier")
    for y, gy in g.items():
        if gy not in cols:
            raise CarrierMismatch(f"column image {gy!r} of {y!r} is outside the carrier")
    n = len(cols)
    gather = [rows[f[x]] * n + cols[g[y]] for x in f for y in g]
    return lambda cur: list(map(cur.__getitem__, gather))


def reindex(f: Mapping[object, object], g: Mapping[object, object], rel: ValRel) -> ValRel:
    """Precompose a relation with a pair of carrier maps.

    The result is indexed by the keys of ``f`` and ``g``; every image must
    lie inside the carriers of ``rel``.
    """
    run = compile_reindex(f, g, rel.row_index, rel.col_index)
    return ValRel.from_payloads(rel.kind, f.keys(), g.keys(), run(rel.payloads()))
