"""Greatest-fixpoint computation of linear-time behaviour values.

The one-step operator pushes the current relation through the shared type
stack from the innermost layer outwards, over only the values that occur
in the two models: polynomial layers act on both sides, and branching
layers abstract branching on both sides, a specification's being the
unit, as the oracle reads it.  The outermost layer is lifted over each
state's own transition, so its cells are the relation's.  Iterating the
step from the everywhere-1 relation produces a descending chain whose
limit measures, for every pair of a system state and a specification
state, the extent to which the former can exhibit the latter's
behaviour.

The step is compiled once per run into a program of layers of cells, the
semiring's reads, weighted folds and products (see :mod:`ltbe.relation`),
from the integer positions each model resolved its values to when it was
parsed, so compiling reads no keys.  Every layer reads one position
space: its source's positions, and the constants at ``ZERO`` and ``ONE``
whatever the source's size.  A branching layer is a layer of folds kept
as flat columns, and one kernel (``relation.kernel``) evaluates the cells
of a layer of either form.  A polynomial layer whose cells are single
reads (at most one ``Id`` per summand) is fused into its neighbour, so a
``[T, F]`` step is one layer of folds read straight off the relation.
Iteration is semi-naive: after the first round, only the cells reading a
position that changed are re-evaluated, by the same operations in the
same order, so every iterate is the full pass's bit for bit.

Iteration is truncated at finitely many steps.  Bool converges exactly on
finite carriers; prob converges up to a tolerance; a tropical entry whose
limit is infinity climbs by its lap cost forever, so its run ends on the
budget (or on a threshold) with an honest "not converged" report.
``bisimilarity`` is partition refinement, round for round the forall-exists chain.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import count

from .errors import CarrierMismatch, KindMismatch, MonotonicityViolation, plain_int
from .lifting import compile_double_extension, compile_poly, unit_columns
from .relation import ONE, ZERO, Folds, ValRel, kernel, reads
from .semiring import OPS, Record, SemiringKind, SemiringValue, prob_all_leq, prob_max_gap
from .system import BranchLayer, SpecSystem, System, check_pair, check_spec


class FixpointOptions(Record):
    """Knobs for the truncated fixpoint iteration.

    ``max_iterations`` defaults to ``10 * rows * cols + 10`` for the run at
    hand.  ``tolerance`` is the prob convergence bound (bool and tropical
    require an exact repeat).  When ``threshold`` is set, a prob or
    tropical run stops early once every entry is strictly below it, since
    the iterates descend and an entry can never climb back; this is
    reported via ``threshold_decided``.  A bool run needs no such stop:
    below ``true`` means ``false`` everywhere, which repeats on the next
    round.
    """

    __slots__ = ("max_iterations", "tolerance", "threshold")

    def __init__(self, max_iterations: int | None = None, tolerance: float = 1e-9,
                 threshold: SemiringValue | None = None) -> None:
        if max_iterations is not None and plain_int("max_iterations", max_iterations) < 1:
            raise ValueError("max_iterations must be >= 1")
        if isinstance(tolerance, bool) or not isinstance(tolerance, (int, float)):
            raise ValueError(f"tolerance must be a real number, got {tolerance!r}")
        if not tolerance >= 0:  # NaN too
            raise ValueError("tolerance must be >= 0")
        if threshold is not None and not isinstance(threshold, SemiringValue):
            raise ValueError(f"threshold must be a SemiringValue, got {threshold!r}")
        object.__setattr__(self, "max_iterations", max_iterations)
        object.__setattr__(self, "tolerance", tolerance)
        object.__setattr__(self, "threshold", threshold)


class FixpointReport(Record):
    """Outcome of one fixpoint run; ``result`` is the last iterate.

    ``stop_reason`` is ``converged``, ``budget`` (``max_iterations`` ran
    out) or ``threshold``; ``converged`` and ``threshold_decided`` are read
    off it.
    """

    __slots__ = ("result", "iterations", "final_gap", "stop_reason")

    def __init__(self, result: ValRel, iterations: int, final_gap: float, stop_reason: str
                 ) -> None:
        object.__setattr__(self, "result", result)
        object.__setattr__(self, "iterations", iterations)
        object.__setattr__(self, "final_gap", final_gap)
        object.__setattr__(self, "stop_reason", stop_reason)

    @property
    def converged(self) -> bool:
        return self.stop_reason == "converged"

    @property
    def threshold_decided(self) -> bool:
        return self.stop_reason == "threshold"


_DEFAULTS = FixpointOptions()  # the options of a run given none


def _select(below: list, cells: list, ones: tuple) -> None:
    """Fold a layer of single reads into the layer ``below`` by picking its cells.

    Each column of ``below`` is padded with the cells that give the two
    constants, at the last two slots as in every source list, so ``ZERO``
    and ``ONE`` pick them like any position: a read keeps its constant, and
    in a layer of folds zero sums nothing and one is ``ONE`` at the weights
    ``ones``: the kind's one, or none for bool, whose folds carry no weights.
    """
    picked = below[0]
    if type(picked) is not Folds:
        below[0] = list(map((picked + [ZERO, ONE]).__getitem__, cells))
        return
    W, P, V = picked.weights + [(), ones], picked.positions + [[], [ONE]], picked.where + [(), ()]
    below[0] = Folds(list(map(W.__getitem__, cells)), list(map(P.__getitem__, cells)),
                     list(map(V.__getitem__, cells)))


def _walker(left: System, right: System) -> list:
    """The one-step operator of a run between the states of two models, as a program.

    Each step pushes the relation through the left model's layers, from
    the innermost outwards, over the values that occur in the two models,
    resolved to positions (``System.resolved``): ``compile_poly`` at a
    polynomial layer, ``compile_double_extension`` at a branching layer.
    A specification has no branching layers: it branches by the unit, as
    the oracle reads it, so its layer ``j`` is the left model's ``j``-th
    polynomial layer and a branching layer lifts against the unit on each
    of its values below.  The outermost layer is lifted over each state's
    own value, at the two models' top positions, so its cells are the
    relation's.  The program is the list of fused layers; the first reads
    and the last writes the relation, a row-major payload list over the two
    state sets.  One pass from the top makes each layer ``(cells, users,
    live)``: ``users[p]`` lists the live cells that read position ``p``, and
    ``live`` the layer's live cells, all of the last layer's and below it
    those that a live cell above reads, each ascending.
    """
    rows, cols = len(left.states), len(right.states)
    kind, j = left.stack.kind, len(right.stack.layers)
    ones = () if kind is SemiringKind.BOOL else (OPS[kind].one,)
    program = []  # the fused layers: [cells, source size, every cell a single read]
    for idx in reversed(range(len(left.stack.layers))):
        layer, mine = left.stack.layers[idx], left.resolved[idx]
        unit = isinstance(layer, BranchLayer) and right.stack.is_linear
        j -= not unit  # the right model's layers, counted down from its last
        theirs = unit_columns(kind, cols) if unit else right.resolved[j]
        if idx == 0:
            mine = [mine[p] for p in left.top_positions]
            theirs = [theirs[p] for p in right.top_positions]
        below = program[-1] if program and program[-1][2] else None
        source = below[0] if below else None
        if isinstance(layer, BranchLayer):
            cells = compile_double_extension(kind, rows, cols, mine, theirs, source=source)
            pure = False
        else:
            cells = compile_poly(rows, cols, mine, theirs, source=source)
            pure = tuple not in map(type, cells)
        if below is not None:  # compiled to read through the layer below
            program[-1] = [cells, below[1], pure]
        elif program and pure:
            _select(program[-1], cells, ones)
        else:
            program.append([cells, rows * cols, pure])
        rows, cols = len(mine), len(theirs)
    out, live = [], range(len(program[-1][0]))  # every cell of the last layer is the relation's
    for cells, size, _ in reversed(program):  # top down
        if out:  # the cells that a live cell above reads
            live = [p for p, ks in enumerate(out[-1][1]) if ks]
        users = [[] for _ in range(size + 2)]  # and the two constants' slots, dropped below
        read = cells.positions.__getitem__ if type(cells) is Folds else lambda k: reads(cells[k])
        for k in live:
            for p in read(k):
                users[p].append(k)
        del users[size:]
        out.append((cells, users, live))
    return out[::-1]


def _rounds(program: list, kind: SemiringKind, flat: list) -> Iterator[tuple[list, list, list]]:
    """Iterate ``program`` from the payload list ``flat``, semi-naively.

    The first round evaluates every layer's live cells in ascending order; a
    dead cell keeps the zero constant, which no cell reads.  A later round
    evaluates, as a set, the cells that read a position changed (``!=``) in
    the round, or for the first layer in the round before: a layer's cells
    are independent, and descended inputs raise nothing.  One pass over a
    layer's new values records each changed cell, its old and its new value,
    and writes the new value in place; the kernel has already evaluated the
    whole layer, so the relation can be both the last layer's input and its
    output.  Each round yields the relation, updated in place and followed
    by the two constants that end every source list (for ``ZERO`` and
    ``ONE``), and the old and new values of its changed cells, in one order.
    """
    run = kernel(kind)
    consts = [OPS[kind].zero, OPS[kind].one]
    cur = flat + consts
    outs: list = [None] * len(program)
    last = len(program) - 1
    changed = None  # every position, in the first round
    while True:
        src = cur
        for depth, (cells, users, live) in enumerate(program):
            todo = live if changed is None else {k for p in changed for k in users[p]}
            new = run(cells, todo, src)
            old = cur if depth == last else outs[depth]
            if old is None:
                outs[depth] = src = [consts[0]] * len(cells) + consts
                for k, v in zip(todo, new):
                    src[k] = v
                continue
            changed, olds, news = [], [], []
            for k, v in zip(todo, new):
                if v != (o := old[k]):
                    changed.append(k)
                    olds.append(o)
                    news.append(v)
                    old[k] = v
            src = old
        yield cur, olds, news


def _chain(program: list, start: ValRel, steps: int) -> list[ValRel]:
    if plain_int("steps", steps) < 0:
        raise ValueError("steps must be >= 0")
    out = [start]
    n = len(start.rows) * len(start.cols)
    for _, (cur, _, _) in zip(range(steps), _rounds(program, start.kind, start.payloads())):
        out.append(ValRel._wrap(start.kind, start.rows, start.cols, cur[:n]))
    return out


def step_operator(sys: System, spec: SpecSystem, rel: ValRel) -> ValRel:
    """One refinement step of the behaviour relation between system and spec."""
    check_spec(sys, spec)
    if rel.kind is not sys.stack.kind:
        raise KindMismatch("relation kind does not match the system kind")
    if rel.rows != sys.states or rel.cols != spec.states:
        raise CarrierMismatch("relation carriers must be the two state sets")
    return _chain(_walker(sys, spec), rel, 1)[1]


def _run_fixpoint(program: list, kind: SemiringKind, rows: tuple, cols: tuple,
                  opts: FixpointOptions | None, start: list | None = None) -> FixpointReport:
    """Iterate ``program`` from ``start`` (one everywhere by default) and box the last iterate.

    The checks read each round's old and new values of the changed cells
    only, since an unchanged cell has gap 0 and is below itself.  A bool or
    tropical run converges on a round that changes no cell, the exact
    repeat it needs, so its gap is computed for the report alone.
    """
    ops = OPS[kind]
    opts = opts or _DEFAULTS
    threshold = opts.threshold
    if threshold is not None and threshold.kind is not kind:
        raise KindMismatch(f"cannot combine {kind.value} with {threshold.kind.value}")
    n = len(rows) * len(cols)
    limit = opts.max_iterations or 10 * n + 10
    prob = kind is SemiringKind.PROB

    def report(cur: list, i: int, reason: str):  # the gap of the last round's changes
        result = ValRel._wrap(kind, rows, cols, cur[:n])
        return FixpointReport(result, i, max(map(ops.gap, news, olds), default=0.0), reason)

    # an all-false bool iterate repeats on the next round, so it converges instead
    bound = threshold.payload if threshold is not None and kind is not SemiringKind.BOOL else None
    for i, (cur, olds, news) in zip(range(1, limit + 1), _rounds(program, kind, start or [ops.one] * n)):
        if not (prob_all_leq(news, olds) if prob else all(map(ops.leq, news, olds))):
            raise MonotonicityViolation(
                f"iterate {i} is not below its predecessor; the operator is not descending"
            )
        if prob_max_gap(news, olds) <= opts.tolerance if prob else not news:
            return report(cur, i, "converged")
        if bound is not None and all(ops.leq(v, bound) and not ops.leq(bound, v) for v in cur[:n]):
            return report(cur, i, "threshold")
    return report(cur, limit, "budget")


def behaviour(sys: System, spec: SpecSystem, opts: FixpointOptions | None = None) -> FixpointReport:
    """Greatest-fixpoint behaviour values of every (system state, spec state) pair."""
    check_spec(sys, spec)
    return _run_fixpoint(_walker(sys, spec), sys.stack.kind, sys.states, spec.states, opts)


def iterates(sys: System, spec: SpecSystem, steps: int) -> list[ValRel]:
    """The first ``steps`` refinement iterates, starting from the top relation."""
    check_spec(sys, spec)
    start = ValRel.top(sys.states, spec.states, sys.stack.kind)
    return _chain(_walker(sys, spec), start, steps)


def common_trace(sysA: System, sysB: System, opts: FixpointOptions | None = None) -> FixpointReport:
    """To what extent two systems can exhibit one and the same behaviour.

    Branching is abstracted on both sides, so the fixpoint entry at (c, d)
    is trace existence, joint probability, or joint minimal cost.
    """
    check_pair(sysA, sysB)
    return _run_fixpoint(_walker(sysA, sysB), sysA.stack.kind, sysA.states, sysB.states, opts)


def common_iterates(sysA: System, sysB: System, steps: int) -> list[ValRel]:
    check_pair(sysA, sysB)
    start = ValRel.top(sysA.states, sysB.states, sysA.stack.kind)
    return _chain(_walker(sysA, sysB), start, steps)


def bisimilarity(sysA: System, sysB: System) -> FixpointReport:
    """Largest bisimulation between two boolean systems, by partition refinement.

    Each round classes the values of both models in one table, innermost
    layer first: a polynomial value by its shape and leaves' classes, a
    branching value by its successors' classes as a set, a state by its
    transition's.  On the pairs of a state of each model, round ``k`` is the
    ``k``-th forall-exists iterate from the all-true relation, which reads
    only such pairs; ``iterations`` is the first round to repeat the last.
    """
    if sysA.stack.kind is not SemiringKind.BOOL:
        raise KindMismatch("bisimilarity is only defined for bool systems")
    check_pair(sysA, sysB)
    classes = [[0] * len(sysA.states), [0] * len(sysB.states)]  # round 0: one class
    rel = [True] * (len(sysA.states) * len(sysB.states))
    for rounds in count(1):  # the relations descend on a finite set, so this ends
        table: dict = {}
        for idx in reversed(range(len(sysA.stack.layers))):
            branch = isinstance(sysA.stack.layers[idx], BranchLayer)
            classes = [[table.setdefault(frozenset(map(c.__getitem__, v[0])) if branch else
                                         (v[0], tuple(map(c.__getitem__, v[2]))), len(table))
                        for v in m.resolved[idx]] for m, c in zip((sysA, sysB), classes)]
        classes = [[c[p] for p in m.top_positions] for m, c in zip((sysA, sysB), classes)]
        new = [x == y for x in classes[0] for y in classes[1]]
        if new == rel:
            result = ValRel._wrap(SemiringKind.BOOL, sysA.states, sysB.states, rel)
            return FixpointReport(result, rounds, 0.0, "converged")
        rel = new
