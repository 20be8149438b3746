"""Greatest-fixpoint computation of linear-time behaviour values.

The one-step operator pushes the current relation through the shared type
stack from the innermost layer outwards, over only the values that occur
in the two models (polynomial layers act on both sides, branching layers
abstract the system side), and finally reads the lifted relation back
along the two transition maps.  Iterating it from the everywhere-1
relation produces a descending chain whose limit measures, for every pair
of a system state and a specification state, the extent to which the
former can exhibit the latter's behaviour.

Iteration is truncated at finitely many steps.  Bool converges exactly on
finite carriers; prob converges up to a tolerance; tropical chains may
climb towards infinity without ever stabilizing, which a divergence cap
turns into an honest "not converged" report.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from itertools import product
from typing import Callable

from .branching import BranchVal, dirac
from .errors import CarrierMismatch, KindMismatch, MonotonicityViolation, StackMismatch
from .lifting import (
    Compiled,
    compile_double_extension,
    compile_egli_milner,
    compile_extension,
    compile_poly,
    lift_extension,
)
from .polyfunctor import value_key
from .relation import ValRel, compile_reindex
from .semiring import (
    INF,
    OPS,
    LawCheck,
    RawOps,
    SemiringKind,
    SemiringValue,
    add,
    mul,
    values_equal,
    zero,
)
from .system import BranchLayer, SpecSystem, System, linear_part


@dataclass(frozen=True, slots=True)
class FixpointOptions:
    """Knobs for the truncated fixpoint iteration.

    ``max_iterations`` defaults to ``10 * rows * cols + 10`` for the run at
    hand.  ``tolerance`` is the prob convergence bound (bool and tropical
    require an exact repeat).  When ``threshold`` is set, iteration may
    stop early once every entry is strictly below it and can never climb
    back, reported via ``threshold_decided``.  ``divergence_cap`` bounds
    finite tropical entries; beyond it a still-moving chain is reported as
    non-convergent.
    """

    max_iterations: int | None = None
    tolerance: float = 1e-9
    threshold: SemiringValue | None = None
    divergence_cap: int = 10**6

    def __post_init__(self) -> None:
        if self.max_iterations is not None and self.max_iterations < 1:
            raise ValueError("max_iterations must be >= 1")
        if not self.tolerance >= 0:  # NaN too
            raise ValueError("tolerance must be >= 0")
        if not self.divergence_cap >= 0:
            raise ValueError("divergence_cap must be >= 0")


@dataclass(frozen=True, slots=True)
class FixpointReport:
    """Outcome of one fixpoint run; ``result`` is the last iterate."""

    result: ValRel
    iterations: int
    converged: bool
    final_gap: float
    threshold_decided: bool = False


def _check_behaviour_inputs(sys: System, spec: SpecSystem) -> None:
    if spec.stack != linear_part(sys.stack):
        raise StackMismatch(
            "the specification stack must be the linear part of the system stack"
        )


def _check_pair_inputs(sysA: System, sysB: System, rel: ValRel) -> None:
    if sysA.stack != sysB.stack:
        raise StackMismatch("the two systems must share one type stack")
    if rel.kind is not sysA.stack.kind:
        raise KindMismatch("relation kind does not match the systems")
    if rel.rows != sysA.states or rel.cols != sysB.states:
        raise CarrierMismatch("relation carriers must be the two state sets")


def _extend_left(kind, rows, cols, left_values, right_values) -> Compiled:
    return compile_extension(kind, rows, cols, left_values)


def _index(keys) -> dict[object, int]:
    return {k: i for i, k in enumerate(keys)}


def _walker(
    left: System, right: System, branch_lift: Callable[..., Compiled]
) -> Callable[[list], list]:
    """The one-step operator of a run between the states of two models.

    Each step pushes the relation through the left model's layers, from
    the innermost outwards, over the values that occur in the two models:
    ``compile_poly`` at a polynomial layer, ``branch_lift`` at a branching
    layer.  It then reads the result back along the two transition maps.
    A specification has no branching layers, so its layer ``j`` is the
    left model's ``j``-th polynomial layer and ``branch_lift`` gets no
    values for it.  Every layer is compiled once, here, and the step maps
    a row-major list of raw payloads over the two state sets to the next.
    """
    plan = []
    j = 0
    for idx, layer in enumerate(left.stack.layers):
        if isinstance(layer, BranchLayer) and right.stack.is_linear:
            plan.append((layer, left.values_at(idx), ()))
        else:
            plan.append((layer, left.values_at(idx), right.values_at(j)))
            j += 1
    kind = left.stack.kind
    rows, cols = _index(left.states), _index(right.states)
    runs = []
    for layer, left_values, right_values in reversed(plan):
        compile_layer = (
            branch_lift if isinstance(layer, BranchLayer) else partial(compile_poly, layer.expr)
        )
        run, row_keys, col_keys = compile_layer(kind, rows, cols, left_values, right_values)
        runs.append(run)
        rows, cols = _index(row_keys), _index(col_keys)
    f = {c: value_key(left.transitions[c]) for c in left.states}
    g = {d: value_key(right.transitions[d]) for d in right.states}
    runs.append(compile_reindex(f, g, rows, cols))

    def step(cur: list) -> list:
        for run in runs:
            cur = run(cur)
        return cur

    return step


def _chain(step: Callable[[list], list], start: ValRel, steps: int) -> list[ValRel]:
    out = [start]
    cur = start.payloads()
    for _ in range(steps):
        cur = step(cur)
        out.append(ValRel.from_payloads(start.kind, start.rows, start.cols, cur))
    return out


def step_operator(sys: System, spec: SpecSystem, rel: ValRel) -> ValRel:
    """One refinement step of the behaviour relation between system and spec."""
    _check_behaviour_inputs(sys, spec)
    if rel.kind is not sys.stack.kind:
        raise KindMismatch("relation kind does not match the system kind")
    if rel.rows != sys.states or rel.cols != spec.states:
        raise CarrierMismatch("relation carriers must be the two state sets")
    cur = _walker(sys, spec, _extend_left)(rel.payloads())
    return ValRel.from_payloads(rel.kind, rel.rows, rel.cols, cur)


def _threshold_settled(cur: list, prev: list, threshold, ops: RawOps, exact: bool) -> bool:
    if exact and cur != prev:
        return False
    leq = ops.leq
    return all(leq(v, threshold) and not leq(threshold, v) for v in cur)


def _run_fixpoint(
    step: Callable[[list], list],
    start: ValRel,
    opts: FixpointOptions,
) -> FixpointReport:
    """Iterate ``step`` on raw payload lists from ``start`` and box the last iterate."""
    kind = start.kind
    ops = OPS[kind]
    threshold = opts.threshold
    if threshold is not None and threshold.kind is not kind:
        raise KindMismatch(f"cannot combine {kind.value} with {threshold.kind.value}")
    limit = opts.max_iterations
    if limit is None:
        limit = 10 * len(start.rows) * len(start.cols) + 10

    def report(cur: list, i: int, converged: bool, gap: float, decided: bool = False):
        result = ValRel.from_payloads(kind, start.rows, start.cols, cur)
        return FixpointReport(result, i, converged, gap, decided)

    prev = start.payloads()
    cur = prev
    gap_now = INF
    for i in range(1, limit + 1):
        cur = step(prev)
        if not all(map(ops.leq, cur, prev)):
            raise MonotonicityViolation(
                f"iterate {i} is not below its predecessor; the operator is not descending"
            )
        gap_now = max(map(ops.gap, cur, prev), default=0.0)
        if kind is SemiringKind.PROB:
            converged = gap_now <= opts.tolerance
        else:
            converged = gap_now == 0.0
        if converged:
            return report(cur, i, True, gap_now)
        if kind is SemiringKind.TROPICAL and any(
            v != INF and v > opts.divergence_cap for v in cur
        ):
            return report(cur, i, False, gap_now)
        if threshold is not None and _threshold_settled(
            cur, prev, threshold.payload, ops, kind is not SemiringKind.PROB
        ):
            return report(cur, i, False, gap_now, True)
        prev = cur
    return report(cur, limit, False, gap_now)


def behaviour(sys: System, spec: SpecSystem, opts: FixpointOptions | None = None) -> FixpointReport:
    """Greatest-fixpoint behaviour values of every (system state, spec state) pair."""
    _check_behaviour_inputs(sys, spec)
    opts = opts or FixpointOptions()
    start = ValRel.top(sys.states, spec.states, sys.stack.kind)
    return _run_fixpoint(_walker(sys, spec, _extend_left), start, opts)


def iterates(sys: System, spec: SpecSystem, steps: int) -> list[ValRel]:
    """The first ``steps`` refinement iterates, starting from the top relation."""
    _check_behaviour_inputs(sys, spec)
    start = ValRel.top(sys.states, spec.states, sys.stack.kind)
    return _chain(_walker(sys, spec, _extend_left), start, steps)


def common_trace(sysA: System, sysB: System, opts: FixpointOptions | None = None) -> FixpointReport:
    """To what extent two systems can exhibit one and the same behaviour.

    Branching is abstracted on both sides, so the fixpoint entry at (c, d)
    is trace existence, joint probability, or joint minimal cost.
    """
    opts = opts or FixpointOptions()
    start = ValRel.top(sysA.states, sysB.states, sysA.stack.kind)
    _check_pair_inputs(sysA, sysB, start)
    return _run_fixpoint(_walker(sysA, sysB, compile_double_extension), start, opts)


def common_iterates(sysA: System, sysB: System, steps: int) -> list[ValRel]:
    start = ValRel.top(sysA.states, sysB.states, sysA.stack.kind)
    _check_pair_inputs(sysA, sysB, start)
    return _chain(_walker(sysA, sysB, compile_double_extension), start, steps)


def bisimilarity(sysA: System, sysB: System) -> FixpointReport:
    """Largest bisimulation between two boolean systems, computed exactly.

    Branching layers use the two-sided forall-exists lifting, so this is
    the classical partition-refinement style fixpoint and converges in at
    most rows * cols + 1 steps.
    """
    if sysA.stack.kind is not SemiringKind.BOOL:
        raise KindMismatch("bisimilarity is only defined for bool systems")
    start = ValRel.top(sysA.states, sysB.states, SemiringKind.BOOL)
    _check_pair_inputs(sysA, sysB, start)
    return _run_fixpoint(_walker(sysA, sysB, compile_egli_milner), start, FixpointOptions())


# --- desk-scale monad consistency checks -----------------------------------------


@dataclass(frozen=True, slots=True)
class MonadReport:
    """Exhaustive small-carrier check that branching and truth values agree.

    ``injective`` states that a branching value over a disjoint union is
    determined by its two restrictions (partial additivity);
    ``additive`` states that every pair of restrictions is realized, which
    fails for prob where the witness pair of masses exceeds 1.
    """

    kind: SemiringKind
    size_bound: int
    injective: bool
    additive: bool
    partiality_witness: tuple[BranchVal, BranchVal] | None
    checks: tuple[LawCheck, ...]

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
        for c in self.checks:
            if c.passed:
                lines.append(f"  PASS {c.name}")
            else:
                lines.append(f"  FAIL {c.name}: {c.counterexample}")
        return "\n".join(lines)


def _weight_grid(kind: SemiringKind) -> tuple[SemiringValue, ...]:
    if kind is SemiringKind.BOOL:
        return (SemiringValue(kind, False), SemiringValue(kind, True))
    if kind is SemiringKind.PROB:
        return tuple(SemiringValue(kind, w) for w in (0.0, 0.25, 0.5, 0.75, 1.0))
    return tuple(SemiringValue(kind, w) for w in (INF, 0, 1, 2))


def _grid_branchvals(kind: SemiringKind, carrier: list[str]) -> list[BranchVal]:
    grid = _weight_grid(kind)
    out = []
    for combo in product(grid, repeat=len(carrier)):
        bv = BranchVal(kind, tuple(zip(carrier, combo)))
        if kind is SemiringKind.PROB and bv.total_mass() > 1.0:
            continue
        out.append(bv)
    seen: dict[str, BranchVal] = {}
    for bv in out:
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


def check_monad_consistency(kind: SemiringKind, size_bound: int = 2) -> MonadReport:
    """Verify, on exhaustively enumerated small instances, that the branching
    representation and the truth-value semiring fit together.

    Checks: the split map from values over a disjoint union to pairs of
    restrictions is injective; its partiality matches the partiality of
    the semiring addition; extending a relation along a one-point support
    with unit weight changes nothing; and extension is linear in weighted
    mixtures of branching values.
    """
    if not 1 <= size_bound <= 4:
        raise ValueError("size_bound must be between 1 and 4")
    xs = [f"x{i}" for i in range(size_bound)]
    ys = [f"y{i}" for i in range(size_bound)]

    union_vals = _grid_branchvals(kind, xs + ys)
    image: dict[tuple[str, str], list[BranchVal]] = {}
    xset, yset = set(xs), set(ys)
    for w in union_vals:
        pair_key = (_restrict(w, xset).key(), _restrict(w, yset).key())
        image.setdefault(pair_key, []).append(w)
    injective = all(len(v) == 1 for v in image.values())

    left_vals = _grid_branchvals(kind, xs)
    right_vals = _grid_branchvals(kind, ys)
    witness = None
    for lv, rv in product(left_vals, right_vals):
        if (lv.key(), rv.key()) not in image:
            witness = (lv, rv)
            break
    additive = witness is None

    checks = []

    # Induced addition on single points agrees with the semiring addition:
    # a two-point value over a disjoint union exists iff the sum is defined,
    # and collapsing the two points onto one yields exactly that sum.
    failure = None
    grid = _weight_grid(kind)
    for a, b in product(grid, repeat=2):
        summed = add(a, b)
        joint = BranchVal(kind, (("p", a), ("q", b)))
        realizable = kind is not SemiringKind.PROB or joint.total_mass() <= 1.0
        if realizable != (summed is not None):
            failure = f"definedness of {a.payload!r} + {b.payload!r} disagrees"
            break
        if summed is not None:
            collapsed = _mix(kind, [(a, dirac(kind, "r")), (b, dirac(kind, "r"))])
            got = collapsed.entries[0][1] if collapsed.entries else zero(kind)
            if not values_equal(got, summed):
                failure = (
                    f"collapsed weight of ({a.payload!r}, {b.payload!r}) is "
                    f"{got.payload!r}, expected {summed.payload!r}"
                )
                break
    checks.append(LawCheck("induced-add-agrees", failure is None, failure))

    # Unit law: extending along a one-point unit-weight support is a no-op.
    failure = None
    rel_rows = xs[: min(2, len(xs))]
    rel_cols = ys[:1]
    for combo in product(grid, repeat=len(rel_rows) * len(rel_cols)):
        it = iter(combo)
        rel = ValRel(
            kind, rel_rows, rel_cols, [[next(it) for _ in rel_cols] for _ in rel_rows]
        )
        for x in rel_rows:
            d = dirac(kind, x)
            lifted = lift_extension(rel, [d])
            for y in rel_cols:
                if lifted.get(d.key(), y) != rel.get(x, y):
                    failure = f"unit extension changed the value at ({x!r}, {y!r})"
                    break
        if failure:
            break
    checks.append(LawCheck("extension-unit", failure is None, failure))

    # Linearity: extension of a weighted mixture is the weighted sum of extensions.
    failure = None
    inner_vals = _grid_branchvals(kind, rel_rows)
    outer_pairs = [
        (wa, wb)
        for wa, wb in product(grid, repeat=2)
        if kind is not SemiringKind.PROB or wa.payload + wb.payload <= 1.0
    ]
    rel_grid = list(product(grid, repeat=len(rel_rows) * len(rel_cols)))
    for combo in rel_grid[:: max(1, len(rel_grid) // 8)]:
        it = iter(combo)
        sample_rel = ValRel(
            kind, rel_rows, rel_cols, [[next(it) for _ in rel_cols] for _ in rel_rows]
        )
        for t1, t2 in product(inner_vals, repeat=2):
            for wa, wb in outer_pairs:
                mixed = _mix(kind, [(wa, t1), (wb, t2)])
                lifted = lift_extension(sample_rel, [mixed])
                part1 = lift_extension(sample_rel, [t1])
                part2 = lift_extension(sample_rel, [t2])
                for y in rel_cols:
                    lhs = lifted.get(mixed.key(), y)
                    rhs = add(
                        mul(wa, part1.get(t1.key(), y)),
                        mul(wb, part2.get(t2.key(), y)),
                    )
                    if rhs is None or not values_equal(lhs, rhs):
                        failure = (
                            f"linearity fails for weights ({wa.payload!r}, {wb.payload!r})"
                        )
                        break
                if failure:
                    break
            if failure:
                break
        if failure:
            break
    checks.append(LawCheck("extension-linear", failure is None, failure))

    return MonadReport(
        kind=kind,
        size_bound=size_bound,
        injective=injective,
        additive=additive,
        partiality_witness=witness,
        checks=tuple(checks),
    )
