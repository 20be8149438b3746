"""Independent bounded-depth evaluator used as ground truth in tests.

This module re-derives the depth-d matrices by direct structural
recursion over the stored transition values.  :func:`_arithmetic` writes
out each kind's zero, one, sum and product on raw payloads, chosen once
per run.  The module deliberately shares no code with the lifting or
engine modules: agreement between the two routes is the central
correctness check of the package.

One walk serves both queries.  The joint query sums, at each branching
layer, over both supports.  A specification is the system whose
branching is the unit (a Dirac value), and extending a relation along
the unit leaves it unchanged, so the behaviour query is the joint one
with the specification's support read as its current value at weight
one.  Multiplying by one returns the other operand unchanged, so every
sum has the same terms in the same order as a direct expansion.
"""

from __future__ import annotations

import math

from .errors import UndefinedSum, plain_int
from .polyfunctor import Const, Coprod, Id, Prod
from .relation import ValRel
from .semiring import PROB_EPS, SemiringKind
from .system import BranchLayer, SpecSystem, System, check_pair, check_spec


def _arithmetic(kind: SemiringKind):
    """``(zero, one, add, mul)`` of ``kind`` on raw payloads.

    A prob sum beyond ``1 + PROB_EPS`` raises :class:`UndefinedSum`; within
    that slack it is clamped to 1.  A tropical product with an infinite
    factor is infinite, also beside an int beyond the float range, where
    ``a + b`` would raise ``OverflowError``.
    """
    if kind is SemiringKind.BOOL:
        return False, True, lambda a, b: a or b, lambda a, b: a and b
    if kind is SemiringKind.TROPICAL:
        return math.inf, 0, min, lambda a, b: math.inf if math.inf in (a, b) else a + b

    def add(a, b):
        s = a + b
        if s > 1.0 + PROB_EPS:
            raise UndefinedSum(f"probability mass {s!r} escaped [0, 1]")
        return min(s, 1.0)

    return 0.0, 1.0, add, lambda a, b: a * b


def _expand(a: System, b: System, depth: int, joint: bool) -> ValRel:
    """``depth`` rounds of ``compare`` on every state pair, from the all-one table."""
    kind, layers = a.stack.kind, a.stack.layers
    zero, one, add, mul = _arithmetic(kind)
    bottom = len(layers)

    def compare(idx, u, v):
        """Depth-step value of ``u`` against ``v``; unless ``joint``, ``v`` branches by the unit."""
        if idx == bottom:
            return table[(u, v)]
        layer = layers[idx]
        if not isinstance(layer, BranchLayer):
            return terms(layer.expr, idx + 1, u, v)
        ys = [(y, w.payload) for y, w in v.entries] if joint else ((v, one),)
        acc = zero
        for x, xw in u.entries:
            for y, yw in ys:
                acc = add(acc, mul(mul(xw.payload, yw), compare(idx + 1, x, y)))
        return acc

    def terms(expr, below, u, v):
        """``u`` against ``v``, terms of ``expr``, whose ``Id`` leaves read layer ``below``."""
        if isinstance(expr, Id):
            return compare(below, u.target, v.target)
        if isinstance(expr, Const):
            return one if u.label == v.label else zero
        if isinstance(expr, Prod):
            left = terms(expr.left, below, u.fst, v.fst)
            return mul(left, terms(expr.right, below, u.snd, v.snd))
        if isinstance(expr, Coprod):
            if u.index != v.index:
                return zero
            return terms(expr.branches[u.index], below, u.arg, v.arg)
        acc = one  # a Power
        for cu, cv in zip(u.components, v.components):
            acc = mul(acc, terms(expr.body, below, cu, cv))
        return acc

    # ``compare`` reads ``table`` when called, so the next table is bound
    # only once the comprehension over the current one has finished
    table = {(c, z): one for c in a.states for z in b.states}
    for _ in range(depth):
        table = {
            (c, z): compare(0, a.transitions[c], b.transitions[z])
            for c in a.states
            for z in b.states
        }
    return ValRel.from_payloads(kind, a.states, b.states, list(table.values()))  # row-major


def oracle_matrix(sys: System, spec: SpecSystem, depth: int) -> ValRel:
    """The depth-``depth`` behaviour matrix, computed by definitional expansion."""
    if plain_int("depth", depth) < 0:
        raise ValueError("depth must be >= 0")
    check_spec(sys, spec)
    return _expand(sys, spec, depth, joint=False)


def oracle_common(sysA: System, sysB: System, depth: int) -> ValRel:
    """Depth-bounded joint-behaviour matrix of two systems of the same type."""
    if plain_int("depth", depth) < 0:
        raise ValueError("depth must be >= 0")
    check_pair(sysA, sysB)
    return _expand(sysA, sysB, depth, joint=True)
