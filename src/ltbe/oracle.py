"""Independent bounded-depth evaluator used as ground truth in tests.

This module re-derives the depth-d matrices by direct structural
recursion over the stored transition values, with inlined per-kind
arithmetic.  It deliberately shares no code with the lifting or engine
modules: agreement between the two routes is the central correctness
check of the package.

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

from .errors import StackMismatch
from .polyfunctor import Const, Coprod, Id, Power, Prod
from .relation import ValRel
from .semiring import PROB_EPS, SemiringKind, SemiringValue
from .system import BranchLayer, SpecSystem, System, linear_part


def _raw_one(kind: SemiringKind):
    if kind is SemiringKind.BOOL:
        return True
    if kind is SemiringKind.PROB:
        return 1.0
    return 0


def _raw_zero(kind: SemiringKind):
    if kind is SemiringKind.BOOL:
        return False
    if kind is SemiringKind.PROB:
        return 0.0
    return math.inf


def _raw_add(kind: SemiringKind, a, b):
    if kind is SemiringKind.BOOL:
        return a or b
    if kind is SemiringKind.TROPICAL:
        return min(a, b)
    s = a + b
    assert s <= 1.0 + PROB_EPS, "probability mass escaped [0, 1]"
    return min(s, 1.0)


def _raw_mul(kind: SemiringKind, a, b):
    if kind is SemiringKind.BOOL:
        return a and b
    if kind is SemiringKind.TROPICAL:
        return a + b
    return a * b


def _compare(layers, idx, kind, u, v, table, joint):
    """Depth-step value of ``u`` against ``v``; unless ``joint``, ``v`` branches by the unit."""
    if idx == len(layers):
        return table[(u, v)]
    layer = layers[idx]
    if not isinstance(layer, BranchLayer):
        return _compare_terms(layer.expr, layers, idx, kind, u, v, table, joint)
    ys = [(y, w.payload) for y, w in v.entries] if joint else ((v, _raw_one(kind)),)
    acc = _raw_zero(kind)
    for x, xw in u.entries:
        for y, yw in ys:
            below = _compare(layers, idx + 1, kind, x, y, table, joint)
            acc = _raw_add(kind, acc, _raw_mul(kind, _raw_mul(kind, xw.payload, yw), below))
    return acc


def _compare_terms(expr, layers, idx, kind, u, v, table, joint):
    if isinstance(expr, Id):
        return _compare(layers, idx + 1, kind, u.target, v.target, table, joint)
    if isinstance(expr, Const):
        return _raw_one(kind) if u.label == v.label else _raw_zero(kind)
    if isinstance(expr, Prod):
        return _raw_mul(
            kind,
            _compare_terms(expr.left, layers, idx, kind, u.fst, v.fst, table, joint),
            _compare_terms(expr.right, layers, idx, kind, u.snd, v.snd, table, joint),
        )
    if isinstance(expr, Coprod):
        if u.index != v.index:
            return _raw_zero(kind)
        branch = expr.branches[u.index]
        return _compare_terms(branch, layers, idx, kind, u.arg, v.arg, table, joint)
    assert isinstance(expr, Power)
    acc = _raw_one(kind)
    for cu, cv in zip(u.components, v.components):
        below = _compare_terms(expr.body, layers, idx, kind, cu, cv, table, joint)
        acc = _raw_mul(kind, acc, below)
    return acc


def _expand(a: System, b: System, depth: int, joint: bool) -> ValRel:
    """``depth`` rounds of :func:`_compare` on every state pair, from the all-one table."""
    kind, layers = a.stack.kind, a.stack.layers
    table = {(c, z): _raw_one(kind) for c in a.states for z in b.states}
    for _ in range(depth):
        table = {
            (c, z): _compare(layers, 0, kind, a.transitions[c], b.transitions[z], table, joint)
            for c in a.states
            for z in b.states
        }
    return ValRel(
        kind,
        a.states,
        b.states,
        [[SemiringValue(kind, table[(c, z)]) for z in b.states] for c in a.states],
    )


def oracle_matrix(sys: System, spec: SpecSystem, depth: int) -> ValRel:
    """The depth-``depth`` behaviour matrix, computed by definitional expansion."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if spec.stack != linear_part(sys.stack):
        raise StackMismatch(
            "the specification stack must be the linear part of the system stack"
        )
    return _expand(sys, spec, depth, joint=False)


def oracle_common(sysA: System, sysB: System, depth: int) -> ValRel:
    """Depth-bounded joint-behaviour matrix of two systems of the same type."""
    if depth < 0:
        raise ValueError("depth must be >= 0")
    if sysA.stack != sysB.stack:
        raise StackMismatch("the two systems must share one type stack")
    return _expand(sysA, sysB, depth, joint=True)
