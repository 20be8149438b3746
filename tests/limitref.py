"""Exact values at the limit for linear stacks, read from the models' JSON alone.

``limit(a, b)`` takes two documents in the form of ``System.to_json`` over
the stack ``["T", F]`` or ``[F]``, where ``F`` has at most one ``Id`` in
each summand, and returns the greatest fixpoint of the joint behaviour,
``{(state of a, state of b): value}``.  A ``[F]`` model branches by the
unit, so a specification read this way gives ``behaviour`` and two systems
give ``common_trace``.  Nothing here comes from the engine: an entry is a
pair of states, and its step pairs each term of one state with each term of
the other that is equal to it once its state is written as a hole.  A
matching pair of terms with no state is a stop; one with a state is an edge
to the pair of their states, weighted by the product of the two weights.

- bool: an entry is true iff it reaches a stop, or a cycle, through
  matching entries.
- prob: the greatest set of entries whose exact ``Fraction`` mass into the
  set is 1 holds 1.  Elsewhere the chain leaks, so ``(I - M) x = b`` has one
  solution, found exactly per strongly connected component in reverse
  topological order.
- tropical: the least cost of a path to a stop or into a cycle of zero
  cost: Tarjan on the zero-cost edges, then a multi-source Dijkstra on the
  reversed edges.
"""

import heapq
import json
import math
from fractions import Fraction


def _shape(term):
    """``term`` with its state written as a hole, as text, and that state (or None)."""
    found = []

    def walk(t, in_tuple=False):
        if type(t) is dict:
            if not in_tuple and list(t) == ["state"]:
                found.append(t["state"])
                return None
            return {k: walk(v, k == "tuple") for k, v in t.items()}
        if type(t) is list:
            return [walk(v) for v in t]
        return t

    shape = json.dumps(walk(term), sort_keys=True)
    if len(found) > 1:
        raise ValueError("a term with two states is not linear")
    return shape, (found[0] if found else None)


def _support(doc, value):
    """The ``(shape, state, weight)`` of each term a state's value branches to."""
    kind, stack = doc["kind"], doc["stack"]
    if stack[-1] == "T" or len(stack) - (stack[0] == "T") != 1:
        raise ValueError(f"not a linear stack: {stack}")
    if stack[0] != "T":  # the unit: the term alone, at weight one
        pairs = [(value, True if kind == "bool" else 1 if kind == "prob" else 0)]
    elif kind == "bool":
        pairs = [(t, True) for t in value]
    else:
        pairs = [(e["term"], math.inf if e["weight"] == "inf" else e["weight"]) for e in value]
    return [(*_shape(t), Fraction(w) if kind == "prob" else w) for t, w in pairs]


def _product(a, b):
    """Entries, each entry's stop weights and its ``(weight, successor)`` edges."""
    if a["kind"] != b["kind"]:
        raise ValueError("the two models are of different kinds")
    prob = a["kind"] == "prob"
    sa = {x: _support(a, a["transitions"][x]) for x in a["states"]}
    sb = {y: _support(b, b["transitions"][y]) for y in b["states"]}
    entries = [(x, y) for x in a["states"] for y in b["states"]]
    stops = {e: [] for e in entries}
    edges = {e: [] for e in entries}
    for x, y in entries:
        for shape, s, w in sa[x]:
            for shape2, t, v in sb[y]:
                if shape == shape2:
                    weight = w * v if prob else True if a["kind"] == "bool" else w + v
                    (stops[x, y].append(weight) if s is None
                     else edges[x, y].append((weight, (s, t))))
    return entries, stops, edges


def _sccs(nodes, succ):
    """Tarjan's strongly connected components, each after every one it reaches."""
    index, low, stack, out = {}, {}, [], []

    def visit(v):
        index[v] = low[v] = len(index)
        stack.append(v)
        for w in succ(v):
            if w not in index:
                visit(w)
                low[v] = min(low[v], low[w])
            elif w in stack:
                low[v] = min(low[v], index[w])
        if low[v] == index[v]:
            comp = stack[stack.index(v):]
            del stack[stack.index(v):]
            out.append(comp)

    for v in nodes:
        if v not in index:
            visit(v)
    return out


def _greatest(entries, keep):
    """The greatest set ``S`` of entries with ``keep(e, S)`` for each ``e`` in it."""
    live = set(entries)
    while True:
        drop = {e for e in live if not keep(e, live)}
        if not drop:
            return live
        live -= drop


def _bool(entries, stops, edges):
    live = _greatest(entries, lambda e, s: stops[e] or any(t in s for _, t in edges[e]))
    return {e: e in live for e in entries}


def _solve(rows, rhs):
    """Gauss-Jordan over ``Fraction``: ``rows`` is ``A`` as a list of dicts."""
    n = len(rhs)
    a = [[row.get(j, Fraction(0)) for j in range(n)] + [rhs[i]] for i, row in enumerate(rows)]
    for col in range(n):
        pivot = next(r for r in range(col, n) if a[r][col] != 0)
        a[col], a[pivot] = a[pivot], a[col]
        p = a[col][col]
        a[col] = [v / p for v in a[col]]
        for r in range(n):
            if r != col and a[r][col] != 0:
                f = a[r][col]
                a[r] = [v - f * u for v, u in zip(a[r], a[col])]
    return [a[i][n] for i in range(n)]


def _prob(entries, stops, edges):
    one = _greatest(entries, lambda e, s: sum(w for w, t in edges[e] if t in s) >= 1)
    value = {e: Fraction(1) for e in one}
    rest = [e for e in entries if e not in one]
    for comp in _sccs(rest, lambda e: [t for _, t in edges[e] if t not in one]):
        at = {e: i for i, e in enumerate(comp)}
        rows, rhs = [], []
        for e in comp:
            row, b = {at[e]: Fraction(1)}, sum(stops[e], Fraction(0))
            for w, t in edges[e]:
                if t in at:
                    row[at[t]] = row.get(at[t], 0) - w
                else:
                    b += w * value[t]
            rows.append(row)
            rhs.append(b)
        value.update(zip(comp, _solve(rows, rhs)))
    return value


def _tropical(entries, stops, edges):
    dist = {e: min(stops[e], default=math.inf) for e in entries}
    zero = lambda e: [t for w, t in edges[e] if w == 0]  # noqa: E731
    for comp in _sccs(entries, zero):
        if len(comp) > 1 or comp[0] in zero(comp[0]):
            dist.update(dict.fromkeys(comp, 0))
    back = {e: [] for e in entries}
    for e in entries:
        for w, t in edges[e]:
            back[t].append((w, e))
    heap = [(d, e) for e, d in dist.items() if d < math.inf]
    heapq.heapify(heap)
    while heap:
        d, e = heapq.heappop(heap)
        if d > dist[e]:  # an entry already settled lower
            continue
        for w, p in back[e]:
            if d + w < dist[p]:
                dist[p] = d + w
                heapq.heappush(heap, (d + w, p))
    return dist


def limit(a, b):
    """The greatest-fixpoint value of every pair of a state of ``a`` and of ``b``."""
    solve = {"bool": _bool, "prob": _prob, "tropical": _tropical}[a["kind"]]
    return solve(*_product(a, b))
