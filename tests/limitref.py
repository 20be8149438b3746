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

``unfolded_limit(a, b)`` takes the same two documents over any stack, bool
or tropical, and unfolds each pair of values through it, as the oracle
expands them, into an AND/OR system whose nodes are pairs of values keyed
by their JSON texts.  Two terms of one shape are the product (an AND) of
the pairs at their leaves, and of different shapes zero; matching atoms
are one.  A branching value against another is the sum (an OR) over the
pairs of the two supports, each at the product of its weights; against a
value that does not branch, a specification's, it is the sum over its own
support at its own weights.  Two states are the pair of their transitions.

- bool: the greatest set of nodes in which an AND has every child and an
  OR some child, by counter-based removal.
- tropical: a product is the sum of its children's costs and a sum the
  least ``weight + cost``, infinite where one term is.  The greatest set
  of nodes at cost 0 (an OR needs a child over an edge of weight 0) costs
  0; from it, Knuth's generalization of Dijkstra's algorithm (IPL 1977)
  settles the rest, and a node that never settles costs ``inf``.
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


# --- every stack, bool and tropical -----------------------------------------


def _times(kind, w, v):
    """The product of two weights; a tropical sum with an infinite term is
    infinite, also beside an int beyond the float range."""
    if kind == "bool":
        return w and v
    return math.inf if math.inf in (w, v) else w + v


def _branches(kind, value):
    """A branching value's ``(weight, term)`` pairs; a bool value's terms weigh true."""
    if kind == "bool":
        return [(True, t) for t in value]
    return [(math.inf if e["weight"] == "inf" else e["weight"], e["term"]) for e in value]


def _tag(term):
    return "inj" if "inj" in term else next(iter(term))


def _unfold(a, b):
    """The rules of the AND/OR system of ``a`` against ``b``, and the node of
    each pair of their states.  A rule is ``("and", children)`` or ``("or",
    [(weight, child), ...])``; zero is an empty OR and one an empty AND."""
    kind, ta, tb = a["kind"], a["transitions"], b["transitions"]
    if kind != b["kind"] or kind not in ("bool", "tropical"):
        raise ValueError(f"not two bool or tropical models: {kind}, {b['kind']}")
    unit = True if kind == "bool" else 0
    index, rules, todo = {}, [], []

    def node(u, v):
        key = json.dumps(u, sort_keys=True), json.dumps(v, sort_keys=True)
        if key not in index:
            index[key] = len(rules)
            rules.append(None)
            todo.append((index[key], u, v))
        return index[key]

    def match(u, v, out):
        """Whether the terms ``u`` and ``v`` have one shape; the pairs at their
        leaves go to ``out``."""
        if type(u) is list or type(v) is list:
            out.append(node(u, v))
            return True
        tag = _tag(u)
        if tag != _tag(v):
            raise ValueError(f"terms of two types: {u}, {v}")
        if tag == "state":
            out.append(node(ta[u["state"]], tb[v["state"]]))
            return True
        if tag == "atom":
            return u["atom"] == v["atom"]
        if tag == "inj":
            return u["inj"] == v["inj"] and match(u["of"], v["of"], out)
        if tag == "pair":
            return all(match(x, y, out) for x, y in zip(u["pair"], v["pair"]))
        return all(match(u["tuple"][k], v["tuple"][k], out) for k in u["tuple"])

    tops = {(x, y): node(ta[x], tb[y]) for x in a["states"] for y in b["states"]}
    while todo:
        n, u, v = todo.pop()
        if type(u) is list:
            right = _branches(kind, v) if type(v) is list else [(unit, v)]
            rules[n] = ("or", [(_times(kind, w, z), node(x, y))
                               for w, x in _branches(kind, u) for z, y in right])
        elif type(v) is list:
            raise ValueError(f"only the first model branches where the second does not: {v}")
        else:
            out = []
            rules[n] = ("and", out) if match(u, v, out) else ("or", [])
    return rules, tops


def _one_set(rules, counts):
    """Whether each node is in the greatest set in which an AND has every child
    and an OR a child over an edge whose weight ``counts``, by counter-based removal."""
    parents = [[] for _ in rules]
    left = [1] * len(rules)  # an AND goes with its first child, an OR with its last
    for n, (op, kids) in enumerate(rules):
        if op == "or":
            kids = [kid for w, kid in kids if counts(w)]
            left[n] = len(kids)
        for kid in kids:
            parents[kid].append(n)
    live = [count > 0 for count in left]
    drop = [n for n, count in enumerate(left) if count == 0]
    while drop:
        for p in parents[drop.pop()]:
            left[p] -= 1
            if left[p] == 0:
                live[p] = False
                drop.append(p)
    return live


def _knuth(rules, seeds):
    """The least cost of each node, from the nodes ``seeds`` at cost 0: an AND
    settles, at the sum of its children's costs, once each of them has."""
    parents = [[] for _ in rules]
    pending = [0] * len(rules)
    for n, (op, kids) in enumerate(rules):
        if op == "and":
            pending[n] = len(kids)
            for kid in kids:
                parents[kid].append((None, n))
        else:
            for w, kid in kids:
                if w != math.inf:
                    parents[kid].append((w, n))
    cost, done = [math.inf] * len(rules), [False] * len(rules)
    heap = [(0, n) for n in seeds]
    while heap:
        d, n = heapq.heappop(heap)
        if done[n]:
            continue
        done[n], cost[n] = True, d
        for w, p in parents[n]:
            if done[p]:
                continue
            if w is not None:
                heapq.heappush(heap, (d + w, p))
            else:
                pending[p] -= 1
                if pending[p] == 0:
                    heapq.heappush(heap, (sum(cost[kid] for kid in rules[p][1]), p))
    return cost


def unfolded_limit(a, b):
    """The greatest-fixpoint value of every pair of a state of ``a`` and of
    ``b``, two bool or tropical models over any one stack, or a system and a
    specification of its linear part."""
    rules, tops = _unfold(a, b)
    if a["kind"] == "bool":
        live = _one_set(rules, bool)
        return {e: live[n] for e, n in tops.items()}
    live = _one_set(rules, lambda w: w == 0)
    cost = _knuth(rules, [n for n, at_zero in enumerate(live) if at_zero])
    return {e: cost[n] for e, n in tops.items()}
