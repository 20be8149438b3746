"""Answer checks made apart from the engine.

The checker reads the model JSON texts itself, with its own reader of the
functor grammar and its own arithmetic, and evaluates the one-step maps of
``behaviour``, ``common`` and ``bisim`` on plain payloads.  The only ltbe
calls it makes are ``parse_system``/``parse_spec`` and the bounded-depth
oracle (``oracle_matrix``/``oracle_common``), which is the package's own
independent ground truth.  No answer is compared with a stored output.

An answer is the CSV text that ``result.to_csv()`` renders, decoded here,
so a rendering fault counts as a wrong answer too.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re

#: The engine stops prob iteration once no entry moves by more than 1e-9,
#: and CSV keeps 9 decimals, so the last iterate is a fixpoint up to this.
FIX_TOL = 1e-8
#: Prob entries that both routes compute to the same depth agree up to
#: float fold order and CSV rounding.
EXACT_TOL = 1e-9
#: Depths of the oracle iterates a cyclic answer must lie below.
SMALL_DEPTHS = (1, 2, 3)

# --- functor expressions -------------------------------------------------------

_TOKEN = re.compile(r"\s*(Id\b|\{[^{}]*\}|[*+^()])")


def parse_functor(text: str):
    """Read a functor expression into nested tuples.

    ``("id",)``, ``("const", labels)``, ``("prod", left, right)``,
    ``("coprod", branches)`` and ``("power", exponent, body)``.
    """
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ValueError(f"bad functor expression {text!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    tokens.append(None)
    at = 0

    def take():
        nonlocal at
        at += 1
        return tokens[at - 1]

    def labels(tok):
        return tuple(p.strip() for p in tok[1:-1].split(","))

    def coprod():
        branches = [prod()]
        while tokens[at] == "+":
            take()
            branches.append(prod())
        return branches[0] if len(branches) == 1 else ("coprod", tuple(branches))

    def prod():
        node = power()
        while tokens[at] == "*":
            take()
            node = ("prod", node, power())
        return node

    def power():
        node = primary()
        while tokens[at] == "^":
            take()
            node = ("power", labels(take()), node)
        return node

    def primary():
        tok = take()
        if tok == "Id":
            return ("id",)
        if tok == "(":
            node = coprod()
            take()
            return node
        return ("const", labels(tok))

    return coprod()


class Model:
    """A model file as plain data: layers are ``None`` for ``T`` or a functor tree."""

    def __init__(self, text: str) -> None:
        doc = json.loads(text)
        self.kind = doc["kind"]
        self.layers = tuple(None if s == "T" else parse_functor(s) for s in doc["stack"])
        self.states = list(doc["states"])
        self.transitions = doc["transitions"]


# --- arithmetic on payloads ------------------------------------------------------

ZERO = {"bool": False, "prob": 0.0, "tropical": math.inf}
ONE = {"bool": True, "prob": 1.0, "tropical": 0}


def add(kind, a, b):
    if kind == "bool":
        return a or b
    if kind == "prob":
        return a + b
    return min(a, b)


def mul(kind, a, b):
    if kind == "bool":
        return a and b
    if kind == "prob":
        return a * b
    return a + b


def below(kind, a, b) -> bool:
    """The natural order; tropical is numerically reversed."""
    if kind == "bool":
        return (not a) or b
    if kind == "prob":
        return a <= b + EXACT_TOL
    return a >= b


def close(kind, a, b, tol) -> bool:
    if kind == "prob":
        return abs(a - b) <= tol
    return a == b


def _branches(kind, raw):
    """(item, weight) pairs of a branching list, zero weights dropped."""
    if kind == "bool":
        return [(item, True) for item in raw]
    out = []
    for entry in raw:
        w = entry["weight"]
        w = math.inf if w == "inf" else w
        if w != ZERO[kind]:
            out.append((entry["term"], w))
    return out


# --- one-step maps ----------------------------------------------------------------


class Stepper:
    """One refinement step of ``mode`` (behaviour, common or bisim) on plain tables.

    A table maps (left state, right state) to a payload.  For ``behaviour``
    the left model is the system and the right one the spec, whose stack is
    the system's with every ``T`` erased.
    """

    def __init__(self, mode: str, left: Model, right: Model) -> None:
        self.mode = mode
        self.kind = left.kind
        self.left = left
        self.right = right

    def step(self, table: dict) -> dict:
        self.table = table
        return {
            (c, d): self._value(0, self.left.transitions[c], self.right.transitions[d])
            for c in self.left.states
            for d in self.right.states
        }

    def top(self) -> dict:
        return {(c, d): ONE[self.kind] for c in self.left.states for d in self.right.states}

    def _value(self, i, u, v):
        layers = self.left.layers
        if i == len(layers):
            return self.table[(u["state"], v["state"])]
        if layers[i] is not None:
            return self._term(layers[i], i, u, v)
        kind = self.kind
        if self.mode == "bisim":
            xs = [x for x, _ in _branches(kind, u)]
            ys = [y for y, _ in _branches(kind, v)]
            rel = [[self._value(i + 1, x, y) for y in ys] for x in xs]
            forth = all(any(row) for row in rel)
            back = all(any(row[j] for row in rel) for j in range(len(ys)))
            return forth and back
        acc = ZERO[kind]
        for x, wx in _branches(kind, u):
            if self.mode == "behaviour":
                acc = add(kind, acc, mul(kind, wx, self._value(i + 1, x, v)))
                continue
            for y, wy in _branches(kind, v):
                acc = add(kind, acc, mul(kind, mul(kind, wx, wy), self._value(i + 1, x, y)))
        return acc

    def _term(self, e, i, u, v):
        kind = self.kind
        tag = e[0]
        if tag == "id":
            return self._value(i + 1, u, v)
        if tag == "const":
            return ONE[kind] if u["atom"] == v["atom"] else ZERO[kind]
        if tag == "prod":
            return mul(kind, self._term(e[1], i, u["pair"][0], v["pair"][0]),
                       self._term(e[2], i, u["pair"][1], v["pair"][1]))
        if tag == "coprod":
            if u["inj"] != v["inj"]:
                return ZERO[kind]
            return self._term(e[1][u["inj"]], i, u["of"], v["of"])
        acc = ONE[kind]
        for a in e[1]:
            acc = mul(kind, acc, self._term(e[2], i, u["tuple"][a], v["tuple"][a]))
        return acc

    def greatest_fixpoint(self) -> dict:
        """Iterate from the top table until it repeats; only for exact (bool) kinds."""
        table = self.top()
        while True:
            nxt = self.step(table)
            if nxt == table:
                return table
            table = nxt


# --- answers ------------------------------------------------------------------------


def decode_csv(kind: str, text: str):
    """The (row keys, col keys, table) of a rendered matrix."""
    rows = list(csv.reader(io.StringIO(text)))
    cols = rows[0][1:]
    table = {}
    for line in rows[1:]:
        for col, cell in zip(cols, line[1:]):
            if kind == "bool":
                value = {"0": False, "1": True}[cell]
            elif kind == "tropical":
                value = math.inf if cell == "inf" else int(cell)
            else:
                value = float(cell)
            table[(line[0], col)] = value
    return [line[0] for line in rows[1:]], cols, table


def _first_difference(kind, got: dict, want: dict, tol) -> str | None:
    for key, w in want.items():
        if not close(kind, got[key], w, tol):
            return f"cell {key} is {got[key]!r}, expected {w!r}"
    return None


def _oracle(ltbe, query, depth):
    if query.op == "behaviour":
        rel = ltbe.oracle_matrix(ltbe.parse_system(query.a), ltbe.parse_spec(query.b), depth)
    else:
        rel = ltbe.oracle_common(ltbe.parse_system(query.a), ltbe.parse_system(query.b), depth)
    return {(r, c): rel.get(r, c).payload for r in rel.rows for c in rel.cols}


def _fixpoint_fault(kind, stepper, got) -> str | None:
    bad = _first_difference(kind, stepper.step(got), got, FIX_TOL)
    return "not a fixpoint: " + bad if bad else None


def check_answer(ltbe, query, csv_text: str) -> str | None:
    """None when ``csv_text`` is a right answer to ``query``, else the reason it is not."""
    left, right = Model(query.a), Model(query.b)
    kind = left.kind
    try:
        rows, cols, got = decode_csv(kind, csv_text)
    except (KeyError, ValueError, IndexError) as exc:
        return f"unreadable CSV: {exc!r}"
    if rows != left.states or cols != right.states or len(got) != len(rows) * len(cols):
        return "rows or columns are not the two state lists"
    stepper = Stepper(query.op, left, right)
    if query.check == "expect":
        return _first_difference(kind, got, query.expect, FIX_TOL)
    if query.check == "acyclic":
        bad = _first_difference(kind, got, _oracle(ltbe, query, query.depth), EXACT_TOL)
        if bad:
            return f"differs from the depth-{query.depth} oracle: " + bad
        return _fixpoint_fault(kind, stepper, got)
    if query.check == "bisim":
        lifted = stepper.step(got)
        for key, related in got.items():
            if related and not lifted[key]:
                return f"related pair {key} breaks the forall-exists condition"
        return _first_difference(kind, got, stepper.greatest_fixpoint(), 0)
    # cyclic: a fixpoint below every small oracle iterate; bool is exact
    bad = _fixpoint_fault(kind, stepper, got)
    if bad:
        return bad
    for depth in SMALL_DEPTHS:
        bound = _oracle(ltbe, query, depth)
        for key, value in got.items():
            if not below(kind, value, bound[key]):
                return f"cell {key} = {value!r} is above the depth-{depth} oracle {bound[key]!r}"
    if kind == "bool":
        return _first_difference(kind, got, stepper.greatest_fixpoint(), 0)
    return None
