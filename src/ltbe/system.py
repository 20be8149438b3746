"""Finite transition models: type stacks, systems, and specifications.

A type stack is an outside-in list of layers, each either a polynomial
expression or a branching layer of the stack's kind; ``[G, T, F]`` means
"a G-shaped observation of branching over F-shaped steps".  A system is a
finite carrier with one transition value per state, well typed against the
stack.  A specification is the branching-free case and describes the
linear-time behaviours to test against.

A model's constructor decodes its transitions in one walk straight into
rows, one per distinct value of each layer, found by its canonical key;
the walk recurses once per layer and once per term node.
Once each layer's keys are sorted, the keys in the rows become positions
in the layer below (``System.resolved``, the rows ``lifting.resolve_term``
and ``resolve_branch`` make of boxed values) and each state's key the
position of its transition (``System.top_positions``), so a run compiles
from positions alone.  The boxed values of :meth:`System.values_at` and
``System.transitions`` are rebuilt from the rows on first read.

The file format is JSON::

    {
      "kind": "bool" | "prob" | "tropical",
      "stack": ["<functor expr>" | "T", ...],
      "states": ["c0", ...],
      "transitions": {"c0": <value>, ...}
    }

where a polynomial value is a tagged node ``{"inj": i, "of": v}``,
``{"pair": [v, v]}``, ``{"atom": "a"}``, ``{"tuple": {"a": v, ...}}`` or,
at the innermost position, ``{"state": "c"}``; a branching value is a list
of successor values (bool) or a list of ``{"term": v, "weight": w}``
objects (prob and tropical).
"""

from __future__ import annotations

import json
from functools import cached_property, lru_cache

from .branching import BranchVal, branch_key, canonical, within_mass
from .errors import (
    DegenerateStack,
    ParseError,
    StackMismatch,
    TransitionTypeError,
    ValidationError,
)
from .lifting import TOP, times
from .polyfunctor import (
    Atom,
    Const,
    Coprod,
    Id,
    Inj,
    Pair,
    PolyExpr,
    Prod,
    StateRef,
    TupleTerm,
    expr_to_text,
    name_key,
    parse_expr,
)
from .semiring import OPS, Record, SemiringKind, SemiringValue, json_payload, json_value


class PolyLayer(Record):
    __slots__ = ("expr",)

    def __post_init__(self) -> None:
        expr_to_text(self.expr)  # anything but a functor expression raises TransitionTypeError


class BranchLayer(Record):
    __slots__ = ()


Layer = PolyLayer | BranchLayer


class TypeStack(Record):
    """An outside-in composition of polynomial and branching layers."""

    __slots__ = ("kind", "layers")

    def __init__(self, kind: SemiringKind, layers: tuple[Layer, ...]) -> None:
        OPS[kind]  # a kind that is no ``SemiringKind`` raises ``KindMismatch``
        if not isinstance(layers, tuple) or not all(isinstance(x, Layer) for x in layers):
            raise ValidationError(f"a type stack needs a tuple of layers, got {layers!r}")
        if not layers:
            raise ValidationError("a type stack needs at least one layer")
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "layers", layers)

    @property
    def is_linear(self) -> bool:
        return all(isinstance(layer, PolyLayer) for layer in self.layers)

    def layer_texts(self) -> list[str]:
        return [
            "T" if isinstance(layer, BranchLayer) else expr_to_text(layer.expr)
            for layer in self.layers
        ]


def linear_part(stack: TypeStack) -> TypeStack:
    """The stack with every branching layer erased; the type of specifications."""
    layers = tuple(layer for layer in stack.layers if isinstance(layer, PolyLayer))
    if not layers:
        raise DegenerateStack("the stack has no polynomial layer, so no observable shape")
    return TypeStack(stack.kind, layers)


def check_spec(sys: System, spec: SpecSystem) -> None:
    """Reject a specification whose stack is not ``linear_part(sys.stack)``, by layer
    tuples: models parsed with one stack text share layer objects, and no stack is built."""
    layers = tuple(layer for layer in sys.stack.layers if isinstance(layer, PolyLayer))
    if spec.stack.layers != layers or spec.stack.kind is not sys.stack.kind:
        linear_part(sys.stack)  # raises DegenerateStack if ``layers`` is empty
        raise StackMismatch(
            "the specification stack must be the linear part of the system stack"
        )


def check_pair(a: System, b: System) -> None:
    """Reject two systems that do not share one type stack."""
    if a.stack != b.stack:
        raise StackMismatch("the two systems must share one type stack")


# --- transition value codec ----------------------------------------------------

def _expected(node: str, raw, path: str) -> TransitionTypeError:
    """The error for ``raw`` where a term's ``node`` node (``"a pair"``, say) belongs."""
    node = node if isinstance(raw, dict) else "a term"
    return TransitionTypeError(f"{path}: expected {node} node, got {raw!r}")


def _row_decoder(stack: TypeStack, states, rows: list[dict]):
    """The decoder of the values of ``stack``'s layers over the state ids ``states``.

    ``decode(idx, raw, path, keys)`` checks that ``raw`` is a value of layer
    ``idx`` (a state reference past the last), appends its key to ``keys``
    and returns it as a term embeds it: a state id is its own key, embedded
    as its :func:`~ltbe.polyfunctor.name_key`.  It records each value of
    layer ``i`` under its key in ``rows[i]``, once: a term as ``(shape, tree,
    leaf keys)``, a branching value as ``(support keys, weights, key)``.
    ``term(expr, below, raw, path, shape, leaves)`` returns a term's key and
    product tree (see ``lifting.resolve_term``), appending its injection
    indices and labels to ``shape``; it decodes an ``Id`` leaf at layer
    ``below`` into ``leaves``.  The walk recurses once per layer and once per term node.
    """
    kind, layers, names = stack.kind, stack.layers, {s: name_key(s) for s in states}
    weighted = kind is not SemiringKind.BOOL

    def decode(idx, raw, path, keys):
        if idx == len(layers):
            if not (isinstance(raw, dict) and raw.keys() == {"state"}):
                raise TransitionTypeError(f"{path}: expected a state reference, got {raw!r}")
            if not isinstance(target := raw["state"], str):
                raise TransitionTypeError(f"{path}: expected a state id, got {target!r}")
            if target not in names:
                raise ValidationError(f"{path}: unknown state id {target!r}")
            keys.append(target)
            return names[target]
        if isinstance(layer := layers[idx], PolyLayer):
            shape, leaves = [], []
            key, tree = term(layer.expr, idx + 1, raw, path, shape, leaves)
            row = tuple(shape), tree, leaves
        else:
            if not isinstance(raw, list):
                raise TransitionTypeError(f"{path}: expected a branching list, got {raw!r}")
            support, inner, weights = [], [], [] if weighted else [True] * len(raw)
            for i, elem in enumerate(raw):
                at = f"{path}[{i}]"
                if weighted:  # a weight is decoded before its term
                    if not isinstance(elem, dict) or elem.keys() != {"term", "weight"}:
                        raise TransitionTypeError(
                            f"{at}: expected {{'term': ..., 'weight': ...}}, got {elem!r}")
                    weights.append(json_payload(kind, elem["weight"]))
                    elem = elem["term"]
                inner.append(decode(idx + 1, elem, at, support))
            try:
                support, inner, weights = canonical(kind, support, inner, weights)
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None
            if not within_mass(kind, weights):
                raise ValidationError(f"{path}: branching weights sum to more than 1")
            key = branch_key(kind, inner, weights)
            row = support, weights, key
        rows[idx].setdefault(key, row)
        keys.append(key)
        return key

    def term(expr, below, raw, path, shape, leaves):
        if isinstance(expr, Id):
            return decode(below, raw, path, leaves), len(leaves) - 1
        if isinstance(expr, Const):
            if not isinstance(raw, dict) or raw.keys() != {"atom"}:
                raise _expected("an atom", raw, path)
            if (label := raw["atom"]) not in expr.labels:
                raise TransitionTypeError(f"{path}: label {label!r} not in {expr.labels!r}")
            shape.append(label)
            return "@" + name_key(label), TOP
        if isinstance(expr, Prod):
            if (not isinstance(raw, dict) or raw.keys() != {"pair"}
                    or not isinstance(pair := raw["pair"], list) or len(pair) != 2):
                raise _expected("a pair", raw, path)
            fst, t = term(expr.left, below, pair[0], path + ".pair[0]", shape, leaves)
            snd, u = term(expr.right, below, pair[1], path + ".pair[1]", shape, leaves)
            return f"({fst},{snd})", times(t, u)
        if isinstance(expr, Coprod):
            if not isinstance(raw, dict) or raw.keys() != {"inj", "of"}:
                raise _expected("an injection", raw, path)
            index = raw["inj"]
            if type(index) is not int or not 0 <= index < len(expr.branches):
                raise TransitionTypeError(f"{path}: injection index {index!r} out of range")
            shape.append(index)
            key, tree = term(expr.branches[index], below, raw["of"], f"{path}.inj{index}",
                             shape, leaves)
            return f"i{index}({key})", tree
        if (not isinstance(raw, dict) or raw.keys() != {"tuple"}  # a Power
                or not isinstance(comps := raw["tuple"], dict)):
            raise _expected("a tuple", raw, path)
        if comps.keys() != set(expr.exponent):
            raise TransitionTypeError(f"{path}: tuple components {sorted(comps)!r} "
                                      f"do not match exponent {expr.exponent!r}")
        keys, trees = [], []
        for a in expr.exponent:
            key, tree = term(expr.body, below, comps[a], f"{path}.{a}", shape, leaves)
            keys.append(key)
            trees.append(tree)
        return "t(" + ";".join(keys) + ")", times(*trees)

    return decode


#: How :func:`_unfold_term` builds a term's nodes: boxed, or as a model file writes them.
_BOXED = (StateRef, Atom, Pair, Inj, lambda names, parts: TupleTerm(tuple(parts)))
_JSON = (lambda leaf: leaf, lambda label: {"atom": label}, lambda fst, snd: {"pair": [fst, snd]},
         lambda index, arg: {"inj": index, "of": arg},
         lambda names, parts: {"tuple": dict(zip(names, parts))})


def _unfold_term(expr: PolyExpr, shape, leaves, make):
    """The term of ``expr`` with the injection indices and labels ``shape`` and
    the ``Id`` leaves ``leaves``, each in key order, built by ``make``."""
    shape, leaves = iter(shape), iter(leaves)
    leaf, atom, pair, inj, power = make

    def walk(e: PolyExpr):
        if isinstance(e, Id):
            return leaf(next(leaves))
        if isinstance(e, Const):
            return atom(next(shape))
        if isinstance(e, Prod):
            return pair(walk(e.left), walk(e.right))
        if isinstance(e, Coprod):
            index = next(shape)
            return inj(index, walk(e.branches[index]))
        parts = []
        for _ in e.exponent:  # a comprehension would add a frame a level (before 3.12)
            parts.append(walk(e.body))
        return power(e.exponent, parts)

    return walk(expr)


# --- models ---------------------------------------------------------------------

class System:
    """A finite coalgebraic model: states plus one transition value each."""

    _linear = False  # whether the stack must have no branching layer, as a specification's

    def __init__(self, stack: TypeStack, states, transitions: dict) -> None:
        """Check the three arguments' types, then decode ``transitions``, each state's
        value as read from a model file, into ``resolved`` and ``top_positions``."""
        if not isinstance(stack, TypeStack):
            raise ValidationError(f"a model's stack must be a TypeStack, got {stack!r}")
        if not isinstance(states, (list, tuple)) or not all(isinstance(s, str) for s in states):
            raise ParseError("'states' must be a list of state ids")
        if not isinstance(transitions, dict):
            raise ParseError("'transitions' must be an object")
        states = tuple(states)
        rows: list[dict] = [{} for _ in stack.layers]
        decode, tops = _row_decoder(stack, states, rows), []
        for state, raw in transitions.items():
            decode(0, raw, f"transitions[{state!r}]", tops)
        # a malformed transition is reported first, then the stack, then the carrier
        if self._linear and not stack.is_linear:
            raise ValidationError("a specification stack must not contain branching layers")
        known, decoded = set(states), dict(zip(transitions, tops))
        if len(known) != len(states):
            raise ValidationError("duplicate state ids")
        missing = [s for s in states if s not in decoded]
        if missing:
            raise ValidationError(f"states without transitions: {missing!r}")
        extra = [s for s in decoded if s not in known]
        if extra:
            raise ValidationError(f"transitions for unknown states: {extra!r}")
        self.stack = stack
        self.states = states
        keys = [sorted(found) for found in rows] + [states]
        index = [{k: i for i, k in enumerate(ks)} for ks in keys]
        for layer, found, below in zip(stack.layers, rows, index[1:]):
            at = 0 if isinstance(layer, BranchLayer) else 2  # the row's key list
            for row in found.values():
                row[at][:] = map(below.__getitem__, row[at])
        #: Per layer, in key order, each value resolved to positions in the values of
        #: the layer below, or the states (see ``lifting.resolve_term``/``resolve_branch``).
        self.resolved = tuple([found[k] for k in ks] for found, ks in zip(rows, keys))
        #: The position in ``values_at(0)`` of each state's transition, in state order.
        self.top_positions = [index[0][decoded[s]] for s in states]

    def _unfold(self, bottom: list, make, branch) -> list[list]:
        """Every layer's values, outermost first, rebuilt from ``resolved`` over
        ``bottom``, one value per state: a term with the nodes of ``make`` (see
        :func:`_unfold_term`), a branching value by ``branch`` of its ``(item,
        weight)`` list.  A value below is shared by each value that holds it."""
        values = [bottom]
        for layer, rows in zip(reversed(self.stack.layers), reversed(self.resolved)):
            below = values[0]
            values.insert(0, [
                branch([(below[q], w) for q, w in zip(row[0], row[1])])
                if isinstance(layer, BranchLayer)
                else _unfold_term(layer.expr, row[0], map(below.__getitem__, row[2]), make)
                for row in rows
            ])
        return values

    @cached_property
    def _values(self) -> list[tuple]:
        kind = self.stack.kind
        return [tuple(v) for v in self._unfold(list(self.states), _BOXED, lambda entries: (
            BranchVal(kind, tuple((item, SemiringValue(kind, w)) for item, w in entries))))]

    def values_at(self, layer_index: int) -> tuple[object, ...]:
        """The values occurring at one layer, in canonical key order: the
        branching values at a branching layer and the terms of the layer's
        expression at a polynomial layer, boxed on first read."""
        return self._values[layer_index]

    @cached_property
    def transitions(self) -> dict:
        """Each state's transition value, boxed on first read."""
        return {s: self.values_at(0)[p] for s, p in zip(self.states, self.top_positions)}

    def to_json(self) -> dict:
        kind = self.stack.kind
        top = self._unfold([{"state": s} for s in self.states], _JSON, lambda entries: [
            {"term": item, "weight": json_value(w)}
            if kind is not SemiringKind.BOOL else item for item, w in entries])[0]
        return {
            "kind": kind.value,
            "stack": self.stack.layer_texts(),
            "states": list(self.states),
            "transitions": {s: top[p] for s, p in zip(self.states, self.top_positions)},
        }

    def to_text(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


class SpecSystem(System):
    """A branching-free model describing linear-time behaviours."""

    _linear = True


def _parse_common(model: type[System], text: str) -> System:
    # the JSON decoder, the functor grammar and the value decoder all recurse
    # once per nesting level, so over-deep input ends here, not in a traceback
    try:
        return model(*_parse_model(text))
    except RecursionError:
        raise ParseError("input is nested too deeply") from None


@lru_cache(maxsize=256)
def _layer(text: str) -> Layer:
    """The layer of a stack entry, ``"T"`` or an expression text.  Models parsed
    with one stack text share its layer objects, so comparing their stacks (on
    every query) finds each layer identical without walking its expression."""
    return BranchLayer() if text == "T" else PolyLayer(parse_expr(text))


def _parse_model(text: str) -> tuple[TypeStack, list[str], dict]:
    try:
        doc = json.loads(text)
    except ValueError as exc:  # a decode error, or an integer of over 4300 digits
        raise ParseError(f"invalid JSON: {exc}") from exc
    if not isinstance(doc, dict):
        raise ParseError("model file must be a JSON object")
    for field in ("kind", "stack", "states", "transitions"):
        if field not in doc:
            raise ParseError(f"missing field {field!r}")
    try:
        kind = SemiringKind(doc["kind"])
    except ValueError:
        raise ParseError(f"unknown kind {doc['kind']!r}") from None
    if not isinstance(doc["stack"], list) or not doc["stack"]:
        raise ParseError("'stack' must be a nonempty list")
    layers = []
    for entry in doc["stack"]:
        if not isinstance(entry, str):
            raise ParseError(f"bad stack entry {entry!r}")
        layers.append(_layer(entry))
    return TypeStack(kind, tuple(layers)), doc["states"], doc["transitions"]


def parse_system(text: str) -> System:
    """Parse and validate a system file."""
    return _parse_common(System, text)


def parse_spec(text: str) -> SpecSystem:
    """Parse and validate a specification file (no branching layers allowed)."""
    return _parse_common(SpecSystem, text)
