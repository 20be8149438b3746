"""Finite transition models: type stacks, systems, and specifications.

A type stack is an outside-in list of layers, each either a polynomial
expression or a branching layer of the stack's kind; ``[G, T, F]`` means
"a G-shaped observation of branching over F-shaped steps".  A system is a
finite carrier with one transition value per state, well typed against the
stack.  A specification is the branching-free case and describes the
linear-time behaviours to test against.  A model's constructor decodes its
transitions, in one walk over layer indices with the model's stack and
states bound once, and in that walk collects the distinct values at each
layer of the stack, which :meth:`System.values_at` lists.  It then resolves
each of those values once to integer positions in the layer below
(``System.resolved``) and each state to the position of its transition
(``System.top_positions``), so a run compiles from positions alone.

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
from functools import lru_cache

from .branching import BranchVal, validate_branchval
from .errors import (
    DegenerateStack,
    ParseError,
    TransitionTypeError,
    ValidationError,
)
from .lifting import resolve_branch, resolve_term
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
    parse_expr,
)
from .semiring import Record, SemiringKind, from_json_value, one, to_json_value


class PolyLayer(Record):
    __slots__ = ("expr",)


class BranchLayer(Record):
    __slots__ = ()


Layer = PolyLayer | BranchLayer


class TypeStack(Record):
    """An outside-in composition of polynomial and branching layers."""

    __slots__ = ("kind", "layers")

    def __init__(self, kind: SemiringKind, layers: tuple[Layer, ...]) -> None:
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


# --- transition value codec ----------------------------------------------------

def _decoder(stack: TypeStack, states, found):
    """The decoder of ``stack``'s values over the state ids ``states``.

    ``decode(idx, raw, path)`` decodes ``raw`` as a value of layer ``idx``,
    a state reference at ``idx == len(stack.layers)``, and records each
    layer's value under its key in ``found[idx]``.
    """
    layers, kind = stack.layers, stack.kind
    bottom = len(layers)
    unit = one(kind) if kind is SemiringKind.BOOL else None

    def decode(idx, raw, path):
        if idx == bottom:
            if not (isinstance(raw, dict) and set(raw) == {"state"}):
                raise TransitionTypeError(f"{path}: expected a state reference, got {raw!r}")
            target = raw["state"]
            if not isinstance(target, str):
                raise TransitionTypeError(f"{path}: expected a state id, got {target!r}")
            if target not in states:
                raise ValidationError(f"{path}: unknown state id {target!r}")
            return target
        layer = layers[idx]
        if isinstance(layer, BranchLayer):
            if not isinstance(raw, list):
                raise TransitionTypeError(f"{path}: expected a branching list, got {raw!r}")
            pairs = []
            for i, elem in enumerate(raw):
                at, weight = f"{path}[{i}]", unit
                if weight is None:  # a weight is decoded before its term
                    if not isinstance(elem, dict) or set(elem) != {"term", "weight"}:
                        raise TransitionTypeError(
                            f"{at}: expected {{'term': ..., 'weight': ...}}, got {elem!r}"
                        )
                    weight, elem = from_json_value(kind, elem["weight"]), elem["term"]
                pairs.append((decode(idx + 1, elem, at), weight))
            try:
                value = BranchVal(kind, tuple(pairs))
            except ValidationError as exc:
                raise ValidationError(f"{path}: {exc}") from None
            if not validate_branchval(value):
                raise ValidationError(f"{path}: branching weights sum to more than 1")
        else:
            value = term(layer.expr, idx + 1, raw, path)
        found[idx].setdefault(value.key(), value)
        return value

    def term(expr: PolyExpr, below: int, raw, path: str):
        """Decode ``raw`` as a term of ``expr`` whose ``Id`` leaves are values of layer ``below``."""
        if isinstance(expr, Id):
            return StateRef(decode(below, raw, path))
        if not isinstance(raw, dict):
            raise TransitionTypeError(f"{path}: expected a term node, got {raw!r}")
        if isinstance(expr, Const):
            if set(raw) != {"atom"}:
                raise TransitionTypeError(f"{path}: expected an atom node, got {raw!r}")
            if raw["atom"] not in expr.labels:
                raise TransitionTypeError(f"{path}: label {raw['atom']!r} not in {expr.labels!r}")
            return Atom(raw["atom"])
        if isinstance(expr, Prod):
            if set(raw) != {"pair"} or not isinstance(raw["pair"], list) or len(raw["pair"]) != 2:
                raise TransitionTypeError(f"{path}: expected a pair node, got {raw!r}")
            fst = term(expr.left, below, raw["pair"][0], path + ".pair[0]")
            return Pair(fst, term(expr.right, below, raw["pair"][1], path + ".pair[1]"))
        if isinstance(expr, Coprod):
            if set(raw) != {"inj", "of"}:
                raise TransitionTypeError(f"{path}: expected an injection node, got {raw!r}")
            index = raw["inj"]
            if not isinstance(index, int) or not 0 <= index < len(expr.branches):
                raise TransitionTypeError(f"{path}: injection index {index!r} out of range")
            return Inj(index, term(expr.branches[index], below, raw["of"], path + f".inj{index}"))
        if set(raw) != {"tuple"} or not isinstance(raw["tuple"], dict):  # a Power
            raise TransitionTypeError(f"{path}: expected a tuple node, got {raw!r}")
        if set(raw["tuple"]) != set(expr.exponent):
            raise TransitionTypeError(
                f"{path}: tuple components {sorted(raw['tuple'])!r} do not match exponent {expr.exponent!r}"
            )
        comps = []  # a loop: a comprehension would make this call's locals closure cells
        for a in expr.exponent:
            comps.append(term(expr.body, below, raw["tuple"][a], path + f".{a}"))
        return TupleTerm(tuple(comps))

    return decode


def _encoder(stack: TypeStack):
    """The inverse of :func:`_decoder`: ``encode(idx, value)`` renders a value of layer ``idx``."""
    layers, bottom = stack.layers, len(stack.layers)
    weighted = stack.kind is not SemiringKind.BOOL

    def encode(idx, value):
        if idx == bottom:
            return {"state": value}
        layer = layers[idx]
        if not isinstance(layer, BranchLayer):
            return term(layer.expr, idx + 1, value)
        if weighted:
            return [{"term": encode(idx + 1, item), "weight": to_json_value(weight)}
                    for item, weight in value.entries]
        return [encode(idx + 1, item) for item, _ in value.entries]

    def term(expr: PolyExpr, below: int, t):
        if isinstance(expr, Id):
            return encode(below, t.target)
        if isinstance(expr, Const):
            return {"atom": t.label}
        if isinstance(expr, Prod):
            return {"pair": [term(expr.left, below, t.fst), term(expr.right, below, t.snd)]}
        if isinstance(expr, Coprod):
            return {"inj": t.index, "of": term(expr.branches[t.index], below, t.arg)}
        comps = {}  # a Power
        for a, c in zip(expr.exponent, t.components):
            comps[a] = term(expr.body, below, c)
        return {"tuple": comps}

    return encode


# --- models ---------------------------------------------------------------------

class System:
    """A finite coalgebraic model: states plus one transition value each."""

    def __init__(self, stack: TypeStack, states, transitions: dict) -> None:
        """Decode ``transitions``, each state's value as read from a model file,
        collecting on the way the values that :meth:`values_at` lists."""
        states = tuple(states)
        known = set(states)
        found: list[dict[str, object]] = [{} for _ in stack.layers]
        decode = _decoder(stack, known, found)
        decoded = {
            state: decode(0, raw, f"transitions[{state!r}]") for state, raw in transitions.items()
        }
        # a malformed transition is reported first, then the stack, then the carrier
        self._check_stack(stack)
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
        self.transitions = decoded
        keys = [sorted(vals) for vals in found] + [states]
        index = [{k: i for i, k in enumerate(ks)} for ks in keys]
        self._values = tuple(tuple(vals[k] for k in ks) for vals, ks in zip(found, keys))
        #: Per layer, each value of ``values_at`` resolved to positions in the values of
        #: the layer below, or the states (see ``lifting.resolve_term``/``resolve_branch``).
        self.resolved = tuple(
            [resolve_branch(v, below) for v in vals]
            if isinstance(layer, BranchLayer)
            else [resolve_term(layer.expr, v, below) for v in vals]
            for layer, vals, below in zip(stack.layers, self._values, index[1:])
        )
        #: The position in ``values_at(0)`` of each state's transition, in state order.
        self.top_positions = [index[0][decoded[s].key()] for s in states]

    @staticmethod
    def _check_stack(stack: TypeStack) -> None:
        """Reject a stack this kind of model cannot have; a system may have any."""

    def values_at(self, layer_index: int) -> tuple[object, ...]:
        """The values occurring at one layer, in canonical key order.

        These are the branching values at a branching layer and the terms
        of the layer's expression at a polynomial layer; they are collected
        while the transitions are decoded.
        """
        return self._values[layer_index]

    def to_json(self) -> dict:
        encode = _encoder(self.stack)
        return {
            "kind": self.stack.kind.value,
            "stack": self.stack.layer_texts(),
            "states": list(self.states),
            "transitions": {s: encode(0, self.transitions[s]) for s in self.states},
        }

    def to_text(self) -> str:
        return json.dumps(self.to_json(), indent=2) + "\n"


class SpecSystem(System):
    """A branching-free model describing linear-time behaviours."""

    @staticmethod
    def _check_stack(stack: TypeStack) -> None:
        if not stack.is_linear:
            raise ValidationError("a specification stack must not contain branching layers")


def _parse_common(model: type[System], text: str) -> System:
    # the JSON decoder, the functor grammar and the value decoder all recurse
    # once per nesting level, so over-deep input ends here, not in a traceback
    try:
        return model(*_parse_model(text))
    except RecursionError:
        raise ParseError("input is nested too deeply") from None


@lru_cache(maxsize=256)
def _poly_layer(text: str) -> PolyLayer:
    """The layer of an expression text.  Models parsed with one stack text
    share its layer objects, so comparing their stacks (on every query)
    finds each layer identical without walking its expression."""
    return PolyLayer(parse_expr(text))


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
        if entry == "T":
            layers.append(BranchLayer())
        elif isinstance(entry, str):
            layers.append(_poly_layer(entry))
        else:
            raise ParseError(f"bad stack entry {entry!r}")
    stack = TypeStack(kind, tuple(layers))
    if not isinstance(doc["states"], list) or not all(isinstance(s, str) for s in doc["states"]):
        raise ParseError("'states' must be a list of state ids")
    if not isinstance(doc["transitions"], dict):
        raise ParseError("'transitions' must be an object")
    return stack, doc["states"], doc["transitions"]


def parse_system(text: str) -> System:
    """Parse and validate a system file."""
    return _parse_common(System, text)


def parse_spec(text: str) -> SpecSystem:
    """Parse and validate a specification file (no branching layers allowed)."""
    return _parse_common(SpecSystem, text)
