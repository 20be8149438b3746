"""Polynomial functor expressions and their finite-set terms.

Expressions are built from the identity, finite constants, binary
products, ordered finite coproducts and a power (finite exponent) form.
The textual grammar, used in model files, is:

    expr   := prod ('+' prod)*          n-ary coproduct, branch order kept
    prod   := power ('*' power)*        binary product, left associative
    power  := atom ('^' '{' names '}')*
    atom   := 'Id' | '{' names '}' | '(' expr ')'

so ``{*} + {a,b} * Id`` is "terminate, or emit a label and continue".
Terms render to canonical keys, so relation carriers built from them are
reproducible across runs; distinct terms have distinct keys.  Whether a
term is one of an expression is checked where it is resolved, by
:func:`ltbe.lifting.resolve_term` and :func:`~ltbe.lifting.validate_term`.
"""

from __future__ import annotations

import json
import re

from .errors import ParseError, TransitionTypeError
from .semiring import Record

_ATOM_RE = re.compile(r"[^\s{},]+")  # an atom of the grammar: a label or an exponent name


# --- expressions -------------------------------------------------------------

class PolyExpr(Record):
    """Base class for functor expressions."""

    __slots__ = ()


class Id(PolyExpr):
    __slots__ = ()


class Const(PolyExpr):
    __slots__ = ("labels",)

    def __post_init__(self) -> None:
        if not isinstance(self.labels, tuple) or not all(
                isinstance(a, str) and _ATOM_RE.fullmatch(a) for a in self.labels):
            raise ValueError(f"constant labels must be a tuple of atoms, got {self.labels!r}")
        if not self.labels:
            raise ValueError("constant label set must be nonempty")
        if len(set(self.labels)) != len(self.labels):
            raise ValueError(f"duplicate labels in {self.labels!r}")


class Prod(PolyExpr):
    __slots__ = ("left", "right")


class Coprod(PolyExpr):
    __slots__ = ("branches",)

    def __post_init__(self) -> None:
        if not isinstance(self.branches, tuple):
            raise ValueError(f"coproduct branches must be a tuple, got {self.branches!r}")
        # one branch would be an invisible wrapper the grammar cannot express
        if len(self.branches) < 2:
            raise ValueError("coproduct must have at least two branches")


class Power(PolyExpr):
    __slots__ = ("exponent", "body")

    def __post_init__(self) -> None:
        if not isinstance(self.exponent, tuple) or not all(
                isinstance(a, str) and _ATOM_RE.fullmatch(a) for a in self.exponent):
            raise ValueError(f"power exponent must be a tuple of atoms, got {self.exponent!r}")
        if not self.exponent:
            raise ValueError("power exponent must be nonempty")
        if len(set(self.exponent)) != len(self.exponent):
            raise ValueError(f"duplicate exponent atoms in {self.exponent!r}")


#: The one-point constant functor.
UNIT = Const(("*",))


# --- terms -------------------------------------------------------------------

class Value(Record):
    """Base class of the values that render a canonical key: terms and branching values."""

    __slots__ = ()


class PolyTerm(Value):
    """Base class for terms of a functor expression over a carrier.

    Every node renders to a canonical key string via :func:`value_key`;
    carriers of lifted relations are lists of such keys.
    """

    __slots__ = ()

    def key(self) -> str:
        return embed_key(self)


class StateRef(PolyTerm):
    """Identity position; the target is a carrier key or a nested value."""

    __slots__ = ("target",)


class Atom(PolyTerm):
    __slots__ = ("label",)


class Pair(PolyTerm):
    __slots__ = ("fst", "snd")


class Inj(PolyTerm):
    __slots__ = ("index", "arg")


class TupleTerm(PolyTerm):
    __slots__ = ("components",)


def embed_key(value: object) -> str:
    """A value as a key embeds it: a raw id by :func:`name_key`, a state
    reference by its target, the other terms in their formats, and a
    branching value by its own key.  Anything else is no value:
    :class:`TransitionTypeError`.  A term nests one call deep per level, as
    the decoder that reads it does."""
    if isinstance(value, str):
        return name_key(value)
    if isinstance(value, StateRef):
        return embed_key(value.target)
    if isinstance(value, Atom):
        return "@" + embed_key(value.label)
    if isinstance(value, Pair):
        return f"({embed_key(value.fst)},{embed_key(value.snd)})"
    if isinstance(value, Inj):
        return f"i{value.index}({embed_key(value.arg)})"
    if isinstance(value, TupleTerm):
        keys = []
        for c in value.components:  # ``map`` would add a frame a level: a call from C
            keys.append(embed_key(c))
        return "t(" + ";".join(keys) + ")"
    if isinstance(value, Value) and not isinstance(value, PolyTerm):
        return value.key()
    raise TransitionTypeError(f"{value!r} is not a state id, term or branching value")


def value_key(value: object) -> str:
    """Canonical key of a carrier element: a raw id or a structured value."""
    return value if isinstance(value, str) else embed_key(value)


_PLAIN_NAME = re.compile(r'[^\s(),;|:{}@"]+')


def name_key(name: str) -> str:
    """A raw state id or label as written inside a structured key.

    A plain name is written as itself and any other as a JSON string, so
    that no two distinct values share a key.
    """
    return name if name.isalnum() or _PLAIN_NAME.fullmatch(name) else json.dumps(name)


# --- textual grammar -----------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(Id\b|\{[^{}]*\}|[*+^()])")


def _parse_atom_list(braced: str) -> tuple[str, ...]:
    inner = braced[1:-1]
    parts = [p.strip() for p in inner.split(",")]
    if any(not p for p in parts):
        raise ParseError(f"empty atom in {braced!r}")
    for p in parts:
        if not _ATOM_RE.fullmatch(p):
            raise ParseError(f"bad atom {p!r} in {braced!r}")
    if len(set(parts)) != len(parts):
        raise ParseError(f"duplicate atoms in {braced!r}")
    return tuple(parts)


def _tokenize(text: str) -> list[str]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise ParseError(f"unexpected input at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


def parse_expr(text: str) -> PolyExpr:
    """Parse the textual functor grammar; see the module docstring."""
    tokens = _tokenize(text)[::-1]  # the next token last, where ``take`` pops it

    def peek() -> str | None:
        return tokens[-1] if tokens else None

    def take() -> str:
        if not tokens:
            raise ParseError(f"unexpected end of expression in {text!r}")
        return tokens.pop()

    def parse_coprod() -> PolyExpr:
        branches = [parse_prod()]
        while peek() == "+":
            take()
            branches.append(parse_prod())
        return branches[0] if len(branches) == 1 else Coprod(tuple(branches))

    def parse_prod() -> PolyExpr:
        node = parse_power()
        while peek() == "*":
            take()
            node = Prod(node, parse_power())
        return node

    def parse_power() -> PolyExpr:
        node = parse_primary()
        while peek() == "^":
            take()
            tok = take()
            if not tok.startswith("{"):
                raise ParseError(f"expected '{{...}}' after '^' in {text!r}")
            node = Power(_parse_atom_list(tok), node)
        return node

    def parse_primary() -> PolyExpr:
        tok = take()
        if tok == "Id":
            return Id()
        if tok.startswith("{"):
            return Const(_parse_atom_list(tok))
        if tok == "(":
            node = parse_coprod()
            if take() != ")":
                raise ParseError(f"missing ')' in {text!r}")
            return node
        raise ParseError(f"unexpected token {tok!r} in {text!r}")

    try:  # each bracket recurses, so over-deep input ends as a model file's does
        node = parse_coprod()
    except RecursionError:
        raise ParseError("input is nested too deeply") from None
    if tokens:
        raise ParseError(f"trailing tokens {tokens[::-1]!r} in {text!r}")
    return node


def expr_to_text(expr: PolyExpr, need: int = 0) -> str:
    """Render an expression so that ``parse_expr`` reads it back unchanged.

    A node binds at a level, ``+`` at 0, ``*`` at 1 and ``^`` at 2, and is bracketed
    where that is below what its position ``need``s: 1 left of ``*`` and in a ``+``
    branch, 2 right of ``*`` and under ``^``."""
    if isinstance(expr, Coprod):
        level, text = 0, " + ".join(expr_to_text(b, 1) for b in expr.branches)
    elif isinstance(expr, Prod):
        level, text = 1, f"{expr_to_text(expr.left, 1)} * {expr_to_text(expr.right, 2)}"
    elif isinstance(expr, Power):
        level, text = 2, f"{expr_to_text(expr.body, 2)}^{{{','.join(expr.exponent)}}}"
    elif isinstance(expr, (Id, Const)):  # an atom, never bracketed
        return "Id" if isinstance(expr, Id) else "{" + ",".join(expr.labels) + "}"
    else:
        raise TransitionTypeError(f"{expr!r} is not a functor expression")
    return f"({text})" if level < need else text
