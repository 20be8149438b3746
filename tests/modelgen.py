"""Shared fixtures: hand-built models and a seeded random model corpus."""

import json
import math
import random

from ltbe import (
    BranchLayer,
    BranchVal,
    SemiringKind,
    SemiringValue,
    ValRel,
    parse_expr,
    parse_spec,
    parse_system,
)
from ltbe.polyfunctor import Atom, Const, Coprod, Id, Inj, Pair, Power, Prod, StateRef

F_EXPRS = ("{*} + {a} * Id", "{*} + {a,b} * Id", "{a,b} * Id")
G_EXPRS = ("{o1,o2} * Id", "({*} + Id)^{i}")
SHAPES = ("TF", "GT", "GTF")

#: Stacks with several ``Id`` in a summand, where ``limitref.limit`` reads no model.
MULTI_ID = (
    ["{n,y} * Id^{a,b}", "T"],
    ["Id^{a,b,c}", "T"],
    ["({*} + Id)^{go,halt}", "T", "{*} + {a} * Id"],
    ["{*} + {a} * Id * Id", "T"],
)


# --- hand-built models -------------------------------------------------------

LTS_F = "{*} + {a} * Id"


def lts_terms(labels, keys):
    """Every term of ``{*} + {<labels>} * Id`` over ``keys``: 1 + len(labels) * len(keys).

    Listed in the order of the lexicographic enumeration: termination
    first, then label-major, key-minor.
    """
    return [Inj(0, Atom("*"))] + [
        Inj(1, Pair(Atom(label), StateRef(k))) for label in labels for k in keys
    ]


def stop_term():
    return {"inj": 0, "of": {"atom": "*"}}


def step_term(label, state):
    return {"inj": 1, "of": {"pair": [{"atom": label}, {"state": state}]}}


def loop_exit_system(kind="bool"):
    """One state that may stop or loop on 'a' (the coin system for prob)."""
    doc = {
        "kind": kind,
        "stack": ["T", LTS_F],
        "states": ["c"],
        "transitions": {"c": None},
    }
    if kind == "bool":
        doc["transitions"]["c"] = [stop_term(), step_term("a", "c")]
    elif kind == "prob":
        doc["transitions"]["c"] = [
            {"term": stop_term(), "weight": 0.5},
            {"term": step_term("a", "c"), "weight": 0.5},
        ]
    else:
        doc["transitions"]["c"] = [
            {"term": stop_term(), "weight": 1},
            {"term": step_term("a", "c"), "weight": 2},
        ]
    return parse_system(json.dumps(doc))


def omega_spec(kind="bool"):
    """Single spec state looping on 'a' forever."""
    doc = {
        "kind": kind,
        "stack": [LTS_F],
        "states": ["zw"],
        "transitions": {"zw": step_term("a", "zw")},
    }
    return parse_spec(json.dumps(doc))


def chain_spec(n, kind="prob"):
    """Spec with states z<n> -> ... -> z0 -> stop: the behaviour a^n then stop."""
    states = [f"z{i}" for i in range(n, -1, -1)]
    transitions = {"z0": stop_term()}
    for i in range(1, n + 1):
        transitions[f"z{i}"] = step_term("a", f"z{i-1}")
    doc = {"kind": kind, "stack": [LTS_F], "states": states, "transitions": transitions}
    return parse_spec(json.dumps(doc))


def pure_loop_system(kind="bool"):
    doc = {
        "kind": kind,
        "stack": ["T", LTS_F],
        "states": ["c"],
        "transitions": {"c": [step_term("a", "c")]},
    }
    return parse_system(json.dumps(doc))


def loop_with_exit_to_deadlock(kind="bool"):
    doc = {
        "kind": kind,
        "stack": ["T", LTS_F],
        "states": ["d", "dd"],
        "transitions": {
            "d": [step_term("a", "d"), step_term("a", "dd")],
            "dd": [],
        },
    }
    return parse_system(json.dumps(doc))


def tropical_stopper(cost, state="c"):
    doc = {
        "kind": "tropical",
        "stack": ["T", LTS_F],
        "states": [state],
        "transitions": {state: [{"term": stop_term(), "weight": cost}]},
    }
    return parse_system(json.dumps(doc))


#: A tropical cost no float can hold; JSON writes all its 401 digits.
HUGE = 10**400


def far_step_doc():
    """A tropical LTS whose ``c`` steps on ``a``, at the cost ``HUGE``, to the
    deadlocked ``d``: its next cost is ``HUGE`` plus ``d``'s ``inf``."""
    return {"kind": "tropical", "stack": ["T", LTS_F], "states": ["c", "d"], "transitions": {
        "c": [{"term": step_term("a", "d"), "weight": HUGE}], "d": [],
    }}


def doubling_docs():
    """A tropical ``Id^{a,b}`` system and its one-state specification.

    ``c`` costs ``(1 + c) + (0 + c)``, so from 0 its cost is ``2**n - 1``
    after ``n`` rounds, ``d`` is ``inf`` and ``e`` costs ``c + d``: from round
    1025 on, ``e``'s product adds an int beyond the float range to ``inf``.
    """
    def arm(state, weight):
        return [{"term": {"state": state}, "weight": weight}]

    system = {"kind": "tropical", "stack": ["Id^{a,b}", "T"], "states": ["c", "d", "e"],
              "transitions": {"c": {"tuple": {"a": arm("c", 1), "b": arm("c", 0)}},
                              "d": {"tuple": {"a": [], "b": []}},
                              "e": {"tuple": {"a": arm("c", 0), "b": arm("d", 0)}}}}
    spec = {"kind": "tropical", "stack": ["Id^{a,b}"], "states": ["z"],
            "transitions": {"z": {"tuple": {"a": {"state": "z"}, "b": {"state": "z"}}}}}
    return system, spec


# --- random values and relations ----------------------------------------------

def random_value(rng, kind):
    if kind is SemiringKind.BOOL:
        return SemiringValue(kind, rng.random() < 0.5)
    if kind is SemiringKind.PROB:
        return SemiringValue(kind, round(rng.random(), 6))
    return SemiringValue(kind, rng.choice((0, 1, 2, 3, 5, 8, math.inf)))


def random_valrel(rng, kind, rows, cols):
    return ValRel.tabulate(kind, rows, cols, lambda r, c: random_value(rng, kind))


def lowered(rng, rel):
    """A fresh relation pointwise below ``rel`` in the natural order."""

    def lower(v):
        if rel.kind is SemiringKind.BOOL:
            return SemiringValue(rel.kind, bool(v.payload) and rng.random() < 0.6)
        if rel.kind is SemiringKind.PROB:
            return SemiringValue(rel.kind, v.payload * rng.uniform(0.0, 0.999))
        if v.payload == math.inf:
            return v
        return SemiringValue(rel.kind, v.payload + rng.choice((0, 0, 1, 2, math.inf)))

    return ValRel.tabulate(rel.kind, rel.rows, rel.cols, lambda r, c: lower(rel.get(r, c)))


def random_branchvals(rng, kind, keys, count):
    """Distinct valid branching values whose supports draw from ``keys``."""
    out = {}
    for _ in range(count * 3):
        if len(out) == count:
            break
        size = rng.randint(0, min(3, len(keys)))
        support = rng.sample(list(keys), size)
        if kind is SemiringKind.BOOL:
            pairs = [(k, SemiringValue(kind, True)) for k in support]
        elif kind is SemiringKind.TROPICAL:
            pairs = [(k, SemiringValue(kind, rng.randint(0, 8))) for k in support]
        else:
            total = rng.uniform(0.2, 0.95)
            cuts = [rng.uniform(0.05, 1.0) for _ in support]
            scale = total / sum(cuts) if cuts else 0.0
            pairs = [
                (k, SemiringValue(kind, round(c * scale, 6)))
                for k, c in zip(support, cuts)
                if round(c * scale, 6) > 0
            ]
        bv = BranchVal(kind, tuple(pairs))
        out.setdefault(bv.key(), bv)
    return list(out.values())


# --- random model corpus --------------------------------------------------------

def _gen_value(rng, layers, kind, states):
    if not layers:
        return {"state": rng.choice(states)}
    head, rest = layers[0], layers[1:]
    if head == "T":
        n = rng.choice((0, 1, 1, 2, 2, 3))
        raws = []
        seen = set()
        for _ in range(n):
            v = _gen_value(rng, rest, kind, states)
            fingerprint = json.dumps(v, sort_keys=True)
            if fingerprint not in seen:
                seen.add(fingerprint)
                raws.append(v)
        if kind is SemiringKind.BOOL:
            return raws
        if kind is SemiringKind.TROPICAL:
            return [{"term": v, "weight": rng.randint(0, 8)} for v in raws]
        out = []
        if raws:
            total = rng.uniform(0.3, 0.95)
            cuts = [rng.uniform(0.1, 1.0) for _ in raws]
            scale = total / sum(cuts)
            for v, c in zip(raws, cuts):
                w = round(c * scale, 6)
                if w > 0:
                    out.append({"term": v, "weight": w})
        return out
    return _gen_term(rng, head, rest, kind, states)


def _gen_term(rng, expr, rest, kind, states):
    if isinstance(expr, Id):
        return _gen_value(rng, rest, kind, states)
    if isinstance(expr, Const):
        return {"atom": rng.choice(expr.labels)}
    if isinstance(expr, Prod):
        return {
            "pair": [
                _gen_term(rng, expr.left, rest, kind, states),
                _gen_term(rng, expr.right, rest, kind, states),
            ]
        }
    if isinstance(expr, Coprod):
        i = rng.randrange(len(expr.branches))
        return {"inj": i, "of": _gen_term(rng, expr.branches[i], rest, kind, states)}
    assert isinstance(expr, Power)
    return {"tuple": {a: _gen_term(rng, expr.body, rest, kind, states) for a in expr.exponent}}


def _stack_texts(rng, shape):
    f = rng.choice(F_EXPRS)
    g = rng.choice(G_EXPRS)
    if shape == "TF":
        return ["T", f]
    if shape == "GT":
        return [g, "T"]
    return [g, "T", f]


def _gen_doc(rng, kind, texts, states):
    layers = ["T" if t == "T" else parse_expr(t) for t in texts]
    return {
        "kind": kind.value,
        "stack": texts,
        "states": states,
        "transitions": {s: _gen_value(rng, layers, kind, states) for s in states},
    }


def gen_model_pair(rng, kind, shape, n_states=None, n_spec=None):
    """A random system and a matching random spec of its linear part."""
    texts = _stack_texts(rng, shape)
    n_states = n_states or rng.randint(2, 6)
    n_spec = n_spec or rng.randint(1, 4)
    return gen_models_on(rng, kind, texts, n_states, n_spec)


def gen_models_on(rng, kind, texts, n_states, n_spec):
    """A random system over the stack ``texts`` and a random spec of its linear part."""
    states = [f"c{i}" for i in range(n_states)]
    zs = [f"z{i}" for i in range(n_spec)]
    sys_doc = _gen_doc(rng, kind, texts, states)
    spec_doc = _gen_doc(rng, kind, [t for t in texts if t != "T"], zs)
    return parse_system(json.dumps(sys_doc)), parse_spec(json.dumps(spec_doc))


def gen_layered_spec(rng, kind, texts, n_spec, stop):
    """A random spec of the linear part of ``texts`` with finite behaviours only.

    State ``z0`` has the transition ``stop``, a raw term with no state
    reference; every other state ``z<i>`` refers only to ``z0`` .. ``z<i-1>``.
    """
    layers = [parse_expr(t) for t in texts if t != "T"]
    zs = [f"z{i}" for i in range(n_spec)]
    transitions = {"z0": stop}
    for i in range(1, n_spec):
        transitions[zs[i]] = _gen_value(rng, layers, kind, zs[:i])
    doc = {"kind": kind.value, "stack": [t for t in texts if t != "T"], "states": zs,
           "transitions": transitions}
    return parse_spec(json.dumps(doc))


def gen_system_pair(rng, kind, shape, n_a=None, n_b=None):
    """Two random systems over one shared stack, for pair operators."""
    texts = _stack_texts(rng, shape)
    n_a = n_a or rng.randint(2, 5)
    n_b = n_b or rng.randint(2, 5)
    return gen_systems_on(rng, kind, texts, n_a, n_b)


def gen_systems_on(rng, kind, texts, n_a, n_b):
    """Two random systems over the stack ``texts``, of ``n_a`` and ``n_b`` states."""
    a_states = [f"a{i}" for i in range(n_a)]
    b_states = [f"b{i}" for i in range(n_b)]
    return (
        parse_system(json.dumps(_gen_doc(rng, kind, texts, a_states))),
        parse_system(json.dumps(_gen_doc(rng, kind, texts, b_states))),
    )


def _map_ids(expr, raw, f):
    """The JSON term ``raw`` of ``expr`` with ``f`` applied at each ``Id`` position."""
    if isinstance(expr, Id):
        return f(raw)
    if isinstance(expr, Const):
        return raw
    if isinstance(expr, Prod):
        left, right = raw["pair"]
        return {"pair": [_map_ids(expr.left, left, f), _map_ids(expr.right, right, f)]}
    if isinstance(expr, Coprod):
        i = raw["inj"]
        return {"inj": i, "of": _map_ids(expr.branches[i], raw["of"], f)}
    assert isinstance(expr, Power)
    return {"tuple": {a: _map_ids(expr.body, c, f) for a, c in raw["tuple"].items()}}


def with_unit_branching(spec, sys_model):
    """``spec`` as a system of ``sys_model``'s stack, branching by the unit at each ``T``.

    The unit branching of a value is the value alone: a singleton list for
    bool, weight 1 for prob and weight 0 for tropical.
    """
    kind = sys_model.stack.kind

    def wrap(layers, raw):
        if not layers:
            return raw
        head, rest = layers[0], layers[1:]
        if isinstance(head, BranchLayer):
            inner = wrap(rest, raw)
            if kind is SemiringKind.BOOL:
                return [inner]
            return [{"term": inner, "weight": 1 if kind is SemiringKind.PROB else 0}]
        return _map_ids(head.expr, raw, lambda r: wrap(rest, r))

    doc = spec.to_json()
    doc["stack"] = sys_model.stack.layer_texts()
    layers = sys_model.stack.layers
    doc["transitions"] = {z: wrap(layers, raw) for z, raw in doc["transitions"].items()}
    return parse_system(json.dumps(doc))


def with_free_copies(rng, model, spec):
    """``model``, a tropical system whose last layer is ``T``, with a copy of
    each state of ``spec`` that branches by the unit, so at weight 0 on every
    ``Id``, and with each branching of its own states given one more step, at
    a random weight, to a random copy, where the copy is not there already."""
    copies = with_unit_branching(spec, model).to_json()
    doc = model.to_json()

    def widen(raw):
        if type(raw) is list and raw and "weight" in raw[0]:  # a branching over states
            step = {"state": rng.choice(copies["states"])}
            if all(t["term"] != step for t in raw):
                raw.append({"term": step, "weight": rng.randint(0, 8)})
        elif type(raw) in (list, dict):
            for v in raw.values() if type(raw) is dict else raw:
                widen(v)

    widen(doc["transitions"])
    doc["states"] += copies["states"]
    doc["transitions"].update(copies["transitions"])
    return parse_system(json.dumps(doc))


def corpus(seed=20240811, per_cell=6):
    """The standard random corpus: every kind crossed with every stack shape."""
    rng = random.Random(seed)
    out = []
    for kind in SemiringKind:
        for shape in SHAPES:
            for _ in range(per_cell):
                out.append((kind, shape) + gen_model_pair(rng, kind, shape))
    return out
