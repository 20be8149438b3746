"""Seeded query workloads for the benchmark.

Every workload is a list of :class:`Query` objects whose models are JSON
texts, generated here from the seed before any timing starts.  The
generators fix the shape of every model (state counts, branch counts,
spec depths, probability mass) and draw only labels, targets and weights
from the seed, so the work a query does varies little from seed to seed.
Cyclic queries carry an anchor (see :func:`_anchor`) that fixes their
iteration count, which would otherwise swing with the seed from 3 to 30.

The shipped demo models are read from ``demos/data`` of the checkout; the
two tropical models of ``demos/weighted_costs.py`` that have no data file
are rebuilt here.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEMO_DATA = ROOT / "demos" / "data"

LTS_F = "{*} + {a,b} * Id"
AUTOMATON_G = "{n,y} * Id^{a,b,c}"
IO_G = "({*} + Id)^{go,halt}"
IO_F = "Id * {ok,err}"
LABELS = ("a", "b")
INF = float("inf")
PROB_MASS = 0.5


@dataclass(frozen=True)
class Query:
    """One timed library call and the way its answer is checked.

    ``op`` is ``behaviour`` (``a`` is a system, ``b`` a spec), ``common``
    or ``bisim`` (both are systems).  ``check`` selects the checker:

    * ``acyclic``: the answer must equal the depth-``depth`` oracle matrix;
    * ``cyclic``: the answer must be a fixpoint of the one-step map and lie
      below the oracle at small depths;
    * ``bisim``: the related pairs must form a bisimulation;
    * ``expect``: the cells in ``expect`` must hold the hand-derived values.

    ``fault`` names the known engine fault the query runs into, if any.
    """

    name: str
    op: str
    a: str
    b: str
    check: str
    depth: int = 0
    expect: dict = field(default_factory=dict)
    fault: str | None = None


def _doc(kind: str, stack: list[str], states: list[str], transitions: dict) -> str:
    return json.dumps(
        {"kind": kind, "stack": stack, "states": states, "transitions": transitions}
    )


STOP = {"inj": 0, "of": {"atom": "*"}}


def _step(label: str, target: str) -> dict:
    return {"inj": 1, "of": {"pair": [{"atom": label}, {"state": target}]}}


def _branching(rng: random.Random, kind: str, terms: list) -> list:
    """A branching list over distinct ``terms``: plain for bool, weighted otherwise.

    Prob weights sum to ``PROB_MASS``, so every cyclic prob query converges
    at a rate of at most one half per step.
    """
    unique = list({json.dumps(t, sort_keys=True): t for t in terms}.values())
    if kind == "bool":
        return unique
    if kind == "tropical":
        return [{"term": t, "weight": rng.randint(0, 9)} for t in unique]
    cuts = [rng.uniform(0.2, 1.0) for _ in unique]
    scale = PROB_MASS / sum(cuts)
    return [{"term": t, "weight": round(c * scale, 6)} for t, c in zip(unique, cuts)]


# --- [T, F] systems and specs ---------------------------------------------------


def _lts_transitions(rng: random.Random, kind: str, states: list[str]) -> dict:
    """State ``i`` has ``1 + i % 3`` branches, each a stop (1 in 5) or a labelled step."""
    transitions = {}
    for i, s in enumerate(states):
        terms = [
            STOP if rng.random() < 0.2 else _step(rng.choice(LABELS), rng.choice(states))
            for _ in range(1 + i % 3)
        ]
        transitions[s] = _branching(rng, kind, terms)
    return transitions


def _anchor(kind: str, prefix: str, length: int) -> dict:
    """States that fix how many steps a cyclic query iterates.

    Bool: a chain of ``length`` 'a' steps into a deadlock, which a spec
    state looping on 'a' refutes only at step ``length + 1``.  Prob: one
    state looping on 'a' with ``PROB_MASS``, whose value against that spec
    state shrinks at the slowest rate the generators allow, so the run
    needs about 30 steps to reach the 1e-9 tolerance.
    """
    if kind == "prob":
        loop = f"{prefix}_loop"
        return {loop: [{"term": _step("a", loop), "weight": PROB_MASS}]}
    chain = [f"{prefix}_chain{i}" for i in range(length + 1)]
    out = {s: [_step("a", t)] for s, t in zip(chain, chain[1:])}
    out[chain[-1]] = []
    return out


def lts_system(rng: random.Random, kind: str, n: int, prefix: str = "c",
               anchor: int = 0) -> str:
    """A random cyclic ``[T, F]`` system of ``n`` states, plus an anchor of
    length ``anchor`` when that is not 0."""
    states = [f"{prefix}{i}" for i in range(n)]
    transitions = _lts_transitions(rng, kind, states)
    if anchor:
        transitions.update(_anchor(kind, prefix, anchor))
    return _doc(kind, ["T", LTS_F], list(transitions), transitions)


def _renamed(value, mapping: dict):
    if isinstance(value, list):
        return [_renamed(v, mapping) for v in value]
    if isinstance(value, dict):
        if set(value) == {"state"}:
            return {"state": mapping[value["state"]]}
        return {k: _renamed(v, mapping) for k, v in value.items()}
    return value


def lts_twins(rng: random.Random, n: int, anchor: int) -> tuple[str, str]:
    """Two bool ``[T, F]`` systems, the second a renamed copy of the first with
    about one state in six given fresh transitions, so that many pairs are
    bisimilar and some are not.  Anchor chains of lengths ``anchor`` and
    ``anchor + 1`` take ``anchor + 1`` steps to tell apart."""
    a_states = [f"a{i}" for i in range(n)]
    b_states = [f"b{i}" for i in range(n)]
    a = _lts_transitions(rng, "bool", a_states)
    redrawn = _lts_transitions(rng, "bool", b_states)
    mapping = dict(zip(a_states, b_states))
    b = {
        mapping[s]: redrawn[mapping[s]] if rng.random() < 1 / 6 else _renamed(t, mapping)
        for s, t in a.items()
    }
    a.update(_anchor("bool", "a", anchor))
    b.update(_anchor("bool", "b", anchor + 1))
    return _doc("bool", ["T", LTS_F], list(a), a), _doc("bool", ["T", LTS_F], list(b), b)


def dag_system(rng: random.Random, kind: str, n: int, levels: int, prefix: str) -> str:
    """A random acyclic ``[T, F]`` system: level-0 states stop, others step one level down.

    Every path ends after at most ``levels`` steps.
    """
    by_level = [[f"{prefix}{lv}_{j}" for j in range(n // levels)] for lv in range(levels)]
    transitions = {}
    for lv, row in enumerate(by_level):
        for j, s in enumerate(row):
            if lv == 0:
                terms = [STOP]
            else:
                below = by_level[lv - 1]
                terms = [_step(rng.choice(LABELS), rng.choice(below)) for _ in range(1 + j % 3)]
            transitions[s] = _branching(rng, kind, terms)
    states = [s for row in by_level for s in row]
    return _doc(kind, ["T", LTS_F], states, transitions)


def trace_spec(rng: random.Random, kind: str, length: int) -> str:
    """The finite trace of ``length`` random labels, then stop; one state per suffix."""
    states = [f"z{i}" for i in range(length, -1, -1)]
    transitions = {"z0": STOP}
    for i in range(1, length + 1):
        transitions[f"z{i}"] = _step(rng.choice(LABELS), f"z{i - 1}")
    return _doc(kind, [LTS_F], states, transitions)


def cyclic_spec(rng: random.Random, kind: str, m: int) -> str:
    """A random spec with cycles: ``z0`` loops on 'a', some states stop, the
    rest step to any state."""
    states = [f"z{i}" for i in range(m)]
    transitions = {"z0": _step("a", "z0")}
    for z in states[1:]:
        if rng.random() < 0.2:
            transitions[z] = STOP
        else:
            transitions[z] = _step(rng.choice(LABELS), rng.choice(states))
    return _doc(kind, [LTS_F], states, transitions)


# --- tree-shaped stacks: automata and io-machines ---------------------------------


def automaton_system(rng: random.Random, kind: str, n: int) -> str:
    """``[{n,y} * Id^{a,b,c}, T]``: even states accept; two successors per letter.

    The successor pairs are every pair of states, each used the same number
    of times (up to one), so the number of distinct branching values is fixed.
    """
    states = [f"q{i}" for i in range(n)]
    pairs = [[s, t] for i, s in enumerate(states) for t in states[i + 1:]]
    slots = [pairs[i % len(pairs)] for i in range(3 * n)]
    rng.shuffle(slots)
    transitions = {}
    for k, s in enumerate(states):
        succ = {
            letter: _branching(rng, kind, [{"state": t} for t in slots[3 * k + j]])
            for j, letter in enumerate(("a", "b", "c"))
        }
        flag = {"atom": "y" if k % 2 == 0 else "n"}
        transitions[s] = {"pair": [flag, {"tuple": succ}]}
    return _doc(kind, [AUTOMATON_G, "T"], states, transitions)


def automaton_spec(rng: random.Random, kind: str, m: int) -> str:
    """A deterministic automaton: even states accept, successors drawn at random."""
    states = [f"z{i}" for i in range(m)]
    transitions = {
        z: {
            "pair": [
                {"atom": "y" if j % 2 == 0 else "n"},
                {"tuple": {letter: {"state": rng.choice(states)} for letter in ("a", "b", "c")}},
            ]
        }
        for j, z in enumerate(states)
    }
    return _doc(kind, [AUTOMATON_G], states, transitions)


def io_system(rng: random.Random, kind: str, n: int) -> str:
    """``[({*} + Id)^{go,halt}, T, Id * {ok,err}]``: every state stops on
    'halt'; on 'go' even states stop and odd ones branch over two outputs."""
    states = [f"m{i}" for i in range(n)]
    transitions = {}
    for i, s in enumerate(states):
        go = STOP
        if i % 2:
            outs = [
                {"pair": [{"state": rng.choice(states)}, {"atom": rng.choice(("ok", "err"))}]}
                for _ in range(2)
            ]
            go = {"inj": 1, "of": _branching(rng, kind, outs)}
        transitions[s] = {"tuple": {"go": go, "halt": STOP}}
    return _doc(kind, [IO_G, "T", IO_F], states, transitions)


def _io_answer(rng: random.Random, targets: list[str]) -> dict:
    out = {"pair": [{"state": rng.choice(targets)}, {"atom": rng.choice(("ok", "err"))}]}
    return {"tuple": {"go": {"inj": 1, "of": out}, "halt": STOP}}


IO_STOP = {"tuple": {"go": STOP, "halt": STOP}}


def io_spec(rng: random.Random, kind: str, m: int) -> str:
    """A random cyclic io spec: ``z0`` stops on both inputs, the others answer
    'go' and go to any state."""
    states = [f"z{i}" for i in range(m)]
    transitions = {z: _io_answer(rng, states) for z in states}
    transitions["z0"] = IO_STOP
    return _doc(kind, [IO_G, IO_F], states, transitions)


def io_tree_spec(rng: random.Random, kind: str, levels: int) -> str:
    """A finite behaviour tree for io machines, one state per level: level 0
    stops on both inputs, a higher level answers 'go' and goes one level down.
    Every value is exact after ``levels`` steps."""
    states = [f"z{lv}" for lv in range(levels - 1, -1, -1)]
    transitions = {f"z{lv}": _io_answer(rng, [f"z{lv - 1}"]) for lv in range(1, levels)}
    transitions["z0"] = IO_STOP
    return _doc(kind, [IO_G, IO_F], states, transitions)


# --- the shipped demo queries ---------------------------------------------------------


def _demo(name: str) -> str:
    return (DEMO_DATA / name).read_text(encoding="utf-8")


# demos/weighted_costs.py: a state that can only loop on 'a' at cost 1 per lap
STUCK = _doc("tropical", ["T", LTS_F], ["c"], {"c": [{"term": _step("a", "c"), "weight": 1}]})
NEVER_STOPS = _doc("tropical", [LTS_F], ["z"], {"z": STOP})
TROP_OMEGA = _doc("tropical", [LTS_F], ["z"], {"z": _step("a", "z")})


def demo_lts_queries() -> list[Query]:
    """The shipped ``[T, F]`` behaviour queries with their hand-derived values."""
    q = Query
    return [
        q("demo.loop_exit.omega", "behaviour", _demo("lts_loop_exit.json"),
          _demo("spec_a_omega.json"), "expect", expect={("c", "zw"): True}),
        q("demo.loop_exit.a_stop", "behaviour", _demo("lts_loop_exit.json"),
          _demo("spec_a_stop.json"), "expect", expect={("c", "z1"): True, ("c", "z0"): True}),
        q("demo.pure_loop.a_stop", "behaviour", _demo("pure_loop.json"),
          _demo("spec_a_stop.json"), "expect", expect={("c", "z1"): False, ("c", "z0"): False}),
        q("demo.loop_or_deadlock.omega", "behaviour", _demo("loop_or_deadlock.json"),
          _demo("spec_a_omega.json"), "expect", expect={("d", "zw"): True, ("dd", "zw"): False}),
        # the coin stops with 1/2 and loops on 'a' with 1/2: P(a^n stop) = 2^-(n+1)
        q("demo.coin.chain2", "behaviour", _demo("coin.json"), _demo("spec_chain2.json"),
          "expect", expect={("c", "z2"): 0.125, ("c", "z1"): 0.25, ("c", "z0"): 0.5}),
        q("demo.coin.omega", "behaviour", _demo("coin.json"), _demo("spec_a_omega_prob.json"),
          "expect", expect={("c", "zw"): 0.0}, fault="F1"),
        # the two routes cost 2 + 0 and 5 + 0; c1 and c2 only stop, at cost 0
        q("demo.routes.a_stop", "behaviour", _demo("routes.json"), _demo("spec_a_stop_trop.json"),
          "expect", expect={("c", "z1"): 2, ("c", "z0"): INF, ("c1", "z1"): INF,
                            ("c1", "z0"): 0, ("c2", "z0"): 0}),
        q("demo.stuck.never_stops", "behaviour", STUCK, NEVER_STOPS, "expect",
          expect={("c", "z"): INF}),
        q("demo.stuck.omega", "behaviour", STUCK, TROP_OMEGA, "expect",
          expect={("c", "z"): INF}, fault="F2"),
    ]


def demo_tree_queries() -> list[Query]:
    q = Query
    return [
        # q1 keeps its accepting self-loop; q0 is not accepting
        q("demo.automaton.always_accept", "behaviour", _demo("automaton.json"),
          _demo("spec_always_accept.json"), "expect",
          expect={("q0", "z"): False, ("q1", "z"): True}),
        # every 'go' answers ok with 3/4, so the all-ok tree has probability 0
        q("demo.io_machine.all_ok", "behaviour", _demo("io_machine.json"),
          _demo("spec_io_all_ok.json"), "expect", expect={("m", "z"): 0.0}, fault="F1"),
    ]


def demo_pair_queries() -> list[Query]:
    q = Query
    return [
        # two independent stoppers: joint cost 2 + 3
        q("demo.stop_costs.common", "common", _demo("stop_cost2.json"), _demo("stop_cost3.json"),
          "expect", expect={("c", "d"): 5}),
        # same traces, different branching
        q("demo.loops.common", "common", _demo("pure_loop.json"), _demo("loop_or_deadlock.json"),
          "expect", expect={("c", "d"): True, ("c", "dd"): False}),
        q("demo.loops.bisim", "bisim", _demo("pure_loop.json"), _demo("loop_or_deadlock.json"),
          "expect", expect={("c", "d"): False, ("c", "dd"): False}),
    ]


# --- workloads ------------------------------------------------------------------------


def lts_queries(rng: random.Random) -> list[Query]:
    out = []
    for kind in ("bool", "prob", "tropical"):
        for n, length in ((100, 4), (30, 8)):
            out.append(Query(f"lts.{kind}.n{n}.trace{length}", "behaviour",
                             lts_system(rng, kind, n), trace_spec(rng, kind, length),
                             "acyclic", depth=length + 1))
    for kind in ("bool", "prob"):
        for i in range(12):
            out.append(Query(f"lts.{kind}.n12.cyclic3.{i}", "behaviour",
                             lts_system(rng, kind, 12, anchor=12),
                             cyclic_spec(rng, kind, 3), "cyclic"))
    return out + demo_lts_queries()


def tree_queries(rng: random.Random) -> list[Query]:
    # one fixed 4-state automaton against a 2-state spec: its iteration count
    # swings the round by a sixth, so it does not vary with the seed
    fixed = random.Random("automaton 4x2")
    out = [Query("tree.automaton.bool.n4m2.fixed", "behaviour", automaton_system(fixed, "bool", 4),
                 automaton_spec(fixed, "bool", 2), "cyclic")]
    for kind, n, m, count in (("bool", 4, 1, 12), ("bool", 3, 2, 12), ("prob", 2, 1, 8)):
        for i in range(count):
            out.append(Query(f"tree.automaton.{kind}.n{n}m{m}.{i}", "behaviour",
                             automaton_system(rng, kind, n), automaton_spec(rng, kind, m),
                             "cyclic"))
    # the bool io-trees take a fixed number of steps, and there are enough of
    # them to hold the median query whichever way the automata fall
    for kind, count in (("bool", 24), ("prob", 8)):
        for i in range(count):
            out.append(Query(f"tree.io.{kind}.n6.tree4.{i}", "behaviour", io_system(rng, kind, 6),
                             io_tree_spec(rng, kind, 4), "acyclic", depth=4))
    for i in range(8):
        out.append(Query(f"tree.io.bool.n6.cyclic3.{i}", "behaviour",
                         io_system(rng, "bool", 6), io_spec(rng, "bool", 3), "cyclic"))
    return out + demo_tree_queries()


def pair_queries(rng: random.Random) -> list[Query]:
    out = []
    for kind in ("bool", "prob"):
        for i in range(6):
            out.append(Query(f"pairs.common.{kind}.10x10.{i}", "common",
                             lts_system(rng, kind, 10, "a", anchor=6),
                             lts_system(rng, kind, 10, "b", anchor=6), "cyclic"))
    for i in range(4):
        out.append(Query(f"pairs.common.tropical.dag16x16.{i}", "common",
                         dag_system(rng, "tropical", 16, 4, "a"),
                         dag_system(rng, "tropical", 16, 4, "b"), "acyclic", depth=5))
    for i in range(6):
        out.append(Query(f"pairs.bisim.bool.12x12.{i}", "bisim", *lts_twins(rng, 12, 6), "bisim"))
    return out + demo_pair_queries()


WORKLOADS = {"lts": lts_queries, "tree": tree_queries, "pairs": pair_queries}


def build(workload: str, seed: int) -> list[Query]:
    """The queries of ``workload`` for ``seed``; the same seed gives the same texts."""
    return WORKLOADS[workload](random.Random(f"{workload}:{seed}"))
