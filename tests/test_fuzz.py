"""Fuzzed input boundary: a mutated model file ends in a typed error, never a traceback.

Each example takes a demo query (the pinned golden queries, plus an
``oracle`` run for every ``behaviour`` and ``common`` one), replaces or
deletes one node of the JSON tree of one of its two files, and checks that
``parse_system`` and ``parse_spec`` return or raise :class:`LtbeError`, and
that ``main()`` on the query returns 0, 1, 2 or 3 without raising.  A
second property takes the same mutations and checks that a text that parses
writes a model that reads back the same and whose terms all validate.  The
search is derandomized, so every run tries the same examples.
"""

import contextlib
import copy
import io
import json
import pathlib
import tempfile

from hypothesis import example, given, settings
from hypothesis import strategies as st

from ltbe import LtbeError, PolyLayer, parse_spec, parse_system, validate_term, value_key
from ltbe.cli import main

HERE = pathlib.Path(__file__).resolve().parent
DATA = HERE.parent / "demos" / "data"
MODELS = {p.stem: json.loads(p.read_text(encoding="utf-8")) for p in DATA.glob("*.json")}
FLAGS = {"behaviour": ("--system", "--spec"), "common": ("--a", "--b"), "bisim": ("--a", "--b")}
# argv with model names at positions 2 and 4
QUERIES = [
    (command, FLAGS[command][0], a, FLAGS[command][1], b)
    for command, a, b in (p.stem.split("__") for p in sorted((HERE / "golden").glob("*.csv")))
]
QUERIES += [("oracle", *q[1:], "--depth", "2") for q in QUERIES if q[0] != "bisim"]

DELETE = object()
_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-3, max_value=3),
    st.sampled_from([0.5, 1.5, -0.0, 1e300, 10**400, -(10**400), float("nan"), float("inf")]),
    st.sampled_from(["", "c", "zz", "T", "inf", "nan", "bool", "prob"]),
    st.sampled_from(["{*} + {a} * Id", "Id^{a,b}"]),
)
_KEYS = st.sampled_from(["state", "atom", "inj", "of", "pair", "tuple", "term", "weight", "a"])
VALUES = st.recursive(
    _LEAVES,
    lambda kids: st.one_of(st.lists(kids, max_size=3), st.dictionaries(_KEYS, kids, max_size=2)),
    max_leaves=4,
)


def _paths(node, path=()):
    yield path
    if isinstance(node, (dict, list)):
        for k, child in node.items() if isinstance(node, dict) else enumerate(node):
            yield from _paths(child, path + (k,))


@st.composite
def mutations(draw):
    query = draw(st.sampled_from(QUERIES))
    side = draw(st.sampled_from((2, 4)))
    path = draw(st.sampled_from(list(_paths(MODELS[query[side]]))))
    return query, side, path, draw(st.one_of(st.just(DELETE), VALUES))


def _mutated_text(doc, path, new) -> str:
    if not path:
        return "" if new is DELETE else json.dumps(new)
    doc = copy.deepcopy(doc)
    parent = doc
    for k in path[:-1]:
        parent = parent[k]
    if new is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return json.dumps(doc)


def _parse_or_reject(parse, text) -> None:
    try:
        parse(text)
    except LtbeError:
        pass


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(mutations())
@example((("behaviour", "--system", "pure_loop", "--spec", "spec_a_omega"), 2,
          ("transitions", "c", 0, "of", "pair", 1, "state"), {"state": "zz"}))
@example((("behaviour", "--system", "coin", "--spec", "spec_chain2"), 2,
          ("transitions", "c", 0, "weight"), 10**400))
def test_mutated_model_is_rejected_or_runs(mutation):
    query, side, path, new = mutation
    text = _mutated_text(MODELS[query[side]], path, new)
    _parse_or_reject(parse_system, text)
    _parse_or_reject(parse_spec, text)
    argv = [str(DATA / f"{arg}.json") if i in (2, 4) else arg for i, arg in enumerate(query)]
    with tempfile.TemporaryDirectory() as tmp:
        argv[side] = str(pathlib.Path(tmp) / "mutated.json")
        pathlib.Path(argv[side]).write_text(text, encoding="utf-8")
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = main(argv)
    assert code in (0, 1, 2, 3)


@settings(max_examples=400, derandomize=True, database=None, deadline=None)
@given(mutations())
@example((("behaviour", "--system", "lts_loop_exit", "--spec", "spec_a_omega"), 2,
          ("transitions", "c", 1, "inj"), True))
def test_a_mutated_model_that_parses_round_trips(mutation):
    """A mutated text that parses, as a system or as a specification, reads
    back from its own ``to_text()`` into the same rows, and every value of
    each polynomial layer is a term of its expression over the keys of the
    values one layer down, as ``validate_term`` resolves it."""
    query, side, path, new = mutation
    text = _mutated_text(MODELS[query[side]], path, new)
    for parse in (parse_system, parse_spec):
        try:
            model = parse(text)
        except LtbeError:
            continue
        again = parse(model.to_text())
        assert (again.resolved, again.top_positions) == (model.resolved, model.top_positions)
        for i, layer in enumerate(model.stack.layers):
            if isinstance(layer, PolyLayer):
                below = [value_key(v) for v in model.values_at(i + 1)]
                assert all(validate_term(layer.expr, t, below) for t in model.values_at(i))
