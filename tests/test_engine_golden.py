"""Golden engine outputs on a seeded corpus, pinned byte for byte.

Each file ``golden/corpus/<cell>.txt`` holds, for every seed of one cell
of the corpus whose query converges, ``report.result.to_csv()`` and then
every payload in full precision, since the CSV keeps 9 decimals.  The
cells cover prob and tropical ``[G, T]`` and ``[G, T, F]`` stacks whose
``G`` has several ``Id``s, against specs with finite behaviours only, so
the order of products and of branching sums shows in the last digits;
``common`` pairs of every kind; and ``bisim`` on bool twin pairs.

To write the files from a trusted commit, run from the repository root::

    PYTHONPATH=src python tests/test_engine_golden.py
"""

import json
import pathlib
import random

import pytest

from ltbe import SemiringKind, behaviour, bisimilarity, common_trace, parse_system
from modelgen import gen_layered_spec, gen_models_on, gen_system_pair

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden" / "corpus"

B, P, T = SemiringKind.BOOL, SemiringKind.PROB, SemiringKind.TROPICAL

STOP = {"inj": 0, "of": {"atom": "*"}}

#: Behaviour stacks, each with a spec transition that stops at once.
BEHAVIOUR_STACKS = {
    "tree": (["({*} + Id)^{l,r}", "T"], {"tuple": {"l": STOP, "r": STOP}}),
    "power3": (
        ["Id^{a,b,c}", "T", "{*} + {x} * Id"],
        {"tuple": {"a": STOP, "b": STOP, "c": STOP}},
    ),
    "fork": (["{*} + Id * Id", "T"], STOP),
    "io": (["({*} + Id)^{go,halt}", "T", "Id * {ok,err}"], {"tuple": {"go": STOP, "halt": STOP}}),
    "forkstep": (["{*} + Id * Id", "T", "{*} + {a,b} * Id"], STOP),
}
SEEDS = 40

CELLS = (
    [f"behaviour__{k.value}__{stack}" for k in (P, T) for stack in BEHAVIOUR_STACKS]
    + [f"common__{k.value}__{shape}" for k in (B, P, T) for shape in ("TF", "GT", "GTF")]
    + ["bisim__bool__TF"]
)


def _twin(sys_model, rng):
    """A renamed copy of a bool system with one state's successors redrawn."""
    doc = sys_model.to_json()
    text = json.dumps(doc)
    for s in doc["states"]:
        text = text.replace(f'"{s}"', f'"t{s[1:]}"')
    twin = json.loads(text)
    states = twin["states"]
    step = {"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": rng.choice(states)}]}}
    twin["transitions"][rng.choice(states)] = [step]
    return parse_system(json.dumps(twin))


def _case(cell: str, seed: int):
    """The operator and the two models of one query of the corpus."""
    op, kind, shape = cell.split("__")
    kind = SemiringKind(kind)
    rng = random.Random(f"{cell}:{seed}")
    if op == "behaviour":
        texts, stop = BEHAVIOUR_STACKS[shape]
        sys_model, _ = gen_models_on(rng, kind, texts, rng.randint(4, 6), 1)
        return behaviour, (sys_model, gen_layered_spec(rng, kind, texts, 4, stop))
    if op == "common":
        return common_trace, gen_system_pair(rng, kind, shape)
    sys_model, _ = gen_models_on(rng, B, ["T", "{*} + {a,b} * Id"], 5, 1)
    return bisimilarity, (sys_model, _twin(sys_model, rng))


def _render(cell: str) -> str:
    parts = []
    for seed in range(SEEDS):
        op, models = _case(cell, seed)
        report = op(*models)
        if not report.converged:
            continue
        result = report.result
        payloads = (
            ",".join(repr(result.at(i, j).payload) for j in range(len(result.cols)))
            for i in range(len(result.rows))
        )
        parts.append(f"# seed {seed}\n{result.to_csv()}\n" + "\n".join(payloads) + "\n")
    return "".join(parts)


@pytest.mark.parametrize("cell", CELLS)
def test_results_match_golden(cell):
    assert _render(cell) == (GOLDEN / f"{cell}.txt").read_text(encoding="utf-8")


def test_no_stray_golden_files():
    assert sorted(p.stem for p in GOLDEN.iterdir()) == sorted(CELLS)


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for cell in CELLS:
        (GOLDEN / f"{cell}.txt").write_text(_render(cell), encoding="utf-8")
