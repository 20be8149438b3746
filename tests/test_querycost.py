"""The counting and timing helpers of ``tools/querycost.py``."""

import importlib.util
import pathlib
from types import SimpleNamespace

import ltbe
from modelgen import chain_spec, loop_exit_system

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "querycost.py"
_SPEC = importlib.util.spec_from_file_location("querycost", _PATH)
querycost = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(querycost)


def test_code_objects_counts_each_function_once():
    def leaf():
        return 1

    def root():
        return leaf() + leaf() + sum(x for x in range(3))

    assert querycost.code_objects(root) == 3  # root, leaf and the generator expression


def test_query_call_is_the_benchmark_call():
    system, spec = loop_exit_system("prob"), chain_spec(1, "prob")
    q = SimpleNamespace(op="behaviour", a=system.to_text(), b=spec.to_text())
    call = querycost.query_call(ltbe, q)
    assert call() == ltbe.behaviour(system, spec).result.to_csv()
    assert querycost.median_us(call, 3, cold=True) > 0.0
    assert querycost.code_objects(call) > 10
