"""The counting and timing helpers of ``tools/querycost.py``, and its ``--setup`` mode."""

import importlib.util
import pathlib
import subprocess
import sys
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


def test_setup_models_are_the_texts_time_setup_parses():
    queries = [SimpleNamespace(name="q1", op="behaviour", a="A", b="S"),
               SimpleNamespace(name="q2", op="common", a="S", b="B"),
               SimpleNamespace(name="q3", op="behaviour", a="B", b="A")]
    # like ``time_setup``: a text read as a system once is parsed as a system
    assert querycost.setup_models(queries) == {
        "A": ("q1.a", False), "S": ("q1.b", False), "B": ("q2.b", False)}


def test_setup_cost_times_the_load_and_every_parse():
    system, spec = loop_exit_system("prob"), chain_spec(1, "prob")
    models = {system.to_text(): ("sys", False), spec.to_text(): ("spec", True)}
    loads = []
    import_ms, parse_ms, per_text = querycost.setup_cost(models, 3, lambda: loads.append(1) or ltbe)
    assert len(loads) == 3
    assert import_ms >= 0.0 and parse_ms > 0.0
    assert per_text.keys() == models.keys() and all(ms > 0.0 for ms in per_text.values())


def test_setup_mode_prints_import_parse_and_the_slowest_texts():
    proc = subprocess.run([sys.executable, str(_PATH), "--workload", "pairs", "--setup",
                           "--reps", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].split()[0] == "import_ms" and float(lines[0].split()[1]) > 0.0
    assert lines[1].split()[0] == "parse_ms" and lines[1].endswith("model texts)")
    assert lines[2] == "slowest to parse (ms):"
    assert len(lines) == 8 and all(line.startswith("  pairs.") for line in lines[3:])


def test_phase_call_is_the_benchmark_call_in_four_phases():
    system, spec = loop_exit_system("prob"), chain_spec(1, "prob")
    for q in (SimpleNamespace(op="behaviour", a=system.to_text(), b=spec.to_text()),
              SimpleNamespace(op="common", a=system.to_text(), b=system.to_text())):
        times, text = querycost.phase_call(ltbe, q)()
        assert text == querycost.query_call(ltbe, q)()
        assert len(times) == len(querycost.PHASES) and all(t > 0.0 for t in times)
    ms = querycost.phase_ms(querycost.phase_call(ltbe, q), 3)
    assert len(ms) == len(querycost.PHASES) and all(t > 0.0 for t in ms)


def test_phases_mode_prints_each_phase_and_leaves_out_bisim():
    proc = subprocess.run([sys.executable, str(_PATH), "--workload", "pairs", "--phases",
                           "--reps", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    lines = [line.split() for line in proc.stdout.splitlines()]
    assert lines[0] == ["phase", "cold_ms"]
    assert [line[0] for line in lines[1:]] == [*querycost.PHASES, "total"]
    assert all(float(line[1]) > 0.0 for line in lines[1:])
    assert abs(sum(float(line[1]) for line in lines[1:5]) - float(lines[5][1])) < 0.01
    assert lines[5][2:] == ["(18", "queries,", "7", "left", "out)"]  # the seven bisim queries


def test_phases_mode_writes_each_query_s_phases_to_stderr():
    proc = subprocess.run([sys.executable, str(_PATH), "--workload", "pairs", "--phases",
                           "--reps", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    header, *rows = [line.split() for line in proc.stderr.splitlines()]
    assert header == ["query", *(f"{name}_us" for name in (*querycost.PHASES, "total"))]
    assert len(rows) == 18 and all(row[0].startswith(("pairs.", "demo.")) for row in rows)
    for row in rows:
        us = [float(x) for x in row[1:]]
        assert all(t > 0.0 for t in us) and abs(sum(us[:-1]) - us[-1]) < 0.5
    # the summary's phases are the sums of the rows', in milliseconds
    summary = {line.split()[0]: float(line.split()[1]) for line in proc.stdout.splitlines()[1:]}
    for i, name in enumerate(querycost.PHASES, 1):
        assert abs(sum(float(row[i]) for row in rows) / 1e3 - summary[name]) < 0.01
