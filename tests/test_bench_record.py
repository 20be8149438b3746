"""What ``tools/bench_record.py`` writes, with the benchmark run faked."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "bench_record.py"
_SPEC = importlib.util.spec_from_file_location("bench_record", _PATH)
bench_record = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_record)

SPEC = {
    "run_seconds": 20,
    "workloads": [{"name": "lts"}, {"name": "tree"}],
    "end_to_end": [{"name": "solve_ref"}, {"name": "setup_s"}],
}


def _checkout(root, *compiled):
    (root / "src" / "ltbe" / "__pycache__").mkdir(parents=True)
    for name in compiled:
        (root / "src" / "ltbe" / "__pycache__" / name).write_bytes(b"")
    (root / "BENCHMARK.json").write_text(json.dumps(SPEC), encoding="utf-8")
    return root


def test_one_run_per_workload_is_recorded(tmp_path, monkeypatch, capsys):
    root, calls = _checkout(tmp_path), []

    def fake_run(at, workload, seed, seconds):
        calls.append((at, workload, seed, seconds))
        return {"correct": True, "failed": len(workload), "attempted": 40, "trace": None,
                "metrics": {"solve_ref": {"value": 1.5}, "setup_s": {"value": 0.06},
                            "query_ref.p50": {"value": 9.0}}}

    monkeypatch.setattr(bench_record.ab_bench, "run", fake_run)
    assert bench_record.main(["5", "--seed", "3", "--root", str(root)]) == 0
    assert calls == [(root, "lts", 3, 20), (root, "tree", 3, 20)]
    assert capsys.readouterr().out.strip() == str(root / "BENCH_5.json")
    assert json.loads((root / "BENCH_5.json").read_text(encoding="utf-8")) == {
        "seed": 3, "run_seconds": 20, "workloads": {
            name: {"correct": True, "failed": len(name), "attempted": 40,
                   "metrics": {"solve_ref": 1.5, "setup_s": 0.06}}
            for name in ("lts", "tree")}}


def test_stale_bytecode_is_refused(tmp_path, monkeypatch, capsys):
    root = _checkout(tmp_path, "engine.cpython-311.pyc")
    monkeypatch.setattr(bench_record.ab_bench, "run", lambda *a: pytest.fail("a run started"))
    with pytest.raises(SystemExit) as exit_info:
        bench_record.main(["5", "--root", str(root)])
    assert exit_info.value.code == 2
    assert "1 compiled" in capsys.readouterr().err
    assert not (root / "BENCH_5.json").exists()
