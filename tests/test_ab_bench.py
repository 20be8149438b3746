"""The quartile and win arithmetic of ``tools/ab_bench.py``, and how it starts its runs."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parent.parent / "tools" / "ab_bench.py"
_SPEC = importlib.util.spec_from_file_location("ab_bench", _PATH)
ab_bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_bench)


class TestQuartiles:
    def test_interpolates_between_samples(self):
        assert ab_bench.quartiles([1.0, 2.0, 3.0, 4.0, 5.0]) == (2.0, 3.0, 4.0)
        assert ab_bench.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)

    def test_one_sample(self):
        assert ab_bench.quartiles([7.0]) == (7.0, 7.0, 7.0)


class TestTally:
    def test_lower_is_better(self):
        assert ab_bench.tally([5, 5, 5, 5], [4, 6, 5, 3], "lower") == (2, 1, 1)

    def test_higher_is_better(self):
        assert ab_bench.tally([5, 5, 5, 5], [4, 6, 5, 3], "higher") == (1, 2, 1)

    def test_unpaired_runs_rejected(self):
        with pytest.raises(ValueError):
            ab_bench.tally([1, 2], [1], "lower")


class TestGain:
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_clear_gain_holds(self):
        assert ab_bench.gain_holds(self.parent, [p - 1.0 for p in self.parent], "lower")

    def test_nine_wins_of_ten_suffice(self):
        change = [p - 1.0 for p in self.parent[:9]] + [self.parent[9] + 1.0]
        assert ab_bench.gain_holds(self.parent, change, "lower")

    def test_eight_wins_of_ten_do_not(self):
        change = [p - 1.0 for p in self.parent[:8]] + [p + 1.0 for p in self.parent[8:]]
        assert not ab_bench.gain_holds(self.parent, change, "lower")

    def test_shift_within_the_parent_quartiles_does_not(self):
        # every pair won, but the medians differ by less than the parent's spread
        assert not ab_bench.gain_holds(self.parent, [p - 0.1 for p in self.parent], "lower")

    def test_direction_is_respected(self):
        assert not ab_bench.gain_holds(self.parent, [p - 1.0 for p in self.parent], "higher")
        assert ab_bench.gain_holds(self.parent, [p + 1.0 for p in self.parent], "higher")

    def test_seed_ranges(self):
        assert ab_bench.parse_seeds("501-503") == [501, 502, 503]
        assert ab_bench.parse_seeds("1,4,9") == [1, 4, 9]


class TestVerdict:
    parent = [10.0, 10.2, 9.8, 10.1, 9.9, 10.0, 10.3, 9.7, 10.0, 10.1]

    def test_within_the_bound_is_no_worse(self):
        assert ab_bench.verdict(self.parent, [p * 1.1 for p in self.parent], "lower", 0.15) \
            == "no worse"

    def test_beyond_the_bound_is_worse(self):
        assert ab_bench.verdict(self.parent, [p * 1.2 for p in self.parent], "lower", 0.15) \
            == "worse"

    def test_direction_is_respected(self):
        assert ab_bench.verdict(self.parent, [p * 0.8 for p in self.parent], "higher", 0.15) \
            == "worse"
        assert ab_bench.verdict(self.parent, [p * 1.2 for p in self.parent], "higher", 0.15) \
            == "no worse"

    def test_spread_wider_than_the_bound_is_unresolved(self):
        wide = [5.0, 15.0] * 5
        assert ab_bench.verdict(self.parent, wide, "lower", 0.15) == "unresolved"
        assert ab_bench.verdict(wide, self.parent, "lower", 0.15) == "unresolved"

    def test_wide_spread_yet_every_change_run_better(self):
        parent, change = [20.0, 30.0] * 5, [10.0, 19.0] * 5
        assert ab_bench.verdict(parent, change, "lower", 0.15) == "no worse"
        assert ab_bench.verdict(change, parent, "higher", 0.15) == "no worse"


def _checkout(root, *compiled):
    (root / "src" / "ltbe" / "__pycache__").mkdir(parents=True)
    for name in compiled:
        (root / "src" / "ltbe" / "__pycache__" / name).write_bytes(b"")
    return root


class TestRuns:
    def test_runs_write_no_bytecode(self, tmp_path, monkeypatch):
        seen = {}

        def fake_run(cmd, **kwargs):
            seen.update(kwargs)
            return ab_bench.subprocess.CompletedProcess(cmd, 0, stdout='log\n{"correct": true}\n')

        monkeypatch.setattr(ab_bench.subprocess, "run", fake_run)
        assert ab_bench.run(tmp_path, "tree", 1, 0.5) == {"correct": True}
        assert seen["cwd"] == tmp_path and seen["env"]["PYTHONDONTWRITEBYTECODE"] == "1"

    @pytest.mark.parametrize("side", ["parent", "change"])
    def test_stale_bytecode_is_refused(self, tmp_path, side, capsys, monkeypatch):
        compiled = {side: ["engine.cpython-311.pyc"]}
        roots = {s: _checkout(tmp_path / s, *compiled.get(s, [])) for s in ("parent", "change")}
        monkeypatch.setattr(ab_bench, "run", lambda *a: pytest.fail("a run started"))
        with pytest.raises(SystemExit) as exit_info:
            ab_bench.main([str(roots["parent"]), str(roots["change"]), "--workload", "tree",
                           "--seeds", "1"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert str(roots[side] / "src" / "ltbe" / "__pycache__") in err and "1 compiled" in err

    def test_clean_checkouts_pass(self, tmp_path):
        assert ab_bench.stale_bytecode(_checkout(tmp_path, "notes.txt")) == []
        assert ab_bench.stale_bytecode(tmp_path / "missing") == []

    def test_every_metric_reports_its_verdict(self, tmp_path, capsys, monkeypatch):
        roots = {s: _checkout(tmp_path / s) for s in ("parent", "change")}
        (roots["parent"] / "BENCHMARK.json").write_text(json.dumps({
            "run_seconds": 20,
            "end_to_end": [{"name": "solve_ref", "better": "lower", "bound": 0.15},
                           {"name": "setup_s", "better": "lower", "bound": 0.25}]}))
        values = {"parent": {"solve_ref": 10.0, "setup_s": 1.0},
                  "change": {"solve_ref": 12.0, "setup_s": 1.0}}
        lengths = []

        def fake_run(root, workload, seed, seconds):
            lengths.append(seconds)
            side = "parent" if root == roots["parent"] else "change"
            metrics = {k: {"value": v} for k, v in values[side].items()}
            return {"correct": True, "failed": int(side == "change"), "attempted": 3,
                    "metrics": metrics}

        monkeypatch.setattr(ab_bench, "run", fake_run)
        ab_bench.main([str(roots["parent"]), str(roots["change"]), "--workload", "lts",
                       "--seeds", "1-3"])
        rows = capsys.readouterr().out.splitlines()
        assert rows[0] == "lts parent: correct=True failed=0/3 0/3 0/3"
        assert rows[1].endswith("failed=1/3 1/3 1/3  totals parent 0/9 change 3/9  share larger")
        assert rows[2].startswith("lts solve_ref:") and rows[2].endswith("not shown  worse (bound 15%)")
        assert rows[3].startswith("lts setup_s:") and rows[3].endswith("not shown  no worse (bound 25%)")
        assert lengths == [20] * 6  # every run lasts the benchmark's own run_seconds
