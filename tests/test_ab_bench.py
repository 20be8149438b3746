"""The quartile and win arithmetic of ``tools/ab_bench.py``."""

import importlib.util
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
