import json
import pathlib
import subprocess
import sys

import pytest

from ltbe.cli import main

DATA = pathlib.Path(__file__).resolve().parent.parent / "demos" / "data"


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "ltbe", *args], capture_output=True, timeout=120
    )
    return proc.returncode, proc.stdout, proc.stderr


class TestBehaviourCommand:
    def test_coin_csv_values(self, capsys):
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_chain2.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.500000000" in out and "0.250000000" in out and "0.125000000" in out
        assert "converged,true" in out

    def test_bool_csv_renders_zero_one(self, capsys):
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "lts_loop_exit.json"),
                "--spec",
                str(DATA / "spec_a_omega.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "c,1" in out

    def test_json_format(self, capsys):
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_chain2.json"),
                "--format",
                "json",
            ]
        )
        doc = json.loads(capsys.readouterr().out)
        assert code == 0
        assert doc["converged"] is True
        assert {"row": "c", "col": "z0", "value": 0.5} in doc["matrix"]

    def test_out_file(self, tmp_path, capsys):
        target = tmp_path / "matrix.csv"
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_chain2.json"),
                "--out",
                str(target),
            ]
        )
        assert code == 0
        assert capsys.readouterr().out == ""
        assert "0.125000000" in target.read_text()

    def test_nonconvergence_exits_3_but_emits(self, capsys):
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_a_omega_prob.json"),
                "--max-iter",
                "5",
                "--tol",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "converged,false" in out and out.startswith(",zw")

    def test_threshold_flag(self, capsys):
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_a_omega_prob.json"),
                "--threshold",
                "0.01",
                "--tol",
                "0",
            ]
        )
        out = capsys.readouterr().out
        assert code == 3
        assert "threshold_decided,true" in out

    def test_missing_file_exits_2(self, capsys):
        code = main(
            ["behaviour", "--system", "no/such/file.json", "--spec", str(DATA / "spec_a_omega.json")]
        )
        assert code == 2

    def test_invalid_model_exits_1(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code = main(["behaviour", "--system", str(bad), "--spec", str(DATA / "spec_a_omega.json")])
        assert code == 1

    def test_nan_threshold_rejected(self, capsys):
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_chain2.json"),
                "--threshold",
                "nan",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert "ValidationError" in err and "nan" in err

    def test_nan_tolerance_rejected(self, capsys):
        # NaN passes a "< 0" test, and no gap is ever <= NaN, so the run
        # would spend its whole budget and exit 3
        code = main(
            [
                "behaviour",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_chain2.json"),
                "--tol",
                "nan",
            ]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "tolerance" in captured.err

    def test_nan_weight_rejected(self, tmp_path, capsys):
        doc = json.loads((DATA / "coin.json").read_text())
        doc["transitions"]["c"][0]["weight"] = float("nan")
        bad = tmp_path / "nan_coin.json"
        bad.write_text(json.dumps(doc))  # json writes the token NaN, which json reads back
        code = main(["behaviour", "--system", str(bad), "--spec", str(DATA / "spec_chain2.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "ValidationError" in err and "nan" in err
        assert "more than 1" not in err

    @pytest.mark.parametrize(
        "transitions,stack_f",
        [
            ("[]", "(" * 400 + "{*} + {a} * Id" + ")" * 400),
            ("[" * 100_000 + "]" * 100_000, "{*} + {a} * Id"),
        ],
        ids=["deep-expression", "deep-json"],
    )
    def test_over_deep_input_is_parse_error(self, tmp_path, transitions, stack_f):
        deep = tmp_path / "deep.json"
        deep.write_text(
            '{"kind": "bool", "stack": ["T", %s], "states": ["c"], "transitions": {"c": %s}}'
            % (json.dumps(stack_f), transitions)
        )
        code, out, err = run_cli(
            "behaviour", "--system", str(deep), "--spec", str(DATA / "spec_a_omega.json")
        )
        assert code == 1
        assert b"ltbe: ParseError" in err
        assert b"Traceback" not in err

    def test_usage_error_exits_1(self, capsys):
        assert main(["behaviour", "--system", str(DATA / "coin.json")]) == 1
        assert main(["no-such-command"]) == 1


class TestOtherCommands:
    def test_bisim_separates_pair(self, capsys):
        code = main(
            ["bisim", "--a", str(DATA / "pure_loop.json"), "--b", str(DATA / "loop_or_deadlock.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "c,0,0" in out  # not bisimilar to either state

    def test_common_joint_cost(self, capsys):
        code = main(
            ["common", "--a", str(DATA / "stop_cost2.json"), "--b", str(DATA / "stop_cost3.json")]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "c,5" in out

    def test_oracle_matrix_mode(self, capsys):
        code = main(
            [
                "oracle",
                "--system",
                str(DATA / "coin.json"),
                "--spec",
                str(DATA / "spec_chain2.json"),
                "--depth",
                "3",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "0.125000000" in out

    def test_oracle_pair_mode(self, capsys):
        code = main(
            [
                "oracle",
                "--a",
                str(DATA / "stop_cost2.json"),
                "--b",
                str(DATA / "stop_cost3.json"),
                "--depth",
                "1",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "c,5" in out

    def test_oracle_flag_combinations_rejected(self, capsys):
        assert main(["oracle", "--system", str(DATA / "coin.json"), "--depth", "1"]) == 1
        assert (
            main(
                [
                    "oracle",
                    "--system",
                    str(DATA / "coin.json"),
                    "--a",
                    str(DATA / "stop_cost2.json"),
                    "--depth",
                    "1",
                ]
            )
            == 1
        )

    @pytest.mark.parametrize("kind", ["bool", "prob", "tropical"])
    def test_check_laws_passes(self, kind, capsys):
        code = main(["check-laws", "--kind", kind, "--samples", "400", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "all checks passed" in out
        assert "FAIL" not in out


class TestDeterminism:
    CASES = [
        ("behaviour", "--system", "coin.json", "--spec", "spec_chain2.json"),
        ("behaviour", "--system", "automaton.json", "--spec", "spec_always_accept.json"),
        ("bisim", "--a", "pure_loop.json", "--b", "loop_or_deadlock.json"),
        ("common", "--a", "stop_cost2.json", "--b", "stop_cost3.json"),
        ("oracle", "--system", "routes.json", "--spec", "spec_a_stop_trop.json", "--depth", "4"),
        ("check-laws", "--kind", "prob", "--samples", "300", "--seed", "9"),
    ]

    @pytest.mark.parametrize("case", CASES, ids=lambda c: c[0] + "-" + c[2])
    def test_byte_identical_runs(self, case):
        argv = [a if a.endswith(".json") is False else str(DATA / a) for a in case]
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first == second
        assert first[0] in (0, 3)
