import json
import pathlib
import subprocess
import sys

import pytest

from ltbe.cli import main
from modelgen import LTS_F, doubling_docs, far_step_doc, omega_spec, step_term, stop_term

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
        assert code == 4
        assert "threshold_decided,true" in out

    def test_tropical_threshold_flag(self, tmp_path, capsys):
        loop = {"kind": "tropical", "stack": ["T", LTS_F], "states": ["c"],
                "transitions": {"c": [{"term": step_term("a", "c"), "weight": 1}]}}
        (tmp_path / "loop.json").write_text(json.dumps(loop))
        (tmp_path / "omega.json").write_text(omega_spec("tropical").to_text())
        code = main(
            [
                "behaviour",
                "--system",
                str(tmp_path / "loop.json"),
                "--spec",
                str(tmp_path / "omega.json"),
                "--threshold",
                "5",
            ]
        )
        out = capsys.readouterr().out
        assert code == 4
        assert out == (
            ",zw\nc,6\n\niterations,6\nconverged,false\nfinal_gap,1.0\nthreshold_decided,true\n"
        )

    def test_large_finite_cost_converges(self, tmp_path, capsys):
        costly = {"kind": "tropical", "stack": ["T", LTS_F], "states": ["c", "d"], "transitions": {
            "c": [{"term": step_term("a", "d"), "weight": 2000000}],
            "d": [{"term": stop_term(), "weight": 0}],
        }}
        spec = {"kind": "tropical", "stack": [LTS_F], "states": ["s", "t"],
                "transitions": {"s": step_term("a", "t"), "t": stop_term()}}
        (tmp_path / "costly.json").write_text(json.dumps(costly))
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        code = main(
            [
                "behaviour",
                "--system",
                str(tmp_path / "costly.json"),
                "--spec",
                str(tmp_path / "spec.json"),
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert out == (
            ",s,t\nc,2000000,inf\nd,inf,0\n\niterations,2\nconverged,true\nfinal_gap,0.0\n"
        )

    @pytest.mark.parametrize("flags,code,tail", [
        (["--max-iter", "1"], 3, ""), (["--threshold", "5"], 4, "threshold_decided,true\n"),
    ], ids=["budget", "threshold"])
    def test_costs_further_apart_than_the_float_range(self, tmp_path, capsys, flags, code, tail):
        # the gap between two finite costs that overflows a float is inf, not an OverflowError
        huge = 10**400  # json writes all 401 digits
        costly = {"kind": "tropical", "stack": ["T", LTS_F], "states": ["c", "d"], "transitions": {
            "c": [{"term": step_term("a", "d"), "weight": huge}],
            "d": [{"term": stop_term(), "weight": huge}],
        }}
        (tmp_path / "costly.json").write_text(json.dumps(costly))
        argv = ["behaviour", "--system", str(tmp_path / "costly.json"),
                "--spec", str(DATA / "spec_a_stop_trop.json"), *flags]
        assert main(argv) == code
        out = capsys.readouterr().out
        assert out == (f",z1,z0\nc,{huge},inf\nd,inf,{huge}\n\n"
                       f"iterations,1\nconverged,false\nfinal_gap,inf\n{tail}")

    def test_step_beyond_the_float_range_to_a_deadlock_costs_inf(self, tmp_path, capsys):
        # HUGE + inf, in a fold, is inf, not an OverflowError
        (tmp_path / "far.json").write_text(json.dumps(far_step_doc()))
        argv = ["behaviour", "--system", str(tmp_path / "far.json"),
                "--spec", str(DATA / "spec_a_stop_trop.json")]
        assert main(argv) == 0
        assert capsys.readouterr().out == (
            ",z1,z0\nc,inf,inf\nd,inf,inf\n\niterations,3\nconverged,true\nfinal_gap,0.0\n")

    def test_cost_beyond_the_float_range_times_inf_is_inf(self, tmp_path, capsys):
        # in a product, a cost beyond the float range plus inf is inf, not an OverflowError
        system, spec = doubling_docs()
        (tmp_path / "system.json").write_text(json.dumps(system))
        (tmp_path / "spec.json").write_text(json.dumps(spec))
        argv = ["behaviour", "--system", str(tmp_path / "system.json"),
                "--spec", str(tmp_path / "spec.json"), "--max-iter", "1030"]
        assert main(argv) == 3
        assert capsys.readouterr().out == (
            f",z\nc,{2**1030 - 1}\nd,inf\ne,inf\n\n"
            "iterations,1030\nconverged,false\nfinal_gap,inf\n")

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

    def test_state_reference_to_object_rejected(self, tmp_path, capsys):
        doc = json.loads((DATA / "pure_loop.json").read_text())
        doc["transitions"]["c"][0]["of"]["pair"][1] = {"state": {"state": "zz"}}
        bad = tmp_path / "nested_ref.json"
        bad.write_text(json.dumps(doc))
        code = main(["behaviour", "--system", str(bad), "--spec", str(DATA / "spec_a_omega.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "TransitionTypeError" in err and "expected a state id" in err

    def test_overflowing_prob_weight_rejected(self, tmp_path, capsys):
        doc = json.loads((DATA / "coin.json").read_text())
        doc["transitions"]["c"][0]["weight"] = 10**400  # json writes all 401 digits
        bad = tmp_path / "huge_coin.json"
        bad.write_text(json.dumps(doc))
        code = main(["behaviour", "--system", str(bad), "--spec", str(DATA / "spec_chain2.json")])
        err = capsys.readouterr().err
        assert code == 1
        assert "ValidationError" in err and "beyond the float range" in err

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

    @pytest.mark.parametrize("width", [1000, 5000])
    def test_wide_power_answers(self, tmp_path, width):
        # a power's product of components nests as deep as it is wide
        labels = [f"l{i}" for i in range(width)]
        expr = "({*} + Id)^{" + ",".join(labels) + "}"
        for name, stack, leaf in [("sys", [expr, "T"], [{"state": "c"}]), ("spec", [expr], {"state": "c"})]:
            (tmp_path / f"{name}.json").write_text(json.dumps({
                "kind": "bool", "stack": stack, "states": ["c"],
                "transitions": {"c": {"tuple": {a: {"inj": 1, "of": leaf} for a in labels}}},
            }))
        code, out, err = run_cli(
            "behaviour", "--system", str(tmp_path / "sys.json"), "--spec", str(tmp_path / "spec.json")
        )
        assert (code, err) == (0, b"")
        assert out == b",c\nc,1\n\niterations,1\nconverged,true\nfinal_gap,0.0\n"

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

    def test_undefined_joint_mass_names_both_values_by_key(self, tmp_path, capsys):
        # each mass is within the slack of 1, their product is not; the engine
        # names the fold's two branching values by their canonical keys, a
        # state id that is no plain name written as a JSON string
        def step(state):
            return {"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": state}]}}

        def model(name, states, transitions):
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps({"kind": "prob", "stack": ["T", "{*} + {a} * Id"],
                                        "states": states, "transitions": transitions}))
            return str(path)

        split = [{"term": step("s"), "weight": 0.6}, {"term": step("u"), "weight": 0.4000000009}]
        a = model("a", ["s", "u"], {"s": split, "u": split})
        b = model("b", ["q r", "t"], {
            "q r": [{"term": step("q r"), "weight": 0.5}, {"term": step("t"), "weight": 0.5000000009}],
            "t": [{"term": {"inj": 0, "of": {"atom": "*"}}, "weight": 1}],
        })
        assert main(["common", "--a", a, "--b", b]) == 1
        assert capsys.readouterr().err == (
            "ltbe: UndefinedSum: partial sum undefined while extending over "
            "'{i1((@a,s)):0.6|i1((@a,u)):0.4000000009}' x "
            "'{i1((@a,\"q r\")):0.5|i1((@a,t)):0.5000000009}'\n"
        )

    def test_compounded_slack_is_undefined_on_both_routes(self, tmp_path):
        # each mass is 1 + 9e-10, inside the slack, but the joint mass is
        # 1 + 1.8e-9, beyond it; the oracle's check must hold under -O too
        branch = [
            {"term": {"inj": 1, "of": {"pair": [{"atom": "a"}, {"state": x}]}}, "weight": w}
            for x, w in [("s", 0.6), ("u", 0.4000000009)]
        ]
        model = tmp_path / "slack.json"
        model.write_text(json.dumps({
            "kind": "prob", "stack": ["T", "{*} + {a} * Id"], "states": ["s", "u"],
            "transitions": {"s": branch, "u": branch},
        }))
        pair = ["--a", str(model), "--b", str(model)]
        for python, argv in [
            ([], ["common", *pair]),
            ([], ["oracle", *pair, "--depth", "1"]),
            (["-O"], ["oracle", *pair, "--depth", "1"]),
        ]:
            proc = subprocess.run(
                [sys.executable, *python, "-m", "ltbe", *argv], capture_output=True, timeout=120
            )
            assert (proc.returncode, proc.stdout) == (1, b""), proc.stderr
            assert proc.stderr.startswith(b"ltbe: UndefinedSum:")

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


class TestColdStart:
    """A query loads neither the self-checks nor the oracle; those load on use."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("behaviour", "--system", "coin.json", "--spec", "spec_chain2.json"),
            ("common", "--a", "stop_cost2.json", "--b", "stop_cost3.json"),
            ("bisim", "--a", "pure_loop.json", "--b", "loop_or_deadlock.json"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_query_loads_no_laws_or_oracle(self, argv):
        args = [str(DATA / a) if a.endswith(".json") else a for a in argv]
        probe = (
            "import sys\n"
            "from ltbe.cli import main\n"
            "code = main(sys.argv[1:])\n"
            "print(sorted(m for m in sys.modules if m.startswith('ltbe.')), file=sys.stderr)\n"
            "sys.exit(code)\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", probe, *args], capture_output=True, text=True, timeout=120
        )
        assert proc.returncode == 0, proc.stderr
        loaded = proc.stderr.splitlines()[-1]
        assert "ltbe.cli" in loaded
        assert "ltbe.laws" not in loaded and "ltbe.oracle" not in loaded

    def test_oracle_runs_in_a_fresh_interpreter(self):
        code, out, err = run_cli(
            "oracle", "--system", str(DATA / "coin.json"),
            "--spec", str(DATA / "spec_chain2.json"), "--depth", "2",
        )
        assert code == 0, err
        assert out.startswith(b",")

    def test_check_laws_runs_in_a_fresh_interpreter(self):
        code, out, err = run_cli(
            "check-laws", "--kind", "bool", "--samples", "50", "--size-bound", "1"
        )
        assert code == 0, err
        assert b"all checks passed" in out
