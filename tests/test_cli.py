import contextlib
import io
import json
import time

import pytest
from hypothesis import given, settings, strategies as st

from finpolylog.cli import main, parse_primes, load_config
from finpolylog.errors import BadParams


def run_cli(argv, capsys):
    code = main(argv)
    out = capsys.readouterr().out
    return code, out


def run_json(argv, capsys):
    code, out = run_cli(argv, capsys)
    return code, json.loads(out)


class TestPrimeParsing:
    def test_range_expands_to_primes_only(self):
        assert parse_primes("5..31") == [5, 7, 11, 13, 17, 19, 23, 29, 31]

    def test_comma_list(self):
        assert parse_primes("7,11,13") == [7, 11, 13]

    def test_mixed(self):
        assert parse_primes("5,11..13") == [5, 11, 13]

    def test_non_prime_rejected(self):
        with pytest.raises(BadParams):
            parse_primes("4")
        with pytest.raises(BadParams):
            parse_primes("2")


class TestReports:
    def test_schema_and_exit_code(self, capsys):
        code, report = run_json(
            ["verify", "--eq", "feit", "--p", "5", "--mode", "both"], capsys
        )
        assert code == 0
        assert report["schema"] == 1
        assert report["summary"]["failed"] == 0
        assert all(r["holds"] for r in report["records"])

    def test_missed_expectation_sets_exit_code_and_repro_line(self, capsys):
        # feit holds, so expecting it to fail must produce exit status 1
        # and a reproduction command line on the offending record
        code, report = run_json(
            ["verify", "--eq", "feit", "--p", "5", "--mode", "strong",
             "--expect-fail"], capsys
        )
        assert code == 1
        assert report["summary"]["failed"] == 1
        assert "reproduce" in report["records"][0]

    def test_sampled_weak_check_at_a_large_prime(self, capsys):
        # ten points need no table of all 30011 polylog values
        argv = ["verify", "--eq", "two_term", "--p", "30011", "--mode", "weak",
                "--budget", "10"]
        start = time.perf_counter()
        code, report = run_json(argv, capsys)
        assert time.perf_counter() - start < 5
        assert code == 0
        assert report["records"][0]["points_checked"] == 10

    def test_determinism(self, capsys):
        argv = ["verify", "--eq", "two_term,feit", "--p", "5,7", "--mode", "both"]
        _, out1 = run_cli(argv, capsys)
        _, out2 = run_cli(argv, capsys)
        assert out1 == out2

    def test_solve_report(self, capsys):
        code, report = run_json(["solve", "--preset", "FEIT", "--p", "5..13"], capsys)
        assert code == 0
        assert [r["dimension"] for r in report["records"]] == [1, 1, 1, 1]

    def test_cocycle_report_includes_certificate(self, capsys):
        code, report = run_json(
            ["cocycle", "--p", "5", "--check", "coboundary"], capsys
        )
        assert code == 0
        rec = report["records"][0]
        assert not rec["consistent"] and rec["certificate"]["multipliers"]

    def test_entropy_report(self, capsys):
        code, report = run_json(
            ["entropy", "--p", "5", "--probs", "1/2,1/2"], capsys
        )
        assert code == 0
        assert report["records"][0]["entropy"] == 3

    def test_tables_csv(self, capsys):
        code, out = run_cli(["tables", "--p", "7", "--kummer", "4"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("p,kind,index")
        assert any("kummer_congruence" in ln for ln in lines)

    def test_tables_csv_builds_each_table_once(self, capsys, monkeypatch):
        from finpolylog import cli, finlog

        calls = []
        build_table = finlog.special_values
        counted = lambda p: calls.append(p) or build_table(p)
        monkeypatch.setattr(finlog, "special_values", counted)
        monkeypatch.setattr(cli, "special_values", counted)
        code, out = run_cli(["tables", "--p", "5,7"], capsys)
        assert code == 0
        assert calls == [5, 7]
        assert out.count("p,kind,index") == 1

    def test_list_contains_every_id(self, capsys):
        from finpolylog import catalog_ids

        code, report = run_json(["list"], capsys)
        assert code == 0
        listed = [r["id"] for r in report["records"]]
        assert listed == catalog_ids()

    def test_derive_example(self, capsys):
        code, report = run_json(
            ["derive", "--eq", "five_term_classical",
             "--derivation", "a:a*(1-a);b:b*(1-b)", "--verify", "11"],
            capsys,
        )
        assert code == 0
        assert report["records"][0]["weak"]["holds"]

    def test_weak_records_say_whether_the_grid_was_sampled(self, capsys):
        # feit has two variables: the grid at p = 31 holds 961 points
        for budget, exhaustive, points in (("100", False, 100), ("1000", True, 961)):
            code, report = run_json(
                ["verify", "--eq", "feit", "--p", "31", "--mode", "weak", "--budget", budget],
                capsys,
            )
            rec = report["records"][0]
            assert code == 0 and rec["exhaustive"] is exhaustive and rec["grid_size"] == 961
            assert rec["points_checked"] + rec["points_skipped"] == points
        code, report = run_json(
            ["derive", "--eq", "five_term_classical", "--verify", "11", "--budget", "100"],
            capsys,
        )
        weak = report["records"][0]["weak"]
        assert (weak["exhaustive"], weak["grid_size"]) == (False, 121)
        assert "exhaustive" not in report["records"][0]["strong"]

    def test_padic_ranges(self, capsys):
        code, report = run_json(
            ["padic", "--clean", "2..4", "--recursion", "3..4"], capsys
        )
        assert code == 0
        assert report["summary"]["checked"] == 5

    def test_config_error_exit_code(self, capsys):
        code = main(["verify", "--eq", "feit", "--p", "4"])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        (
            ["verify", "--eq", "feit", "--p", "abc"],
            ["verify", "--eq", "feit", "--p", "5..x"],
            ["verify", "--eq", "feit", "--p", "7", "--params", "n"],
            ["verify", "--eq", "distribution", "--p", "7", "--params", "n=1,m=x"],
            ["verify", "--eq", "feit", "--p", "7", "--mode", "weak", "--budget", "0"],
            ["verify", "--eq", "feit", "--p", "7", "--mode", "weak", "--budget", "-5"],
            ["padic", "--clean", "2..x"],
            ["padic", "--recursion", "3,y"],
            ["padic", "--family", "lambda3=1/0"],
            ["padic", "--family", "lambdax=1/2"],
            ["entropy", "--p", "7", "--probs", "1/2,x"],
            ["--config", "/nonexistent/finpolylog.cfg", "list"],
            ["padic", "--clean", "5..2"],
            ["padic", "--recursion", "5..2"],
            ["verify", "--eq", "three_term", "--p", "3"],
            ["derive", "--eq", "three_term_classical", "--verify", "3"],
            ["derive", "--eq", "feit", "--verify", "7"],
            ["derive", "--eq", "two_term", "--verify", "7"],
            ["derive", "--eq", "five_term_classical",
             "--derivation", "a:(a*b+a+2)**123456789", "--verify", "7"],
            ["verify", "--eq", "two_term", "--p", "2147483659", "--mode", "weak",
             "--budget", "10"],
            ["verify", "--eq", "two_term", "--p", "2147483647", "--mode", "weak",
             "--budget", "10"],
            ["tables", "--p", "2147483647"],
        ),
    )
    def test_malformed_input_exits_2_without_traceback(self, argv, capsys):
        code = main(argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err

    @pytest.mark.parametrize("check", ("group", "coboundary", "homogeneity"))
    def test_cocycle_tables_refused_beyond_their_limit(self, check, capsys):
        start = time.perf_counter()
        code = main(["cocycle", "--check", check, "--p", "1009"])
        assert time.perf_counter() - start < 1
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "Traceback" not in err


    def test_all_finite_at_three_leaves_out_weight_two(self, capsys):
        # at p=3 weight 2 = p-1, where L_2 is not a polylogarithm
        code, report = run_json(
            ["verify", "--eq", "all-finite", "--p", "3", "--mode", "both"], capsys
        )
        assert code == 0
        ids = {rec["id"] for rec in report["records"]}
        assert "three_term" not in ids and "cathelineau_J" not in ids
        assert {"feit", "two_term", "inversion"} <= ids
        assert all(rec["holds"] for rec in report["records"])

    @pytest.mark.parametrize("argv", ([], ["--seed", "0"]))
    def test_config_echo_keeps_zero_values(self, argv, capsys):
        code, report = run_json(
            ["verify", "--eq", "feit", "--p", "5", "--mode", "weak"] + argv, capsys
        )
        assert code == 0
        assert report["config"]["seed"] == 0


SUBCOMMANDS = ("verify", "solve", "derive", "padic", "entropy", "cocycle",
               "tables", "list", "nosuch")
FLAGS = ("--eq", "--p", "--mode", "--params", "--expect-fail", "--preset",
         "--derivation", "--verify", "--clean", "--recursion", "--family",
         "--probs", "--check", "--format", "--kummer", "--budget", "--seed",
         "--timings", "--config", "-h")
# Malformed values and small valid ones; every prime is at most 7 and no
# listed equation or preset makes a check that takes more than a moment.
VALUES = ("", "0", "1", "2", "3", "4", "5", "7", "-1", "abc", "1e3", "3..5",
          "5..3", "2..4", "3..x", "..", "5,7", "5,,7", ",", "feit",
          "feit,two_term", "all-finite", "five_term_classical", "inversion",
          "distribution", "j_specialization", "nosuch", "strong", "weak",
          "both", "FEIT", "L2_PAIR", "THREE_TERM", "NOSUCH", "all", "cocycle",
          "group", "eqB", "csv", "json", "n=2,m=2", "n=1,m=4", "n", "m=x",
          "c=a", "c=zzz", "lambda3=1/2", "lambda3=1/0", "lambdax=1", "1/2,1/2",
          "1/3,x", "1/0", "-1/2,3/2", "a:a*(1-a)", "a:", "b:b^2;a:1", "q:1",
          "/nonexistent.cfg", "=", "--")
TOKENS = SUBCOMMANDS + FLAGS + VALUES


def exit_code(argv):
    """What ``finpolylog argv`` exits with, and everything it wrote to
    stderr; argparse leaves through SystemExit."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


# Mostly flag-value pairs, so that most argvs get past argparse.
ARG_GROUPS = st.lists(
    st.one_of(
        st.tuples(st.sampled_from(FLAGS), st.sampled_from(VALUES)).map(list),
        st.sampled_from(TOKENS).map(lambda token: [token]),
    ),
    max_size=5,
).map(lambda groups: [token for group in groups for token in group])


class TestExitCodeContract:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(ARG_GROUPS, st.sampled_from(SUBCOMMANDS), ARG_GROUPS)
    def test_any_argv_exits_0_1_or_2_without_traceback(self, head, command, tail):
        code, err = exit_code(head + [command] + tail)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestConfigFile:
    def test_key_value_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# comment\np = 5,7\nmode = weak\n")
        conf = load_config(str(cfg))
        assert conf == {"p": "5,7", "mode": "weak"}

    def test_config_supplies_defaults_and_flags_override(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("p = 5\nmode = strong\n")
        code, report = run_json(
            ["--config", str(cfg), "verify", "--eq", "feit", "--p", "7"], capsys
        )
        assert code == 0
        assert [r["p"] for r in report["records"]] == [7]  # flag wins
        assert report["records"][0]["mode"] == "strong"  # config default used

    def test_malformed_config(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("not a pair\n")
        with pytest.raises(BadParams) as err:
            load_config(str(cfg))
        assert "1" in str(err.value)

    @pytest.mark.parametrize("value", ("0", "-3", "abc"))
    def test_bad_budget_env_exits_2(self, value, monkeypatch, capsys):
        monkeypatch.setenv("FINPOLYLOG_BUDGET", value)
        code = main(["verify", "--eq", "feit", "--p", "5", "--mode", "weak"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_malformed_config_value_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = many\n")
        code = main(["--config", str(cfg), "verify", "--eq", "feit", "--p", "5"])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")

    def test_config_budget_is_an_integer(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("budget = 123\n")
        code, report = run_json(
            ["--config", str(cfg), "verify", "--eq", "feit", "--p", "5",
             "--mode", "weak"], capsys
        )
        assert code == 0
        assert report["config"]["budget"] == 123

    def test_budget_env_override(self, monkeypatch, capsys):
        monkeypatch.setenv("FINPOLYLOG_BUDGET", "123")
        code, report = run_json(
            ["verify", "--eq", "feit", "--p", "5", "--mode", "weak"], capsys
        )
        assert code == 0
        assert report["config"]["budget"] == 123


def test_two_calls_in_one_process_write_what_separate_calls_write(tmp_path):
    # the parser is built once per process; a second call with another
    # subcommand parses its own arguments
    calls = (
        ["solve", "--preset", "FEIT", "--p", "5,7"],
        ["cocycle", "--check", "all", "--p", "5"],
    )
    outputs = []
    for i, argv in enumerate(calls):
        path = tmp_path / f"r{i}.json"
        assert main([*argv, "--seed", "1", "--output", str(path)]) == 0
        outputs.append(json.loads(path.read_text())["records"])
    for argv, records in zip(calls, outputs):
        path = tmp_path / "again.json"
        assert main([*argv, "--seed", "1", "--output", str(path)]) == 0
        assert json.loads(path.read_text())["records"] == records
