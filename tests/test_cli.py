"""Command-line interface: subcommands, output formats, exit codes."""

import json
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

import rscwe
from rscwe import CodeSpec, CwePolynomial, RscweError
from rscwe.cli import (
    BUDGET_ENV_VAR,
    DEFAULT_ENUM_BUDGET,
    EXIT_BROKEN_PIPE,
    _parse_args,
    _read_options,
    _resolve_budget,
    build_parser,
    parse_eval_kind,
    run_cli,
)

FROZEN_GF2_JSON = (
    '{"alpha":[0,1],"extended":false,"k":2,"m":1,"n":2,"p":2,'
    '"terms":[{"c":1,"e":[0,2]},{"c":2,"e":[1,1]},{"c":1,"e":[2,0]}]}'
)


class TestParseEvalKind:
    def test_named(self):
        assert parse_eval_kind("full") == ("full", None, None)
        assert parse_eval_kind("primitive") == ("primitive", None, None)
        assert parse_eval_kind("standard") == ("standard", None, None)

    def test_punctured(self):
        assert parse_eval_kind("punctured:3") == ("punctured", 3, None)

    def test_custom(self):
        assert parse_eval_kind("custom:4,0,1") == ("custom", None, (4, 0, 1))

    def test_bad_values(self):
        with pytest.raises(RscweError):
            parse_eval_kind("punctured:x")
        with pytest.raises(RscweError):
            parse_eval_kind("custom:1,two")
        with pytest.raises(RscweError):
            parse_eval_kind("sideways")


class TestParseArgs:
    """_parse_args reads an argv of exact options directly, and hands any
    other to the parser; it must return and refuse exactly what the full
    parser does."""

    # argvs that leave the direct reader for the parser
    PARSER_ONLY = [
        ["compare", "--p=5", "--k=2", "--random-sets", "3", "--seed", "7", "--ext"],
        ["compute", "--p", "2", "--k", "2", "--bogus"],
        ["compute", "--p", "2", "--k", "2", "extra", "--", "x"],
        ["compute", "--k", "2"],
        ["compute", "--p", "2", "--k", "2", "--method", "magic"],
        ["compute", "--help"],
        ["explain", "--x"],
        ["comp", "--p", "2", "--k", "2"],
        ["--help"],
        [],
        ["compute", "--p", "3", "--p", "5", "--k", "2"],
        ["compute", "--p", "3", "--k", "2", "--extended", "--extended"],
        ["compare", "--p", "5", "--k", "2", "--budget", "-1"],
        ["compute", "--p", "3", "--k"],
        ["compute", "--p", "3", "--k", "2", "--eval", "-x"],
        ["compute", "--p", "3", "--k", "2", "--output", "xml"],
        ["compute", "--p", "three", "--k", "2"],
        ["compute", "--p", "3", "--k", "2", "--extended", "yes"],
    ]
    ARGVS = [
        ["compute", "--p", "3", "--m", "2", "--k", "2", "--extended", "--output", "json"],
        ["weights", "--p", "2", "--k", "2", "--eval", "custom:0,1", "--budget", "9"],
        ["explain"],
        *PARSER_ONLY,
    ]

    # the argv shapes of the benchmark's jobs (bench/workloads.py) and of
    # CI's console-script runs: each must be read directly, since a silent
    # fallback to the parser would pass test_same_as_the_parser
    DIRECT = [
        ["compute", "--p", "3", "--m", "4", "--k", "3", "--eval", "full", "--output", "json"],
        ["compute", "--p", "3", "--m", "4", "--k", "3", "--eval", "punctured:7", "--output", "json"],
        ["compute", "--p", "2", "--m", "7", "--k", "2", "--eval", "custom:5,1,90,3,77,64",
         "--extended", "--output", "json"],
        ["compare", "--p", "3", "--m", "3", "--k", "3", "--eval", "full"],
        ["compare", "--p", "2", "--m", "5", "--k", "3", "--eval", "punctured:9", "--extended"],
        ["compare", "--p", "2", "--m", "6", "--k", "2", "--eval", "full", "--random-sets", "2",
         "--seed", "421337"],
        ["compare", "--p", "61", "--m", "1", "--k", "2", "--eval", "full", "--extended",
         "--random-sets", "2", "--seed", "7"],
        ["compute", "--p", "1000000000000000003", "--k", "2"],
        ["compute", "--p", "2", "--m", "12", "--k", "2", "--output", "json"],
        ["compute", "--p", "3", "--m", "2", "--k", "3", "--method", "brute", "--budget", "300"],
        ["compute", "--p", "5", "--k", "2", "--eval", "custom:1,a"],
        ["explain"],
        ["compute", "--p", "3", "--m", "2", "--k", "2", "--extended", "--output", "json"],
        ["compute", "--p", "2", "--m", "6", "--k", "3", "--eval", "punctured:0", "--output", "text"],
        ["compare", "--p", "2", "--m", "9", "--k", "2", "--eval", "custom:0,1,2,3,4,5", "--extended"],
        ["compare", "--p", "127", "--k", "2", "--extended"],
        ["weights", "--p", "2", "--m", "3", "--k", "2", "--method", "both", "--output", "json"],
    ]

    @pytest.mark.parametrize("argv", ARGVS, ids=" ".join)
    def test_same_as_the_parser(self, argv, capsys):
        def outcome(parse):
            try:
                result = vars(parse(list(argv)))
            except SystemExit as exc:
                result = exc.code
            return result, capsys.readouterr()

        assert outcome(_parse_args) == outcome(build_parser()[0].parse_args)

    @pytest.mark.parametrize("argv", DIRECT, ids=" ".join)
    def test_read_directly(self, argv):
        args = _read_options(argv)
        assert args is not None
        assert vars(args) == vars(build_parser()[0].parse_args(argv))

    @pytest.mark.parametrize("argv", PARSER_ONLY, ids=" ".join)
    def test_left_to_the_parser(self, argv):
        assert _read_options(argv) is None


class TestResolveBudget:
    def test_flag_wins(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "50")
        assert _resolve_budget(99) == 99

    def test_env_next(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "50")
        assert _resolve_budget(None) == 50

    def test_default_last(self, monkeypatch):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        assert _resolve_budget(None) == DEFAULT_ENUM_BUDGET

    def test_bad_env(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        with pytest.raises(RscweError):
            _resolve_budget(None)

    def test_negative_rejected(self, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "-5")
        with pytest.raises(RscweError):
            _resolve_budget(None)
        with pytest.raises(RscweError):
            _resolve_budget(-1)
        assert _resolve_budget(0) == 0


class TestCompute:
    def test_json_frozen(self, capsys):
        code = run_cli(
            ["compute", "--p", "2", "--k", "2", "--output", "json"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == FROZEN_GF2_JSON

    def test_json_frozen_custom_set(self, capsys):
        code = run_cli(
            ["compute", "--p", "2", "--m", "1", "--k", "2",
             "--eval", "custom:0,1", "--output", "json"]
        )
        assert code == 0
        assert capsys.readouterr().out.strip() == FROZEN_GF2_JSON

    def test_text_frozen(self, capsys):
        assert run_cli(["compute", "--p", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "1 * w[1]^2",
            "2 * w[0]^1 w[1]^1",
            "1 * w[0]^2",
        ]

    def test_methods_agree_bytewise(self, capsys):
        argv = ["compute", "--p", "3", "--m", "2", "--k", "3", "--output", "json"]
        assert run_cli(argv + ["--method", "formula"]) == 0
        formula = capsys.readouterr().out
        assert run_cli(argv + ["--method", "brute"]) == 0
        assert capsys.readouterr().out == formula
        assert run_cli(argv + ["--method", "both"]) == 0
        assert capsys.readouterr().out == formula

    def test_deterministic_across_runs(self, capsys):
        argv = [
            "compute", "--p", "5", "--k", "2", "--eval", "custom:4,2,0",
            "--extended", "--output", "json",
        ]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        wrong = CwePolynomial(2, 2, {(2, 0): 4})
        monkeypatch.setattr("rscwe.cli.closed_form", lambda spec: (lambda: wrong, 0))
        for command in ("compute", "weights"):
            code = run_cli([command, "--p", "2", "--k", "2", "--method", "both"])
            assert code == 1, command
            captured = capsys.readouterr()
            assert captured.out == "", command
            assert "MISMATCH at e=[0, 2]: brute=1 formula=0" in captured.err, command


class TestCompare:
    def test_agreement(self, capsys):
        code = run_cli(
            ["compare", "--p", "3", "--m", "1", "--k", "2", "--extended"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.startswith("OK k=2 n=3 extended=True alpha=[0, 1, 2]:")
        assert "mass 9" in out

    def test_random_sets_logs_seed(self, capsys):
        code = run_cli(
            ["compare", "--p", "5", "--k", "2", "--random-sets", "3", "--seed", "7"]
        )
        assert code == 0
        # header + named spec + 3 random specs, as first frozen
        assert capsys.readouterr().out == (
            "# random sweep: 3 sets, seed 7\n"
            "OK k=2 n=5 extended=False alpha=[0, 1, 2, 3, 4]: 6 terms, mass 25\n"
            "OK k=2 n=4 extended=False alpha=[1, 3, 2, 0]: 10 terms, mass 25\n"
            "OK k=2 n=2 extended=False alpha=[4, 0]: 15 terms, mass 25\n"
            "OK k=2 n=4 extended=False alpha=[4, 0, 2, 3]: 10 terms, mass 25\n"
        )

    def test_gf4_dimension_three(self, capsys):
        assert run_cli(["compare", "--p", "2", "--m", "2", "--k", "3", "--eval", "full"]) == 0
        capsys.readouterr()

    def test_representative_grid(self, capsys):
        # compare agrees across eval kinds, dimensions, and parities (q <= 9)
        jobs = [
            ["--p", "3", "--k", "2", "--eval", "primitive"],
            ["--p", "3", "--k", "2", "--extended"],
            ["--p", "2", "--m", "3", "--k", "3", "--extended"],
            ["--p", "3", "--m", "2", "--k", "3", "--eval", "punctured:4"],
            ["--p", "7", "--k", "3", "--eval", "punctured:0", "--extended"],
            ["--p", "5", "--k", "2", "--eval", "custom:3,1,4"],
        ]
        for job in jobs:
            assert run_cli(["compare"] + job) == 0, job
        out = capsys.readouterr().out
        assert out.count("OK ") == len(jobs)

    def test_random_sets_built_as_reached(self, capsys, monkeypatch):
        # each random set is built only after the previous comparison printed
        printed_before = []

        def spy(*args, **kwargs):
            printed_before.append(capsys.readouterr().out)
            return CodeSpec(*args, **kwargs)

        monkeypatch.setattr("rscwe.cli.CodeSpec", spy)
        assert run_cli(["compare", "--p", "5", "--k", "2", "--random-sets", "3"]) == 0
        capsys.readouterr()
        assert len(printed_before) == 4
        assert printed_before[0] == ""
        assert printed_before[1].startswith("# random sweep: 3 sets, seed 0\nOK ")
        assert all(out.startswith("OK ") for out in printed_before[2:])
        assert all(out.count("\n") == 1 for out in printed_before[2:])

    def test_random_sets_over_budget_refused_first(self, capsys, monkeypatch):
        # 3 random sets and the named set: 4 codes of 25 codewords each
        argv = ["compare", "--p", "5", "--k", "2", "--random-sets", "3"]

        def unreachable(*args, **kwargs):
            raise AssertionError("a code was built")

        monkeypatch.setattr("rscwe.cli.CodeSpec", unreachable)
        assert run_cli(argv + ["--budget", "99"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: enumeration of 4 codes of q^k = 25 codewords (100 in all) "
            "exceeds the budget 99\n"
        )
        monkeypatch.undo()
        # each set then meets the output bound of its closed form when it is
        # drawn: (2q - 1)q = 45 on the full field, q^3 = 125 on fewer points
        assert run_cli(argv + ["--budget", "124"]) == 3
        captured = capsys.readouterr()
        assert captured.out == (
            "# random sweep: 3 sets, seed 0\n"
            "OK k=2 n=5 extended=False alpha=[0, 1, 2, 3, 4]: 6 terms, mass 25\n"
            "OK k=2 n=5 extended=False alpha=[3, 0, 1, 2, 4]: 6 terms, mass 25\n"
        )
        assert captured.err == (
            "error: closed-form output of up to 125 (terms x max(q, code length)) "
            "exceeds the budget 124\n"
        )
        assert run_cli(argv + ["--budget", "125"]) == 0
        assert capsys.readouterr().out.count("OK ") == 4

    def test_random_sets_reproducible(self, capsys):
        argv = ["compare", "--p", "5", "--k", "2", "--random-sets", "2", "--seed", "11"]
        assert run_cli(argv) == 0
        first = capsys.readouterr().out
        assert run_cli(argv) == 0
        assert capsys.readouterr().out == first
        assert first == (
            "# random sweep: 2 sets, seed 11\n"
            "OK k=2 n=5 extended=False alpha=[0, 1, 2, 3, 4]: 6 terms, mass 25\n"
            "OK k=2 n=5 extended=False alpha=[4, 3, 1, 0, 2]: 6 terms, mass 25\n"
            "OK k=2 n=5 extended=False alpha=[4, 1, 0, 3, 2]: 6 terms, mass 25\n"
        )

    def test_random_sets_need_k2(self, capsys):
        code = run_cli(
            ["compare", "--p", "5", "--k", "3", "--random-sets", "2"]
        )
        assert code == 2
        assert "--random-sets" in capsys.readouterr().err

    def test_negative_random_sets_is_usage_error(self, capsys):
        code = run_cli(["compare", "--p", "5", "--k", "2", "--random-sets", "-1"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--random-sets must not be negative (got -1)" in captured.err

    def test_mismatch_exits_1(self, capsys, monkeypatch):
        wrong = CwePolynomial(2, 2, {(2, 0): 4})
        monkeypatch.setattr("rscwe.cli.closed_form", lambda spec: (lambda: wrong, 0))
        code = run_cli(["compare", "--p", "2", "--k", "2"])
        assert code == 1
        captured = capsys.readouterr()
        assert "FAIL" in captured.out
        assert "MISMATCH" in captured.err

    def test_both_never_takes_the_budgeted_path(self, capsys, monkeypatch):
        # compare and --method both build what closed_form returned, not
        # through cwe_formula
        def refused(spec, budget=None):
            raise AssertionError("cwe_formula was called")

        monkeypatch.setattr("rscwe.cli.cwe_formula", refused)
        assert run_cli(["compare", "--p", "5", "--k", "3"]) == 0
        assert run_cli(["compute", "--p", "5", "--k", "3", "--method", "both"]) == 0
        assert capsys.readouterr().err == ""


class TestWeights:
    def test_text(self, capsys):
        assert run_cli(["weights", "--p", "2", "--k", "2"]) == 0
        assert capsys.readouterr().out.splitlines() == [
            "A[0] = 1",
            "A[1] = 2",
            "A[2] = 1",
        ]

    def test_json(self, capsys):
        code = run_cli(
            ["weights", "--p", "3", "--k", "2", "--output", "json"]
        )
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc == {
            "p": 3,
            "m": 1,
            "k": 2,
            "n": 3,
            "extended": False,
            "alpha": [0, 1, 2],
            "weights": [1, 0, 6, 2],
        }

    def test_brute_and_formula_agree(self, capsys):
        argv = ["weights", "--p", "2", "--m", "3", "--k", "3", "--extended"]
        assert run_cli(argv + ["--method", "formula"]) == 0
        formula = capsys.readouterr().out
        assert run_cli(argv + ["--method", "brute"]) == 0
        assert capsys.readouterr().out == formula


class TestExplain:
    def test_lists_every_erratum(self, capsys):
        assert run_cli(["explain"]) == 0
        out = capsys.readouterr().out
        for i in range(1, 5):
            assert f"erratum {i}:" in out
        assert out.count("printed:") == 4
        assert out.count("implemented:") == 4


class TestExitCodes:
    def test_nonprime_p(self, capsys):
        assert run_cli(["compute", "--p", "4", "--k", "2"]) == 2
        assert "p must be prime" in capsys.readouterr().err

    def test_other_errors_are_not_usage_errors(self, monkeypatch):
        # only RscweError is a refusal: a ZeroDivisionError is a bug, and it
        # must show its traceback, not exit 2
        def divide(spec, budget=None):
            raise ZeroDivisionError("inverse of the zero element")

        monkeypatch.setattr("rscwe.cli.cwe_formula", divide)
        with pytest.raises(ZeroDivisionError):
            run_cli(["compute", "--p", "3", "--k", "2"])

    def test_bad_eval(self, capsys):
        assert run_cli(["compute", "--p", "3", "--k", "2", "--eval", "oops"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_k_too_large(self, capsys):
        assert run_cli(["compute", "--p", "3", "--k", "5"]) == 2

    def test_unsupported_formula(self, capsys):
        code = run_cli(
            ["compute", "--p", "5", "--k", "3", "--eval", "custom:0,1,2"]
        )
        assert code == 2
        assert "closed form" in capsys.readouterr().err

    def test_uncovered_spec_refused_before_enumerating(self, capsys, monkeypatch):
        def unreachable(spec, budget=None):
            raise AssertionError("brute force was reached")

        monkeypatch.setattr("rscwe.cli.cwe_bruteforce", unreachable)
        # the patch is live: a spec with a closed form reaches brute force
        with pytest.raises(AssertionError, match="brute force was reached"):
            run_cli(["compare", "--p", "5", "--k", "3"])
        k3 = (
            "no closed form for k=3 over this evaluation set; it must be the "
            "full field or the field minus one point (use the brute method)"
        )
        cases = [
            (["compare", "--p", "2", "--m", "3", "--k", "3", "--eval", "custom:2,3,4,5"], k3),
            (["compute", "--p", "7", "--k", "3", "--eval", "custom:0,1,2", "--method=both"], k3),
            (["weights", "--p", "5", "--k", "4", "--method", "both"],
             "no closed form for dimension k=4 (use the brute method)"),
        ]
        for argv, message in cases:
            assert run_cli(argv) == 2, argv
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == f"error: {message}\n"

    def test_budget_flag(self, capsys):
        code = run_cli(
            ["compute", "--p", "3", "--m", "2", "--k", "3",
             "--method", "brute", "--budget", "100"]
        )
        assert code == 3
        err = capsys.readouterr().err
        assert "budget" in err and "100" in err
        # the budget counts all q^k = 729 codewords, though brute force
        # encodes only q^(k-1) of them
        argv = ["compute", "--p", "3", "--m", "2", "--k", "3", "--method", "brute"]
        assert run_cli(argv + ["--budget", "728"]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: enumeration of q^k = 729 codewords exceeds the budget 728\n"
        )
        assert run_cli(argv + ["--budget", "729"]) == 0
        capsys.readouterr()

    def test_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "100")
        code = run_cli(
            ["compute", "--p", "3", "--m", "2", "--k", "3", "--method", "brute"]
        )
        assert code == 3
        assert "100" in capsys.readouterr().err

    def test_budget_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "100")
        code = run_cli(
            ["compute", "--p", "3", "--m", "2", "--k", "3",
             "--method", "brute", "--budget", "1000000"]
        )
        assert code == 0
        capsys.readouterr()

    def test_bad_budget_env(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "plenty")
        assert run_cli(["compute", "--p", "2", "--k", "2"]) == 2
        assert BUDGET_ENV_VAR in capsys.readouterr().err

    def test_negative_budget_is_usage_error(self, capsys, monkeypatch):
        assert run_cli(["compare", "--p", "5", "--k", "2", "--budget", "-1"]) == 2
        assert "--budget" in capsys.readouterr().err
        monkeypatch.setenv(BUDGET_ENV_VAR, "-1")
        assert run_cli(["compare", "--p", "5", "--k", "2"]) == 2
        assert BUDGET_ENV_VAR in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["compute", "--p", "1000000000000000003", "--k", "2"],
            ["compute", "--p", "3", "--m", "100000000", "--k", "2"],
        ],
    )
    def test_huge_field_refused_quickly(self, capsys, argv):
        start = time.perf_counter()
        assert run_cli(argv) in (2, 3)
        assert time.perf_counter() - start < 1.0
        assert "bound" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--p", "2", "--m", "12", "--k", "2"],
            ["--p", "5", "--m", "3", "--k", "3", "--eval", "punctured:1", "--extended"],
            ["--p", "2", "--m", "8", "--k", "3", "--extended"],
            # two points, but every term a vector of q = 2048 entries: never
            # run it unpatched, it needs tens of gigabytes
            ["--p", "2", "--m", "11", "--k", "2", "--eval", "custom:0,1"],
        ],
    )
    def test_formula_output_over_budget_refused_first(self, capsys, monkeypatch, argv):
        # closed forms whose output would take minutes and gigabytes: refused
        # with exit 3 before any orbit list is built or expanded
        def unreachable(*args):
            raise AssertionError("an orbit list was built")

        for name in ("_expand", "_k3_orbits", "_scalings"):
            monkeypatch.setattr(f"rscwe.cwe.{name}", unreachable)
        # the patch is live: a small closed form reaches it
        with pytest.raises(AssertionError, match="orbit list was built"):
            run_cli(["compute", "--p", "3", "--k", "2"])
        start = time.perf_counter()
        assert run_cli(["compute", *argv]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert re.fullmatch(
            r"error: closed-form output of up to \d+ \(terms x max\(q, code length\)\) "
            r"exceeds the budget 16777216\n",
            captured.err,
        )

    def test_formula_budget_boundary(self, capsys, monkeypatch):
        # GF(9), k=3, extended: the budget bounds the estimated output of
        # --method formula and --method both alike
        argv = ["compute", "--p", "3", "--m", "2", "--k", "3", "--extended"]
        assert run_cli(argv + ["--budget", "1"]) == 3
        estimate = int(re.search(r"up to (\d+) ", capsys.readouterr().err).group(1))
        assert estimate > 729
        assert run_cli(argv + ["--budget", str(estimate - 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: closed-form output of up to {estimate} (terms x max(q, code length)) "
            f"exceeds the budget {estimate - 1}\n"
        )
        assert run_cli(argv + ["--budget", str(estimate)]) == 0
        formula = capsys.readouterr().out
        both = [*argv, "--method", "both"]
        assert run_cli(both + ["--budget", str(estimate - 1)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"closed-form output of up to {estimate} " in captured.err
        assert run_cli(both + ["--budget", str(estimate)]) == 0
        assert capsys.readouterr().out == formula
        weights = ["weights", *argv[1:], "--budget", str(estimate - 1)]
        assert run_cli(weights) == 3
        assert "closed-form output" in capsys.readouterr().err
        monkeypatch.setenv(BUDGET_ENV_VAR, str(estimate - 1))
        assert run_cli(argv) == 3
        assert f"exceeds the budget {estimate - 1}" in capsys.readouterr().err

    def test_brute_budget_boundary(self, capsys, monkeypatch):
        # GF(9), k=3, extended: --method brute meets the output bound of the
        # closed form covering the code, before it encodes anything
        argv = ["compute", "--p", "3", "--m", "2", "--k", "3", "--extended"]
        brute = [*argv, "--method", "brute"]
        assert run_cli(argv + ["--budget", "1"]) == 3
        estimate = int(re.search(r"up to (\d+) ", capsys.readouterr().err).group(1))
        assert estimate > 729

        def unreachable(spec):
            raise AssertionError("a codeword was encoded")

        monkeypatch.setattr("rscwe.codes._encoder", unreachable)
        for budget in (1, 728, 729, estimate - 1):
            assert run_cli(brute + ["--budget", str(budget)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err == (
                f"error: closed-form output of up to {estimate} (terms x max(q, code length)) "
                f"exceeds the budget {budget}\n"
            )
        with pytest.raises(AssertionError, match="codeword was encoded"):
            run_cli(brute + ["--budget", str(estimate)])
        monkeypatch.undo()
        assert run_cli(brute + ["--budget", str(estimate)]) == 0
        assert run_cli(argv + ["--budget", str(estimate)]) == 0
        outputs = capsys.readouterr().out
        assert outputs[: len(outputs) // 2] * 2 == outputs
        # the weights printer takes the same route
        assert run_cli(["weights", *brute[1:], "--budget", str(estimate - 1)]) == 3
        assert "closed-form output" in capsys.readouterr().err

    def test_brute_budget_counts_codewords_alone_without_closed_form(self, capsys):
        # k = 4 has no closed form: the q^k = 625 codewords are the bound
        argv = ["compute", "--p", "5", "--k", "4", "--method", "brute"]
        assert run_cli(argv + ["--budget", "624"]) == 3
        assert capsys.readouterr().err == (
            "error: enumeration of q^k = 625 codewords exceeds the budget 624\n"
        )
        assert run_cli(argv + ["--budget", "625"]) == 0
        assert capsys.readouterr().out

    def test_compare_budget_counts_codewords(self, capsys):
        # compare meets the larger of the closed form's output bound and the
        # q^k codewords: GF(9), k=3, extended, has 729 codewords and an
        # output bound of 820; GF(5), k=3, 125 codewords and a bound of 80
        argv = ["compare", "--p", "3", "--m", "2", "--k", "3", "--extended"]
        assert run_cli(argv + ["--budget", "819"]) == 3
        assert capsys.readouterr().err == (
            "error: closed-form output of up to 820 (terms x max(q, code length)) "
            "exceeds the budget 819\n"
        )
        assert run_cli(argv + ["--budget", "820"]) == 0
        assert capsys.readouterr().out.startswith("OK k=3 n=9 extended=True")
        argv = ["compare", "--p", "5", "--k", "3"]
        assert run_cli(argv + ["--budget", "124"]) == 3
        assert capsys.readouterr().err == (
            "error: enumeration of q^k = 125 codewords exceeds the budget 124\n"
        )
        assert run_cli(argv + ["--budget", "125"]) == 0
        assert capsys.readouterr().out.startswith("OK k=3 n=5 extended=False")

    def test_brute_large_output_refused_at_once(self, capsys):
        # GF(256) minus a point, k = 3: its 2^24 codewords fit the default
        # budget, but the bound on its output does not
        argv = ["compute", "--p", "2", "--m", "8", "--k", "3", "--eval", "punctured:0"]
        start = time.perf_counter()
        assert run_cli([*argv, "--method", "brute"]) == 3
        assert time.perf_counter() - start < 1.0
        assert capsys.readouterr().err == (
            "error: closed-form output of up to 16842752 (terms x max(q, code length)) "
            "exceeds the budget 16777216\n"
        )

    @pytest.mark.parametrize("command", [
        ["compare"], ["compute", "--method", "both"], ["weights", "--method", "both"],
    ], ids=["compare", "compute-both", "weights-both"])
    @pytest.mark.parametrize("code,bound", [
        # never run them unpatched: each enumerator needs gigabytes, though
        # q^k fits the default budget
        (["--p", "2", "--m", "11", "--k", "2", "--eval", "custom:0,1"], 2048**3),
        (["--p", "2", "--m", "8", "--k", "3", "--eval", "punctured:0", "--extended"],
         4278321152),
    ], ids=["gf2048-two-points", "gf256-k3-punctured-extended"])
    def test_brute_and_closed_form_output_refused_at_once(
        self, capsys, monkeypatch, command, code, bound
    ):
        def unreachable(spec):
            raise AssertionError("a codeword was encoded")

        monkeypatch.setattr("rscwe.codes._encoder", unreachable)
        start = time.perf_counter()
        assert run_cli([command[0], *code, *command[1:]]) == 3
        assert time.perf_counter() - start < 1.0
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: closed-form output of up to {bound} (terms x max(q, code length)) "
            "exceeds the budget 16777216\n"
        )

    def test_closed_pipe_exits_quietly(self):
        # `rscwe ... | head -1`: the reader takes one line of a 1 MB answer
        # and closes the pipe while the writer is still blocked on it
        src = str(Path(rscwe.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])
        ))
        argv = [sys.executable, "-m", "rscwe.cli", "compute", "--p", "2", "--m", "6",
                "--k", "3", "--eval", "punctured:0", "--output", "text"]
        proc = subprocess.Popen(
            argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
        )
        assert proc.stdout.readline() == b"1 * w[63]^63\n"
        proc.stdout.close()
        err = proc.stderr.read()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_BROKEN_PIPE == 141
        assert err == b""

    def test_argparse_usage_errors(self):
        with pytest.raises(SystemExit) as info:
            run_cli(["compute", "--k", "2"])  # missing --p
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            run_cli([])  # missing subcommand
        assert info.value.code == 2
        with pytest.raises(SystemExit) as info:
            run_cli(["compute", "--p", "2", "--k", "2", "--method", "magic"])
        assert info.value.code == 2
