"""Command-line contract: schemas, display strings, exit codes, determinism."""

import json
import os
import subprocess
import sys
from decimal import ROUND_DOWN, ROUND_HALF_UP, Decimal, localcontext
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

from gainlab import bigmath, cli, factor, gains, runs
from gainlab.bigmath import DISPLAY_DIGITS, display, round_sig
from gainlab.cli import (
    EXIT_INVALID,
    EXIT_OK,
    EXIT_RESOURCE,
    EXIT_USAGE,
    REPORT_SCHEMA,
    main,
    parse_args,
    solution_report,
)
from gainlab.factor import BUDGET_ENV_VAR
from gainlab.gains import bound_fields, compute_gains, custom_qmax, validate_solution

DEWEGER_ARGS = [
    "analyze", "--n", "3", "--x", "25", "--y", "128",
    "--A", "3087", "--B", "23", "--k", "121",
]
# Honest high-exponent case: A as the exact product, k from the equation.
NITAJ_ARGS = [
    "analyze", "--n", "59", "--x", "1", "--y", "2",
    "--A", str(7 ** 2 * 41 ** 2 * 311 ** 3), "--B", "1",
    "--k", str(2 ** 59 - 7 ** 2 * 41 ** 2 * 311 ** 3),
]
# Same case as printed: identity fails by a pinned residual.
NITAJ_PRINTED_ARGS = [
    "analyze", "--n", "59", "--x", "1", "--y", "2",
    "--A", "2477678547009", "--B", "1", "--k", str(11 ** 16 * 13 ** 2 * 79),
]
# 15 * 10022 * (10007 * 10037): the k factor needs the rho stage.
HARD_ARGS = [
    "analyze", "--n", "2", "--x", "15", "--y", "10022",
    "--A", "1", "--B", "1", "--k", "100440259",
]

# Each invocation runs in every format.  cli_golden.json pins the exact
# stdout and exit code of each, so changing them changes the CLI contract.
GOLDEN_PATH = Path(__file__).with_name("cli_golden.json")
GOLDEN_INVOCATIONS = {
    "analyze-deweger": DEWEGER_ARGS,
    "analyze-deweger-qmax": DEWEGER_ARGS + ["--qmax", "1.5"],
    "analyze-nitaj": NITAJ_ARGS,
    "analyze-nitaj-printed": NITAJ_PRINTED_ARGS,
    "bounds": ["bounds", "--n", "3", "--A", "3087", "--B", "23", "--y", "128"],
    "bounds-qmax-1.5": [
        "bounds", "--n", "3", "--A", "3087", "--B", "23", "--y", "128", "--qmax", "1.5",
    ],
    "bounds-qmax-0.5": [
        "bounds", "--n", "2", "--A", "1", "--B", "1", "--y", "2", "--qmax", "0.5",
    ],
    "search-readme": [
        "search", "--n", "2:2", "--x", "2:10", "--y", "2:10",
        "--A", "1:1", "--B", "1:1", "--k", "1:10",
    ],
    "search-empty": [
        "search", "--n", "4:4", "--x", "2:100", "--y", "2:100",
        "--A", "1:1", "--B", "1:1", "--k", "1:1",
    ],
    "hunt-threshold": [
        "hunt", "--n", "2:3", "--x", "2:30", "--y", "2:30",
        "--A", "1:2", "--B", "1:2", "--q-threshold", "1.3",
    ],
    "hunt-trivial-x": [
        "hunt", "--n", "2:3", "--x", "1:3", "--y", "2:4",
        "--A", "1:1", "--B", "1:1", "--allow-trivial-x",
    ],
    "verify-corpus": ["verify-corpus"],
    # Two of the five solutions get partial reports: radical_P, G_p, q
    # and thm5_holds are null (see GOLDEN_ENV).
    "hunt-partial": [
        "hunt", "--n", "9", "--x", "38:41", "--y", "38:41", "--A", "1:2", "--B", "1",
    ],
}
# Environment of the invocations that need one.  A zero budget stops the
# factoring of every component with a composite cofactor above 10^8.
GOLDEN_ENV = {"hunt-partial": {BUDGET_ENV_VAR: "0"}}

SOLUTION_CSV_HEADER = (
    "n,x,y,A,B,k,trivial_x,C,P,radical_P,G_a,G_p,q,"
    "ga_min,q_min,gp_max_strong,gp_max_ultra,k1_q_bound,"
    "identity,coprime,thm1_holds,thm5_holds"
)


def run_cli(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, argv):
    code, out, err = run_cli(capsys, argv + ["--format", "json"])
    return code, json.loads(out), err


class TestParseArgs:
    def test_analyze_config(self):
        config = parse_args(DEWEGER_ARGS)
        assert config.command == "analyze"
        assert (config.n, config.x, config.y) == (3, 25, 128)
        assert (config.A, config.B, config.k) == (3087, 23, 121)
        assert config.output_format == "human"
        assert config.qmax is None

    def test_range_syntax(self):
        config = parse_args(
            ["hunt", "--n", "2:3", "--x", "2:50", "--y", "7",
             "--A", "1:1", "--B", "1:1"]
        )
        assert config.n_range == (2, 3)
        assert config.x_range == (2, 50)
        assert config.y_range == (7, 7)
        assert config.q_threshold is None
        assert config.allow_trivial_x is False

    def test_flags(self):
        config = parse_args(
            ["hunt", "--n", "2:2", "--x", "1:5", "--y", "2:5",
             "--A", "1:1", "--B", "1:1", "--q-threshold", "1.2",
             "--allow-trivial-x", "--format", "csv"]
        )
        assert str(config.q_threshold) == "1.2"
        assert config.allow_trivial_x is True
        assert config.output_format == "csv"


class TestAnalyzeJson:
    def test_schema_key_order(self, capsys):
        code, doc, _ = run_json(capsys, DEWEGER_ARGS)
        assert code == EXIT_OK
        assert list(doc) == ["solution", "terms", "gains", "bounds", "checks"]
        assert list(doc["solution"]) == ["n", "x", "y", "A", "B", "k", "trivial_x"]
        assert list(doc["terms"]) == ["C", "P", "radical_P"]
        assert list(doc["gains"]) == ["G_a", "G_p", "q"]
        assert list(doc["bounds"]) == [
            "ga_min", "q_min", "gp_max_strong", "gp_max_ultra", "k1_q_bound"
        ]
        assert list(doc["checks"]) == ["identity", "coprime", "thm1_holds", "thm5_holds"]

    def test_display_values(self, capsys):
        _, doc, _ = run_json(capsys, DEWEGER_ARGS)
        assert doc["gains"] == {"G_a": "0.736010", "G_p": "2.20920", "q": "1.62599"}
        assert doc["terms"]["radical_P"] == "53130"
        assert doc["bounds"]["ga_min"] == "0.479019"
        assert doc["bounds"]["q_min"] == "0.479019"
        assert doc["bounds"]["gp_max_strong"] == "4.17520"
        assert doc["bounds"]["gp_max_ultra"] == "3.13140"
        assert doc["bounds"]["k1_q_bound"] == "1.50000"

    @given(st.integers(min_value=1, max_value=10 ** 70), st.integers(min_value=-90, max_value=20))
    # 999999.5, 0.9999995 and 9.999995e-7 carry to a seventh digit.
    @example(9999995, -1)
    @example(9999995, -7)
    @example(9999995, -13)
    @example(1234567, -13)
    @example(1234567, 0)
    def test_display_is_plain_decimal_at_six_digits(self, coefficient, exponent):
        value = Decimal(coefficient).scaleb(exponent)
        assert display(value) == format(round_sig(value, DISPLAY_DIGITS), "f")

    @pytest.mark.parametrize(
        "context", [{}, {"rounding": ROUND_HALF_UP}, {"rounding": ROUND_DOWN}, {"prec": 3}]
    )
    def test_display_ignores_the_callers_context(self, context):
        cases = {
            # Ties at the seventh digit go to the even sixth.
            "1.234565": "1.23456",
            "2.0000005": "2.00000",
            # A carry keeps the exponent of the unrounded value.
            "9.9999951": "10.00000",
            "999999.6": "1000000",
            "0.000999999501": "0.001000000",
            # Exact short values are padded, never rounded.
            "1": "1.00000",
            "1.5": "1.50000",
            # Past display's table of fixed-point specs.
            "1.2345675E+7": "12345700",
            "1.2345675E-8": "0.0000000123457",
        }
        with localcontext() as ctx:
            for name, value in context.items():
                setattr(ctx, name, value)
            assert {text: display(Decimal(text)) for text in cases} == cases

    def test_exact_integer_round_trip(self, capsys):
        _, doc, _ = run_json(capsys, DEWEGER_ARGS)
        assert int(doc["terms"]["C"]) == 23 * 128 ** 3
        assert int(doc["terms"]["P"]) == 25 * 128 * 3087 * 23 * 121
        assert int(doc["solution"]["A"]) == 3087
        assert doc["solution"]["trivial_x"] is False

    def test_checks_all_hold(self, capsys):
        _, doc, _ = run_json(capsys, DEWEGER_ARGS)
        assert doc["checks"] == {
            "identity": True,
            "coprime": True,
            "thm1_holds": True,
            "thm5_holds": True,
        }

    def test_custom_cap_inserted_before_k1(self, capsys):
        _, doc, _ = run_json(capsys, DEWEGER_ARGS + ["--qmax", "1.5"])
        assert list(doc["bounds"]) == [
            "ga_min", "q_min", "gp_max_strong", "gp_max_ultra",
            "gp_max_custom", "k1_q_bound",
        ]
        assert doc["bounds"]["gp_max_custom"] == "3.13140"

    def test_high_exponent_trivial_case(self, capsys):
        code, doc, _ = run_json(capsys, NITAJ_ARGS)
        assert code == EXIT_OK
        assert doc["solution"]["trivial_x"] is True
        assert doc["gains"] == {"G_a": "0.583165", "G_p": "1.32345", "q": "0.771790"}
        assert doc["bounds"]["ga_min"] == "0.581428"
        assert doc["bounds"]["gp_max_strong"] == "3.43981"
        assert doc["bounds"]["k1_q_bound"] == "29.5000"
        assert doc["terms"]["C"] == str(2 ** 59)
        assert doc["checks"]["identity"] is True

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, DEWEGER_ARGS + ["--format", "json"])
        _, out2, _ = run_cli(capsys, DEWEGER_ARGS + ["--format", "json"])
        assert out1 == out2


class TestReportRow:
    @pytest.mark.parametrize("cap", [None, "1.5"])
    def test_values_in_schema_column_order(self, cap):
        s = validate_solution(3, 25, 128, 3087, 23, 121)
        g = compute_gains(s, q_max_custom=None if cap is None else custom_qmax(cap))
        columns = [
            name for names in REPORT_SCHEMA.values() for name in names
            if cap is not None or name != "gp_max_custom"
        ]
        row = solution_report(s, g)
        assert len(row) == len(columns)
        fields = dict(zip(columns, row))
        assert fields["k"] == 121 and fields["trivial_x"] is False
        assert fields["radical_P"] == "53130"
        assert fields["G_p"] == "2.20920"
        assert fields["k1_q_bound"] == "1.50000"
        assert fields["thm5_holds"] is True
        assert fields.get("gp_max_custom") == (None if cap is None else "3.13140")

    @given(
        st.tuples(
            st.integers(2, 60), st.integers(1, 10 ** 9), st.integers(1, 10 ** 9),
            st.integers(2, 10 ** 9),
        ),
        st.decimals("0.01", "100", places=3),
    )
    def test_bound_strings_rendered_per_key(self, key, cap):
        names = [name for name in REPORT_SCHEMA["bounds"] if name != "gp_max_custom"]
        fields = bound_fields(*key)
        expected = tuple(display(fields[name]) for name in names)
        assert gains.bound_text(*key) == gains._bounds(*key)[-1] == expected
        # A custom cap adds its column, rendered on the call, to the same entry.
        fields = bound_fields(*key, custom_qmax(cap))
        expected = tuple(display(fields[name]) for name in REPORT_SCHEMA["bounds"])
        assert gains.bound_text(*key, fields["gp_max_custom"]) == expected

    def test_display_rounds_per_solution_and_per_new_key(self, capsys, monkeypatch):
        # G_a, G_p and q are rounded for each solution; ga_min (shared by
        # q_min), the two G_p caps and k1_q_bound once for each new
        # (n, A, B, y), and the memo holds one entry per key.  display
        # rounds with one context call each.
        calls = []
        rounding = bigmath._round_display
        monkeypatch.setattr(bigmath, "_round_display", lambda v: calls.append(v) or rounding(v))
        gains._bounds.cache_clear()
        argv = ["hunt", "--n", "2:3", "--x", "2:12", "--y", "2:12", "--A", "1:2", "--B", "1:2"]
        code, out, _ = run_cli(capsys, argv + ["--format", "json"])
        assert code == EXIT_OK
        doc = json.loads(out)
        keys = {tuple(d["solution"][name] for name in "nABy") for d in doc["solutions"]}
        assert len(doc["solutions"]) > 2 * len(keys) > 0
        assert len(calls) == 3 * len(doc["solutions"]) + 4 * len(keys)
        assert gains._bounds.cache_info().currsize == len(keys)
        # Rows rendered from a cleared memo are the rows rendered before.
        gains._bounds.cache_clear()
        assert run_cli(capsys, argv + ["--format", "json"])[1] == out


# Invocations whose JSON documents cover every layout: analyze with and
# without a cap, the search rows of partial reports (None in radical_P,
# G_p, q and thm5_holds), and bounds with a null count and a 65-digit one.
LAYOUT_INVOCATIONS = {
    "analyze-deweger": DEWEGER_ARGS,
    "analyze-deweger-qmax": DEWEGER_ARGS + ["--qmax", "1.5"],
    "hunt-partial": GOLDEN_INVOCATIONS["hunt-partial"],
    "bounds-qmax-0.5": GOLDEN_INVOCATIONS["bounds-qmax-0.5"],
    "bounds-qmax-9.99e63": [
        "bounds", "--n", "2", "--A", "1", "--B", "1", "--y", "2", "--qmax", "9.99e63",
    ],
}


def _encoded(name: str, value):
    """A row value as JSON takes it: every int but a count is exact digit text."""
    if type(value) is int and not name.startswith("max_admissible_exponent_"):
        return str(value)
    return value


class TestLayouts:
    @pytest.mark.parametrize("name", list(LAYOUT_INVOCATIONS))
    def test_json_rows_are_the_json_encoders(self, capsys, monkeypatch, name):
        # Each rendered row, against json.dumps of the same row's values
        # under the names and sections the row text carries.
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        for key, value in GOLDEN_ENV.get(name, {}).items():
            monkeypatch.setenv(key, value)
        rendered, render = [], cli._Layout.render

        def spy(layout, fmt, row):
            rendered.append((row, render(layout, fmt, row)))
            return rendered[-1][1]

        monkeypatch.setattr(cli._Layout, "render", spy)
        code, _, _ = run_cli(capsys, LAYOUT_INVOCATIONS[name] + ["--format", "json"])
        assert code == EXIT_OK and rendered
        for row, text in rendered:
            sections = json.loads(text)
            names = [(section, column) for section in sections for column in sections[section]]
            assert len(names) == len(row)
            doc = {}
            for (section, column), value in zip(names, row):
                doc.setdefault(section, {})[column] = _encoded(column, value)
            last = text.rsplit("\n", 1)[-1]
            indent = "\n" + last[:len(last) - len(last.lstrip())]
            assert text == json.dumps(doc, indent=2).replace("\n", indent)
        if name == "hunt-partial":
            assert sum(None in row for row, _ in rendered) == 2


class TestAnalyzeOtherFormats:
    def test_csv_header_and_row(self, capsys):
        code, out, _ = run_cli(capsys, DEWEGER_ARGS + ["--format", "csv"])
        assert code == EXIT_OK
        header, row = out.splitlines()
        assert header == SOLUTION_CSV_HEADER
        cells = row.split(",")
        assert len(cells) == len(header.split(","))
        assert cells[header.split(",").index("radical_P")] == "53130"
        assert cells[header.split(",").index("trivial_x")] == "false"
        assert cells[header.split(",").index("identity")] == "true"

    def test_csv_custom_cap_column(self, capsys):
        _, out, _ = run_cli(capsys, DEWEGER_ARGS + ["--format", "csv", "--qmax", "2"])
        header = out.splitlines()[0].split(",")
        idx = header.index("gp_max_custom")
        assert header[idx - 1] == "gp_max_ultra"
        assert header[idx + 1] == "k1_q_bound"

    def test_human_output(self, capsys):
        code, out, _ = run_cli(capsys, DEWEGER_ARGS)
        assert code == EXIT_OK
        assert "G_a=0.736010" in out
        assert "solution" in out
        assert "radical_P=53130" in out


class TestAnalyzeFailures:
    def test_invalid_solution_exit_and_json_document(self, capsys):
        code, doc, _ = run_json(capsys, NITAJ_PRINTED_ARGS)
        assert code == EXIT_INVALID
        assert doc["valid"] is False
        assert len(doc["violations"]) == 1
        v = doc["violations"][0]
        assert v["kind"] == "identity-violation"
        assert v["residual"] == str(
            2 ** 59 - 2477678547009 - 11 ** 16 * 13 ** 2 * 79
        )

    def test_invalid_solution_csv(self, capsys):
        code, out, _ = run_cli(capsys, NITAJ_PRINTED_ARGS + ["--format", "csv"])
        assert code == EXIT_INVALID
        lines = out.splitlines()
        assert lines[0] == "kind,residual"
        assert lines[1].startswith("identity-violation,-")

    def test_invalid_solution_human(self, capsys):
        code, out, _ = run_cli(capsys, NITAJ_PRINTED_ARGS)
        assert code == EXIT_INVALID
        assert "invalid solution:" in out
        assert "identity-violation" in out

    def test_range_violation_exit(self, capsys):
        args = ["analyze", "--n", "1", "--x", "2", "--y", "3",
                "--A", "1", "--B", "1", "--k", "1"]
        code, out, _ = run_cli(capsys, args + ["--format", "json"])
        assert code == EXIT_INVALID
        doc = json.loads(out)
        assert any(v["kind"] == "range-violation" for v in doc["violations"])

    def test_negative_parameter_is_an_error_not_a_report(self, capsys):
        args = ["analyze", "--n", "2", "--x", "-3", "--y", "2",
                "--A", "1", "--B", "1", "--k", "1"]
        code, out, err = run_cli(capsys, args)
        assert code == EXIT_INVALID
        assert out == ""
        assert err == "error: x must be nonnegative, got -3\n"

    def test_budget_exhaustion_exit(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "10")
        code, out, err = run_cli(capsys, HARD_ARGS + ["--format", "json"])
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "budget" in err

    def test_memory_error_exit(self, capsys, monkeypatch):
        def exhaust(args):
            raise MemoryError

        monkeypatch.setitem(cli._COMMANDS, "analyze", exhaust)
        code, out, err = run_cli(capsys, DEWEGER_ARGS)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert err == "error: out of memory\n"

    def test_garbage_budget_env_is_usage_error(self, capsys, monkeypatch):
        monkeypatch.setenv(BUDGET_ENV_VAR, "lots")
        code, out, err = run_cli(capsys, HARD_ARGS)
        assert code == EXIT_USAGE
        assert "error:" in err

    @pytest.mark.parametrize("setting, args", [
        # Neither invocation needs a rho step, so the setting is checked
        # before any command runs, not when rho first reads it.
        ("lots", ["analyze", "--n", "5", "--x", "9", "--y", "23",
                  "--A", "109", "--B", "1", "--k", "2"]),
        ("-5", ["hunt", "--n", "2", "--x", "2:5", "--y", "2:5", "--A", "1", "--B", "1"]),
    ])
    def test_bad_budget_env_fails_every_command(self, capsys, monkeypatch, setting, args):
        monkeypatch.setenv(BUDGET_ENV_VAR, setting)
        code, out, err = run_cli(capsys, args)
        assert code == EXIT_USAGE
        assert out == ""
        assert BUDGET_ENV_VAR in err


class TestPastTheIntToStrDigitLimit:
    def test_hunt_prints_the_exact_terms(self, capsys, monkeypatch):
        # C = (10^2200 + 1)^2 has 4,401 digits, past Python's default
        # int-to-str limit of 4,300.  A zero budget stops the factoring of
        # y at once, so the report is partial.
        monkeypatch.setenv(BUDGET_ENV_VAR, "0")
        x = 10 ** 2200
        limit = sys.get_int_max_str_digits()
        code, doc, _ = run_json(
            capsys,
            ["hunt", "--n", "2", "--x", str(x), "--y", str(x + 1), "--A", "1", "--B", "1"],
        )
        assert code == EXIT_OK
        assert sys.get_int_max_str_digits() == limit
        zeros = "0" * 2199
        terms = doc["solutions"][0]["terms"]
        assert terms["C"] == f"1{zeros}2{zeros}1"
        assert terms["radical_P"] is None

    def test_invalid_solution_prints_the_exact_residual(self, capsys):
        # The residual 150^2000 - 2^2000 - 1 has 4,353 digits, so the
        # violation document must be written before the limit is restored.
        limit = sys.get_int_max_str_digits()
        code, doc, _ = run_json(
            capsys,
            ["analyze", "--n", "2000", "--x", "2", "--y", "150",
             "--A", "1", "--B", "1", "--k", "1"],
        )
        assert code == EXIT_INVALID
        assert sys.get_int_max_str_digits() == limit
        sys.set_int_max_str_digits(0)
        try:
            expected = str(150 ** 2000 - 2 ** 2000 - 1)
        finally:
            sys.set_int_max_str_digits(limit)
        [violation] = doc["violations"]
        assert violation["residual"] == expected

    def test_limit_restored_after_an_error_exit(self, capsys):
        limit = sys.get_int_max_str_digits()
        code, out, err = run_cli(capsys, ["bounds", "--n", "1", "--A", "1", "--B", "1", "--y", "2"])
        assert (code, out, err) == (EXIT_USAGE, "", "error: bound formulas require n >= 2\n")
        assert sys.get_int_max_str_digits() == limit


class TestUsageErrors:
    def test_missing_required_flag(self, capsys):
        code, _, err = run_cli(capsys, ["analyze", "--n", "3"])
        assert code == EXIT_USAGE
        assert "required" in err

    def test_no_subcommand(self, capsys):
        assert run_cli(capsys, [])[0] == EXIT_USAGE

    def test_help_exits_zero(self, capsys):
        assert run_cli(capsys, ["--help"])[0] == 0

    def test_bad_integer(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["analyze", "--n", "two", "--x", "25", "--y", "128",
             "--A", "3087", "--B", "23", "--k", "121"],
        )
        assert code == EXIT_USAGE
        assert "not an integer" in err

    def test_bad_range(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hunt", "--n", "2-3", "--x", "2:5", "--y", "2:5",
             "--A", "1:1", "--B", "1:1"],
        )
        assert code == EXIT_USAGE
        assert "not a LO:HI range" in err

    def test_empty_interval(self, capsys):
        code, _, err = run_cli(
            capsys,
            ["hunt", "--n", "3:2", "--x", "2:5", "--y", "2:5",
             "--A", "1:1", "--B", "1:1"],
        )
        assert code == EXIT_USAGE
        assert "empty" in err

    def test_bad_format_choice(self, capsys):
        code, _, _ = run_cli(capsys, DEWEGER_ARGS + ["--format", "yaml"])
        assert code == EXIT_USAGE

    def test_nonpositive_qmax(self, capsys):
        code, _, err = run_cli(capsys, DEWEGER_ARGS + ["--qmax", "0"])
        assert code == EXIT_USAGE
        assert "positive" in err

    @pytest.mark.parametrize(
        "argv",
        [
            DEWEGER_ARGS + ["--qmax", "nan"],
            DEWEGER_ARGS + ["--qmax", "snan"],
            DEWEGER_ARGS + ["--qmax", "inf"],
            ["bounds", "--n", "3", "--A", "1", "--B", "1", "--y", "2", "--qmax", "inf"],
            ["hunt", "--n", "2:2", "--x", "2:5", "--y", "2:5", "--A", "1:1", "--B", "1:1",
             "--q-threshold", "nan"],
            ["hunt", "--n", "2:2", "--x", "2:5", "--y", "2:5", "--A", "1:1", "--B", "1:1",
             "--q-threshold", "inf"],
        ],
    )
    def test_non_finite_number(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "finite" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["bounds", "--n", "2", "--A", "1", "--B", "1", "--y", "2", "--qmax", "abc"],
            ["hunt", "--n", "2", "--x", "2:3", "--y", "2:3", "--A", "1", "--B", "1",
             "--q-threshold", "abc"],
        ],
    )
    def test_non_numeric_number(self, capsys, argv):
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "not a number: 'abc'" in err

    @pytest.mark.parametrize(
        "argv",
        [
            DEWEGER_ARGS + ["--qmax", "1e999999"],
            ["bounds", "--n", "3", "--A", "1", "--B", "1", "--y", "2", "--qmax", "1e999999"],
            ["bounds", "--n", "3", "--A", "1", "--B", "1", "--y", "2", "--qmax", "1e64"],
            DEWEGER_ARGS + ["--qmax", "1e-999999"],
            ["bounds", "--n", "3", "--A", "1", "--B", "1", "--y", "2", "--qmax", "1e-65"],
        ],
    )
    def test_qmax_out_of_range(self, capsys, argv):
        # Derived from such a cap, gp_max_custom would print a million digits
        # and max_admissible_exponent would overflow str()'s digit limit.
        code, out, err = run_cli(capsys, argv)
        assert code == EXIT_USAGE
        assert out == ""
        assert "error: argument --qmax: QMax.value must lie in [1E-64, 1E+64)" in err

    def test_qmax_just_below_the_limit(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["bounds", "--n", "3", "--A", "1", "--B", "1", "--y", "2", "--qmax", "9.5e63"],
        )
        assert code == EXIT_OK
        assert doc["bounds"]["max_admissible_exponent_custom"] == 19 * 10 ** 63 - 1

    def test_bounds_low_exponent(self, capsys):
        code, _, err = run_cli(
            capsys, ["bounds", "--n", "1", "--A", "1", "--B", "1", "--y", "2"]
        )
        assert code == EXIT_USAGE
        assert "n >= 2" in err


class TestBounds:
    def test_json_document(self, capsys):
        code, doc, _ = run_json(
            capsys,
            ["bounds", "--n", "2", "--A", "1", "--B", "1", "--y", "2",
             "--qmax", "1.5"],
        )
        assert code == EXIT_OK
        assert list(doc) == ["params", "bounds"]
        assert doc["params"] == {
            "n": "2", "A": "1", "B": "1", "y": "2", "q_max_custom": "1.5",
        }
        assert list(doc["bounds"]) == [
            "ga_min", "q_min", "gp_max_strong", "gp_max_ultra",
            "gp_max_custom", "k1_q_bound",
            "max_admissible_exponent_strong", "max_admissible_exponent_ultra",
            "max_admissible_exponent_custom",
        ]
        assert doc["bounds"]["ga_min"] == "0.500000"
        assert doc["bounds"]["gp_max_custom"] == "3.00000"
        assert doc["bounds"]["max_admissible_exponent_strong"] == 3
        assert doc["bounds"]["max_admissible_exponent_ultra"] == 2
        assert doc["bounds"]["max_admissible_exponent_custom"] == 2

    def test_without_custom_cap(self, capsys):
        _, doc, _ = run_json(
            capsys, ["bounds", "--n", "3", "--A", "3087", "--B", "23", "--y", "128"]
        )
        assert doc["params"]["q_max_custom"] is None
        assert "gp_max_custom" not in doc["bounds"]
        assert "max_admissible_exponent_custom" not in doc["bounds"]
        assert doc["bounds"]["ga_min"] == "0.479019"
        assert doc["bounds"]["gp_max_strong"] == "4.17520"
        assert doc["bounds"]["gp_max_ultra"] == "3.13140"

    def test_huge_exponent_builds_no_power_of_y(self):
        # D's ln(B*y^n) is n*ln y + ln B from cached logs: 5**(10**50)
        # could never be built.  A child with a timeout, so that a power
        # built by mistake fails the test instead of hanging it.
        proc = subprocess.run(
            [sys.executable, "-m", "gainlab", "bounds", "--n", str(10 ** 50),
             "--A", "2", "--B", "3", "--y", "5", "--format", "json"],
            capture_output=True,
            text=True,
            env=dict(os.environ, PYTHONPATH=str(Path(cli.__file__).parents[1])),
            timeout=5,
        )
        assert proc.returncode == EXIT_OK
        assert json.loads(proc.stdout)["params"]["n"] == str(10 ** 50)

    def test_cap_too_small_for_any_exponent(self, capsys):
        _, doc, _ = run_json(
            capsys,
            ["bounds", "--n", "2", "--A", "1", "--B", "1", "--y", "2",
             "--qmax", "0.5"],
        )
        assert doc["bounds"]["gp_max_custom"] == "1.00000"
        assert doc["bounds"]["max_admissible_exponent_custom"] is None

    def test_csv(self, capsys):
        code, out, _ = run_cli(
            capsys,
            ["bounds", "--n", "2", "--A", "1", "--B", "1", "--y", "2",
             "--format", "csv"],
        )
        assert code == EXIT_OK
        header, row = out.splitlines()
        names = header.split(",")
        values = row.split(",")
        assert values[names.index("max_admissible_exponent_strong")] == "3"
        assert values[names.index("ga_min")] == "0.500000"


class TestSearchCommand:
    SMALL_BOX = [
        "search", "--n", "2:2", "--x", "2:10", "--y", "2:10",
        "--A", "1:1", "--B", "1:1", "--k", "1:10",
    ]

    def test_json_solutions_and_accounting(self, capsys):
        code, doc, err = run_json(capsys, self.SMALL_BOX)
        assert code == EXIT_OK
        assert list(doc) == ["solutions", "cells_scanned"]
        assert doc["cells_scanned"] == 90
        got = [
            (d["solution"]["x"], d["solution"]["y"], d["solution"]["k"])
            for d in doc["solutions"]
        ]
        assert got == [("2", "3", "5"), ("3", "4", "7"), ("4", "5", "9")]
        assert "scanned 90 cells" in err

    def test_empty_result_json(self, capsys):
        args = ["search", "--n", "4:4", "--x", "2:100", "--y", "2:100",
                "--A", "1:1", "--B", "1:1", "--k", "1:1"]
        code, doc, _ = run_json(capsys, args)
        assert code == EXIT_OK
        assert doc == {"solutions": [], "cells_scanned": 99}

    def test_empty_result_csv_is_header_only(self, capsys):
        args = ["search", "--n", "4:4", "--x", "2:100", "--y", "2:100",
                "--A", "1:1", "--B", "1:1", "--k", "1:1", "--format", "csv"]
        code, out, _ = run_cli(capsys, args)
        assert code == EXIT_OK
        assert out == SOLUTION_CSV_HEADER + "\n"

    def test_human_lists_solutions(self, capsys):
        code, out, _ = run_cli(capsys, self.SMALL_BOX)
        assert code == EXIT_OK
        assert "n=2 x=2 y=3 A=1 B=1 k=5" in out
        assert "cells_scanned: 90" in out

    def test_box_too_large_exit(self, capsys):
        args = ["search", "--n", "2:2", "--x", "2:2", "--y", "2:2",
                "--A", "1:1", "--B", "1:1", "--k", "1:100000000000"]
        code, out, err = run_cli(capsys, args)
        assert code == EXIT_RESOURCE
        assert out == ""
        assert "ceiling" in err

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, self.SMALL_BOX + ["--format", "json"])
        _, out2, _ = run_cli(capsys, self.SMALL_BOX + ["--format", "json"])
        assert out1 == out2


class TestHuntCommand:
    def test_threshold_and_ordering(self, capsys):
        args = ["hunt", "--n", "2:2", "--x", "2:50", "--y", "2:50",
                "--A", "1:1", "--B", "1:1", "--q-threshold", "1.0"]
        code, doc, _ = run_json(capsys, args)
        assert code == EXIT_OK
        qs = [float(d["gains"]["q"]) for d in doc["solutions"]]
        assert qs
        assert all(q >= 1.0 for q in qs)
        assert qs == sorted(qs, reverse=True)

    def test_trivial_x_flag_admits_unit_x(self, capsys):
        base = ["hunt", "--n", "2:2", "--x", "1:1", "--y", "2:2",
                "--A", "1:1", "--B", "1:1"]
        _, doc, _ = run_json(capsys, base)
        assert doc["solutions"] == []
        _, doc, _ = run_json(capsys, base + ["--allow-trivial-x"])
        assert len(doc["solutions"]) == 1
        assert doc["solutions"][0]["solution"]["trivial_x"] is True

    def test_single_cell_quality(self, capsys):
        args = ["hunt", "--n", "5:5", "--x", "9:9", "--y", "23:23",
                "--A", "109:109", "--B", "1:1"]
        _, doc, _ = run_json(capsys, args)
        assert len(doc["solutions"]) == 1
        assert doc["solutions"][0]["gains"]["q"] == "1.62991"
        assert doc["solutions"][0]["solution"]["k"] == "2"


class TestVerifyCorpus:
    def test_json_document(self, capsys):
        code, doc, _ = run_json(capsys, ["verify-corpus"])
        assert code == EXIT_OK
        entries = doc["entries"]
        assert [e["name"] for e in entries] == ["reyssat", "deweger", "nitaj"]
        for e in entries[:2]:
            assert all(v == "pass" for v in e["consistency"].values())
            assert all(q["pass"] for q in e["quantities"].values())
        nitaj = entries[2]
        assert nitaj["consistency"]["identity"] == "pass"
        assert nitaj["consistency"]["printed_k"] == "fail"
        assert nitaj["consistency"]["coprimality"] == "pass"
        assert nitaj["k_derived"] == "576458274624876249"
        assert nitaj["k_printed"] == str(11 ** 16 * 13 ** 2 * 79)
        assert nitaj["quantities"]["G_p"]["pass"] is False
        assert nitaj["quantities"]["G_p"]["actual"] == "1.32345"
        assert nitaj["quantities"]["limit_ratio"]["pass"] is False
        assert nitaj["quantities"]["limit_ratio"]["actual"] == "0.384746"
        assert nitaj["quantities"]["ga_min"]["pass"] is True
        assert nitaj["quantities"]["gp_max_strong"]["pass"] is True

    def test_exact_radical_quantity(self, capsys):
        _, doc, _ = run_json(capsys, ["verify-corpus"])
        deweger = doc["entries"][1]
        v = deweger["quantities"]["radical_P"]
        assert v == {
            "expected": "53130", "tolerance": "0", "actual": "53130", "pass": True,
        }

    def test_csv_rows(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-corpus", "--format", "csv"])
        assert code == EXIT_OK
        lines = out.splitlines()
        assert lines[0] == "name,kind,item,expected,tolerance,actual,pass"
        assert "nitaj,consistency,printed_k,,,,fail" in lines
        assert "nitaj,quantity,G_p,3.2737,0.005,1.32345,false" in lines
        assert "deweger,quantity,radical_P,53130,0,53130,true" in lines

    def test_human_flags_failures(self, capsys):
        code, out, _ = run_cli(capsys, ["verify-corpus"])
        assert code == EXIT_OK
        assert "nitaj" in out
        assert "FAIL" in out
        assert out.count("FAIL") == 2  # G_p and limit_ratio only

    def test_byte_identical_reruns(self, capsys):
        _, out1, _ = run_cli(capsys, ["verify-corpus", "--format", "json"])
        _, out2, _ = run_cli(capsys, ["verify-corpus", "--format", "json"])
        assert out1 == out2


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN_PATH.read_text())


class TestGoldenBytes:
    @pytest.mark.parametrize("fmt", ["json", "csv", "human"])
    @pytest.mark.parametrize("name", list(GOLDEN_INVOCATIONS))
    def test_stdout_and_exit_code(self, capsys, monkeypatch, golden, name, fmt):
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        for key, value in GOLDEN_ENV.get(name, {}).items():
            monkeypatch.setenv(key, value)
        code, out, _ = run_cli(capsys, GOLDEN_INVOCATIONS[name] + ["--format", fmt])
        assert [code, out] == golden[f"{name}/{fmt}"]


class TestModuleEntryPoint:
    def test_subprocess_smoke(self):
        proc = subprocess.run(
            [sys.executable, "-m", "gainlab"] + DEWEGER_ARGS + ["--format", "json"],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["gains"]["G_p"] == "2.20920"


class TestUnwritableStdout:
    """A stdout that cannot be written exits 3 with one error line."""

    def test_closed_pipe(self):
        # About 147 KB of csv, more than a pipe buffer holds, so the child
        # is still writing when the read end is closed.
        proc = subprocess.Popen(
            [sys.executable, "-m", "gainlab", "hunt", "--n", "2:3", "--x", "2:30",
             "--y", "2:30", "--A", "1:2", "--B", "1:2", "--format", "csv"],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
        )
        assert proc.stdout.readline().startswith(b"n,x,y,A,B,k,")
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == EXIT_RESOURCE
        assert "error: [Errno 32] Broken pipe" in err
        assert "Traceback" not in err and "Exception ignored" not in err

    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    def test_full_device(self):
        with open("/dev/full", "wb") as full:
            proc = subprocess.run(
                [sys.executable, "-m", "gainlab"] + DEWEGER_ARGS,
                stdout=full,
                stderr=subprocess.PIPE,
                text=True,
                timeout=60,
            )
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stderr == "error: [Errno 28] No space left on device\n"


# Boxes that the forced-spill tests run, with the environment each needs.
# A zero budget leaves 40 of hunt-partial's 172 reports without q; in
# hunt-tied-q, (x, A) = (3, 4) and (6, 1) give the same k and radical, so
# rows tie on q exactly and sort by canonical key.
SPILL_CASES = {
    "search": (
        ["search", "--n", "2:3", "--x", "2:40", "--y", "2:100", "--A", "1:3", "--B", "1:3",
         "--k", "1:50"],
        {},
    ),
    "hunt-partial": (
        ["hunt", "--n", "9", "--x", "30:45", "--y", "30:45", "--A", "1:2", "--B", "1:2"],
        {BUDGET_ENV_VAR: "0"},
    ),
    "hunt-tied-q": (
        ["hunt", "--n", "2", "--x", "2:20", "--y", "2:30", "--A", "1:4", "--B", "1"],
        {},
    ),
}


def spill_case(monkeypatch, case) -> list[str]:
    """SPILL_CASES[case]'s argv, with its environment set."""
    argv, env = SPILL_CASES[case]
    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    for key, value in env.items():
        monkeypatch.setenv(key, value)
    return argv


def library_solutions(argv):
    """The library's (solution, report) pairs for a CLI box, in its order."""
    from gainlab.search import DERIVED_K, FIXED_K, SearchBox, enumerate_fixed_k, hunt_derived_k

    ranges = {k: v for k, v in vars(parse_args(argv)).items() if k.endswith("_range")}
    if argv[0] == "search":
        return enumerate_fixed_k(SearchBox(mode=FIXED_K, **ranges)).solutions
    return hunt_derived_k(SearchBox(mode=DERIVED_K, **ranges)).solutions


class TestForcedSpills:
    """A box whose rows spill in many sorted runs prints the unspilled bytes."""

    @staticmethod
    def record_spills(monkeypatch) -> list[int]:
        """The row text held when each run spills, less the row that took it past the bound."""
        held = []
        spill = runs.SortedRows._spill

        def recorded(rows):
            held.append(rows._size - len(rows._held[-1][-1]))
            spill(rows)

        monkeypatch.setattr(runs.SortedRows, "_spill", recorded)
        return held

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    @pytest.mark.parametrize("case", list(SPILL_CASES))
    def test_stdout_equals_the_unspilled_run(self, capsys, monkeypatch, case, fmt):
        argv = spill_case(monkeypatch, case)
        held = self.record_spills(monkeypatch)
        code, unspilled, _ = run_cli(capsys, argv + ["--format", fmt])
        assert code == EXIT_OK and held == []
        monkeypatch.setattr(runs, "RUN_BYTES", len(unspilled) // 8)
        code, out, _ = run_cli(capsys, argv + ["--format", fmt])
        assert (code, out) == (EXIT_OK, unspilled)
        assert len(held) >= 3
        assert max(held) <= runs.RUN_BYTES

    @pytest.mark.parametrize("case", list(SPILL_CASES))
    def test_rows_come_in_the_library_order(self, capsys, monkeypatch, case):
        # The CLI sorts rows it renders, the library the pairs it returns:
        # unspilled and spilled, the JSON rows list the library's solutions
        # in the library's order.
        argv = spill_case(monkeypatch, case) + ["--format", "json"]
        expected = [
            [str(getattr(s, name)) for name in "nxyABk"] for s, _ in library_solutions(argv)
        ]
        held = self.record_spills(monkeypatch)
        outputs = [run_cli(capsys, argv)[1]]
        monkeypatch.setattr(runs, "RUN_BYTES", len(outputs[0]) // 8)
        outputs.append(run_cli(capsys, argv)[1])
        assert len(held) >= 3
        for out in outputs:
            rows = json.loads(out)["solutions"]
            assert [[r["solution"][name] for name in "nxyABk"] for r in rows] == expected

    def test_hunt_cases_hold_partial_reports_and_exact_ties(self, monkeypatch):
        qs = [g.q for _, g in library_solutions(spill_case(monkeypatch, "hunt-partial"))]
        assert 0 < qs.count(None) < len(qs)
        qs = [g.q for _, g in library_solutions(spill_case(monkeypatch, "hunt-tied-q"))]
        assert len(set(qs)) < len(qs)


# Boxes whose bytes must not depend on any memo, spill or batch size: a
# hunt, a threshold hunt whose k reach the screen's wide blocks of primes
# below 10**5, and a fixed-k search.
SMALL_SETTINGS_CASES = {
    "hunt": ["hunt", "--n", "2:4", "--x", "2:12", "--y", "2:12", "--A", "1:3", "--B", "1:2"],
    "hunt-threshold": [
        "hunt", "--n", "7:12", "--x", "2:16", "--y", "2:16", "--A", "1:2", "--B", "1:2",
        "--q-threshold", "0.95",
    ],
    "search": [
        "search", "--n", "2:3", "--x", "2:20", "--y", "2:60", "--A", "1:3", "--B", "1:3",
        "--k", "1:30",
    ],
}


class TestAllSmallSettings:
    """With every memo, spill and batch size small at once, stdout is unchanged."""

    @staticmethod
    def cold_run(capsys, argv):
        factor.clear_cache()
        bigmath.clear_ln_cache()
        gains._bounds.cache_clear()
        gains.shared_part.cache_clear()
        code, out, _ = run_cli(capsys, argv)
        assert code == EXIT_OK
        return out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("case", list(SMALL_SETTINGS_CASES))
    def test_stdout_equals_the_default_run(self, capsys, monkeypatch, case, fmt):
        argv = SMALL_SETTINGS_CASES[case] + ["--format", fmt]
        monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
        monkeypatch.setattr(factor, "_WIDE_BLOCKS", [])
        default = self.cold_run(capsys, argv)
        # The default run holds more than the small settings allow.
        assert gains._bounds.cache_info().currsize > 8 and len(default) > 3000
        assert bool(factor._WIDE_BLOCKS) == (case == "hunt-threshold")
        monkeypatch.setattr(gains, "_HELD", 8)
        monkeypatch.setattr(bigmath, "_LN_BITS", 6)
        monkeypatch.setattr(runs, "RUN_BYTES", 1000)
        monkeypatch.setattr(runs, "RENDER_ROWS", 3)
        assert self.cold_run(capsys, argv) == default
        assert max(bigmath._ln_cache) < 64


# Runs main with a spill file that cannot be written: "create" makes the
# temporary file raise, "write" gives one on /dev/full.
SPILL_FAILURE = """
import errno, os, sys, tempfile
from gainlab import cli, runs

def no_space(*args, **kwargs):
    raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

if sys.argv[1] == "create":
    tempfile.TemporaryFile = no_space
else:
    tempfile.TemporaryFile = lambda *args, **kwargs: open("/dev/full", "w+b")
runs.RUN_BYTES = 1000
sys.exit(cli.main(sys.argv[2:]))
"""

# Runs main with the run bound argv[1] and prints the peak RSS (VmHWM, in
# kB) after import and at the end to stderr.
MEMORY_GUARD = """
import sys
from gainlab import cli, runs

def peak_kb():
    with open("/proc/self/status") as status:
        return int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))

runs.RUN_BYTES = int(sys.argv[1])
after_import = peak_kb()
code = cli.main(sys.argv[2:])
sys.stdout.flush()
print(after_import, peak_kb(), file=sys.stderr)
sys.exit(code)
"""
SURVEY_ARGS = [
    "hunt", "--n", "2:5", "--x", "2:45", "--y", "2:45", "--A", "1:3", "--B", "1:2",
    "--format", "json",
]


class TestSpillFile:
    @pytest.mark.skipif(not Path("/dev/full").exists(), reason="no /dev/full")
    @pytest.mark.parametrize("failing", ["create", "write"])
    def test_unwritable_spill_file_exits_3(self, failing):
        # The spill fails during the scan, before any row reaches stdout.
        proc = subprocess.run(
            [sys.executable, "-c", SPILL_FAILURE, failing] + SPILL_CASES["search"][0],
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_RESOURCE
        assert proc.stdout == ""
        assert proc.stderr == "error: [Errno 28] No space left on device\n"

    @pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="no /proc")
    def test_peak_rss_stays_near_the_import_peak(self):
        # The survey box prints 5.4 MB, 82 times the bound; held as reports
        # it peaked about 9.5 MB above the import.
        bound = 64 * 1024
        proc = subprocess.run(
            [sys.executable, "-c", MEMORY_GUARD, str(bound)] + SURVEY_ARGS,
            capture_output=True,
            timeout=60,
        )
        assert proc.returncode == EXIT_OK
        assert len(proc.stdout) >= 20 * bound
        after_import, peak = map(int, proc.stderr.split()[-2:])
        assert peak - after_import < 4 * 1024
