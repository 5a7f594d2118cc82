"""Command-line front end: expression grammar, reports, exit codes.

The emitters promise three things the tests here pin down: canonical
strings parse back to the value they were printed from, JSON output
validates against the schema shipped inside the package, and repeated
identical requests produce byte-identical stdout (timing goes to
stderr only).
"""

import json
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources

import jsonschema
import pytest
from hypothesis import given, settings, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.arith.poly import Poly, RatFunc, RatFuncField, format_ratfunc
from pvkit.cli.exprparse import expression_conductor, parse_expression
from pvkit.cli.main import main
from pvkit.cli.report import Request, parse_adjoin, parse_system, run
from pvkit.errors import DivisionByZeroExpression, ParseError
from pvkit.groups import base_change


def field(conductor=1):
    return RatFuncField(CycloField(conductor), "x")


class TestParseExpression:
    def test_shifted_reciprocal(self):
        kf = field()
        x = kf.x()
        assert parse_expression("-(x+1)/x", kf) == -(x + 1) / x

    def test_zeta_powers(self):
        assert parse_expression("zeta(4)^2") == field(4).coerce(-1)
        assert parse_expression("zeta(3)^3") == field(3).coerce(1)

    def test_division_by_vanishing_expression(self):
        with pytest.raises(DivisionByZeroExpression):
            parse_expression("x/(x-x)")
        with pytest.raises(DivisionByZeroExpression):
            parse_expression("(x+1)^-1 / (2-2)")
        with pytest.raises(DivisionByZeroExpression):
            parse_expression("0^-1")

    def test_whitespace_insensitive(self):
        kf = field()
        assert parse_expression(" - ( x + 1 ) / x ", kf) == \
            parse_expression("-(x+1)/x", kf)

    def test_rational_constants(self):
        kf = field()
        assert parse_expression("3/4", kf) == kf.coerce(Fraction(3, 4))
        assert parse_expression("-3/2*x", kf) == kf.coerce(
            Fraction(-3, 2)) * kf.x()

    def test_negative_exponents(self):
        kf = field()
        x = kf.x()
        assert parse_expression("x^-2", kf) == kf.one / (x * x)
        assert parse_expression("(x+1)^-1", kf) == kf.one / (x + 1)

    def test_conductor_merging(self):
        assert expression_conductor("zeta(3) + zeta(4)") == 12
        assert expression_conductor("x^2 - 7") == 1
        v = parse_expression("zeta(3) + zeta(4)")
        assert v.is_const() and v.const_value().conductor == 12

    @pytest.mark.parametrize("text,position", [
        ("x $ 2", 2),
        ("x +", 3),
        ("(x", 2),
        ("x^y", 2),
        ("2^3^2", 3),
        ("y + 1", 0),
        ("zeta(0)", 5),
        ("zeta(-1)", 5),
        ("", 0),
    ])
    def test_error_positions(self, text, position):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert err.value.position == position

    def test_unary_signs_stack(self):
        kf = field()
        assert parse_expression("--x", kf) == kf.x()
        assert parse_expression("+-+x", kf) == -kf.x()


_small_rationals = st.fractions(min_value=-4, max_value=4, max_denominator=5)


_coeff_lists = st.lists(_small_rationals, min_size=1, max_size=3)


@st.composite
def _ratfuncs(draw):
    conductor = draw(st.sampled_from([1, 3, 4, 8]))
    base = CycloField(conductor)
    num = draw(_coeff_lists)
    den = draw(_coeff_lists.filter(lambda cs: any(c != 0 for c in cs)))
    to_poly = lambda cs: Poly(
        base, [CycloNum.from_rational(c, conductor) for c in cs])
    return RatFunc(to_poly(num), to_poly(den))


class TestRoundTrip:
    @settings(max_examples=120, deadline=None)
    @given(_ratfuncs())
    def test_parse_inverts_format(self, f):
        text = format_ratfunc(f, "x")
        back = parse_expression(text, RatFuncField(f.num.field, "x"))
        assert back == f

    def test_hand_picked_forms(self):
        kf = field(8)
        z = kf.coerce(CycloNum.zeta(8))
        x = kf.x()
        samples = [
            kf.zero,
            kf.one,
            -x,
            kf.one / x,
            (x ** 2 - z ** 2) / (x + 2),
            kf.coerce(Fraction(3, 2)) * x ** 2 - z ** 3 * x + kf.one,
            (z + kf.coerce(Fraction(-1, 2))) / (x ** 3 - x),
        ]
        for f in samples:
            assert parse_expression(format_ratfunc(f, "x"), kf) == f


class TestRequestGrammar:
    def test_system_shapes(self):
        assert parse_system("scalar(-1)") == ("scalar", ["-1"])
        assert parse_system(" diag( x , (x+1)/x ) ") == \
            ("diag", [" x ", " (x+1)/x "])
        assert parse_system("unipotent(1)") == ("unipotent", ["1"])
        assert parse_system("diag(f(1,2),3)")[1] == ["f(1,2)", "3"]

    @pytest.mark.parametrize("text", [
        "scalar", "cube(2)", "scalar(1", "scalar(1))", "scalar(1,2)",
        "unipotent(1,2)",
    ])
    def test_bad_systems(self, text):
        with pytest.raises(ParseError):
            parse_system(text)

    def test_adjoin_grammar(self):
        ext = parse_adjoin("zeta(3)")
        assert (ext.kind, ext.amount) == ("root-of-unity", 3)
        ext = parse_adjoin(" t(2) ")
        assert (ext.kind, ext.amount) == ("transcendental", 2)
        for bad in ("w(3)", "zeta(0)", "t()", "zeta(x)", "3"):
            with pytest.raises(ParseError):
                parse_adjoin(bad)


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def load_schema():
    text = resources.files("pvkit.cli").joinpath(
        "report_schema.json").read_text()
    return json.loads(text)


JSON_COMMANDS = [
    ["group", "--sigma", "shift", "--system", "scalar(-1)"],
    ["pv", "--sigma", "qshift", "--q", "2", "--system", "unipotent(1)"],
    ["invariants", "--sigma", "qshift", "--q", "5",
     "--system", "diag(2, 3)"],
    ["basechange", "--system", "scalar(-1)", "--adjoin", "zeta(3)"],
    ["basechange", "--system", "scalar(-1)", "--adjoin", "t(1)"],
    ["check-connection", "--sigma", "qshift", "--q", "2",
     "--system", "scalar(-2)", "--u", "1", "--v", "-1"],
    ["check-connection", "--system", "scalar(2)", "--u", "1", "--v", "0"],
    ["verify-examples"],
    ["group", "--system", "scalar(0)"],
    ["group", "--system", "diag(2, 3, 5, 7)", "--sigma", "qshift",
     "--q", "11"],
]


class TestCommands:
    def test_group_scalar_order_two(self, capsys):
        code, out, _ = run_cli(
            ["group", "--sigma", "shift", "--system", "scalar(-1)"], capsys)
        assert code == 0
        assert "generators: -1 + Y^2" in out
        assert "ell: 2" in out
        assert "m_inv: 2" in out
        assert "krull_dim: 0" in out
        assert "description: finite part Z/2" in out
        assert "coordinate_ideal: -1 + X^2" in out
        assert "simple: true" in out

    def test_invariants_additive_group(self, capsys):
        code, out, _ = run_cli(
            ["invariants", "--sigma", "qshift", "--q", "2",
             "--system", "unipotent(1)"], capsys)
        assert code == 0
        assert "krull_dim: 1" in out
        assert "ell: 1" in out
        assert "group: additive group of dimension 1" in out

    def test_pv_reports_solution_when_summable(self, capsys):
        code, out, _ = run_cli(
            ["pv", "--sigma", "shift", "--system", "unipotent(1)"], capsys)
        assert code == 0
        assert "unipotent_solution: x" in out
        assert "krull_dim: 0" in out

    def test_basechange_reports_transport(self, capsys):
        code, out, _ = run_cli(
            ["basechange", "--sigma", "shift", "--system", "scalar(-1)",
             "--adjoin", "zeta(3)"], capsys)
        assert code == 0
        assert "transport_ok: true" in out
        assert "group_unchanged: true" in out
        assert "constants_conductor_after: 3" in out

    def test_basechange_builds_the_base_change_once(self, capsys,
                                                    monkeypatch):
        calls = []

        def counted(p, ext):
            calls.append(ext)
            return base_change(p, ext)

        monkeypatch.setattr("pvkit.groups.base_change", counted)
        monkeypatch.setattr("pvkit.cli.report.base_change", counted)
        code, out, _ = run_cli(
            ["basechange", "--sigma", "shift", "--system", "scalar(-1)",
             "--adjoin", "zeta(3)"], capsys)
        assert code == 0
        assert len(calls) == 1
        assert "transport_ok: true" in out
        assert "group_unchanged: true" in out

    def test_basechange_transcendental(self, capsys):
        code, out, _ = run_cli(
            ["basechange", "--sigma", "qshift", "--q", "2",
             "--system", "unipotent(1)", "--adjoin", "t(1)"], capsys)
        assert code == 0
        assert "transport_ok: true" in out
        assert "group_unchanged: true" in out

    def test_connection_constant(self, capsys):
        code, out, _ = run_cli(
            ["check-connection", "--sigma", "qshift", "--q", "2",
             "--system", "scalar(-2)", "--u", "1", "--v", "-1"], capsys)
        assert code == 0
        assert "status: constant" in out
        assert "[0]: -1" in out

    def test_connection_on_one_entry_diagonal(self, capsys):
        code, out, _ = run_cli(
            ["check-connection", "--sigma", "qshift", "--q", "2",
             "--system", "diag(-2)", "--u", "1", "--v", "-1",
             "--output", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["connection"]["status"] == "constant"
        assert report["connection"]["matrix"] == [["-1"]]

    def test_scalar_and_one_entry_diagonal_report_alike(self, capsys):
        reports = []
        for system in ("scalar(-1)", "diag(-1)"):
            code, out, _ = run_cli(
                ["group", "--system", system, "--output", "json"], capsys)
            assert code == 0
            reports.append(json.loads(out))
        scalar, diag = reports
        assert scalar["presentation"] == diag["presentation"]
        assert scalar["group"] == diag["group"]
        assert scalar["presentation"]["shape"] == "scalar"

    def test_connection_rejects_drift(self, capsys):
        code, out, _ = run_cli(
            ["check-connection", "--sigma", "shift", "--system", "scalar(2)",
             "--u", "1", "--v", "x"], capsys)
        assert code == 0
        assert "status: rejected" in out
        assert "error_code: not-constant" in out

    def test_connection_rejects_non_unit(self, capsys):
        code, out, _ = run_cli(
            ["check-connection", "--sigma", "shift", "--system", "scalar(2)",
             "--u", "1", "--v", "0"], capsys)
        assert code == 0
        assert "status: rejected" in out
        assert "error_code: not-fundamental" in out

    def test_verify_examples_passes(self, capsys):
        code, out, _ = run_cli(["verify-examples"], capsys)
        assert code == 0
        assert "all_passed: true" in out
        assert out.count("name: ") == 8
        assert "passed: false" not in out

    def test_search_bound_is_echoed(self, capsys):
        code, out, _ = run_cli(
            ["pv", "--system", "scalar(-1)", "--m-max", "3"], capsys)
        assert code == 0
        assert "search_bound: 3" in out

    @pytest.mark.parametrize("argv", JSON_COMMANDS,
                             ids=lambda a: "-".join(a[:1] + a[-1:]))
    def test_json_validates_against_shipped_schema(self, argv, capsys):
        schema = load_schema()
        code, out, _ = run_cli(argv + ["--output", "json"], capsys)
        report = json.loads(out)
        jsonschema.validate(report, schema)
        assert report["schema_version"] == 1

    @pytest.mark.parametrize("argv", [
        ["group", "--sigma", "shift", "--system", "scalar(-1)"],
        ["invariants", "--sigma", "qshift", "--q", "5",
         "--system", "diag(2, 3)"],
        ["basechange", "--system", "scalar(-1)", "--adjoin", "zeta(3)"],
        ["pv", "--sigma", "qshift", "--q", "2", "--system", "unipotent(1)"],
    ])
    def test_text_and_json_share_numeric_content(self, argv, capsys):
        _, text_out, _ = run_cli(argv, capsys)
        _, json_out, _ = run_cli(argv + ["--output", "json"], capsys)
        report = json.loads(json_out)
        nums = lambda s: Counter(re.findall(r"-?\d+", s))
        assert nums(text_out) == nums(json.dumps(report, sort_keys=True))

    def test_reports_are_deterministic(self, capsys):
        argv = ["group", "--system", "scalar(-1)", "--output", "json"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second
        argv = ["basechange", "--system", "scalar(-1)", "--adjoin", "t(1)"]
        _, first, _ = run_cli(argv, capsys)
        _, second, _ = run_cli(argv, capsys)
        assert first == second


class TestExitCodes:
    @pytest.mark.parametrize("argv,expected", [
        (["group", "--bogus"], 1),
        ([], 1),
        (["group"], 1),  # missing --system
        (["group", "--sigma", "qshift", "--system", "scalar(2)"], 1),
        (["group", "--sigma", "qshift", "--q", "1",
          "--system", "scalar(2)"], 1),
        (["group", "--sigma", "qshift", "--q", "0",
          "--system", "scalar(2)"], 1),
        (["group", "--sigma", "qshift", "--q", "x",
          "--system", "scalar(2)"], 1),
        (["group", "--sigma", "shift", "--q", "2",
          "--system", "scalar(2)"], 1),
        (["group", "--system", "scalar(0)"], 1),
        (["group", "--system", "scalar(x +)"], 1),
        (["group", "--system", "scalar(x/(x-x))"], 1),
        (["group", "--system", "cube(2)"], 1),
        (["basechange", "--system", "scalar(-1)"], 1),
        (["basechange", "--system", "scalar(-1)", "--adjoin", "w(3)"], 1),
        (["check-connection", "--system", "scalar(2)", "--u", "1"], 1),
        (["group", "--system", "diag(2, 3, 5, 7)", "--sigma", "qshift",
          "--q", "11"], 2),
        (["check-connection", "--sigma", "qshift", "--q", "2",
          "--system", "unipotent(1)", "--u", "1", "--v", "1"], 2),
    ])
    def test_exit_code(self, argv, expected, capsys):
        code, _, err = run_cli(argv, capsys)
        assert code == expected

    def test_error_reports_carry_stable_codes(self, capsys):
        code, out, err = run_cli(
            ["group", "--system", "scalar(0)", "--output", "json"], capsys)
        assert code == 1
        report = json.loads(out)
        assert report["error"]["code"] == "zero-input"
        jsonschema.validate(report, load_schema())
        assert "error[zero-input]" in err


class TestProcessBehavior:
    def test_stdout_deterministic_stderr_carries_timing(self):
        argv = [sys.executable, "-m", "pvkit", "group",
                "--system", "scalar(-1)", "--output", "json"]
        first = subprocess.run(argv, capture_output=True, text=True)
        second = subprocess.run(argv, capture_output=True, text=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert "elapsed-ms:" in first.stderr

    def test_run_api_matches_cli(self, capsys):
        report, code = run(Request(command="invariants", sigma="shift",
                                   system="scalar(-1)"))
        assert code == 0
        assert report["invariants"]["ell"] == 2
        assert report["invariants"]["group"] == "finite part Z/2"
