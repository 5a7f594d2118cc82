"""Command-line front end: expression grammar, reports, exit codes.

The emitters promise three things the tests here pin down: canonical
strings parse back to the value they were printed from, JSON output
validates against the schema shipped inside the package, and repeated
identical requests produce byte-identical stdout (timing goes to
stderr only).
"""

import dataclasses
import hashlib
import importlib
import json
import re
import subprocess
import sys
from collections import Counter
from fractions import Fraction
from importlib import resources
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, seed, settings, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum
from pvkit.arith.poly import Poly, RatFunc, RatFuncField, format_ratfunc
from pvkit.cli import exprparse
from pvkit.cli.exprparse import expression_conductor, parse_expression
from pvkit.cli.main import main
from pvkit.cli.report import (
    Request,
    parse_adjoin,
    parse_system,
    render_json,
    run,
)
from pvkit.errors import DivisionByZeroExpression, ParseError
from pvkit.groups import base_change, functor_ideal, identify_group
from pvkit.laurent import LaurentPoly


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


@st.composite
def _integer_expressions(draw, depth=3):
    """(text, value) of an expression over integer literals, the value by
    Fraction arithmetic, None where the expression divides by zero."""
    if depth == 0 or draw(st.booleans()):
        n = draw(st.integers(0, 30))
        return str(n), Fraction(n)
    op = draw(st.sampled_from(["+", "-", "*", "/", "neg", "^"]))
    a, va = draw(_integer_expressions(depth - 1))
    if op == "neg":
        return f"-({a})", None if va is None else -va
    if op == "^":
        e = draw(st.integers(-3, 3))
        bad = va is None or (va == 0 and e < 0)
        return f"({a})^{e}", None if bad else va ** e
    b, vb = draw(_integer_expressions(depth - 1))
    text = f"({a}){op}({b})"
    if va is None or vb is None or (op == "/" and vb == 0):
        return text, None
    return text, {"+": va + vb, "-": va - vb, "*": va * vb,
                  "/": va / vb if vb else None}[op]


class TestIntegerLiterals:
    @seed(8)
    @settings(max_examples=120, deadline=None, database=None)
    @given(_integer_expressions(), st.sampled_from([1, 3, 8]))
    def test_integer_path_equals_the_fraction_route(self, case, conductor):
        text, value = case
        kf = field(conductor)
        if value is None:
            with pytest.raises(DivisionByZeroExpression):
                parse_expression(text, kf)
        else:
            assert parse_expression(text, kf) == kf.coerce(value)

    @pytest.mark.parametrize("conductor", [1, 3, 8])
    def test_a_literal_is_the_canonical_integer(self, conductor):
        kf = field(conductor)
        for n in (0, 1, 7, 10 ** 30):
            assert parse_expression(str(n), kf) == kf.coerce(Fraction(n))


class TestParseOnce:
    @pytest.mark.parametrize("command, fields", [
        ("group", {"system": "diag(x,x,-1)"}),
        ("group", {"sigma": "qshift", "q": "2", "system": "diag(2,-1,2)"}),
        ("basechange", {"sigma": "qshift", "q": "2", "system": "scalar(-2)",
                        "adjoin": "zeta(3)"}),
        ("check-connection", {"sigma": "qshift", "q": "2",
                              "system": "scalar(-2)", "u": "1", "v": "-1"}),
        ("check-connection", {"system": "scalar(2)", "u": "2", "v": "2"}),
        ("invariants", {"system": "unipotent(1/x)"}),
    ])
    def test_each_distinct_text_is_tokenized_once(self, monkeypatch,
                                                   command, fields):
        calls = []

        def counted(text, _real=exprparse._tokenize):
            calls.append(text)
            return _real(text)

        monkeypatch.setattr(exprparse, "_tokenize", counted)
        _, code = run(Request(command=command, **fields))
        assert code == 0
        texts = [fields.get(key) for key in ("q", "u", "v")]
        texts += parse_system(fields["system"])[1]
        assert sorted(calls) == sorted({t for t in texts if t is not None})

    def test_the_first_malformed_text_is_reported(self):
        # q, u, v, then the entries: the order the conductor scan used
        rep, _ = run(Request(command="check-connection", system="scalar(x$)",
                             u="1", v="#"))
        assert rep["error"]["code"] == "parse-error"
        assert "'#'" in rep["error"]["message"]


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

    def test_basechange_reads_each_coordinate_ideal_once(self, capsys,
                                                         monkeypatch):
        # identify_group computes the ideal of each side; transport_ok
        # compares those two and computes no third or fourth
        calls = []

        def counted(p):
            calls.append(p.field.constants_conductor)
            return functor_ideal(p)

        # the report reads the ideal identify_group attaches and holds no
        # functor_ideal of its own that a count would have to cover
        assert not hasattr(sys.modules["pvkit.cli.report"], "functor_ideal")
        monkeypatch.setattr("pvkit.groups.functor_ideal", counted)
        code, out, _ = run_cli(
            ["basechange", "--sigma", "shift", "--system", "scalar(-1)",
             "--adjoin", "zeta(3)"], capsys)
        assert code == 0
        assert calls == [1, 3]
        assert "transport_ok: true" in out

    def test_a_basechange_that_adds_no_constants_reads_one_ideal(
            self, capsys, monkeypatch):
        # zeta(3) is already a constant: nothing is rebuilt, and the group
        # read before the base change is the one read after it
        calls = []

        def counted(p):
            calls.append(p.field.constants_conductor)
            return functor_ideal(p)

        monkeypatch.setattr("pvkit.groups.functor_ideal", counted)
        code, out, _ = run_cli(
            ["basechange", "--sigma", "shift", "--system",
             "scalar(zeta(3)*(x+1)/x)", "--adjoin", "zeta(3)"], capsys)
        assert code == 0
        assert calls == [3]
        assert "transport_ok: true" in out
        assert "group_unchanged: true" in out
        assert "constants_conductor_after: 3" in out

    def test_basechange_transport_reads_the_after_ideal(self, capsys,
                                                        monkeypatch):
        # tamper with the ideal identify_group attaches to the changed side:
        # -1 + X^2 becomes -1 + 2 X^2, which no lift of the original gives
        def tampered(p):
            desc = identify_group(p)
            if p.field.constants_conductor == 1:
                return desc
            (g,) = desc.coordinate_ideal
            bad = LaurentPoly(g.field, g.nvars,
                              {e: c * (2 if e != (0,) else 1)
                               for e, c in g.terms.items()})
            return dataclasses.replace(desc, coordinate_ideal=(bad,))

        monkeypatch.setattr("pvkit.cli.report.identify_group", tampered)
        code, out, _ = run_cli(
            ["basechange", "--sigma", "shift", "--system", "scalar(-1)",
             "--adjoin", "zeta(3)"], capsys)
        assert code == 0
        assert "transport_ok: false" in out

    def test_basechange_leaves_relations_past_the_bound_alone(self, capsys):
        # (-1)^2 = 1 lies outside the box of radius 1, so neither side
        # sees it; that is a property of the bound, not a missed relation
        code, out, _ = run_cli(
            ["basechange", "--system", "scalar(-1)", "--m-max", "1",
             "--adjoin", "zeta(4)"], capsys)
        assert code == 0
        assert "group_unchanged: true" in out
        assert "transport_ok: true" in out

    # Default bounds.  The dispersions of these entries need resultants of
    # several factors over Q and Q(zeta_5); the tests pin the answers and,
    # through the suite's run time, that those resultants stay cheap.
    @pytest.mark.parametrize("argv,ell,m_inv,krull_dim,description", [
        # q = 4, a = -2(x-1)/(x-4) = -1/2 * sigma(g)/g with g = x - 4, since
        # sigma(g) = 4(x-1).  A constant is a q-quotient iff it lies in 4^Z,
        # so a^v is a quotient iff (-1/2)^v does, iff v is even: L = 2Z and
        # the group is Z/2.  The witness of a^2 is g^2/x (1/4 is
        # sigma(1/x)/(1/x)), which is not a square in Q(x), so no marker
        # splits the components: ell = m_inv = 1.
        (["--sigma", "qshift", "--q", "4",
          "--system", "scalar(-2*(x-1)/(x-4))"],
         1, 1, 0, "finite part Z/2"),
        # q = 1/2, a1 = -1/2 (x-4)/(x-1) = -2 sigma(g)/g with g = (x-1)(x-2),
        # since sigma(g) = (x-2)(x-4)/4.  The roots +-i of x^2+1 lie on
        # q-orbits that never close, so v2 = 0, and (-2)^v1 lies in 2^Z iff
        # v1 is even: L = <(2,0)>, the group is Z x Z/2.  sigma(g/x)/(g/x)
        # = 2 sigma(g)/g, so a1 = -1 * sigma(g/x)/(g/x): root g/x and
        # marker -1, a rational constant, so ell = m_inv = 2.
        (["--sigma", "qshift", "--q", "1/2",
          "--system", "diag(-1/2*(x-4)/(x-1),x^2+1)"],
         2, 2, 1, "torus of rank 1 times finite part Z/2"),
        # zeta5^v1 x^v1 (x+1)^v2 (-1)^v3: the degree forces v1 = -v2 = a,
        # (x/(x+1))^a is a quotient, and zeta5^a (-1)^v3 = 1 forces 5 | a
        # and 2 | v3.  L = <(5,-5,0), (0,0,2)>, so the group is Z x Z/10,
        # and the constants hold the 10th roots of unity: ell = m_inv = 10.
        (["--system", "diag(zeta(5)*x,x+1,-1)"],
         10, 10, 1, "torus of rank 1 times finite part Z/10"),
    ])
    def test_formerly_slow_inputs_at_default_bounds(
            self, argv, ell, m_inv, krull_dim, description, capsys):
        code, out, _ = run_cli(["group"] + argv + ["--output", "json"],
                               capsys)
        assert code == 0
        report = json.loads(out)
        presentation = report["presentation"]
        assert presentation["search_bound"] == 12
        assert presentation["ell"] == ell
        assert presentation["m_inv"] == m_inv
        assert presentation["krull_dim"] == krull_dim
        assert report["group"]["description"] == description

    # q = N = 1000000007 * 9999999967, a product of two primes that no
    # valuation may trial-divide.  1 and 2 lie on different q-orbits, so
    # (x-1)/(x-2) has no relation: a torus.  sigma(x - N) = N (x - 1), so
    # (x-1)/(x-N) = sigma(g)/g with g = (x - N)/x: the trivial group.
    @pytest.mark.parametrize("system,description", [
        ("scalar((x-1)/(x-2))", "torus of rank 1"),
        ("scalar((x-1)/(x-1000000007*9999999967))", "trivial group"),
    ])
    def test_large_prime_q_is_not_factored(self, system, description,
                                           capsys):
        import time

        start = time.perf_counter()
        code, out, _ = run_cli(
            ["group", "--sigma", "qshift", "--q", "1000000007*9999999967",
             "--system", system, "--output", "json"], capsys)
        assert time.perf_counter() - start < 1.0
        assert code == 0
        assert json.loads(out)["group"]["description"] == description

    def test_zeta13_at_a_bound_that_reaches_its_order(self, capsys):
        # shift, a = zeta13: a^v is a quotient iff zeta13^v = 1 (a constant
        # c is sigma(g)/g only for c = 1), iff 13 | v.  L = 13Z, so the group
        # is Z/13, the ring is zero-dimensional, and the witness 1 = 1^13
        # splits with marker zeta13: ell = m_inv = 13.  The box must reach
        # v = 13, hence --m-max 13; the default bound is a separate matter.
        code, out, _ = run_cli(["group", "--system", "scalar(zeta(13))",
                                "--m-max", "13", "--output", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        presentation = report["presentation"]
        assert presentation["search_bound"] == 13
        assert presentation["ell"] == 13
        assert presentation["m_inv"] == 13
        assert presentation["krull_dim"] == 0
        assert report["group"]["description"] == "finite part Z/13"

    @pytest.mark.parametrize("system, order", [("scalar(zeta(13))", 13),
                                               ("scalar(-zeta(7))", 14)])
    def test_torsion_above_the_default_bound_is_caveated(self, capsys,
                                                         system, order):
        # shift, a constant a: a^v is a quotient iff a^v = 1.  zeta13 has
        # order 13 and -zeta7 = zeta14^9 has order 14, both above the
        # default --m-max 12; the order is a discrete log in the roots of
        # unity, so the default bound gives Z/order with no caveat.
        code, out, _ = run_cli(["group", "--system", system,
                                "--output", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        presentation = report["presentation"]
        assert presentation["search_bound"] == 12
        assert presentation["caveats"] == []
        assert presentation["ell"] == order
        assert presentation["m_inv"] == order
        assert presentation["krull_dim"] == 0
        assert report["group"]["description"] == f"finite part Z/{order}"

    def test_torsion_held_by_the_lattice_is_not_caveated(self, capsys):
        # a = -zeta13^7 = zeta26^27 and b = -zeta13^4 = zeta26^21 both have
        # order 26 above the default bound, but a^v1 b^v2 = 1 iff
        # 27 v1 + 21 v2 = v1 - 5 v2 = 0 mod 26, spanned by (5, 1) and (-1, 5)
        # inside the box.  Both axes lie in the rational span of that
        # saturated lattice, so 26 e1 and 26 e2 are in it: the answer is
        # exact and no entry gets a caveat.
        code, out, _ = run_cli(["group", "--system",
                                "diag(-zeta(13)^7,-zeta(13)^4)",
                                "--output", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        presentation = report["presentation"]
        assert presentation["search_bound"] == 12
        assert presentation["caveats"] == []
        assert presentation["ell"] == 26
        assert presentation["m_inv"] == 26
        assert presentation["krull_dim"] == 0
        assert report["group"]["description"] == "finite part Z/26"
        assert report["group"]["finite_orders"] == [26]

    def _qshift_exact(self, capsys, q, system):
        code, out, _ = run_cli(["group", "--sigma", "qshift", "--q", q,
                                "--system", system, "--output", "json"],
                               capsys)
        assert code == 0
        report = json.loads(out)
        assert report["presentation"]["search_bound"] == 12
        return report["presentation"], report["group"]["description"]

    def test_qshift_torsion_above_the_default_bound_is_caveated(self, capsys):
        # q = 2, a = zeta13: a^v is sigma(g)/g iff zeta13^v is in 2^Z (a
        # dilation quotient with no x-adic part is q^k h(qx)/h(x), h(0) != 0,
        # and a constant one is q^k), and zeta13^v is a root of unity while
        # 2 is not, so iff 13 | v.  L = 13Z: the group is Z/13 with ell =
        # m_inv = 13 (marker zeta13), krull_dim 0, at the default bound.
        presentation, group = self._qshift_exact(capsys, "2",
                                                 "scalar(zeta(13))")
        assert presentation["caveats"] == []
        assert presentation["ell"] == 13
        assert presentation["m_inv"] == 13
        assert presentation["krull_dim"] == 0
        assert group == "finite part Z/13"

    @pytest.mark.parametrize("system", ["scalar(2*zeta(13))",
                                        "scalar(zeta(13)/4)"])
    def test_qshift_caveat_reduces_the_ratio_modulo_q(self, capsys, system):
        # q = 2, a = 2^j zeta13 (j = 1, -2): a^v = 2^(jv) zeta13^v is in 2^Z
        # iff zeta13^v is, iff 13 | v, since zeta13^v is a root of unity and
        # 2 is not.  L = 13Z: the group is Z/13 with ell = m_inv = 13 and
        # krull_dim 0.  The 2-adic valuation takes the power of q off.
        presentation, group = self._qshift_exact(capsys, "2", system)
        assert presentation["caveats"] == []
        assert presentation["ell"] == 13
        assert presentation["m_inv"] == 13
        assert presentation["krull_dim"] == 0
        assert group == "finite part Z/13"

    @pytest.mark.parametrize("q, system, order, ell, description", [
        # a = sqrt2 zeta13 (sqrt2 = zeta8 + zeta8^7), q = 2: a^v in 2^Z
        # needs v = 2t, as a^2 = 2 zeta13^2, and then a^(2t) = 2^t
        # zeta13^(2t) asks 13 | t: 26 | v.  The generator is Y^26 - x^13,
        # as sigma(x^13)/x^13 = 2^13 = a^26, and x^13 has the 13th root x
        # with marker a^2 x / sigma(x) = zeta13^2, so ell = m_inv = 13
        # below the exponent 26
        ("2", "scalar((zeta(8)+zeta(8)^7)*zeta(13))", 26, 13,
         "finite part Z/26"),
        # a = 2, q = 2^13: 2^v = 2^(13 t) asks 13 | v, and a^13 = q is
        # sigma(x)/x; x has no proper root, so ell = m_inv = 1
        ("8192", "scalar(2)", 13, 1, "finite part Z/13"),
    ], ids=["sqrt2*zeta13", "2 with q=2^13"])
    def test_qshift_caveat_reads_a_fractional_power_of_q(
            self, capsys, q, system, order, ell, description):
        presentation, group = self._qshift_exact(capsys, q, system)
        assert presentation["caveats"] == [
            f"presentation exponent {order} exceeds the invariant degree "
            f"{ell}; the reported m follows the degree"]
        assert presentation["ell"] == ell
        assert presentation["m_inv"] == ell
        assert presentation["krull_dim"] == 0
        assert group == description

    def test_qshift_caveat_reads_the_lowest_coefficients(self, capsys):
        # q = 2, a = zeta13 (2x+1)/(x+1) = zeta13 sigma(x+1)/(x+1): the
        # lowest coefficients give c = zeta13 of order 13, while the
        # leading ones give 2 zeta13, which is no root of unity
        presentation, group = self._qshift_exact(
            capsys, "2", "scalar(zeta(13)*(2*x+1)/(x+1))")
        assert presentation["caveats"] == []
        assert presentation["ell"] == 13
        assert presentation["krull_dim"] == 0
        assert group == "finite part Z/13"

    @pytest.mark.parametrize("system, description", [
        # q = 2 zeta3, a = 2^66 = q^66 (zeta3^66 = 1): sigma(x^66)/x^66,
        # the trivial group, found although 66 lies past any small window
        ("scalar(2^66)", "trivial group"),
        # a = 2^65 = q^65 zeta3^-65 = q^65 zeta3: a^v in q^Z iff 3 | v
        ("scalar(2^65)", "finite part Z/3"),
    ])
    def test_qshift_log_of_an_irrational_q_reads_the_norm(
            self, capsys, system, description):
        presentation, group = self._qshift_exact(capsys, "2*zeta(3)", system)
        assert presentation["caveats"] == []
        assert group == description

    @pytest.mark.parametrize("system, krull_dim", [
        # q = 2 + i has no rational power, so the orbits of the roots +-i
        # and +-i sqrt3 are compared in the window only: the answer is
        # right, and the caveat says how far the search went
        ("scalar((x^2+1)/(x^2+3))", 1),
        ("unipotent(1/(x^2+1))", 1),
    ])
    def test_a_q_power_window_is_caveated(self, capsys, system, krull_dim):
        presentation, _ = self._qshift_exact(capsys, "2+zeta(4)", system)
        assert presentation["krull_dim"] == krull_dim
        assert presentation["caveats"] == [
            "powers of q were searched only up to exponent 128; a relation "
            "past it would be missed"]

    def test_four_entries_and_a_bounded_residue(self, capsys):
        # q = 11: 2, 3, 5 and 7 are independent modulo 11^Z, a torus of
        # rank 4.  The units 1 + sqrt(2) and 3 + 2 sqrt(2) = (1 + sqrt(2))^2
        # have no rational power: their relation (2, -1) comes from the
        # bounded search, and the caveat names the bound
        code, out, _ = run_cli(
            ["group", "--system", "diag(2, 3, 5, 7)", "--sigma", "qshift",
             "--q", "11", "--output", "json"], capsys)
        assert code == 0
        report = json.loads(out)
        assert report["presentation"]["krull_dim"] == 4
        assert report["presentation"]["caveats"] == []
        assert report["group"]["description"] == "torus of rank 4"
        code, out, _ = run_cli(
            ["group", "--system",
             "diag(1+zeta(8)+zeta(8)^7, 3+2*zeta(8)+2*zeta(8)^7)",
             "--output", "json"], capsys)
        assert code == 0
        presentation = json.loads(out)["presentation"]
        assert presentation["generators"] == ["-1 + Y1^2*Y2^-1"]
        assert presentation["caveats"] == [
            "constants with no rational power were searched for relations "
            "only up to --m-max 12; a relation past it would be missed"]

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
        assert report["schema_version"] == 2

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
        (["group", "--system",
          "diag(1+zeta(8)+zeta(8)^7, 2, 3, 5)"], 2),
        (["check-connection", "--sigma", "qshift", "--q", "2",
          "--system", "unipotent(1)", "--u", "1", "--v", "1"], 2),
        (["group", "--degree-bound", "6", "--system", "scalar(-1)"], 1),
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

    def test_a_constant_too_long_to_print_is_a_typed_error(self):
        # the telescoping solution holds 2^15000, past Python's limit of
        # 4300 digits for printing an integer
        argv = [sys.executable, "-m", "pvkit", "group", "--output", "json",
                "--system", "unipotent(1/(x+2^15000) - 1/(x+2^15000+1))"]
        done = subprocess.run(argv, capture_output=True, text=True)
        assert done.returncode == 2
        report = json.loads(done.stdout)
        assert report["error"]["code"] == "output-too-large"
        jsonschema.validate(report, load_schema())
        assert "error[output-too-large]" in done.stderr
        assert "Traceback" not in done.stderr


_TESTS = Path(__file__).resolve().parent


class TestGoldenReports:
    """The JSON report of every benchmark workload input and of
    ``KNOWN_SLOW``, pinned by sha256 with its exit code.  A change that
    is meant to alter a report (a schema change) updates
    ``golden_reports.json`` and records the edit."""

    def test_workload_reports_are_unchanged(self, monkeypatch):
        monkeypatch.syspath_prepend(str(_TESTS.parent / "perfbench"))
        workloads = importlib.import_module("workloads")
        inputs = [(name, inp) for name, items in workloads.WORKLOADS.items()
                  for inp in items]
        inputs.append(("known-slow", workloads.KNOWN_SLOW))
        seen = {}
        for name, inp in inputs:
            rep, code = run(Request(command=inp.command, **inp.request))
            seen[f"{name}: {inp.label}"] = {
                "exit_code": code,
                "sha256": hashlib.sha256(
                    render_json(rep).encode()).hexdigest(),
            }
        golden = json.loads((_TESTS / "golden_reports.json").read_text())
        assert len(seen) == len(inputs)
        assert seen == golden


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
