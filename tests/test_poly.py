from __future__ import annotations

import importlib
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from pvkit.arith import cyclo
from pvkit.arith.cyclo import CycloField, CycloNum, QQ, euler_phi
from pvkit.arith.poly import (
    Poly,
    RatFunc,
    RatFuncField,
    format_poly,
    format_ratfunc,
)
from pvkit.cli import report
from pvkit.errors import InternalInvariantError

from dense_witness import poly_nth_root


def _p(*coeffs):
    # low-to-high over Q
    return Poly(QQ, coeffs)


def test_divmod_is_exact_division_with_remainder():
    a = _p(-1, 0, 1)          # x^2 - 1
    b = _p(1, 1)              # x + 1
    q, r = divmod(a, b)
    assert q == _p(-1, 1)
    assert r.is_zero()
    q2, r2 = divmod(_p(1, 0, 1), b)   # x^2 + 1 = (x-1)(x+1) + 2
    assert q2 == _p(-1, 1)
    assert r2 == _p(2)


def test_gcd_known_values():
    a = _p(-1, 0, 1)          # (x-1)(x+1)
    b = _p(1, -2, 1)          # (x-1)^2
    assert a.gcd(b) == _p(-1, 1)
    assert _p(2).gcd(_p(0, 3)).degree() == 0


def test_xgcd_bezout_identity():
    a = _p(-1, 0, 1)
    b = _p(1, -2, 1)
    g, s, t = a.xgcd(b)
    assert s * a + t * b == g
    assert g == _p(-1, 1)


def test_shift_and_scale_substitutions():
    p = _p(0, 0, 1)           # x^2
    assert p.shift_arg(1) == _p(1, 2, 1)
    assert p.scale_arg(2) == _p(0, 0, 4)
    assert _p(1, 1).scale_arg(2) == _p(1, 2)   # x+1 -> 2x+1
    assert _p(0, 0, 0, 1).scale_arg(2) == _p(0, 0, 0, 8)  # x^3 -> 8x^3
    assert _p(3).scale_arg(5) == _p(3)


def test_nth_root_detection():
    sq = _p(1, 1) * _p(1, 1)
    assert poly_nth_root(sq, 2) == _p(1, 1)
    assert poly_nth_root(_p(1, 1, 1), 2) is None
    cube = _p(2, 1) ** 3
    assert poly_nth_root(cube, 3) == _p(2, 1)
    assert poly_nth_root(cube, 2) is None


def test_ratfunc_canonical_form():
    one = RatFunc(_p(2, 2), _p(2, 2))
    assert one == 1
    reduced = RatFunc(_p(-1, 0, 1), _p(-1, 1))   # (x^2-1)/(x-1)
    assert reduced == RatFunc.from_poly(_p(1, 1))
    scaled = RatFunc(_p(0, 1), _p(2, 2))          # x/(2x+2)
    assert scaled.den.is_monic()
    assert scaled.num == _p(0, Fraction(1, 2))
    assert scaled.lc_ratio() == Fraction(1, 2)


def test_ratfunc_field_ops():
    f = RatFunc(_p(0, 1), _p(1, 1))   # x/(x+1)
    g = RatFunc(_p(1), _p(0, 1))      # 1/x
    assert f * g == RatFunc(_p(1), _p(1, 1))
    assert (f + g) * (f + g).inverse() == 1
    assert f ** (-2) == RatFunc(_p(1, 2, 1), _p(0, 0, 1))
    assert (f - f).is_zero()


def test_tower_field_arithmetic():
    ct = RatFuncField(QQ, "t")
    t = ct.coerce(RatFunc.x(QQ))
    k = RatFuncField(ct, "x")
    x = RatFunc.x(ct)
    f = (x + t) * (x - t)
    assert f == x * x - k.coerce(t * t)
    # t is a constant of k: zero x-degree after embedding
    assert k.coerce(t).num.degree() == 0
    assert k.coerce(t).is_const()


def test_format_poly_and_ratfunc():
    assert format_poly(_p(Fraction(1, 2), -1, 1), "x") == "x^2 - x + 1/2"
    assert format_poly(_p(0, -1), "x") == "-x"
    assert format_poly(Poly.zero(QQ), "x") == "0"
    f = RatFunc(_p(1, 1), _p(0, 1))
    assert format_ratfunc(f, "x") == "(x + 1)/x"
    assert format_ratfunc(RatFunc(_p(0, 1), _p(1, 1)), "x") == "x/(x + 1)"
    assert format_ratfunc(RatFunc(_p(-1), _p(0, 1)), "s") == "(-1)/s"
    z = CycloField(4)
    zeta = CycloNum.zeta(4)
    p4 = Poly(z, (1, zeta))
    assert format_poly(p4, "x") == "zeta(4)*x + 1"


_small_polys = st.builds(
    lambda cs: Poly(QQ, cs),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=0, max_size=5),
)


@given(_small_polys, _small_polys)
def test_gcd_divides_both_and_is_maximal(a, b):
    g = a.gcd(b)
    if g.is_zero():
        assert a.is_zero() and b.is_zero()
        return
    assert (a % g).is_zero()
    assert (b % g).is_zero()


def test_gcd_against_brute_force_divisor_search():
    # every small common divisor must divide the gcd
    candidates = []
    rng = (-2, -1, 0, 1, 2)
    for c0 in rng:
        for c1 in rng:
            candidates.append(_p(c0, c1, 1))       # monic quadratics
            if (c0, c1) != (0, 0):
                candidates.append(_p(c0, c1))      # linear / constants
    samples = [
        (_p(-1, 0, 1) * _p(2, 1), _p(-1, 1) * _p(2, 1)),
        (_p(0, 1) * _p(0, 1), _p(0, 0, 1) * _p(1, 1)),
        (_p(1, 2, 1), _p(1, 1)),
    ]
    for a, b in samples:
        g = a.gcd(b)
        for d in candidates:
            if d.degree() < 1:
                continue
            if (a % d).is_zero() and (b % d).is_zero():
                assert (g % d).is_zero()


@given(_small_polys, st.integers(min_value=-3, max_value=3))
def test_shift_substitution_round_trips(p, c):
    assert p.shift_arg(c).shift_arg(-c) == p


_T1 = RatFuncField(QQ, "t1")


def _taylor_coeffs(field):
    """Small coefficients over Q, Q(zeta_3) or Q(t1)."""
    ints = st.integers(min_value=-3, max_value=3)
    if field == CycloField(3):
        return st.builds(lambda a, b: a + b * CycloNum.zeta(3), ints, ints)
    if field == _T1:
        t = RatFunc.x(QQ)
        return st.builds(lambda a, b, d: (a + b * t) / (d * t + 1),
                         ints, ints, ints)
    return st.fractions(min_value=-3, max_value=3, max_denominator=3)


@pytest.mark.parametrize("c", [1, -1, 3, -3, Fraction(1, 2)])
@pytest.mark.parametrize("field", [QQ, CycloField(3), _T1],
                         ids=["Q", "Q(zeta3)", "Q(t1)"])
@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_taylor_shift_and_scale_match_horner(field, c, data):
    # Poly.eval is Horner's rule on Polys: an oracle that shares no code
    # with the in-place Taylor shift
    p = Poly(field, data.draw(st.lists(_taylor_coeffs(field), max_size=6)))
    x = Poly.x(field)
    assert p.shift_arg(c) == p.eval(x + c)
    assert p.scale_arg(c) == p.eval(x * c)
    if p.degree() <= 0:
        assert p.shift_arg(c) is p and p.scale_arg(c) is p


_Z3 = CycloField(3)
_ZETA3 = CycloNum.zeta(3)
# small factors, several shared, so that the operands of a random operation
# often have common factors for the reduction to find; over Q(zeta_3),
# x - zeta_3 divides x^2 + x + 1
_FACTORS = ((0, 1), (1, 1), (-1, 1), (2, 1), (1, 2), (1, 1, 1), (1, 0, 1))


@st.composite
def _reduced_ratfuncs(draw, field):
    factors = [Poly(field, cs) for cs in _FACTORS]
    if field == _Z3:
        factors.append(Poly(field, (-_ZETA3, 1)))
    picks = st.lists(st.sampled_from(factors), max_size=3)
    coeff = draw(st.sampled_from([-2, -1, Fraction(1, 3), 1, 3]))
    num, den = Poly.const(field, coeff), Poly.one(field)
    for f in draw(picks):
        num = num * f
    for f in draw(picks):
        den = den * f
    if draw(st.booleans()):
        den = den * Poly.const(field, _ZETA3 if field == _Z3 else 2)
    if draw(st.integers(0, 9)) == 0:
        num = Poly.zero(field)
    return RatFunc(num, den)


def _assert_canonical(f):
    assert f.den.is_monic()
    assert f.num.gcd(f.den).degree() == 0


@pytest.mark.parametrize("field", [QQ, _Z3], ids=["QQ", "QQ(zeta3)"])
def test_ratfunc_results_are_canonical(field):
    # every operation keeps gcd(num, den) = 1 and a monic denominator, and
    # equals the fraction reduced from the textbook formula
    @given(_reduced_ratfuncs(field), _reduced_ratfuncs(field),
           st.integers(-3, 3))
    def check(a, b, e):
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        cases = [(a + b, an * bd + bn * ad, ad * bd),
                 (a - b, an * bd - bn * ad, ad * bd),
                 (a * b, an * bn, ad * bd)]
        if not b.is_zero():
            cases.append((a / b, an * bd, ad * bn))
        if e >= 0:
            cases.append((a ** e, an ** e, ad ** e))
        elif not a.is_zero():
            cases.append((a ** e, ad ** -e, an ** -e))
        for got, num, den in cases:
            _assert_canonical(got)
            assert got == RatFunc(num, den)

    check()


# -- differential tests of the kernels against a schoolbook oracle ----------
#
# The oracle builds every result with the coercing constructor and seeds
# every product coefficient with zero, as textbook code does; the kernels
# build results without coercion and never start a sum at zero.

def _school_add(p, q, sign=1):
    n = max(len(p.coeffs), len(q.coeffs))
    return Poly(p.field, [p.nth(i) + sign * q.nth(i) for i in range(n)])


def _school_mul(p, q):
    out = [p.field.zero] * max(0, len(p.coeffs) + len(q.coeffs) - 1)
    for i, a in enumerate(p.coeffs):
        for j, b in enumerate(q.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(p.field, out)


def _school_divmod(p, d):
    rem = list(p.coeffs)
    quot = [p.field.zero] * max(0, len(rem) - len(d.coeffs) + 1)
    inv = p.field.one / d.lc()
    while len(rem) >= len(d.coeffs):
        k = len(rem) - len(d.coeffs)
        c = rem[-1] * inv
        quot[k] = c
        for i, b in enumerate(d.coeffs):
            rem[k + i] = rem[k + i] - c * b
        rem = list(Poly(p.field, rem).coeffs)
    return Poly(p.field, quot), Poly(p.field, rem)


def _school_pow(p, e):
    out = Poly.one(p.field)
    for _ in range(e):
        out = _school_mul(out, p)
    return out


def _assert_trusted(p):
    # the field holds every coefficient as it is, and the top one is nonzero
    assert all(p.field.coerce(c) is c for c in p.coeffs)
    assert not p.coeffs or p.coeffs[-1] != p.field.zero


def _cyclo_coeffs(n):
    coord = st.sampled_from([0, 0, 0, 1, -1, 2, Fraction(1, 2), Fraction(-3, 4)])
    return st.lists(coord, min_size=euler_phi(n), max_size=euler_phi(n)).map(
        lambda cs: CycloNum(n, cs))


_CT = RatFuncField(_Z3, "t")


def _t_coeffs():
    # rational functions in t over Q(zeta_3), zero and units among them
    small = st.lists(st.sampled_from([0, 1, -1, 2, _ZETA3]), max_size=3)
    return st.builds(
        lambda num, den, unit: RatFunc(Poly(_Z3, num),
                                       Poly.one(_Z3) if unit or not any(den)
                                       else Poly(_Z3, den)),
        small, small, st.booleans())


_FIELDS = [(CycloField(n), _cyclo_coeffs(n)) for n in (1, 3, 4, 8, 12)]
_FIELDS.append((_CT, _t_coeffs()))


def _polys(field, coeffs, max_size=4):
    return st.lists(coeffs, max_size=max_size).map(lambda cs: Poly(field, cs))


@pytest.mark.parametrize("field, coeffs", _FIELDS,
                         ids=[repr(f) for f, _ in _FIELDS])
def test_poly_arithmetic_matches_the_schoolbook_oracle(field, coeffs):
    @settings(deadline=None)
    @given(_polys(field, coeffs), _polys(field, coeffs),
           st.integers(0, 3))
    def check(p, q, e):
        cases = [(p + q, _school_add(p, q)),
                 (p - q, _school_add(p, q, -1)),
                 (-p, _school_add(Poly.zero(field), p, -1)),
                 (p * q, _school_mul(p, q)),
                 (p ** e, _school_pow(p, e)),
                 (p.monic(), _school_mul(p, Poly.const(field, field.one / p.lc()))
                  if p else p)]
        if q:
            cases += zip(divmod(p, q), _school_divmod(p, q))
        for got, want in cases:
            _assert_trusted(got)
            assert got.coeffs == want.coeffs

    check()


def _unit_or_not_ratfuncs(field, coeffs, max_size):
    # the denominator is 1 half of the time, and a nonzero constant that is
    # not 1 some of the time
    polys = _polys(field, coeffs, max_size=max_size)
    return st.builds(
        lambda num, den, unit: RatFunc(num, Poly.one(field) if unit or not den
                                       else den),
        polys, polys, st.booleans())


# degree <= 2 over the constants; degree <= 1 over C(t), where the oracle's
# gcds of polynomials with coefficients in Q(zeta_3)(t) are slow
@pytest.mark.parametrize("field, coeffs, max_size",
                         [(*_FIELDS[0], 3), (*_FIELDS[1], 3), (*_FIELDS[-1], 2)],
                         ids=["QQ", "QQ(zeta3)", "QQ(zeta3)(t)"])
def test_ratfunc_matches_the_fraction_built_from_scratch(field, coeffs,
                                                         max_size):
    @settings(deadline=None)
    @given(_unit_or_not_ratfuncs(field, coeffs, max_size),
           _unit_or_not_ratfuncs(field, coeffs, max_size), st.integers(-3, 3))
    def check(a, b, e):
        an, ad, bn, bd = a.num, a.den, b.num, b.den
        cases = [(a + b, _school_add(_school_mul(an, bd), _school_mul(bn, ad)),
                  _school_mul(ad, bd)),
                 (a * b, _school_mul(an, bn), _school_mul(ad, bd))]
        if b:
            cases.append((a / b, _school_mul(an, bd), _school_mul(ad, bn)))
        if e >= 0:
            cases.append((a ** e, _school_pow(an, e), _school_pow(ad, e)))
        elif a:
            cases.append((a ** e, _school_pow(ad, -e), _school_pow(an, -e)))
        for got, num, den in cases:
            _assert_trusted(got.num)
            _assert_trusted(got.den)
            _assert_canonical(got)
            want = RatFunc(num, den)
            assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs,
                                                        want.den.coeffs)

    check()


@pytest.mark.parametrize("field, coeffs, max_size",
                         [(*_FIELDS[0], 3), (*_FIELDS[1], 3), (*_FIELDS[-1], 2)],
                         ids=["QQ", "QQ(zeta3)", "QQ(zeta3)(t)"])
def test_plus_matches_the_coercing_constructor(field, coeffs, max_size):
    # half of the time c/d has the denominator b d' of a/b, with
    # c = b h - a, so that a + c = b h cancels against part of it
    polys = _polys(field, coeffs, max_size=max_size)

    @settings(deadline=None)
    @given(polys, polys, polys, polys, st.booleans())
    def check(a, b, d, h, same):
        if not b or not d:
            return
        x = RatFunc(a, b * d)
        y = RatFunc(b * h - x.num, x.den) if same else RatFunc(h, d)
        got = x._plus(y.num, y.den)
        _assert_trusted(got.num)
        _assert_trusted(got.den)
        _assert_canonical(got)
        want = RatFunc(x.num * y.den + y.num * x.den, x.den * y.den)
        assert (got.num.coeffs, got.den.coeffs) == (want.num.coeffs,
                                                    want.den.coeffs)

    check()


@pytest.mark.parametrize("op", ["add", "mul"])
def test_poly_over_a_smaller_field_rejects_a_larger_operand(op):
    # zeta_6 = -zeta_3^2 is no element of Q(zeta_3) as a conductor-6 value:
    # the conductor-3 field must refuse it rather than keep it in a result
    p3 = Poly(CycloField(3), (1, _ZETA3))
    p6 = Poly(CycloField(6), (CycloNum.zeta(6), 1))
    combine = (lambda u, v: u + v) if op == "add" else (lambda u, v: u * v)
    with pytest.raises(InternalInvariantError):
        combine(p3, p6)
    # the other way round, the conductor-3 operand lifts into Q(zeta_6)
    got = combine(p6, p3)
    assert got.field == CycloField(6)
    assert all(c.conductor == 6 for c in got.coeffs)
    want = combine(p6, Poly(CycloField(6), p3.coeffs))
    assert got.coeffs == want.coeffs


# -- division skips the known results ----------------------------------------
#
# A monic divisor of degree 0 returns the dividend itself.  Otherwise each
# step pops the leading remainder coefficient, which cancels exactly, and
# multiplies only the divisor's nonzero lower coefficients.

def _divisors(field, coeffs):
    """Units, sparse monic divisors (most lower coefficients zero) and
    non-monic ones, of degree 0 to 4."""
    def build(lows, lead, monic):
        return Poly(field, lows + [field.one if monic or not lead else lead])
    lows = st.lists(st.one_of(st.just(0), st.just(0), coeffs), max_size=4)
    return st.one_of(st.just(Poly.one(field)),
                     st.builds(build, lows, coeffs, st.booleans()))


@pytest.mark.parametrize("field, coeffs", _FIELDS,
                         ids=[repr(f) for f, _ in _FIELDS])
def test_divmod_by_unit_sparse_and_non_monic_divisors_matches_the_oracle(
        field, coeffs):
    @seed(20)
    @settings(deadline=None, max_examples=80)
    @given(_polys(field, coeffs, max_size=7), _divisors(field, coeffs))
    def check(p, d):
        got = divmod(p, d)
        for g, want in zip(got, _school_divmod(p, d)):
            _assert_trusted(g)
            assert g.coeffs == want.coeffs
        if d.coeffs == (field.one,):
            assert got[0] is p

    check()


def _counting_products():
    count = [0]
    real = CycloNum.__mul__

    def counted(a, b):
        count[0] += 1
        return real(a, b)
    return count, mock.patch.multiple(CycloNum, __mul__=counted,
                                      __rmul__=counted)


@seed(20)
@settings(deadline=None, max_examples=150)
@given(st.data())
def test_a_division_step_multiplies_only_the_nonzero_lower_coefficients(data):
    n = data.draw(st.sampled_from([1, 3, 5, 8, 12]))
    field, coeffs = CycloField(n), _cyclo_coeffs(n)
    p = data.draw(_polys(field, coeffs, max_size=7))
    d = data.draw(_divisors(field, coeffs))
    low = sum(1 for c in d.coeffs[:-1] if c)
    if not d.is_monic():
        count, patch = _counting_products()
        with patch:
            field.one / d.lc()
        inverse = count[0]
    count, patch = _counting_products()
    with patch:
        q, _ = divmod(p, d)
    steps = sum(1 for c in q.coeffs if c)
    # a monic step multiplies the nonzero lower coefficients; a non-monic
    # one also scales its quotient coefficient by the inverse of lc
    assert count[0] == (steps * low if d.is_monic()
                        else inverse + steps * (low + 1))


_ARITHMETIC = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
               "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__")


def _no_cyclo_arithmetic():
    def refuse(*args):
        raise AssertionError("CycloNum arithmetic in a division by 1")
    return mock.patch.multiple(CycloNum, **{op: refuse for op in _ARITHMETIC})


@pytest.mark.parametrize("field", [CycloField(1), CycloField(12), _CT],
                         ids=repr)
def test_a_unit_divisor_returns_the_dividend_without_arithmetic(field):
    p = Poly(field, [field.one, field.zero, field.coerce(_ZETA3)
                     if field != QQ else field.coerce(2)])
    with _no_cyclo_arithmetic():
        q, r = divmod(p, Poly.one(field))
    assert q is p and r.coeffs == ()


def test_no_workload_pass_multiplies_a_rational_in_full(monkeypatch):
    # on one pass of each workload only two irrational operands reach the
    # full power-basis product, and a division by 1 does no CycloNum
    # arithmetic at all
    real_product, real_divmod = cyclo._product, Poly.__divmod__
    units = []

    def product(n, x, y):
        assert any(x[1:]) and any(y[1:]), "a rational operand reached _product"
        return real_product(n, x, y)

    def divmod_(self, other):
        if not (isinstance(other, Poly) and other.coeffs == (other.field.one,)):
            return real_divmod(self, other)
        units.append(other)
        with _no_cyclo_arithmetic():
            out = real_divmod(self, other)
        assert out[0] is self
        return out

    monkeypatch.setattr(cyclo, "_product", product)
    monkeypatch.setattr(Poly, "__divmod__", divmod_)
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parent.parent
                                    / "perfbench"))
    workloads = importlib.import_module("workloads")
    for name, inputs in workloads.WORKLOADS.items():
        units.clear()
        for inp in inputs:
            rep, code = report.run(report.Request(command=inp.command,
                                                  **inp.request))
            assert workloads.check(inp, rep, code) is None, inp.label
        assert units, name
