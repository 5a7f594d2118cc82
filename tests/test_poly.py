from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum, QQ
from pvkit.arith.poly import (
    Poly,
    RatFunc,
    RatFuncField,
    format_poly,
    format_ratfunc,
)


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
    assert sq.nth_root(2) == _p(1, 1)
    assert _p(1, 1, 1).nth_root(2) is None
    cube = _p(2, 1) ** 3
    assert cube.nth_root(3) == _p(2, 1)
    assert cube.nth_root(2) is None


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
