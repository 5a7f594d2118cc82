from __future__ import annotations

from fractions import Fraction

import pytest
import sympy as sp
from sympy.polys.subresultants_qq_zz import sylvester
from hypothesis import given, seed, settings, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum, QQ
from pvkit.arith.poly import Poly, RatFuncField
from pvkit.arith import ops
from pvkit.arith.ops import (
    _divisors,
    _iroot_ceil,
    _norm_coeffs,
    _qshift_candidates,
    _qshift_resultant,
    _root_bound,
    _shift_candidates,
    _shift_resultant,
    coprime_basis,
    dispersion,
    dispersion_set,
    dispersion_with_flag,
    integer_roots,
    resultant,
)
from pvkit.base import SigmaSpec
from pvkit.errors import NonRationalCoefficients
from resultant_oracle import norm_coeffs, qshift_resultant, shift_resultant


def _p(*coeffs):
    return Poly(QQ, coeffs)


def test_resultant_frozen_values():
    # 2x2 Sylvester by hand: [[1,-2],[1,-3]] -> -1
    assert resultant(_p(-2, 1), _p(-3, 1)) == -1
    # common root
    assert resultant(_p(-2, 1), _p(-2, 1)) == 0
    # 3x3 Sylvester by hand: res(x^2-1, x) = -1
    assert resultant(_p(-1, 0, 1), _p(0, 1)) == -1


def test_integer_roots_examples():
    assert integer_roots(_p(2, -3, 1)) == {1, 2}
    assert integer_roots(_p(1, 0, 1)) == set()
    # x(x-5)(2x-1): rational non-integer root excluded
    p = _p(0, 1) * _p(-5, 1) * _p(-1, 2)
    assert integer_roots(p) == {0, 5}
    assert integer_roots(_p(Fraction(1, 2), 1)) == set()


@given(roots=st.lists(st.integers(-12, 12), min_size=1, max_size=4),
       scale=st.integers(1, 6),
       extra=st.sampled_from([(1,), (1, 0, 1), (-1, 2), (-2, 0, 1),
                              (3, -1, 5)]))
@settings(max_examples=80, deadline=None)
def test_integer_roots_match_brute_force(roots, scale, extra):
    # scale * prod (t - r) * extra, where extra has no integer root.  Every
    # complex root of a product is a root of a factor, so none has
    # |t| > 12, and the brute force evaluates every integer up to 13
    p = _p(scale) * _p(*extra)
    for r in roots:
        p = p * _p(-r, 1)
    brute = {t for t in range(-13, 14) if p.eval(QQ.coerce(t)) == 0}
    assert brute == set(roots)
    assert integer_roots(p) == brute


@pytest.mark.parametrize("roots", [(10 ** 12, -3), (10 ** 12, 1),
                                   (-(10 ** 12), 7, 0)])
def test_integer_roots_with_one_large_root(roots):
    # the large root r pairs with the small divisor a_0 / r of the
    # constant term, which the bounded divisor loop reaches
    p = _p(1)
    for r in roots:
        p = p * _p(-r, 1)
    assert integer_roots(p) == set(roots)


def test_root_bound_is_fujiwaras():
    # (t - 2)(t + 3) = t^2 + t - 6: 2 * max(ceil(1), ceil(sqrt 6)) = 6
    assert _root_bound([-6, 1, 1]) == 6
    # 2t - 10^6: 2 * ceil(10^6 / 2)
    assert _root_bound([-(10 ** 6), 2]) == 10 ** 6
    # t^3 - 27: 2 * ceil(27^(1/3)) = 6, and 3 is the root
    assert _root_bound([-27, 0, 0, 1]) == 6
    # t^2 + 2: 2 * ceil(sqrt 2) = 4
    assert _root_bound([2, 0, 1]) == 4


@given(m=st.integers(0, 10 ** 30), i=st.integers(1, 7))
def test_iroot_ceil_is_the_least_root(m, i):
    r = _iroot_ceil(m, i)
    assert r ** i >= m
    assert r == 0 or (r - 1) ** i < m


def test_integer_roots_rationality_guard():
    z4 = CycloField(4)
    p = Poly(z4, (CycloNum.zeta(4), z4.one))
    with pytest.raises(NonRationalCoefficients):
        integer_roots(p)
    # rational values carried at conductor 4 are fine
    squared = Poly(z4, (CycloNum.zeta(4) ** 2, z4.one))   # x - 1
    assert integer_roots(squared) == {1}


def test_shift_dispersion_examples():
    shift = SigmaSpec.shift()
    assert dispersion(_p(0, 1), _p(-3, 1), shift) == 3
    assert dispersion(_p(0, 1), _p(1, 1), shift) is None
    # several meeting translates: roots of r shifted down meet p at j in {0, 2}
    assert dispersion(_p(0, 1), _p(0, 1) * _p(-2, 1), shift) == 2


def test_qshift_dispersion_examples():
    sig = SigmaSpec.qshift(CycloNum.from_rational(2))
    assert dispersion(_p(-1, 1), _p(-4, 1), sig) == 2
    value, complete = dispersion_with_flag(_p(-1, 1), _p(-4, 1), sig)
    assert value == 2 and complete is True
    # root 1 against roots 4 and 2: candidates 2 and 1, largest verified is 2
    assert dispersion(_p(-1, 1), _p(-4, 1) * _p(-2, 1), sig) == 2
    # no q-power relates the roots
    assert dispersion(_p(-1, 1), _p(-3, 1), sig) is None
    # shared x factors are stripped, not an excuse for an infinite answer
    assert dispersion(_p(0, 1), _p(0, 0, 1), sig) is None


def test_qshift_dispersion_with_rational_q_less_than_one():
    sig = SigmaSpec.qshift(CycloNum.from_rational(Fraction(1, 2)))
    # root of p = 4, root of r = 1: 1 = (1/2)^2 * 4
    assert dispersion(_p(-4, 1), _p(-1, 1), sig) == 2


_small_polys = st.builds(
    lambda cs: Poly(QQ, cs),
    st.lists(st.integers(min_value=-3, max_value=3), min_size=1, max_size=4),
)


@given(_small_polys, _small_polys)
def test_resultant_vanishes_iff_common_factor(a, b):
    if a.is_zero() or b.is_zero():
        return
    res = resultant(a, b)
    has_common = a.gcd(b).degree() > 0
    if a.degree() == 0 and b.degree() == 0:
        return
    assert res.is_zero() == has_common


def _roots_poly(roots):
    p = _p(1)
    for a in roots:
        p = p * _p(-a, 1)
    return p


_int_roots = st.lists(st.integers(-4, 4), min_size=1, max_size=3)
_two_power_roots = st.lists(
    st.tuples(st.sampled_from([1, -1]), st.integers(-2, 3)).map(
        lambda sv: sv[0] * Fraction(2) ** sv[1]),
    min_size=1, max_size=3)


_TOWER = RatFuncField(QQ, "t1")
# each field with a constant g, irrational except over Q (g = 1); the
# factor x - i - g has root i + g
_SHIFT_FIELDS = {"Q": (QQ, QQ.one),
                 "Q(zeta3)": (CycloField(3), CycloNum.zeta(3)),
                 "Q(t1)": (_TOWER, _TOWER.x())}
# a factor (i, kind): x - i ("int"), x - i - g ("gen"), (x - i)^2 + 1 ("quad",
# roots i + sqrt(-1) and i - sqrt(-1))
_shift_factors = st.lists(st.tuples(st.integers(-4, 4),
                                    st.sampled_from(["int", "gen", "quad"])),
                          min_size=1, max_size=2)


def _shift_factor_product(field, g, factors):
    x, out = Poly(field, (0, 1)), Poly(field, (1,))
    for i, kind in factors:
        if kind == "quad":
            out = out * ((x - i) * (x - i) + 1)
        else:
            out = out * (x - (field.coerce(i) + (g if kind == "gen" else 0)))
    return out


def _shift_roots(factors, g_is_rational):
    """(integer part, kind) of each root; "gen" is "int" when g is 1."""
    roots = set()
    for i, kind in factors:
        if kind == "quad":
            roots |= {(i, "+i"), (i, "-i")}
        elif kind == "gen" and g_is_rational:
            roots.add((i + 1, "int"))
        else:
            roots.add((i, kind))
    return roots


@given(_int_roots, _int_roots)
def test_shift_dispersion_matches_root_brute_force(p_roots, r_roots):
    # a root a of p meets r at j when a + j is a root of r
    meets = [b - a for a in p_roots for b in r_roots if b - a >= 0]
    expected = max(meets) if meets else None
    got = dispersion(_roots_poly(p_roots), _roots_poly(r_roots),
                     SigmaSpec.shift())
    assert got == expected


@seed(21)
@settings(max_examples=100, deadline=None)
@given(st.sampled_from(sorted(_SHIFT_FIELDS)), _shift_factors, _shift_factors)
def test_shift_dispersion_set_is_the_gcd_filtered_root_distances(
        name, p_factors, r_factors):
    # over Q, Q(zeta3) and Q(t1) and with quadratic factors: the integer
    # roots of the composed resultant are returned with no gcd, so they
    # must be exactly the j where p and r(x + j) share a factor, which are
    # the integer root distances
    field, g = _SHIFT_FIELDS[name]
    p, r = (_shift_factor_product(field, g, fs) for fs in (p_factors, r_factors))
    shift = SigmaSpec.shift()
    by_gcd = [j for j in range(-10, 11)
              if p.gcd(shift.translate(r, j)).degree() > 0]
    by_roots = sorted({b - a for a, u in _shift_roots(p_factors, name == "Q")
                       for b, v in _shift_roots(r_factors, name == "Q")
                       if u == v})
    assert dispersion_set(p, r, shift) == (by_gcd, True)
    assert by_gcd == by_roots


@given(_two_power_roots, _two_power_roots, st.booleans())
def test_qshift_dispersion_matches_root_brute_force(p_roots, r_roots, at_zero):
    # q = 2: a root a of p meets r at j when 2^j * a is a root of r; a
    # shared root at the origin is stripped, never a meeting
    meets = [j for a in p_roots for b in r_roots for j in range(6)
             if Fraction(2) ** j * a == b]
    expected = max(meets) if meets else None
    p, r = _roots_poly(p_roots), _roots_poly(r_roots)
    if at_zero:
        p, r = p * _p(0, 1), r * _p(0, 1)
    sig = SigmaSpec.qshift(CycloNum.from_rational(2))
    assert dispersion(p, r, sig) == expected


_Z3 = CycloField(3)
_TWO_ZETA3 = 2 * CycloNum.zeta(3)


def _z3_poly(*coeffs):
    return Poly(_Z3, coeffs)


@pytest.mark.parametrize("p, r, q, want", [
    # 2^129 = q^129 for q = 2 zeta3, as zeta3^129 = 1
    ((-1, 1), (-2 ** 129, 1), _TWO_ZETA3, [129]),
    # roots +-i and +-2^150 i: q^150 = 2^150
    ((1, 0, 1), (2 ** 300, 0, 1), _TWO_ZETA3, [150]),
    # a rational q and a cyclotomic resultant: the norm of R decides
    ((CycloNum.zeta(3), 0, 1), (2 ** 300 * CycloNum.zeta(3), 0, 1),
     CycloNum.from_rational(2), [150]),
], ids=["linear 2zeta3", "quadratic 2zeta3", "quadratic zeta3 roots, q=2"])
def test_qshift_dispersion_past_the_window(p, r, q, want):
    got = dispersion_set(_z3_poly(*p), _z3_poly(*r), SigmaSpec.qshift(q))
    assert got == (want, True)


def test_qshift_dispersion_reads_the_norm_of_a_q_with_no_rational_power():
    # q = 2 + i: (2 + i)^4 = -7 - 24 i is irrational, but N(q) = 5
    z4 = CycloField(4)
    q = 2 + CycloNum.zeta(4)
    p, r = Poly(z4, (-1, 1)), Poly(z4, (-(q ** 200), 1))
    assert dispersion_set(p, r, SigmaSpec.qshift(q)) == ([200], True)
    assert dispersion_set(r, p, SigmaSpec.qshift(q)) == ([-200], True)


_big_roots = st.lists(
    st.tuples(st.sampled_from([1, -1, "zeta3"]), st.integers(0, 200)),
    min_size=1, max_size=2)


_Q_POWERS = {name: (q, {j: q ** j for j in range(-200, 201)})
             for name, q in (("2", CycloNum.from_rational(2)),
                             ("2 zeta3", _TWO_ZETA3))}


def _unit_times_two_power(unit, j):
    return (CycloNum.zeta(3) if unit == "zeta3"
            else CycloNum.from_rational(unit)) * 2 ** j


@given(_big_roots, _big_roots, st.sampled_from(["2", "2 zeta3"]))
@settings(max_examples=40, deadline=None)
def test_qshift_dispersion_past_the_window_matches_root_brute_force(
        p_roots, r_roots, q_name):
    # roots +-2^j and zeta3 2^j: |q^j| = 2^j, so every meeting lies in
    # |j| <= 200, where the brute force tries each power of q
    q, powers = _Q_POWERS[q_name]
    ps = [_unit_times_two_power(*a) for a in p_roots]
    rs = [_unit_times_two_power(*b) for b in r_roots]
    meets = sorted({j for a in ps for b in rs for j, power in powers.items()
                    if power * a == b})
    p = r = _z3_poly(1)
    for a in ps:
        p = p * _z3_poly(-a, 1)
    for b in rs:
        r = r * _z3_poly(-b, 1)
    assert dispersion_set(p, r, SigmaSpec.qshift(q)) == (meets, True)


_maybe_roots = st.lists(st.integers(-4, 4), max_size=3)
_units = st.sampled_from([-2, -1, Fraction(1, 2), 1, 3])


def _prod(values):
    out = Fraction(1)
    for v in values:
        out *= v
    return out


@given(_units, _maybe_roots, _units, _maybe_roots)
def test_resultant_is_the_product_over_root_pairs(c1, a_roots, c2, b_roots):
    # res(c1 prod(x - a), c2 prod(x - b)) = c1^m c2^n prod(a - b), with
    # n and m the numbers of roots a and b
    n, m = len(a_roots), len(b_roots)
    expected = c1 ** m * c2 ** n * _prod(a - b for a in a_roots
                                        for b in b_roots)
    got = resultant(_p(c1) * _roots_poly(a_roots),
                    _p(c2) * _roots_poly(b_roots))
    assert got == expected


@given(_units, _int_roots, _units, _int_roots)
def test_shift_resultant_is_the_product_of_root_gaps(c1, p_roots, c2,
                                                    r_roots):
    # res_x(p(x), r(x + t)) = c1^m c2^n prod(t - (b - a)) over the roots a of
    # p and b of r, interpolated from integer values of t
    n, m = len(p_roots), len(r_roots)
    expected = _p(c1 ** m * c2 ** n)
    for a in p_roots:
        for b in r_roots:
            expected = expected * _p(a - b, 1)
    got = _shift_resultant(_p(c1) * _roots_poly(p_roots),
                           _p(c2) * _roots_poly(r_roots))
    assert got == expected


@given(_units, _int_roots, _units, _int_roots)
def test_qshift_resultant_is_the_product_of_root_ratios(c1, p_roots, c2,
                                                       r_roots):
    # res_x(r(u x), p(x)) = c2^n c1^m prod(b - u a) over the roots a of p and
    # b of r, interpolated from integer values u >= 1
    n, m = len(p_roots), len(r_roots)
    expected = _p(c1 ** m * c2 ** n)
    for a in p_roots:
        for b in r_roots:
            expected = expected * _p(b, -a)
    got = _qshift_resultant(_p(c1) * _roots_poly(p_roots),
                            _p(c2) * _roots_poly(r_roots))
    assert got == expected


@pytest.mark.parametrize("field", [QQ, CycloField(3)], ids=["Q", "Q(zeta3)"])
def test_shift_resultant_matches_one_shift_per_point(field):
    # the chained unit shifts give the same values as shifting from scratch
    z = field.coerce(CycloNum.zeta(3)) if field.conductor == 3 else field.one
    pairs = [
        (Poly(field, (-2, 1)), Poly(field, (3, 0, 1))),
        (Poly(field, (z, 0, 1)), Poly(field, (1, z, -2, 1))),
        (Poly(field, (1, 1, z, 1)), Poly(field, (-z, 2))),
    ]
    for p, r in pairs:
        values = [resultant(p, r.shift_arg(t))
                  for t in range(p.degree() * r.degree() + 1)]
        got = _shift_resultant(p, r)
        assert [got.eval(field.coerce(t)) for t in range(len(values))] == values


_nonconstant = st.lists(st.integers(-3, 3), min_size=2, max_size=4).filter(
    lambda cs: cs[-1] != 0)


@settings(max_examples=40, deadline=None)
@given(_nonconstant, _nonconstant)
def test_candidate_resultants_match_sympy(p_coeffs, r_coeffs):
    # the reference is the determinant of sympy's Sylvester matrix in x, with
    # the second variable s symbolic; sympy.resultant itself returns the
    # opposite sign for some degree pairs (res(x - 1, x^3 + 8) = -9)
    x, s = sp.symbols("x s")
    p_expr = sum(c * x ** i for i, c in enumerate(p_coeffs))
    r_expr = sum(c * x ** i for i, c in enumerate(r_coeffs))
    p, r = _p(*p_coeffs), _p(*r_coeffs)

    def sylvester_det(f, g):
        return sylvester(sp.expand(f), sp.expand(g), x).det()

    for ours, theirs in (
            (_shift_resultant(p, r),
             sylvester_det(p_expr, r_expr.subs(x, x + s))),
            (_qshift_resultant(p, r),
             sylvester_det(r_expr.subs(x, s * x), p_expr))):
        want = sp.Poly(sp.expand(theirs), s).all_coeffs()[::-1]
        assert ours == _p(*[Fraction(int(c.p), int(c.q)) for c in want])


_TOWER = RatFuncField(QQ, "t1")
_oracle_fields = st.sampled_from([QQ, CycloField(3), CycloField(5), _TOWER])
_oracle_rationals = st.sampled_from(
    [0, 1, -1, 2, -3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 4)])


@st.composite
def _oracle_polys(draw, field, low_zero):
    """A non-monic polynomial over field, with rational coefficients that
    have denominators, irrational or transcendental ones, half the time a
    squared factor (not over the slow tower), and low_zero powers of x."""
    gen = (_TOWER.x() if field is _TOWER else None if field.conductor == 1
           else field.coerce(CycloNum.zeta(field.conductor)))

    def element():
        c = field.coerce(draw(_oracle_rationals))
        if gen is not None and draw(st.booleans()):
            c = c + draw(_oracle_rationals) * gen
        return c

    def factor(min_degree):
        cs = [element() for _ in range(draw(st.integers(min_degree, 2)))]
        return Poly(field, cs + [field.coerce(draw(st.sampled_from(
            [1, -2, Fraction(3, 2)])))])

    p = factor(1)
    if field is not _TOWER and draw(st.booleans()):
        p = p * factor(0) ** 2
    return p * Poly.x(field) ** low_zero


@given(st.data(), _oracle_fields, st.integers(0, 1))
@settings(max_examples=60, deadline=None)
def test_composed_resultants_match_the_interpolated_oracle(data, field,
                                                          low_zero):
    # the power-sum route against deg p * deg r + 1 Euclidean resultants
    # and their interpolation; p(0) = 0 reaches the dilation's zero roots
    p = data.draw(_oracle_polys(field, low_zero))
    r = data.draw(_oracle_polys(field, 0))
    assert _shift_resultant(p, r) == shift_resultant(p, r)
    big = _qshift_resultant(p, r)
    assert big == qshift_resultant(p, r)
    if big and field is not _TOWER:
        assert _norm_coeffs(list(big.coeffs)) == norm_coeffs(big.coeffs)


@pytest.mark.parametrize("n", [1, 2, 12, 13, 36, 97, 360])
def test_divisors_ascending(n):
    assert _divisors(n) == [d for d in range(1, n + 1) if n % d == 0]


# ------------------------------------------ dispersion: fast path, descent


def _resultant_route(p, r, sigma):
    """dispersion_set through the interpolated resultant, whatever the
    degrees: the candidates, then one gcd per candidate."""
    if sigma.kind == "shift":
        candidates, complete = _shift_candidates(p, r), True
    else:
        p, r = ops._strip_x(p), ops._strip_x(r)
        candidates, complete = _qshift_candidates(
            p, r, p.field.coerce(sigma.q))
    return [j for j in sorted(candidates)
            if p.gcd(sigma.translate(r, j)).degree() > 0], complete


_linear_roots = st.sampled_from([1, -1, 2, 3, Fraction(1, 2), Fraction(-3, 4)])


@given(alpha=_linear_roots, beta=_linear_roots, j=st.integers(-3, 5),
       scales=st.tuples(_units, _units), twist=st.booleans(),
       sigma=st.sampled_from(["shift", 2, Fraction(1, 2), 3, "2 zeta3"]))
@settings(max_examples=80, deadline=None)
def test_linear_dispersion_matches_the_resultant_route(alpha, beta, j, scales,
                                                       twist, sigma):
    # two linear factors, half the time with a root j translates away;
    # twist multiplies both roots by zeta3, which makes the dilation's
    # resultant irrational and sends it through its norm
    field = CycloField(3)
    if sigma == "shift":
        spec = SigmaSpec.shift()
        beta = alpha + j if j >= 0 else beta
    else:
        q = (CycloNum.zeta(3) * 2 if sigma == "2 zeta3"
             else CycloNum.from_rational(sigma))
        spec = SigmaSpec.qshift(q)
        beta = field.coerce(alpha) * q ** j if j >= 0 else beta
    root_scale = CycloNum.zeta(3) if twist else CycloNum.from_rational(1)
    p = Poly(field, (-field.coerce(alpha) * root_scale, 1)) * scales[0]
    r = Poly(field, (-field.coerce(beta) * root_scale, 1)) * scales[1]
    assert dispersion_set(p, r, spec) == _resultant_route(p, r, spec)


def test_tower_dispersion_descends_to_the_cyclotomic_floor(monkeypatch):
    # rational polynomials over Q(t1): the same sets as over Q, and every
    # resultant is composed over the cyclotomic floor
    tower = RatFuncField(QQ, "t1")
    pairs = [((0, 1, 0, 1), (10, 6, 1)), ((2, 3, 1), (0, 0, 1, 1)),
             ((1, 0, 1), (5, 4, 1))]
    seen = []
    real = ops._composed

    def record(f, g, gaps):
        seen.append(f.field)
        return real(f, g, gaps)

    for sigma in (SigmaSpec.shift(), SigmaSpec.qshift(2)):
        for pc, rc in pairs:
            p, r = Poly(QQ, pc), Poly(QQ, rc)
            low = dispersion_set(p, r, sigma)
            monkeypatch.setattr(ops, "_composed", record)
            high = dispersion_set(Poly(tower, pc), Poly(tower, rc), sigma)
            monkeypatch.setattr(ops, "_composed", real)
            assert high == low
    assert seen and all(f == QQ for f in seen)


def test_coprime_basis_refines_without_factoring():
    from math import gcd

    big = 1000000007 * 9999999967
    basis = coprime_basis([big * 12, 18, 9999999967], gcd, lambda a: a == 1)
    assert sorted(basis) == [2, 3, 1000000007, 9999999967]
    x = _p(0, 1)
    polys = coprime_basis([x * x * _p(1, 1), x * _p(1, 1) ** 3],
                          Poly.gcd, lambda p: p.degree() < 1)
    assert len(polys) == 2
    assert any(p == x for p in polys) and any(p == _p(1, 1) for p in polys)
