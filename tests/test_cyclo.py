from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from unittest import mock

import pytest
from hypothesis import given, seed, settings, strategies as st

from pvkit.arith import cyclo
from pvkit.arith.cyclo import (
    CycloNum,
    CycloField,
    bounded_multiplicative_order,
    cyclotomic_coeffs,
    euler_phi,
)

from dense_witness import fraction_nth_root, integer_nth_root, nth_root


def test_euler_phi_small_values():
    assert [euler_phi(n) for n in (1, 2, 3, 4, 6, 8, 12)] == [1, 1, 2, 2, 2, 4, 4]


def test_cyclotomic_polynomials_match_known_tables():
    # classical expansions, low-to-high coefficients
    assert [int(c) for c in cyclotomic_coeffs(1)] == [-1, 1]
    assert [int(c) for c in cyclotomic_coeffs(2)] == [1, 1]
    assert [int(c) for c in cyclotomic_coeffs(4)] == [1, 0, 1]
    assert [int(c) for c in cyclotomic_coeffs(6)] == [1, -1, 1]
    assert [int(c) for c in cyclotomic_coeffs(12)] == [1, 0, -1, 0, 1]


def test_zeta4_squares_to_minus_one():
    z = CycloNum.zeta(4)
    assert z * z == -1
    assert z ** 4 == 1
    assert z ** 2 != 1


def test_conductor_one_is_bit_for_bit_rational():
    val = CycloNum.from_rational(Fraction(3, 2))
    assert val.conductor == 1
    assert val.coeffs == (Fraction(3, 2),)
    assert val.is_rational()
    assert val.rational_value() == Fraction(3, 2)


def test_cross_conductor_identities():
    # zeta_6 = 1 + zeta_3 (both primitive sixth/third roots on the unit circle)
    assert CycloNum.zeta(6) == CycloNum.zeta(3) + 1
    # zeta_8^(-1) = -zeta_8^3 since zeta_8^4 = -1
    z8 = CycloNum.zeta(8)
    assert z8 ** (-1) == -(z8 ** 3)
    # mixed product zeta_4 * zeta_3 is a primitive 12th root
    w = CycloNum.zeta(4) * CycloNum.zeta(3)
    assert w.conductor == 12
    assert bounded_multiplicative_order(w, 20) == 12


def test_bounded_multiplicative_order():
    assert bounded_multiplicative_order(CycloNum.from_rational(1), 5) == 1
    assert bounded_multiplicative_order(CycloNum.from_rational(-1), 5) == 2
    assert bounded_multiplicative_order(CycloNum.from_rational(2), 50) is None
    assert bounded_multiplicative_order(CycloNum.zeta(6), 6) == 6
    assert bounded_multiplicative_order(CycloNum.zeta(6), 5) is None


def test_integer_and_fraction_roots():
    assert integer_nth_root(27, 3) == 3
    assert integer_nth_root(28, 3) is None
    assert integer_nth_root(1, 7) == 1
    assert integer_nth_root(0, 2) == 0
    assert integer_nth_root(10 ** 30, 2) == 10 ** 15
    assert fraction_nth_root(Fraction(8, 27), 3) == Fraction(2, 3)
    assert fraction_nth_root(Fraction(-8, 27), 3) == Fraction(-2, 3)
    assert fraction_nth_root(Fraction(-4), 2) is None
    assert fraction_nth_root(Fraction(2), 2) is None


def test_field_nth_root_hook():
    field = CycloField(4)
    assert nth_root(field, field.coerce(4), 2) == field.coerce(2)
    assert nth_root(field, field.coerce(2), 2) is None
    assert (nth_root(field, field.coerce(Fraction(1, 8)), 3)
            == field.coerce(Fraction(1, 2)))


def test_division_and_inverse():
    z = CycloNum.zeta(8)
    a = z ** 3 + 2 * z - Fraction(1, 2)
    assert a * a.inverse() == 1
    assert (a / a) == 1
    with pytest.raises(ZeroDivisionError):
        CycloNum.from_rational(0, 8).inverse()


def test_str_forms_are_stable():
    z = CycloNum.zeta(8)
    assert str(2 * z ** 3 - z + Fraction(1, 2)) == "2*zeta(8)^3 - zeta(8) + 1/2"
    assert str(CycloNum.from_rational(Fraction(-3, 4), 8)) == "-3/4"
    assert str(CycloNum.from_rational(0)) == "0"


_small_rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=6)


@st.composite
def _cyclo_values(draw):
    n = draw(st.sampled_from([1, 2, 3, 4, 6, 8]))
    coeffs = tuple(draw(_small_rationals) for _ in range(euler_phi(n)))
    return CycloNum(n, coeffs)


@given(_cyclo_values(), _cyclo_values(), _cyclo_values())
def test_ring_axioms_hold(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a - a == 0
    assert (a * b) * c == a * (b * c)


@given(_cyclo_values())
def test_nonzero_elements_invert(a):
    if a.is_zero():
        return
    assert a * a.inverse() == 1


# ---------------------------------------------------------------------------
# The integer form against the rational schoolbook formula.  The oracle works
# on tuples of Fractions: coordinates combine one by one, products are
# polynomial products reduced by long division modulo the cyclotomic
# polynomial, and zeta_n^k lifts to zeta_m^(k m/n) reduced the same way.

def _oracle_reduce(poly, n):
    modulus = cyclotomic_coeffs(n)
    rem = [Fraction(c) for c in poly]
    while len(rem) >= len(modulus):
        c = rem.pop()
        k = len(rem) - len(modulus) + 1
        for i, y in enumerate(modulus[:-1]):
            rem[k + i] -= c * y
    return tuple(rem + [Fraction(0)] * (euler_phi(n) - len(rem)))


def _oracle_mul(xs, ys, n):
    prod = [Fraction(0)] * (len(xs) + len(ys) - 1)
    for i, x in enumerate(xs):
        for j, y in enumerate(ys):
            prod[i + j] += x * y
    return _oracle_reduce(prod, n)


def _oracle_lift(xs, n, m):
    out = [Fraction(0)] * euler_phi(m)
    for k, c in enumerate(xs):
        power = [0] * (k * (m // n)) + [1]
        for i, r in enumerate(_oracle_reduce(power, m)):
            out[i] += c * r
    return tuple(out)


def _oracle_pair(a, b):
    m = lcm(a.conductor, b.conductor)
    return (m, _oracle_lift(a.coeffs, a.conductor, m),
            _oracle_lift(b.coeffs, b.conductor, m))


_conductors = st.sampled_from([1, 2, 3, 4, 5, 6, 7, 8, 9, 12])


@st.composite
def _any_cyclo(draw, conductor=None):
    n = draw(_conductors) if conductor is None else conductor
    coeffs = [draw(_small_rationals) for _ in range(euler_phi(n))]
    if draw(st.booleans()):
        # sparse values reach the zero element and the rational ones
        coeffs = [c if draw(st.booleans()) else 0 for c in coeffs]
    return CycloNum(n, coeffs)


def _assert_canonical(x):
    assert x._den > 0
    assert gcd(x._den, *x._num) == 1
    assert all(type(c) is int for c in x._num + (x._den,))
    if x.is_zero():
        assert x._num == (0,) * euler_phi(x.conductor) and x._den == 1


@given(_any_cyclo())
def test_integer_form_is_canonical_and_round_trips(x):
    _assert_canonical(x)
    assert all(type(c) is Fraction for c in x.coeffs)
    again = CycloNum(x.conductor, x.coeffs)
    assert again == x
    assert (again._num, again._den) == (x._num, x._den)


@given(_conductors, st.integers(1, 30))
def test_zero_is_unique(n, scale):
    zeros = [CycloNum(n, [0] * euler_phi(n)),
             CycloNum.from_rational(Fraction(0, scale), n),
             CycloNum.zeta(n) * 0,
             CycloNum.zeta(n) / scale - CycloNum.zeta(n) / scale]
    for z in zeros:
        _assert_canonical(z)
        assert (z._num, z._den) == ((0,) * euler_phi(n), 1)


@given(_any_cyclo(), _any_cyclo())
def test_sum_difference_product_match_the_schoolbook_formula(a, b):
    m, xs, ys = _oracle_pair(a, b)
    for got, want in ((a + b, tuple(x + y for x, y in zip(xs, ys))),
                      (a - b, tuple(x - y for x, y in zip(xs, ys))),
                      (a * b, _oracle_mul(xs, ys, m))):
        _assert_canonical(got)
        assert got.conductor == m
        assert got.coeffs == want


@given(_any_cyclo())
def test_inverse_matches_the_schoolbook_formula(a):
    if a.is_zero():
        return
    inv = a.inverse()
    _assert_canonical(inv)
    one = (Fraction(1),) + (Fraction(0),) * (euler_phi(a.conductor) - 1)
    assert _oracle_mul(a.coeffs, inv.coeffs, a.conductor) == one


@given(_any_cyclo(), st.sampled_from([1, 2, 3, 4, 5]))
def test_lift_matches_the_schoolbook_formula(a, factor):
    m = a.conductor * factor
    lifted = a.lift(m)
    _assert_canonical(lifted)
    assert lifted.conductor == m
    assert lifted.coeffs == _oracle_lift(a.coeffs, a.conductor, m)


@given(_any_cyclo(), _any_cyclo())
def test_equality_across_conductors_matches_the_schoolbook_formula(a, b):
    _, xs, ys = _oracle_pair(a, b)
    assert (a == b) == (xs == ys)
    # same integer coordinates, another denominator
    assert (a == a / 2) == a.is_zero()
    m = lcm(a.conductor, b.conductor)
    assert a == a.lift(m) and a.lift(m) == a
    # a value equal to b's lift into a larger field
    assert b * 1 == CycloNum(m, _oracle_lift(b.coeffs, b.conductor, m))


def test_norm_known_values():
    i = CycloNum.zeta(4)
    z13 = CycloNum.zeta(13)
    sqrt2 = CycloNum.zeta(8) + CycloNum.zeta(8) ** 7
    assert (1 + i).norm() == 2                   # (1 + i)(1 - i)
    assert (2 * z13).norm() == 2 ** 12           # N(zeta) = 1, N(2) = 2^phi
    assert sqrt2.norm() == 4                     # (sqrt2 * -sqrt2)^2
    assert (1 - CycloNum.zeta(7)).norm() == 7    # Phi_7(1)
    assert (z13 / 4).norm() == Fraction(1, 4 ** 12)
    assert CycloNum.from_rational(Fraction(-2, 3), 5).norm() == Fraction(16, 81)
    assert CycloNum.from_rational(0, 3).norm() == 0


@given(_any_cyclo(), _any_cyclo())
def test_norm_is_multiplicative_and_inverts(a, b):
    m = lcm(a.conductor, b.conductor)
    a, b = a.lift(m), b.lift(m)
    assert (a * b).norm() == a.norm() * b.norm()
    if not a.is_zero():
        assert a.inverse().norm() == 1 / a.norm()


@given(st.integers(-10 ** 6, 10 ** 6), _conductors)
def test_from_rational_integer_matches_the_fraction_path(value, n):
    fast = CycloNum.from_rational(value, n)
    slow = CycloNum(n, (Fraction(value),) + (0,) * (euler_phi(n) - 1))
    _assert_canonical(fast)
    assert (fast.conductor, fast._num, fast._den) == (
        slow.conductor, slow._num, slow._den)


# ---------------------------------------------------------------------------
# A product with a rational operand scales the other operand's coordinates by
# one integer, and a product with 1 is the other operand itself; only two
# irrational operands reach the full power-basis product ``_product``.

def _only_irrational_products():
    real = cyclo._product

    def spy(n, x, y):
        assert any(x[1:]) and any(y[1:]), "a rational operand reached _product"
        return real(n, x, y)
    return mock.patch.object(cyclo, "_product", spy)


@st.composite
def _one_rational_or_irrational(draw, n):
    kind = draw(st.sampled_from(["one", "rational", "irrational"]))
    if kind == "one":
        return CycloNum.from_rational(draw(st.sampled_from([1, Fraction(1)])), n)
    coeffs = [draw(_small_rationals)] + [0] * (euler_phi(n) - 1)
    if kind == "irrational" and n > 2:
        coeffs[draw(st.integers(1, euler_phi(n) - 1))] = draw(
            st.sampled_from([1, -1, 2, Fraction(-3, 4)]))
    return CycloNum(n, coeffs)


@seed(20)
@settings(max_examples=300, deadline=None)
@given(st.data())
def test_products_skip_rational_operands_and_match_the_schoolbook_formula(data):
    conductors = st.sampled_from([1, 3, 5, 8, 12])
    a = data.draw(_one_rational_or_irrational(data.draw(conductors)))
    b = data.draw(_one_rational_or_irrational(
        data.draw(st.one_of(st.just(a.conductor), conductors))))
    m, xs, ys = _oracle_pair(a, b)
    with _only_irrational_products():
        got = a * b
    _assert_canonical(got)
    assert got.conductor == m
    assert got.coeffs == _oracle_mul(xs, ys, m)
    if not (a.is_rational() or b.is_rational()):
        u, v = a.lift(m), b.lift(m)
        assert got == CycloNum(m, [Fraction(c, u._den * v._den) for c in
                                   cyclo._product(m, u._num, v._num)])
    # a product with 1 returns the other operand, lifted if it must be
    others = [v for u, v in ((a, b), (b, a)) if u == 1]
    assert not others or any(got is v or (v.conductor != m and got == v)
                             for v in others)


@pytest.mark.parametrize("n", [1, 3, 5, 8, 12])
def test_one_times_a_value_is_that_value(n):
    z = CycloNum.zeta(n) + Fraction(1, 3)
    one = CycloField(n).one
    for got in (z * 1, 1 * z, z * one, one * z, z * Fraction(1),
                z * CycloNum.from_rational(1)):
        assert got is z
    assert (z * CycloNum.from_rational(1, 2 * n)).conductor == lcm(n, 2 * n)


@pytest.mark.parametrize("n", [3, 5, 8, 12])
def test_norms_and_inverses_take_no_full_product_of_a_rational(n):
    # zeta_5^2 zeta_5^3 = 1: a partial product of conjugates can be rational
    values = [CycloNum.zeta(n), 2 * CycloNum.zeta(n) - 1,
              CycloNum.zeta(n) ** 2 + Fraction(1, 2)]
    for a in values:
        with _only_irrational_products():
            inv, norm = a.inverse(), a.norm()
        assert _oracle_mul(a.coeffs, inv.coeffs, n) == tuple(
            Fraction(int(i == 0)) for i in range(euler_phi(n)))
        assert norm * inv.norm() == 1
