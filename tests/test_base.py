from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum, QQ
from pvkit.arith.poly import Poly, RatFunc, RatFuncField
from pvkit.base import (
    DiffField,
    SigmaSpec,
    apply_sigma,
    apply_sigma_power,
    is_constant,
    lift_ratfunc,
)
from pvkit.errors import RootOfUnityScale, ZeroScale


def _x(field=QQ):
    return RatFunc.x(field)


def test_sigma_spec_rejects_degenerate_q():
    with pytest.raises(ZeroScale):
        SigmaSpec.qshift(CycloNum.from_rational(0))
    with pytest.raises(RootOfUnityScale):
        SigmaSpec.qshift(CycloNum.from_rational(1))
    with pytest.raises(RootOfUnityScale):
        SigmaSpec.qshift(CycloNum.from_rational(-1))
    with pytest.raises(RootOfUnityScale):
        SigmaSpec.qshift(CycloNum.zeta(8))
    # fine: 2, 1/2, and a non-unit cyclotomic like 1+zeta_4
    SigmaSpec.qshift(CycloNum.from_rational(2))
    SigmaSpec.qshift(CycloNum.from_rational(Fraction(1, 2)))
    SigmaSpec.qshift(CycloNum.zeta(4) + 1)


def test_apply_sigma_shift_and_qshift():
    ks = DiffField(SigmaSpec.shift())
    x = _x()
    assert apply_sigma(ks, x) == x + 1
    kq = DiffField(SigmaSpec.qshift(CycloNum.from_rational(2)), CycloField(1))
    assert apply_sigma(kq, x * x) == 4 * x * x
    assert apply_sigma(kq, kq.coerce(3)) == 3


def test_apply_sigma_power_examples():
    ks = DiffField(SigmaSpec.shift())
    x = _x()
    assert apply_sigma_power(ks, x, -1) == x - 1
    assert apply_sigma_power(ks, x, 3) == x + 3
    kq = DiffField(SigmaSpec.qshift(CycloNum.from_rational(2)))
    assert apply_sigma_power(kq, x, -2) == x / 4


@pytest.mark.parametrize("j", [1, -1, 3, -3])
@pytest.mark.parametrize("sigma", [SigmaSpec.shift(),
                                   SigmaSpec.qshift(CycloNum.from_rational(2))],
                         ids=["shift", "q=2"])
def test_sigma_power_returns_a_constant_unchanged(sigma, j):
    # sigma fixes C pointwise, so no translate is built
    k = DiffField(sigma, CycloField(3))
    for c in (k.zero(), k.one(), k.coerce(Fraction(-5, 3)),
              k.coerce(2 * CycloNum.zeta(3) - 1)):
        assert apply_sigma_power(k, c, j) is c


@pytest.mark.parametrize("sigma", [SigmaSpec.shift(),
                                   SigmaSpec.qshift(CycloNum.from_rational(2))],
                         ids=["shift", "q=2"])
def test_translate_by_zero_is_the_identity(sigma):
    # sigma^0 builds no new polynomial
    p = Poly(QQ, (1, -3, 0, 2))
    assert sigma.translate(p, 0) is p


def test_is_constant_examples():
    ks = DiffField(SigmaSpec.shift())
    assert is_constant(ks, ks.coerce(Fraction(5, 7)))
    assert not is_constant(ks, _x())
    # canonical reduction first: (2x+2)/(2x+2) = 1
    f = RatFunc(Poly(QQ, (2, 2)), Poly(QQ, (2, 2)))
    assert is_constant(ks, f)


def test_lift_ratfunc_to_bigger_constants():
    f = RatFunc(Poly(QQ, (1, 1)), Poly(QQ, (0, 1)))
    lifted = lift_ratfunc(f, CycloField(4))
    assert lifted.num.field == CycloField(4)
    assert lifted == RatFunc(Poly(CycloField(4), (1, 1)), Poly(CycloField(4), (0, 1)))
    tower = RatFuncField(QQ, "t1")
    up = lift_ratfunc(f, tower)
    assert up.num.field == tower


_rats = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@st.composite
def _ratfuncs(draw):
    num = draw(st.lists(_rats, min_size=1, max_size=3))
    den = draw(st.lists(_rats, min_size=1, max_size=3))
    nump = Poly(QQ, num)
    denp = Poly(QQ, den)
    if denp.is_zero():
        denp = Poly.one(QQ)
    if nump.is_zero():
        nump = Poly.one(QQ)
    return RatFunc(nump, denp)


@pytest.mark.parametrize("make_field", [
    lambda: DiffField(SigmaSpec.shift()),
    lambda: DiffField(SigmaSpec.qshift(CycloNum.from_rational(3))),
])
def test_sigma_is_a_field_automorphism(make_field):
    k = make_field()

    @given(_ratfuncs(), _ratfuncs())
    def check(f, g):
        assert apply_sigma(k, f + g) == apply_sigma(k, f) + apply_sigma(k, g)
        assert apply_sigma(k, f * g) == apply_sigma(k, f) * apply_sigma(k, g)
        if not f.is_zero():
            assert apply_sigma(k, 1 / f) == 1 / apply_sigma(k, f)

    check()


@pytest.mark.parametrize("make_field", [
    lambda: DiffField(SigmaSpec.shift()),
    lambda: DiffField(SigmaSpec.qshift(CycloNum.from_rational(Fraction(2, 3)))),
])
def test_sigma_power_inverts(make_field):
    k = make_field()

    @given(_ratfuncs(), st.integers(min_value=-3, max_value=3))
    def check(f, j):
        assert apply_sigma_power(k, apply_sigma_power(k, f, j), -j) == f
        assert is_constant(k, f) == (apply_sigma(k, f) == f)

    check()


@pytest.mark.parametrize("make_field", [
    lambda: DiffField(SigmaSpec.shift()),
    lambda: DiffField(SigmaSpec.qshift(CycloNum.from_rational(Fraction(2, 3)))),
])
def test_sigma_power_is_canonical_without_a_gcd(make_field):
    # sigma is an automorphism of C[x], so the translates of a reduced pair
    # stay coprime; only the denominator's leading coefficient changes
    k = make_field()

    @given(_ratfuncs(), st.integers(min_value=-3, max_value=3))
    def check(f, j):
        got = apply_sigma_power(k, f, j)
        assert got.den.is_monic()
        assert got == RatFunc(k.sigma.translate(f.num, j),
                              k.sigma.translate(f.den, j))

    check()


def test_k_field_is_built_once_per_field():
    k = DiffField(SigmaSpec.shift(), CycloField(3))
    assert k.k_field is k.k_field
    assert k.one() is k.k_field.one
    # equality still compares the defining data, not the cached field
    assert k == DiffField(SigmaSpec.shift(), CycloField(3))
