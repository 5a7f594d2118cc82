from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from pvkit.arith.cyclo import CycloField, CycloNum, QQ
from pvkit.arith.poly import Poly
from pvkit.arith.ops import (
    dispersion,
    dispersion_with_flag,
    integer_roots,
    resultant,
)
from pvkit.base import SigmaSpec
from pvkit.errors import NonRationalCoefficients


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
    assert dispersion(_p(-4, 1), _p(-1, 1), sig) == 2
    value, complete = dispersion_with_flag(_p(-4, 1), _p(-1, 1), sig)
    assert value == 2 and complete is True
    # roots 4 and 2 against root 1: candidates 2 and 1, largest verified is 2
    assert dispersion(_p(-4, 1) * _p(-2, 1), _p(-1, 1), sig) == 2
    # no q-power relates the roots
    assert dispersion(_p(-3, 1), _p(-1, 1), sig) is None
    # shared x factors are stripped, not an excuse for an infinite answer
    assert dispersion(_p(0, 0, 1), _p(0, 1), sig) is None


def test_qshift_dispersion_with_rational_q_less_than_one():
    sig = SigmaSpec.qshift(CycloNum.from_rational(Fraction(1, 2)))
    # root of p = 1, root of r = 4: 1 = (1/2)^2 * 4
    assert dispersion(_p(-1, 1), _p(-4, 1), sig) == 2


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
